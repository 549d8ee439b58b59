//! The collaborative model-release process (§IV-A, Fig. 4).
//!
//! Hundreds of ranking engineers iterate on one production model: ideas are
//! **explored** in many small jobs on <5% of the table, the promising ones
//! **combined** into tens-to-hundreds of large combo jobs inside a short
//! window, and the best **release candidates** train on fresh data. Because
//! compute is scarce relative to per-job demand, engineers launch combo
//! jobs asynchronously as slots free up and kill laggards — producing the
//! large temporal skew and high kill/fail rates of Fig. 4.

use dsi_types::rng::SplitMix64;
use dsi_types::JobId;

/// Phase a job belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Small idea-exploration job (<5% of the table).
    Explore,
    /// Large combination job inside the combo window.
    Combo,
    /// Final release-candidate job on fresh data.
    ReleaseCandidate,
}

/// Final status of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobStatus {
    /// Ran to completion.
    Completed,
    /// Crashed or diverged.
    Failed,
    /// Killed by its owner for lackluster metrics.
    Killed,
}

/// One training job in a release iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Job identity.
    pub id: JobId,
    /// Phase.
    pub kind: JobKind,
    /// Submission day within the iteration.
    pub submit_day: f64,
    /// Runtime in days.
    pub duration_days: f64,
    /// Outcome.
    pub status: JobStatus,
    /// Fraction of the table's samples the job reads.
    pub table_fraction: f64,
    /// Relative compute units consumed.
    pub compute_units: f64,
}

/// Release-process generator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReleaseConfig {
    /// Exploratory jobs per iteration.
    pub explore_jobs: u32,
    /// Combo jobs per iteration (Fig. 4 shows 82 for RM1).
    pub combo_jobs: u32,
    /// Release candidates per iteration.
    pub release_candidates: u32,
    /// Length of the combo window in days.
    pub combo_window_days: f64,
    /// Median combo duration in days.
    pub combo_median_days: f64,
    /// Probability a combo job fails.
    pub fail_rate: f64,
    /// Probability a combo job is killed for poor metrics.
    pub kill_rate: f64,
}

impl Default for ReleaseConfig {
    fn default() -> Self {
        Self {
            explore_jobs: 600,
            combo_jobs: 82,
            release_candidates: 4,
            combo_window_days: 14.0,
            combo_median_days: 4.0,
            fail_rate: 0.18,
            kill_rate: 0.25,
        }
    }
}

/// Generates the jobs of release iterations.
#[derive(Debug, Clone)]
pub struct ReleaseProcess {
    config: ReleaseConfig,
}

impl ReleaseProcess {
    /// Creates a generator.
    pub fn new(config: ReleaseConfig) -> Self {
        Self { config }
    }

    /// Generates one iteration's jobs deterministically from `seed`.
    pub fn generate_iteration(&self, seed: u64) -> Vec<Job> {
        let mut rng = SplitMix64::new(seed);
        let c = &self.config;
        let mut jobs = Vec::new();
        let mut next_id = 0u64;
        let push = |jobs: &mut Vec<Job>, job: Job| jobs.push(job);

        // Explore: small, cheap, spread over the whole iteration.
        for _ in 0..c.explore_jobs {
            let duration = rng.next_lognormal(0.5, 0.6);
            push(
                &mut jobs,
                Job {
                    id: JobId(next_id),
                    kind: JobKind::Explore,
                    submit_day: rng.next_f64() * c.combo_window_days * 2.0,
                    duration_days: duration,
                    status: if rng.chance(0.15) {
                        JobStatus::Killed
                    } else {
                        JobStatus::Completed
                    },
                    table_fraction: 0.01 + rng.next_f64() * 0.04, // < 5%
                    compute_units: duration * 1.0,
                },
            );
            next_id += 1;
        }

        // Combo: large, launched asynchronously inside the window as slots
        // free — arrivals skew early but straggle throughout (Fig. 4).
        for _ in 0..c.combo_jobs {
            // Early-biased arrival: cubed uniform leans hard toward day 0.
            let u = rng.next_f64();
            let submit = u * u * u * c.combo_window_days;
            let status = if rng.chance(c.fail_rate) {
                JobStatus::Failed
            } else if rng.chance(c.kill_rate) {
                JobStatus::Killed
            } else {
                JobStatus::Completed
            };
            // Killed/failed jobs die early; completed ones run long, some
            // past 10 days.
            let duration = match status {
                JobStatus::Completed => rng.next_lognormal(c.combo_median_days, 0.5),
                JobStatus::Failed => rng.next_lognormal(c.combo_median_days * 0.4, 0.8),
                JobStatus::Killed => rng.next_lognormal(c.combo_median_days * 0.6, 0.7),
            };
            push(
                &mut jobs,
                Job {
                    id: JobId(next_id),
                    kind: JobKind::Combo,
                    submit_day: submit,
                    duration_days: duration,
                    status,
                    table_fraction: 0.7 + rng.next_f64() * 0.3,
                    compute_units: duration * 40.0,
                },
            );
            next_id += 1;
        }

        // Release candidates: few, large, after the combo window.
        for _ in 0..c.release_candidates {
            let duration = rng.next_lognormal(c.combo_median_days * 1.5, 0.3);
            push(
                &mut jobs,
                Job {
                    id: JobId(next_id),
                    kind: JobKind::ReleaseCandidate,
                    submit_day: c.combo_window_days + rng.next_f64() * 3.0,
                    duration_days: duration,
                    status: JobStatus::Completed,
                    table_fraction: 0.9,
                    compute_units: duration * 50.0,
                },
            );
            next_id += 1;
        }
        jobs
    }
}

impl Default for ReleaseProcess {
    fn default() -> Self {
        Self::new(ReleaseConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn combos(jobs: &[Job]) -> Vec<&Job> {
        jobs.iter().filter(|j| j.kind == JobKind::Combo).collect()
    }

    #[test]
    fn iteration_has_configured_job_counts() {
        let jobs = ReleaseProcess::default().generate_iteration(1);
        let c = ReleaseConfig::default();
        assert_eq!(
            jobs.len() as u32,
            c.explore_jobs + c.combo_jobs + c.release_candidates
        );
        assert_eq!(combos(&jobs).len() as u32, c.combo_jobs);
    }

    #[test]
    fn fig4_durations_are_skewed_with_long_tail() {
        let jobs = ReleaseProcess::default().generate_iteration(7);
        let mut durations: Vec<f64> = combos(&jobs).iter().map(|j| j.duration_days).collect();
        durations.sort_by(f64::total_cmp);
        let median = durations[durations.len() / 2];
        let max = *durations.last().unwrap();
        assert!(max > 10.0, "some combo should exceed 10 days, max {max:.1}");
        assert!(max / median > 2.0, "durations should be skewed");
    }

    #[test]
    fn fig4_many_jobs_fail_or_are_killed() {
        let jobs = ReleaseProcess::default().generate_iteration(3);
        let cs = combos(&jobs);
        let unfinished = cs
            .iter()
            .filter(|j| j.status != JobStatus::Completed)
            .count();
        let frac = unfinished as f64 / cs.len() as f64;
        assert!(
            (0.2..0.7).contains(&frac),
            "{:.2} of combo jobs should fail/be killed",
            frac
        );
    }

    #[test]
    fn fig4_arrivals_are_temporally_skewed() {
        let jobs = ReleaseProcess::default().generate_iteration(5);
        let cs = combos(&jobs);
        let window = ReleaseConfig::default().combo_window_days;
        let early = cs.iter().filter(|j| j.submit_day < window / 2.0).count();
        assert!(
            early as f64 / cs.len() as f64 > 0.6,
            "arrivals should lean early: {early}/{}",
            cs.len()
        );
    }

    #[test]
    fn explore_jobs_use_small_table_fractions() {
        let jobs = ReleaseProcess::default().generate_iteration(2);
        assert!(jobs
            .iter()
            .filter(|j| j.kind == JobKind::Explore)
            .all(|j| j.table_fraction < 0.05));
        assert!(jobs
            .iter()
            .filter(|j| j.kind == JobKind::Combo)
            .all(|j| j.table_fraction >= 0.7));
    }

    #[test]
    fn deterministic_per_seed() {
        let p = ReleaseProcess::default();
        assert_eq!(p.generate_iteration(9), p.generate_iteration(9));
        assert_ne!(p.generate_iteration(9), p.generate_iteration(10));
    }
}
