//! Invariant checkers every chaos test asserts, plus the deadlock
//! watchdog.
//!
//! The central object is the [`EpochTrace`]: a multiset of bitwise
//! content fingerprints of every tensor a client consumed. Tensor
//! content in this pipeline is a deterministic function of the split
//! (workers flush per split), so a faulty run on seed `s` must produce
//! exactly the fingerprint multiset of the fault-free run on `s` —
//! that single comparison captures both *exactly-once delivery* (no
//! lost or duplicated splits/tensors) and *bitwise batch equality
//! after recovery*.
//!
//! All checker output is normalized (sorted multisets, `BTreeMap`
//! label order) so replaying the same [`FaultPlan`](crate::FaultPlan)
//! twice produces byte-identical [`InvariantReport`] text.

use crate::inject::FaultInjector;
use dsi_obs::names::CHAOS_INJECTED_TOTAL;
use dsi_obs::Registry;
use dsi_types::rng::{mix2, mix64};
use dsi_types::MiniBatchTensor;
use std::fmt;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// A 64-bit content fingerprint of a tensor: every dense value, sparse
/// offset/value/score, and label participates bit-exactly.
pub fn tensor_fingerprint(t: &MiniBatchTensor) -> u64 {
    let mut h = mix2(t.dense.rows() as u64, t.dense.cols() as u64);
    for v in t.dense.as_slice() {
        h = mix2(h, v.to_bits() as u64);
    }
    for s in &t.sparse {
        h = mix2(h, s.feature().0);
        for &o in s.offsets() {
            h = mix2(h, o as u64);
        }
        for &v in s.values() {
            h = mix2(h, v);
        }
        if let Some(scores) = s.scores() {
            for v in scores {
                h = mix2(h, v.to_bits() as u64);
            }
        }
    }
    for v in &t.labels {
        h = mix2(h, v.to_bits() as u64);
    }
    mix64(h)
}

/// The multiset of tensor fingerprints one epoch delivered to a client.
#[derive(Debug, Clone, Default)]
pub struct EpochTrace {
    fingerprints: Vec<u64>,
    samples: usize,
}

impl EpochTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one consumed tensor.
    pub fn push(&mut self, t: &MiniBatchTensor) {
        self.fingerprints.push(tensor_fingerprint(t));
        self.samples += t.batch_size();
    }

    /// Number of tensors consumed.
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// True when nothing was consumed.
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }

    /// Total samples consumed.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The fingerprint multiset, sorted (order-independent form).
    pub fn sorted(&self) -> Vec<u64> {
        let mut v = self.fingerprints.clone();
        v.sort_unstable();
        v
    }
}

/// Accumulates named pass/fail checks into deterministic, printable
/// output. Chaos tests assert [`InvariantReport::ok`] and print the
/// report (plus the plan) on failure.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    lines: Vec<String>,
    failures: usize,
}

impl InvariantReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one named check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl fmt::Display) {
        let verdict = if ok { "OK" } else { "FAIL" };
        self.lines.push(format!("{name}: {verdict} ({detail})"));
        if !ok {
            self.failures += 1;
        }
    }

    /// Records an informational line (never fails the report).
    pub fn note(&mut self, name: &str, detail: impl fmt::Display) {
        self.lines.push(format!("{name}: {detail}"));
    }

    /// True when no check failed.
    pub fn ok(&self) -> bool {
        self.failures == 0
    }

    /// Number of failed checks.
    pub fn failures(&self) -> usize {
        self.failures
    }

    /// The normalized report text (also available via `Display`).
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "InvariantReport {{ checks: {}, failures: {} }}",
            self.lines.len(),
            self.failures
        )?;
        for line in &self.lines {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// Exactly-once + bitwise equality: the faulty run's fingerprint
/// multiset must equal the fault-free baseline's on the same seed.
pub fn check_exactly_once(
    report: &mut InvariantReport,
    faulty: &EpochTrace,
    baseline: &EpochTrace,
) {
    let a = faulty.sorted();
    let b = baseline.sorted();
    let lost = multiset_minus(&b, &a);
    let duplicated = multiset_minus(&a, &b);
    report.check(
        "exactly_once_bitwise",
        lost == 0 && duplicated == 0,
        format!(
            "{} tensors, {} samples, lost={lost}, duplicated={duplicated}",
            faulty.len(),
            faulty.samples()
        ),
    );
}

/// Elements of sorted multiset `a` not matched in sorted multiset `b`.
fn multiset_minus(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut missing) = (0, 0, 0);
    while i < a.len() {
        if j >= b.len() || a[i] < b[j] {
            missing += 1;
            i += 1;
        } else if a[i] == b[j] {
            i += 1;
            j += 1;
        } else {
            j += 1;
        }
    }
    missing
}

/// Obs-metric sanity: every fault the injector logged must be visible
/// in the registry's `dsi_chaos_injected_total{fault=...}` counters.
pub fn check_obs_accounting(
    report: &mut InvariantReport,
    injector: &FaultInjector,
    reg: &Registry,
) {
    let counts = injector.injected_counts();
    let mut ok = true;
    let mut parts = Vec::with_capacity(counts.len());
    for (label, n) in &counts {
        let seen = reg.counter_value(CHAOS_INJECTED_TOTAL, &[("fault", label)]);
        if seen != *n {
            ok = false;
        }
        parts.push(format!("{label}={n}/{seen}"));
    }
    let detail = if parts.is_empty() {
        "no faults injected".to_string()
    } else {
        parts.join(" ")
    };
    report.check("obs_accounting", ok, detail);
}

/// Plain-number snapshot of a storage tier's durability state at the end
/// of a run (the tectonic crate depends on chaos, so the checker takes
/// raw counters rather than cluster types).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Chunks still below their target live replica count.
    pub under_replicated: u64,
    /// Under-replicated chunks a rebuild pump could still move (a live
    /// holder to copy from and a live spare node to copy to).
    pub rebuild_queue_depth: u64,
    /// Nodes the failure detector currently declares dead.
    pub dead_nodes: u64,
    /// Checksum mismatches detected on reads.
    pub checksum_failures: u64,
    /// Bad replicas repaired in place after a verified read.
    pub read_repairs: u64,
    /// Chunks re-replicated by the rebuild worker.
    pub rebuilt_chunks: u64,
}

/// Durability invariants over an end-of-run [`DurabilityStats`] snapshot:
///
/// * **rebuild_converged** — no chunk is left under-replicated and the
///   rebuild pump has nothing left it could move (self-healing finished
///   within the run);
/// * **repair_accounting** — every detected checksum failure led to at
///   least one in-place repair or queued rebuild (corruption is never
///   detected and then silently forgotten).
pub fn check_durability(report: &mut InvariantReport, stats: &DurabilityStats) {
    report.check(
        "rebuild_converged",
        stats.under_replicated == 0 && stats.rebuild_queue_depth == 0,
        format!(
            "under_replicated={} queue={} dead_nodes={} rebuilt={}",
            stats.under_replicated,
            stats.rebuild_queue_depth,
            stats.dead_nodes,
            stats.rebuilt_chunks
        ),
    );
    report.check(
        "repair_accounting",
        stats.checksum_failures == 0 || stats.read_repairs + stats.rebuilt_chunks > 0,
        format!(
            "checksum_failures={} read_repairs={} rebuilt={}",
            stats.checksum_failures, stats.read_repairs, stats.rebuilt_chunks
        ),
    );
}

/// Deterministic summary line of what the injector actually fired, for
/// replay-identical report output.
pub fn note_injected(report: &mut InvariantReport, injector: &FaultInjector) {
    let counts = injector.injected_counts();
    let detail = if counts.is_empty() {
        "none".to_string()
    } else {
        counts
            .iter()
            .map(|(label, n)| format!("{label}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.note("injected", detail);
}

/// Runs `f` on a fresh thread under a deadlock watchdog.
///
/// If `f` neither returns nor panics within `timeout`, the watchdog
/// panics with `context` (conventionally the `FaultPlan` dump) so a
/// hung chaos schedule is diagnosable. A panic inside `f` is resumed
/// on the caller's thread.
pub fn with_watchdog<T, F>(timeout: Duration, context: String, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = thread::Builder::new()
        .name("chaos-epoch".into())
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn watchdogged thread");
    match rx.recv_timeout(timeout) {
        Ok(v) => {
            let _ = handle.join();
            v
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("sender dropped without send or panic"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // The epoch thread is detached (it may be deadlocked and can
            // never be joined); dump the schedule so the hang reproduces.
            panic!("chaos watchdog: no completion within {timeout:?}\n{context}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultEvent, FaultKind, FaultPlan, HookPoint};
    use dsi_types::batch::DenseMatrix;

    fn tensor(label: f32) -> MiniBatchTensor {
        MiniBatchTensor {
            dense: DenseMatrix::zeros(1, 1),
            sparse: Vec::new(),
            labels: vec![label],
        }
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let a = tensor(1.0);
        let mut b = tensor(1.0);
        assert_eq!(tensor_fingerprint(&a), tensor_fingerprint(&b));
        b.labels[0] = 1.0000001;
        assert_ne!(tensor_fingerprint(&a), tensor_fingerprint(&b));
    }

    #[test]
    fn exactly_once_catches_loss_and_duplication() {
        let mut base = EpochTrace::new();
        let mut ok = EpochTrace::new();
        for i in 0..4 {
            base.push(&tensor(i as f32));
            ok.push(&tensor((3 - i) as f32)); // reordered is fine
        }
        let mut report = InvariantReport::new();
        check_exactly_once(&mut report, &ok, &base);
        assert!(report.ok(), "{report}");

        let mut lossy = EpochTrace::new();
        lossy.push(&tensor(0.0));
        lossy.push(&tensor(1.0));
        lossy.push(&tensor(1.0)); // duplicate
        let mut report = InvariantReport::new();
        check_exactly_once(&mut report, &lossy, &base);
        assert!(!report.ok());
        let text = report.render();
        assert!(
            text.contains("lost=2") && text.contains("duplicated=1"),
            "{text}"
        );
    }

    #[test]
    fn obs_accounting_flags_missing_counters() {
        let reg = Registry::new();
        let inj = FaultInjector::new(FaultPlan::named(vec![FaultEvent::new(
            HookPoint::TectonicRead,
            1,
            FaultKind::IoError,
        )]));
        // Registry attached: counter mirrors the log, check passes.
        inj.attach_registry(reg.clone());
        inj.fire(HookPoint::TectonicRead);
        let mut report = InvariantReport::new();
        check_obs_accounting(&mut report, &inj, &reg);
        assert!(report.ok(), "{report}");
        // A fresh registry that never saw the injection fails the check.
        let mut report = InvariantReport::new();
        check_obs_accounting(&mut report, &inj, &Registry::new());
        assert!(!report.ok());
    }

    #[test]
    fn report_rendering_is_deterministic() {
        let build = || {
            let mut r = InvariantReport::new();
            r.check("a", true, "x=1");
            r.note("b", "y=2");
            r.render()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn watchdog_passes_results_through() {
        let v = with_watchdog(Duration::from_secs(5), String::new(), || 41 + 1);
        assert_eq!(v, 42);
    }

    #[test]
    fn watchdog_panics_with_context_on_hang() {
        let result = std::panic::catch_unwind(|| {
            with_watchdog(Duration::from_millis(50), "PLAN-DUMP-MARKER".into(), || {
                thread::sleep(Duration::from_secs(30));
            })
        });
        let err = result.expect_err("watchdog should fire");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("PLAN-DUMP-MARKER"), "{msg}");
    }

    #[test]
    fn watchdog_propagates_inner_panics() {
        let result = std::panic::catch_unwind(|| {
            with_watchdog(Duration::from_secs(5), String::new(), || {
                panic!("inner boom");
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn durability_checker_accepts_a_healed_cluster() {
        let mut report = InvariantReport::new();
        check_durability(
            &mut report,
            &DurabilityStats {
                under_replicated: 0,
                rebuild_queue_depth: 0,
                dead_nodes: 1,
                checksum_failures: 2,
                read_repairs: 2,
                rebuilt_chunks: 5,
            },
        );
        assert!(report.ok(), "{}", report.render());
    }

    #[test]
    fn durability_checker_flags_unconverged_rebuild() {
        let mut report = InvariantReport::new();
        check_durability(
            &mut report,
            &DurabilityStats {
                under_replicated: 3,
                ..DurabilityStats::default()
            },
        );
        assert!(!report.ok());
        assert!(report.render().contains("rebuild_converged"));
    }

    #[test]
    fn durability_checker_flags_forgotten_corruption() {
        let mut report = InvariantReport::new();
        check_durability(
            &mut report,
            &DurabilityStats {
                checksum_failures: 1,
                read_repairs: 0,
                rebuilt_chunks: 0,
                ..DurabilityStats::default()
            },
        );
        assert!(!report.ok());
        assert!(report.render().contains("repair_accounting"));
    }
}
