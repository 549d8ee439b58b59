//! What one run of one workload is asked to do and what it hands back.

use crate::catalog::MetricDef;
use std::collections::BTreeMap;

/// Setups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the timed region; it ends with the first epoch (or day)
    /// that finishes after this many seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics. `true`: per-layer metrics.
    pub trace: bool,
    /// A shrunken dataset and a single epoch, for the unit tests only.
    pub smoke: bool,
}

impl RunArgs {
    /// Set-ups to run: `setup_s` is only reported by a real end-to-end run.
    pub fn setup_repeats(&self) -> usize {
        if self.trace || self.smoke {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked: batches expected, or partitions landed.
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// Structural failures: the replay drifted from the worker, layers do
    /// not sum to wall clock, a workload no longer stresses its layer.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Everything else a reader needs to compare two runs: input digest,
    /// epochs, samples, timed wall time, layer shares.
    pub facts: Vec<(&'static str, String)>,
    /// The replay's spans as Chrome trace-event JSON (traced runs only).
    pub trace_json: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn fact(&mut self, key: &'static str, value: impl ToString) {
        self.facts.push((key, value.to_string()));
    }

    /// The metrics of `defs` in catalog order. A per-layer metric the
    /// workload has no use for reads 0; a missing end-to-end metric is a
    /// bug in the workload.
    pub fn metrics_in_order(
        &self,
        defs: &'static [MetricDef],
        required: bool,
    ) -> Vec<(&'static MetricDef, f64)> {
        defs.iter()
            .map(|def| {
                let value = self.metrics.get(def.name).copied();
                assert!(
                    value.is_some() || !required,
                    "workload did not report {}",
                    def.name
                );
                (def, value.unwrap_or(0.0))
            })
            .collect()
    }
}
