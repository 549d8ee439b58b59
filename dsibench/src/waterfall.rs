//! From a replay's spans to per-layer self times, the rule that they sum
//! to the replay's wall clock, and the layer shares a workload is held to.

use crate::catalog::WorkloadDef;
use crate::outcome::Outcome;
use crate::span::{self_time_by_name, Span};
use std::collections::BTreeMap;

/// Spans of this name hold the benchmark's own verification (reference
/// worker, round-trip comparisons). They are cut out of the replay's wall
/// time: checking is not pipeline work.
pub const CHECK: &str = "check";

/// Layer self times may fall short of the replay's wall time by this share:
/// the rest is the benchmark's own glue between spans.
pub const SUM_TOLERANCE: f64 = 0.05;

#[derive(Debug, Clone)]
pub struct Waterfall {
    /// Wall seconds of the root span, check spans cut out.
    pub wall_s: f64,
    /// Self seconds per span name below the root (root and checks excluded).
    pub by_name: BTreeMap<&'static str, f64>,
    /// The root's own self time: what no layer span covers.
    pub residue_s: f64,
}

impl Waterfall {
    /// The waterfall below the root spans called `root`, taken together.
    pub fn of(spans: &[Span], root: &'static str) -> Option<Self> {
        let mut by_name = BTreeMap::new();
        let mut total_s = 0.0;
        for (index, s) in spans.iter().enumerate() {
            if s.parent.is_none() && s.name == root {
                total_s += s.duration_ns() as f64 / 1e9;
                for (name, seconds) in self_time_by_name(spans, index) {
                    *by_name.entry(name).or_insert(0.0) += seconds;
                }
            }
        }
        let residue_s = by_name.remove(root)?;
        let check_s = by_name.remove(CHECK).unwrap_or(0.0);
        let wall_s = total_s - check_s;
        Some(Self {
            wall_s,
            by_name,
            residue_s,
        })
    }

    /// Self seconds of one span name (0 when it never ran).
    pub fn get(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }

    /// Self seconds of every span whose name is `prefix` or starts with
    /// `prefix.`.
    pub fn seconds_of(&self, prefix: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(name, _)| {
                name.strip_prefix(prefix)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
            })
            .map(|(_, s)| s)
            .sum()
    }

    /// Share of the replay's wall time spent in the named layers.
    pub fn share_of(&self, prefixes: &[&str]) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        prefixes.iter().map(|p| self.seconds_of(p)).sum::<f64>() / self.wall_s
    }

    /// Seconds per layer (the part of a span name before the dot).
    pub fn by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, s) in &self.by_name {
            *out.entry(crate::span::layer_of(name)).or_insert(0.0) += s;
        }
        out
    }

    /// Whether layer self times sum to the wall time within the tolerance.
    pub fn sums_to_wall(&self) -> bool {
        let layers: f64 = self.by_name.values().sum();
        (self.wall_s - layers).abs() <= SUM_TOLERANCE * self.wall_s
    }

    /// Records the layer shares and, if layer self times do not sum to the
    /// replay's wall time, the problem.
    pub fn report(&self, out: &mut Outcome) {
        out.fact("layer_shares", self.describe());
        out.fact("span_self_s", self.describe_spans());
        if !self.sums_to_wall() {
            out.problems.push(format!(
                "layer self times leave {:.1}% of the replay's {:.3}s unattributed",
                100.0 * self.residue_s / self.wall_s,
                self.wall_s
            ));
        }
    }

    /// Self seconds of every span name, for the human-readable report.
    pub fn describe_spans(&self) -> String {
        let parts: Vec<String> = self
            .by_name
            .iter()
            .map(|(name, s)| format!("{name} {s:.4}"))
            .collect();
        parts.join(", ")
    }

    /// One line per layer with its share, for the human-readable report.
    pub fn describe(&self) -> String {
        let mut parts: Vec<String> = self
            .by_layer()
            .iter()
            .map(|(layer, s)| format!("{layer} {:.1}%", 100.0 * s / self.wall_s.max(1e-12)))
            .collect();
        parts.push(format!(
            "unattributed {:.1}%",
            100.0 * self.residue_s / self.wall_s.max(1e-12)
        ));
        parts.join(", ")
    }
}

/// Holds `def` to its honesty floor: `share` is what its layers hold of the
/// replay's wall time.
pub fn report_honesty(def: &WorkloadDef, share: f64, out: &mut Outcome) {
    let Some(h) = def.honesty else {
        return;
    };
    out.fact(
        "honesty_share",
        format!("{share:.3} of {:?}, floor {}", h.layers, h.min_share),
    );
    if share < h.min_share {
        out.problems.push(format!(
            "{:?} hold {:.1}% of replay self time, below the {:.0}% that makes this workload {}",
            h.layers,
            100.0 * share,
            100.0 * h.min_share,
            def.name
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start * 1_000_000_000,
            end_ns: end * 1_000_000_000,
            parent,
            unit: 0,
        }
    }

    fn spans(glue: u64) -> Vec<Span> {
        // replay [0, 100): dwrf 40 (of which tectonic 10), wire 30, check 20,
        // and `glue` seconds nothing covers.
        vec![
            span("replay", 0, 90 + glue, None),
            span("dwrf.read_stripe", 0, 40, Some(0)),
            span("tectonic.read", 5, 15, Some(1)),
            span("wire.encode", 40, 60, Some(0)),
            span("wire.cipher", 60, 70, Some(0)),
            span(CHECK, 70, 90, Some(0)),
        ]
    }

    #[test]
    fn checks_are_cut_out_and_layers_share_the_rest() {
        let w = Waterfall::of(&spans(0), "replay").unwrap();
        assert_eq!(w.wall_s, 70.0);
        assert_eq!(w.residue_s, 0.0);
        assert_eq!(w.get("dwrf.read_stripe"), 30.0);
        assert_eq!(w.seconds_of("wire"), 30.0);
        assert_eq!(w.seconds_of("wire.encode"), 20.0);
        assert_eq!(w.seconds_of("wir"), 0.0);
        assert!((w.share_of(&["tectonic", "dwrf"]) - 40.0 / 70.0).abs() < 1e-12);
        assert_eq!(w.by_layer()["wire"], 30.0);
        assert!(w.sums_to_wall());
        assert!(Waterfall::of(&spans(0), "scratch").is_none());
    }

    #[test]
    fn too_much_glue_breaks_the_sum_rule() {
        assert!(Waterfall::of(&spans(3), "replay").unwrap().sums_to_wall());
        assert!(!Waterfall::of(&spans(10), "replay").unwrap().sums_to_wall());
    }
}
