//! # dsi-trace — the trace sampling rule of the DSI pipeline
//!
//! Per-batch causal traces run from the moment the Master schedules a split
//! to the moment the trainer consumes its tensors. The spans live in
//! `dsi_obs::trace` (re-exported here); this crate holds the per-session
//! [`TraceConfig`] that decides which splits are sampled, and [`validate`],
//! the structural check the test suites run over collected spans.
//! Per-stage attribution comes from `dsi_stage_seconds` and the benchmark's
//! waterfall, whose `--trace 1` run also writes a Perfetto file.
//!
//! ## Span model
//!
//! Every *serve* of a split opens a top-level `Schedule` span
//! (`parent_id == 0`). The worker's `Extract`/`Transform`/`Load` spans
//! parent under it; storage-side `StorageRead`/`TectonicIo`/`DwrfDecode`
//! spans parent under `Extract`; the wire's `WireSend`/`WireRecv`, the
//! client's `Deliver`, and the trainer's `Consume` chain on from `Load`.
//! A split re-served after a failure (worker crash, master restore) opens
//! a *second* `Schedule` span in the same deterministic trace, so
//! replayed executions appear as sibling subtrees — no cross-process
//! state needed. Wire replays of unacked frames are flagged
//! [`FLAG_REPLAY`] and show up as sibling `WireSend`/`Deliver` spans.
//!
//! ## Sampling rule
//!
//! `trace_id = mix64(session ⊕ split)` (never 0); a split is sampled iff
//! `trace_id % sample_one_in == 0`. Deterministic in the session and
//! split index alone, so every process (and every replay of the same
//! split) independently agrees on what to record — context never has to
//! cross a failure boundary to keep sampling coherent.

#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};

pub use dsi_obs::trace::{
    next_span_id, now_ns, SpanKind, SpanRing, TraceContext, TraceSpan, FLAG_REPLAY,
};
use dsi_types::rng::mix64;
use dsi_types::SessionId;

/// Default sampling rate: one trace per four splits.
pub const DEFAULT_SAMPLE_ONE_IN: u32 = 4;

/// Deterministic trace id for `(session, split)` — identical on every
/// process and every replay, never 0.
pub fn trace_id_for(session: u64, split: u64) -> u64 {
    let id = mix64(mix64(session ^ 0xD51_7ACE).wrapping_add(split));
    if id == 0 {
        1
    } else {
        id
    }
}

/// Per-session tracing configuration, carried in the `SessionSpec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Sample one split in this many (0 disables tracing entirely).
    pub sample_one_in: u32,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl TraceConfig {
    /// Tracing disabled: every context is [`TraceContext::NONE`].
    pub fn off() -> TraceConfig {
        TraceConfig { sample_one_in: 0 }
    }

    /// Trace every split (tests, chaos validation).
    pub fn all() -> TraceConfig {
        TraceConfig { sample_one_in: 1 }
    }

    /// The production default rate ([`DEFAULT_SAMPLE_ONE_IN`]).
    pub fn default_sampled() -> TraceConfig {
        TraceConfig {
            sample_one_in: DEFAULT_SAMPLE_ONE_IN,
        }
    }

    /// Whether any split can be sampled.
    pub fn enabled(&self) -> bool {
        self.sample_one_in > 0
    }

    /// The deterministic trace id for `(session, split)`, or 0 when the
    /// split is not sampled under this config.
    pub fn trace_id(&self, session: SessionId, split: u64) -> u64 {
        if self.sample_one_in == 0 {
            return 0;
        }
        let id = trace_id_for(session.0, split);
        if id.is_multiple_of(self.sample_one_in as u64) {
            id
        } else {
            0
        }
    }
}

/// Structural validation of collected traces: span ids unique within
/// their trace (no double-parented spans), every non-zero parent resolves
/// within the same trace (no orphans), and time runs forward.
///
/// # Errors
///
/// Returns every violation found, one message per defect.
pub fn validate(spans: &[TraceSpan]) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    let mut ids: HashMap<u64, HashSet<u64>> = HashMap::new();
    for s in spans {
        if s.span_id == 0 {
            errors.push(format!("trace {:#x}: span id 0 is reserved", s.trace_id));
        }
        if !ids.entry(s.trace_id).or_default().insert(s.span_id) {
            errors.push(format!(
                "trace {:#x}: span id {} appears twice (double-parented span)",
                s.trace_id, s.span_id
            ));
        }
        if s.start_ns > s.end_ns {
            errors.push(format!(
                "trace {:#x}: span {} ({}) ends before it starts",
                s.trace_id,
                s.span_id,
                s.kind.as_str()
            ));
        }
    }
    for s in spans {
        if s.parent_id != 0 && !ids[&s.trace_id].contains(&s.parent_id) {
            errors.push(format!(
                "trace {:#x}: span {} ({}) is orphaned — parent {} not in trace",
                s.trace_id,
                s.span_id,
                s.kind.as_str(),
                s.parent_id
            ));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_pinned() {
        // A changed id would re-pick which splits every session samples.
        assert_eq!(trace_id_for(7, 3), 0x7e5a_98c0_2960_32e2);
    }

    fn span(trace: u64, id: u64, parent: u64, kind: SpanKind, start: u64, end: u64) -> TraceSpan {
        TraceSpan {
            trace_id: trace,
            span_id: id,
            parent_id: parent,
            kind,
            start_ns: start,
            end_ns: end,
            split: 5,
            worker: 1,
            seq: 0,
            flags: 0,
        }
    }

    #[test]
    fn sampling_is_deterministic_and_rate_bounded() {
        let cfg = TraceConfig::default_sampled();
        let session = SessionId(7);
        let a: Vec<u64> = (0..1000).map(|i| cfg.trace_id(session, i)).collect();
        let b: Vec<u64> = (0..1000).map(|i| cfg.trace_id(session, i)).collect();
        assert_eq!(a, b, "sampling must be deterministic");
        let sampled = a.iter().filter(|&&id| id != 0).count();
        // One-in-four with a mixed hash: expect ~250, loosely bounded.
        assert!((150..=350).contains(&sampled), "sampled {sampled}/1000");
        assert!(TraceConfig::all().trace_id(session, 3) != 0);
        assert_eq!(TraceConfig::off().trace_id(session, 3), 0);
        assert!(!TraceConfig::default().enabled());
    }

    #[test]
    fn trace_ids_never_zero_and_differ_across_sessions() {
        for split in 0..500 {
            assert_ne!(trace_id_for(1, split), 0);
            assert_ne!(trace_id_for(1, split), trace_id_for(2, split));
        }
    }

    #[test]
    fn validate_accepts_wellformed_and_rejects_defects() {
        let good = vec![
            span(7, 1, 0, SpanKind::Schedule, 0, 10),
            span(7, 2, 1, SpanKind::Extract, 1, 8),
        ];
        assert!(validate(&good).is_ok());
        assert!(validate(&[]).is_ok());

        let orphan = vec![span(7, 2, 99, SpanKind::Extract, 1, 8)];
        let errs = validate(&orphan).unwrap_err();
        assert!(errs[0].contains("orphaned"), "{errs:?}");

        let doubled = vec![
            span(7, 2, 0, SpanKind::Extract, 1, 8),
            span(7, 2, 0, SpanKind::Transform, 2, 9),
        ];
        assert!(validate(&doubled).is_err());

        let backwards = vec![span(7, 3, 0, SpanKind::Extract, 9, 2)];
        assert!(validate(&backwards).is_err());
    }
}
