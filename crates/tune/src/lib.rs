//! dsi-tune: closed-loop online tuning for the DPP data pipeline.
//!
//! The paper's DPP auto-scales one resource — worker count — with a
//! fixed-rule watermark controller (§III-B1). This crate generalizes
//! that into InTune-style joint tuning (ROADMAP item 4): a
//! [`TunerPolicy`](dpp::TunerPolicy) reads the live `dsi-obs` signal
//! stream (trainer stall fraction, client fetch tail + starvation,
//! fastpath pool health, per-stage span seconds) and moves *all* the
//! pipeline knobs — workers, read-ahead depth, batch size, per-stage
//! parallelism — under guarded exploration that never crosses hard
//! bounds and reverts moves that fail to pay off.
//!
//! Two layers:
//!
//! - [`policy`]: the [`OnlineTuner`] bandit/hill-climbing policy.
//! - [`sim`]: deterministic virtual-time pipeline scenarios
//!   (extract-bound, transform-bound, trainer-bound, diurnal) on which
//!   the tuner and the static scaler compete for the bench suite.
//!
//! Applying a policy to a running session is [`dpp::LiveTuner`]'s job,
//! the same tick whichever policy it holds.

#![warn(missing_docs)]

pub mod policy;
pub mod sim;

pub use policy::{OnlineTuner, TunerConfig};
pub use sim::{run_scenario, Scenario, TunePoint, TuneTrace};
