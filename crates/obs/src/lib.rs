//! # dsi-obs — unified observability for the DSI pipeline
//!
//! One registry, three primitives, zero locks on the hot path. Every
//! component of the pipeline — Scribe bus and streaming ETL, the DWRF
//! reader, the Tectonic storage nodes and SSD cache, the DPP
//! master/workers/clients, and the trainer — emits into a shared
//! [`Registry`], which can then be scraped as Prometheus text
//! ([`prometheus_text`]), dumped as JSON ([`json_snapshot`]), or folded
//! into the paper-style characterization tables of [`PipelineReport`].
//!
//! ```
//! use dsi_obs::{observe_stage_seconds, stage, PipelineReport, Registry, SignalSnapshot};
//!
//! let reg = Registry::new();
//! observe_stage_seconds(&reg, "sess1", stage::EXTRACT, 0.25);
//! reg.counter("dsi_cache_hits_total", &[]).add(42);
//! println!("{}", dsi_obs::prometheus_text(&reg));
//! println!("{}", PipelineReport::collect(&reg));
//! assert_eq!(SignalSnapshot::sample(&reg, "sess1").extract_secs, 0.25);
//! ```
//!
//! Components accept a `Registry` handle (cheap `Arc` clone), so every
//! test, session and process decides what shares a sink. Every series a
//! session writes carries `job="sessN"`; both readers go through
//! [`Registry::select`], the tuner with `{job}` and the report with `{}`.

pub mod expo;
pub mod metrics;
pub mod names;
pub mod registry;
pub mod report;
pub mod signal;
pub mod span;
pub mod trace;

pub use expo::{json_snapshot, prometheus_text};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{Metric, MetricKey, MetricValue, Registry};
pub use report::{NodeRow, PipelineReport, StageRow};
pub use signal::{finite_or_zero, SignalSnapshot};
pub use span::{observe_stage_seconds, stage, STAGE_CYCLES_TOTAL, STAGE_SECONDS};
pub use trace::{next_span_id, now_ns, SpanKind, SpanRing, TraceContext, TraceSpan, FLAG_REPLAY};
