//! A wall-clock trainer that consumes a live DPP session.
//!
//! [`LiveTrainer`] drives a real [`Client`]: each iteration fetches a
//! tensor (measuring time blocked on data) and then "trains" on it for the
//! batch's GPU service time at the trainer's sample rate. It is the
//! measurement harness the integration tests and the end-to-end example use
//! to show that DPP eliminates stalls a starved configuration exhibits.
//!
//! The GPU stalls whenever no tensor is buffered at iteration start — the
//! condition DPP's buffered tensors are sized against (§III-B1:
//! "maintaining a non-zero number of buffered tensors"); [`StallReport`]
//! says how long that was.

use crate::Client;
use std::time::{Duration, Instant};

/// How long a trainer ran and how much of that it waited for data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallReport {
    /// Batches consumed.
    pub batches: u64,
    /// Total seconds.
    pub elapsed_secs: f64,
    /// Seconds the GPU spent waiting for data.
    pub stalled_secs: f64,
    /// `stalled_secs / elapsed_secs`.
    pub stall_fraction: f64,
}

impl StallReport {
    /// Publishes this report into `registry` under `job` (the session the
    /// trainer consumes; sessions sharing a registry never collide): the
    /// data-stall fraction, stalled/elapsed wall-time gauges, the
    /// consumed-batch counter, and one `stall` stage observation carrying
    /// the total stalled time (so the pipeline report's stage table shows
    /// where the GPU waited).
    pub fn publish_metrics(&self, registry: &dsi_obs::Registry, job: &str) {
        use dsi_obs::names;
        let labels = [("job", job)];
        registry
            .gauge(names::TRAINER_STALL_FRACTION, &labels)
            .set(self.stall_fraction);
        registry
            .gauge(names::TRAINER_STALLED_SECONDS, &labels)
            .set(self.stalled_secs);
        registry
            .gauge(names::TRAINER_ELAPSED_SECONDS, &labels)
            .set(self.elapsed_secs);
        registry
            .counter(names::TRAINER_BATCHES_TOTAL, &labels)
            .add(self.batches);
        dsi_obs::observe_stage_seconds(registry, job, dsi_obs::stage::STALL, self.stalled_secs);
    }
}

/// A wall-clock training loop over a DPP client.
#[derive(Debug)]
pub struct LiveTrainer {
    client: Client,
    /// Samples per second the simulated GPUs consume.
    samples_per_sec: f64,
    registry: Option<dsi_obs::Registry>,
}

impl LiveTrainer {
    /// Creates a trainer over `client` whose GPUs consume `samples_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics if `samples_per_sec` is not positive.
    pub fn new(client: Client, samples_per_sec: f64) -> Self {
        assert!(samples_per_sec > 0.0, "sample rate must be positive");
        Self {
            client,
            samples_per_sec,
            registry: None,
        }
    }

    /// Attaches a metrics registry (builder-style): each [`LiveTrainer::train`]
    /// call publishes its [`StallReport`] and trained-sample count into it.
    pub fn with_registry(mut self, registry: &dsi_obs::Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Consumes up to `max_batches` batches (or until the session ends),
    /// returning the stall report and the number of samples trained.
    ///
    /// Each iteration waits on the client for a tensor (time blocked there
    /// is the stall), then occupies the GPU for the batch's service time.
    /// The client already reads from bounded worker buffers (and, on TCP,
    /// a reader thread decodes frames), so the trainer's own thread does
    /// the fetching. At most `max_batches` tensors leave the client, so a
    /// capped run leaves the rest for the next call.
    pub fn train(&mut self, max_batches: u64) -> (StallReport, u64) {
        let start = Instant::now();
        let mut stalled = Duration::ZERO;
        let mut batches = 0u64;
        let mut samples = 0u64;
        while batches < max_batches {
            let wait_start = Instant::now();
            let Some(tensor) = self.client.next_batch() else {
                break;
            };
            stalled += wait_start.elapsed();
            let trace = self.client.last_trace();
            batches += 1;
            samples += tensor.batch_size() as u64;
            let service = tensor.batch_size() as f64 / self.samples_per_sec;
            let consume_start = dsi_obs::now_ns();
            spin_sleep(Duration::from_secs_f64(service));
            record_consume(&self.registry, trace, consume_start);
        }
        let elapsed = start.elapsed();
        let report = StallReport {
            batches,
            elapsed_secs: elapsed.as_secs_f64(),
            stalled_secs: stalled.as_secs_f64(),
            stall_fraction: if elapsed.is_zero() {
                0.0
            } else {
                stalled.as_secs_f64() / elapsed.as_secs_f64()
            },
        };
        if let Some(reg) = &self.registry {
            report.publish_metrics(reg, self.client.job());
            reg.counter(
                dsi_obs::names::TRAINER_SAMPLES_TOTAL,
                &[("job", self.client.job())],
            )
            .add(samples);
        }
        (report, samples)
    }
}

/// Records the trainer-side `Consume` span: the GPU service time of one
/// batch, parented under the delivering client's `Deliver` span. No-op
/// without a registry or for unsampled tensors.
fn record_consume(
    registry: &Option<dsi_obs::Registry>,
    trace: dsi_obs::TraceContext,
    start_ns: u64,
) {
    let Some(reg) = registry else { return };
    if !trace.is_sampled() {
        return;
    }
    reg.record_span(dsi_obs::TraceSpan {
        trace_id: trace.trace_id,
        span_id: dsi_obs::next_span_id(),
        parent_id: trace.span_id,
        kind: dsi_obs::SpanKind::Consume,
        start_ns,
        end_ns: dsi_obs::now_ns(),
        split: 0,
        worker: 0,
        seq: 0,
        flags: 0,
    });
}

/// Sleeps short durations accurately enough for the tests.
fn spin_sleep(d: Duration) {
    if d > Duration::from_millis(2) {
        std::thread::sleep(d);
    } else {
        let end = Instant::now() + d;
        while Instant::now() < end {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DppSession, SessionSpec};
    use dsi_types::{FeatureId, PartitionId, Projection, Sample, SessionId, SparseList, TableId};
    use warehouse::{Table, TableConfig};

    fn build_table(rows: u64) -> Table {
        let cluster = tectonic::TectonicCluster::new(tectonic::ClusterConfig::small());
        let opts = dwrf::WriterOptions {
            rows_per_stripe: 32,
            ..Default::default()
        };
        let table = Table::create(
            cluster,
            TableConfig::new(TableId(1), "live").with_writer_options(opts),
        )
        .unwrap();
        let samples: Vec<Sample> = (0..rows)
            .map(|i| {
                let mut s = Sample::new(i as f32);
                s.set_dense(FeatureId(1), i as f32);
                s.set_sparse(FeatureId(2), SparseList::from_ids(vec![i % 13]));
                s
            })
            .collect();
        table.write_partition(PartitionId::new(0), samples).unwrap();
        table
    }

    fn spec() -> SessionSpec {
        SessionSpec::builder(SessionId(1))
            .partitions(PartitionId::new(0)..PartitionId::new(1))
            .projection(Projection::new(vec![FeatureId(1), FeatureId(2)]))
            .batch_size(32)
            .dense_ids(vec![FeatureId(1)])
            .sparse_ids(vec![FeatureId(2)])
            .buffer_capacity(4)
            .build()
    }

    #[test]
    fn live_trainer_consumes_session() {
        let table = build_table(256);
        let session = DppSession::launch(table, spec(), 2).unwrap();
        // A slow GPU: preprocessing keeps up, stalls near 0.
        let mut trainer = LiveTrainer::new(session.client(), 32_000.0);
        let (report, samples) = trainer.train(u64::MAX);
        assert_eq!(samples, 256);
        assert_eq!(report.batches, 8);
        session.shutdown();
        // After warm-up the buffer should hide most production time; allow
        // generous slack for CI machines.
        assert!(
            report.stall_fraction < 0.9,
            "stall {:.3}",
            report.stall_fraction
        );
    }

    #[test]
    fn report_publishes_stall_metrics() {
        use dsi_obs::names;
        let r = StallReport {
            batches: 1_000,
            elapsed_secs: 20.0,
            stalled_secs: 10.0,
            stall_fraction: 0.5,
        };
        let reg = dsi_obs::Registry::new();
        r.publish_metrics(&reg, "sess1");
        let job = [("job", "sess1")];
        assert!(
            (reg.gauge_value(names::TRAINER_STALL_FRACTION, &job) - r.stall_fraction).abs() < 1e-12
        );
        assert!(
            (reg.gauge_value(names::TRAINER_STALLED_SECONDS, &job) - r.stalled_secs).abs() < 1e-12
        );
        assert_eq!(reg.counter_value(names::TRAINER_BATCHES_TOTAL, &job), 1_000);
        // The stall stage carries the GPU's waiting time.
        let stall = reg
            .histogram(
                dsi_obs::span::STAGE_SECONDS,
                &[("job", "sess1"), ("stage", dsi_obs::stage::STALL)],
            )
            .snapshot();
        assert_eq!(stall.count, 1);
        assert!((stall.sum - r.stalled_secs).abs() < 1e-12);
    }

    #[test]
    fn live_trainer_publishes_stall_metrics() {
        use dsi_obs::names;
        let table = build_table(128);
        let session = DppSession::launch(table, spec(), 2).unwrap();
        let reg = dsi_obs::Registry::new();
        session.attach_registry(&reg);
        let mut trainer = LiveTrainer::new(session.client(), 320_000.0).with_registry(&reg);
        let (report, samples) = trainer.train(u64::MAX);
        session.shutdown();
        // Trainer metrics carry the session's `job` label.
        let job = [("job", "sess1")];
        assert_eq!(
            reg.counter_value(names::TRAINER_SAMPLES_TOTAL, &job),
            samples
        );
        assert_eq!(
            reg.counter_value(names::TRAINER_BATCHES_TOTAL, &job),
            report.batches
        );
        assert!(
            (reg.gauge_value(names::TRAINER_STALL_FRACTION, &job) - report.stall_fraction).abs()
                < 1e-12
        );
    }

    #[test]
    fn consume_spans_terminate_traces() {
        let table = build_table(128);
        let mut s = spec();
        s.trace = dsi_trace::TraceConfig::all();
        let reg = dsi_obs::Registry::new();
        let session = DppSession::launch_observed_chaos(table, s, 2, Some(&reg), None).unwrap();
        let mut trainer = LiveTrainer::new(session.client(), 3_200_000.0).with_registry(&reg);
        let (_, samples) = trainer.train(u64::MAX);
        assert_eq!(samples, 128);
        session.shutdown();

        let spans = reg.trace_spans();
        dsi_trace::validate(&spans).expect("traces stay well-formed through Consume");
        let consumes: Vec<_> = spans
            .iter()
            .filter(|sp| sp.kind == dsi_obs::SpanKind::Consume)
            .collect();
        assert!(!consumes.is_empty(), "trainer recorded no Consume spans");
        // Every Consume parents under a Deliver span of the same trace.
        for c in &consumes {
            assert!(
                spans.iter().any(|sp| sp.kind == dsi_obs::SpanKind::Deliver
                    && sp.span_id == c.parent_id
                    && sp.trace_id == c.trace_id),
                "Consume span must chain to a Deliver span"
            );
        }
    }

    #[test]
    fn a_capped_run_leaves_every_untrained_tensor_to_the_next() {
        // A capped run trains exactly its cap, and the tensors it did not
        // train stay with the client: a tensor taken from the client
        // counts as delivered, so the trainer takes no more than the cap.
        let table = build_table(256);
        let session = DppSession::launch(table, spec(), 2).unwrap();
        let mut trainer = LiveTrainer::new(session.client(), 320_000.0);
        let (capped, first) = trainer.train(3);
        assert_eq!(capped.batches, 3);
        let (_, rest) = trainer.train(u64::MAX);
        session.shutdown();
        assert_eq!(first + rest, 256, "a capped run lost tensors");
    }
}
