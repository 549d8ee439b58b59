//! A wall-clock trainer that consumes a live DPP session.
//!
//! [`LiveTrainer`] drives a real [`dpp::Client`]: each iteration fetches a
//! tensor (measuring time blocked on data) and then "trains" on it for the
//! model's batch service time. It is the measurement harness the
//! integration tests and the end-to-end example use to show that DPP
//! eliminates stalls a starved configuration exhibits.

use crate::demand::GpuDemand;
use crate::stall::StallReport;
use dpp::Client;
use std::time::{Duration, Instant};

/// A wall-clock training loop over a DPP client.
#[derive(Debug)]
pub struct LiveTrainer {
    client: Client,
    demand: GpuDemand,
    /// Scales simulated GPU time (1.0 = real time; smaller = faster tests).
    time_scale: f64,
    registry: Option<dsi_obs::Registry>,
}

impl LiveTrainer {
    /// Creates a trainer over `client` with the given demand model.
    pub fn new(client: Client, demand: GpuDemand) -> Self {
        Self {
            client,
            demand,
            time_scale: 1.0,
            registry: None,
        }
    }

    /// Scales simulated GPU service time (builder-style; useful in tests).
    pub fn with_time_scale(mut self, scale: f64) -> Self {
        self.time_scale = scale;
        self
    }

    /// Attaches a metrics registry (builder-style): each [`LiveTrainer::train`]
    /// call publishes its [`StallReport`] and trained-sample count into it.
    pub fn with_registry(mut self, registry: &dsi_obs::Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Consumes up to `max_batches` batches (or until the session ends),
    /// returning the stall report and the number of samples trained:
    /// [`LiveTrainer::train_prefetched`] at depth 0.
    pub fn train(&mut self, max_batches: u64) -> (StallReport, u64) {
        self.train_prefetched(max_batches, 0)
    }

    /// The training loop at a prefetch depth. At depth 0 the trainer's own
    /// thread fetches each batch and then trains on it. At depth ≥ 1 a
    /// dedicated thread fetches through a `depth`-deep bounded buffer, so
    /// the next tensor's network/deserialize latency overlaps the current
    /// batch's GPU time instead of extending the stall — the trainer-side
    /// leg of the end-to-end fastpath pipeline.
    pub fn train_prefetched(&mut self, max_batches: u64, depth: usize) -> (StallReport, u64) {
        let client = &mut self.client;
        let (report, samples) = if depth == 0 {
            let next = || client.next_batch().map(|t| (t, client.last_trace()));
            consume(
                self.demand,
                self.time_scale,
                &self.registry,
                max_batches,
                next,
            )
        } else {
            // The prefetch channel carries each tensor's delivery trace
            // context alongside it, so Consume spans stay attached to the
            // right trace even with `depth` tensors in flight between
            // fetch and consume.
            let (tx, rx) = crossbeam::channel::bounded(depth);
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    while let Some(tensor) = client.next_batch() {
                        let trace = client.last_trace();
                        if tx.send((tensor, trace)).is_err() {
                            break; // consumer reached max_batches
                        }
                    }
                });
                // `rx` drops with this closure, which unblocks the fetcher
                // if it is mid-send.
                let next = move || rx.recv().ok();
                consume(
                    self.demand,
                    self.time_scale,
                    &self.registry,
                    max_batches,
                    next,
                )
            })
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

/// The consume loop: waits on `next` (time blocked there is the stall),
/// then occupies the GPU for the batch's service time, until `max_batches`
/// or `next` runs dry.
fn consume(
    demand: GpuDemand,
    time_scale: f64,
    registry: &Option<dsi_obs::Registry>,
    max_batches: u64,
    mut next: impl FnMut() -> Option<(dsi_types::MiniBatchTensor, dsi_obs::TraceContext)>,
) -> (StallReport, u64) {
    let start = Instant::now();
    let mut stalled = Duration::ZERO;
    let mut batches = 0u64;
    let mut samples = 0u64;
    while batches < max_batches {
        let wait_start = Instant::now();
        let Some((tensor, trace)) = next() else {
            break;
        };
        stalled += wait_start.elapsed();
        batches += 1;
        samples += tensor.batch_size() as u64;
        let service = demand.batch_service_secs(tensor.batch_size()) * time_scale;
        let consume_start = dsi_obs::now_ns();
        spin_sleep(Duration::from_secs_f64(service));
        record_consume(registry, trace, consume_start);
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
    (report, samples)
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
    use dpp::{DppSession, SessionSpec};
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
        // A slow GPU (low demand): preprocessing keeps up, stalls near 0.
        let demand = GpuDemand::new(3.2e6, 100.0); // 32k samples/s
        let mut trainer = LiveTrainer::new(session.client(), demand);
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
    fn live_trainer_publishes_stall_metrics() {
        use dsi_obs::names;
        let table = build_table(128);
        let session = DppSession::launch(table, spec(), 2).unwrap();
        let reg = dsi_obs::Registry::new();
        session.attach_registry(&reg);
        let demand = GpuDemand::new(3.2e6, 100.0);
        let mut trainer = LiveTrainer::new(session.client(), demand)
            .with_time_scale(0.1)
            .with_registry(&reg);
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
    fn consume_spans_terminate_traces_in_both_modes() {
        for prefetched in [false, true] {
            let table = build_table(128);
            let mut s = spec();
            s.trace = dsi_trace::TraceConfig::all();
            let reg = dsi_obs::Registry::new();
            let session = DppSession::launch_observed_chaos(table, s, 2, Some(&reg), None).unwrap();
            let demand = GpuDemand::new(3.2e6, 100.0);
            let mut trainer = LiveTrainer::new(session.client(), demand)
                .with_time_scale(0.01)
                .with_registry(&reg);
            let (_, samples) = if prefetched {
                trainer.train_prefetched(u64::MAX, 2)
            } else {
                trainer.train(u64::MAX)
            };
            assert_eq!(samples, 128);
            session.shutdown();

            let spans = reg.trace_spans();
            dsi_trace::validate(&spans).expect("traces stay well-formed through Consume");
            let consumes: Vec<_> = spans
                .iter()
                .filter(|sp| sp.kind == dsi_obs::SpanKind::Consume)
                .collect();
            assert!(
                !consumes.is_empty(),
                "prefetched={prefetched}: trainer recorded no Consume spans"
            );
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
    }

    #[test]
    fn prefetched_training_matches_sequential_consumption() {
        let table = build_table(256);
        let mut s = spec();
        s.read_ahead = 2; // worker-side pipeline on too
        let session = DppSession::launch(table, s, 2).unwrap();
        let demand = GpuDemand::new(3.2e6, 100.0);
        let mut trainer = LiveTrainer::new(session.client(), demand).with_time_scale(0.1);
        let (report, samples) = trainer.train_prefetched(u64::MAX, 4);
        assert_eq!(samples, 256);
        assert_eq!(report.batches, 8);
        session.shutdown();
    }

    #[test]
    fn prefetched_max_batches_caps_consumption() {
        let table = build_table(256);
        let session = DppSession::launch(table, spec(), 2).unwrap();
        let demand = GpuDemand::new(3.2e6, 100.0);
        let mut trainer = LiveTrainer::new(session.client(), demand).with_time_scale(0.1);
        let (report, _) = trainer.train_prefetched(3, 2);
        assert_eq!(report.batches, 3);
        session.shutdown();
    }

    #[test]
    fn max_batches_caps_consumption() {
        let table = build_table(256);
        let session = DppSession::launch(table, spec(), 2).unwrap();
        let demand = GpuDemand::new(3.2e6, 100.0);
        let mut trainer = LiveTrainer::new(session.client(), demand).with_time_scale(0.1);
        let (report, _) = trainer.train(3);
        assert_eq!(report.batches, 3);
        session.shutdown();
    }
}
