//! End-to-end DPP sessions: master + threaded workers + clients.
//!
//! [`DppSession::launch`] plans the dataset scan, builds the [`Master`],
//! and spawns Worker threads whose bounded output channels are the tensor
//! buffers of §III-B1. Trainers attach [`Client`]s; the session exposes the
//! Master's health-monitor actions (failure recovery, auto-scaling).

use crate::client::{Client, Endpoint, Envelope};
use crate::ledger::{MasterCheckpoint, SplitLedger};
use crate::master::Master;
use crate::session::{SessionSpec, Transport};
use crate::worker::{Worker, WorkerReport};
use chaos::FaultInjector;
use crossbeam::channel::bounded;
use dsi_obs::SignalSnapshot;
use dsi_types::{DsiError, Result, WorkerId};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use warehouse::{Table, TableScan};

/// A shared, late-bindable chaos injector slot: the worker loop re-reads it
/// per split so an injector attached after launch still takes effect.
pub(crate) type ChaosSlot = Arc<RwLock<Option<Arc<FaultInjector>>>>;

struct WorkerControl {
    kill: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    handle: JoinHandle<WorkerReport>,
    /// The depth knobs this worker was spawned with and keeps for life.
    read_ahead: usize,
    batch_size: usize,
}

/// One worker's control-plane view: identity, buffer occupancy, and
/// lifecycle flags, captured atomically per worker.
///
/// [`DppSession::observe`] is the single derivation point for live-worker
/// accounting — the tuner's signals ([`crate::TunerSignals`]),
/// [`DppSession::draining_workers`], drain-victim selection, and the fleet
/// reconciler's observed state are all views over this snapshot, so none
/// of them can disagree about which workers still count as capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerObservation {
    /// The worker.
    pub id: WorkerId,
    /// Tensors currently buffered in the worker's endpoint.
    pub buffered: usize,
    /// The endpoint's buffer capacity (batches).
    pub capacity: usize,
    /// Whether the worker has been flagged to drain (capacity that is
    /// already leaving the fleet).
    pub draining: bool,
    /// Whether the worker thread has exited.
    pub finished: bool,
    /// Whether the worker was spawned with a read-ahead or batch size the
    /// session has since overridden ([`DppSession::effective_spec`]).
    pub stale: bool,
}

impl WorkerObservation {
    /// Whether this worker still counts as live capacity.
    pub fn is_live(&self) -> bool {
        !self.finished && !self.draining
    }
}

/// Live knob overrides applied on top of a session's immutable spec.
///
/// `None` means "use the spec's value". Overrides take effect on every
/// worker spawned after the set; [`DppSession::scale_to`] rolls them
/// through the running fleet one worker per call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct KnobOverrides {
    read_ahead: Option<usize>,
    batch_size: Option<usize>,
}

/// A running preprocessing session.
pub struct DppSession {
    master: Master,
    spec: Arc<SessionSpec>,
    knobs: Mutex<KnobOverrides>,
    table: Table,
    registry: Arc<RwLock<Vec<Endpoint>>>,
    controls: Mutex<HashMap<WorkerId, WorkerControl>>,
    finished_reports: Arc<Mutex<WorkerReport>>,
    clients_created: Mutex<usize>,
    obs: Arc<Mutex<Option<dsi_obs::Registry>>>,
    chaos: ChaosSlot,
    /// Per-worker TCP servers when the spec selects [`Transport::Tcp`];
    /// empty for in-process sessions.
    wires: Mutex<HashMap<WorkerId, wire::WireServer>>,
}

impl std::fmt::Debug for DppSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DppSession")
            .field("master", &self.master)
            .field("workers", &self.worker_count())
            .finish()
    }
}

impl DppSession {
    /// Launches a session over `table` with `workers` initial Workers.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::InvalidSpec`] if the selection matches no data
    /// or the transform plan holds an op no kernel can run
    /// ([`transforms::TransformPlan::validate`]).
    pub fn launch(table: Table, spec: SessionSpec, workers: usize) -> Result<DppSession> {
        Self::launch_chaos(table, spec, workers, None)
    }

    /// Like [`DppSession::launch`], but installs a chaos fault injector
    /// *before* the first worker spawns, so nth-operation fault schedules
    /// observe every split from the very first one (an injector attached
    /// after launch races against worker startup).
    ///
    /// # Errors
    ///
    /// Same conditions as [`DppSession::launch`].
    pub fn launch_chaos(
        table: Table,
        spec: SessionSpec,
        workers: usize,
        injector: Option<Arc<FaultInjector>>,
    ) -> Result<DppSession> {
        Self::launch_observed_chaos(table, spec, workers, None, injector)
    }

    /// Like [`DppSession::launch_chaos`], but also attaches `registry`
    /// *before* the first worker spawns. A registry attached after launch
    /// races worker startup, so the session's earliest splits would be
    /// served without Schedule spans (and therefore untraced); this
    /// constructor guarantees trace coverage from split zero.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DppSession::launch`].
    pub fn launch_observed_chaos(
        table: Table,
        spec: SessionSpec,
        workers: usize,
        registry: Option<&dsi_obs::Registry>,
        injector: Option<Arc<FaultInjector>>,
    ) -> Result<DppSession> {
        Self::open(table, spec, None, registry, injector).map(|s| s.staffed(workers))
    }

    /// Launches a session with *zero* workers: an external control plane
    /// (the [`crate::fleet::FleetDriver`]) owns the worker lifecycle,
    /// calling [`DppSession::scale_to`] as its assignments change.
    /// Clients attached before the first assignment park politely — an
    /// empty endpoint set reports `Pending` rather than completion — so
    /// trainers can connect immediately.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DppSession::launch`].
    pub fn launch_managed(
        table: Table,
        spec: SessionSpec,
        registry: Option<&dsi_obs::Registry>,
        injector: Option<Arc<FaultInjector>>,
    ) -> Result<DppSession> {
        Self::open(table, spec, None, registry, injector)
    }

    /// Resumes a session from a checkpoint (the primary Master and its
    /// workers were lost, or the whole process was killed mid-epoch):
    /// completed splits are not re-read, everything else replays, and
    /// replayed tensors a client already consumed dedup against the
    /// checkpoint's delivered seqs. Like
    /// [`DppSession::launch_observed_chaos`], it installs the injector and
    /// attaches `registry` before the first worker spawns.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::InvalidSpec`] if the checkpoint does not match
    /// the spec's scan (the dataset or selection changed), and the same
    /// validation errors as [`DppSession::launch`].
    pub fn resume(
        table: Table,
        spec: SessionSpec,
        checkpoint: &MasterCheckpoint,
        workers: usize,
        registry: Option<&dsi_obs::Registry>,
        injector: Option<Arc<FaultInjector>>,
    ) -> Result<DppSession> {
        Self::open(table, spec, Some(checkpoint), registry, injector).map(|s| s.staffed(workers))
    }

    /// Plans the scan and builds the Master — fresh, or restored from
    /// `checkpoint` — installing the injector and attaching `registry`
    /// before any worker exists.
    fn open(
        table: Table,
        spec: SessionSpec,
        checkpoint: Option<&MasterCheckpoint>,
        registry: Option<&dsi_obs::Registry>,
        injector: Option<Arc<FaultInjector>>,
    ) -> Result<DppSession> {
        spec.plan.validate()?;
        let splits = session_scan(&table, &spec).plan_splits();
        let master = match checkpoint {
            Some(checkpoint) => Master::restore(checkpoint, splits)?,
            None if splits.is_empty() => {
                return Err(DsiError::invalid_spec(
                    "session selects no partitions or rows",
                ))
            }
            None => Master::new(spec.id, splits),
        };
        // Checkpoints carry no tracing state: re-arm sampling either way.
        master.set_trace_config(spec.trace);
        let session = DppSession {
            master,
            spec: Arc::new(spec),
            knobs: Mutex::new(KnobOverrides::default()),
            table,
            registry: Arc::new(RwLock::new(Vec::new())),
            controls: Mutex::new(HashMap::new()),
            finished_reports: Arc::new(Mutex::new(WorkerReport::default())),
            clients_created: Mutex::new(0),
            obs: Arc::new(Mutex::new(None)),
            chaos: Arc::new(RwLock::new(injector)),
            wires: Mutex::new(HashMap::new()),
        };
        if let Some(reg) = registry {
            session.attach_registry(reg);
        }
        Ok(session)
    }

    /// Spawns `workers` (at least one) and returns the session.
    fn staffed(self, workers: usize) -> Self {
        for _ in 0..workers.max(1) {
            self.spawn_worker();
        }
        self
    }

    /// Attaches a chaos fault injector to every worker (current and
    /// future): each split processed fires the injector's `WorkerSplit`
    /// hook. For schedules that must observe the first splits, install the
    /// injector at launch via [`DppSession::launch_chaos`] instead.
    pub fn attach_chaos(&self, injector: Arc<FaultInjector>) {
        *self.chaos.write() = Some(injector);
    }

    /// Worker threads still running (registered or not): crashed workers
    /// leave the fleet without replacement, so a chaos harness uses this
    /// to know when to restore capacity.
    pub fn live_worker_threads(&self) -> usize {
        self.controls
            .lock()
            .values()
            .filter(|c| !c.handle.is_finished())
            .count()
    }

    /// Attaches a metrics registry to the whole session: the Master
    /// publishes live (queue depth, workers, split progress, checkpoints),
    /// clients created afterwards publish fetch latency and starvation, and
    /// [`DppSession::publish_metrics`] / [`DppSession::shutdown`] bridge
    /// the merged worker telemetry.
    pub fn attach_registry(&self, registry: &dsi_obs::Registry) {
        self.master.attach_registry(registry);
        // Workers scan through the session's table handle, so this also
        // turns on DWRF decode telemetry for every split they extract.
        self.table.attach_registry(registry);
        *self.obs.lock() = Some(registry.clone());
    }

    /// Publishes the merged telemetry of all *finished* workers into the
    /// attached registry (live workers report at thread exit). No-op
    /// without an attached registry. Like every series the session writes,
    /// these carry the session id as their `job` label, so concurrent
    /// sessions sharing one registry never collide.
    pub fn publish_metrics(&self) {
        if let Some(reg) = self.obs.lock().as_ref() {
            let job = self.master.session().to_string();
            self.finished_reports.lock().publish_metrics(reg, &job);
        }
    }

    /// Publishes finished-worker telemetry, then samples this job's
    /// cumulative signal stream from the attached registry — one tuner
    /// tick's read. All-zero without a registry.
    pub(crate) fn sample_signals(&self) -> SignalSnapshot {
        self.publish_metrics();
        match self.obs.lock().as_ref() {
            Some(reg) => SignalSnapshot::sample(reg, &self.master.session().to_string()),
            None => SignalSnapshot::default(),
        }
    }

    /// The session's Master handle (shared).
    pub fn master(&self) -> &Master {
        &self.master
    }

    /// The session spec.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// Overrides the read-ahead depth for workers spawned from now on.
    /// Running workers keep their depth (and observe as `stale`) until
    /// [`DppSession::scale_to`] rotates them out.
    pub fn set_read_ahead(&self, depth: usize) {
        self.knobs.lock().read_ahead = Some(depth);
    }

    /// Overrides the batch size for workers spawned from now on (clamped
    /// to at least 1). Mid-run batch changes alter the tensor sequence a
    /// split produces, so callers that need replayed splits bitwise
    /// identical (chaos invariants) must leave this knob frozen.
    pub fn set_batch_size(&self, batch: usize) {
        self.knobs.lock().batch_size = Some(batch.max(1));
    }

    /// The `(read_ahead, batch_size)` new workers are spawned with.
    fn depth_knobs(&self) -> (usize, usize) {
        let knobs = *self.knobs.lock();
        (
            knobs.read_ahead.unwrap_or(self.spec.read_ahead),
            knobs.batch_size.unwrap_or(self.spec.batch_size),
        )
    }

    /// The spec new workers are spawned with: the immutable session spec
    /// plus any live knob overrides.
    pub fn effective_spec(&self) -> SessionSpec {
        let mut spec = (*self.spec).clone();
        (spec.read_ahead, spec.batch_size) = self.depth_knobs();
        spec
    }

    /// The one actuation of a worker target: diffs `wanted` against the
    /// live workers in `observed` and spawns `wanted − live` or drains
    /// `live − wanted`, most-buffered first.
    /// When the count is already right it instead rotates one `stale`
    /// live worker — drain it, spawn a replacement that picks up the
    /// current knob overrides — so calling it every tick rolls a
    /// read-ahead / batch change through the whole fleet without losing
    /// capacity or exactly-once delivery (the drained worker finishes its
    /// in-flight split; anything unacknowledged replays). Draining and
    /// finished workers are never touched. Returns `(spawned, drained)`.
    pub fn scale_to(&self, wanted: usize, observed: &[WorkerObservation]) -> (usize, usize) {
        let live = observed.iter().filter(|o| o.is_live()).count();
        let victims = if live == wanted {
            let stale: Vec<_> = observed.iter().filter(|o| o.stale).copied().collect();
            self.drain_victims(&stale, 1)
        } else {
            self.drain_victims(observed, live.saturating_sub(wanted))
        };
        let drained = victims
            .into_iter()
            .filter(|&victim| self.drain_worker_by_id(victim))
            .count();
        // What was drained has left the live count: spawn back up to the
        // target — the shortfall, or a rotated worker's replacement.
        let spawned = wanted.saturating_sub(live - drained);
        for _ in 0..spawned {
            self.spawn_worker();
        }
        (spawned, drained)
    }

    /// Spawns one additional Worker, returning its id.
    pub fn spawn_worker(&self) -> WorkerId {
        let spec = Arc::new(self.effective_spec());
        let id = self.master.register_worker();
        let (tx, rx) = bounded::<Envelope>(spec.buffer_capacity);
        let kill = Arc::new(AtomicBool::new(false));
        let drain = Arc::new(AtomicBool::new(false));
        let job = self.master.session().to_string();
        let scan = session_scan(&self.table, &spec).with_job(&job);
        let worker = Worker::new(id, Arc::clone(&spec), scan);
        let master = self.master.clone();
        let reports = Arc::clone(&self.finished_reports);
        let kill2 = Arc::clone(&kill);
        let drain2 = Arc::clone(&drain);
        let (read_ahead, batch_size) = (spec.read_ahead, spec.batch_size);
        let obs = Arc::clone(&self.obs);
        let chaos = Arc::clone(&self.chaos);
        let handle = std::thread::spawn(move || {
            let report = crate::pipeline::worker_loop(
                master, worker, tx, kill2, drain2, read_ahead, obs, chaos,
            );
            reports.lock().merge(&report);
            report
        });
        // In-process: the worker's bounded channel *is* the endpoint. TCP:
        // the channel feeds a per-worker wire server, and the endpoint is
        // fed by a client reader dialing it — same capacity on both hops,
        // so backpressure reaches the worker exactly as before.
        let receiver = match spec.transport {
            Transport::InProcess => rx,
            Transport::Tcp(cfg) => {
                let server = wire::WireServer::serve(
                    rx,
                    cfg,
                    spec.buffer_capacity,
                    Arc::clone(&self.obs),
                    Arc::clone(&self.chaos),
                    &job,
                )
                .expect("bind localhost wire server");
                let receiver = wire::connect(
                    server.port(),
                    cfg,
                    spec.buffer_capacity,
                    Arc::clone(&self.obs),
                    &job,
                );
                self.wires.lock().insert(id, server);
                receiver
            }
        };
        self.registry.write().push(Endpoint {
            id,
            receiver,
            capacity: spec.buffer_capacity,
        });
        self.controls.lock().insert(
            id,
            WorkerControl {
                kill,
                drain,
                handle,
                read_ahead,
                batch_size,
            },
        );
        id
    }

    /// Live (registered) worker count.
    pub fn worker_count(&self) -> usize {
        self.master.ledger(SplitLedger::workers)
    }

    /// Creates a trainer-side client with the given connection cap.
    /// Clients are offset round-robin so their partitions interleave.
    pub fn client_with_fanout(&self, fanout: usize) -> Client {
        let mut created = self.clients_created.lock();
        let offset = *created;
        *created += 1;
        let mut client = Client::new(
            Arc::clone(&self.registry),
            self.master.clone(),
            fanout,
            offset,
        );
        if let Some(reg) = self.obs.lock().as_ref() {
            client.attach_registry(reg);
        }
        client
    }

    /// Creates a client connected to every worker.
    pub fn client(&self) -> Client {
        self.client_with_fanout(usize::MAX)
    }

    /// Simulates a hard Worker crash and the Master's recovery: the thread
    /// stops without acknowledging its in-flight split, the Master requeues
    /// that work, and (worker statelessness) a replacement is spawned
    /// without any checkpoint restore. Returns the replacement's id.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::NotFound`] for unknown worker ids.
    pub fn crash_and_replace(&self, worker: WorkerId) -> Result<WorkerId> {
        let control = self
            .controls
            .lock()
            .remove(&worker)
            .ok_or_else(|| DsiError::not_found(format!("worker {worker}")))?;
        control.kill.store(true, Ordering::SeqCst);
        // Sever the connection first: undelivered buffered tensors are lost
        // with the crash, and a worker blocked on a full buffer unblocks
        // (its send fails) instead of deadlocking the health monitor.
        self.registry.write().retain(|e| e.id != worker);
        // In TCP mode the worker's send unblocks only once its wire server
        // drops the source channel — stop and join the server (via drop)
        // before joining the worker thread.
        drop(self.wires.lock().remove(&worker));
        let _ = control.handle.join();
        // The health monitor requeues the dead worker's unconsumed work...
        self.master.fail_worker(worker);
        // ...and restarts capacity.
        Ok(self.spawn_worker())
    }

    /// Atomic control-plane snapshot of every worker the session has a
    /// registered endpoint for: buffer occupancy plus lifecycle flags.
    /// This is the single source of live-worker truth — tuner signals,
    /// draining counts, drain-victim selection, and the fleet reconciler's
    /// observed state are all derived from it.
    pub fn observe(&self) -> Vec<WorkerObservation> {
        let in_force = self.depth_knobs();
        let controls = self.controls.lock();
        self.registry
            .read()
            .iter()
            .filter_map(|e| {
                controls.get(&e.id).map(|c| WorkerObservation {
                    id: e.id,
                    buffered: e.receiver.len(),
                    capacity: e.capacity,
                    draining: c.drain.load(Ordering::SeqCst),
                    finished: c.handle.is_finished(),
                    stale: (c.read_ahead, c.batch_size) != in_force,
                })
            })
            .collect()
    }

    /// Workers flagged to drain whose threads have not yet exited. These
    /// are capacity already leaving the fleet; tuner signals exclude them
    /// so no policy ever double-drains.
    pub fn draining_workers(&self) -> usize {
        self.observe()
            .iter()
            .filter(|o| o.draining && !o.finished)
            .count()
    }

    /// Flags one worker to drain gracefully: it finishes its in-flight
    /// split, its buffered tensors stay deliverable, and exactly-once
    /// hands off to whichever worker replays anything unacknowledged.
    /// Returns `false` for unknown, already-draining, or finished workers.
    pub fn drain_worker_by_id(&self, worker: WorkerId) -> bool {
        let controls = self.controls.lock();
        match controls.get(&worker) {
            Some(c) if !c.handle.is_finished() => !c.drain.swap(true, Ordering::SeqCst),
            _ => false,
        }
    }

    /// Picks up to `k` drain victims from an observation snapshot: the
    /// most-buffered (least needed) live workers first.
    fn drain_victims(&self, observed: &[WorkerObservation], k: usize) -> Vec<WorkerId> {
        let mut candidates: Vec<(usize, WorkerId)> = observed
            .iter()
            .filter(|o| o.is_live())
            .map(|o| (o.buffered, o.id))
            .collect();
        candidates.sort_by_key(|c| (std::cmp::Reverse(c.0), c.1));
        candidates.into_iter().take(k).map(|(_, id)| id).collect()
    }

    /// Whether every split has been processed and acknowledged.
    pub fn is_complete(&self) -> bool {
        self.master.ledger(SplitLedger::is_complete)
    }

    /// Shuts the session down: signals workers, unblocks any sender by
    /// dropping the tensor buffers, joins all threads, and returns merged
    /// worker telemetry.
    pub fn shutdown(self) -> WorkerReport {
        {
            let controls = self.controls.lock();
            for c in controls.values() {
                c.drain.store(true, Ordering::SeqCst);
            }
        }
        // Signal every wire server first so none of the joins below waits
        // on a blocked socket, then drop receivers so blocked in-process
        // senders error out and exit.
        let wires = std::mem::take(&mut *self.wires.lock());
        for server in wires.values() {
            server.stop();
        }
        self.registry.write().clear();
        // Dropping each server stops and joins it, dropping its source
        // receiver — which is what unblocks a TCP-mode worker's send.
        drop(wires);
        let controls = std::mem::take(&mut *self.controls.lock());
        for (_, c) in controls {
            let _ = c.handle.join();
        }
        self.publish_metrics();
        let report = *self.finished_reports.lock();
        report
    }
}

/// The scan a session's Master plans splits from and its workers read
/// through.
fn session_scan(table: &Table, spec: &SessionSpec) -> TableScan {
    table
        .scan(spec.partitions(), spec.projection.clone())
        .with_policy(spec.policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::{AutoScaler, ScalerConfig};
    use crate::session::SessionSpec;
    use crate::tuning::LiveTuner;
    use dsi_types::{FeatureId, PartitionId, Projection, Sample, SessionId, SparseList, TableId};
    use warehouse::TableConfig;

    fn build_table(days: u32, rows_per_day: u64) -> Table {
        build_striped_table(days, rows_per_day, 16)
    }

    fn build_striped_table(days: u32, rows_per_day: u64, rows_per_stripe: usize) -> Table {
        let cluster = tectonic::TectonicCluster::new(tectonic::ClusterConfig::small());
        let opts = dwrf::WriterOptions {
            rows_per_stripe,
            ..Default::default()
        };
        let table = Table::create(
            cluster,
            TableConfig::new(TableId(1), "svc").with_writer_options(opts),
        )
        .unwrap();
        for day in 0..days {
            let samples: Vec<Sample> = (0..rows_per_day)
                .map(|i| {
                    let label = (day as u64 * rows_per_day + i) as f32;
                    let mut s = Sample::new(label);
                    s.set_dense(FeatureId(1), i as f32);
                    s.set_sparse(FeatureId(2), SparseList::from_ids(vec![i % 7]));
                    s
                })
                .collect();
            table
                .write_partition(PartitionId::new(day), samples)
                .unwrap();
        }
        table
    }

    fn spec(days: u32) -> SessionSpec {
        SessionSpec::builder(SessionId(5))
            .partitions(PartitionId::new(0)..PartitionId::new(days))
            .projection(Projection::new(vec![FeatureId(1), FeatureId(2)]))
            .batch_size(16)
            .dense_ids(vec![FeatureId(1)])
            .sparse_ids(vec![FeatureId(2)])
            .buffer_capacity(4)
            .build()
    }

    fn drain_labels(client: &mut Client) -> Vec<u32> {
        let mut labels = Vec::new();
        while let Some(t) = client.next_batch() {
            labels.extend(t.labels.iter().map(|&l| l as u32));
        }
        labels.sort_unstable();
        labels
    }

    /// The depths the loop-level tests sweep: inline, the shallowest
    /// threaded pipe, and one with real read-ahead.
    const DEPTHS: [usize; 3] = [0, 1, 3];

    #[test]
    fn delivers_every_row_exactly_once() {
        for depth in DEPTHS {
            let table = build_table(3, 64);
            let mut spec = spec(3);
            spec.read_ahead = depth;
            let session = DppSession::launch(table, spec, 4).unwrap();
            let mut client = session.client();
            let labels = drain_labels(&mut client);
            assert_eq!(labels, (0..192).collect::<Vec<_>>(), "depth {depth}");
            assert!(session.is_complete());
            let report = session.shutdown();
            assert_eq!(report.samples, 192);
            assert!(report.batches >= 12);
            // Zero-copy decode is the default: no redundant decode-path
            // memcpys anywhere in the session.
            assert_eq!(report.copied_bytes, 0);
        }
    }

    #[test]
    fn tcp_transport_delivers_every_row_exactly_once() {
        let table = build_table(3, 64);
        let mut sp = spec(3);
        sp.transport = Transport::Tcp(wire::WireConfig::plaintext());
        let session = DppSession::launch(table, sp, 4).unwrap();
        let mut client = session.client();
        let labels = drain_labels(&mut client);
        assert_eq!(labels, (0..192).collect::<Vec<_>>());
        assert!(session.is_complete());
        let report = session.shutdown();
        assert_eq!(report.samples, 192);
    }

    #[test]
    fn tcp_transport_survives_worker_crash() {
        let table = build_table(3, 64);
        let mut sp = spec(3);
        sp.transport = Transport::Tcp(wire::WireConfig::encrypted(0x7A57));
        let session = DppSession::launch(table, sp, 2).unwrap();
        let victim = {
            let reg = session.registry.read();
            reg[0].id
        };
        let replacement = session.crash_and_replace(victim).unwrap();
        assert_ne!(victim, replacement);
        let mut client = session.client();
        let labels = drain_labels(&mut client);
        assert_eq!(labels, (0..192).collect::<Vec<_>>());
        session.shutdown();
    }

    #[test]
    fn multiple_partitioned_clients_cover_the_fleet() {
        let table = build_table(2, 64);
        let session = DppSession::launch(table, spec(2), 4).unwrap();
        let mut c1 = session.client_with_fanout(2);
        let mut c2 = session.client_with_fanout(2);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            for mut c in [c1.clone(), c2.clone()] {
                let tx = tx.clone();
                s.spawn(move || {
                    while let Some(t) = c.next_batch() {
                        for &l in &t.labels {
                            tx.send(l as u32).unwrap();
                        }
                    }
                });
            }
            drop(tx);
        });
        let mut labels: Vec<u32> = rx.into_iter().collect();
        labels.sort_unstable();
        assert_eq!(labels, (0..128).collect::<Vec<_>>());
        // Silence unused warnings for the original handles.
        let _ = c1.try_next_batch();
        let _ = c2.try_next_batch();
        session.shutdown();
    }

    #[test]
    fn worker_crash_recovers_without_loss_or_duplication() {
        for depth in DEPTHS {
            let table = build_table(3, 64);
            let mut spec = spec(3);
            spec.read_ahead = depth;
            let session = DppSession::launch(table, spec, 2).unwrap();
            // Crash one worker immediately; the master requeues and a
            // replacement carries on.
            let victim = {
                let reg = session.registry.read();
                reg[0].id
            };
            let replacement = session.crash_and_replace(victim).unwrap();
            assert_ne!(victim, replacement);
            let mut client = session.client();
            let labels = drain_labels(&mut client);
            assert_eq!(labels, (0..192).collect::<Vec<_>>(), "depth {depth}");
            session.shutdown();
        }
    }

    #[test]
    fn autoscaler_grows_starved_session() {
        let table = build_table(4, 128);
        let session = DppSession::launch(table, spec(4), 1).unwrap();
        let mut tuner = LiveTuner::new(Box::new(AutoScaler::default()), &session);
        // Consume slowly with ticks in between: buffers stay empty early,
        // so the controller should add workers.
        let before = session.worker_count();
        let mut client = session.client();
        let mut grew = false;
        for _ in 0..50 {
            let _ = client.try_next_batch();
            if tuner.tick(&session).spawned > 0 {
                grew = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(grew, "expected a scale-up from {before} workers");
        // Finish the session.
        while client.next_batch().is_some() {}
        session.shutdown();
    }

    #[test]
    fn back_to_back_drain_ticks_never_breach_min_workers() {
        // Regression: telemetry counted drain-flagged workers as live, so
        // each consecutive scale-down tick saw the pre-drain fleet size,
        // found `n - min_workers` still removable, and drained again —
        // walking the live fleet below the scaler's floor.
        let table = build_table(4, 128);
        let session = DppSession::launch(table, spec(4), 4).unwrap();
        // Nobody consumes: buffers fill and utilization bottoms out, the
        // over-provisioned signal. Wait for every buffer to look full.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while std::time::Instant::now() < deadline {
            let o = session.observe();
            if o.len() == 4 && o.iter().all(|w| w.buffered >= 3) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let scaler = AutoScaler::new(ScalerConfig {
            min_workers: 3,
            low_buffer_watermark: 0.5,
            high_buffer_watermark: 2.0,
            ..Default::default()
        });
        let mut tuner = LiveTuner::new(Box::new(scaler), &session);
        for _ in 0..6 {
            tuner.tick(&session);
        }
        let live = || session.observe().iter().filter(|o| o.is_live()).count();
        assert!(
            session.draining_workers() <= 1,
            "double-drained: {} workers draining",
            session.draining_workers()
        );
        assert!(live() >= 3, "live fleet fell below min_workers: {}", live());
        // The drained epoch still delivers every row exactly once.
        let mut client = session.client();
        let labels = drain_labels(&mut client);
        assert_eq!(labels, (0..512).collect::<Vec<_>>());
        session.shutdown();
    }

    #[test]
    fn resume_from_checkpoint_skips_completed_splits() {
        // Batch 8 splits each 16-row split into two tensors, so the
        // checkpoint can land between a split's tensors.
        for batch_size in [16, 8] {
            let table = build_table(3, 64);
            let mut sp = spec(3);
            sp.batch_size = batch_size;
            let session = DppSession::launch(table.clone(), sp.clone(), 2).unwrap();
            let mut client = session.client();
            // Consume roughly half the dataset, then take a checkpoint and
            // tear the whole session down (master + workers "lost").
            let mut first_half = Vec::new();
            while first_half.len() < 96 {
                let t = client.next_batch().expect("mid-session batches");
                first_half.extend(t.labels.iter().map(|&l| l as u32));
            }
            let checkpoint = session.master().checkpoint();
            assert!(checkpoint.completed.len() >= 2);
            session.shutdown();

            // A replacement master resumes from the checkpoint.
            let resumed = DppSession::resume(table, sp, &checkpoint, 2, None, None).unwrap();
            let mut client = resumed.client();
            let mut rest = Vec::new();
            while let Some(t) = client.next_batch() {
                rest.extend(t.labels.iter().map(|&l| l as u32));
            }
            resumed.shutdown();

            // Completed splits did not replay; incomplete ones did, and
            // their tensors consumed before the checkpoint dedup against
            // its delivered seqs: together the two halves are the
            // dataset exactly once.
            let mut all: Vec<u32> = first_half.iter().chain(rest.iter()).copied().collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (0..192).collect::<Vec<_>>(),
                "batch {batch_size}: exactly once across the resume"
            );
        }
    }

    #[test]
    fn debug_format_takes_no_checkpoint() {
        let session = DppSession::launch(build_table(1, 16), spec(1), 1).unwrap();
        let reg = dsi_obs::Registry::new();
        session.attach_registry(&reg);
        let shown = format!("{session:?}");
        assert!(shown.contains("completed"), "{shown}");
        let job = [("job", "sess5")];
        assert_eq!(
            reg.counter_value(dsi_obs::names::MASTER_CHECKPOINTS_TOTAL, &job),
            0
        );
        session.shutdown();
    }

    #[test]
    fn empty_selection_rejected() {
        let table = build_table(1, 8);
        let bad = SessionSpec::builder(SessionId(1))
            .partitions(PartitionId::new(5)..PartitionId::new(6))
            .build();
        assert!(DppSession::launch(table, bad, 1).is_err());
    }

    #[test]
    fn shutdown_unblocks_unconsumed_workers() {
        // Nobody consumes: workers fill their buffers and block; shutdown
        // must still join cleanly.
        let table = build_table(2, 128);
        let session = DppSession::launch(table, spec(2), 2).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let report = session.shutdown();
        assert!(report.samples > 0);
    }

    #[test]
    fn session_metrics_cover_master_client_and_workers() {
        use dsi_obs::names;
        let table = build_table(3, 64);
        let session = DppSession::launch(table, spec(3), 4).unwrap();
        let reg = dsi_obs::Registry::new();
        session.attach_registry(&reg);
        let mut client = session.client();
        let labels = drain_labels(&mut client);
        assert_eq!(labels.len(), 192);
        let total = session.master().ledger(SplitLedger::total);
        let report = session.shutdown();

        // Everything the session writes carries the session id as a `job`
        // label so concurrent sessions sharing a registry never collide.
        let job = [("job", "sess5")];
        // Master progress flowed through the registry.
        assert_eq!(reg.counter_value(names::MASTER_SPLITS_TOTAL, &job), total);
        assert_eq!(
            reg.counter_value(names::MASTER_SPLITS_COMPLETED_TOTAL, &job),
            total
        );
        // Client fetch latency histogram saw every delivered batch.
        let fetch = reg.histogram(names::CLIENT_FETCH_SECONDS, &job).snapshot();
        assert_eq!(
            fetch.count,
            reg.counter_value(names::CLIENT_BATCHES_TOTAL, &job)
        );
        assert!(fetch.count > 0);
        // Shutdown bridged the merged worker report.
        assert_eq!(
            reg.counter_value(names::WORKER_SAMPLES_TOTAL, &job),
            report.samples
        );
        assert!(reg.counter_value(names::WORKER_STORAGE_RX_BYTES_TOTAL, &job) > 0);
    }

    #[test]
    fn worker_report_is_independent_of_depth() {
        // Same deterministic table at every depth. A single worker makes
        // split order — and therefore every f64 accumulation order —
        // identical, so the reports must agree field for field.
        let run = |read_ahead: usize| -> WorkerReport {
            let table = build_table(3, 64);
            let mut spec = spec(3);
            spec.read_ahead = read_ahead;
            let session = DppSession::launch(table, spec, 1).unwrap();
            let mut client = session.client();
            let labels = drain_labels(&mut client);
            assert_eq!(labels, (0..192).collect::<Vec<_>>());
            session.shutdown()
        };
        let inline = run(0);
        assert_eq!(inline.copied_bytes, 0);
        for depth in DEPTHS {
            assert_eq!(run(depth), inline, "depth {depth}");
        }
    }

    #[test]
    fn shutdown_leaves_no_stage_thread_reading() {
        // Nobody consumes, so each deliver stage blocks on a full tensor
        // buffer within its first split while its fetch thread still has
        // most of a deep pipe to read ahead into. Shutdown must wait for
        // the read in progress: once it has returned, nothing may touch
        // the cluster or decode another stripe.
        let table = build_striped_table(32, 512, 512);
        let cluster = table.cluster().clone();
        let mut spec = spec(32);
        spec.read_ahead = 8;
        let reg = dsi_obs::Registry::new();
        let session = DppSession::launch_observed_chaos(table, spec, 2, Some(&reg), None).unwrap();
        while session.observe().iter().any(|o| o.buffered < o.capacity) {
            std::thread::yield_now();
        }
        session.shutdown();
        let after_shutdown = || {
            (
                cluster.total_stats().ios,
                reg.counter_value(
                    dsi_obs::names::DWRF_STRIPES_DECODED_TOTAL,
                    &[("job", "sess5")],
                ),
            )
        };
        let at_return = after_shutdown();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(after_shutdown(), at_return, "(ios, stripes decoded)");
    }

    #[test]
    fn pipelined_session_publishes_prefetch_metrics() {
        use dsi_obs::names;
        let table = build_table(4, 64);
        let mut spec = spec(4);
        spec.read_ahead = 4;
        let session = DppSession::launch(table, spec, 2).unwrap();
        let reg = dsi_obs::Registry::new();
        session.attach_registry(&reg);
        // Workers attached before any client exists fill their read-ahead
        // buffers; consume afterwards so prefetch actually runs ahead.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let mut client = session.client();
        let labels = drain_labels(&mut client);
        assert_eq!(labels.len(), 256);
        session.shutdown();
        // Every fetched split waited measurably between decode and
        // transform, so the overlap histogram saw every split.
        let overlap = reg
            .histogram(names::FASTPATH_STAGE_OVERLAP_SECONDS, &[("job", "sess5")])
            .snapshot();
        assert!(overlap.count > 0, "stage overlap histogram is empty");
        // The decode path ran zero-copy end to end.
        assert_eq!(
            reg.counter_value(names::FASTPATH_BYTES_COPIED_TOTAL, &[("job", "sess5")]),
            0
        );
    }

    #[test]
    fn traced_session_produces_wellformed_end_to_end_traces() {
        // Full-rate sampling at depths 0 and 3: every split's trace must
        // pass structural validation and decompose into
        // Schedule → {Extract(StorageRead{TectonicIo..}, DwrfDecode),
        // Transform, Load} → Deliver. Batch 24 does not divide the 16-row
        // splits, so each split's only tensor is the flushed tail.
        use dsi_obs::SpanKind;
        for (read_ahead, batch_size) in [(0usize, 16usize), (3, 16), (0, 24), (3, 24)] {
            let table = build_table(3, 64);
            let mut sp = spec(3);
            sp.read_ahead = read_ahead;
            sp.batch_size = batch_size;
            sp.plan = transforms::TransformPlan::new(vec![transforms::TransformOp::SigridHash {
                input: FeatureId(2),
                salt: 1,
                modulus: 3,
            }]);
            sp.trace = dsi_trace::TraceConfig::all();
            let reg = dsi_obs::Registry::new();
            let session =
                DppSession::launch_observed_chaos(table, sp, 2, Some(&reg), None).unwrap();
            let mut client = session.client();
            let labels = drain_labels(&mut client);
            assert_eq!(labels.len(), 192);
            let total = session.master().ledger(SplitLedger::total);
            let worker_report = session.shutdown();

            let spans = reg.trace_spans();
            dsi_trace::validate(&spans).expect("structurally valid traces");
            let traces: std::collections::HashSet<u64> = spans.iter().map(|s| s.trace_id).collect();
            assert_eq!(traces.len() as u64, total, "one trace per split");
            for kind in [
                SpanKind::Schedule,
                SpanKind::Extract,
                SpanKind::StorageRead,
                SpanKind::TectonicIo,
                SpanKind::DwrfDecode,
                SpanKind::Transform,
                SpanKind::Load,
                SpanKind::Deliver,
            ] {
                let n = spans.iter().filter(|s| s.kind == kind).count();
                assert!(
                    n as u64 >= total,
                    "read_ahead={read_ahead}: kind {kind:?} appears {n} times for {total} splits"
                );
            }
            // Load covers materializing every tensor it ships, the flushed
            // tail included: the columnar kernels all ran inside it, and
            // each tensor is delivered under it, after it closed.
            let loads: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Load).collect();
            let load_ns: u64 = loads.iter().map(|s| s.end_ns - s.start_ns).sum();
            let kernel_ns: u64 = worker_report.columnar_kernel_nanos.iter().sum();
            assert!(kernel_ns > 0);
            assert!(
                load_ns >= kernel_ns,
                "read_ahead={read_ahead} batch={batch_size}: \
                 Load spans {load_ns} ns < kernels {kernel_ns} ns"
            );
            for d in spans.iter().filter(|s| s.kind == SpanKind::Deliver) {
                let load = loads
                    .iter()
                    .find(|l| l.span_id == d.parent_id)
                    .expect("Deliver hangs under a Load span");
                assert!(load.end_ns <= d.start_ns);
            }
        }
    }

    #[test]
    fn transforms_applied_in_flight() {
        let table = build_table(1, 64);
        let mut spec = spec(1);
        spec.plan = transforms::TransformPlan::new(vec![transforms::TransformOp::SigridHash {
            input: FeatureId(2),
            salt: 1,
            modulus: 3,
        }]);
        let session = DppSession::launch(table, spec, 2).unwrap();
        let mut client = session.client();
        let mut rows = 0;
        while let Some(t) = client.next_batch() {
            rows += t.batch_size();
            assert!(t.sparse[0].values().iter().all(|&v| v < 3));
        }
        assert_eq!(rows, 64);
        session.shutdown();
    }
}
