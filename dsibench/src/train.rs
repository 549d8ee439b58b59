//! The four training workloads: a stored dataset read by one DPP session
//! after another, one worker, one trainer client consuming as fast as it
//! can.
//!
//! The timed run drives `DppSession` and `Client` and nothing else. The
//! traced run replays one epoch single-threaded from the public pieces the
//! worker and the wire server are built from, with a span around each, and
//! fails unless its tensors are bitwise those of `Worker::process_split`.

use crate::catalog::{TrainShape, WorkloadDef};
use crate::fingerprint::{tensor_fingerprint, Reference};
use crate::host;
use crate::inputs::{build_train, TrainInputs, ROWS_PER_STRIPE};
use crate::outcome::{Outcome, RunArgs};
use crate::span::{self, Recorder};
use crate::stats::{median, midmean, percentile};
use crate::timing::{rates, run_blocks, set_up, timed, Rates, Step};
use crate::waterfall::{report_honesty, Waterfall, CHECK};
use crossbeam::channel::bounded;
use dpp::{DppSession, Transport, WireConfig, Worker};
use dsi_obs::{PipelineReport, Registry};
use dsi_types::{Batch, MiniBatchTensor, Result, Sample, WorkerId};
use dwrf::cipher::StreamCipher;
use dwrf::stream::checksum64;
use dwrf::{compress, ChunkSource, FileReader, SourceChunk};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;
use tectonic::TectonicSource;
use transforms::ColumnarPlan;
use wire::codec::{decode_envelope, encode_envelope_into};
use wire::frame::{fill_header, FLAG_COMPRESSED, FLAG_ENCRYPTED};
use wire::{FrameKind, WireEnvelope, WireServer, HEADER_LEN};

/// Unverified replays run spans-on / spans-off this many times; overheads
/// and the replay's CPU are medians over the pairs.
const OVERHEAD_PAIRS: usize = 3;
/// Registry-attached epochs of a traced run; the registry's cost is their
/// median against the timed run's median epoch.
const REGISTRY_EPOCHS: usize = 3;
/// Rows per day of the shrunken dataset `--smoke` runs on.
const SMOKE_ROWS_PER_DAY: usize = ROWS_PER_STRIPE;

/// What one session over the whole table looked like from the trainer.
#[derive(Debug, Clone, Copy, Default)]
struct EpochStat {
    wall_s: f64,
    launch_ms: f64,
    first_batch_ms: f64,
    shutdown_ms: f64,
    samples: u64,
    batches: u64,
    tensor_bytes: u64,
}

/// How thoroughly an epoch's batches are checked.
#[derive(Clone, Copy, PartialEq)]
enum Check {
    /// Every delivered tensor is fingerprinted and the multiset compared
    /// with the reference. Costs trainer-thread time: not for timed epochs.
    Fingerprints,
    /// Samples, batches and tensor bytes are compared with the reference's:
    /// enough to see a dropped or duplicated batch at no measurable cost.
    Totals,
}

struct Prepared {
    inputs: TrainInputs,
    reference: Reference,
    /// Tensor payload bytes of one epoch, from the reference worker.
    reference_bytes: u64,
}

impl Prepared {
    fn expected_batches(&self) -> u64 {
        self.reference.batches()
    }

    /// Failed operations of one epoch checked by totals.
    fn totals_failures(&self, e: &EpochStat) -> u64 {
        u64::from(e.samples != self.inputs.rows)
            + e.batches.abs_diff(self.expected_batches())
            + u64::from(e.tensor_bytes != self.reference_bytes)
    }
}

/// One worker on its own over every split: the reference a session's
/// output is compared with.
fn reference_epoch(inputs: &TrainInputs) -> Result<(Reference, u64)> {
    let scan = inputs
        .table
        .scan(inputs.spec.partitions(), inputs.spec.projection.clone())
        .with_policy(inputs.spec.policy);
    let mut worker = Worker::new(WorkerId(0), Arc::new(inputs.spec.clone()), scan.clone());
    let mut prints = Vec::new();
    let mut bytes = 0u64;
    for split in scan.plan_splits() {
        let mut tensors = worker.process_split(&split)?;
        tensors.extend(worker.flush());
        for t in &tensors {
            prints.push(tensor_fingerprint(t));
            bytes += t.payload_bytes() as u64;
        }
    }
    Ok((Reference::new(prints), bytes))
}

/// Runs one session over the whole table. Returns the epoch's stats and
/// the number of failed operations `check` found.
fn run_epoch(
    prepared: &Prepared,
    registry: Option<&Registry>,
    check: Check,
    waits_ms: &mut Vec<f64>,
) -> (EpochStat, u64) {
    let inputs = &prepared.inputs;
    let start = Instant::now();
    let session = DppSession::launch_observed_chaos(
        inputs.table.clone(),
        inputs.spec.clone(),
        1,
        registry,
        None,
    )
    .expect("the benchmark's selection is never empty");
    let mut stat = EpochStat {
        launch_ms: start.elapsed().as_secs_f64() * 1e3,
        ..Default::default()
    };
    let mut client = session.client();
    let mut prints = Vec::new();
    loop {
        let asked = Instant::now();
        let Some(tensor) = client.next_batch() else {
            break;
        };
        waits_ms.push(asked.elapsed().as_secs_f64() * 1e3);
        if stat.batches == 0 {
            stat.first_batch_ms = start.elapsed().as_secs_f64() * 1e3;
        }
        stat.batches += 1;
        stat.samples += tensor.batch_size() as u64;
        stat.tensor_bytes += tensor.payload_bytes() as u64;
        if check == Check::Fingerprints {
            prints.push(tensor_fingerprint(&tensor));
        }
    }
    let drained = Instant::now();
    let report = session.shutdown();
    stat.shutdown_ms = drained.elapsed().as_secs_f64() * 1e3;
    stat.wall_s = start.elapsed().as_secs_f64();
    let mut failed = prepared.totals_failures(&stat) + u64::from(report.samples != stat.samples);
    if check == Check::Fingerprints {
        failed += prepared.reference.mismatches(prints);
    }
    (stat, failed)
}

/// Generates the inputs, builds the table, computes the reference and runs
/// the warm-up epoch with every batch fingerprinted: all of `setup_s`.
fn prepare(shape: &TrainShape, seed: u64) -> (Prepared, u64) {
    let inputs = build_train(shape, seed);
    let (reference, reference_bytes) =
        reference_epoch(&inputs).expect("reading the table just written cannot fail");
    let prepared = Prepared {
        inputs,
        reference,
        reference_bytes,
    };
    let (_, failed) = run_epoch(&prepared, None, Check::Fingerprints, &mut Vec::new());
    (prepared, failed)
}

struct Timed {
    epochs: Vec<EpochStat>,
    rates: Rates,
    waits_ms: Vec<f64>,
    failed: u64,
}

impl Timed {
    /// One number per epoch of the timed run.
    fn per_epoch(&self, f: impl Fn(&EpochStat) -> f64) -> Vec<f64> {
        self.epochs.iter().map(f).collect()
    }
}

/// Back-to-back epochs with no registry and no trace until `seconds` have
/// passed; whole epochs only, so every epoch pays its session launch.
fn timed_run(prepared: &Prepared, seconds: f64) -> Timed {
    let mut epochs = Vec::new();
    let mut waits_ms = Vec::new();
    let mut failed = 0;
    let blocks = run_blocks(seconds, || {
        let ((stat, epoch_failed), wall_s, cpu_s) =
            timed(|| run_epoch(prepared, None, Check::Totals, &mut waits_ms));
        epochs.push(stat);
        failed += epoch_failed;
        Step {
            samples: stat.samples,
            wall_s,
            cpu_s,
        }
    });
    Timed {
        epochs,
        rates: rates(&blocks),
        waits_ms,
        failed,
    }
}

/// A `ChunkSource` that records a `tectonic.read` span around every read
/// the DWRF reader issues.
struct TimedSource<'a> {
    inner: TectonicSource,
    recorder: &'a Recorder,
    unit: u64,
    reads: &'a Cell<u64>,
}

impl ChunkSource for TimedSource<'_> {
    fn read(&mut self, offset: u64, len: u64) -> Result<SourceChunk> {
        let _span = self.recorder.enter("tectonic.read", self.unit);
        self.reads.set(self.reads.get() + 1);
        self.inner.read(offset, len)
    }
}

/// Counts taken at the replay's span boundaries.
#[derive(Debug, Default)]
struct ReplayCounts {
    splits: u64,
    rows: u64,
    batches: u64,
    tensor_bytes: u64,
    reads: u64,
    read_bytes: u64,
    wanted_bytes: u64,
    uncompressed_bytes: u64,
    copied_bytes: u64,
    model_cycles: f64,
    frames: u64,
    payload_bytes: u64,
    tx_bytes: u64,
    /// Tensors that differ from the reference worker's, or wire round
    /// trips that did not return the envelope sent.
    mismatches: u64,
}

/// The wire server's frame encoding and the wire client's decoding, stage
/// by stage, on one reused buffer as the server's pooled buffers are.
struct WireMirror {
    config: WireConfig,
    buf: Vec<u8>,
    next_nonce: u64,
}

impl WireMirror {
    fn new(config: WireConfig) -> Self {
        Self {
            config,
            buf: Vec::new(),
            next_nonce: 0,
        }
    }

    /// Sends `env` through every stage and back. Returns the decoded
    /// envelope. The sender's copy is freed once it is serialized, as the
    /// server's send loop frees it.
    fn round_trip(
        &mut self,
        env: WireEnvelope,
        rec: &Recorder,
        counts: &mut ReplayCounts,
    ) -> Result<WireEnvelope> {
        let unit = env.split;
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        let cipher = StreamCipher::new(self.config.key);
        let buf = &mut self.buf;
        buf.clear();
        buf.resize(HEADER_LEN, 0);
        {
            let _span = rec.enter("wire.encode", unit);
            encode_envelope_into(&env, buf);
            drop(env);
        }
        counts.payload_bytes += (buf.len() - HEADER_LEN) as u64;
        let mut flags = 0u8;
        if self.config.compress {
            let _span = rec.enter("wire.compress", unit);
            let zipped = compress::compress(&buf[HEADER_LEN..]);
            buf.truncate(HEADER_LEN);
            buf.extend_from_slice(&zipped);
            flags |= FLAG_COMPRESSED;
        }
        if self.config.encrypt {
            let _span = rec.enter("wire.cipher", unit);
            cipher.apply_in_place(nonce, &mut buf[HEADER_LEN..]);
            flags |= FLAG_ENCRYPTED;
        }
        let sent_checksum = {
            let _span = rec.enter("wire.checksum", unit);
            let checksum = checksum64(&buf[HEADER_LEN..]);
            let len = (buf.len() - HEADER_LEN) as u32;
            fill_header(buf, FrameKind::Data, flags, nonce, len, checksum);
            checksum
        };
        counts.frames += 1;
        counts.tx_bytes += buf.len() as u64;

        // The far side: verify, decrypt, inflate, deserialize.
        let payload = &mut buf[HEADER_LEN..];
        let received_checksum = {
            let _span = rec.enter("wire.checksum", unit);
            checksum64(payload)
        };
        if received_checksum != sent_checksum {
            counts.mismatches += 1;
        }
        if self.config.encrypt {
            let _span = rec.enter("wire.cipher", unit);
            cipher.apply_in_place(nonce, payload);
        }
        if self.config.compress {
            let unzipped = {
                let _span = rec.enter("wire.decompress", unit);
                compress::decompress(payload)?
            };
            let _span = rec.enter("wire.decode", unit);
            decode_envelope(&unzipped)
        } else {
            let _span = rec.enter("wire.decode", unit);
            decode_envelope(payload)
        }
    }
}

/// One epoch of the session's splits, single-threaded, from the public
/// functions `Worker::process_split` and the wire threads are made of.
/// With `verify`, every split is also run through a reference worker and
/// every frame compared after its round trip, inside `check` spans. With
/// `keep`, the envelopes skip the wire stages and are returned instead (the
/// standalone transfer needs an epoch of them).
fn replay_epoch(
    inputs: &TrainInputs,
    rec: &Recorder,
    verify: bool,
    keep: bool,
) -> Result<(ReplayCounts, Vec<WireEnvelope>)> {
    let spec = &inputs.spec;
    let mut counts = ReplayCounts::default();
    let mut envelopes = Vec::new();
    let _root = rec.enter("replay", 0);
    let scan = inputs
        .table
        .scan(spec.partitions(), spec.projection.clone())
        .with_policy(spec.policy);
    let splits = {
        let _span = rec.enter("warehouse.plan_splits", 0);
        scan.plan_splits()
    };
    let (row_plan, columnar) = ColumnarPlan::split_plan(&spec.plan);
    let caps = columnar.sparse_caps(&spec.sparse_ids);
    let mut wire = match spec.transport {
        Transport::Tcp(config) => Some(WireMirror::new(config)),
        Transport::InProcess => None,
    };
    let mut reference = verify.then(|| {
        let _span = rec.enter(CHECK, 0);
        Worker::new(WorkerId(0), Arc::new(spec.clone()), scan.clone())
    });
    let reads = Cell::new(0u64);

    for split in &splits {
        let unit = split.index;
        let (rows, plan) = {
            let _span = rec.enter("dwrf.read_stripe", unit);
            let mut source = TimedSource {
                inner: TectonicSource::new(inputs.table.cluster().clone(), split.path.clone()),
                recorder: rec,
                unit,
                reads: &reads,
            };
            FileReader::from_footer(Arc::clone(&split.footer)).read_stripe_from(
                split.stripe,
                Some(&spec.projection),
                spec.policy,
                &mut source,
            )?
        };
        counts.splits += 1;
        counts.rows += rows.len() as u64;
        counts.read_bytes += plan.read_bytes;
        counts.wanted_bytes += plan.wanted_bytes;
        counts.uncompressed_bytes += plan.uncompressed_bytes;
        counts.copied_bytes += plan.copied_bytes;

        let (transformed, cost) = {
            let _span = rec.enter("transforms.row", unit);
            // The worker gives each split its own sampling domain.
            row_plan.apply_batch(Batch::from_samples(rows), split.index * 1_000_000)
        };
        counts.model_cycles += cost.cycles;

        let mut tensors: Vec<MiniBatchTensor> = Vec::new();
        let mut pending: Vec<Sample> = transformed.into_samples();
        while !pending.is_empty() {
            let batch = {
                let _span = rec.enter("dpp.materialize", unit);
                let rest = pending.split_off(spec.batch_size.min(pending.len()));
                let batch = Batch::from_samples(pending);
                pending = rest;
                batch
            };
            let ctx = (!columnar.is_empty()).then(|| {
                let _span = rec.enter("transforms.columnar", unit);
                columnar.capture_ctx(batch.samples(), &spec.dense_ids, &spec.sparse_ids)
            });
            let mut tensor = {
                let _span = rec.enter("dpp.materialize", unit);
                let tensor = batch.materialize_capped(&spec.dense_ids, &spec.sparse_ids, &caps);
                // Freeing the rows is the load stage's work too.
                drop(batch);
                tensor
            };
            if let Some(ctx) = ctx {
                let _span = rec.enter("transforms.columnar", unit);
                let applied = columnar.apply_with_cost(
                    &mut tensor,
                    &spec.dense_ids,
                    &ctx,
                    spec.plan.cost_model(),
                );
                counts.model_cycles += applied.cost.cycles;
            }
            counts.batches += 1;
            counts.tensor_bytes += tensor.payload_bytes() as u64;
            tensors.push(tensor);
        }

        if let Some(worker) = reference.as_mut() {
            let _span = rec.enter(CHECK, unit);
            let mut expected = worker.process_split(split)?;
            expected.extend(worker.flush());
            counts.mismatches += expected.len().abs_diff(tensors.len()) as u64;
            counts.mismatches += expected
                .iter()
                .zip(&tensors)
                .filter(|(a, b)| tensor_fingerprint(a) != tensor_fingerprint(b))
                .count() as u64;
        }

        // As the worker loop does, every tensor leaves in an envelope, and
        // the trainer frees what it was delivered.
        let total = tensors.len();
        for (seq, tensor) in tensors.into_iter().enumerate() {
            let env = WireEnvelope {
                split: split.index,
                seq: seq as u32,
                last: seq + 1 == total,
                worker: WorkerId(0),
                trace_id: 0,
                parent_span: 0,
                tensor,
            };
            if keep {
                envelopes.push(env);
                continue;
            }
            let delivered = match wire.as_mut() {
                Some(wire) => {
                    let sent = verify.then(|| {
                        let _span = rec.enter(CHECK, unit);
                        (env.seq, env.last, tensor_fingerprint(&env.tensor))
                    });
                    let back = wire.round_trip(env, rec, &mut counts)?;
                    if let Some(sent) = sent {
                        let _span = rec.enter(CHECK, unit);
                        let same = back.split == split.index
                            && sent == (back.seq, back.last, tensor_fingerprint(&back.tensor));
                        counts.mismatches += u64::from(!same);
                    }
                    back
                }
                None => env,
            };
            let _span = rec.enter("trainer.release", unit);
            drop(delivered);
        }
    }
    counts.reads = reads.get();
    Ok((counts, envelopes))
}

/// What moving an epoch's envelopes through a real `WireServer` and
/// `wire::connect` pair took. No public function exposes the socket write
/// alone, so the span encloses the server's and client's codec work too,
/// which runs on their two threads while this one feeds and drains.
struct Transfer {
    received: u64,
    tx_bytes: u64,
    reconnects: u64,
}

fn transfer(
    envelopes: Vec<WireEnvelope>,
    config: WireConfig,
    window: usize,
    rec: &Recorder,
) -> Transfer {
    let registry = Registry::new();
    let obs = Arc::new(parking_lot::Mutex::new(Some(registry.clone())));
    let chaos = Arc::new(parking_lot::RwLock::new(None));
    let sent = envelopes.len() as u64;
    let mut received = 0u64;
    let span = rec.enter("wire.transfer", 0);
    let (tx, rx) = bounded::<WireEnvelope>(window);
    let server = WireServer::serve(rx, config, window, Arc::clone(&obs), chaos, "")
        .expect("binding a localhost port");
    let receiver = wire::connect(server.port(), config, window, obs, "");
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for env in envelopes {
                if tx.send(env).is_err() {
                    break;
                }
            }
        });
        while received < sent && receiver.recv().is_ok() {
            received += 1;
        }
    });
    drop(span);
    drop(receiver);
    server.join();
    let report = PipelineReport::collect(&registry);
    Transfer {
        received,
        tx_bytes: report.wire_tx_bytes,
        reconnects: report.wire_reconnects,
    }
}

pub fn run(def: &WorkloadDef, shape: &TrainShape, args: &RunArgs) -> Outcome {
    let mut shape = *shape;
    if args.smoke {
        shape.rows_per_day = SMOKE_ROWS_PER_DAY;
    }
    let mut out = Outcome::default();

    // ---- set-up: several times over for a steady `setup_s`; the last one
    // is the one measured on.
    let (prepared, setup_s) = set_up(args.setup_repeats(), || {
        let (prepared, failed) = prepare(&shape, args.seed);
        out.attempted += prepared.expected_batches();
        out.failed += failed;
        prepared
    });
    let inputs = &prepared.inputs;
    out.fact("input_digest", format!("{:016x}", inputs.input_digest));
    out.fact("rows", inputs.rows);
    out.fact("projection_features", inputs.spec.projection.len());
    out.fact("plan_ops", inputs.spec.plan.len());
    out.fact("derived_fraction", inputs.derived_fraction);

    // ---- timed region
    let timed = timed_run(&prepared, args.seconds);
    let epochs = timed.epochs.len() as u64;
    let samples = timed.rates.samples;
    out.attempted += epochs * prepared.expected_batches();
    out.failed += timed.failed;
    out.fact("epochs", epochs);
    out.fact("samples", samples);
    out.fact("timed_wall_s", format!("{:.3}", timed.rates.wall_s));
    out.fact("peak_rss_reset", host::reset_peak_rss());

    if args.trace {
        traced_phase(def, &prepared, &timed, &mut out);
    }

    // ---- one more epoch with a registry attached for the counts (a few,
    // in a traced run, for what the registry costs). Last, because attaching
    // turns the table's DWRF telemetry on for good.
    let mut observed_wall_s = Vec::new();
    let (mut counted, mut disks, mut report) = Default::default();
    let registry_epochs = if args.trace { REGISTRY_EPOCHS } else { 1 };
    for _ in 0..registry_epochs {
        inputs.table.cluster().reset_stats();
        let registry = Registry::new();
        let (stat, failed) = run_epoch(&prepared, Some(&registry), Check::Totals, &mut Vec::new());
        out.attempted += prepared.expected_batches();
        out.failed += failed;
        observed_wall_s.push(stat.wall_s);
        (counted, disks, report) = (
            stat,
            inputs.table.cluster().total_stats(),
            PipelineReport::collect(&registry),
        );
    }
    let per_sample = |bytes: u64| bytes as f64 / counted.samples.max(1) as f64;

    if args.trace {
        let typical = median(&timed.per_epoch(|e| e.wall_s));
        out.metrics.insert(
            "obs.registry_overhead_pct",
            100.0 * (median(&observed_wall_s) - typical) / typical,
        );
        out.metrics
            .insert("wire.reconnects", report.wire_reconnects as f64);
    } else {
        let m = &mut out.metrics;
        m.insert("setup_s", setup_s);
        m.insert("samples_per_s", timed.rates.samples_per_s);
        m.insert("cpu_s_per_msample", timed.rates.cpu_s_per_msample);
        // Sessions reach their first batch in about 7.5 or 9.5 ms on the TCP
        // workloads (the wire server's polling), so not a median.
        m.insert(
            "first_batch_ms",
            midmean(&timed.per_epoch(|e| e.first_batch_ms)),
        );
        m.insert("storage_read_bytes_per_sample", per_sample(disks.bytes));
        m.insert(
            "storage_ios_per_ksample",
            1e3 * disks.ios as f64 / counted.samples.max(1) as f64,
        );
        // What crosses from worker to trainer: socket bytes over TCP, the
        // tensors themselves through the in-process channel.
        let crossed = match inputs.spec.transport {
            Transport::Tcp(_) => report.wire_tx_bytes,
            Transport::InProcess => counted.tensor_bytes,
        };
        m.insert("wire_bytes_per_sample", per_sample(crossed));
        m.insert(
            "stored_bytes_per_sample",
            inputs.table.total_encoded_bytes() as f64 / inputs.rows as f64,
        );
        m.insert("peak_rss_mib", timed.rates.peak_rss_mib);
    }
    out
}

/// The staged replay (with and without spans), the standalone transfer,
/// and every per-layer metric they and the timed run give.
fn traced_phase(def: &WorkloadDef, prepared: &Prepared, timed: &Timed, out: &mut Outcome) {
    let inputs = &prepared.inputs;
    let cluster = inputs.table.cluster();

    // Spans on, everything verified.
    let rec = Recorder::new(true);
    let counts = match replay_epoch(inputs, &rec, true, false) {
        Ok((counts, _)) => counts,
        Err(e) => {
            out.problems.push(format!("staged replay failed: {e}"));
            return;
        }
    };
    out.attempted += counts.batches;
    out.failed += counts.mismatches;
    if counts.rows != inputs.rows || counts.batches != prepared.expected_batches() {
        out.problems.push(format!(
            "staged replay produced {} rows in {} batches, the worker {} in {}",
            counts.rows,
            counts.batches,
            inputs.rows,
            prepared.expected_batches()
        ));
    }

    let transferred = match inputs.spec.transport {
        Transport::Tcp(config) => match replay_epoch(inputs, &Recorder::new(false), false, true) {
            Ok((_, envelopes)) => {
                let sent = envelopes.len() as u64;
                let t = transfer(envelopes, config, inputs.spec.buffer_capacity, &rec);
                if t.received != sent {
                    out.problems.push(format!(
                        "transfer delivered {} of {sent} envelopes",
                        t.received
                    ));
                }
                Some(t)
            }
            Err(e) => {
                out.problems
                    .push(format!("collecting envelopes failed: {e}"));
                None
            }
        },
        Transport::InProcess => None,
    };

    // The same replay a few more times with nothing verified, spans on and
    // off in turn: by difference what recording spans costs, and the
    // replay's own CPU. The simulated disks are read here, where only the
    // replay reads them.
    let (mut on_wall_s, mut off_wall_s, mut off_cpu_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut disks = cluster.total_stats();
    for _ in 0..OVERHEAD_PAIRS {
        cluster.reset_stats();
        let spans_on = Recorder::new(true);
        let on = replay_epoch(inputs, &spans_on, false, false);
        disks = cluster.total_stats();
        on_wall_s.push(span::roots_wall_s(&spans_on.into_spans(), "replay"));
        let cpu_before = host::thread_cpu_seconds();
        let start = Instant::now();
        let off = replay_epoch(inputs, &Recorder::new(false), false, false);
        off_wall_s.push(start.elapsed().as_secs_f64());
        off_cpu_s.push(host::thread_cpu_seconds() - cpu_before);
        if on.is_err() || off.is_err() {
            out.problems.push("unverified replay failed".to_string());
        }
    }
    let (on_wall_s, off_wall_s, off_cpu_s) =
        (median(&on_wall_s), median(&off_wall_s), median(&off_cpu_s));

    let spans = rec.into_spans();
    let Some(fall) = Waterfall::of(&spans, "replay") else {
        out.problems
            .push("replay recorded no root span".to_string());
        return;
    };
    fall.report(out);
    if let Some(h) = def.honesty {
        report_honesty(def, fall.share_of(h.layers), out);
    }

    let epochs = timed.epochs.len() as f64;
    let m = &mut out.metrics;
    m.insert("tectonic.read_s", fall.get("tectonic.read"));
    m.insert("tectonic.reads", counts.reads as f64);
    m.insert("tectonic.read_bytes", counts.read_bytes as f64);
    m.insert(
        "tectonic.mean_io_bytes",
        counts.read_bytes as f64 / counts.reads.max(1) as f64,
    );
    m.insert("tectonic.seeks", disks.seeks as f64);
    m.insert("tectonic.sim_disk_busy_s", disks.busy_ns as f64 / 1e9);
    m.insert("dwrf.decode_self_s", fall.get("dwrf.read_stripe"));
    m.insert("dwrf.wanted_bytes", counts.wanted_bytes as f64);
    m.insert(
        "dwrf.overread_ratio",
        counts.read_bytes as f64 / counts.wanted_bytes.max(1) as f64,
    );
    m.insert("dwrf.uncompressed_bytes", counts.uncompressed_bytes as f64);
    m.insert("dwrf.copied_bytes", counts.copied_bytes as f64);
    m.insert("dwrf.rows_decoded", counts.rows as f64);
    let (row_plan, columnar) = ColumnarPlan::split_plan(&inputs.spec.plan);
    m.insert("transforms.row_s", fall.get("transforms.row"));
    m.insert("transforms.columnar_s", fall.get("transforms.columnar"));
    m.insert("transforms.ops_row", row_plan.len() as f64);
    m.insert("transforms.ops_columnar", columnar.ops().len() as f64);
    m.insert("transforms.model_cycles", counts.model_cycles);
    m.insert("dpp.materialize_s", fall.get("dpp.materialize"));
    m.insert("dpp.tensor_bytes", counts.tensor_bytes as f64);
    m.insert("dpp.batches", counts.batches as f64);
    m.insert("dpp.splits", counts.splits as f64);
    m.insert("dpp.launch_ms", median(&timed.per_epoch(|e| e.launch_ms)));
    m.insert(
        "dpp.shutdown_ms",
        median(&timed.per_epoch(|e| e.shutdown_ms)),
    );
    m.insert(
        "dpp.orchestration_cpu_s",
        timed.rates.cpu_s / epochs - off_cpu_s,
    );
    for (metric, span_name) in [
        ("wire.encode_s", "wire.encode"),
        ("wire.compress_s", "wire.compress"),
        ("wire.cipher_s", "wire.cipher"),
        ("wire.checksum_s", "wire.checksum"),
        ("wire.decompress_s", "wire.decompress"),
        ("wire.decode_s", "wire.decode"),
    ] {
        m.insert(metric, fall.get(span_name));
    }
    if let Some(t) = &transferred {
        m.insert(
            "wire.transfer_s",
            span::roots_wall_s(&spans, "wire.transfer"),
        );
        if t.tx_bytes != counts.tx_bytes {
            out.problems.push(format!(
                "the wire server sent {} bytes for the frames the replay built in {}",
                t.tx_bytes, counts.tx_bytes
            ));
        }
        out.fact("transfer_reconnects", t.reconnects);
    }
    let m = &mut out.metrics;
    m.insert("wire.frames", counts.frames as f64);
    m.insert("wire.payload_bytes", counts.payload_bytes as f64);
    m.insert("wire.tx_bytes", counts.tx_bytes as f64);
    m.insert(
        "wire.compression_ratio",
        if counts.tx_bytes == 0 {
            0.0
        } else {
            counts.payload_bytes as f64 / counts.tx_bytes as f64
        },
    );
    m.insert("warehouse.plan_splits_s", fall.get("warehouse.plan_splits"));
    m.insert("warehouse.splits", counts.splits as f64);
    m.insert("trainer.fetch_wait_p50_ms", median(&timed.waits_ms));
    m.insert(
        "trainer.fetch_wait_p99_ms",
        percentile(&timed.waits_ms, 99.0).unwrap_or(0.0),
    );
    m.insert("trainer.fetch_count", timed.waits_ms.len() as f64);
    m.insert(
        "obs.replay_span_overhead_pct",
        100.0 * (on_wall_s - off_wall_s) / off_wall_s,
    );
    out.trace_json = Some(span::chrome_trace_json(&spans, def.name));
}
