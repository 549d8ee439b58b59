//! The ingest workload: the write path, one day at a time.
//!
//! A day's feature logs and outcome events are published to the message
//! bus, joined and labelled by the batch ETL, encoded as a DWRF file and
//! appended R-way to Tectonic, probed through the scan path, and the day
//! that fell out of retention is dropped. Day payloads repeat in a short
//! cycle with fresh request ids, so the run can last as long as asked.

use crate::catalog::{IngestShape, WorkloadDef};
use crate::host;
use crate::inputs::{
    build_ingest, cluster, ingest_table, probe_projection, writer_options, IngestInputs,
    ROWS_PER_STRIPE,
};
use crate::outcome::{Outcome, RunArgs};
use crate::span::{self, Recorder};
use crate::stats::{median, midmean};
use crate::timing::{rates, run_blocks, set_up, Rates, Step};
use crate::waterfall::{report_honesty, Waterfall, CHECK};
use dsi_obs::Registry;
use dsi_types::{PartitionId, Projection, Sample};
use dwrf::stream::checksum64;
use dwrf::{CoalescePolicy, FileWriter};
use scribe::{BatchEtl, EventRecord, FeatureLogRecord, MessageBus, ScribeRecord};
use std::time::Instant;
use warehouse::Table;

const FEATURES_TOPIC: &str = "rm1/features";
const EVENTS_TOPIC: &str = "rm1/events";
const NS_PER_DAY: u64 = 86_400_000_000_000;
/// An event follows its feature log by a microsecond, well inside this.
const JOIN_WINDOW_NS: u64 = 10_000_000_000;
const SMOKE_ROWS_PER_DAY: usize = ROWS_PER_STRIPE;

/// The system under test: bus, ETL and table, living across days.
struct Pipeline {
    bus: MessageBus,
    etl: BatchEtl,
    table: Table,
    retention_days: u32,
    /// What a landed partition is probed with.
    probe: Projection,
}

impl Pipeline {
    fn new(inputs: &IngestInputs, shape: &IngestShape) -> Self {
        Self {
            bus: MessageBus::new(),
            etl: BatchEtl::new(JOIN_WINDOW_NS, 1.0, NS_PER_DAY),
            table: ingest_table(&inputs.schema),
            retention_days: shape.retention_days,
            probe: probe_projection(&inputs.schema),
        }
    }
}

/// The load generator: a day's payload as log records with request ids
/// never used before. Runs outside every timed region and span.
fn day_records(day: u32, payload: &[Sample]) -> (Vec<ScribeRecord>, Vec<ScribeRecord>) {
    let rows = payload.len() as u64;
    let step = NS_PER_DAY / 2 / rows.max(1);
    let mut features = Vec::with_capacity(payload.len());
    let mut events = Vec::with_capacity(payload.len());
    for (i, sample) in payload.iter().enumerate() {
        let request_id = u64::from(day) * rows + i as u64;
        let ts = u64::from(day) * NS_PER_DAY + i as u64 * step;
        features.push(FeatureLogRecord::new(request_id, ts, sample.clone()).into());
        events.push(
            EventRecord {
                request_id,
                ts_ns: ts + 1_000,
                label: sample.label(),
            }
            .into(),
        );
    }
    (features, events)
}

#[derive(Debug, Clone, Copy, Default)]
struct DayStat {
    /// Publish start to retention drop done.
    wall_s: f64,
    /// Publish start to the partition landed and probed readable.
    landed_ms: f64,
    cpu_s: f64,
    rows: u64,
    encoded_bytes: u64,
    failed: u64,
}

/// What the replay keeps of a landed day for its scratch mirror.
struct LandedDay {
    samples: Vec<Sample>,
    /// Checksum of the file the table stored.
    file_checksum: u64,
}

/// Lands one day. `keep` (replay only) receives a copy of the ETL's output
/// and the stored file's checksum, taken inside `check` spans.
fn land_day(
    p: &mut Pipeline,
    day: u32,
    payload: &[Sample],
    rec: &Recorder,
    keep: Option<&mut Vec<LandedDay>>,
) -> DayStat {
    let unit = u64::from(day);
    let (features, events) = {
        let _span = rec.enter(CHECK, unit);
        day_records(day, payload)
    };
    let partition = PartitionId::new(day);
    let mut stat = DayStat::default();
    let cpu_before = host::process_cpu_seconds();
    let start = Instant::now();
    {
        let _span = rec.enter("scribe.publish", unit);
        for record in features {
            p.bus.publish(FEATURES_TOPIC, record);
        }
        for record in events {
            p.bus.publish(EVENTS_TOPIC, record);
        }
    }
    let parts = {
        let _span = rec.enter("scribe.etl", unit);
        p.etl.run_pass(
            &p.bus,
            FEATURES_TOPIC,
            EVENTS_TOPIC,
            u64::from(day + 1) * NS_PER_DAY,
        )
    };
    let Ok(parts) = parts else {
        stat.failed = 1;
        return stat;
    };
    // A day's logs all carry that day's timestamps: anything else landing
    // is a misrouted partition.
    stat.failed += u64::from(parts.len() != 1);
    let mut kept = None;
    for (part, samples) in parts {
        stat.failed += u64::from(part != partition);
        stat.rows += samples.len() as u64;
        if keep.is_some() {
            let _span = rec.enter(CHECK, unit);
            kept = Some(samples.clone());
        }
        let _span = rec.enter("warehouse.write_partition", unit);
        stat.failed += u64::from(p.table.write_partition(part, samples).is_err());
    }
    // Landed means readable: the labels and one dense column come back
    // through the scan path, uncoalesced — two small reads a stripe, where
    // the default window would fetch the whole file between them.
    {
        let _span = rec.enter("warehouse.probe", unit);
        let probed = p
            .table
            .scan(partition..partition.plus_days(1), p.probe.clone())
            .with_policy(CoalescePolicy::None)
            .read_all();
        let column = p.probe.ids().first().copied();
        let readable = probed.is_ok_and(|rows| {
            rows.len() == payload.len()
                && rows.iter().zip(payload).all(|(a, b)| {
                    a.label() == b.label() && column.is_none_or(|f| a.dense(f) == b.dense(f))
                })
        });
        stat.failed += u64::from(!readable);
    }
    stat.landed_ms = start.elapsed().as_secs_f64() * 1e3;
    if day >= p.retention_days {
        let _span = rec.enter("warehouse.drop_partition", unit);
        let expired = PartitionId::new(day - p.retention_days);
        stat.failed += u64::from(p.table.drop_partition(expired).is_err());
    }
    stat.wall_s = start.elapsed().as_secs_f64();
    stat.cpu_s = host::process_cpu_seconds() - cpu_before;
    stat.encoded_bytes = p.table.partition_encoded_bytes(partition);

    if let (Some(keep), Some(samples)) = (keep, kept) {
        let _span = rec.enter(CHECK, unit);
        let file_checksum = p
            .table
            .partition_files(partition)
            .first()
            .and_then(|f| {
                p.table
                    .cluster()
                    .read_uncharged(&f.path, 0, f.encoded_bytes)
                    .ok()
            })
            .map_or(0, |bytes| checksum64(&bytes));
        keep.push(LandedDay {
            samples,
            file_checksum,
        });
    }
    stat
}

/// Whether `day` reads back, every feature, to the payload it was made of.
fn reads_back(table: &Table, inputs: &IngestInputs, day: u32, payload: &[Sample]) -> bool {
    let partition = PartitionId::new(day);
    table
        .scan(
            partition..partition.plus_days(1),
            Projection::all(&inputs.schema),
        )
        .read_all()
        .is_ok_and(|rows| rows == payload)
}

/// Counts that must repeat exactly, taken over the warm-up's one full
/// cycle of payloads so they do not depend on how many days the timed
/// region fits.
#[derive(Debug, Clone, Copy, Default)]
struct CycleCounts {
    rows: u64,
    encoded_bytes: u64,
    probe_bytes: u64,
    probe_ios: u64,
}

struct Prepared {
    inputs: IngestInputs,
    pipeline: Pipeline,
    counts: CycleCounts,
    next_day: u32,
}

impl Prepared {
    /// Lands the next day of the payload cycle, untraced.
    fn land_next(&mut self) -> DayStat {
        let day = self.next_day;
        self.next_day += 1;
        let payload = &self.inputs.payloads[day as usize % self.inputs.payloads.len()];
        land_day(
            &mut self.pipeline,
            day,
            payload,
            &Recorder::new(false),
            None,
        )
    }
}

/// Generates the payloads, builds the pipeline and lands one full cycle
/// with every partition read back in full: all of `setup_s`.
fn prepare(shape: &IngestShape, seed: u64) -> (Prepared, u64, u64) {
    let inputs = build_ingest(shape, seed);
    let mut pipeline = Pipeline::new(&inputs, shape);
    let off = Recorder::new(false);
    let mut counts = CycleCounts::default();
    let mut failed = 0u64;
    for day in 0..shape.payload_days {
        let payload = &inputs.payloads[day as usize];
        pipeline.table.cluster().reset_stats();
        let stat = land_day(&mut pipeline, day, payload, &off, None);
        let disks = pipeline.table.cluster().total_stats();
        counts.rows += stat.rows;
        counts.encoded_bytes += stat.encoded_bytes;
        counts.probe_bytes += disks.bytes;
        counts.probe_ios += disks.ios;
        failed += stat.failed + u64::from(!reads_back(&pipeline.table, &inputs, day, payload));
    }
    let attempted = u64::from(shape.payload_days);
    (
        Prepared {
            inputs,
            pipeline,
            counts,
            next_day: shape.payload_days,
        },
        attempted,
        failed,
    )
}

/// Lands days until their timed parts add up to `seconds`.
fn timed_run(prepared: &mut Prepared, seconds: f64) -> (Vec<DayStat>, Rates) {
    let mut days = Vec::new();
    let blocks = run_blocks(seconds, || {
        let stat = prepared.land_next();
        days.push(stat);
        Step {
            samples: stat.rows,
            wall_s: stat.wall_s,
            cpu_s: stat.cpu_s,
        }
    });
    (days, rates(&blocks))
}

/// One cycle of days on a fresh pipeline. With `verify`, each day's file is
/// also encoded and appended again on a scratch cluster, which is where
/// `dwrf.encode` and `tectonic.append` — both inside
/// `Table::write_partition` — can be seen apart. Returns the pipeline (for
/// its ETL counters), the failures found and the scratch cluster's counts.
fn replay_cycle(
    inputs: &IngestInputs,
    shape: &IngestShape,
    rec: &Recorder,
    verify: bool,
) -> (Pipeline, u64, ScratchCounts) {
    let mut p = Pipeline::new(inputs, shape);
    let scratch = cluster();
    let mut scratch_counts = ScratchCounts::default();
    let mut failed = 0u64;
    for day in 0..shape.payload_days {
        let unit = u64::from(day);
        let payload = &inputs.payloads[day as usize];
        let mut landed = Vec::new();
        {
            let started = Instant::now();
            let _root = rec.enter("replay", unit);
            let stat = land_day(&mut p, day, payload, rec, verify.then_some(&mut landed));
            failed += stat.failed;
            if verify {
                let _span = rec.enter(CHECK, unit);
                failed += u64::from(!reads_back(&p.table, inputs, day, payload));
            }
            scratch_counts.replay_wall_s += started.elapsed().as_secs_f64();
        }
        // The day's file once more, by hand, onto the scratch cluster.
        for kept in landed {
            let _root = rec.enter("scratch", unit);
            let file = {
                let _span = rec.enter("dwrf.encode", unit);
                let mut writer = FileWriter::new(writer_options(true));
                for sample in kept.samples {
                    writer.push(sample);
                }
                writer.finish()
            };
            let Ok(file) = file else {
                failed += 1;
                continue;
            };
            {
                let _span = rec.enter("tectonic.append", unit);
                let path = format!("scratch/day-{day}.dwrf");
                failed += u64::from(scratch.append(&path, file.bytes().clone()).is_err());
            }
            scratch_counts.encoded_bytes += file.len() as u64;
            // The mirror must write the very bytes the table stored.
            failed += u64::from(checksum64(file.bytes()) != kept.file_checksum);
        }
    }
    // Retention has not reached the last days yet: drop them too, so a
    // cycle pays one drop per day landed.
    {
        let _root = rec.enter("replay", u64::from(shape.payload_days));
        for partition in p.table.partitions() {
            let _span = rec.enter("warehouse.drop_partition", u64::from(partition.day));
            failed += u64::from(p.table.drop_partition(partition).is_err());
        }
    }
    scratch_counts.stored_bytes = scratch.stored_bytes();
    (p, failed, scratch_counts)
}

#[derive(Debug, Clone, Copy, Default)]
struct ScratchCounts {
    /// Wall seconds of the days' `replay` root spans, timed from outside
    /// so that a pass without spans has the same number.
    replay_wall_s: f64,
    encoded_bytes: u64,
    /// Across all replicas.
    stored_bytes: u64,
}

pub fn run(def: &WorkloadDef, shape: &IngestShape, args: &RunArgs) -> Outcome {
    let mut shape = *shape;
    if args.smoke {
        shape.rows_per_day = SMOKE_ROWS_PER_DAY;
    }
    let mut out = Outcome::default();

    let (mut prepared, setup_s) = set_up(args.setup_repeats(), || {
        let (prepared, attempted, failed) = prepare(&shape, args.seed);
        out.attempted += attempted;
        out.failed += failed;
        prepared
    });
    out.fact(
        "input_digest",
        format!("{:016x}", prepared.inputs.input_digest),
    );
    out.fact("rows_per_day", shape.rows_per_day);

    let (days, rates) = timed_run(&mut prepared, args.seconds);
    out.attempted += days.len() as u64;
    out.failed += days.iter().map(|d| d.failed).sum::<u64>();
    out.fact("epochs", days.len());
    out.fact("samples", rates.samples);
    out.fact("timed_wall_s", format!("{:.3}", rates.wall_s));
    out.fact("peak_rss_reset", host::reset_peak_rss());

    if args.trace {
        traced_phase(def, &shape, &mut prepared, &days, rates.cpu_s, &mut out);
        return out;
    }

    let counts = prepared.counts;
    let per_sample = |v: u64| v as f64 / counts.rows.max(1) as f64;
    let replication = prepared.pipeline.table.cluster().config().replication as u64;
    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert("samples_per_s", rates.samples_per_s);
    m.insert("cpu_s_per_msample", rates.cpu_s_per_msample);
    // Ingest has no first batch; its latency is a day's logs becoming a
    // readable partition.
    m.insert(
        "first_batch_ms",
        midmean(&days.iter().map(|d| d.landed_ms).collect::<Vec<_>>()),
    );
    // The only storage reads on the write path are the landing probes.
    m.insert(
        "storage_read_bytes_per_sample",
        per_sample(counts.probe_bytes),
    );
    m.insert(
        "storage_ios_per_ksample",
        1e3 * counts.probe_ios as f64 / counts.rows.max(1) as f64,
    );
    // What crosses to the storage nodes: every file, once per replica.
    m.insert(
        "wire_bytes_per_sample",
        per_sample(counts.encoded_bytes * replication),
    );
    m.insert("stored_bytes_per_sample", per_sample(counts.encoded_bytes));
    m.insert("peak_rss_mib", rates.peak_rss_mib);
    out
}

fn traced_phase(
    def: &WorkloadDef,
    shape: &IngestShape,
    prepared: &mut Prepared,
    days: &[DayStat],
    timed_cpu_s: f64,
    out: &mut Outcome,
) {
    let inputs = &prepared.inputs;
    let cycle_days = f64::from(shape.payload_days);

    let rec = Recorder::new(true);
    let (pipeline, failed, scratch) = replay_cycle(inputs, shape, &rec, true);
    out.attempted += u64::from(shape.payload_days);
    out.failed += failed;

    // The same cycle twice more with nothing verified, spans on and off: by
    // difference what recording spans costs. Only the landing probes read
    // the simulated disks here.
    let spans_on = Recorder::new(true);
    let (probed, on_failed, on) = replay_cycle(inputs, shape, &spans_on, false);
    let disks = probed.table.cluster().total_stats();
    let (unspanned, off_failed, off) = replay_cycle(inputs, shape, &Recorder::new(false), false);
    let (on_wall_s, off_wall_s) = (on.replay_wall_s, off.replay_wall_s);
    out.failed += on_failed + off_failed;
    drop((probed, unspanned));

    let spans = rec.into_spans();
    let (Some(fall), Some(mirror)) = (
        Waterfall::of(&spans, "replay"),
        Waterfall::of(&spans, "scratch"),
    ) else {
        out.problems
            .push("replay recorded no root span".to_string());
        return;
    };
    fall.report(out);
    out.fact("scratch_self_s", mirror.describe_spans());
    let encode_s = mirror.get("dwrf.encode");
    let append_s = mirror.get("tectonic.append");
    report_honesty(def, (encode_s + append_s) / fall.wall_s, out);

    // A few more days with a registry attached to ETL and table.
    let registry = Registry::new();
    prepared.pipeline.etl.attach_registry(&registry);
    prepared.pipeline.table.attach_registry(&registry);
    let mut observed = Vec::new();
    for _ in 0..shape.payload_days {
        let stat = prepared.land_next();
        out.attempted += 1;
        out.failed += stat.failed;
        observed.push(stat.wall_s);
    }
    let typical_day = median(&days.iter().map(|d| d.wall_s).collect::<Vec<_>>());

    let etl = pipeline.etl.stats();
    let m = &mut out.metrics;
    m.insert("scribe.publish_s", fall.get("scribe.publish"));
    m.insert("scribe.etl_s", fall.get("scribe.etl"));
    m.insert(
        "scribe.records_in",
        (etl.features_in + etl.events_in) as f64,
    );
    m.insert(
        "scribe.samples_out",
        (etl.joined + etl.expired_negative) as f64,
    );
    m.insert("scribe.orphan_events", etl.orphan_events as f64);
    m.insert(
        "warehouse.write_self_s",
        (fall.get("warehouse.write_partition") - encode_s - append_s).max(0.0),
    );
    m.insert(
        "warehouse.drop_partition_s",
        fall.get("warehouse.drop_partition"),
    );
    m.insert("dwrf.encode_s", encode_s);
    m.insert("dwrf.encoded_bytes", scratch.encoded_bytes as f64);
    m.insert("tectonic.append_s", append_s);
    m.insert("tectonic.append_bytes", scratch.stored_bytes as f64);
    // The landing probes' reads, as the simulated disks counted them.
    m.insert("tectonic.reads", disks.ios as f64);
    m.insert("tectonic.read_bytes", disks.bytes as f64);
    m.insert(
        "tectonic.mean_io_bytes",
        disks.bytes as f64 / disks.ios.max(1) as f64,
    );
    m.insert("tectonic.seeks", disks.seeks as f64);
    m.insert("tectonic.sim_disk_busy_s", disks.busy_ns as f64 / 1e9);
    m.insert(
        "obs.registry_overhead_pct",
        100.0 * (median(&observed) - typical_day) / typical_day,
    );
    m.insert(
        "obs.replay_span_overhead_pct",
        100.0 * (on_wall_s - off_wall_s) / off_wall_s,
    );
    out.fact(
        "timed_cpu_s_per_cycle",
        format!("{:.4}", timed_cpu_s / days.len() as f64 * cycle_days),
    );
    out.trace_json = Some(span::chrome_trace_json(&spans, def.name));
}
