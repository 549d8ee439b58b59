//! The `PipelineReport`: a pretty-printed characterization of one DSI
//! run, mirroring the tables the paper uses to describe production
//! workloads — per-stage time/cycle shares (datacenter tax), storage
//! read amplification and per-node IOPS spread, cache effectiveness,
//! and the trainer's data-stall fraction.

use std::fmt;

use crate::names;
use crate::registry::{MetricKey, Registry};
use crate::span::{STAGE_CYCLES_TOTAL, STAGE_SECONDS};

/// One row of the per-stage breakdown.
#[derive(Debug, Clone, Default)]
pub struct StageRow {
    /// Hierarchical stage path (`extract`, `load/tls`, ...).
    pub stage: String,
    /// Spans recorded for this stage.
    pub spans: u64,
    /// Total wall seconds attributed to the stage.
    pub seconds: f64,
    /// Simulated cycles attributed to the stage.
    pub cycles: u64,
}

/// Per-storage-node totals.
#[derive(Debug, Clone, Default)]
pub struct NodeRow {
    /// Node label.
    pub node: String,
    /// I/O operations served.
    pub ios: u64,
    /// Bytes served.
    pub bytes: u64,
}

/// Per-job (tenant) fleet-control-plane totals, keyed by the `job` label
/// the reconciler stamps on every `dsi_fleet_*` series.
#[derive(Debug, Clone, Default)]
pub struct FleetRow {
    /// Job (session) label, e.g. `sess3`.
    pub job: String,
    /// Tenant label, e.g. `t7`.
    pub tenant: String,
    /// Workers currently allocated to the job.
    pub allocated: u64,
    /// Workers the fair-share allocator wants the job to have.
    pub desired: u64,
    /// Workers short of the job's full demand under contention.
    pub deficit: u64,
    /// Workers preempted away from this job so far.
    pub preemptions: u64,
}

/// Collected characterization numbers for one run.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Per-stage rows, sorted by descending seconds.
    pub stages: Vec<StageRow>,
    /// Per-node storage rows, sorted by node label.
    pub nodes: Vec<NodeRow>,
    /// ETL pairs joined.
    pub etl_joined: u64,
    /// ETL orphan events.
    pub etl_orphans: u64,
    /// ETL expired-negative samples.
    pub etl_expired: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Cache hit rate in `[0,1]`.
    pub cache_hit_rate: f64,
    /// Bytes physically read from storage.
    pub read_bytes: u64,
    /// Bytes the readers actually wanted.
    pub wanted_bytes: u64,
    /// Per-page checksum failures detected by storage reads.
    pub tectonic_checksum_failures: u64,
    /// Bad replicas repaired in place after a verified read.
    pub tectonic_read_repairs: u64,
    /// Reads served by a non-first-choice replica.
    pub tectonic_failovers: u64,
    /// Chunks re-replicated by the rebuild worker.
    pub tectonic_rebuilt_chunks: u64,
    /// Disk IOs charged to rebuild traffic.
    pub tectonic_rebuild_ios: u64,
    /// Storage nodes currently declared dead by the heartbeat detector.
    pub tectonic_dead_nodes: u64,
    /// Chunks currently below their target live replica count.
    pub tectonic_under_replicated: u64,
    /// Samples produced by workers.
    pub worker_samples: u64,
    /// Batches produced by workers.
    pub worker_batches: u64,
    /// Batches consumed by the trainer.
    pub trainer_batches: u64,
    /// Trainer data-stall fraction in `[0,1]`.
    pub stall_fraction: f64,
    /// Trainer wall seconds observed.
    pub trainer_elapsed: f64,
    /// DedupSets formed (storage writes + worker transforms).
    pub dedup_sets: u64,
    /// Logical rows covered by DedupSets.
    pub dedup_rows: u64,
    /// Storage bytes duplicate rows did not re-store.
    pub dedup_bytes_saved: u64,
    /// Transform op applications replaced by canonical fan-out.
    pub dedup_reuse_hits: u64,
    /// Observed rows per canonical payload (1.0 = no duplication).
    pub dedup_ratio: f64,
    /// Data frames shipped over the wire transport (0 = in-process run).
    pub wire_frames: u64,
    /// Serialized envelope bytes before compression/encryption.
    pub wire_payload_bytes: u64,
    /// Bytes actually written to the socket (headers + wire payload).
    pub wire_tx_bytes: u64,
    /// Nanoseconds spent serializing envelopes.
    pub wire_serialize_nanos: u64,
    /// Nanoseconds spent in the stream cipher (encrypt + decrypt).
    pub wire_encrypt_nanos: u64,
    /// Nanoseconds spent verifying/decompressing/deserializing frames.
    pub wire_deserialize_nanos: u64,
    /// Client reconnects to worker wire servers.
    pub wire_reconnects: u64,
    /// Per-tenant fleet rows (empty when no reconciler ran).
    pub fleet: Vec<FleetRow>,
    /// Reconcile ticks executed by the fleet control plane.
    pub fleet_reconciles: u64,
    /// Total wall seconds spent inside reconcile ticks.
    pub fleet_reconcile_seconds: f64,
}

impl PipelineReport {
    /// Gathers a report from the registry's current state. Every reading
    /// goes through [`Registry::select`] with the empty filter, so series
    /// that differ only in `job` fold together: counters, count gauges and
    /// histograms sum; ratio gauges keep the last series in key order.
    pub fn collect(registry: &Registry) -> Self {
        let all = |name: &str| registry.select(name, &[]);
        let sum = |name: &str| -> u64 { all(name).iter().map(|(_, v)| v.count()).sum() };
        let last = |name: &str| all(name).last().map_or(0.0, |(_, v)| v.real());
        let label = |key: &MetricKey, want: &str| {
            key.labels
                .iter()
                .find(|(k, _)| k == want)
                .map(|(_, v)| v.clone())
        };
        let mut report = Self {
            etl_joined: sum(names::ETL_JOINED_TOTAL),
            etl_orphans: sum(names::ETL_ORPHAN_EVENTS_TOTAL),
            etl_expired: sum(names::ETL_EXPIRED_NEGATIVE_TOTAL),
            cache_hits: sum(names::CACHE_HITS_TOTAL),
            cache_misses: sum(names::CACHE_MISSES_TOTAL),
            cache_hit_rate: last(names::CACHE_HIT_RATE),
            // The reader's own series: live, and they cover warehouse
            // queries too. A session's shutdown bridge repeats the same
            // bytes as `dsi_worker_storage_*`, so adding those counts twice.
            read_bytes: sum(names::DWRF_READ_BYTES_TOTAL),
            wanted_bytes: sum(names::DWRF_WANTED_BYTES_TOTAL),
            tectonic_checksum_failures: sum(names::TECTONIC_CHECKSUM_FAILURES_TOTAL),
            tectonic_read_repairs: sum(names::TECTONIC_READ_REPAIRS_TOTAL),
            tectonic_failovers: sum(names::TECTONIC_FAILOVERS_TOTAL),
            tectonic_rebuilt_chunks: sum(names::TECTONIC_REBUILT_CHUNKS_TOTAL),
            tectonic_rebuild_ios: sum(names::TECTONIC_REBUILD_IOS_TOTAL),
            tectonic_dead_nodes: sum(names::TECTONIC_DEAD_NODES),
            tectonic_under_replicated: sum(names::TECTONIC_UNDER_REPLICATED_CHUNKS),
            worker_samples: sum(names::WORKER_SAMPLES_TOTAL),
            worker_batches: sum(names::WORKER_BATCHES_TOTAL),
            trainer_batches: sum(names::TRAINER_BATCHES_TOTAL),
            stall_fraction: last(names::TRAINER_STALL_FRACTION),
            trainer_elapsed: last(names::TRAINER_ELAPSED_SECONDS),
            dedup_sets: sum(names::DEDUP_SETS_TOTAL),
            dedup_rows: sum(names::DEDUP_ROWS_TOTAL),
            dedup_bytes_saved: sum(names::DEDUP_BYTES_SAVED_TOTAL),
            dedup_reuse_hits: sum(names::DEDUP_TRANSFORM_REUSE_HITS_TOTAL),
            dedup_ratio: last(names::DEDUP_RATIO),
            wire_frames: sum(names::WIRE_FRAMES_TOTAL),
            wire_payload_bytes: sum(names::WIRE_PAYLOAD_BYTES_TOTAL),
            wire_tx_bytes: sum(names::WIRE_TX_BYTES_TOTAL),
            wire_serialize_nanos: sum(names::WIRE_SERIALIZE_NANOS_TOTAL),
            wire_encrypt_nanos: sum(names::WIRE_ENCRYPT_NANOS_TOTAL),
            wire_deserialize_nanos: sum(names::WIRE_DESERIALIZE_NANOS_TOTAL),
            wire_reconnects: sum(names::WIRE_RECONNECTS_TOTAL),
            fleet_reconciles: sum(names::FLEET_RECONCILE_SECONDS),
            fleet_reconcile_seconds: last(names::FLEET_RECONCILE_SECONDS),
            ..Self::default()
        };
        for name in [STAGE_SECONDS, STAGE_CYCLES_TOTAL] {
            for (key, value) in all(name) {
                let Some(stage) = label(&key, "stage") else {
                    continue;
                };
                let fresh = StageRow {
                    stage: stage.clone(),
                    ..StageRow::default()
                };
                let row = row_mut(&mut report.stages, |r| r.stage == stage, fresh);
                if name == STAGE_SECONDS {
                    row.spans += value.count();
                    row.seconds += value.real();
                } else {
                    row.cycles += value.count();
                }
            }
        }
        for name in [
            names::STORAGE_NODE_IOS_TOTAL,
            names::STORAGE_NODE_BYTES_TOTAL,
        ] {
            for (key, value) in all(name) {
                let Some(node) = label(&key, "node") else {
                    continue;
                };
                let fresh = NodeRow {
                    node: node.clone(),
                    ..NodeRow::default()
                };
                let row = row_mut(&mut report.nodes, |r| r.node == node, fresh);
                if name == names::STORAGE_NODE_IOS_TOTAL {
                    row.ios += value.count();
                } else {
                    row.bytes += value.count();
                }
            }
        }
        for name in [
            names::FLEET_ALLOCATED_WORKERS,
            names::FLEET_DESIRED_WORKERS,
            names::FLEET_FAIR_SHARE_DEFICIT,
            names::FLEET_PREEMPTIONS_TOTAL,
        ] {
            for (key, value) in all(name) {
                let Some(job) = label(&key, "job") else {
                    continue;
                };
                // The four series carry the tenant redundantly.
                let fresh = FleetRow {
                    job: job.clone(),
                    tenant: label(&key, "tenant").unwrap_or_default(),
                    ..FleetRow::default()
                };
                let row = row_mut(&mut report.fleet, |r| r.job == job, fresh);
                match name {
                    names::FLEET_ALLOCATED_WORKERS => row.allocated = value.count(),
                    names::FLEET_DESIRED_WORKERS => row.desired = value.count(),
                    names::FLEET_FAIR_SHARE_DEFICIT => row.deficit = value.count(),
                    _ => row.preemptions = value.count(),
                }
            }
        }
        report.stages.sort_by(|a, b| {
            b.seconds
                .partial_cmp(&a.seconds)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| b.cycles.cmp(&a.cycles))
        });
        report.nodes.sort_by(
            |a, b| match (a.node.parse::<u64>(), b.node.parse::<u64>()) {
                (Ok(x), Ok(y)) => x.cmp(&y),
                _ => a.node.cmp(&b.node),
            },
        );
        report.fleet.sort_by(|a, b| a.job.cmp(&b.job));
        report
    }

    /// The rows percentages are taken over: a path with a `/` is an "of
    /// which" row (`transform/feature_generation`) already inside its
    /// parent, so summing it again would understate every share.
    fn top_level(&self) -> impl Iterator<Item = &StageRow> {
        self.stages.iter().filter(|r| !r.stage.contains('/'))
    }

    /// Total workers preempted across every tenant.
    pub fn fleet_preemptions(&self) -> u64 {
        self.fleet.iter().map(|r| r.preemptions).sum()
    }

    /// Read amplification: bytes read divided by bytes wanted (1.0 when
    /// nothing was wanted).
    pub fn overread_ratio(&self) -> f64 {
        if self.wanted_bytes == 0 {
            1.0
        } else {
            self.read_bytes as f64 / self.wanted_bytes as f64
        }
    }

    /// Share of top-level cycles spent in "datacenter tax" stages (any
    /// stage path containing `tls` or `deserialize`).
    pub fn tax_cycle_share(&self) -> f64 {
        let total: u64 = self.top_level().map(|r| r.cycles).sum();
        if total == 0 {
            return 0.0;
        }
        let tax: u64 = self
            .stages
            .iter()
            .filter(|r| {
                r.stage
                    .split('/')
                    .any(|s| s == crate::span::stage::TLS || s == crate::span::stage::DESERIALIZE)
            })
            .map(|r| r.cycles)
            .sum();
        tax as f64 / total as f64
    }

    /// Whether a wire transport carried the data plane in this run. When
    /// true, the measured `wire_*` tax supersedes the analytic
    /// [`PipelineReport::tax_cycle_share`] figure.
    pub fn wire_active(&self) -> bool {
        self.wire_frames > 0
    }

    /// Whether any durability machinery fired in this run: checksum
    /// failures detected, replicas repaired, reads failed over, chunks
    /// rebuilt, or residual dead/under-replicated state.
    pub fn durability_active(&self) -> bool {
        self.tectonic_checksum_failures
            + self.tectonic_read_repairs
            + self.tectonic_failovers
            + self.tectonic_rebuilt_chunks
            + self.tectonic_rebuild_ios
            + self.tectonic_dead_nodes
            + self.tectonic_under_replicated
            > 0
    }

    /// Measured datacenter-tax seconds actually paid on the wire:
    /// serialize + cipher + deserialize time.
    pub fn wire_tax_seconds(&self) -> f64 {
        (self.wire_serialize_nanos + self.wire_encrypt_nanos + self.wire_deserialize_nanos) as f64
            / 1e9
    }

    /// Wire compression ratio: serialized payload bytes divided by bytes
    /// on the wire (1.0 when nothing was sent).
    pub fn wire_compression_ratio(&self) -> f64 {
        if self.wire_tx_bytes == 0 {
            1.0
        } else {
            self.wire_payload_bytes as f64 / self.wire_tx_bytes as f64
        }
    }
}

/// Find-or-insert: the row `is` picks out of `rows`, or `fresh` appended.
fn row_mut<R>(rows: &mut Vec<R>, is: impl Fn(&R) -> bool, fresh: R) -> &mut R {
    let idx = rows.iter().position(is).unwrap_or_else(|| {
        rows.push(fresh);
        rows.len() - 1
    });
    &mut rows[idx]
}

fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== DSI pipeline characterization ==")?;

        let total_secs: f64 = self.top_level().map(|r| r.seconds).sum();
        let total_cycles: u64 = self.top_level().map(|r| r.cycles).sum();
        writeln!(f, "\n-- stage breakdown (wall time / simulated cycles) --")?;
        writeln!(
            f,
            "{:<32} {:>8} {:>12} {:>7} {:>14} {:>7}",
            "stage", "spans", "seconds", "time%", "cycles", "cyc%"
        )?;
        for row in &self.stages {
            let time_pct = if total_secs > 0.0 {
                100.0 * row.seconds / total_secs
            } else {
                0.0
            };
            let cyc_pct = if total_cycles > 0 {
                100.0 * row.cycles as f64 / total_cycles as f64
            } else {
                0.0
            };
            writeln!(
                f,
                "{:<32} {:>8} {:>12.6} {:>6.1}% {:>14} {:>6.1}%",
                row.stage, row.spans, row.seconds, time_pct, row.cycles, cyc_pct
            )?;
        }
        if self.wire_active() {
            // A real wire carried the data plane: report the measured tax
            // instead of the analytic cycle model.
            writeln!(
                f,
                "datacenter tax (measured on wire): {:.6}s = serialize {:.6}s + cipher {:.6}s + deserialize {:.6}s",
                self.wire_tax_seconds(),
                self.wire_serialize_nanos as f64 / 1e9,
                self.wire_encrypt_nanos as f64 / 1e9,
                self.wire_deserialize_nanos as f64 / 1e9,
            )?;
        } else if total_cycles > 0 {
            writeln!(
                f,
                "datacenter tax (tls+deserialize): {:.1}% of cycles",
                100.0 * self.tax_cycle_share()
            )?;
        }

        if self.etl_joined + self.etl_orphans + self.etl_expired > 0 {
            writeln!(f, "\n-- streaming ETL --")?;
            writeln!(
                f,
                "joined: {}  orphan events: {}  expired->negative: {}",
                self.etl_joined, self.etl_orphans, self.etl_expired
            )?;
        }

        writeln!(f, "\n-- storage --")?;
        writeln!(
            f,
            "bytes read: {}  bytes wanted: {}  over-read ratio: {:.3}x",
            human_bytes(self.read_bytes),
            human_bytes(self.wanted_bytes),
            self.overread_ratio()
        )?;
        if !self.nodes.is_empty() {
            let max_ios = self.nodes.iter().map(|n| n.ios).max().unwrap_or(0);
            let min_ios = self.nodes.iter().map(|n| n.ios).min().unwrap_or(0);
            writeln!(
                f,
                "storage nodes: {}  IOPS spread min/max: {}/{}",
                self.nodes.len(),
                min_ios,
                max_ios
            )?;
            for n in &self.nodes {
                writeln!(
                    f,
                    "  node {:<8} ios: {:>10}  bytes: {}",
                    n.node,
                    n.ios,
                    human_bytes(n.bytes)
                )?;
            }
        }
        writeln!(
            f,
            "cache: hits {}  misses {}  hit rate {:.1}%",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.cache_hit_rate
        )?;

        if self.durability_active() {
            writeln!(f, "\n-- storage durability --")?;
            writeln!(
                f,
                "checksum failures: {}  read repairs: {}  failovers: {}",
                self.tectonic_checksum_failures,
                self.tectonic_read_repairs,
                self.tectonic_failovers
            )?;
            writeln!(
                f,
                "rebuilt chunks: {}  rebuild IOs: {}  dead nodes: {}  under-replicated: {}",
                self.tectonic_rebuilt_chunks,
                self.tectonic_rebuild_ios,
                self.tectonic_dead_nodes,
                self.tectonic_under_replicated
            )?;
        }

        if self.dedup_sets + self.dedup_rows + self.dedup_reuse_hits > 0 {
            writeln!(f, "\n-- dedup (RecD) --")?;
            writeln!(
                f,
                "sets: {}  rows: {}  ratio: {:.2}x  bytes saved: {}  reuse hits: {}",
                self.dedup_sets,
                self.dedup_rows,
                self.dedup_ratio,
                human_bytes(self.dedup_bytes_saved),
                self.dedup_reuse_hits
            )?;
        }

        if self.wire_active() {
            writeln!(f, "\n-- wire transport (measured datacenter tax) --")?;
            writeln!(
                f,
                "frames: {}  payload: {}  on wire: {}  compression: {:.2}x  reconnects: {}",
                self.wire_frames,
                human_bytes(self.wire_payload_bytes),
                human_bytes(self.wire_tx_bytes),
                self.wire_compression_ratio(),
                self.wire_reconnects
            )?;
        }

        if !self.fleet.is_empty() {
            writeln!(f, "\n-- fleet control plane (multi-tenant) --")?;
            writeln!(
                f,
                "jobs: {}  reconciles: {}  reconcile time: {:.6}s  preemptions: {}",
                self.fleet.len(),
                self.fleet_reconciles,
                self.fleet_reconcile_seconds,
                self.fleet_preemptions()
            )?;
            for r in &self.fleet {
                writeln!(
                    f,
                    "  job {:<8} tenant {:<6} allocated {:>3} / desired {:>3}  deficit {:>3}  preempted {}",
                    r.job, r.tenant, r.allocated, r.desired, r.deficit, r.preemptions
                )?;
            }
        }

        writeln!(f, "\n-- preprocessing / training --")?;
        writeln!(
            f,
            "worker samples: {}  worker batches: {}  trainer batches: {}",
            self.worker_samples, self.worker_batches, self.trainer_batches
        )?;
        let batches_per_sec = if self.trainer_elapsed > 0.0 {
            self.trainer_batches as f64 / self.trainer_elapsed
        } else {
            0.0
        };
        writeln!(
            f,
            "data-stall fraction: {:.1}%  trainer throughput: {:.2} batches/s",
            100.0 * self.stall_fraction,
            batches_per_sec
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{observe_stage_seconds, stage};

    fn add_stage_cycles(r: &Registry, stage: &str, cycles: u64) {
        r.counter(STAGE_CYCLES_TOTAL, &[("stage", stage)])
            .add(cycles);
    }

    #[test]
    fn collect_groups_stage_time_and_cycles() {
        let r = Registry::new();
        // Rows are per stage, not per (job, stage).
        observe_stage_seconds(&r, "sess1", stage::EXTRACT, 1.5);
        observe_stage_seconds(&r, "sess2", stage::EXTRACT, 0.5);
        observe_stage_seconds(&r, "sess1", stage::TRANSFORM, 1.0);
        add_stage_cycles(&r, stage::EXTRACT, 400);
        add_stage_cycles(&r, stage::TLS, 100);
        let report = PipelineReport::collect(&r);
        assert_eq!(report.stages.len(), 3);
        assert_eq!(report.stages[0].stage, "extract");
        assert_eq!((report.stages[0].spans, report.stages[0].seconds), (2, 2.0));
        assert_eq!(report.stages[0].cycles, 400);
        assert!((report.tax_cycle_share() - 0.2).abs() < 1e-12);
        // An "of which" row is inside its parent: it gets its own line but
        // leaves every top-level share where it was.
        add_stage_cycles(&r, "tls/handshake", 60);
        let report = PipelineReport::collect(&r);
        assert_eq!(report.stages.len(), 4);
        assert!((report.tax_cycle_share() - 0.32).abs() < 1e-12);
        assert!(report.to_string().contains("400   80.0%"));
    }

    #[test]
    fn node_rows_merge_ios_and_bytes_and_sort_numerically() {
        let r = Registry::new();
        r.counter(names::STORAGE_NODE_BYTES_TOTAL, &[("node", "0")])
            .add(100);
        r.counter(names::STORAGE_NODE_IOS_TOTAL, &[("node", "0")])
            .add(3);
        r.counter(names::STORAGE_NODE_IOS_TOTAL, &[("node", "10")])
            .add(1);
        r.counter(names::STORAGE_NODE_IOS_TOTAL, &[("node", "2")])
            .add(2);
        let report = PipelineReport::collect(&r);
        assert_eq!(report.nodes.len(), 3);
        assert_eq!(report.nodes[0].node, "0");
        assert_eq!(report.nodes[0].ios, 3);
        assert_eq!(report.nodes[0].bytes, 100);
        assert_eq!(report.nodes[1].node, "2");
        assert_eq!(report.nodes[2].node, "10");
    }

    #[test]
    fn durability_section_collects_and_displays() {
        let r = Registry::new();
        r.counter(names::TECTONIC_CHECKSUM_FAILURES_TOTAL, &[])
            .add(2);
        r.counter(names::TECTONIC_READ_REPAIRS_TOTAL, &[]).add(2);
        r.counter(names::TECTONIC_FAILOVERS_TOTAL, &[]).add(5);
        r.counter(names::TECTONIC_REBUILT_CHUNKS_TOTAL, &[]).add(7);
        r.counter(names::TECTONIC_REBUILD_IOS_TOTAL, &[]).add(28);
        r.gauge(names::TECTONIC_DEAD_NODES, &[]).set(1.0);
        r.gauge(names::TECTONIC_UNDER_REPLICATED_CHUNKS, &[])
            .set(3.0);
        let report = PipelineReport::collect(&r);
        assert_eq!(report.tectonic_checksum_failures, 2);
        assert_eq!(report.tectonic_read_repairs, 2);
        assert_eq!(report.tectonic_failovers, 5);
        assert_eq!(report.tectonic_rebuilt_chunks, 7);
        assert_eq!(report.tectonic_rebuild_ios, 28);
        assert_eq!(report.tectonic_dead_nodes, 1);
        assert_eq!(report.tectonic_under_replicated, 3);
        assert!(report.durability_active());
        let text = report.to_string();
        assert!(text.contains("-- storage durability --"));
        assert!(text.contains("read repairs: 2"));
        assert!(text.contains("dead nodes: 1  under-replicated: 3"));

        // Healthy runs print no durability section.
        let healthy = PipelineReport::collect(&Registry::new());
        assert!(!healthy.durability_active());
        assert!(!healthy.to_string().contains("storage durability"));
    }

    #[test]
    fn dedup_section_collects_and_displays() {
        let r = Registry::new();
        r.counter(names::DEDUP_SETS_TOTAL, &[]).add(4);
        r.counter(names::DEDUP_ROWS_TOTAL, &[]).add(16);
        r.counter(names::DEDUP_BYTES_SAVED_TOTAL, &[]).add(2048);
        r.counter(names::DEDUP_TRANSFORM_REUSE_HITS_TOTAL, &[])
            .add(12);
        r.gauge(names::DEDUP_RATIO, &[]).set(4.0);
        let report = PipelineReport::collect(&r);
        assert_eq!(report.dedup_sets, 4);
        assert_eq!(report.dedup_rows, 16);
        assert_eq!(report.dedup_bytes_saved, 2048);
        assert_eq!(report.dedup_reuse_hits, 12);
        assert!((report.dedup_ratio - 4.0).abs() < 1e-12);
        let text = report.to_string();
        assert!(text.contains("-- dedup (RecD) --"));
        assert!(text.contains("ratio: 4.00x"));

        // Dedup-off runs print no dedup section.
        let off = PipelineReport::collect(&Registry::new()).to_string();
        assert!(!off.contains("dedup (RecD)"));
    }

    #[test]
    fn overread_ratio_handles_zero_wanted() {
        let report = PipelineReport::default();
        assert_eq!(report.overread_ratio(), 1.0);
    }

    #[test]
    fn wire_section_supersedes_analytic_tax() {
        let r = Registry::new();
        add_stage_cycles(&r, stage::EXTRACT, 400);
        add_stage_cycles(&r, stage::TLS, 100);
        r.counter(names::WIRE_FRAMES_TOTAL, &[]).add(12);
        r.counter(names::WIRE_PAYLOAD_BYTES_TOTAL, &[]).add(4096);
        r.counter(names::WIRE_TX_BYTES_TOTAL, &[]).add(2048);
        r.counter(names::WIRE_SERIALIZE_NANOS_TOTAL, &[]).add(1_000);
        r.counter(names::WIRE_ENCRYPT_NANOS_TOTAL, &[]).add(2_000);
        r.counter(names::WIRE_DESERIALIZE_NANOS_TOTAL, &[])
            .add(3_000);
        r.counter(names::WIRE_RECONNECTS_TOTAL, &[]).add(1);
        let report = PipelineReport::collect(&r);
        assert!(report.wire_active());
        assert_eq!(report.wire_frames, 12);
        assert!((report.wire_tax_seconds() - 6e-6).abs() < 1e-12);
        assert!((report.wire_compression_ratio() - 2.0).abs() < 1e-12);
        let text = report.to_string();
        assert!(text.contains("wire transport (measured datacenter tax)"));
        assert!(text.contains("datacenter tax (measured on wire)"));
        // The analytic cycle-share line is replaced, not duplicated.
        assert!(!text.contains("% of cycles"));

        // In-process runs keep the analytic line and print no wire section.
        let r2 = Registry::new();
        add_stage_cycles(&r2, stage::TLS, 100);
        let off = PipelineReport::collect(&r2).to_string();
        assert!(off.contains("% of cycles"));
        assert!(!off.contains("wire transport"));
    }

    #[test]
    fn fleet_section_collects_per_tenant_rows() {
        let r = Registry::new();
        for (job, tenant, alloc, desired, deficit, preempt) in [
            ("sess1", "t1", 3.0, 3.0, 0.0, 0u64),
            ("sess2", "t2", 1.0, 1.0, 5.0, 2u64),
        ] {
            let labels = [("job", job), ("tenant", tenant)];
            r.gauge(names::FLEET_ALLOCATED_WORKERS, &labels).set(alloc);
            r.gauge(names::FLEET_DESIRED_WORKERS, &labels).set(desired);
            r.gauge(names::FLEET_FAIR_SHARE_DEFICIT, &labels)
                .set(deficit);
            r.counter(names::FLEET_PREEMPTIONS_TOTAL, &labels)
                .advance_to(preempt);
        }
        r.histogram(names::FLEET_RECONCILE_SECONDS, &[]).record(0.5);
        r.histogram(names::FLEET_RECONCILE_SECONDS, &[])
            .record(0.25);
        let report = PipelineReport::collect(&r);
        assert_eq!(report.fleet.len(), 2);
        assert_eq!(report.fleet[0].job, "sess1");
        assert_eq!(report.fleet[0].tenant, "t1");
        assert_eq!(report.fleet[0].allocated, 3);
        assert_eq!(report.fleet[1].deficit, 5);
        assert_eq!(report.fleet[1].preemptions, 2);
        assert_eq!(report.fleet_preemptions(), 2);
        assert_eq!(report.fleet_reconciles, 2);
        assert!((report.fleet_reconcile_seconds - 0.75).abs() < 1e-12);
        let text = report.to_string();
        assert!(text.contains("fleet control plane (multi-tenant)"));
        assert!(text.contains("tenant t2"));

        // Single-session runs with no reconciler print no fleet section.
        let off = PipelineReport::collect(&Registry::new()).to_string();
        assert!(!off.contains("fleet control plane"));
    }

    #[test]
    fn labeled_series_accumulate_across_jobs() {
        // Two sessions sharing one registry publish job-labeled worker and
        // wire counters; the report sums them instead of keeping whichever
        // series iterated last.
        let r = Registry::new();
        for (job, samples, frames) in [("sess1", 100u64, 7u64), ("sess2", 40, 5)] {
            let labels = [("job", job)];
            r.counter(names::WORKER_SAMPLES_TOTAL, &labels)
                .advance_to(samples);
            r.counter(names::WIRE_FRAMES_TOTAL, &labels)
                .advance_to(frames);
        }
        let report = PipelineReport::collect(&r);
        assert_eq!(report.worker_samples, 140);
        assert_eq!(report.wire_frames, 12);
    }

    #[test]
    fn display_includes_headline_numbers() {
        let r = Registry::new();
        observe_stage_seconds(&r, "", stage::EXTRACT, 1.5);
        r.counter(names::CACHE_HITS_TOTAL, &[]).add(9);
        r.counter(names::CACHE_MISSES_TOTAL, &[]).add(1);
        r.gauge(names::CACHE_HIT_RATE, &[]).set(0.9);
        r.counter(names::STORAGE_NODE_IOS_TOTAL, &[("node", "n0")])
            .add(17);
        r.gauge(names::TRAINER_STALL_FRACTION, &[]).set(0.25);
        let text = PipelineReport::collect(&r).to_string();
        assert!(text.contains("== DSI pipeline characterization =="));
        assert!(text.contains("extract"));
        assert!(text.contains("hit rate 90.0%"));
        assert!(text.contains("data-stall fraction: 25.0%"));
        assert!(text.contains("node n0"));
    }
}
