//! The names the benchmark emits — workloads, end-to-end metrics, per-layer
//! metrics — and the reader of `BENCHMARK.json`, which must list the same.

use crate::json::{self, Value};
use synth::RmClass;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the pipeline sees, reported by every workload.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("samples_per_s", "1/s"),
    lower("cpu_s_per_msample", "s"),
    lower("first_batch_ms", "ms"),
    lower("peak_rss_mib", "MiB"),
    lower("storage_read_bytes_per_sample", "B"),
    lower("storage_ios_per_ksample", "1/ksample"),
    lower("wire_bytes_per_sample", "B"),
    lower("stored_bytes_per_sample", "B"),
];

/// Single-layer numbers from the traced run: times are self time in seconds
/// per replayed epoch, counts are per replayed epoch. A workload that does
/// not use a layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    lower("tectonic.read_s", "s"),
    lower("tectonic.reads", "count"),
    lower("tectonic.read_bytes", "B"),
    higher("tectonic.mean_io_bytes", "B"),
    lower("tectonic.seeks", "count"),
    lower("tectonic.sim_disk_busy_s", "s"),
    lower("tectonic.append_s", "s"),
    lower("tectonic.append_bytes", "B"),
    lower("dwrf.decode_self_s", "s"),
    lower("dwrf.wanted_bytes", "B"),
    lower("dwrf.overread_ratio", "ratio"),
    lower("dwrf.uncompressed_bytes", "B"),
    lower("dwrf.copied_bytes", "B"),
    lower("dwrf.rows_decoded", "count"),
    lower("dwrf.encode_s", "s"),
    lower("dwrf.encoded_bytes", "B"),
    lower("transforms.row_s", "s"),
    lower("transforms.columnar_s", "s"),
    lower("transforms.ops_row", "count"),
    higher("transforms.ops_columnar", "count"),
    lower("transforms.model_cycles", "cycles"),
    lower("dpp.materialize_s", "s"),
    lower("dpp.tensor_bytes", "B"),
    lower("dpp.batches", "count"),
    lower("dpp.splits", "count"),
    lower("dpp.launch_ms", "ms"),
    lower("dpp.shutdown_ms", "ms"),
    lower("dpp.orchestration_cpu_s", "s"),
    lower("wire.encode_s", "s"),
    lower("wire.compress_s", "s"),
    lower("wire.cipher_s", "s"),
    lower("wire.checksum_s", "s"),
    lower("wire.decompress_s", "s"),
    lower("wire.decode_s", "s"),
    lower("wire.transfer_s", "s"),
    lower("wire.frames", "count"),
    lower("wire.payload_bytes", "B"),
    lower("wire.tx_bytes", "B"),
    higher("wire.compression_ratio", "ratio"),
    lower("wire.reconnects", "count"),
    lower("scribe.publish_s", "s"),
    lower("scribe.etl_s", "s"),
    lower("scribe.records_in", "count"),
    higher("scribe.samples_out", "count"),
    lower("scribe.orphan_events", "count"),
    lower("warehouse.write_self_s", "s"),
    lower("warehouse.drop_partition_s", "s"),
    lower("warehouse.plan_splits_s", "s"),
    lower("warehouse.splits", "count"),
    lower("trainer.fetch_wait_p50_ms", "ms"),
    lower("trainer.fetch_wait_p99_ms", "ms"),
    higher("trainer.fetch_count", "count"),
    lower("obs.registry_overhead_pct", "%"),
    lower("obs.replay_span_overhead_pct", "%"),
];

/// How a training workload's dataset is stored and what its job asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainShape {
    pub class: RmClass,
    pub days: u32,
    pub rows_per_day: usize,
    /// Stored compressed and encrypted (`true`) or raw (`false`).
    pub encoded: bool,
    pub plan: PlanShape,
    /// Framed TCP with cipher and compression (`true`) or in-process.
    pub secure_tcp: bool,
    pub read_ahead: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanShape {
    /// Extraction only; tensors are materialized uncapped.
    Empty,
    /// `TransformPlan::preset`; `None` takes the profile's derived fraction.
    Preset { derived_fraction: Option<f64> },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestShape {
    /// Distinct pre-generated day payloads, replayed in a cycle.
    pub payload_days: u32,
    pub rows_per_day: usize,
    /// Days a partition is retained before it is dropped.
    pub retention_days: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Train(TrainShape),
    Ingest(IngestShape),
}

/// Which layers must carry a workload, and how much of it: the share of
/// replay self time below which the workload no longer measures what its
/// name says.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Honesty {
    pub layers: &'static [&'static str],
    pub min_share: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub honesty: Option<Honesty>,
}

/// `derived_fraction` of `transform_bound`, raised from the RM1 profile's
/// 0.2 until `transforms.*` held 60 % of replay self time with margin on
/// every seed tried (see the README for the measured shares).
pub const TRANSFORM_BOUND_DERIVED_FRACTION: f64 = 3.0;

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "train_rm1_secure",
        why: "The canonical job: RM1 from encoded DWRF through the preset plan to a trainer over \
              ciphered, compressed TCP, so every layer does real work and this is the number users see.",
        kind: Kind::Train(TrainShape {
            class: RmClass::Rm1,
            days: 2,
            rows_per_day: 16_384,
            encoded: true,
            plan: PlanShape::Preset {
                derived_fraction: None,
            },
            secure_tcp: true,
            read_ahead: 0,
        }),
        honesty: None,
    },
    WorkloadDef {
        name: "extract_bound",
        why: "RM3 with an empty plan, in-process: tectonic and dwrf do nearly all the work, and it \
              is the only workload on the pipelined worker loop (read_ahead 2).",
        kind: Kind::Train(TrainShape {
            class: RmClass::Rm3,
            days: 2,
            rows_per_day: 32_768,
            encoded: true,
            plan: PlanShape::Empty,
            secure_tcp: false,
            read_ahead: 2,
        }),
        honesty: Some(Honesty {
            layers: &["tectonic", "dwrf"],
            min_share: 0.70,
        }),
    },
    WorkloadDef {
        name: "transform_bound",
        why: "RM1 stored raw with a derivation-heavy preset plan, in-process: transforms dominate, \
              wire does nothing and extract is cheap, so kernel work shows here and nowhere else.",
        kind: Kind::Train(TrainShape {
            class: RmClass::Rm1,
            days: 2,
            rows_per_day: 16_384,
            encoded: false,
            plan: PlanShape::Preset {
                derived_fraction: Some(TRANSFORM_BOUND_DERIVED_FRACTION),
            },
            secure_tcp: false,
            read_ahead: 0,
        }),
        honesty: Some(Honesty {
            layers: &["transforms"],
            min_share: 0.60,
        }),
    },
    WorkloadDef {
        name: "wire_bound",
        why: "RM1 stored raw with an empty plan (the largest tensors) over ciphered, compressed \
              TCP: cipher, inflate and envelope codec dominate and must not move the in-process workloads.",
        kind: Kind::Train(TrainShape {
            class: RmClass::Rm1,
            days: 2,
            rows_per_day: 16_384,
            encoded: false,
            plan: PlanShape::Empty,
            secure_tcp: true,
            read_ahead: 0,
        }),
        honesty: Some(Honesty {
            layers: &["wire"],
            min_share: 0.60,
        }),
    },
    WorkloadDef {
        name: "ingest",
        why: "Scribe publish, batch ETL, DWRF encode, R-way append and retention drop: dwrf and \
              tectonic run the other way round, so a read-path gain bought with heavier encoding shows as a loss.",
        kind: Kind::Ingest(IngestShape {
            payload_days: 4,
            rows_per_day: 8_192,
            retention_days: 2,
        }),
        honesty: Some(Honesty {
            layers: &["dwrf.encode", "tectonic.append"],
            min_share: 0.60,
        }),
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json` as committed at the root of the repository, compiled in
/// so `list` and the binary's own catalog cannot drift apart unseen.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric row of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMetric {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Regression bound; end-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkFile {
    pub run_seconds: u64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<FileMetric>,
    pub per_layer: Vec<FileMetric>,
}

impl BenchmarkFile {
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))
        };
        let text_of = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: missing string {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<FileMetric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(FileMetric {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: text_of(m, "better")?,
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")? as u64,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "unit of {}",
                m.name
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_emits() {
        let file = BenchmarkFile::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert!((1..=60).contains(&file.run_seconds));

        let file_workloads: Vec<&str> = file.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let own_workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(file_workloads, own_workloads);
        assert!(file
            .workloads
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        for (listed, own) in [(&file.end_to_end, END_TO_END), (&file.per_layer, PER_LAYER)] {
            let listed: Vec<(&str, &str, &str)> = listed
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
                .collect();
            let own: Vec<(&str, &str, &str)> = own
                .iter()
                .map(|m| (m.name, m.unit, m.better.as_str()))
                .collect();
            assert_eq!(listed, own);
        }
        assert!(file
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(file.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(file.end_to_end.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn honesty_layers_name_real_span_prefixes() {
        for w in WORKLOADS {
            if let Some(h) = w.honesty {
                assert!(h.min_share > 0.5 && h.min_share < 1.0);
                for layer in h.layers {
                    assert!(
                        PER_LAYER.iter().any(|m| m.name.starts_with(layer)),
                        "{layer}"
                    );
                }
            }
        }
    }
}
