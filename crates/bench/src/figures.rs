//! The tables and figures of the paper's evaluation, behind the `figures`
//! binary.
//!
//! ```text
//! cargo run -p dsi-bench --release --bin figures -- all
//! cargo run -p dsi-bench --release --bin figures -- fig7 table9 codesign
//! ```
//!
//! Each experiment prints the paper's reported rows next to the values
//! measured on this repository's simulated deployment. Absolute magnitudes
//! differ (the substrate is a laptop-scale simulation, not Meta's fleet);
//! the *shapes* — who wins, rough factors, crossovers — are the
//! reproduction targets (see EXPERIMENTS.md).
//!
//! Nothing here reads a wall clock: every cell is a count, a modelled rate
//! (`hwsim` node saturation) or virtual time, so the same seed prints the
//! same table on any host. Wall-clock rates come from `dsibench` alone.

use crate::report::{f, pct, print_table};
use crate::{durability, LabConfig, RmLab};
use dpp::{run_scenario, ExtractCostModel, Scenario, WorkerReport};
use dsi_types::{ByteSize, Projection};
use dwrf::{CoalescePolicy, WriterOptions};
use hwsim::{DatacenterTax, NodeSpec, PowerModel, ResourceVector};
use synth::{
    GrowthModel, JobProjectionSampler, LifecycleModel, LifecycleSnapshot, RmClass, RmProfile,
};
use tectonic::{ProvisionPlan, StorageNodeClass, TieredPlacement};
use trainer::{loading_sweep, onhost_baseline, GpuDemand};
use transforms::{AccelModel, TransformOp, TransformPlan};

/// One experiment: its id on the command line and the function that prints
/// it (the argument is `--smoke`, which only the ablations look at).
pub type Figure = (&'static str, fn(bool));

/// Every experiment `figures` can print, in the order `all` prints them.
pub const FIGURES: &[Figure] = &[
    ("fig1", |_| fig1()),
    ("fig2", |_| fig2()),
    ("fig4", |_| fig4()),
    ("fig5", |_| fig5()),
    ("fig6", |_| fig6()),
    ("fig7", |_| fig7()),
    ("fig8", |_| fig8()),
    ("fig9", |_| fig9()),
    ("table2", |_| table2()),
    ("table3", |_| table3()),
    ("table4", |_| table4()),
    ("table5", |_| table5()),
    ("table6", |_| table6()),
    ("table7", |_| table7()),
    ("table8", |_| table8()),
    ("table9", |_| table9()),
    ("table10", |_| table10()),
    ("table11", |_| table11()),
    ("gap", |_| gap()),
    ("accel", |_| accel()),
    ("codesign", |_| codesign()),
    ("dedup", dedup_ablation),
    ("durability", durability_ablation),
    ("autotune", autotune_ablation),
    ("fleet", |_| fleet()),
    ("capacity", |_| capacity()),
];

/// Resolves command-line ids against [`FIGURES`], in table order; no id, or
/// `all`, selects every experiment. An unknown id is an error that lists
/// the valid ones.
pub fn select(ids: &[String]) -> Result<Vec<Figure>, String> {
    if let Some(unknown) = ids
        .iter()
        .find(|id| *id != "all" && !FIGURES.iter().any(|(name, _)| name == *id))
    {
        let valid: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown experiment {unknown:?}; valid ids: all {}",
            valid.join(" ")
        ));
    }
    let all = ids.is_empty() || ids.iter().any(|id| id == "all");
    Ok(FIGURES
        .iter()
        .filter(|(name, _)| all || ids.iter().any(|id| id == name))
        .copied()
        .collect())
}

/// Table VI mean IO size (pre-coalescing, per-stream reads).
const PAPER_MEAN_IO: u64 = 23_200;

/// Effective IO size once coalesced reads (1.25 MiB windows) are deployed —
/// the production configuration power provisioning assumes.
const COALESCED_MEAN_IO: u64 = 1 << 20;

fn lab_for(class: RmClass) -> RmLab {
    RmLab::build(class, LabConfig::default())
}

/// Measures a representative RC job's worker telemetry for one RM.
fn measure(class: RmClass) -> (RmLab, Projection, WorkerReport) {
    let lab = lab_for(class);
    let projection = lab.rc_projection();
    let spec = lab.session_spec(projection.clone(), 128);
    let report = lab.measure_worker(&spec);
    (lab, projection, report)
}

/// Scales a lab-measured per-sample quantity up to production feature
/// counts: the lab schema holds `config.features` features, production logs
/// `dataset_total_features()`.
fn feature_scale(lab: &RmLab, projection: &Projection) -> f64 {
    let model_features =
        (lab.profile.model_dense_features + lab.profile.model_sparse_features) as f64;
    model_features / projection.len().max(1) as f64
}

// ---------------------------------------------------------------- figures

fn fig1() {
    let power = PowerModel::production();
    let rows: Vec<Vec<String>> = RmProfile::all()
        .iter()
        .map(|p| {
            let prov = cluster::provision_model(p, 16.0, COALESCED_MEAN_IO, &power);
            let (s, pp, t) = prov.power.percentages();
            vec![
                p.class.to_string(),
                f(s, 1),
                f(pp, 1),
                f(t, 1),
                pct(prov.power.dsi_fraction()),
            ]
        })
        .collect();
    print_table(
        "Fig 1: power shares of storage / preprocessing / training per RM",
        &["model", "storage %", "preproc %", "training %", "DSI share"],
        &rows,
    );
    println!("(paper: DSI exceeds 50% of power for some models)");
}

fn fig2() {
    let traj = GrowthModel::default().trajectory(8);
    let rows: Vec<Vec<String>> = traj
        .iter()
        .map(|p| {
            vec![
                format!("Q{}", p.quarter),
                f(p.dataset_size, 2),
                f(p.ingestion_bandwidth, 2),
            ]
        })
        .collect();
    print_table(
        "Fig 2: normalized dataset size and ingestion bandwidth over 2 years",
        &["quarter", "dataset size", "ingestion bw"],
        &rows,
    );
    let last = traj.last().expect("non-empty trajectory");
    println!(
        "(paper: >2x size, >4x bandwidth; measured {:.2}x / {:.2}x)",
        last.dataset_size, last.ingestion_bandwidth
    );
}

fn fig4() {
    use cluster::{JobKind, JobStatus, ReleaseProcess};
    let jobs = ReleaseProcess::default().generate_iteration(4);
    let combos: Vec<_> = jobs.iter().filter(|j| j.kind == JobKind::Combo).collect();
    let mut durations: Vec<f64> = combos.iter().map(|j| j.duration_days).collect();
    durations.sort_by(f64::total_cmp);
    let count = |s: JobStatus| combos.iter().filter(|j| j.status == s).count();
    let rows = vec![
        vec!["combo jobs".into(), combos.len().to_string()],
        vec!["completed".into(), count(JobStatus::Completed).to_string()],
        vec!["failed".into(), count(JobStatus::Failed).to_string()],
        vec!["killed".into(), count(JobStatus::Killed).to_string()],
        vec![
            "p50 duration (days)".into(),
            f(durations[durations.len() / 2], 1),
        ],
        vec![
            "p90 duration (days)".into(),
            f(durations[durations.len() * 9 / 10], 1),
        ],
        vec![
            "max duration (days)".into(),
            f(*durations.last().expect("non-empty"), 1),
        ],
        vec![
            "submitted in first half of window".into(),
            combos
                .iter()
                .filter(|j| j.submit_day < 7.0)
                .count()
                .to_string(),
        ],
    ];
    print_table(
        "Fig 4: one RM1 combo window — duration skew and outcomes",
        &["metric", "value"],
        &rows,
    );
    println!("(paper: 82 combo jobs, many killed/failed, durations past 10 days, early-skewed submissions)");
}

fn fig5() {
    use cluster::DemandModel;
    let series = DemandModel::default().series(364, 42);
    // Weekly aggregation for a readable series.
    let rows: Vec<Vec<String>> = (0..52)
        .map(|w| {
            let days = &series[w * 7..(w + 1) * 7];
            let total: f64 = days.iter().map(|p| p.total).sum::<f64>() / 7.0;
            let combo: f64 = days.iter().map(|p| p.combo).sum::<f64>() / 7.0;
            let bar = "#".repeat((total * 40.0).round() as usize);
            vec![format!("w{w:02}"), f(total, 2), f(combo, 2), bar]
        })
        .collect();
    print_table(
        "Fig 5: one year of normalized fleet compute demand (weekly means)",
        &["week", "total", "combo", ""],
        &rows,
    );
    println!(
        "(peak/mean {:.2}; peaks are combo-driven)",
        DemandModel::peak_to_mean(&series)
    );
}

fn fig6() {
    use cluster::scheduler::fig6_models;
    use cluster::{GlobalScheduler, PlacementPolicy};
    let sched = GlobalScheduler::five_regions(100.0);
    let models = fig6_models(ByteSize::tib(10));
    let placed = sched.place(&models, PlacementPolicy::BalanceEverywhere, 6);
    let mut rows = Vec::new();
    for m in &models {
        let per = &placed.demand_by_model_region[&m.name];
        let mut row = vec![m.name.clone()];
        for r in sched.regions() {
            row.push(f(per.get(&r.id).copied().unwrap_or(0.0), 2));
        }
        row.push(f(m.peak_demand, 1));
        rows.push(row);
    }
    print_table(
        "Fig 6: compute demand of models A-J split across regions R1-R5 (normalized to J)",
        &["model", "R1", "R2", "R3", "R4", "R5", "total"],
        &rows,
    );
    let packed = sched.place(&models, PlacementPolicy::BinPack, 6);
    println!(
        "(balanced placement stores {} of datasets; bin-packing cuts it to {})",
        placed.stored_bytes, packed.stored_bytes
    );
}

fn fig7() {
    let mut rows = Vec::new();
    for profile in RmProfile::all() {
        let schema = profile.build_schema(600);
        let sampler = JobProjectionSampler::new(&schema, &profile, 11);
        let cdf = sampler.popularity_cdf(30, 17);
        let b50 = JobProjectionSampler::bytes_for_traffic(&cdf, 0.5);
        let b80 = JobProjectionSampler::bytes_for_traffic(&cdf, 0.8);
        let b95 = JobProjectionSampler::bytes_for_traffic(&cdf, 0.95);
        rows.push(vec![
            profile.class.to_string(),
            pct(b50),
            pct(b80),
            pct(b95),
            pct(profile.popular_bytes_for_80pct_traffic),
        ]);
    }
    print_table(
        "Fig 7: popular bytes needed to absorb X% of storage traffic (30 jobs / RM)",
        &[
            "model",
            "50% traffic",
            "80% traffic",
            "95% traffic",
            "paper @80%",
        ],
        &rows,
    );
}

fn fig8() {
    let node = NodeSpec::trainer();
    let tax = DatacenterTax::production();
    let rates: Vec<f64> = (1..=12).map(|i| i as f64 * 2e9).collect();
    let pts = loading_sweep(&node, &tax, &rates);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                f(p.rate / 1e9, 0),
                pct(p.utilization.cpu),
                pct(p.utilization.membw),
                pct(p.utilization.nic_rx),
                if p.saturated {
                    "SATURATED".into()
                } else {
                    String::new()
                },
            ]
        })
        .collect();
    print_table(
        "Fig 8: trainer front-end utilization vs data-loading rate (dummy trainer)",
        &["GB/s", "cpu", "membw", "nic rx", ""],
        &rows,
    );
    println!("(vertical lines of the paper: RM2 4.69, RM3 12.0, RM1 16.5 GB/s)");
}

fn fig9() {
    let node = NodeSpec::c_v1();
    let tax = DatacenterTax::production();
    let mut rows = Vec::new();
    for class in [RmClass::Rm1, RmClass::Rm2, RmClass::Rm3] {
        let (lab, projection, report) = measure(class);
        let scale = feature_scale(&lab, &projection);
        let demand = scaled_demand(&report, &tax, scale);
        let qps = node.max_rate(&demand);
        let util = node.utilization_at(&demand, qps);
        // CPU cycle split: transform / extract / misc (datacenter tax).
        let n = report.samples as f64;
        let xform = report.transform_cycles / n * scale;
        let extract = report.extract_cycles / n * scale;
        let misc = demand.cpu_cycles - xform - extract;
        let total_cpu = demand.cpu_cycles;
        rows.push(vec![
            lab.profile.class.to_string(),
            pct(util.cpu),
            pct(xform / total_cpu),
            pct(extract / total_cpu),
            pct(misc / total_cpu),
            pct(util.membw),
            pct(util.nic_rx),
            format!("{}", node.bottleneck(&demand)),
        ]);
    }
    print_table(
        "Fig 9: DPP Worker utilization at saturation on C-v1 (measured on synthetic RMs)",
        &[
            "model",
            "cpu",
            "..xform",
            "..extract",
            "..misc",
            "membw",
            "nic rx",
            "bottleneck",
        ],
        &rows,
    );
    println!("(paper: RM1 cpu+membw-bound with transform-heavy cycles; RM2 NIC-bound; RM3 memory-capacity-bound)");
}

// ----------------------------------------------------------------- tables

fn table2() {
    let snap = LifecycleModel::default().simulate(6, 6, 42);
    let reference = LifecycleSnapshot::table_ii_reference();
    let rows = vec![
        vec![
            "measured".into(),
            snap.beta.to_string(),
            snap.experimental.to_string(),
            snap.active.to_string(),
            snap.deprecated.to_string(),
            snap.total().to_string(),
        ],
        vec![
            "paper".into(),
            reference.beta.to_string(),
            reference.experimental.to_string(),
            reference.active.to_string(),
            reference.deprecated.to_string(),
            reference.total().to_string(),
        ],
    ];
    print_table(
        "Table II: fate of features proposed for RM1 in a 6-month window, 6 months later",
        &["", "beta", "experimental", "active", "deprecated", "total"],
        &rows,
    );
}

fn table3() {
    let rows: Vec<Vec<String>> = RmProfile::all()
        .iter()
        .map(|p| {
            vec![
                p.class.to_string(),
                f(p.all_partitions.as_pib(), 2),
                f(p.each_partition.as_pib(), 2),
                f(p.used_partitions.as_pib(), 2),
                p.partition_count().to_string(),
                p.used_partition_count().to_string(),
            ]
        })
        .collect();
    print_table(
        "Table III: compressed partition sizes (PB) and derived partition counts",
        &[
            "model",
            "all (PB)",
            "each (PB)",
            "used (PB)",
            "# parts",
            "# used",
        ],
        &rows,
    );
    // Measured analogue at lab scale.
    let lab = lab_for(RmClass::Rm1);
    let stats = warehouse::TableStats::collect(&lab.table);
    println!(
        "(lab-scale RM1 table: {} over {} partitions, mean {} / partition)",
        ByteSize(stats.total_bytes),
        stats.partition_bytes.len(),
        ByteSize(stats.mean_partition_bytes() as u64)
    );
}

fn table4() {
    let rows: Vec<Vec<String>> = RmProfile::all()
        .iter()
        .map(|p| {
            vec![
                p.class.to_string(),
                p.model_dense_features.to_string(),
                p.model_sparse_features.to_string(),
                p.model_derived_features.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table IV: features required by a release-candidate model version",
        &["model", "# dense", "# sparse", "# derived"],
        &rows,
    );
}

fn table5() {
    let mut rows = Vec::new();
    for class in [RmClass::Rm1, RmClass::Rm2, RmClass::Rm3] {
        let lab = lab_for(class);
        let projection = lab.rc_projection();
        let feats = warehouse::stats::projected_feature_fraction(&lab.table, &projection);
        let bytes = warehouse::stats::projected_byte_fraction(&lab.table, &projection);
        let p = &lab.profile;
        rows.push(vec![
            p.class.to_string(),
            p.dataset_float_features.to_string(),
            p.dataset_sparse_features.to_string(),
            f(p.sparse_coverage, 2),
            f(p.sparse_avg_len, 2),
            pct(feats),
            pct(bytes),
            format!(
                "{}/{}",
                pct(p.feats_used_fraction),
                pct(p.bytes_used_fraction)
            ),
        ]);
    }
    print_table(
        "Table V: dataset characteristics; % feats/bytes used measured from real file directories",
        &[
            "model",
            "# float",
            "# sparse",
            "cov",
            "avg len",
            "feats used",
            "bytes used",
            "paper (f/b)",
        ],
        &rows,
    );
}

fn table6() {
    // Execute a real RM1 scan against the simulated HDD cluster with IO
    // recording on, then report the distribution of on-disk IO sizes.
    let lab = lab_for(RmClass::Rm1);
    let projection = lab.rc_projection();
    lab.table.cluster().set_record_io_sizes(true);
    let scan = lab
        .table
        .scan(
            dsi_types::PartitionId::new(0)..dsi_types::PartitionId::new(lab.config.days),
            projection,
        )
        .with_policy(CoalescePolicy::None); // per-stream IOs, as in the paper's Table VI
    scan.read_all_with_stats().expect("lab scan succeeds");
    let mut sizes = lab.table.cluster().all_io_sizes();
    sizes.sort_unstable();
    let pctl = |p: f64| sizes[(p * (sizes.len() - 1) as f64).round() as usize];
    let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
    let var = sizes
        .iter()
        .map(|&s| (s as f64 - mean) * (s as f64 - mean))
        .sum::<f64>()
        / sizes.len() as f64;
    let rows = vec![
        vec![
            "measured (B)".into(),
            f(mean, 0),
            f(var.sqrt(), 0),
            pctl(0.05).to_string(),
            pctl(0.25).to_string(),
            pctl(0.50).to_string(),
            pctl(0.75).to_string(),
            pctl(0.95).to_string(),
        ],
        vec![
            "paper (B)".into(),
            "23.2K".into(),
            "117K".into(),
            "18".into(),
            "451".into(),
            "1.24K".into(),
            "3.92K".into(),
            "97.7K".into(),
        ],
    ];
    print_table(
        "Table VI: IO sizes for features read by an RM1 training job (per-stream reads)",
        &["", "mean", "std", "p5", "p25", "p50", "p75", "p95"],
        &rows,
    );
}

fn table7() {
    let (lab, projection, report) = measure(RmClass::Rm1);
    let scale = feature_scale(&lab, &projection);
    let n = report.samples as f64;
    let preproc = ResourceVector {
        cpu_cycles: (report.extract_cycles + report.transform_cycles) / n * scale,
        membw_bytes: report.membw_bytes / n * scale,
        ..Default::default()
    };
    let storage_rx = report.storage_rx_bytes as f64 / n * scale;
    let tensor_bytes = report.transform_tx_bytes as f64 / n * scale;
    let demand = GpuDemand::new(lab.profile.trainer_node_demand, tensor_bytes);
    let node = NodeSpec::trainer();
    let tax = DatacenterTax::production();
    let onhost = onhost_baseline(&node, &tax, &preproc, storage_rx, &demand);
    // The stall fraction also falls out of the virtual-time kernel: the
    // host as a one-worker fleet that cannot grow.
    let mut host = Scenario::single_stage("onhost", onhost.demand_qps, onhost.supply_qps, 128);
    host.bounds = host.bounds.freeze(0, 1);
    let sim = run_scenario(&host, &mut host.static_policy());
    let rows = vec![
        vec![
            "measured".into(),
            pct(onhost.stall_fraction),
            pct(onhost.utilization.cpu),
            pct(onhost.utilization.membw),
            pct(sim.stall_fraction),
        ],
        vec![
            "paper".into(),
            "56%".into(),
            "92%".into(),
            "54%".into(),
            "-".into(),
        ],
    ];
    print_table(
        "Table VII: RM1 preprocessing on the trainer host (no DPP)",
        &["", "time stalled", "cpu util", "membw util", "sim stall"],
        &rows,
    );
    println!(
        "(takeaway preserved: the host cannot feed the GPUs — supply {:.0}k of {:.0}k samples/s; \
         our simulated host is memory-bandwidth-bound where the paper's was CPU-bound)",
        onhost.supply_qps / 1e3,
        onhost.demand_qps / 1e3
    );
}

fn table8() {
    let rows: Vec<Vec<String>> = RmProfile::all()
        .iter()
        .map(|p| {
            vec![
                p.class.to_string(),
                f(p.trainer_node_demand / 1e9, 2),
                f(p.extract_to_load_ratio(), 2),
            ]
        })
        .collect();
    print_table(
        "Table VIII: per-trainer-node GPU ingestion demand",
        &["model", "GB/s", "extract/load bw ratio"],
        &rows,
    );
}

fn table9() {
    let node = NodeSpec::c_v1();
    let tax = DatacenterTax::production();
    let mut rows = Vec::new();
    for class in [RmClass::Rm1, RmClass::Rm2, RmClass::Rm3] {
        let (lab, projection, report) = measure(class);
        let scale = feature_scale(&lab, &projection);
        let demand = scaled_demand(&report, &tax, scale);
        let qps = node.max_rate(&demand);
        let n = report.samples as f64;
        let storage_rx = report.storage_rx_bytes as f64 / n * scale * qps;
        let xform_rx = report.transform_rx_bytes as f64 / n * scale * qps;
        let xform_tx = report.transform_tx_bytes as f64 / n * scale * qps;
        let p = &lab.profile;
        let nodes_req = p.trainer_node_demand / xform_tx.max(1.0);
        rows.push(vec![
            p.class.to_string(),
            f(qps / 1e3, 2),
            f(storage_rx / 1e9, 2),
            f(xform_rx / 1e9, 2),
            f(xform_tx / 1e9, 2),
            f(nodes_req, 1),
            format!(
                "{:.1}k/{:.2}/{:.2}/{:.2}/{:.1}",
                p.worker_kqps,
                p.worker_storage_rx / 1e9,
                p.worker_transform_rx / 1e9,
                p.worker_transform_tx / 1e9,
                p.workers_per_trainer
            ),
        ]);
    }
    print_table(
        "Table IX: DPP Worker saturation on C-v1 and workers needed per trainer node",
        &[
            "model",
            "kQPS",
            "storage rx GB/s",
            "xform rx GB/s",
            "xform tx GB/s",
            "# nodes",
            "paper",
        ],
        &rows,
    );
}

fn table10() {
    let rows: Vec<Vec<String>> = [NodeSpec::c_v1(), NodeSpec::c_v2(), NodeSpec::c_v3()]
        .iter()
        .map(|n| {
            vec![
                n.name.clone(),
                n.cores.to_string(),
                f(n.nic_gbps, 1),
                (n.mem_bytes >> 30).to_string(),
                f(n.membw_bytes_per_sec / 1e9, 0),
            ]
        })
        .collect();
    print_table(
        "Table X: compute server generations",
        &["node", "# cores", "NIC (Gbps)", "mem (GB)", "mem BW (GB/s)"],
        &rows,
    );
    println!(
        "(cores and NIC grow 2x while memory bandwidth grows ~1.1x: memBW becomes the bottleneck)"
    );
}

fn table11() {
    let descriptions: Vec<(&str, &str)> = vec![
        ("Cartesian", "Cartesian product between two sparse features"),
        ("Bucketize", "shard dense features by bucket borders"),
        ("ComputeScore", "arithmetic on sparse feature scores"),
        ("Enumerate", "like Python enumerate()"),
        ("PositiveModulus", "positive modulus on sparse features"),
        ("IdListTransform", "intersection of two sparse lists"),
        ("BoxCox", "Box-Cox normalization"),
        ("Logit", "logit normalization"),
        ("MapId", "map feature ids to fixed values"),
        ("FirstX", "sparse list truncation"),
        ("GetLocalHour", "local timestamp hour"),
        ("SigridHash", "hash-normalize sparse id lists"),
        ("NGram", "n-grams over sparse features"),
        ("Onehot", "one-hot encode dense features"),
        ("Clamp", "std::clamp"),
        ("Sampling", "randomly sample training rows"),
    ];
    let rows: Vec<Vec<String>> = descriptions
        .iter()
        .map(|(n, d)| vec![n.to_string(), d.to_string()])
        .collect();
    print_table(
        "Table XI: the production transform operations",
        &["op", "description"],
        &rows,
    );

    // Measured cycle-class split on the RM1 plan.
    let (_, _, report) = measure(RmClass::Rm1);
    let total = report.transform_cycles.max(1.0);
    println!(
        "measured transform cycle split: feature generation {} | sparse norm {} | dense norm {} (paper ~75/20/5)",
        pct(report.feature_generation_cycles / total),
        pct(report.sparse_normalization_cycles / total),
        pct(report.dense_normalization_cycles / total),
    );
}

// ------------------------------------------------------------ §VII extras

fn gap() {
    let rm1 = RmProfile::rm1();
    let trainers = 64.0;
    let storage_demand = trainers * rm1.workers_per_trainer * rm1.worker_storage_rx;
    let hdd_small = ProvisionPlan::for_workload(
        &StorageNodeClass::hdd(),
        rm1.used_partitions,
        3,
        storage_demand,
        PAPER_MEAN_IO,
    );
    let deployed_io = 512 * 1024; // post-coalescing effective IO size
    let hdd = ProvisionPlan::for_workload(
        &StorageNodeClass::hdd(),
        rm1.used_partitions,
        3,
        storage_demand,
        deployed_io,
    );
    let ssd = ProvisionPlan::for_workload(
        &StorageNodeClass::ssd(),
        rm1.used_partitions,
        3,
        storage_demand,
        deployed_io,
    );
    let tiered = TieredPlacement::plan(
        rm1.used_partitions,
        3,
        storage_demand,
        deployed_io,
        rm1.popular_bytes_for_80pct_traffic,
        0.8,
    );
    let hddc = StorageNodeClass::hdd();
    let ssdc = StorageNodeClass::ssd();
    let rows = vec![
        vec![
            "HDD @ Table VI IO (23 KiB)".into(),
            f(hdd_small.nodes_for_capacity, 0),
            f(hdd_small.nodes_for_iops, 0),
            f(hdd_small.throughput_to_storage_gap, 1),
            f(hdd_small.watts / 1e6, 2),
        ],
        vec![
            "HDD @ coalesced IO (512 KiB)".into(),
            f(hdd.nodes_for_capacity, 0),
            f(hdd.nodes_for_iops, 0),
            f(hdd.throughput_to_storage_gap, 1),
            f(hdd.watts / 1e6, 2),
        ],
        vec![
            "SSD @ coalesced IO".into(),
            f(ssd.nodes_for_capacity, 0),
            f(ssd.nodes_for_iops, 0),
            f(ssd.throughput_to_storage_gap, 2),
            f(ssd.watts / 1e6, 2),
        ],
        vec![
            "tiered (hot->SSD)".into(),
            f(
                tiered.cold.nodes_provisioned + tiered.hot.nodes_provisioned,
                0,
            ),
            "-".into(),
            "-".into(),
            f(tiered.watts() / 1e6, 2),
        ],
    ];
    print_table(
        "S7: RM1 storage provisioning at 64 trainer nodes (throughput-to-storage gap)",
        &[
            "configuration",
            "nodes for capacity",
            "nodes for IOPS",
            "gap",
            "MW",
        ],
        &rows,
    );
    println!(
        "(paper: >8x gap even with coalescing — measured {:.1}x; SSD vs HDD: {:.0}% IOPS/W at {:.0}% capacity/W — paper 326%/9%; tiering saves {:.0}% power vs all-HDD)",
        hdd.throughput_to_storage_gap,
        100.0 * ssdc.iops_per_watt() / hddc.iops_per_watt(),
        100.0 * ssdc.capacity_per_watt() / hddc.capacity_per_watt(),
        100.0 * (1.0 - tiered.watts() / hdd.watts),
    );
}

fn accel() {
    use dsi_types::FeatureId;
    let model = AccelModel::default();
    let ops = [
        TransformOp::SigridHash {
            input: FeatureId(1),
            salt: 0,
            modulus: 1000,
        },
        TransformOp::Bucketize {
            input: FeatureId(1),
            borders: vec![0.0, 1.0],
            output: FeatureId(2),
        },
        TransformOp::NGram {
            input: FeatureId(1),
            n: 2,
            output: FeatureId(2),
        },
        TransformOp::Logit {
            input: FeatureId(1),
        },
        TransformOp::MapId {
            input: FeatureId(1),
            mapping: Default::default(),
            default: None,
        },
    ];
    let rows: Vec<Vec<String>> = ops
        .iter()
        .map(|op| {
            let name = format!("{op:?}");
            let name = name.split([' ', '{']).next().unwrap_or("?").to_string();
            vec![name, f(AccelModel::gpu_speedup(op), 1)]
        })
        .collect();
    print_table(
        "S7: GPU/CPU speedup per transform op (paper measured SigridHash 11.9x, Bucketize 1.3x)",
        &["op", "speedup"],
        &rows,
    );
    let plan = TransformPlan::new(vec![
        TransformOp::SigridHash {
            input: FeatureId(1),
            salt: 0,
            modulus: 1000,
        };
        4
    ]);
    let rows: Vec<Vec<String>> = [8u64, 64, 512, 4096, 32768]
        .iter()
        .map(|&bs| {
            vec![
                bs.to_string(),
                f(model.effective_plan_speedup(&plan, bs, 25.0), 2),
            ]
        })
        .collect();
    print_table(
        "S7: effective offload speedup vs batch size (kernel-launch amortization)",
        &["batch", "speedup"],
        &rows,
    );
}

fn codesign() {
    // The §VII co-design ablation on the real byte path. Steps:
    //   0 baseline: unflattened maps, per-stream IO, id order, row-major
    //   1 +feature flattening
    //   2 +coalesced reads (1.25 MiB)
    //   3 +popularity-ordered write path
    //   4 +in-memory flatmaps (cheaper decode/batch)
    //
    // Stripes are sized near production (several MB) so sequential reads
    // and coalescing windows behave like they do on real HDD nodes.
    let cfg = LabConfig {
        features: 300,
        days: 2,
        rows_per_day: 2_500,
        rows_per_stripe: 1_250,
        seed: 0xc0de5,
    };
    let tax = DatacenterTax::production();
    let node = NodeSpec::c_v1();
    let hdd = hwsim::DiskModel::hdd();
    // The production coalescing window is 1.25 MiB against multi-GB
    // stripes; the lab's stripes are ~4 MB, so the window scales down
    // proportionally to preserve the gap-vs-window geometry.
    let window = CoalescePolicy::Window(256 * 1024);
    let rowmajor_cost = ExtractCostModel {
        decode_cycles_per_byte: 6.0,
        decode_membw_per_byte: 12.0,
        batch_membw_per_byte: 6.0,
        ..Default::default()
    };
    let flatmap_cost = ExtractCostModel::default();

    struct Step {
        name: &'static str,
        flattened: bool,
        popularity: bool,
        policy: CoalescePolicy,
        cost: ExtractCostModel,
    }
    let steps = [
        Step {
            name: "baseline (maps, row-major)",
            flattened: false,
            popularity: false,
            policy: CoalescePolicy::None,
            cost: rowmajor_cost,
        },
        Step {
            name: "+feature flattening",
            flattened: true,
            popularity: false,
            policy: CoalescePolicy::None,
            cost: rowmajor_cost,
        },
        Step {
            name: "+coalesced reads",
            flattened: true,
            popularity: false,
            policy: window,
            cost: rowmajor_cost,
        },
        Step {
            name: "+popularity write order",
            flattened: true,
            popularity: true,
            policy: window,
            cost: rowmajor_cost,
        },
        Step {
            name: "+in-memory flatmaps",
            flattened: true,
            popularity: true,
            policy: window,
            cost: flatmap_cost,
        },
    ];

    // Reference: fraction of stored stream bytes the projection selects,
    // measured on a flattened twin (map files cannot express it).
    let flat_fraction = {
        let lab = RmLab::build(RmClass::Rm1, cfg);
        let projection = lab.rc_projection();
        warehouse::stats::projected_byte_fraction(&lab.table, &projection)
    };

    let mut rows = Vec::new();
    let mut baseline: Option<(f64, f64)> = None;
    let mut last_measured = (1.0f64, 1.0f64, 1.0f64, 1.0f64);
    for step in &steps {
        // Build the lab with this step's write path.
        let writer = if step.popularity {
            let seed_lab = RmLab::build(RmClass::Rm1, cfg);
            WriterOptions {
                flattened: step.flattened,
                ..seed_lab.popularity_writer_options()
            }
        } else {
            WriterOptions {
                flattened: step.flattened,
                rows_per_stripe: cfg.rows_per_stripe,
                ..Default::default()
            }
        };
        let lab = RmLab::build_with_writer(RmClass::Rm1, cfg, Some(writer));
        let projection = lab.rc_projection();
        let spec = lab.session_spec(projection, 128);
        let report = lab.measure_worker_custom(&spec, step.policy, Some(step.cost));

        // DPP throughput: saturation QPS on C-v1.
        let demand = report.per_sample_demand(&tax);
        let dpp_qps = node.max_rate(&demand);

        // Storage effectiveness per HDD node: integrate the real per-IO
        // service times of the scan (each IO pays a seek + transfer),
        // discounted to the *useful* fraction — stream bytes belonging to
        // features the job actually uses.
        lab.table.cluster().set_record_io_sizes(true);
        lab.table.cluster().reset_stats();
        let scan = lab
            .table
            .scan(spec.partitions(), spec.projection.clone())
            .with_policy(step.policy);
        let (_, stats) = scan.read_all_with_stats().expect("lab scan succeeds");
        let sizes = lab.table.cluster().all_io_sizes();
        let service_secs: f64 = sizes
            .iter()
            .map(|&len| hdd.service_time_ns(hwsim::IoRequest::new(u64::MAX / 2, len)) as f64 / 1e9)
            .sum();
        let io_size = stats.mean_io_size().max(1.0) as u64;
        let useful_stream = if step.flattened {
            stats.wanted_bytes as f64
        } else {
            stats.wanted_bytes as f64 * flat_fraction
        };
        let useful_fraction = useful_stream / stats.read_bytes.max(1) as f64;
        let storage_bps = stats.read_bytes as f64 / service_secs.max(1e-9) * useful_fraction;

        let (b_dpp, b_sto) = *baseline.get_or_insert((dpp_qps, storage_bps));
        let dpp_x = dpp_qps / b_dpp;
        let sto_x = storage_bps / b_sto;
        // Remember the final step's geometry for the production projection.
        let total_stream_bytes: u64 = lab.table.total_encoded_bytes();
        last_measured = (
            dpp_x,
            stats.read_bytes as f64 / total_stream_bytes.max(1) as f64,
            useful_fraction,
            flat_fraction,
        );
        // Power: nodes on each leg scale inversely with throughput; weigh
        // DPP:storage power 60:40 as provisioned for RM1.
        let power_x = 1.0 / (0.6 / dpp_x + 0.4 / sto_x);
        rows.push(vec![
            step.name.into(),
            f(dpp_qps / 1e3, 2),
            f(io_size as f64 / 1024.0, 1),
            pct(useful_fraction),
            f(dpp_x, 2),
            f(sto_x, 2),
            f(power_x, 2),
        ]);
    }
    // Final row: project the measured byte fractions to production stripe
    // sizes (hundreds of MB), where transfer time dominates seeks. The
    // baseline reads whole stripes; the optimized path reads only the
    // popularity-clustered hot region in a handful of coalesced IOs.
    {
        let (dpp_x, read_frac, useful_frac, base_useful) = last_measured;
        let stripe = 256.0 * 1024.0 * 1024.0; // production-scale stripe
        let seek_s = 8.0e-3;
        let bw = 200.0e6;
        let time_base = seek_s + stripe / bw;
        let time_opt = 4.0 * seek_s + read_frac * stripe / bw;
        let eff_base = base_useful * stripe / time_base;
        let eff_opt = useful_frac * read_frac * stripe / time_opt;
        let sto_x = eff_opt / eff_base;
        let power_x = 1.0 / (0.6 / dpp_x + 0.4 / sto_x);
        rows.push(vec![
            "(projected @ 256 MB stripes)".into(),
            "-".into(),
            "-".into(),
            pct(useful_frac),
            f(dpp_x, 2),
            f(sto_x, 2),
            f(power_x, 2),
        ]);
    }
    print_table(
        "S7 co-design ablation (RM1): flattening + coalescing + write order + flatmaps",
        &[
            "configuration",
            "DPP kQPS",
            "IO KiB",
            "useful",
            "DPP x",
            "storage x",
            "power x",
        ],
        &rows,
    );
    println!("(paper: 2.94x DPP, 2.41x storage throughput, 2.59x lower DSI power overall;");
    println!(" lab stripes are ~4 MB where sequential whole-stripe reads are near-optimal, so the");
    println!(" storage win only materializes at production stripe scale — the projected row)");
}

/// RecD-style end-to-end deduplication ablation: sweep the dataset's
/// session-duplication ratio and compare dedup-off vs dedup-on along all
/// three legs — bytes on disk, DPP worker saturation throughput, and the
/// trainer's loading demand — plus the `dsi_dedup_*` metric catalog as a
/// `PipelineReport` section.
fn dedup_ablation(smoke: bool) {
    use dedup::DedupConfig;
    use trainer::DedupIngest;

    let ratios: &[f64] = if smoke {
        &[1.0, 4.0]
    } else {
        &[1.0, 2.0, 4.0, 8.0]
    };
    // Production-scale stripes: the RecD labs log 64-bit hashed ids, and a
    // stripe must hold enough rows that per-stripe id cardinality exceeds
    // the dictionary threshold — as it does in production, where these
    // streams are never dictionary-encoded. Smaller stripes would let the
    // dictionary soak up the session redundancy and understate both sides.
    let cfg = if smoke {
        LabConfig {
            features: 60,
            days: 1,
            rows_per_day: 8192,
            rows_per_stripe: 4096,
            seed: 0xd0d0,
        }
    } else {
        LabConfig {
            features: 120,
            days: 2,
            rows_per_day: 8192,
            rows_per_stripe: 4096,
            seed: 0xd0d0,
        }
    };
    // Raw byte path: compression/encryption off so the measured reduction
    // is the format's, not a side effect of the LZ window re-finding the
    // duplicates (extract cycles are charged on these bytes either way).
    let raw_writer = WriterOptions {
        compressed: false,
        encrypted: false,
        rows_per_stripe: cfg.rows_per_stripe,
        ..Default::default()
    };
    let node = NodeSpec::c_v1();
    let tax = DatacenterTax::production();

    let mut rows = Vec::new();
    let mut headline: Option<(f64, f64, f64)> = None;
    for &ratio in ratios {
        let dcfg = DedupConfig::with_ratio(ratio);
        let dup = (ratio > 1.0).then_some(dcfg);

        // Dedup-off pipeline: plain files, plain transform executor.
        let lab_off = RmLab::build_dedup(RmClass::Rm1, cfg, Some(raw_writer.clone()), dup);
        // Dedup-on pipeline: DedupSet stream encoding + set-aware executor.
        let dedup_writer = WriterOptions {
            dedup: true,
            dedup_window: dcfg.session_window,
            ..raw_writer.clone()
        };
        let lab_on = RmLab::build_dedup(RmClass::Rm1, cfg, Some(dedup_writer), dup);

        let bytes_off = lab_off.table.total_encoded_bytes();
        let bytes_on = lab_on.table.total_encoded_bytes();

        let projection = lab_off.rc_projection();
        let spec_off = lab_off.session_spec(projection.clone(), 128);
        let mut spec_on = lab_on.session_spec(projection, 128);
        spec_on.dedup = Some(dcfg);
        let r_off = lab_off.measure_worker(&spec_off);
        let r_on = lab_on.measure_worker(&spec_on);
        let qps_off = r_off.saturation_qps(&node, &tax);
        let qps_on = r_on.saturation_qps(&node, &tax);

        // Trainer leg: shared-tensor ingestion cost per sample.
        let mut ingest = DedupIngest::default();
        let scan = lab_on
            .table
            .scan(spec_on.partitions(), spec_on.projection.clone())
            .with_policy(spec_on.policy);
        let mut worker = dpp::Worker::new(
            dsi_types::WorkerId(1),
            std::sync::Arc::new(spec_on.clone()),
            scan.clone(),
        );
        for split in scan.plan_splits() {
            for t in worker.process_split(&split).expect("lab reads succeed") {
                ingest.accept(&t);
            }
        }
        if let Some(t) = worker.flush() {
            ingest.accept(&t);
        }
        let load_full = tax.rx_cost(ingest.full_bytes as f64 / ingest.rows.max(1) as f64);
        let load_dedup = ingest.per_sample_loading_demand(&tax);

        if (ratio - 4.0).abs() < 1e-9 {
            headline = Some((
                bytes_off as f64 / bytes_on.max(1) as f64,
                qps_on / qps_off.max(1e-9),
                r_on.dedup_reuse_hits as f64,
            ));
        }
        rows.push(vec![
            f(ratio, 0),
            f(bytes_off as f64 / 1e6, 2),
            f(bytes_on as f64 / 1e6, 2),
            format!("{:.2}x", bytes_off as f64 / bytes_on.max(1) as f64),
            f(qps_off / 1e3, 2),
            f(qps_on / 1e3, 2),
            format!("{:.2}x", qps_on / qps_off.max(1e-9)),
            r_on.dedup_reuse_hits.to_string(),
            format!(
                "{:.2}x",
                load_full.cpu_cycles / load_dedup.cpu_cycles.max(1e-9)
            ),
        ]);
    }
    print_table(
        "Extension (RecD): end-to-end dedup ablation vs dataset duplication ratio (RM1, raw byte path)",
        &[
            "dup ratio",
            "disk off MB",
            "disk on MB",
            "disk win",
            "kQPS off",
            "kQPS on",
            "DPP win",
            "reuse hits",
            "trainer load win",
        ],
        &rows,
    );
    if let Some((disk_win, dpp_win, reuse)) = headline {
        println!(
            "(at 4x duplication: {disk_win:.2}x fewer bytes on disk, {dpp_win:.2}x DPP worker \
             throughput, {reuse:.0} transform ops fanned out instead of recomputed; \
             ratio 1 rows show the dedup-off baseline is unchanged)"
        );
    }

    // The dsi_dedup_* catalog end to end: a deduped table write plus a
    // dedup-aware worker publishing into one registry.
    let reg = dsi_obs::Registry::new();
    let dcfg = DedupConfig::with_ratio(4.0);
    let lab = RmLab::build_dedup(
        RmClass::Rm1,
        cfg,
        Some(WriterOptions {
            dedup: true,
            dedup_window: dcfg.session_window,
            ..raw_writer
        }),
        Some(dcfg),
    );
    lab.table.attach_registry(&reg);
    let schema = lab.table.schema();
    let extra: Vec<dsi_types::Sample> = synth::SampleGenerator::new(&schema, cfg.seed ^ 0xfe)
        .with_duplication(dcfg)
        .with_hashed_ids()
        .take_samples(256);
    lab.table
        .write_partition(dsi_types::PartitionId::new(cfg.days), extra)
        .expect("lab cluster has capacity");
    let mut spec = lab.session_spec(lab.rc_projection(), 128);
    spec.dedup = Some(dcfg);
    lab.measure_worker_publishing(&spec, &reg);
    let report = dsi_obs::PipelineReport::collect(&reg);
    println!(
        "PipelineReport dedup section: sets {}  rows {}  ratio {:.2}x  bytes saved {}  reuse hits {}",
        report.dedup_sets,
        report.dedup_rows,
        report.dedup_ratio,
        report.dedup_bytes_saved,
        report.dedup_reuse_hits
    );
}

/// Extension (durability): replicated, self-healing Tectonic under replica
/// loss. For R in {2, 3}, one epoch in which the most-loaded storage node
/// is killed a third of the way in and rebuilt under a per-batch IO budget
/// ([`durability::node_loss_mid_epoch`]). Reports the foreground share of
/// disk IOs, rebuild volume, and residual under-replication (must be zero).
fn durability_ablation(smoke: bool) {
    let cfg = if smoke {
        durability::SMOKE
    } else {
        durability::FULL
    };
    let runs = [2usize, 3].map(|r| durability::node_loss_mid_epoch(cfg, r));
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|v| {
            vec![
                format!("R{}", v.r),
                v.samples.to_string(),
                v.rebuild_ios.to_string(),
                v.total_ios.to_string(),
                pct(v.foreground_share),
                v.rebuilt_chunks.to_string(),
                v.under_replicated_final.to_string(),
                v.failovers.to_string(),
            ]
        })
        .collect();
    print_table(
        "Extension (durability): node loss mid-epoch, budgeted rebuild vs foreground (RM3)",
        &[
            "repl",
            "samples",
            "rebuild IOs",
            "total IOs",
            "fg share",
            "rebuilt",
            "under-rep",
            "failovers",
        ],
        &rows,
    );
    let r3 = runs[1];
    println!(
        "(killing the most-loaded of 8 nodes mid-epoch: the epoch delivers {} of {} samples, \
         rebuild at {} IOs/batch restores R{} with foreground keeping {} of disk IOs, and {} \
         chunks re-replicate, {} left under-replicated)",
        r3.samples,
        cfg.days as u64 * cfg.rows_per_day,
        durability::REBUILD_IOS_PER_BATCH,
        r3.r,
        pct(r3.foreground_share),
        r3.rebuilt_chunks,
        r3.under_replicated_final,
    );
}

// ------------------------------------------------- extension experiments

/// Autoscaler trace: a virtual-time DPP session converging onto RM1's
/// trainer demand from one worker (the §III-B1 controller in action).
fn fleet() {
    let (lab, projection, report) = measure(RmClass::Rm1);
    let scale = feature_scale(&lab, &projection);
    let tax = DatacenterTax::production();
    let per_worker_qps = NodeSpec::c_v1().max_rate(&scaled_demand(&report, &tax, scale));
    // One trainer node of RM1 demand, in samples/s.
    let tensor_bytes = report.transform_tx_bytes as f64 / report.samples as f64 * scale;
    let demand_qps = lab.profile.trainer_node_demand / tensor_bytes;
    // One stage at the measured per-worker rate and no knob but the
    // worker count, 256-sample batches.
    let scenario = Scenario {
        duration_secs: 1_800.0,
        ..Scenario::single_stage("rm1-trainer-node", demand_qps, per_worker_qps, 256)
    };
    let trace = run_scenario(&scenario, &mut scenario.static_policy());
    let rows: Vec<Vec<String>> = trace
        .points
        .iter()
        .step_by(6)
        .map(|pt| {
            vec![
                f(pt.t, 0),
                pt.knobs.workers.to_string(),
                f(pt.buffered / 256.0, 0),
                f(pt.supply / 1e3, 1),
                if pt.stall > 0.0 {
                    "STALL".into()
                } else {
                    String::new()
                },
                "#".repeat(pt.knobs.workers.min(60)),
            ]
        })
        .collect();
    print_table(
        "Extension: autoscaler trace — one RM1 trainer node, workers ramping from 1",
        &["t (s)", "workers", "buffered", "kQPS", "", ""],
        &rows,
    );
    println!(
        "(ideal {:.1} workers for {:.0}k samples/s; converged to {} with {:.1}% time stalled — paper Table IX: 24.2 workers/trainer)",
        demand_qps / per_worker_qps,
        demand_qps / 1e3,
        trace.final_knobs.workers,
        trace.stall_fraction * 100.0
    );
}

/// Capacity planning: trainers per 10 MW budget, and what the §VII 2.59x
/// DSI power reduction buys back.
fn capacity() {
    let power = PowerModel::production();
    let budget = 10e6;
    let mut rows = Vec::new();
    for profile in RmProfile::all() {
        let before = cluster::plan_capacity(&profile, budget, COALESCED_MEAN_IO, &power, 1.0);
        let after = cluster::plan_capacity(&profile, budget, COALESCED_MEAN_IO, &power, 2.59);
        rows.push(vec![
            profile.class.to_string(),
            f(before.trainers, 0),
            pct(before.dsi_fraction),
            f(after.trainers, 0),
            pct(after.dsi_fraction),
            format!("{:.2}x", after.trainers / before.trainers),
        ]);
    }
    print_table(
        "Extension: trainer capacity in a 10 MW datacenter, before/after the 2.59x DSI power reduction",
        &[
            "model",
            "trainers",
            "DSI share",
            "trainers @2.59x",
            "DSI share",
            "capacity gain",
        ],
        &rows,
    );
    println!(
        "(the paper's motivation quantified: DSI power converts directly into training capacity)"
    );
}

/// Per-sample demand scaled from lab feature counts to production counts.
fn scaled_demand(report: &WorkerReport, tax: &DatacenterTax, scale: f64) -> ResourceVector {
    let base = report.per_sample_demand(tax);
    ResourceVector {
        cpu_cycles: base.cpu_cycles * scale,
        membw_bytes: base.membw_bytes * scale,
        nic_rx_bytes: base.nic_rx_bytes * scale,
        nic_tx_bytes: base.nic_tx_bytes * scale,
        resident_bytes: base.resident_bytes * scale,
        residency_secs: base.residency_secs,
    }
}

/// Extension (autotune): closed-loop online tuning vs the static
/// watermark autoscaler over three deterministic pipeline scenarios
/// (extract-bound, trainer-bound, diurnal load). Both
/// policies run the same virtual-time simulation, the same knob fences,
/// the same synthesized signal stream; the table compares time to
/// converge (sliding-window stall under the 2% target) and steady-state
/// stall (mean of the final third).
fn autotune_ablation(smoke: bool) {
    let mut rows = Vec::new();
    for s in Scenario::all() {
        let s = if smoke { s.smoke() } else { s };
        let tuned = run_scenario(&s, &mut s.tuner());
        let stat = run_scenario(&s, &mut s.static_policy());
        for (name, t) in [("online-tuner", &tuned), ("static-watermark", &stat)] {
            rows.push(vec![
                s.name.to_string(),
                name.into(),
                f(t.time_to_converge, 0),
                pct(t.steady_stall),
                pct(t.stall_fraction),
                f(t.mean_workers, 1),
                format!(
                    "w={} ra={} b={}",
                    t.final_knobs.workers, t.final_knobs.read_ahead, t.final_knobs.batch_size
                ),
            ]);
        }
    }
    print_table(
        "Extension (autotune): closed-loop tuner vs static watermark scaler (virtual-time, 2% stall target)",
        &[
            "scenario",
            "policy",
            "ttc (s)",
            "steady stall",
            "overall stall",
            "mean workers",
            "final knobs",
        ],
        &rows,
    );
    println!(
        "(ttc = first time after which every sliding-window mean stall stays under target; \
         duration caps a never-converging run)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_keeps_table_order_and_rejects_retired_ids() {
        let ids = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let names = |v: Vec<Figure>| v.iter().map(|(n, _)| *n).collect::<Vec<_>>();
        assert_eq!(select(&[]).unwrap().len(), FIGURES.len());
        assert_eq!(select(&ids(&["fig2", "all"])).unwrap().len(), FIGURES.len());
        assert_eq!(
            names(select(&ids(&["table9", "fig7"])).unwrap()),
            ["fig7", "table9"]
        );
        for retired in ["gate", "fastpath", "wire", "trace", "tenancy"] {
            let err = select(&ids(&["fig1", retired])).unwrap_err();
            assert!(err.contains(retired) && err.contains("durability"), "{err}");
        }
    }
}
