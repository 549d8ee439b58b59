//! Shape assertions for the paper's headline results, measured end-to-end
//! on the simulated deployment (slower, coarse-scale checks; the `figures`
//! binary prints the full tables).

use dsi_bench::model::{loading_sweep, per_sample_demand};
use dsi_bench::node::{NodeSpec, ResourceVector};
use dsi_bench::power::PowerModel;
use dsi_bench::provisioning::{provision_model, ProvisionPlan, StorageNodeClass, TieredPlacement};
use dsi_bench::tax::DatacenterTax;
use dsi_bench::{LabConfig, RmLab};
use dsi_types::{ByteSize, PIB};
use synth::{JobProjectionSampler, RmClass, RmProfile};

#[test]
fn fig1_dsi_power_exceeds_half_for_worker_heavy_models() {
    let power = PowerModel::production();
    for profile in RmProfile::all() {
        let prov = provision_model(&profile, 16.0, 1 << 20, &power);
        assert!(
            prov.power.dsi_fraction() > 0.5,
            "{}: DSI share {:.2}",
            profile.class,
            prov.power.dsi_fraction()
        );
    }
}

#[test]
fn fig7_popularity_ordering_holds_across_models() {
    let bytes_at_80 = |profile: &RmProfile| {
        let schema = profile.build_schema(400);
        let sampler = JobProjectionSampler::new(&schema, profile, 11);
        JobProjectionSampler::bytes_for_traffic(&sampler.popularity_cdf(25, 3), 0.8)
    };
    let rm1 = bytes_at_80(&RmProfile::rm1());
    let rm3 = bytes_at_80(&RmProfile::rm3());
    // RM3 concentrates: fewer popular bytes absorb 80% of traffic.
    assert!(rm3 < rm1, "rm3 {rm3:.2} vs rm1 {rm1:.2}");
    assert!(rm1 < 0.6, "popular bytes dominate traffic: {rm1:.2}");
    assert!(rm3 < 0.35, "rm3 hot set is small: {rm3:.2}");
}

#[test]
fn fig8_loading_alone_consumes_significant_host_resources() {
    let node = NodeSpec::trainer();
    let tax = DatacenterTax::production();
    let pt = &loading_sweep(&node, &tax, &[16.5e9])[0];
    assert!(pt.utilization.cpu > 0.3 && pt.utilization.cpu < 0.5);
    assert!(pt.utilization.membw > 0.45 && pt.utilization.membw < 0.65);
    assert!(pt.utilization.nic_rx > 0.6, "approaching NIC saturation");
}

#[test]
fn table9_worker_throughput_ordering_and_scale() {
    let node = NodeSpec::c_v1();
    let tax = DatacenterTax::production();
    let qps = |class: RmClass| {
        let lab = RmLab::build(class, LabConfig::default());
        let projection = lab.rc_projection();
        let model_features =
            (lab.profile.model_dense_features + lab.profile.model_sparse_features) as f64;
        let scale = model_features / projection.len().max(1) as f64;
        let report = lab.measure_worker(&lab.session_spec(projection, 128));
        let d = per_sample_demand(&report, &tax);
        let scaled = ResourceVector {
            cpu_cycles: d.cpu_cycles * scale,
            membw_bytes: d.membw_bytes * scale,
            nic_rx_bytes: d.nic_rx_bytes * scale,
            nic_tx_bytes: d.nic_tx_bytes * scale,
            ..d
        };
        node.max_rate(&scaled)
    };
    let rm1 = qps(RmClass::Rm1);
    let rm2 = qps(RmClass::Rm2);
    let rm3 = qps(RmClass::Rm3);
    // Paper ordering: RM3 (36.9k) > RM1 (11.6k) > RM2 (8.0k).
    assert!(
        rm3 > rm1 && rm1 > rm2,
        "qps rm1 {rm1:.0} rm2 {rm2:.0} rm3 {rm3:.0}"
    );
    // Several-fold spread between the extremes.
    assert!(rm3 / rm2 > 3.0, "spread {:.1}", rm3 / rm2);
    // RM1 lands within 3x of the paper's 11.6 kQPS.
    assert!(
        (4_000.0..35_000.0).contains(&rm1),
        "rm1 saturation {rm1:.0} qps"
    );
}

#[test]
fn s7_storage_gap_exceeds_8x_at_table_vi_io_sizes() {
    let rm1 = RmProfile::rm1();
    let demand = 64.0 * rm1.workers_per_trainer * rm1.worker_storage_rx;
    let plan = ProvisionPlan::for_workload(
        &StorageNodeClass::hdd(),
        rm1.used_partitions,
        3,
        demand,
        23_200,
    );
    assert!(
        plan.throughput_to_storage_gap > 8.0,
        "gap {:.1}",
        plan.throughput_to_storage_gap
    );
    // SSD flips to capacity-bound.
    let ssd = ProvisionPlan::for_workload(
        &StorageNodeClass::ssd(),
        rm1.used_partitions,
        3,
        demand,
        1 << 20,
    );
    assert!(ssd.throughput_to_storage_gap < 1.0);
}

#[test]
fn s7_tiering_beats_single_medium_power() {
    let rm1 = RmProfile::rm1();
    let demand = 64.0 * rm1.workers_per_trainer * rm1.worker_storage_rx;
    let io = 512 * 1024;
    let hdd =
        ProvisionPlan::for_workload(&StorageNodeClass::hdd(), rm1.used_partitions, 3, demand, io);
    let ssd =
        ProvisionPlan::for_workload(&StorageNodeClass::ssd(), rm1.used_partitions, 3, demand, io);
    let tiered = TieredPlacement::plan(rm1.used_partitions, 3, demand, io, 0.39, 0.8);
    assert!(
        tiered.watts() < hdd.watts.min(ssd.watts),
        "tiered {:.2} MW vs hdd {:.2} / ssd {:.2}",
        tiered.watts() / 1e6,
        hdd.watts / 1e6,
        ssd.watts / 1e6
    );
}

#[test]
fn s7_codesign_improves_dpp_and_power() {
    // Baseline (unflattened, scattered, row-major) vs fully optimized, on
    // a stripe size large enough for sequential reads to matter.
    use dpp::ExtractCostModel;
    use dwrf::{CoalescePolicy, WriterOptions};
    let cfg = LabConfig {
        features: 200,
        days: 2,
        rows_per_day: 1_500,
        rows_per_stripe: 750,
        seed: 0xc0de,
    };
    let tax = DatacenterTax::production();
    let node = NodeSpec::c_v1();
    let rowmajor = ExtractCostModel {
        decode_cycles_per_byte: 6.0,
        decode_membw_per_byte: 12.0,
        batch_membw_per_byte: 6.0,
        ..Default::default()
    };
    let baseline_lab = RmLab::build_with_writer(
        RmClass::Rm1,
        cfg,
        Some(WriterOptions {
            flattened: false,
            rows_per_stripe: cfg.rows_per_stripe,
            ..Default::default()
        }),
    );
    let spec = baseline_lab.session_spec(baseline_lab.rc_projection(), 128);
    let base = baseline_lab.measure_worker_custom(&spec, CoalescePolicy::None, Some(rowmajor));
    let base_qps = node.max_rate(&per_sample_demand(&base, &tax));

    let opt_lab = {
        let seed = RmLab::build(RmClass::Rm1, cfg);
        RmLab::build_with_writer(RmClass::Rm1, cfg, Some(seed.popularity_writer_options()))
    };
    let spec = opt_lab.session_spec(opt_lab.rc_projection(), 128);
    let opt = opt_lab.measure_worker_custom(
        &spec,
        CoalescePolicy::default_window(),
        Some(ExtractCostModel::default()),
    );
    let opt_qps = node.max_rate(&per_sample_demand(&opt, &tax));
    assert!(
        opt_qps / base_qps > 1.3,
        "co-design should raise worker throughput: {:.2}x",
        opt_qps / base_qps
    );
    // The optimized path wants far fewer storage bytes per sample (the
    // flattening win); coalescing trades some of it back as over-read.
    let base_bytes = base.storage_wanted_bytes as f64 / base.samples as f64;
    let opt_bytes = opt.storage_wanted_bytes as f64 / opt.samples as f64;
    assert!(
        base_bytes / opt_bytes > 1.5,
        "wanted bytes/sample {base_bytes:.0} -> {opt_bytes:.0}"
    );
}

#[test]
fn autotune_tuner_beats_the_static_scaler_where_workers_alone_cannot_help() {
    use dsi_bench::sim::{run_scenario, Scenario};
    for s in Scenario::all() {
        let tuned = run_scenario(&s, &mut s.tuner());
        let fixed = run_scenario(&s, &mut s.static_policy());
        let name = s.name;
        assert!(
            tuned.steady_stall < s.stall_target,
            "{name}: tuner must end converged, steady stall {:.4}",
            tuned.steady_stall
        );
        // Diurnal load is worker-bound: the watermark rule is fine there.
        if name == "diurnal" {
            continue;
        }
        assert!(
            tuned.time_to_converge < fixed.time_to_converge,
            "{name}: tuner converges faster ({} vs {} s)",
            tuned.time_to_converge,
            fixed.time_to_converge
        );
        assert!(
            tuned.steady_stall < fixed.steady_stall,
            "{name}: tuner ends with less stall"
        );
        assert!(
            tuned.mean_workers < fixed.mean_workers,
            "{name}: tuner spends fewer worker-seconds than the pegged static fleet"
        );
        // Each bottleneck is fixed with the knob that relieves it.
        let k = tuned.final_knobs;
        match name {
            "extract-bound" => assert!(k.read_ahead > 0, "{k:?}"),
            "trainer-bound" => assert!(k.batch_size > 32, "{k:?}"),
            other => panic!("unexpected scenario {other}"),
        }
    }
}

#[test]
fn durability_budgeted_rebuild_converges_and_leaves_foreground_the_majority_of_ios() {
    use dsi_bench::durability::{node_loss_mid_epoch, SMOKE};
    for r in [2, 3] {
        let run = node_loss_mid_epoch(SMOKE, r);
        assert_eq!(
            run.samples,
            SMOKE.days as u64 * SMOKE.rows_per_day,
            "R{r}: the epoch delivers every sample through the node loss"
        );
        assert_eq!(
            run.under_replicated_final, 0,
            "R{r}: self-healing converges"
        );
        assert!(run.rebuild_ios >= 1, "R{r}: rebuild did real work");
        assert!(run.total_ios > run.rebuild_ios, "R{r}: {run:?}");
        assert!(
            run.foreground_share >= 0.5,
            "R{r}: rebuild swamps the epoch it should yield to: {run:?}"
        );
    }
}

#[test]
fn datasets_dwarf_local_storage() {
    // Table III: used partitions alone are petabytes — orders of magnitude
    // beyond a trainer node's local storage.
    let local = ByteSize::tib(8); // generous local NVMe
    for p in RmProfile::all() {
        assert!(p.used_partitions.bytes() > 100 * local.bytes());
        assert!(p.all_partitions.bytes() as f64 / PIB as f64 > 1.0);
    }
}

/// Every `BENCH_*.json[l]` path the docs name is a file at the repo root and
/// every `figures <id>` they mention is an id `figures` accepts, so a
/// retired lab cannot stay cited.
#[test]
fn docs_cite_only_artifacts_and_figures_that_exist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let is_id = |id: &str| dsi_bench::figures::select(&[id.to_string()]).is_ok();
    for (doc, text) in [
        ("README.md", include_str!("../README.md")),
        ("EXPERIMENTS.md", include_str!("../EXPERIMENTS.md")),
        ("DESIGN.md", include_str!("../DESIGN.md")),
    ] {
        for (at, _) in text.match_indices("BENCH_") {
            let path: &str = text[at..]
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
                .next()
                .unwrap_or_default()
                .trim_end_matches('.');
            assert!(root.join(path).is_file(), "{doc} cites missing {path}");
        }
        // `figures a b --smoke` in prose and `--bin figures -- a b` in
        // command lines; flags and <placeholders> are not ids.
        for anchor in ["`figures ", "`figures\n", "--bin figures -- "] {
            for (at, _) in text.match_indices(anchor) {
                let mention = &text[at + anchor.len()..];
                let end = mention
                    .find(|c| c == '`' || (c == '\n' && anchor.starts_with("--")))
                    .unwrap_or(mention.len());
                for id in mention[..end].split_whitespace() {
                    assert!(
                        id.starts_with(['-', '<']) || is_id(id),
                        "{doc}: `figures {id}` is not an experiment id"
                    );
                }
            }
        }
    }
}

/// Every decimal number in the *Measured* column of EXPERIMENTS' headline
/// table is one `figures` prints. A row's section of `figures_output.txt`
/// is every `== title ==` block whose title starts with the row's label
/// (`Fig 8`, `Table VI`; the `§VII` rows read the `S7` blocks), and each
/// quoted `x.y` — `x.yK` for thousands — must equal, at the precision
/// quoted, some number printed there.
#[test]
fn headline_numbers_are_numbers_figures_prints() {
    // Maximal runs of digits and dots, with the character that follows.
    fn numbers(text: &str) -> Vec<(&str, char)> {
        let mut out = Vec::new();
        let mut start = None;
        for (at, c) in text.char_indices().chain([(text.len(), ' ')]) {
            match (start, c.is_ascii_digit() || c == '.') {
                (None, true) => start = Some(at),
                (Some(from), false) => {
                    let token = text[from..at].trim_matches('.');
                    if token.starts_with(|c: char| c.is_ascii_digit()) {
                        out.push((token, c));
                    }
                    start = None;
                }
                _ => {}
            }
        }
        out
    }
    let experiments = include_str!("../EXPERIMENTS.md");
    let start = experiments.find("\n## Headline results").unwrap();
    let end = start + 1 + experiments[start + 1..].find("\n## ").unwrap();
    let mut rows = experiments[start..end]
        .lines()
        .filter(|l| l.starts_with('|'));
    let header: Vec<&str> = rows.next().unwrap().split('|').map(str::trim).collect();
    let column = |name: &str| header.iter().position(|h| *h == name).unwrap();
    let (exp, measured) = (column("Exp"), column("Measured"));

    let output = include_str!("../figures_output.txt");
    let mut checked = 0;
    for row in rows.skip(1) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let label = cells[exp]
            .split(" — ")
            .next()
            .unwrap()
            .replace("§VII", "S7");
        let mut section = String::new();
        let mut inside = false;
        for line in output.lines() {
            if let Some(title) = line.strip_prefix("== ") {
                inside = title
                    .strip_prefix(label.as_str())
                    .is_some_and(|rest| rest.starts_with([':', ' ']));
            }
            if inside {
                section += line;
                section.push('\n');
            }
        }
        assert!(!section.is_empty(), "figures prints no `{label}` section");
        let printed: Vec<f64> = numbers(&section)
            .iter()
            .filter_map(|(n, _)| n.parse().ok())
            .collect();
        for (quoted, next) in numbers(cells[measured]) {
            let Some((_, fraction)) = quoted.split_once('.') else {
                continue;
            };
            let scale = if next == 'K' { 1e3 } else { 1.0 };
            let value = quoted.parse::<f64>().unwrap() * scale;
            let half_ulp = 0.5 * scale / 10f64.powi(fraction.len() as i32) + 1e-9;
            assert!(
                printed.iter().any(|p| (p - value).abs() <= half_ulp),
                "EXPERIMENTS `{label}` quotes {quoted}{}, which its figures section does not print",
                if scale > 1.0 { "K" } else { "" }
            );
            checked += 1;
        }
    }
    assert!(checked >= 40, "checked only {checked} quoted numbers");
}

/// README's Layout table and DESIGN §2's tree each name exactly the
/// directories under `crates/`, so a crate added, folded or deleted
/// cannot leave either list stale.
#[test]
fn docs_list_exactly_the_workspace_crates() {
    use std::collections::BTreeSet;
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates: BTreeSet<String> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.is_dir())
        .map(|path| path.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    let section = |doc: &str, from: &str, to: &str| {
        let start = doc.find(from).unwrap();
        let end = start + doc[start..].find(to).unwrap();
        doc[start..end].to_string()
    };
    let readme = section(include_str!("../README.md"), "\n## Layout", "\n## Install");
    let listed: BTreeSet<String> = readme
        .lines()
        .filter_map(|line| line.strip_prefix("| `crates/")?.split('`').next())
        .map(str::to_string)
        .collect();
    assert_eq!(listed, crates, "README's Layout table");
    let design = section(include_str!("../DESIGN.md"), "\n## 2. ", "\n## 3. ");
    let listed: BTreeSet<String> = design
        .lines()
        .filter_map(|line| line.strip_prefix("    "))
        .filter(|entry| !entry.starts_with(' '))
        .filter_map(|entry| entry.split_once('/').map(|(name, _)| name.to_string()))
        .collect();
    assert_eq!(listed, crates, "DESIGN §2's crate tree");
}

/// Every backticked `crate::module[::item]` in DESIGN §3's experiment table
/// names a module of that crate (`crates/<dir>/src/<module>.rs` or a
/// `<module>/` directory), and an item after it is declared in that module,
/// so a moved or renamed module cannot leave the index pointing nowhere.
#[test]
fn design_figure_table_names_only_modules_that_exist() {
    use std::collections::BTreeMap;
    use std::fs;
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let dirs: BTreeMap<String, std::path::PathBuf> = fs::read_dir(root.join("crates"))
        .unwrap()
        .filter_map(|entry| {
            let dir = entry.unwrap().path();
            let manifest = fs::read_to_string(dir.join("Cargo.toml")).ok()?;
            let name = manifest.lines().find_map(|l| l.strip_prefix("name = "))?;
            Some((name.trim_matches('"').replace('-', "_"), dir))
        })
        .collect();
    let design = include_str!("../DESIGN.md");
    let start = design.find("\n## 3. ").unwrap();
    let end = start + design[start..].find("\n## 4. ").unwrap();
    let rows = design[start..end].lines().filter(|l| l.starts_with('|'));
    let mut dangling = Vec::new();
    for path in rows.flat_map(|row| row.split('`').skip(1).step_by(2)) {
        let Some((krate, rest)) = path.split_once("::") else {
            continue;
        };
        let Some(dir) = dirs.get(krate) else {
            dangling.push(path.to_string());
            continue;
        };
        let rest = rest.trim_start_matches('{').trim_end_matches('}');
        for module_path in rest.split(',').map(str::trim) {
            let mut segments = module_path.split("::");
            let module = segments.next().unwrap();
            if module == "*" {
                continue;
            }
            let file = dir.join(format!("src/{module}.rs"));
            let subdir = dir.join(format!("src/{module}"));
            let mut source = fs::read_to_string(&file).unwrap_or_default();
            if let Ok(entries) = fs::read_dir(&subdir) {
                for entry in entries {
                    source += &fs::read_to_string(entry.unwrap().path()).unwrap_or_default();
                }
            }
            let declared = |item: &str| {
                ["fn", "struct", "enum", "trait", "mod", "const", "type"]
                    .iter()
                    .any(|kw| {
                        let decl = format!("{kw} {item}");
                        source.match_indices(&decl).any(|(at, _)| {
                            let next = source[at + decl.len()..].chars().next();
                            !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
                        })
                    })
            };
            let resolves = file.is_file() || subdir.is_dir();
            if !resolves || segments.next().is_some_and(|item| !declared(item)) {
                dangling.push(format!("{krate}::{module_path}"));
            }
        }
    }
    assert!(dangling.is_empty(), "DESIGN §3 names {dangling:?}");
}

/// The metric catalog is closed. A session writes only series `names.rs`
/// declares (plus the two stage series), DESIGN §8 lists every declared
/// name in full, and whatever a session writes outside the process-scoped
/// families (storage, cache, scribe, ETL, chaos) carries the `job` label
/// the tuner filters on.
#[test]
fn metric_catalog_is_closed_and_session_series_carry_job() {
    use dsi::prelude::*;
    let catalog: Vec<&str> = include_str!("../crates/obs/src/names.rs")
        .split("pub const ")
        .skip(1)
        .filter_map(|item| item.split('"').nth(1))
        .filter(|name| name.starts_with("dsi_"))
        .collect();
    assert!(catalog.len() >= 70, "parsed {} names", catalog.len());
    let design = include_str!("../DESIGN.md");
    let section = &design[design.find("\n## 8. ").unwrap()..design.find("\n## 9. ").unwrap()];
    for name in &catalog {
        assert!(
            section.contains(&format!("`{name}`")),
            "DESIGN §8 does not list {name}"
        );
    }

    let table = Table::create(
        TectonicCluster::new(ClusterConfig::small()),
        TableConfig::new(TableId(1), "catalog"),
    )
    .unwrap();
    let rows = (0..256u64).map(|i| {
        let mut s = Sample::new((i % 2) as f32);
        s.set_dense(FeatureId(1), i as f32);
        s.set_sparse(FeatureId(2), SparseList::from_ids(vec![i % 10]));
        s
    });
    table
        .write_partition(PartitionId::new(0), rows.collect())
        .unwrap();
    let spec = SessionSpec::builder(SessionId(1))
        .partitions(PartitionId::new(0)..PartitionId::new(1))
        .projection(Projection::new(vec![FeatureId(1), FeatureId(2)]))
        .plan(TransformPlan::new(vec![TransformOp::SigridHash {
            input: FeatureId(2),
            salt: 1,
            modulus: 97,
        }]))
        .batch_size(32)
        .dense_ids(vec![FeatureId(1)])
        .sparse_ids(vec![FeatureId(2)])
        .read_ahead(1)
        .transport(Transport::Tcp(WireConfig::encrypted(7)))
        .build();
    let reg = Registry::new();
    let session = DppSession::launch_observed_chaos(table, spec, 2, Some(&reg), None).unwrap();
    let mut trainer = LiveTrainer::new(session.client(), 1_000_000.0).with_registry(&reg);
    assert_eq!(trainer.train(u64::MAX, 0).1, 256);
    session.shutdown();

    let process_scoped = [
        "dsi_tectonic_",
        "dsi_cache_",
        "dsi_storage_node_",
        "dsi_scribe_",
        "dsi_etl_",
        "dsi_chaos_",
    ];
    let series = reg.snapshot();
    assert!(series.len() > 30, "the session wrote {}", series.len());
    for (key, _) in series {
        let name = key.name.as_str();
        let stage_series = [dsi::obs::STAGE_SECONDS, dsi::obs::STAGE_CYCLES_TOTAL];
        assert!(
            catalog.contains(&name) || stage_series.contains(&name),
            "{name} is not in names.rs"
        );
        assert!(
            process_scoped.iter().any(|p| name.starts_with(p))
                || key.labels.iter().any(|(k, v)| k == "job" && v == "sess1"),
            "{name}{:?} carries no job",
            key.labels
        );
    }
}
