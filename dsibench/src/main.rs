//! `dsibench`: one end-to-end benchmark of the DSI pipeline.
//!
//! ```text
//! dsibench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of standard output is
//!     the result object the benchmark contract asks for
//! dsibench run [--workload <name>] [--seed <n>] [--seconds <s>]
//!     every workload (or one), each in a fresh process, end-to-end run
//!     then traced run; prints every metric by name with its unit
//! dsibench list
//!     workloads and metrics with units, directions and bounds, read from
//!     BENCHMARK.json
//! ```

mod catalog;
mod fingerprint;
mod host;
mod ingest;
mod inputs;
mod json;
mod outcome;
mod span;
mod stats;
mod timing;
mod train;
mod waterfall;

use catalog::{BenchmarkFile, Kind, WorkloadDef, BENCHMARK_JSON, END_TO_END, PER_LAYER, WORKLOADS};
use host::HostFingerprint;
use json::{quote, Value};
use outcome::{Outcome, RunArgs};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

const DEFAULT_SEED: u64 = 0xd51;

fn run_workload(def: &WorkloadDef, args: &RunArgs) -> Outcome {
    match &def.kind {
        Kind::Train(shape) => train::run(def, shape, args),
        Kind::Ingest(shape) => ingest::run(def, shape, args),
    }
}

/// Where the trace and the full result of a run are written: cargo's
/// target directory when it is known, `target` otherwise. Both are inside
/// the checkout the benchmark was started from.
fn output_dir() -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    base.join("dsibench")
}

#[derive(Debug, Default)]
struct Cli {
    command: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                cli.seed = Some(parse_seed(&v).ok_or_else(|| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {v} is out of range"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--smoke" => cli.smoke = true,
            "run" | "list" if cli.command.is_none() => cli.command = Some(arg.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &cli.workload {
        if catalog::workload(name).is_none() {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name:?}; known: {}",
                known.join(", ")
            ));
        }
    }
    Ok(cli)
}

/// The result object of the benchmark contract: exactly `correct`,
/// `attempted`, `failed` and `metrics`, on one line.
fn contract_line(outcome: &Outcome, trace: bool) -> String {
    let (defs, required) = if trace {
        (PER_LAYER, false)
    } else {
        (END_TO_END, true)
    };
    let metrics: Vec<String> = outcome
        .metrics_in_order(defs, required)
        .iter()
        .map(|(def, value)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(def.name),
                json_number(*value),
                quote(def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

/// A float with all its digits; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Everything about a run, for a reader comparing two commits: host and
/// input fingerprint, facts, every metric.
fn full_result_json(
    def: &WorkloadDef,
    args: &RunArgs,
    host: &HostFingerprint,
    outcome: &Outcome,
) -> String {
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = outcome
        .metrics_in_order(defs, false)
        .iter()
        .map(|(d, v)| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}}}",
                quote(d.name),
                json_number(*v),
                quote(d.unit)
            )
        })
        .collect();
    let facts: Vec<String> = outcome
        .facts
        .iter()
        .map(|(k, v)| format!("    {}: {}", quote(k), quote(v)))
        .collect();
    let problems: Vec<String> = outcome.problems.iter().map(|p| quote(p)).collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"nproc\": {},\n  \
         \"rustc\": {},\n  \"commit\": {},\n  \"correct\": {},\n  \"ops\": {},\n  \"failed_ops\": {},\n  \
         \"problems\": [{}],\n  \"facts\": {{\n{}\n  }},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        quote(def.name),
        args.seed,
        args.seconds,
        args.trace,
        host.nproc,
        quote(&host.rustc),
        quote(&host.commit),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        problems.join(", "),
        facts.join(",\n"),
        metrics.join(",\n"),
    )
}

/// One workload in this process.
fn run_single(def: &WorkloadDef, args: &RunArgs) -> ExitCode {
    let host = HostFingerprint::capture();
    println!(
        "dsibench {} seed={:#x} seconds={} trace={} nproc={} rustc={:?} commit={}",
        def.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        host.rustc,
        host.commit
    );
    println!("  {}", def.why);
    let outcome = run_workload(def, args);
    for (key, value) in &outcome.facts {
        println!("  {key} = {value}");
    }
    println!(
        "  ops = {}  failed_ops = {}",
        outcome.attempted, outcome.failed
    );
    for problem in &outcome.problems {
        println!("  PROBLEM: {problem}");
    }
    let dir = output_dir();
    let kind = if args.trace { "layers" } else { "end_to_end" };
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        if let Some(trace) = &outcome.trace_json {
            std::fs::write(dir.join(format!("{}.trace.json", def.name)), trace)?;
        }
        std::fs::write(
            dir.join(format!("{}.{kind}.json", def.name)),
            full_result_json(def, args, &host, &outcome),
        )
    });
    match written {
        Ok(()) => println!("  results and trace under {}", dir.display()),
        Err(e) => eprintln!("dsibench: could not write under {}: {e}", dir.display()),
    }
    println!("{}", contract_line(&outcome, args.trace));
    ExitCode::SUCCESS
}

/// Runs `args` in a fresh process of this executable, so peak memory does
/// not leak from one workload to the next. Relays its report and returns
/// the parsed result line.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    json::parse(last).map_err(|e| format!("{workload} printed no result: {e}"))
}

fn print_result(result: &Value) -> bool {
    let correct = result.get("correct") == Some(&Value::Bool(true));
    if let Some(Value::Object(metrics)) = result.get("metrics") {
        // Catalog order, not the parser's alphabetical one.
        for def in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(m) = metrics.get(def.name) {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                println!(
                    "    {:<34} {:>18.6} {:<10} ({} is better)",
                    def.name,
                    value,
                    def.unit,
                    def.better.as_str()
                );
            }
        }
    }
    correct
}

/// Every workload (or one), end-to-end run then traced run.
fn run_all(only: Option<&str>, seed: u64, seconds: f64) -> ExitCode {
    let started = Instant::now();
    let mut all_correct = true;
    for def in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|name| name == w.name))
    {
        for trace in [false, true] {
            match run_child(def.name, seed, seconds, trace) {
                Ok(result) => all_correct &= print_result(&result),
                Err(e) => {
                    eprintln!("dsibench: {e}");
                    all_correct = false;
                }
            }
        }
    }
    println!(
        "whole set: {:.1} s wall, {}",
        started.elapsed().as_secs_f64(),
        if all_correct {
            "all correct"
        } else {
            "NOT all correct"
        }
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list() -> ExitCode {
    let file = match BenchmarkFile::parse(BENCHMARK_JSON) {
        Ok(file) => file,
        Err(e) => {
            eprintln!("dsibench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("run_seconds: {}", file.run_seconds);
    println!("workloads:");
    for (name, why) in &file.workloads {
        println!("  {name:<18} {why}");
    }
    for (title, metrics) in [
        ("end_to_end", &file.end_to_end),
        ("per_layer", &file.per_layer),
    ] {
        println!("{title}:");
        for m in metrics {
            let bound = m.bound.map_or(String::new(), |b| {
                format!("  may worsen by {:.0}%", 100.0 * b)
            });
            println!(
                "  {:<34} {:<10} {} is better{bound}",
                m.name, m.unit, m.better
            );
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("dsibench: {e}\nusage: dsibench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       dsibench run [--workload <name>] [--seed <n>] [--seconds <s>]\n       dsibench list");
            return ExitCode::from(2);
        }
    };
    let default_seconds =
        || BenchmarkFile::parse(BENCHMARK_JSON).map_or(10.0, |f| f.run_seconds as f64);
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    match cli.command.as_deref() {
        Some("list") => list(),
        Some("run") => run_all(
            cli.workload.as_deref(),
            seed,
            cli.seconds.unwrap_or_else(default_seconds),
        ),
        _ => {
            let Some(def) = cli.workload.as_deref().and_then(catalog::workload) else {
                eprintln!("dsibench: --workload is required");
                return ExitCode::from(2);
            };
            run_single(
                def,
                &RunArgs {
                    seed,
                    seconds: cli.seconds.unwrap_or_else(default_seconds),
                    trace: cli.trace.unwrap_or(false),
                    smoke: cli.smoke,
                },
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(trace: bool) -> RunArgs {
        RunArgs {
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace,
            smoke: true,
        }
    }

    #[test]
    fn smoke_run_of_every_workload_has_no_failed_ops() {
        for def in WORKLOADS {
            for trace in [false, true] {
                let outcome = run_workload(def, &smoke(trace));
                assert!(outcome.attempted > 0, "{} did nothing", def.name);
                assert_eq!(
                    outcome.failed, 0,
                    "{} trace={trace}: {:?}",
                    def.name, outcome.problems
                );
                // Layer shares of a shrunken, unoptimized run mean nothing,
                // but the replay must still mirror the worker and sum up.
                assert!(
                    outcome.problems.iter().all(|p| p.contains("hold")),
                    "{} trace={trace}: {:?}",
                    def.name,
                    outcome.problems
                );
                let line = contract_line(&outcome, trace);
                let parsed = json::parse(&line).expect("the result line is JSON");
                let Some(Value::Object(metrics)) = parsed.get("metrics") else {
                    panic!("no metrics object in {line}");
                };
                let expected = if trace { PER_LAYER } else { END_TO_END };
                let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
                let mut own: Vec<&str> = expected.iter().map(|m| m.name).collect();
                own.sort_unstable();
                assert_eq!(names, own);
                if !trace {
                    for (name, m) in metrics {
                        let v = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                        assert!(v > 0.0, "{}: end-to-end metric {name} is {v}", def.name);
                    }
                }
            }
        }
    }

    #[test]
    fn cli_accepts_the_contract_and_rejects_nonsense() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let cli = parse_cli(&args("--workload ingest --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("ingest"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace),
            (Some(7), Some(10.0), Some(true))
        );
        assert_eq!(
            parse_cli(&args("run --seed 0xd51")).unwrap().seed,
            Some(0xd51)
        );
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds -1",
            "--seed",
            "frobnicate",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad}");
        }
    }
}
