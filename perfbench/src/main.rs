//! perfbench — the repository's end-to-end benchmark.
//!
//! Four workloads (the paper loop, a scenario stream, serving at
//! capacity, and sliding-window refits), each timed from outside through
//! the crates' public functions and checked for correct output. Run from
//! the repository root:
//!
//! ```sh
//! # one workload, with the command in BENCHMARK.json
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-loop --seed 42 --seconds 20 --trace 0
//! # every workload, each in its own process; --trace 1 adds the traced reruns
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --seed 42 --trace 1
//! # two sets of saved runs against the bounds in BENCHMARK.json
//! cargo run --release --manifest-path perfbench/Cargo.toml -- compare runs/a runs/b
//! ```
//!
//! A run prints its record (`# ` lines: host and its pace, toolchain,
//! commit, command, seed, sample counts, unscaled values), one
//! `<workload> <metric> <value> <unit>` line per metric, and last a JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

mod compare;
mod json;
mod stats;
mod workloads;
mod yardstick;

use std::process::{Command, ExitCode, Stdio};
use workloads::{Outcome, Params, Sizes, Workload, CORPUS_SEED};
use yardstick::REFERENCE_MS;

const USAGE: &str =
    "usage: perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n       \
                     perfbench compare <set-a> <set-b>";

/// Length of the timed phase when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// End-to-end metrics (name, unit), reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// Per-layer metrics (name, unit), reported by every traced run. The
/// `traced.*` entries repeat the end-to-end metrics as measured with
/// tracing on; a layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traced.setup_s", "s"),
    ("traced.peak_rss_mib", "MiB"),
    ("traced.throughput", "1/s"),
    ("traced.p50_ms", "ms"),
    ("traced.tail_ms", "ms"),
    ("stages.covered_pct", "%"),
    ("trace.generate_s", "s"),
    ("trace.records", "count"),
    ("trace.bots_per_record", "bots/record"),
    ("trace.stream.next_pct", "%"),
    ("trace.columnar.push_pct", "%"),
    ("trace.columnar.bytes_per_record", "B/record"),
    ("core.features.eq4_pct", "%"),
    ("core.features.eq4_attacks", "count"),
    ("core.temporal.fit_pct", "%"),
    ("core.temporal.serve_pct", "%"),
    ("core.spatial.fit_pct", "%"),
    ("core.spatial.serve_pct", "%"),
    ("core.spatiotemporal.fit_pct", "%"),
    ("core.spatiotemporal.serve_pct", "%"),
    ("core.spatiotemporal.design_pct", "%"),
    ("core.spatiotemporal.trees_pct", "%"),
    ("core.spatiotemporal.design_rows", "count"),
    ("core.artifact.encode_pct", "%"),
    ("core.artifact.decode_pct", "%"),
    ("core.artifact.bytes", "B"),
    ("serve.store.publish_pct", "%"),
    ("serve.store.load_cold_pct", "%"),
    ("serve.score_pct", "%"),
    ("serve.submit_pct", "%"),
    ("serve.batch.mean_len", "count"),
    ("serve.batch.flushes", "count"),
    ("serve.rejected", "count"),
];

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli { workload: None, seed: 42, seconds: DEFAULT_SECONDS, trace: false };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    let w =
                        Workload::parse(value).ok_or_else(|| format!("no workload {value:?}"))?;
                    cli.workload = Some(w);
                }
                "--seed" => cli.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
                "--seconds" => {
                    cli.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?;
                }
                "--trace" => {
                    cli.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(cli)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::run(&args[1..]);
    }
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.workload {
        Some(workload) => run_one(workload, &cli, &args),
        None => run_all(&cli),
    }
}

/// Runs one workload in this process and prints its record, metrics and
/// the JSON result line.
fn run_one(workload: Workload, cli: &Cli, args: &[String]) -> ExitCode {
    let params =
        Params { seed: cli.seed, seconds: cli.seconds, trace: cli.trace, sizes: Sizes::full() };
    print_record(workload, args, cli.seed);
    let outcome = match workloads::run(workload, &params) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} could not be set up: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    print_pace(&outcome);
    for note in &outcome.notes {
        println!("# {note}");
    }
    let end_to_end = end_to_end(&outcome);
    let metrics = if cli.trace { per_layer(&outcome, &end_to_end) } else { end_to_end };
    for (name, value, unit) in &metrics {
        println!("{} {name} {value} {unit}", workload.name());
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!("{}", result_json(correct, outcome.attempted, outcome.failed, &metrics));
    ExitCode::SUCCESS
}

type Metric = (String, f64, &'static str);

fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let setup_s: Vec<f64> = o.setups.iter().map(|t| t.scaled()).collect();
    let peak_rss_mib = peak_rss_mib(o.pacer.resident_bytes());
    let values = [stats::median(&setup_s), peak_rss_mib, o.throughput, o.p50_ms, o.tail_ms];
    END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name.to_string(), v, unit)).collect()
}

fn per_layer(o: &Outcome, end_to_end: &[Metric]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name.strip_prefix("traced.") {
                Some(e2e) => end_to_end.iter().find(|m| m.0 == e2e).map_or(0.0, |m| m.1),
                None => o.layers.get(name).copied().unwrap_or(0.0),
            };
            (name.to_string(), value, unit)
        })
        .collect()
}

/// The result line. Values print with every digit Rust's shortest
/// round-trip formatting gives; a non-finite value (no samples) prints
/// as 0 and the run is marked incorrect.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.1.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && finite,
        body.join(", ")
    )
}

fn print_record(workload: Workload, args: &[String], seed: u64) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    println!("# workload: {}", workload.name());
    println!("# command: perfbench {}", args.join(" "));
    println!("# seed: {seed} (corpus seed {CORPUS_SEED})");
    println!("# host: nproc={nproc} cpu={cpu}");
    println!("# rustc: {}", first_line_of("rustc", &["-V"]));
    println!("# commit: {}", first_line_of("git", &["rev-parse", "HEAD"]));
}

/// First line `program args` prints, or `unknown`. Git looks for a
/// repository in the working directory only, never above it.
fn first_line_of(program: &str, args: &[&str]) -> String {
    let mut command = Command::new(program);
    command.args(args).stdin(Stdio::null()).stderr(Stdio::null());
    if let Some(parent) =
        std::env::current_dir().ok().and_then(|d| d.parent().map(std::path::Path::to_path_buf))
    {
        command.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// How fast the host ran, and the set-up time before scaling.
fn print_pace(o: &Outcome) {
    let passes = &o.pacer.passes_ms;
    let paces: Vec<f64> = o.setups.iter().map(|t| t.pace).collect();
    let setup_s: Vec<f64> = o.setups.iter().map(|t| t.secs).collect();
    println!(
        "# pace: yardstick median {:.2} ms over {} passes (reference {REFERENCE_MS} ms); \
         set-up pace {:.3}; unscaled: setup_s={}",
        stats::median(passes),
        passes.len(),
        stats::median(&paces),
        stats::median(&setup_s)
    );
}

/// Peak resident set (`VmHWM`) of this process less the yardstick's
/// `yardstick_bytes`, MiB; 0 where `/proc` is unavailable.
fn peak_rss_mib(yardstick_bytes: usize) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| (kib / 1024.0 - yardstick_bytes as f64 / (1 << 20) as f64).max(0.0))
}

/// Runs every workload, each in a child process so memory peaks,
/// allocator state and lazy caches stay apart, and forwards what each
/// prints. With `--trace 1` each workload also runs traced, followed by
/// the tracing overhead of every end-to-end metric.
fn run_all(cli: &Cli) -> ExitCode {
    let mut all_ok = true;
    for workload in Workload::ALL {
        let untraced = child(workload, cli, false);
        let traced = if cli.trace { Some(child(workload, cli, true)) } else { None };
        match (untraced, traced) {
            (Ok(plain), None) => all_ok &= is_correct(&plain),
            (Ok(plain), Some(Ok(traced))) => {
                all_ok &= is_correct(&plain) && is_correct(&traced);
                for (name, unit) in END_TO_END {
                    let value = |v: &json::Value, key: &str| {
                        v.get("metrics")
                            .and_then(|m| m.get(key))
                            .and_then(|m| m.get("value"))?
                            .as_f64()
                    };
                    if let (Some(a), Some(b)) =
                        (value(&plain, name), value(&traced, &format!("traced.{name}")))
                    {
                        println!("{} trace_overhead.{name} {} {unit}", workload.name(), b - a);
                    }
                }
            }
            (Err(e), _) | (_, Some(Err(e))) => {
                eprintln!("perfbench: {}: {e}", workload.name());
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn is_correct(result: &json::Value) -> bool {
    result.get("correct") == Some(&json::Value::Bool(true))
}

/// Runs one workload in a child process, forwards its output except the
/// result line, and returns the parsed result line.
fn child(workload: Workload, cli: &Cli, trace: bool) -> Result<json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    println!("{body}");
    if !output.status.success() {
        return Err(format!("exited with {}", output.status));
    }
    json::parse(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    fn toy(trace: bool) -> Params {
        Params { seed: 7, seconds: 0.2, trace, sizes: Sizes::toy() }
    }

    fn names_and_units(list: &json::Value) -> Vec<(String, String)> {
        list.as_array()
            .expect("a metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(json::Value::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// Runs a workload at toy size, untraced and traced: it must finish
    /// with every operation correct and set only per-layer metrics that
    /// the harness reports.
    fn completes_at_toy_size(workload: Workload) {
        for trace in [false, true] {
            let outcome = workloads::run(workload, &toy(trace)).expect("set-up");
            assert!(outcome.attempted > 0, "{workload:?} attempted nothing");
            assert_eq!(outcome.failed, 0, "{workload:?} failed operations");
            assert!(outcome.p50_ms > 0.0 && outcome.tail_ms >= outcome.p50_ms);
            assert!(outcome.throughput > 0.0 && !outcome.setups.is_empty());
            assert_eq!(outcome.layers.is_empty(), !trace);
            for name in outcome.layers.keys() {
                assert!(PER_LAYER.iter().any(|(n, _)| n == name), "unlisted layer metric {name}");
            }
        }
    }

    #[test]
    fn paper_loop_completes_at_toy_size() {
        completes_at_toy_size(Workload::PaperLoop);
    }

    #[test]
    fn scenario_stream_completes_at_toy_size() {
        completes_at_toy_size(Workload::ScenarioStream);
    }

    #[test]
    fn serve_sat_completes_at_toy_size() {
        completes_at_toy_size(Workload::ServeSat);
    }

    #[test]
    fn st_refit_completes_at_toy_size() {
        completes_at_toy_size(Workload::StRefit);
    }

    #[test]
    fn benchmark_json_lists_what_the_harness_emits() {
        let bench = json::parse(BENCHMARK).expect("BENCHMARK.json parses");
        let listed = |key: &str| names_and_units(bench.get(key).expect(key));
        let emitted = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), emitted(&END_TO_END));
        assert_eq!(listed("per_layer"), emitted(PER_LAYER));
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(json::Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn metric_and_workload_names_are_well_formed() {
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .chain(Workload::ALL.map(Workload::name));
        for name in names {
            let ok = name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(ok, "malformed name {name:?}");
        }
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let metrics =
            vec![("p50_ms".to_string(), 1.25, "ms"), ("setup_s".to_string(), f64::NAN, "s")];
        let line = json::parse(&result_json(true, 3, 0, &metrics)).expect("valid JSON");
        assert_eq!(line.get("attempted").and_then(json::Value::as_f64), Some(3.0));
        // A metric with no samples cannot pass as correct.
        assert_eq!(line.get("correct"), Some(&json::Value::Bool(false)));
        let p50 = line.get("metrics").and_then(|m| m.get("p50_ms")).and_then(|m| m.get("value"));
        assert_eq!(p50.and_then(json::Value::as_f64), Some(1.25));
    }

    #[test]
    fn cli_rejects_what_the_contract_does_not_allow() {
        let parse =
            |s: &str| Cli::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let cli = parse("--workload st-refit --seed 9 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (cli.workload, cli.seed, cli.seconds, cli.trace),
            (Some(Workload::StRefit), 9, 10.0, true)
        );
        for bad in ["--workload nope", "--trace 2", "--seconds 0", "--seed", "--bogus 1"] {
            assert!(parse(bad).is_err(), "{bad} was accepted");
        }
    }
}
