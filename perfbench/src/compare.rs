//! `perfbench compare <set-a> <set-b>`: two sets of saved runs side by
//! side, judged against the bounds in `BENCHMARK.json`.
//!
//! A set is a directory holding one file per run: that run's standard
//! output, as `perfbench --workload …` printed it. For every workload ×
//! metric the table gives each side's median and quartiles, how many
//! runs of b beat the run of a with the same seed, and a verdict:
//!
//! * `unresolved` — either side's spread (quartile distance over median)
//!   exceeds the bound, so the sets cannot tell a change from noise,
//!   unless every run of b beats every run of a (`better, every run`);
//! * `REGRESSION` — b's median is worse than a's by more than the bound;
//! * `within bound` — otherwise.
//!
//! Per-layer metrics have no bound and get no verdict. Exits 1 when any
//! end-to-end metric regressed.

use crate::json;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// How an end-to-end metric is judged.
struct Bound {
    lower_is_better: bool,
    /// Share of a's median by which b may be worse.
    share: f64,
}

/// One saved run.
struct Run {
    workload: String,
    seed: Option<String>,
    /// In the order the run printed them.
    metrics: Vec<(String, f64)>,
}

impl Run {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

pub fn run(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: perfbench compare <set-a> <set-b>");
        return ExitCode::from(2);
    };
    match compare(a, b) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn bounds() -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let bench = json::parse(&text)?;
    let metrics = bench.get("end_to_end").and_then(json::Value::as_array).ok_or("no end_to_end")?;
    metrics
        .iter()
        .map(|m| {
            let name =
                m.get("name").and_then(json::Value::as_str).ok_or("a metric without name")?;
            let share =
                m.get("bound").and_then(json::Value::as_f64).ok_or("a metric without bound")?;
            let better =
                m.get("better").and_then(json::Value::as_str).ok_or("a metric without better")?;
            Ok((name.to_string(), Bound { lower_is_better: better == "lower", share }))
        })
        .collect()
}

fn load_set(dir: &str) -> Result<Vec<Run>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    let mut files: Vec<PathBuf> =
        entries.filter_map(Result::ok).map(|e| e.path()).filter(|p| p.is_file()).collect();
    files.sort();
    files.iter().map(PathBuf::as_path).map(load_run).collect()
}

fn load_run(path: &Path) -> Result<Run, String> {
    let shown = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{shown}: {e}"))?;
    let field = |prefix: &str| text.lines().find_map(|l| l.strip_prefix(prefix));
    let workload = field("# workload: ").ok_or(format!("{shown}: no '# workload:' line"))?;
    let seed = field("# seed: ").and_then(|s| s.split_whitespace().next()).map(str::to_string);
    let last =
        text.lines().rev().find(|l| !l.trim().is_empty()).ok_or(format!("{shown}: empty"))?;
    let result = json::parse(last).map_err(|e| format!("{shown}: result line: {e}"))?;
    let metrics = result
        .get("metrics")
        .and_then(json::Value::as_object)
        .ok_or(format!("{shown}: result line has no metrics"))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Run { workload: workload.to_string(), seed, metrics })
}

/// Prints the comparison; returns whether any end-to-end metric regressed.
fn compare(dir_a: &str, dir_b: &str) -> Result<bool, String> {
    let bounds = bounds()?;
    let (set_a, set_b) = (load_set(dir_a)?, load_set(dir_b)?);
    let mut workloads: Vec<&str> = Vec::new();
    for run in set_a.iter().chain(&set_b) {
        if !workloads.contains(&run.workload.as_str()) {
            workloads.push(&run.workload);
        }
    }
    println!(
        "{:<16} {:<32} {:>34} {:>34} {:>7}  verdict",
        "workload", "metric", "a: median [q1, q3] (n)", "b: median [q1, q3] (n)", "b wins"
    );
    let mut regressed = false;
    for workload in workloads {
        let runs_a: Vec<&Run> = set_a.iter().filter(|r| r.workload == workload).collect();
        let runs_b: Vec<&Run> = set_b.iter().filter(|r| r.workload == workload).collect();
        let mut names: Vec<&str> = Vec::new();
        for (name, _) in runs_a.iter().chain(&runs_b).flat_map(|r| &r.metrics) {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
        for name in names {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.metric(name)).collect()
            };
            let (a, b) = (values(&runs_a), values(&runs_b));
            if a.is_empty() || b.is_empty() {
                println!("{workload:<16} {name:<32} missing from one set");
                continue;
            }
            let (wins, verdict) = match bounds.get(name) {
                Some(bound) => {
                    let (wins, pairs) = wins(&runs_a, &runs_b, name, bound);
                    let verdict = verdict(&a, &b, bound);
                    regressed |= verdict.starts_with("REGRESSION");
                    (format!("{wins}/{pairs}"), verdict)
                }
                None => ("-".to_string(), "-".to_string()),
            };
            println!(
                "{workload:<16} {name:<32} {:>34} {:>34} {wins:>7}  {verdict}",
                summary(&a),
                summary(&b)
            );
        }
    }
    Ok(regressed)
}

fn better(x: f64, than: f64, bound: &Bound) -> bool {
    if bound.lower_is_better {
        x < than
    } else {
        x > than
    }
}

/// Runs of b that beat the run of a with the same seed, out of the pairs
/// found; runs pair by position when the sets share no seed.
fn wins(runs_a: &[&Run], runs_b: &[&Run], name: &str, bound: &Bound) -> (usize, usize) {
    let by_seed: Vec<(f64, f64)> = runs_b
        .iter()
        .filter_map(|rb| {
            let ra = runs_a.iter().find(|ra| ra.seed.is_some() && ra.seed == rb.seed)?;
            Some((ra.metric(name)?, rb.metric(name)?))
        })
        .collect();
    let pairs = if by_seed.is_empty() {
        runs_a
            .iter()
            .zip(runs_b)
            .filter_map(|(ra, rb)| Some((ra.metric(name)?, rb.metric(name)?)))
            .collect()
    } else {
        by_seed
    };
    (pairs.iter().filter(|(a, b)| better(*b, *a, bound)).count(), pairs.len())
}

/// Quartile distance as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    let (q1, q3) = quartiles(values).unwrap_or((m, m));
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> String {
    let (ma, mb) = (median(a), median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse_by = if bound.lower_is_better { change } else { -change };
    if spread(a) > bound.share || spread(b) > bound.share {
        let every = b.iter().all(|&y| a.iter().all(|&x| better(y, x, bound)));
        return if every { "better, every run".into() } else { "unresolved".into() };
    }
    let percent = 100.0 * change;
    if worse_by > bound.share {
        format!("REGRESSION ({percent:+.1}%, bound {:.0}%)", 100.0 * bound.share)
    } else {
        format!("within bound ({percent:+.1}%)")
    }
}

fn summary(values: &[f64]) -> String {
    let m = median(values);
    let (q1, q3) = quartiles(values).unwrap_or((m, m));
    format!("{} [{}, {}] ({})", sig(m), sig(q1), sig(q3), values.len())
}

/// Four significant digits.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound { lower_is_better: true, share: 0.1 };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert!(verdict(&a, &[10.5, 10.4, 10.6, 10.5], &LOWER).starts_with("within bound"));
        assert!(verdict(&a, &[12.0, 12.1, 11.9, 12.0], &LOWER).starts_with("REGRESSION"));
        // Higher is better: the same numbers are a gain.
        let higher = Bound { lower_is_better: false, share: 0.1 };
        assert!(verdict(&a, &[12.0, 12.1, 11.9, 12.0], &higher).starts_with("within bound"));
        // Noisy sets cannot resolve a 5% change...
        let noisy = [5.0, 15.0, 10.0, 20.0];
        assert_eq!(verdict(&noisy, &[10.5, 10.4, 10.6, 10.5], &LOWER), "unresolved");
        // ...unless every run of b beats every run of a.
        assert_eq!(verdict(&noisy, &[1.0, 2.0, 3.0, 4.0], &LOWER), "better, every run");
    }

    #[test]
    fn wins_pair_runs_by_seed() {
        let run = |seed: &str, v: f64| Run {
            workload: "w".into(),
            seed: Some(seed.into()),
            metrics: vec![("m".to_string(), v)],
        };
        let a = [run("1", 10.0), run("2", 20.0)];
        let b = [run("2", 15.0), run("1", 12.0)];
        let (ra, rb): (Vec<&Run>, Vec<&Run>) = (a.iter().collect(), b.iter().collect());
        // Seed 2: 15 beats 20; seed 1: 12 loses to 10.
        assert_eq!(wins(&ra, &rb, "m", &LOWER), (1, 2));
    }

    #[test]
    fn sig_keeps_four_significant_digits() {
        assert_eq!(sig(1234.5678), "1235");
        assert_eq!(sig(1.234567), "1.235");
        assert_eq!(sig(0.00123456), "0.001235");
    }
}
