//! CLI regenerating every table and figure of the paper.
//!
//! ```sh
//! # everything at the default (medium) scale
//! cargo run --release -p ddos-bench --bin experiments
//!
//! # one artifact, any scale
//! cargo run --release -p ddos-bench --bin experiments -- fig3 --scale standard --seed 42
//! ```
//!
//! Artifacts: `table1`, `cdf` (the §III-A2 inter-launch CDF), `fig1`,
//! `fig2`, `fig3` (includes Fig. 4), `comparison`, `zoo` (the extended
//! §VII-A forecaster ladder), `drift` (E9: regime-switching scenario
//! degradation and refit recovery), `usecases`, `all`.
//! Pass `--csv DIR` to also dump the figure data as flat CSV files.

use ddos_bench::{
    comparison, corpus, drift, dump_csv, fig1, fig2, fig3_fig4, multistage_cdf, table1, usecases,
    zoo, Scale,
};

/// Every experiment name `main` dispatches on.
const EXPERIMENTS: [&str; 11] = [
    "table1",
    "cdf",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "comparison",
    "zoo",
    "drift",
    "usecases",
    "all",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut what = "all".to_string();
    let mut scale = Scale::Medium;
    let mut seed = 42u64;
    let mut csv_dir: Option<std::path::PathBuf> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                scale = Scale::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown scale {v:?}; use small|medium|standard");
                    std::process::exit(2);
                });
            }
            "--csv" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                if v.is_empty() {
                    eprintln!("--csv needs a directory");
                    std::process::exit(2);
                }
                csv_dir = Some(std::path::PathBuf::from(v));
            }
            "--seed" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad seed {v:?}");
                    std::process::exit(2);
                });
            }
            other if !other.starts_with('-') => what = other.to_string(),
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    // Refuse a misspelt experiment before paying for the corpus.
    if !EXPERIMENTS.contains(&what.as_str()) {
        unknown_experiment(&what);
    }

    eprintln!("generating corpus (scale {scale:?}, seed {seed})...");
    let started = std::time::Instant::now();
    let c = corpus(scale, seed);
    eprintln!("corpus ready: {} attacks in {:.1?}\n", c.attacks().len(), started.elapsed());

    let sep = "=".repeat(74);
    let run = |name: &str, text: String| {
        println!("{sep}\n{text}");
        eprintln!("[{name} done at {:.1?}]", started.elapsed());
    };

    if let Some(dir) = &csv_dir {
        match dump_csv(&c, seed, dir) {
            Ok(files) => eprintln!("wrote {} CSV files to {}", files.len(), dir.display()),
            Err(e) => {
                eprintln!("CSV dump failed: {e}");
                std::process::exit(1);
            }
        }
    }

    match what.as_str() {
        "table1" => run("table1", table1(&c)),
        "fig1" => run("fig1", fig1(&c, seed)),
        "fig2" => run("fig2", fig2(&c, seed)),
        "fig3" | "fig4" => run("fig3", fig3_fig4(&c, seed).0),
        "cdf" => run("cdf", multistage_cdf(&c)),
        "comparison" => run("comparison", comparison(&c, seed).0),
        "zoo" => run("zoo", zoo(&c, seed)),
        "drift" => run("drift", drift(seed)),
        "usecases" => run("usecases", usecases(&c, seed)),
        "all" => {
            run("table1", table1(&c));
            run("cdf", multistage_cdf(&c));
            run("fig1", fig1(&c, seed));
            run("fig2", fig2(&c, seed));
            run("fig3+fig4", fig3_fig4(&c, seed).0);
            run("comparison", comparison(&c, seed).0);
            run("zoo", zoo(&c, seed));
            run("drift", drift(seed));
            run("usecases", usecases(&c, seed));
        }
        other => unknown_experiment(other),
    }
}

fn unknown_experiment(name: &str) -> ! {
    eprintln!("unknown experiment {name:?}; use {}", EXPERIMENTS.join("|"));
    std::process::exit(2)
}
