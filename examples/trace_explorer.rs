//! Corpus exploration: the measurement-study views of §II–III.
//!
//! Walks a generated corpus the way the paper's measurement sections do —
//! activity levels (Table I), the inter-launch CDF and multistage chains
//! (§III-A2) — and exports the flat CSV file a notebook would plot.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example trace_explorer
//! ```

use ddos_adversary::trace::chains::{band_coverage, inter_launch_cdf, reconstruct_chains};
use ddos_adversary::trace::export::attacks_to_csv;
use ddos_adversary::trace::stats::{mean_concurrent_attacks, ActivityTable};
use ddos_adversary::trace::{CorpusConfig, TraceGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = TraceGenerator::new(CorpusConfig::small(), 31).generate()?;
    println!(
        "corpus: {} verified attacks / {} days / {} families / {} target ASes",
        corpus.len(),
        corpus.days(),
        corpus.catalog().len(),
        corpus.target_asns().len()
    );
    println!("mean concurrent attacks per active hour: {:.1}\n", mean_concurrent_attacks(&corpus));

    // Table I view.
    println!("{}", ActivityTable::compute(&corpus)?);

    // §III-A2: inter-launch CDF and multistage chains.
    let cdf = inter_launch_cdf(&corpus, 6)?;
    println!("inter-launch time CDF (decimated):");
    for (gap, frac) in cdf {
        println!("  {:>9.0}s  {:>5.1}%", gap, frac * 100.0);
    }
    let chains = reconstruct_chains(&corpus)?;
    println!(
        "\nmultistage chains: {} chains, {:.0}% of attacks chained, mean length {:.1}, max {}",
        chains.chains.len(),
        chains.chained_fraction * 100.0,
        chains.mean_length,
        chains.max_length
    );
    println!(
        "the 30 s – 24 h band covers {:.0}% of consecutive same-target gaps",
        band_coverage(&corpus) * 100.0
    );

    // Export for notebooks.
    let out = std::env::temp_dir().join("ddos_adversary_attacks.csv");
    std::fs::write(&out, attacks_to_csv(&corpus))?;
    println!("\nwrote the attack table to {}", out.display());
    Ok(())
}
