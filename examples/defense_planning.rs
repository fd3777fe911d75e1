//! The Fig. 5(a) use case: AS-based attack filtering at an SDN ingress.
//!
//! The source-distribution model (§V) predicts which ASes the next
//! attack's bots will come from; the control plane installs classification
//! rules for the top predicted ASes so matching flows detour through
//! scrubbing. This example measures how much of each real test attack the
//! predicted rules catch, against a random-rule baseline with the same
//! TCAM budget.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example defense_planning
//! ```

use ddos_adversary::model::features::FeatureExtractor;
use ddos_adversary::model::spatial::{SourceDistributionModel, SpatialConfig};
use ddos_adversary::model::usecases::AsFilteringSimulator;
use ddos_adversary::trace::{CorpusConfig, TraceGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = TraceGenerator::new(CorpusConfig::small(), 11).generate()?;
    let family = corpus.catalog().most_active(1)[0];
    let name = &corpus.catalog().profile(family)?.name;
    let attacks = corpus.family_attacks(family);
    let cut = (attacks.len() as f64 * 0.8) as usize;
    let (train, test) = (attacks[..cut].to_vec(), attacks[cut..].to_vec());

    println!("{name}: {} training attacks, {} test attacks", train.len(), test.len());

    // Fit the per-AS share model and predict each test attack's source
    // distribution one step ahead.
    let model = SourceDistributionModel::fit(
        &FeatureExtractor::new(&corpus),
        &train,
        &SpatialConfig::fast(),
        11,
    )?;
    let predictions = model.predict_distribution(&test)?;
    println!("tracking the family's top {} source ASes", model.asns().len());

    // Replay: install rules for the top-K predicted ASes per attack.
    const RULE_BUDGET: usize = 3;
    let sim = AsFilteringSimulator::new();
    let universe: Vec<_> = corpus.topology().asns().collect();
    let mut rng = StdRng::seed_from_u64(99);

    let mut predicted_cov = 0.0;
    let mut random_cov = 0.0;
    for (attack, dist) in test.iter().zip(&predictions) {
        let ranked: Vec<_> = model.asns().iter().copied().zip(dist.iter().copied()).collect();
        predicted_cov += sim.apply_predicted(&ranked, RULE_BUDGET, attack).coverage;
        random_cov += sim.apply_random(&universe, RULE_BUDGET, attack, &mut rng).coverage;
    }
    predicted_cov /= test.len() as f64;
    random_cov /= test.len() as f64;

    println!("\nmean attack-traffic coverage with {RULE_BUDGET} filter rules:");
    println!("  prediction-driven rules  {:>5.1}%", predicted_cov * 100.0);
    println!("  random rules             {:>5.1}%", random_cov * 100.0);
    println!(
        "\npredicted source distributions let the same TCAM budget scrub {:.0}x more \
         attack traffic",
        predicted_cov / random_cov.max(1e-6)
    );
    Ok(())
}
