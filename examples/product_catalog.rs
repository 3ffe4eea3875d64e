//! Joining two retailer catalogs on a simulated crowdsourcing platform —
//! the Abt-Buy scenario from the paper's introduction: two collections of
//! product records, where "iPad 2nd Gen" on one site and "iPad Two" on the
//! other are the same product.
//!
//! Unlike `publication_dedup` this drives a full discrete-event crowd
//! platform (HIT batching, three assignments per HIT, majority vote, noisy
//! workers, qualification tests) and compares the transitive parallel
//! labeler against the publish-everything baseline on money, time, and
//! quality.
//!
//! ```bash
//! cargo run --release -p crowdjoin --example product_catalog
//! ```

use crowdjoin::matcher::MatcherConfig;
use crowdjoin::records::{generate_product, ClusterSpec, PerturbConfig, ProductGenConfig};
use crowdjoin::sim::{Platform, PlatformConfig};
use crowdjoin::{
    ground_truth_of, publish_in_waves, run_parallel_on_platform, sort_pairs, to_candidate_set,
    QualityMetrics, SortStrategy,
};

fn main() {
    // Two catalogs of ~400 products each; most matched products appear once
    // per site, and a solid tail of multi-listing products (sizes 3-5)
    // gives transitivity something to deduce.
    let dataset = generate_product(&ProductGenConfig {
        table_a: 400,
        table_b: 410,
        clusters: ClusterSpec::Explicit(vec![(2, 150), (3, 90), (4, 40), (5, 14)]),
        perturb: PerturbConfig::heavy(),
        seed: 99,
    });
    println!(
        "catalogs: {} x {} records, cross join of {} pairs",
        400,
        410,
        dataset.total_join_pairs()
    );

    let matcher = MatcherConfig { field_weights: vec![1.0, 0.25], ..MatcherConfig::for_arity(2) };
    let raw = crowdjoin::matcher::generate_candidates(&dataset, &matcher);
    let candidates = to_candidate_set(&dataset, &raw).above_threshold(0.2);
    let truth = ground_truth_of(&dataset);
    println!("machine stage kept {} candidate pairs at threshold 0.2\n", candidates.len());

    let order = sort_pairs(&candidates, SortStrategy::ExpectedLikelihood);

    // Arm 1: prior work — publish every candidate pair in one wave.
    let p1 = Platform::new(PlatformConfig::amt_like(5));
    let baseline = publish_in_waves(candidates.pairs(), &truth, p1, candidates.len());
    let q1 = QualityMetrics::of_result(&baseline.result, &truth);

    // Arm 2: transitive parallel labeling with instant decision.
    let p2 = Platform::new(PlatformConfig::amt_like(5));
    let transitive = run_parallel_on_platform(candidates.num_objects(), order, &truth, p2, true);
    let q2 = QualityMetrics::of_result(&transitive.result, &truth);

    println!("                 |    HITs |    cost | completion | quality");
    println!(
        "non-transitive   | {:>7} | {:>6}¢ | {:>9.1}h | {}",
        baseline.stats.hits_published,
        baseline.stats.total_cost_cents,
        baseline.completion.as_hours(),
        q1
    );
    println!(
        "transitive (par) | {:>7} | {:>6}¢ | {:>9.1}h | {}",
        transitive.stats.hits_published,
        transitive.stats.total_cost_cents,
        transitive.completion.as_hours(),
        q2
    );
    println!(
        "\ntransitive labeling crowdsourced {} pairs and deduced {} for free \
         ({} majority-vote conflicts resolved by deduction)",
        transitive.result.num_crowdsourced(),
        transitive.result.num_deduced(),
        transitive.result.num_conflicts()
    );
}
