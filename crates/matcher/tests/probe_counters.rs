//! The verifier's work counters (`matcher.probe.touched`,
//! `matcher.probe.tail_walks`, `matcher.probe.merges`) on a Product cross
//! join. They live in the process-global metrics registry, so this file
//! holds a single test: no other matcher run can add to them meanwhile.

use crowdjoin_matcher::{generate_candidates, MatcherConfig};
use crowdjoin_obs::metrics::MetricValue;
use crowdjoin_obs::{reset_metrics, snapshot_metrics, NO_SHARD};
use crowdjoin_records::{generate_product, ProductGenConfig};

fn counter(name: &str) -> u64 {
    snapshot_metrics().into_iter().find(|m| m.name == name && m.shard == NO_SHARD).map_or(0, |m| {
        match m.value {
            MetricValue::Counter(v) => v,
            other => panic!("{name} is not a counter: {other:?}"),
        }
    })
}

#[test]
fn probe_counters_bound_each_other_on_a_product_join() {
    let dataset = generate_product(&ProductGenConfig::scaled(1_000));
    let config = MatcherConfig {
        min_likelihood: 0.5,
        field_weights: vec![1.0, 0.25],
        threads: 2,
        ..MatcherConfig::for_arity(2)
    };
    reset_metrics();
    let candidates = generate_candidates(&dataset, &config);
    let touched = counter("matcher.probe.touched");
    let tail_walks = counter("matcher.probe.tail_walks");
    let merges = counter("matcher.probe.merges");
    assert!(0 < tail_walks && tail_walks <= touched, "tail walks {tail_walks}, touched {touched}");
    assert!(merges <= touched, "merges {merges}, touched {touched}");
    assert!(
        !candidates.is_empty() && candidates.len() as u64 <= touched,
        "candidates {}, touched {touched}",
        candidates.len()
    );
    // Counters are published once per worker, so a second identical run
    // exactly doubles them.
    let again = generate_candidates(&dataset, &config);
    assert_eq!(again.len(), candidates.len());
    assert_eq!(counter("matcher.probe.touched"), 2 * touched);
    assert_eq!(counter("matcher.probe.tail_walks"), 2 * tail_walks);
    assert_eq!(counter("matcher.probe.merges"), 2 * merges);
    reset_metrics();
}
