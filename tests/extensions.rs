//! Integration tests for the extension features (Section 8 future-work
//! items): entity-cluster extraction and one-to-one constraints, composed
//! over the full pipeline.

use crowdjoin::matcher::MatcherConfig;
use crowdjoin::records::{
    generate_paper, generate_product, ClusterSpec, PaperGenConfig, PerturbConfig, ProductGenConfig,
};
use crowdjoin::{
    build_task, enforce_one_to_one, ground_truth_of, resolve_entities, sort_pairs,
    to_candidate_set, GroundTruthOracle, Label, QualityMetrics, ScoredPair, SortStrategy,
};

#[test]
fn resolution_recovers_generated_entities() {
    let ds = generate_paper(&PaperGenConfig {
        num_records: 120,
        clusters: ClusterSpec::PowerLaw { alpha: 1.9, max_size: 20, force_max: true },
        perturb: PerturbConfig::light(),
        sibling_probability: 0.2,
        seed: 404,
    });
    // A low threshold so the candidate set covers (essentially) all true
    // pairs — light perturbation keeps duplicates similar.
    let (task, truth) = build_task(&ds, &MatcherConfig::for_arity(5), 0.15);
    let mut crowd = GroundTruthOracle::new(&truth);
    let result = task.run_sequential(SortStrategy::ExpectedLikelihood, &mut crowd);
    let resolution = resolve_entities(ds.len(), &result);
    assert!(resolution.is_consistent());

    // Compare the resolved clustering against the generated truth pairwise
    // over candidate pairs: perfect oracle ⇒ no false merges.
    let assignment = resolution.as_assignment(ds.len());
    for sp in task.candidates().pairs() {
        assert_eq!(assignment.is_matching(sp.pair), truth.is_matching(sp.pair));
    }
    // The resolution can't invent entities: every resolved cluster is a
    // subset of one true cluster (perfect answers).
    for cluster in &resolution.clusters {
        let first = truth.entity_of(cluster[0]);
        for &o in cluster {
            assert_eq!(truth.entity_of(o), first, "false merge in cluster {cluster:?}");
        }
    }
}

#[test]
fn one_to_one_cleanup_improves_noisy_cross_join_precision() {
    let ds = generate_product(&ProductGenConfig {
        table_a: 150,
        table_b: 150,
        clusters: ClusterSpec::Explicit(vec![(2, 120)]),
        perturb: PerturbConfig::light(),
        seed: 1234,
    });
    let truth = ground_truth_of(&ds);
    let matcher = MatcherConfig { field_weights: vec![1.0, 0.25], ..MatcherConfig::for_arity(2) };
    let raw = crowdjoin::matcher::generate_candidates(&ds, &matcher);
    let candidates = to_candidate_set(&ds, &raw).above_threshold(0.2);

    // A noisy crowd produces some false matches; with strictly 1:1 truth,
    // every record has at most one true partner, so one-to-one cleanup can
    // only remove errors.
    let order = sort_pairs(&candidates, SortStrategy::ExpectedLikelihood);
    let mut crowd = crowdjoin::core::NoisyOracle::new(&truth, 0.15, 99);
    let result = crowdjoin::label_sequential(candidates.num_objects(), &order, &mut crowd);

    let matches: Vec<ScoredPair> = order
        .iter()
        .copied()
        .filter(|sp| result.label_of(sp.pair) == Some(Label::Matching))
        .collect();
    let before =
        QualityMetrics::evaluate(matches.iter().map(|sp| (sp.pair, Label::Matching)), &truth);
    let cleaned = enforce_one_to_one(&matches);
    let after =
        QualityMetrics::evaluate(cleaned.kept.iter().map(|sp| (sp.pair, Label::Matching)), &truth);
    assert!(
        after.precision() >= before.precision(),
        "cleanup lowered precision: {:.3} -> {:.3}",
        before.precision(),
        after.precision()
    );
    // All kept pairs are endpoint-disjoint.
    let mut used = std::collections::BTreeSet::new();
    for sp in &cleaned.kept {
        assert!(used.insert(sp.pair.a()) && used.insert(sp.pair.b()));
    }
}
