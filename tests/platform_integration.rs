//! Integration of the labeling framework with the discrete-event crowd
//! platform: cost accounting, completion-time ordering, and quality under
//! noise.

use crowdjoin::matcher::MatcherConfig;
use crowdjoin::records::{generate_paper, ClusterSpec, PaperGenConfig, PerturbConfig};
use crowdjoin::sim::{Platform, PlatformConfig};
use crowdjoin::{
    build_task, publish_in_waves, run_parallel_on_platform, sort_pairs, Provenance, QualityMetrics,
    ScoredPair, SortStrategy,
};

fn workload() -> (crowdjoin::LabelingTask, crowdjoin::GroundTruth) {
    let ds = generate_paper(&PaperGenConfig {
        num_records: 150,
        clusters: ClusterSpec::PowerLaw { alpha: 1.9, max_size: 25, force_max: true },
        perturb: PerturbConfig::heavy(),
        sibling_probability: 0.3,
        seed: 77,
    });
    build_task(&ds, &MatcherConfig::for_arity(5), 0.3)
}

#[test]
fn perfect_platform_run_is_exact() {
    let (task, truth) = workload();
    let order = sort_pairs(task.candidates(), SortStrategy::ExpectedLikelihood);
    let config = PlatformConfig::perfect_workers(1);
    let report = run_parallel_on_platform(
        task.candidates().num_objects(),
        order,
        &truth,
        Platform::new(config.clone()),
        true,
    );
    assert_eq!(report.result.num_labeled(), task.candidates().len());
    assert_eq!(report.result.num_conflicts(), 0);
    let q = QualityMetrics::of_result(&report.result, &truth);
    assert_eq!(q.f_measure(), 1.0);
    // Cost accounting: every crowdsourced pair sits in exactly one HIT slot;
    // HITs are at most batch-size pairs.
    let batch = config.batch_size;
    let min_hits = report.result.num_crowdsourced().div_ceil(batch);
    assert!(report.stats.hits_published >= min_hits);
    assert_eq!(
        report.stats.total_cost_cents,
        report.stats.assignments_completed as u64 * 2,
        "2 cents per assignment"
    );
}

#[test]
fn transitive_is_cheaper_than_non_transitive_on_platform() {
    let (task, truth) = workload();
    let order = sort_pairs(task.candidates(), SortStrategy::ExpectedLikelihood);

    let p1 = Platform::new(PlatformConfig::perfect_workers(2));
    let transitive =
        run_parallel_on_platform(task.candidates().num_objects(), order, &truth, p1, true);
    let pairs = task.candidates().pairs();
    let p2 = Platform::new(PlatformConfig::perfect_workers(2));
    let baseline = publish_in_waves(pairs, &truth, p2, pairs.len());

    assert!(
        transitive.stats.total_cost_cents < baseline.stats.total_cost_cents,
        "transitive {}¢ should undercut baseline {}¢",
        transitive.stats.total_cost_cents,
        baseline.stats.total_cost_cents
    );
    assert!(transitive.stats.hits_published < baseline.stats.hits_published);
}

#[test]
fn sequential_replay_slower_parallel_same_cost() {
    let (task, truth) = workload();
    let order = sort_pairs(task.candidates(), SortStrategy::ExpectedLikelihood);
    let par = run_parallel_on_platform(
        task.candidates().num_objects(),
        order.clone(),
        &truth,
        Platform::new(PlatformConfig::perfect_workers(3)),
        true,
    );
    let crowdsourced: Vec<ScoredPair> = order
        .iter()
        .copied()
        .filter(|sp| par.result.provenance_of(sp.pair) == Some(Provenance::Crowdsourced))
        .collect();
    let p2 = Platform::new(PlatformConfig::perfect_workers(3));
    let seq = publish_in_waves(&crowdsourced, &truth, p2, 20);

    assert_eq!(seq.result.num_crowdsourced(), par.result.num_crowdsourced());
    assert!(
        seq.completion.as_hours() > 1.5 * par.completion.as_hours(),
        "sequential {:.2}h vs parallel {:.2}h",
        seq.completion.as_hours(),
        par.completion.as_hours()
    );
}

#[test]
fn noisy_platform_quality_degrades_gracefully() {
    let (task, truth) = workload();
    let order = sort_pairs(task.candidates(), SortStrategy::ExpectedLikelihood);
    let report = run_parallel_on_platform(
        task.candidates().num_objects(),
        order,
        &truth,
        Platform::new(PlatformConfig::amt_like(4)),
        true,
    );
    assert_eq!(report.result.num_labeled(), task.candidates().len());
    let q = QualityMetrics::of_result(&report.result, &truth);
    assert!(q.f_measure() > 0.6, "F collapsed to {:.3}", q.f_measure());
    assert!(q.f_measure() < 1.0, "noise should cost something");
}

#[test]
fn instant_decision_and_plain_parallel_same_final_labels() {
    let (task, truth) = workload();
    let order = sort_pairs(task.candidates(), SortStrategy::ExpectedLikelihood);
    let plain = run_parallel_on_platform(
        task.candidates().num_objects(),
        order.clone(),
        &truth,
        Platform::new(PlatformConfig::perfect_workers(6)),
        false,
    );
    let p2 = Platform::new(PlatformConfig::perfect_workers(6));
    let id = run_parallel_on_platform(task.candidates().num_objects(), order, &truth, p2, true);
    for sp in task.candidates().pairs() {
        assert_eq!(plain.result.label_of(sp.pair), id.result.label_of(sp.pair));
    }
}

#[test]
fn deterministic_reports_per_seed() {
    let (task, truth) = workload();
    let order = sort_pairs(task.candidates(), SortStrategy::ExpectedLikelihood);
    let run = |seed: u64| {
        let r = run_parallel_on_platform(
            task.candidates().num_objects(),
            order.clone(),
            &truth,
            Platform::new(PlatformConfig::amt_like(seed)),
            true,
        );
        (r.result.num_crowdsourced(), r.completion, r.stats.hits_published)
    };
    assert_eq!(run(11), run(11));
}
