//! Event-loop engine tests: the non-blocking `ShardTask` event loop must
//! drive ≥1000 shards to outcomes **bit-identical** at 1, 2 and 4 worker
//! threads (labels, provenance, crowdsourced counts, money, per-shard stats,
//! completion time and publish rounds), on synthetic and generated
//! workloads.

use crowdjoin::matcher::MatcherConfig;
use crowdjoin::records::{
    generate_paper, generate_product, ClusterSpec, PaperGenConfig, PerturbConfig, ProductGenConfig,
};
use crowdjoin::sim::PlatformConfig;
use crowdjoin::{
    build_task, sort_pairs, CandidateSet, Engine, EngineConfig, EngineReport, GroundTruth, Pair,
    ScoredPair, SortStrategy,
};

fn run_engine(
    num_objects: usize,
    order: &[ScoredPair],
    truth: &GroundTruth,
    platform: &PlatformConfig,
    engine: &EngineConfig,
) -> EngineReport {
    Engine::new(num_objects, order, truth, platform, engine.clone()).run().expect("unjournaled run")
}

/// 1200 disjoint triangle components (3600 objects). Even components are a
/// true 3-cluster, odd components are all-distinct — the latter force a
/// second publish round, so the event loop has to interleave rounds across
/// shards, not just drain them once.
fn thousand_component_workload() -> (usize, Vec<ScoredPair>, GroundTruth) {
    let num_components = 1200;
    let num_objects = 3 * num_components;
    let mut entity: Vec<u32> = (0..num_objects as u32).collect();
    let mut pairs = Vec::with_capacity(3 * num_components);
    for c in 0..num_components {
        let base = (3 * c) as u32;
        if c % 2 == 0 {
            entity[base as usize + 1] = base;
            entity[base as usize + 2] = base;
        }
        let l = 0.95 - (c % 9) as f64 * 0.03;
        pairs.push(ScoredPair::new(Pair::new(base, base + 1), l));
        pairs.push(ScoredPair::new(Pair::new(base + 1, base + 2), l - 0.01));
        pairs.push(ScoredPair::new(Pair::new(base, base + 2), l - 0.02));
    }
    (num_objects, pairs, GroundTruth::new(entity))
}

fn paper_workload() -> (CandidateSet, GroundTruth, Vec<ScoredPair>) {
    let dataset = generate_paper(&PaperGenConfig {
        num_records: 300,
        clusters: ClusterSpec::PowerLaw { alpha: 1.9, max_size: 20, force_max: true },
        perturb: PerturbConfig::light(),
        sibling_probability: 0.2,
        seed: 20130622,
    });
    let (task, truth) = build_task(&dataset, &MatcherConfig::for_arity(5), 0.3);
    let candidates = task.candidates().clone();
    let order = sort_pairs(&candidates, SortStrategy::ExpectedLikelihood);
    (candidates, truth, order)
}

fn product_workload() -> (CandidateSet, GroundTruth, Vec<ScoredPair>) {
    let dataset = generate_product(&ProductGenConfig {
        table_a: 150,
        table_b: 150,
        clusters: ClusterSpec::Explicit(vec![(2, 90), (3, 20), (4, 6), (5, 2), (6, 1)]),
        ..ProductGenConfig::default()
    });
    let matcher = MatcherConfig { field_weights: vec![1.0, 0.25], ..MatcherConfig::for_arity(2) };
    let (task, truth) = build_task(&dataset, &matcher, 0.3);
    let candidates = task.candidates().clone();
    let order = sort_pairs(&candidates, SortStrategy::ExpectedLikelihood);
    (candidates, truth, order)
}

/// The same job at every listed worker-thread count must agree *exactly*
/// with the single-threaded run, shard report for shard report: labels,
/// provenance, stats, completion, publish rounds and round telemetry.
/// Returns the single-threaded report.
fn assert_thread_count_invariant(
    num_objects: usize,
    order: &[ScoredPair],
    truth: &GroundTruth,
    platform: &PlatformConfig,
    engine: &EngineConfig,
    threads: &[usize],
) -> EngineReport {
    let run = |num_threads| {
        let engine = EngineConfig { num_threads, ..engine.clone() };
        run_engine(num_objects, order, truth, platform, &engine)
    };
    let reference = run(1);
    for &num_threads in threads {
        let other = run(num_threads);
        assert_eq!(other.num_shards(), reference.num_shards());
        for (a, b) in other.shards.iter().zip(&reference.shards) {
            assert_eq!(a, b, "{num_threads} threads: shard {} diverged", b.shard);
        }
        assert_eq!(other.result, reference.result, "{num_threads} threads: merged result");
        assert_eq!(other.completion, reference.completion);
    }
    reference
}

/// The acceptance bar: ≥1000 shards multiplexed over 2 (and 4) worker
/// threads, with every per-shard report identical to the single-threaded
/// run — and correct against ground truth.
#[test]
fn thousand_shards_on_two_threads_match_thread_per_shard() {
    let (num_objects, order, truth) = thousand_component_workload();
    let engine = EngineConfig { num_shards: 1200, seed: 5, ..EngineConfig::default() };
    let platform = PlatformConfig::perfect_workers(13);
    let report =
        assert_thread_count_invariant(num_objects, &order, &truth, &platform, &engine, &[2, 4]);
    assert_eq!(report.num_shards(), 1200, "every component must become a shard");
    assert_eq!(report.result.num_labeled(), order.len());
    for sp in &order {
        assert_eq!(report.result.label_of(sp.pair), Some(truth.label_of(sp.pair)));
    }
    // Odd (all-distinct) components need a second round for their held-back
    // third pair, so the loop genuinely interleaves rounds across shards.
    assert!(report.critical_path_rounds() >= 2);
}

/// Generated Paper and Product workloads, perfect and noisy crowds: 1 and 2
/// worker threads must agree bit for bit (noisy answers included —
/// per-shard platform seeds do not depend on scheduling).
#[test]
fn event_loop_matches_thread_per_shard_on_generated_workloads() {
    let paper = paper_workload();
    let product = product_workload();
    for (candidates, truth, order) in [&paper, &product] {
        for shards in [1usize, 8] {
            let engine = EngineConfig {
                num_shards: shards,
                num_threads: 2,
                seed: 7,
                ..EngineConfig::default()
            };
            assert_thread_count_invariant(
                candidates.num_objects(),
                order,
                truth,
                &PlatformConfig::perfect_workers(11),
                &engine,
                &[2],
            );
            // Noisy arm: a bigger crowd so an 8-way split still leaves every
            // shard enough qualification-passing workers to resolve HITs.
            assert_thread_count_invariant(
                candidates.num_objects(),
                order,
                truth,
                &PlatformConfig { num_workers: 160, ..PlatformConfig::amt_like(23) },
                &engine,
                &[2],
            );
        }
    }
}
