//! Event-loop engine tests: the non-blocking `ShardTask` event loop must
//! drive ≥1000 shards to outcomes **bit-identical** at 1, 2 and 4 worker
//! threads (labels, provenance, crowdsourced counts, money, per-shard stats,
//! completion time and publish rounds), on synthetic and generated
//! workloads; and dynamic re-sharding must stay label-correct while
//! merging shards as components collapse.

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
    assert_eq!(reference.reshard_generations, 0);
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

/// Dynamic re-sharding: with a perfect crowd the merged generations must
/// still label every pair correctly, run deterministically, never lose or
/// double-count money, and actually merge (components collapse early, so
/// later generations pack fewer shards).
#[test]
fn resharding_stays_correct_and_merges_shards() {
    let (candidates, truth, order) = paper_workload();
    let platform = PlatformConfig::perfect_workers(11);
    let engine = EngineConfig {
        num_shards: 8,
        num_threads: 2,
        seed: 7,
        reshard: true,
        ..EngineConfig::default()
    };
    let run = || run_engine(candidates.num_objects(), &order, &truth, &platform, &engine);
    let report = run();

    assert_eq!(report.result.num_labeled(), order.len());
    for sp in candidates.pairs() {
        assert_eq!(
            report.result.label_of(sp.pair),
            Some(truth.label_of(sp.pair)),
            "re-sharded label wrong on {}",
            sp.pair
        );
    }
    assert!(report.reshard_generations >= 1, "round boundaries must trigger re-sharding");
    // Generations run strictly one after another (each barrier waits for
    // every shard), so the critical-path round count chains across them
    // instead of resetting per incarnation.
    assert!(
        report.critical_path_rounds() > report.reshard_generations,
        "{} rounds cannot cover {} sequential generations",
        report.critical_path_rounds(),
        report.reshard_generations
    );
    // Retired + merged incarnations both report; money is the sum of every
    // platform that ran and is internally consistent.
    assert!(report.num_shards() > 8, "retired generations must keep their reports");
    let stats_cost: u64 =
        report.shards.iter().filter_map(|s| s.stats.as_ref()).map(|st| st.total_cost_cents).sum();
    assert_eq!(report.total_cost_cents, stats_cost);

    // Against the same config without re-sharding: merging can only reduce
    // the crowd bill (shared HITs across merged shards; answers are never
    // re-asked) and must not change any label.
    let baseline = run_engine(
        candidates.num_objects(),
        &order,
        &truth,
        &platform,
        &EngineConfig { reshard: false, ..engine.clone() },
    );
    for sp in candidates.pairs() {
        assert_eq!(report.result.label_of(sp.pair), baseline.result.label_of(sp.pair));
    }
    assert!(
        report.result.num_crowdsourced() <= baseline.result.num_crowdsourced(),
        "re-sharding never asks more questions ({} vs {})",
        report.result.num_crowdsourced(),
        baseline.result.num_crowdsourced()
    );

    // Determinism: a second run is bit-identical.
    let again = run();
    assert_eq!(report.total_cost_cents, again.total_cost_cents);
    assert_eq!(report.completion, again.completion);
    assert_eq!(report.reshard_generations, again.reshard_generations);
    for sp in candidates.pairs() {
        assert_eq!(report.result.label_of(sp.pair), again.result.label_of(sp.pair));
    }
}

/// The re-sharded working set shrinks monotonically: later generations run
/// fewer shards, visible as fewer live platforms and less partial-HIT
/// fragmentation on a many-shard workload.
#[test]
fn resharding_reduces_partial_hit_waste_on_many_small_shards() {
    let (num_objects, order, truth) = thousand_component_workload();
    let platform = PlatformConfig::perfect_workers(29);
    let base =
        EngineConfig { num_shards: 1200, num_threads: 2, seed: 3, ..EngineConfig::default() };
    let plain = run_engine(num_objects, &order, &truth, &platform, &base);
    let merged = run_engine(
        num_objects,
        &order,
        &truth,
        &platform,
        &EngineConfig { reshard: true, ..base.clone() },
    );
    for sp in &order {
        assert_eq!(merged.result.label_of(sp.pair), Some(truth.label_of(sp.pair)));
    }
    assert!(merged.reshard_generations >= 1);
    assert!(
        merged.partial_hit_waste() < plain.partial_hit_waste(),
        "merging 600 second-round singleton batches into shared HITs must cut waste \
         (merged {:.3} vs plain {:.3})",
        merged.partial_hit_waste(),
        plain.partial_hit_waste()
    );
    assert!(
        merged.total_cost_cents < plain.total_cost_cents,
        "fewer HITs must cost less (merged {}¢ vs plain {}¢)",
        merged.total_cost_cents,
        plain.total_cost_cents
    );
}
