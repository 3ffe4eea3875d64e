//! Sharded-engine scaling: wall-clock of the full labeling job at 1, 2, 4,
//! and 8 shards on a generated 5k-record Product dataset (the Abt-Buy
//! stand-in), plus the labeler alone, without partition or scheduler.
//!
//! Candidate generation runs once outside the timing loops; the benchmark
//! measures the execution engine itself (partitioning, scheduling, labeling,
//! deduction, merging).

use criterion::{criterion_group, BenchmarkId, Criterion};
use crowdjoin::engine::SharedGroundTruth;
use crowdjoin::matcher::MatcherConfig;
use crowdjoin::sim::PlatformConfig;
use crowdjoin::{
    build_task, run_parallel_rounds, sort_pairs, CandidateSet, Engine, EngineConfig, EngineReport,
    GroundTruth, GroundTruthOracle, ScoredPair, SortStrategy,
};
use crowdjoin_bench::measure;
use std::hint::black_box;

/// 5k-record product workload: the default Figure 10(b) cluster mix scaled
/// ×2.6 to fill 2×2500 records (shared with `BENCH_matcher.json` via
/// `crowdjoin_bench::product_5k_dataset`).
fn product_5k() -> (CandidateSet, GroundTruth, Vec<ScoredPair>) {
    let dataset = crowdjoin_bench::product_5k_dataset();
    let matcher = MatcherConfig { field_weights: vec![1.0, 0.25], ..MatcherConfig::for_arity(2) };
    let (task, truth) = build_task(&dataset, &matcher, 0.3);
    let candidates = task.candidates().clone();
    let order = sort_pairs(&candidates, SortStrategy::ExpectedLikelihood);
    (candidates, truth, order)
}

/// One unjournaled engine job on simulated platforms.
fn platform_run(
    candidates: &CandidateSet,
    order: &[ScoredPair],
    truth: &GroundTruth,
    platform: &PlatformConfig,
    cfg: &EngineConfig,
) -> EngineReport {
    Engine::new(candidates.num_objects(), order, truth, platform, cfg.clone())
        .run()
        .expect("unjournaled run")
}

fn bench_shard_scaling(c: &mut Criterion) {
    let (candidates, truth, order) = product_5k();
    println!(
        "engine bench workload: {} records, {} candidate pairs",
        candidates.num_objects(),
        candidates.len()
    );

    let mut group = c.benchmark_group("engine/product_5k_shards");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, &shards| {
            let cfg = EngineConfig { num_shards: shards, ..EngineConfig::default() };
            b.iter(|| {
                let oracle = SharedGroundTruth::new(&truth);
                let report = crowdjoin::run_sharded_with_oracle(
                    candidates.num_objects(),
                    &order,
                    &oracle,
                    &cfg,
                );
                black_box(report.result.num_crowdsourced())
            });
        });
    }
    group.finish();

    // The platform-driven event loop.
    let mut group = c.benchmark_group("engine/product_5k_platform_drivers");
    group.sample_size(10);
    let platform = PlatformConfig::perfect_workers(7);
    let platform_cfg = EngineConfig { num_shards: 8, seed: 3, ..EngineConfig::default() };
    group.bench_function("event_loop", |b| {
        b.iter(|| {
            let report = platform_run(&candidates, &order, &truth, &platform, &platform_cfg);
            black_box(report.total_cost_cents)
        });
    });
    group.finish();

    // Reference arm: the one labeler (`ParallelLabeler`, the same code
    // every shard runs) over the whole order, without partition or
    // scheduler, on the same workload.
    let mut group = c.benchmark_group("engine/product_5k_core_labeler");
    group.sample_size(10);
    group.bench_function("run_parallel_rounds", |b| {
        b.iter(|| {
            let mut oracle = GroundTruthOracle::new(&truth);
            let (result, _) =
                run_parallel_rounds(candidates.num_objects(), order.clone(), &mut oracle);
            black_box(result.num_crowdsourced())
        });
    });
    group.finish();

    // Headline summary: median-of-5 wall-clock for the labeler alone vs the
    // engine at 1 and 8 shards, with explicit speedups.
    let median = |f: &mut dyn FnMut() -> usize| {
        let mut times: Vec<f64> = (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                black_box(f());
                t.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    let t_core = median(&mut || {
        let mut oracle = GroundTruthOracle::new(&truth);
        run_parallel_rounds(candidates.num_objects(), order.clone(), &mut oracle)
            .0
            .num_crowdsourced()
    });
    let engine_time = |shards: usize| {
        let cfg = EngineConfig { num_shards: shards, ..EngineConfig::default() };
        median(&mut || {
            let oracle = SharedGroundTruth::new(&truth);
            crowdjoin::run_sharded_with_oracle(candidates.num_objects(), &order, &oracle, &cfg)
                .result
                .num_crowdsourced()
        })
    };
    let t1 = engine_time(1);
    let t8 = engine_time(8);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("\nengine summary ({cores} core(s) available):");
    println!("  labeler alone (no partition/scheduler): {:>8.2} ms", t_core * 1e3);
    println!("  engine, 1 shard:                        {:>9.2} ms", t1 * 1e3);
    println!("  engine, 8 shards:                       {:>9.2} ms", t8 * 1e3);
    println!("  speedup engine@8 vs labeler alone:      {:>9.2}x", t_core / t8);
    println!("  speedup engine@8 vs engine@1:           {:>9.2}x", t1 / t8);
}

/// One measured arm of the machine-readable benchmark output.
struct BenchArm {
    name: &'static str,
    shards: usize,
    wall_ms: f64,
    crowdsourced: usize,
    deduced: usize,
    /// Partial-HIT waste (platform arms only).
    waste: Option<f64>,
}

/// Writes `BENCH_engine.json`: the perf numbers (workload, shards, wall
/// ms, crowdsourced/deduced counts, partial-HIT waste) in a stable schema
/// so the trajectory is trackable across PRs. Runs as part of
/// `cargo bench -p crowdjoin-bench --bench engine`; override the output
/// path with `CROWDJOIN_BENCH_JSON`.
fn emit_machine_readable() {
    use crowdjoin_bench::json::BenchJson;
    use crowdjoin_util::json::{js_f64, js_opt_f64, js_str};
    let (candidates, truth, order) = product_5k();
    let mut arms: Vec<BenchArm> = Vec::new();

    let (wall_ms, result) = measure(5, || {
        let mut oracle = GroundTruthOracle::new(&truth);
        run_parallel_rounds(candidates.num_objects(), order.clone(), &mut oracle).0
    });
    arms.push(BenchArm {
        name: "core_labeler",
        shards: 1,
        wall_ms,
        crowdsourced: result.num_crowdsourced(),
        deduced: result.num_deduced(),
        waste: None,
    });

    for shards in [1usize, 8] {
        let cfg = EngineConfig { num_shards: shards, ..EngineConfig::default() };
        let (wall_ms, report) = measure(5, || {
            let oracle = SharedGroundTruth::new(&truth);
            crowdjoin::run_sharded_with_oracle(candidates.num_objects(), &order, &oracle, &cfg)
        });
        arms.push(BenchArm {
            name: "oracle_event_loop",
            shards,
            wall_ms,
            crowdsourced: report.num_crowdsourced(),
            deduced: report.num_deduced(),
            waste: None,
        });
    }

    let platform = PlatformConfig::perfect_workers(7);
    let cfg = EngineConfig { num_shards: 8, seed: 3, ..EngineConfig::default() };
    let (wall_ms, report) =
        measure(3, || platform_run(&candidates, &order, &truth, &platform, &cfg));
    arms.push(BenchArm {
        name: "engine_platform_event_loop",
        shards: 8,
        wall_ms,
        crowdsourced: report.num_crowdsourced(),
        deduced: report.num_deduced(),
        waste: Some(report.partial_hit_waste()),
    });

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut json = BenchJson::new("crowdjoin-bench-engine/3");
    json.field("cores", cores.to_string());
    json.field(
        "workload",
        format!(
            "{{\"name\": \"product_5k\", \"records\": {}, \"candidate_pairs\": {}}}",
            candidates.num_objects(),
            candidates.len()
        ),
    );
    for arm in &arms {
        json.arm(vec![
            ("name", js_str(arm.name)),
            ("shards", arm.shards.to_string()),
            ("wall_ms", js_f64(arm.wall_ms, 3)),
            ("crowdsourced", arm.crowdsourced.to_string()),
            ("deduced", arm.deduced.to_string()),
            ("waste", js_opt_f64(arm.waste, 4)),
            ("cores", cores.to_string()),
        ]);
    }

    // Default to the workspace root (the bench runs with the package as
    // CWD), so the artifact is always at <repo>/BENCH_engine.json.
    let path = json.write(
        "CROWDJOIN_BENCH_JSON",
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json"),
    );
    println!("\nmachine-readable results written to {path}");
}

criterion_group!(benches, bench_shard_scaling);

fn main() {
    benches();
    emit_machine_readable();
}
