//! Candidate-generation throughput: the prefix-filtered, token-interned
//! similarity join versus the brute-force pairwise scan.
//!
//! Alongside the criterion arms, running this bench writes
//! `BENCH_matcher.json` (schema `crowdjoin-bench-matcher/2`) with the
//! measured product workloads at 5k through 1M records, so the matcher's
//! perf trajectory is tracked across PRs, the same contract as
//! `BENCH_engine.json`.
//!
//! Thread honesty: every arm records the worker-thread count it actually
//! ran with (default 1 so wall times compare across hosts; override with
//! `CROWDJOIN_BENCH_THREADS`). Dedicated 2- and 4-thread scaling arms rerun
//! the 100k workload; on a host without that many cores they are *recorded
//! as skipped* instead of silently measuring oversubscription.
//!
//! `positional_filter_speedup` pins the 100k @ 0.3 arm against that arm's
//! committed pre-positional-filter wall time, and `positional_mode` records
//! whether the adaptive cascade actually enabled the positional filter on
//! this workload — the bench asserts the speedup cannot sit below 1.0 while
//! the filter is on.

use criterion::{criterion_group, BenchmarkId, Criterion};
use crowdjoin_bench::json::BenchJson;
use crowdjoin_bench::measure;
use crowdjoin_matcher::{generate_candidates, generate_candidates_bruteforce, MatcherConfig};
use crowdjoin_records::{
    generate_paper, generate_product, ClusterSpec, Dataset, PaperGenConfig, PerturbConfig,
    ProductGenConfig,
};
use crowdjoin_util::json::{js_f64, js_str};
use std::hint::black_box;

fn paper_dataset(n: usize) -> Dataset {
    generate_paper(&PaperGenConfig {
        num_records: n,
        clusters: ClusterSpec::PowerLaw { alpha: 1.9, max_size: n / 10, force_max: true },
        perturb: PerturbConfig::heavy(),
        sibling_probability: 0.3,
        seed: 9,
    })
}

fn product_matcher(min_likelihood: f64, threads: usize) -> MatcherConfig {
    MatcherConfig {
        min_likelihood,
        field_weights: vec![1.0, 0.25],
        threads,
        ..MatcherConfig::for_arity(2)
    }
}

fn bench_candidate_gen(c: &mut Criterion) {
    let mut group = c.benchmark_group("candidate_gen");
    group.sample_size(10);
    for &n in &[100usize, 300] {
        let ds = paper_dataset(n);
        let cfg = MatcherConfig::for_arity(5);
        group.bench_with_input(BenchmarkId::new("filtered", n), &ds, |b, ds| {
            b.iter(|| black_box(generate_candidates(ds, &cfg).len()));
        });
        group.bench_with_input(BenchmarkId::new("bruteforce", n), &ds, |b, ds| {
            b.iter(|| black_box(generate_candidates_bruteforce(ds, &cfg).len()));
        });
    }
    // Full-scale paper run (brute force omitted: quadratic).
    let ds = paper_dataset(997);
    let cfg = MatcherConfig::for_arity(5);
    group.bench_with_input(BenchmarkId::new("filtered", 997usize), &ds, |b, ds| {
        b.iter(|| black_box(generate_candidates(ds, &cfg).len()));
    });
    group.finish();
}

/// The 5k-record product workload `BENCH_engine.json` also uses, plus the
/// scaled workloads (50k up through 1M records).
fn product_dataset(per_side: usize) -> Dataset {
    if per_side == 2500 {
        // The exact workload BENCH_engine.json measures, shared via the lib.
        crowdjoin_bench::product_5k_dataset()
    } else {
        generate_product(&ProductGenConfig::scaled(per_side))
    }
}

/// The 100k @ 0.3 arm's committed wall time from the PR that introduced
/// the large arms (token-interned prefix filter, before the positional and
/// length filters landed). `positional_filter_speedup` in the emitted JSON
/// is the same arm's current wall time measured against this constant.
const PRE_POSITIONAL_100K_MS: f64 = 32_218.085;

/// Worker threads for the measured arms: `CROWDJOIN_BENCH_THREADS`,
/// default 1 so wall times stay comparable to the committed baselines.
fn bench_threads() -> usize {
    std::env::var("CROWDJOIN_BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(1)
}

/// Writes `BENCH_matcher.json`. Override the output path with
/// `CROWDJOIN_BENCH_MATCHER_JSON`, the worker-thread count with
/// `CROWDJOIN_BENCH_THREADS` (see [`bench_threads`]).
fn emit_machine_readable() {
    /// One measured (`Ok((wall_ms, candidates))`) or skipped (`Err(why)`) run.
    struct Arm {
        name: &'static str,
        records: usize,
        floor: f64,
        threads: usize,
        outcome: Result<(f64, usize), String>,
    }
    let ran = |name, records, floor, threads, wall_ms, candidates| Arm {
        name,
        records,
        floor,
        threads,
        outcome: Ok((wall_ms, candidates)),
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let bench_threads = bench_threads();
    if cores == 1 {
        // Wall times below are not comparable to multi-core baselines;
        // leave an explicit marker in the run log next to the JSON note.
        println!("note: single-core run — arm wall times reflect 1 worker");
    }
    let pos_on_counter = crowdjoin_obs::counter("matcher.blocks.pos_on", crowdjoin_obs::NO_SHARD);
    let mut arms: Vec<Arm> = Vec::new();

    // 5k: the acceptance workload at the default 0.05 floor, plus the 0.3
    // threshold the labeling pipeline actually uses.
    let ds5k = product_dataset(2500);
    let cfg = product_matcher(0.05, bench_threads);
    let (filtered_ms, filtered) = measure(5, || generate_candidates(&ds5k, &cfg));
    arms.push(ran("filtered", ds5k.len(), 0.05, bench_threads, filtered_ms, filtered.len()));
    let cfg03 = product_matcher(0.3, bench_threads);
    let (ms, out) = measure(5, || generate_candidates(&ds5k, &cfg03));
    arms.push(ran("filtered", ds5k.len(), 0.3, bench_threads, ms, out.len()));

    // Scale arms: 50k and 100k records at the pipeline threshold. (The
    // unfiltered 0.05 floor enumerates every token-sharing pair — ~10⁹
    // scorings at 100k — which is exactly the regime the prefix filter
    // exists to avoid, so the large arms run at 0.3.) The 100k arm doubles
    // as the positional-filter yardstick: its wall time is pinned against
    // the committed pre-positional baseline, and the pos_on counter delta
    // around the run records whether the adaptive cascade actually enabled
    // the positional filter on this workload.
    let mut ms_100k = f64::NAN;
    let mut pos_blocks_100k = 0;
    for (per_side, samples) in [(25_000usize, 3), (50_000, 1)] {
        let ds = product_dataset(per_side);
        let pos_before = pos_on_counter.get();
        let (ms, out) = measure(samples, || generate_candidates(&ds, &cfg03));
        if per_side == 50_000 {
            ms_100k = ms;
            pos_blocks_100k = pos_on_counter.get() - pos_before;
        }
        arms.push(ran("filtered", ds.len(), 0.3, bench_threads, ms, out.len()));
    }
    let positional_speedup = PRE_POSITIONAL_100K_MS / ms_100k;
    let positional_mode = if pos_blocks_100k > 0 { "adaptive_on" } else { "adaptive_off" };
    // Satellite contract: the positional filter may not *cost* wall time
    // silently. Either the cascade turned it off (and says so in the JSON),
    // or the measured run must beat the committed pre-positional baseline.
    assert!(
        positional_speedup >= 1.0 || positional_mode == "adaptive_off",
        "positional filter is adaptively ON yet the 100k arm regressed to \
         {positional_speedup:.2}x vs the pre-positional baseline"
    );

    // Thread-scaling arms: the 100k workload again at 2 and 4 workers. A
    // host without that many physical cores would only measure
    // oversubscription noise, so those arms are recorded as skipped rather
    // than silently emitting bogus scaling numbers.
    for t in [2usize, 4] {
        let skip = (cores < t).then(|| format!("host has {cores} core(s)"));
        if let Some(reason) = skip {
            arms.push(Arm {
                name: "filtered_scaling",
                records: 100_000,
                floor: 0.3,
                threads: t,
                outcome: Err(reason),
            });
            continue;
        }
        let ds = product_dataset(50_000);
        let cfg_t = product_matcher(0.3, t);
        let (ms, out) = measure(1, || generate_candidates(&ds, &cfg_t));
        arms.push(ran("filtered_scaling", ds.len(), 0.3, t, ms, out.len()));
    }

    // Very large arms: 500k and 1M records. Candidate volume at 0.3 grows
    // roughly with n^1.9 on this workload (~1.2M pairs at 100k), so the
    // big arms raise the floor — 0.4 at 500k, 0.5 at 1M — which is also
    // the regime a 1M-record crowdsourced join would actually run at (the
    // crowd budget, not the matcher, is the binding constraint).
    for (per_side, floor) in [(250_000usize, 0.4), (500_000, 0.5)] {
        let ds = product_dataset(per_side);
        let cfg_big = product_matcher(floor, bench_threads);
        let (ms, out) = measure(1, || generate_candidates(&ds, &cfg_big));
        arms.push(ran("filtered", ds.len(), floor, bench_threads, ms, out.len()));
    }

    let mut json = BenchJson::new("crowdjoin-bench-matcher/2");
    json.field("cores", cores.to_string());
    json.field("workload", js_str("product (Abt-Buy-shaped cross join, name+price)"));
    json.field("positional_filter_speedup", js_f64(positional_speedup, 2));
    json.field("positional_mode", js_str(positional_mode));
    json.field("positional_baseline_100k_ms", js_f64(PRE_POSITIONAL_100K_MS, 3));
    for arm in &arms {
        let mut fields = vec![
            ("name", js_str(arm.name)),
            ("records", arm.records.to_string()),
            ("min_likelihood", js_f64(arm.floor, 2)),
            ("threads", arm.threads.to_string()),
            ("cores", cores.to_string()),
        ];
        match &arm.outcome {
            Ok((wall_ms, candidates)) => {
                fields.push(("wall_ms", js_f64(*wall_ms, 3)));
                fields.push(("candidates", candidates.to_string()));
            }
            Err(skipped) => fields.push(("skipped", js_str(skipped))),
        }
        json.arm(fields);
    }
    let path = json.write(
        "CROWDJOIN_BENCH_MATCHER_JSON",
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_matcher.json"),
    );
    println!("\nmachine-readable results written to {path}");
    println!(
        "100k @ 0.3 arm: {positional_speedup:.2}x vs the committed \
         {PRE_POSITIONAL_100K_MS:.0} ms pre-positional baseline (positional filter \
         {positional_mode}, {pos_blocks_100k} blocks enabled it)"
    );
}

criterion_group!(benches, bench_candidate_gen);

fn main() {
    benches();
    emit_machine_readable();
}
