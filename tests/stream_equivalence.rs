//! End-to-end property: the *same records* streamed in K different seeded
//! interleavings produce — after the canonical close — labels, provenance,
//! money, and per-shard stats **bit-identical** to the batch pipeline over
//! those records, at 1 shard and at 4 shards. Arrival order is an accident
//! of the transport; nothing downstream may depend on it.

use crowdjoin::matcher::{generate_candidates, MatcherConfig, ScoredCandidate};
use crowdjoin::records::{
    generate_paper, ClusterSpec, Dataset, PaperGenConfig, PerturbConfig, Record,
};
use crowdjoin::sim::PlatformConfig;
use crowdjoin::{
    sort_pairs, to_candidate_set, Engine, EngineConfig, EngineReport, GroundTruth, ScoredPair,
    SortStrategy, StreamJob,
};

const NUM_RECORDS: usize = 120;
const INTERLEAVINGS: u64 = 3;

fn dataset() -> Dataset {
    generate_paper(&PaperGenConfig {
        num_records: NUM_RECORDS,
        clusters: ClusterSpec::Explicit(vec![(5, 8), (3, 10), (2, 10)]),
        perturb: PerturbConfig::light(),
        sibling_probability: 0.1,
        seed: 23,
    })
}

fn config() -> MatcherConfig {
    MatcherConfig { min_likelihood: 0.2, ..MatcherConfig::for_arity(5) }
}

/// Seeded Fisher–Yates (splitmix64) arrival order.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

/// Streams `ds` in the given arrival order (external id = canonical index)
/// in ragged batch sizes, then closes to the canonical candidates.
fn stream_candidates(ds: &Dataset, arrivals: &[usize]) -> Vec<ScoredCandidate> {
    let mut job = StreamJob::new(ds.table.schema().clone(), config(), 0);
    let mut pending = Vec::new();
    for (k, &i) in arrivals.iter().enumerate() {
        pending.push((i as u32, ds.table.record(i).clone()));
        // Ragged batches (1–7 records) so chunking itself is exercised.
        if pending.len() == 1 + k % 7 {
            job.ingest(&pending).expect("unjournaled ingest");
            pending.clear();
        }
    }
    if !pending.is_empty() {
        job.ingest(&pending).expect("unjournaled ingest");
    }
    let (closed, candidates) = job.close().expect("unjournaled close");
    assert_eq!(closed.len(), ds.len());
    candidates
}

fn labeling_order(ds: &Dataset, candidates: &[ScoredCandidate]) -> Vec<ScoredPair> {
    let set = to_candidate_set(ds, candidates).above_threshold(0.3);
    sort_pairs(&set, SortStrategy::ExpectedLikelihood)
}

/// Bit-identical comparison of two platform runs: merged labels and
/// provenance on every pair, money, completion, per-shard stats.
fn assert_reports_identical(a: &EngineReport, b: &EngineReport, order: &[ScoredPair], ctx: &str) {
    assert_eq!(a.result.num_labeled(), b.result.num_labeled(), "{ctx}: labeled");
    assert_eq!(a.result.num_crowdsourced(), b.result.num_crowdsourced(), "{ctx}: crowdsourced");
    assert_eq!(a.total_cost_cents, b.total_cost_cents, "{ctx}: money");
    assert_eq!(a.completion, b.completion, "{ctx}: completion");
    for sp in order {
        assert_eq!(a.result.label_of(sp.pair), b.result.label_of(sp.pair), "{ctx}: {}", sp.pair);
        assert_eq!(a.result.provenance_of(sp.pair), b.result.provenance_of(sp.pair), "{ctx}");
    }
    assert_eq!(a.shards.len(), b.shards.len(), "{ctx}: shard count");
    for (x, y) in a.shards.iter().zip(&b.shards) {
        assert_eq!(x.stats, y.stats, "{ctx}: shard {} platform stats", x.shard);
        assert_eq!(x.completion, y.completion, "{ctx}: shard {} completion", x.shard);
    }
}

/// The canonical close is bit-identical to the batch matcher for every
/// interleaving — the precondition for everything downstream.
#[test]
fn interleavings_close_to_batch_candidates() {
    let ds = dataset();
    let batch = generate_candidates(&ds, &config());
    assert!(!batch.is_empty(), "workload must generate candidates");
    for k in 0..INTERLEAVINGS {
        let streamed = stream_candidates(&ds, &shuffled(ds.len(), 1000 + k));
        assert_eq!(streamed.len(), batch.len(), "interleaving {k}: candidate count");
        for (s, b) in streamed.iter().zip(&batch) {
            assert_eq!((s.a, s.b), (b.a, b.b), "interleaving {k}");
            assert_eq!(
                s.likelihood.to_bits(),
                b.likelihood.to_bits(),
                "interleaving {k}: likelihood bits on ({}, {})",
                s.a,
                s.b
            );
        }
    }
}

/// Full pipeline: every interleaving, at 1 and 4 shards, runs the platform
/// engine to the same labels, provenance, money, and per-shard stats as
/// the batch pipeline.
#[test]
fn interleavings_label_identically_to_batch() {
    let ds = dataset();
    let truth = GroundTruth::new(ds.entity_of.clone());
    let platform = PlatformConfig { num_workers: 60, ..PlatformConfig::amt_like(17) };
    let batch_order = labeling_order(&ds, &generate_candidates(&ds, &config()));
    assert!(!batch_order.is_empty());

    for shards in [1usize, 4] {
        let engine = EngineConfig {
            num_shards: shards,
            num_threads: 2,
            seed: 11,
            ..EngineConfig::default()
        };
        let run = |order: &[ScoredPair]| {
            Engine::new(ds.len(), order, &truth, &platform, engine.clone())
                .run()
                .expect("engine run")
        };
        let batch_report = run(&batch_order);
        for k in 0..INTERLEAVINGS {
            let order = labeling_order(&ds, &stream_candidates(&ds, &shuffled(ds.len(), 1000 + k)));
            let report = run(&order);
            assert_reports_identical(
                &batch_report,
                &report,
                &batch_order,
                &format!("interleaving {k} @ {shards} shard(s)"),
            );
        }
    }
}

/// Scale guard: ingest only keeps records, so streaming 8k Paper records at
/// the CLI-default floor (0.05) in chunks of 512 must cost a small fraction
/// of the one batch join `close` runs. Both sides are timed in this
/// process, so machine speed and build profile cancel. A per-arrival
/// candidate scan (27 M delta pairs on this input, several `close`s of
/// work) cannot come back under the bound.
#[test]
#[ignore = "scale smoke — run via `cargo test -p crowdjoin --test stream_equivalence -- --ignored` (CI scale-guard step)"]
fn stream_8k_ingest_is_a_fraction_of_close() {
    let ds = generate_paper(&PaperGenConfig { num_records: 8_000, ..PaperGenConfig::default() });
    let matcher = MatcherConfig::for_arity(ds.table.schema().arity());
    let arrivals: Vec<(u32, Record)> =
        ds.table.records().iter().enumerate().map(|(i, r)| (i as u32, r.clone())).collect();

    let mut job = StreamJob::new(ds.table.schema().clone(), matcher, 0);
    let clock = std::time::Instant::now();
    for chunk in arrivals.chunks(512) {
        job.ingest(chunk).expect("unjournaled ingest");
    }
    let ingest = clock.elapsed();
    let clock = std::time::Instant::now();
    let (closed, candidates) = job.close().expect("unjournaled close");
    let close = clock.elapsed();

    assert_eq!(closed.len(), ds.len());
    assert!(!candidates.is_empty(), "8k Paper records at floor 0.05 must keep candidates");
    assert!(
        ingest * 4 < close,
        "ingesting 8k records took {ingest:?} against a {close:?} close — per-arrival work is \
         back in ingest"
    );
}
