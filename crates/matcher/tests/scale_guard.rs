//! Candidate-generation scale smokes: the 50k- and 200k-record product
//! workloads must complete in a **debug** build (the 200k arm under an
//! explicit wall-clock bound, so a quadratic regression in the filter
//! pipeline fails CI instead of hanging it), the strongly-filtered run
//! must agree with a weakly-filtered run of the same pipeline (different
//! prefix lengths, different posting lists — same candidates above the
//! stronger floor), and the streaming matcher must take 8k records through
//! ingest + close at the CLI-default floor under a bound its retired
//! O(n²) pair store cannot meet.
//!
//! Run explicitly (CI has a dedicated step): `cargo test -p
//! crowdjoin-matcher --test scale_guard -- --ignored`. Exhaustive
//! brute-force equivalence at small sizes lives in
//! `tests/filter_equivalence.rs`; this guard is about *scale*.

use crowdjoin_matcher::{generate_candidates, MatcherConfig, StreamMatcher};
use crowdjoin_records::{generate_paper, generate_product, PaperGenConfig, ProductGenConfig};

#[test]
#[ignore = "scale smoke — run via `cargo test -p crowdjoin-matcher --test scale_guard -- --ignored` (CI perf-smoke step)"]
fn product_50k_completes_and_filter_levels_agree() {
    let dataset = generate_product(&ProductGenConfig::scaled(25_000));
    assert_eq!(dataset.len(), 50_000);

    let matcher_at = |floor: f64| MatcherConfig {
        min_likelihood: floor,
        field_weights: vec![1.0, 0.25],
        ..MatcherConfig::for_arity(2)
    };
    // The 0.35 run prunes with tight prefixes; the 0.25 run with loose
    // ones. Above 0.35 they index different posting subsets yet must
    // produce the identical candidate list.
    let strong = generate_candidates(&dataset, &matcher_at(0.35));
    let weak = generate_candidates(&dataset, &matcher_at(0.25));
    assert!(!strong.is_empty(), "50k workload should keep some candidates at 0.35");
    assert!(weak.len() > strong.len(), "looser floor must keep more candidates");

    let weak_above: Vec<_> = weak.into_iter().filter(|c| c.likelihood >= 0.35).collect();
    assert_eq!(
        strong.len(),
        weak_above.len(),
        "filter strength changed the candidate set above the shared floor"
    );
    for (s, w) in strong.iter().zip(weak_above.iter()) {
        assert_eq!((s.a, s.b), (w.a, w.b));
        assert_eq!(s.likelihood.to_bits(), w.likelihood.to_bits());
    }
}

#[test]
#[ignore = "scale smoke — run via `cargo test -p crowdjoin-matcher --test scale_guard -- --ignored` (CI scale-guard step)"]
fn product_200k_completes_within_bound_in_debug() {
    // Time-bounded scale guard: 200k records through the full exact
    // pipeline (positional + length filters) in an *unoptimized* build.
    // The bound is deliberately loose — the release build does 100k in
    // seconds, and debug is ~10× slower — so only an asymptotic
    // regression (e.g. the positional filter silently degrading to the
    // unfiltered quadratic scan) can blow it.
    let clock = std::time::Instant::now();
    let dataset = generate_product(&ProductGenConfig::scaled(100_000));
    assert_eq!(dataset.len(), 200_000);
    let config = MatcherConfig {
        min_likelihood: 0.4,
        field_weights: vec![1.0, 0.25],
        ..MatcherConfig::for_arity(2)
    };
    let out = generate_candidates(&dataset, &config);
    let elapsed = clock.elapsed();
    assert!(!out.is_empty(), "200k workload should keep candidates at 0.4");
    assert!(
        elapsed < std::time::Duration::from_secs(600),
        "200k debug-build run took {elapsed:?} — the filter pipeline has regressed asymptotically"
    );
}

#[test]
#[ignore = "scale smoke — run via `cargo test -p crowdjoin-matcher --test scale_guard -- --ignored` (CI scale-guard step)"]
fn product_50k_blocked_path_matches_auto() {
    // The blocked kernel at scale: force many small probe blocks (a 4k
    // block size tiles the 50k index side into ~13 blocks, vs auto's 8k)
    // and require the exact candidate list of the auto-blocked run, in a
    // debug build. A cursor-advance bug that only shows up when posting
    // lists actually straddle block boundaries — invisible at the
    // property-test sizes where one block covers everything — fails here.
    let dataset = generate_product(&ProductGenConfig::scaled(25_000));
    let config = MatcherConfig {
        min_likelihood: 0.35,
        field_weights: vec![1.0, 0.25],
        ..MatcherConfig::for_arity(2)
    };
    let auto = generate_candidates(&dataset, &config);
    let blocked =
        generate_candidates(&dataset, &MatcherConfig { block_records: 4096, ..config.clone() });
    assert!(!auto.is_empty(), "50k workload should keep candidates at 0.35");
    assert_eq!(auto.len(), blocked.len(), "block size changed the candidate set");
    for (a, b) in auto.iter().zip(blocked.iter()) {
        assert_eq!((a.a, a.b), (b.a, b.b));
        assert_eq!(a.likelihood.to_bits(), b.likelihood.to_bits());
    }
}

#[test]
#[ignore = "scale smoke — run via `cargo test -p crowdjoin-matcher --test scale_guard -- --ignored` (CI scale-guard step)"]
fn stream_8k_low_floor_completes_within_bound_in_debug() {
    // The streaming matcher at the floor the CLI defaults to (0.05), where
    // its arrival-invariant Jaccard threshold is negative and every
    // token-sharing pair is a delta (27 M of them here): 8k Paper records
    // inserted one by one, then closed back into dataset order. Close *is*
    // one batch join, so the yardstick is the batch join of the same
    // records timed in this process — machine speed and build profile
    // cancel. Measured in debug: ingest + close = 1.4 batch joins (11 s);
    // with the per-pair store and the re-score loop this replaced, 5.0
    // (41 s). The bound sits between, so that path cannot come back
    // silently.
    const MAX_BATCH_JOINS: u32 = 3;
    let dataset =
        generate_paper(&PaperGenConfig { num_records: 8_000, ..PaperGenConfig::default() });
    // One worker on both sides: ingest is sequential, so a threaded
    // yardstick would make the ratio depend on the host's core count.
    let config =
        MatcherConfig { threads: 1, ..MatcherConfig::for_arity(dataset.table.schema().arity()) };
    let clock = std::time::Instant::now();
    let batch = generate_candidates(&dataset, &config);
    let batch_time = clock.elapsed();

    let clock = std::time::Instant::now();
    let mut matcher = StreamMatcher::new(dataset.table.schema().clone(), config);
    let mut deltas = 0usize;
    for record in dataset.table.records() {
        deltas += matcher.insert(record).pairs.len();
    }
    let order: Vec<u32> = (0..dataset.len() as u32).collect();
    let (_, closed) = matcher.close_canonical(&order);
    let stream_time = clock.elapsed();
    assert_eq!(matcher.num_materialized(), deltas);
    assert_eq!(closed.len(), batch.len(), "closed stream diverged from the batch join");
    assert!(closed.len() < deltas, "close must score the corpus, not echo the deltas");
    assert!(
        stream_time < batch_time * MAX_BATCH_JOINS,
        "streaming 8k records took {stream_time:?}, over {MAX_BATCH_JOINS} batch joins \
         ({batch_time:?} each) — per-pair work is back in ingest or close"
    );
}
