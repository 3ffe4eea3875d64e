//! Candidate-generation scale smokes: the 50k- and 200k-record product
//! workloads must complete in a **debug** build (the 200k arm under an
//! explicit wall-clock bound, so a quadratic regression in the filter
//! pipeline fails CI instead of hanging it), and the strongly-filtered run
//! must agree with a weakly-filtered run of the same pipeline (different
//! prefix lengths, different posting lists — same candidates above the
//! stronger floor).
//!
//! Run explicitly (CI has a dedicated step): `cargo test -p
//! crowdjoin-matcher --test scale_guard -- --ignored`. Exhaustive
//! brute-force equivalence at small sizes lives in
//! `tests/filter_equivalence.rs`; this guard is about *scale*.

use crowdjoin_matcher::{generate_candidates, MatcherConfig};
use crowdjoin_records::{generate_product, ProductGenConfig};

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
