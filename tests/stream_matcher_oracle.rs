//! Property: the incremental matcher is **lossless and bit-identical** to
//! the batch oracle regardless of arrival order. Streaming a random corpus
//! record-by-record through [`StreamMatcher::insert`] and snapshotting must
//! equal the brute-force oracle over the full (arrival-ordered) corpus —
//! same pairs, same likelihood bits — and every final candidate must have
//! been *discovered* as a delta pair at the moment its later endpoint
//! arrived (the union of all insert deltas covers the final set; no pair
//! appears only at snapshot time).
//!
//! As in `filter_equivalence`, the oracle side is restricted to
//! token-sharing pairs: pairs that qualify on extra measures alone are
//! outside the generation contract.

use crowdjoin::matcher::{
    generate_candidates, generate_candidates_bruteforce, jaccard, MatcherConfig, ScoredCandidate,
    StreamMatcher, TokenizedCorpus,
};
use crowdjoin::records::{
    generate_paper, generate_product, ClusterSpec, Dataset, PaperGenConfig, PerturbConfig,
    ProductGenConfig,
};
use crowdjoin::util::FxHashSet;
use proptest::prelude::*;

/// `true` when the sorted token sets intersect.
fn shares_token(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

fn dataset_for(kind: u64, n: usize, seed: u64) -> Dataset {
    match kind % 3 {
        0 => generate_paper(&PaperGenConfig {
            num_records: n,
            clusters: ClusterSpec::PowerLaw {
                alpha: 1.9,
                max_size: (n / 5).max(2),
                force_max: false,
            },
            perturb: PerturbConfig::heavy(),
            sibling_probability: 0.2,
            seed,
        }),
        1 => generate_product(&ProductGenConfig {
            table_a: n / 2,
            table_b: n - n / 2,
            clusters: ClusterSpec::Explicit(vec![(2, n / 6)]),
            perturb: PerturbConfig::heavy(),
            seed,
        }),
        _ => generate_product(&ProductGenConfig {
            table_a: n / 3,
            table_b: n - n / 3,
            clusters: ClusterSpec::Explicit(vec![(3, n / 9), (2, n / 10)]),
            perturb: PerturbConfig::light(),
            seed,
        }),
    }
}

/// Seeded Fisher–Yates (splitmix64 stream) — a deterministic arrival order
/// per (n, seed) without pulling in an RNG crate.
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

/// Streams `dataset` in `arrivals` order and pins the snapshot against the
/// brute-force oracle over the arrival-ordered corpus (a streaming
/// self-join: `split = None`).
fn check_stream(
    dataset: &Dataset,
    config: &MatcherConfig,
    arrivals: &[usize],
) -> Result<(), TestCaseError> {
    let schema = dataset.table.schema().clone();
    let mut arrival_table = crowdjoin::records::Table::new(schema.clone());
    for &i in arrivals {
        arrival_table.push(dataset.table.record(i).clone());
    }
    let arrival_ds = Dataset {
        entity_of: arrivals.iter().map(|&i| dataset.entity_of[i]).collect(),
        table: arrival_table,
        split: None,
        name: "stream-oracle".into(),
    };

    let mut matcher = StreamMatcher::new(schema, config.clone());
    let mut discovered: FxHashSet<(u32, u32)> = FxHashSet::default();
    for &i in arrivals {
        let delta = matcher.insert(dataset.table.record(i));
        for dp in &delta.pairs {
            prop_assert!(dp.a < dp.b, "delta pair must point old → new");
            prop_assert_eq!(dp.b, delta.record);
            prop_assert!(discovered.insert((dp.a, dp.b)), "pair re-discovered");
        }
    }
    let streamed = matcher.candidates();

    let oracle_all = generate_candidates_bruteforce(&arrival_ds, config);
    let corpus = TokenizedCorpus::build(&arrival_ds);
    let oracle: Vec<ScoredCandidate> = oracle_all
        .into_iter()
        .filter(|c| shares_token(corpus.token_set(c.a as usize), corpus.token_set(c.b as usize)))
        .collect();

    prop_assert_eq!(
        streamed.len(),
        oracle.len(),
        "candidate count mismatch (floor {}, {} records)",
        config.min_likelihood,
        arrivals.len()
    );
    for (s, o) in streamed.iter().zip(oracle.iter()) {
        prop_assert_eq!((s.a, s.b), (o.a, o.b));
        prop_assert_eq!(
            s.likelihood.to_bits(),
            o.likelihood.to_bits(),
            "likelihood drifted on ({}, {}): {} vs {}",
            s.a,
            s.b,
            s.likelihood,
            o.likelihood
        );
    }
    // Losslessness of *discovery*: every pair the snapshot keeps was
    // materialized by some insert's delta — never conjured at close.
    for c in &streamed {
        prop_assert!(
            discovered.contains(&(c.a, c.b)),
            "({}, {}) kept at snapshot but never discovered as a delta",
            c.a,
            c.b
        );
    }
    Ok(())
}

/// `got` equals `want` pair for pair, likelihood bit for bit, in order.
fn same_bits(
    got: &[ScoredCandidate],
    want: &[ScoredCandidate],
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: candidate count", what);
    for (g, w) in got.iter().zip(want) {
        prop_assert_eq!((g.a, g.b), (w.a, w.b), "{}", what);
        prop_assert_eq!(
            g.likelihood.to_bits(),
            w.likelihood.to_bits(),
            "{}: ({}, {})",
            what,
            g.a,
            g.b
        );
    }
    Ok(())
}

/// The discovery/scoring split, on either side of `t_j = 0`: deltas carry
/// the exact Jaccard (counted in the posting scan when unfiltered, merged
/// when filtered), each batch candidate is discovered exactly once, the
/// matcher only counts what it emitted, and both snapshots are the batch
/// join.
fn check_deltas_and_snapshots(
    dataset: &Dataset,
    config: &MatcherConfig,
    arrivals: &[usize],
) -> Result<(), TestCaseError> {
    let mut matcher = StreamMatcher::new(dataset.table.schema().clone(), config.clone());
    let mut discovered: FxHashSet<(u32, u32)> = FxHashSet::default();
    for &i in arrivals {
        let delta = matcher.insert(dataset.table.record(i));
        let corpus = matcher.corpus();
        for dp in &delta.pairs {
            let exact = jaccard(corpus.token_set(dp.a as usize), corpus.token_set(dp.b as usize));
            prop_assert_eq!(
                dp.jaccard.to_bits(),
                exact.to_bits(),
                "delta ({}, {}) jaccard {} vs {} at floor {}",
                dp.a,
                dp.b,
                dp.jaccard,
                exact,
                config.min_likelihood
            );
            prop_assert!(discovered.insert((dp.a, dp.b)), "pair emitted in two deltas");
        }
    }
    prop_assert_eq!(matcher.num_materialized(), discovered.len());

    let batch = generate_candidates(matcher.dataset(), config);
    for c in &batch {
        prop_assert!(
            discovered.contains(&(c.a, c.b)),
            "batch candidate ({}, {}) never appeared in a delta (floor {})",
            c.a,
            c.b,
            config.min_likelihood
        );
    }
    same_bits(&matcher.candidates(), &batch, "candidates()")?;

    // Close back into dataset order: the batch self-join over the original.
    let mut order = vec![0u32; arrivals.len()];
    for (arrival, &original) in arrivals.iter().enumerate() {
        order[original] = arrival as u32;
    }
    let (closed, canonical) = matcher.close_canonical(&order);
    for i in 0..dataset.len() {
        prop_assert_eq!(closed.table.record(i).values(), dataset.table.record(i).values());
    }
    let self_join = Dataset { split: None, ..dataset.clone() };
    same_bits(&canonical, &generate_candidates(&self_join, config), "close_canonical()")
}

proptest! {
    /// Random corpora × pruning floors × seeded arrival orders: the
    /// streamed snapshot equals the batch oracle bit-for-bit, and the
    /// per-insert deltas cover it.
    #[test]
    fn streamed_deltas_equal_bruteforce_oracle(
        kind in 0u64..3,
        n in 15usize..60,
        seed in any::<u64>(),
        floor in 0.0f64..0.8,
        order_seed in any::<u64>(),
    ) {
        let dataset = dataset_for(kind, n, seed);
        let arity = dataset.table.schema().arity();
        let config = MatcherConfig { min_likelihood: floor, ..MatcherConfig::for_arity(arity) };
        let arrivals = shuffled(dataset.len(), order_seed);
        check_stream(&dataset, &config, &arrivals)?;
    }

    /// Floors on the filter's decision boundaries (0, common Jaccard
    /// rationals, 1) stay lossless under shuffled arrivals.
    #[test]
    fn boundary_floors_stay_lossless_streamed(
        kind in 0u64..3,
        n in 15usize..50,
        seed in any::<u64>(),
        floor_idx in 0usize..8,
        order_seed in any::<u64>(),
    ) {
        let floor = [0.0, 0.05, 0.1, 0.125, 0.25, 1.0 / 3.0, 0.5, 1.0][floor_idx];
        let dataset = dataset_for(kind, n, seed);
        let arity = dataset.table.schema().arity();
        let config = MatcherConfig { min_likelihood: floor, ..MatcherConfig::for_arity(arity) };
        let arrivals = shuffled(dataset.len(), order_seed);
        check_stream(&dataset, &config, &arrivals)?;
    }

    /// Floors on both sides of `t_j = 0` (default 60/40 blend: `t_j` is
    /// −1.5, −1.375, −0.75 | 0.125, 0.5, 0.875) × shuffled arrivals. The
    /// Jaccard-only blend makes `t_j` the floor itself, so the prefix
    /// pigeonhole is tight: indexing one token too few loses candidates.
    #[test]
    fn deltas_exact_and_snapshots_batch_on_both_sides_of_the_prune_threshold(
        kind in 0u64..3,
        n in 15usize..60,
        seed in any::<u64>(),
        floor_idx in 0usize..6,
        jaccard_only in any::<bool>(),
        order_seed in any::<u64>(),
    ) {
        let floor = [0.0, 0.05, 0.3, 0.65, 0.8, 0.95][floor_idx];
        let dataset = dataset_for(kind, n, seed);
        let arity = dataset.table.schema().arity();
        let mut config = MatcherConfig { min_likelihood: floor, ..MatcherConfig::for_arity(arity) };
        if jaccard_only {
            (config.cosine_weight, config.jaccard_weight) = (0.0, 1.0);
        }
        let arrivals = shuffled(dataset.len(), order_seed);
        check_deltas_and_snapshots(&dataset, &config, &arrivals)?;
    }
}

/// Deterministic spot check (fast, runs even with proptest shrunk away):
/// forward and reverse arrivals both match the oracle on a fixed corpus.
#[test]
fn forward_and_reverse_arrivals_match_oracle() {
    let dataset = dataset_for(0, 40, 7);
    let config = MatcherConfig {
        min_likelihood: 0.2,
        ..MatcherConfig::for_arity(dataset.table.schema().arity())
    };
    let forward: Vec<usize> = (0..dataset.len()).collect();
    let mut reverse = forward.clone();
    reverse.reverse();
    check_stream(&dataset, &config, &forward).unwrap();
    check_stream(&dataset, &config, &reverse).unwrap();
}
