//! Property: the prefix-filtered candidate generator is **bit-identical**
//! to the brute-force oracle on its contract — every joinable pair that
//! shares at least one token and clears `min_likelihood` — across random
//! datasets (self joins and cross joins), pruning floors, blend weights,
//! field weights, extra measures, and worker-thread counts.
//!
//! The brute-force scan also emits qualifying pairs that share *no* token
//! (two empty records score Jaccard 1, and extra measures can clear the
//! floor alone); those are outside the generation contract ("the extra
//! measures refine the likelihood, they don't create candidates"), so the
//! oracle side is restricted to token-sharing pairs before comparing.

use crowdjoin_matcher::{
    generate_candidates, generate_candidates_bruteforce, ExtraMeasure, FieldMeasure, MatcherConfig,
    ScoredCandidate, TokenizedCorpus,
};
use crowdjoin_records::{
    generate_paper, generate_product, ClusterSpec, Dataset, PaperGenConfig, PerturbConfig,
    ProductGenConfig,
};
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

fn field_weight_of(code: u64) -> f64 {
    [1.0, 0.25, 2.0, 0.0][code as usize % 4]
}

fn check_equivalence(dataset: &Dataset, config: &MatcherConfig) -> Result<(), TestCaseError> {
    let fast = generate_candidates(dataset, config);
    let slow_all = generate_candidates_bruteforce(dataset, config);
    let corpus = TokenizedCorpus::build(dataset);
    let slow: Vec<ScoredCandidate> = slow_all
        .into_iter()
        .filter(|c| shares_token(corpus.token_set(c.a as usize), corpus.token_set(c.b as usize)))
        .collect();
    prop_assert_eq!(
        fast.len(),
        slow.len(),
        "candidate count mismatch (floor {}, wc {}, wj {}, fw {:?}, extras {})",
        config.min_likelihood,
        config.cosine_weight,
        config.jaccard_weight,
        &config.field_weights,
        config.extra_measures.len()
    );
    for (f, s) in fast.iter().zip(slow.iter()) {
        prop_assert_eq!((f.a, f.b), (s.a, s.b));
        prop_assert_eq!(
            f.likelihood.to_bits(),
            s.likelihood.to_bits(),
            "likelihood drifted on ({}, {}): {} vs {}",
            f.a,
            f.b,
            f.likelihood,
            s.likelihood
        );
    }
    // Output contract: sorted by (a, b), no duplicates.
    for w in fast.windows(2) {
        prop_assert!((w[0].a, w[0].b) < (w[1].a, w[1].b));
    }
    Ok(())
}

proptest! {
    /// Random dataset/config sweep: self joins, cross joins, every floor.
    #[test]
    fn filtered_equals_bruteforce(
        kind in 0u64..3,
        n in 20usize..100,
        seed in proptest::prelude::any::<u64>(),
        floor in 0.0f64..1.0,
        wc in 0.0f64..1.5,
        wj in 0.0f64..1.5,
        fw_code in proptest::prelude::any::<u64>(),
        threads in 1usize..5,
        block_idx in 0usize..6,
    ) {
        // Block sizes straddle every regime: single-record blocks, tiny
        // blocks, 0 = auto, and a block larger than any dataset here
        // (degenerate unblocked). All must be output-invariant.
        let block_records = [1, 2, 3, 7, 0, 1 << 20][block_idx];
        let dataset = dataset_for(kind, n, seed);
        let arity = dataset.table.schema().arity();
        let (wc, wj) = if wc + wj == 0.0 { (0.6, 0.4) } else { (wc, wj) };
        let config = MatcherConfig {
            min_likelihood: floor,
            cosine_weight: wc,
            jaccard_weight: wj,
            field_weights: (0..arity).map(|f| field_weight_of(fw_code >> (2 * f))).collect(),
            extra_measures: Vec::new(),
            threads,
            block_records,
        };
        // At least one field must carry token weight for the tf-idf build
        // to be meaningful; force field 0 on when the code zeroed them all.
        let config = if config.field_weights.iter().all(|&w| w == 0.0) {
            MatcherConfig { field_weights: std::iter::once(1.0).chain(std::iter::repeat_n(0.0, arity - 1)).collect(), ..config }
        } else {
            config
        };
        check_equivalence(&dataset, &config)?;
    }

    /// Extra measures shift likelihoods (and weaken the prefilter threshold
    /// `t = (min_l·W − E)/(wc+wj)`, including below 0); equivalence must
    /// hold throughout.
    #[test]
    fn filtered_equals_bruteforce_with_extras(
        kind in 1u64..3, // product datasets: field 1 is a numeric price
        n in 20usize..80,
        seed in proptest::prelude::any::<u64>(),
        floor in 0.0f64..0.6,
        extra_weight in 0.05f64..1.5,
    ) {
        let dataset = dataset_for(kind, n, seed);
        let config = MatcherConfig {
            min_likelihood: floor,
            field_weights: vec![1.0, 0.25],
            extra_measures: vec![ExtraMeasure {
                field: 1,
                measure: FieldMeasure::NumericRatio,
                weight: extra_weight,
            }],
            ..MatcherConfig::for_arity(2)
        };
        check_equivalence(&dataset, &config)?;
    }

    /// Floors right at the filter's decision boundaries (including 0 and
    /// values that make the prefilter threshold land exactly on common
    /// Jaccard rationals) stay lossless.
    #[test]
    fn boundary_floors_stay_lossless(
        kind in 0u64..3,
        n in 20usize..60,
        seed in proptest::prelude::any::<u64>(),
        floor_idx in 0usize..8,
    ) {
        let floor = [0.0, 0.05, 0.1, 0.125, 0.25, 1.0 / 3.0, 0.5, 1.0][floor_idx];
        let dataset = dataset_for(kind, n, seed);
        let arity = dataset.table.schema().arity();
        let config = MatcherConfig { min_likelihood: floor, ..MatcherConfig::for_arity(arity) };
        check_equivalence(&dataset, &config)?;
    }

    /// The positional and length filters fire hardest on skewed set sizes
    /// at mid/high floors: synthesize records whose token counts span two
    /// orders of magnitude (so `|b| < t·|a|` actually prunes postings and
    /// the per-probe positional bound tightens below `jac_cut`), and pin
    /// bit-identity against the oracle across floors and thread counts.
    #[test]
    fn skewed_lengths_stay_lossless(
        n in 30usize..90,
        seed in proptest::prelude::any::<u64>(),
        floor_idx in 0usize..5,
        threads in 1usize..5,
        block_idx in 0usize..4,
    ) {
        use crowdjoin_records::{Dataset, Record, Schema, Table};
        let floor = [0.1, 0.25, 1.0 / 3.0, 0.5, 0.75][floor_idx];
        let block_records = [0, 1, 5, 1 << 20][block_idx];
        let mut table = Table::new(Schema::new(vec!["name"]));
        for i in 0..n {
            // Length pattern 1..~40 tokens drawn from a small shared pool,
            // keyed off the seed so proptest explores distinct overlaps.
            let len = 1 + (i * 7 + (seed as usize) % 13) % 40;
            let words: Vec<String> =
                (0..len).map(|j| format!("w{}", (i * 3 + j * 5 + seed as usize) % 60)).collect();
            table.push(Record::new(vec![words.join(" ")]));
        }
        let dataset = Dataset {
            table,
            entity_of: (0..n as u32).collect(),
            split: if seed.is_multiple_of(2) { Some(n / 2) } else { None },
            name: "skew".into(),
        };
        let config = MatcherConfig {
            min_likelihood: floor,
            threads,
            block_records,
            ..MatcherConfig::for_arity(1)
        };
        check_equivalence(&dataset, &config)?;
    }
}

/// Deterministic cross-check of the blocked kernel and every parallel build
/// stage at once: one self join and one cross join, swept over block sizes
/// and thread counts (including 4, which CI pins on every push). Every
/// combination must produce the same bytes as the `threads: 1`,
/// single-block reference run.
#[test]
fn blocked_and_threaded_runs_are_bit_identical() {
    for kind in [0u64, 1] {
        let dataset = dataset_for(kind, 120, 0xB10C);
        let arity = dataset.table.schema().arity();
        let reference = generate_candidates(
            &dataset,
            &MatcherConfig {
                min_likelihood: 0.2,
                threads: 1,
                block_records: 1 << 20,
                ..MatcherConfig::for_arity(arity)
            },
        );
        assert!(!reference.is_empty(), "test setup: the join must find pairs");
        for block_records in [0, 1, 3, 16, 64] {
            for threads in [1, 2, 4] {
                let run = generate_candidates(
                    &dataset,
                    &MatcherConfig {
                        min_likelihood: 0.2,
                        threads,
                        block_records,
                        ..MatcherConfig::for_arity(arity)
                    },
                );
                assert_eq!(
                    run.len(),
                    reference.len(),
                    "kind {kind} blocks {block_records} threads {threads}"
                );
                for (r, s) in run.iter().zip(reference.iter()) {
                    assert_eq!((r.a, r.b), (s.a, s.b));
                    assert_eq!(r.likelihood.to_bits(), s.likelihood.to_bits());
                }
            }
        }
    }
}
