//! One-to-one join constraints — the paper's Section 8 future-work item
//! "explore other kinds of relations (e.g. one-to-one relationship)".
//!
//! In many cross-collection joins each left record can match at most one
//! right record and vice versa (two catalogs, each deduplicated internally).
//! That knowledge is *extra deduction power*: once `(a, b)` is matching,
//! every other pair touching `a` or `b` is non-matching without asking
//! anyone. [`enforce_one_to_one`] applies it as post-processing: given
//! labeled matches with likelihoods, keep a maximum-likelihood one-to-one
//! subset (greedy by weight) and demote the rest.

use crate::types::ScoredPair;
use crowdjoin_util::FxHashSet;

/// Result of enforcing a one-to-one constraint over matching pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct OneToOneOutcome {
    /// Matching pairs kept (pairwise disjoint endpoints).
    pub kept: Vec<ScoredPair>,
    /// Matching pairs demoted to non-matching because an endpoint was
    /// already claimed by a higher-likelihood pair.
    pub demoted: Vec<ScoredPair>,
}

/// Greedily selects a maximum-likelihood one-to-one subset of `matches`:
/// pairs are considered in decreasing likelihood (ties broken by pair id for
/// determinism) and kept iff neither endpoint is already matched.
///
/// Greedy is a 2-approximation of maximum-weight matching and is what
/// production ER pipelines typically run; exactness is not required because
/// demotions are surfaced for review rather than silently dropped.
#[must_use]
pub fn enforce_one_to_one(matches: &[ScoredPair]) -> OneToOneOutcome {
    let mut sorted: Vec<ScoredPair> = matches.to_vec();
    sorted.sort_by(|x, y| y.likelihood.total_cmp(&x.likelihood).then_with(|| x.pair.cmp(&y.pair)));
    let mut used: FxHashSet<u32> = FxHashSet::default();
    let mut kept = Vec::new();
    let mut demoted = Vec::new();
    for sp in sorted {
        if used.contains(&sp.pair.a()) || used.contains(&sp.pair.b()) {
            demoted.push(sp);
        } else {
            used.insert(sp.pair.a());
            used.insert(sp.pair.b());
            kept.push(sp);
        }
    }
    OneToOneOutcome { kept, demoted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Pair;

    fn sp(a: u32, b: u32, l: f64) -> ScoredPair {
        ScoredPair::new(Pair::new(a, b), l)
    }

    #[test]
    fn keeps_disjoint_input_unchanged() {
        let matches = vec![sp(0, 10, 0.9), sp(1, 11, 0.8), sp(2, 12, 0.7)];
        let out = enforce_one_to_one(&matches);
        assert!(out.demoted.is_empty());
        assert_eq!(out.kept.len(), 3);
    }

    #[test]
    fn demotes_lower_likelihood_conflicts() {
        // Record 0 claimed by the 0.9 pair; the 0.6 pair sharing record 0
        // is demoted, freeing nothing for the 0.5 pair which shares 11.
        let matches = vec![sp(0, 10, 0.9), sp(0, 11, 0.6), sp(5, 11, 0.5)];
        let out = enforce_one_to_one(&matches);
        let kept: Vec<Pair> = out.kept.iter().map(|s| s.pair).collect();
        assert_eq!(kept, vec![Pair::new(0, 10), Pair::new(5, 11)]);
        assert_eq!(out.demoted.len(), 1);
        assert_eq!(out.demoted[0].pair, Pair::new(0, 11));
    }

    #[test]
    fn greedy_is_deterministic_under_ties() {
        let matches = vec![sp(0, 10, 0.5), sp(0, 11, 0.5)];
        let a = enforce_one_to_one(&matches);
        let b = enforce_one_to_one(&matches);
        assert_eq!(a, b);
        assert_eq!(a.kept.len(), 1);
        // Tie broken by pair ordering: (0,10) < (0,11).
        assert_eq!(a.kept[0].pair, Pair::new(0, 10));
    }

    #[test]
    fn kept_pairs_have_disjoint_endpoints() {
        let matches: Vec<ScoredPair> = (0..30u32)
            .flat_map(|i| {
                let l = 1.0 / (i + 1) as f64;
                vec![sp(i % 7, 10 + i % 5, l), sp(i % 5, 20 + i % 3, l * 0.9)]
            })
            .collect();
        // Dedup pairs (ScoredPair eq includes likelihood; dedup by pair).
        let mut seen = std::collections::BTreeSet::new();
        let matches: Vec<ScoredPair> =
            matches.into_iter().filter(|s| seen.insert(s.pair)).collect();
        let out = enforce_one_to_one(&matches);
        let mut used = std::collections::BTreeSet::new();
        for s in &out.kept {
            assert!(used.insert(s.pair.a()), "endpoint reused");
            assert!(used.insert(s.pair.b()), "endpoint reused");
        }
        assert_eq!(out.kept.len() + out.demoted.len(), matches.len());
    }

    #[test]
    fn empty_input() {
        let out = enforce_one_to_one(&[]);
        assert!(out.kept.is_empty());
        assert!(out.demoted.is_empty());
    }
}
