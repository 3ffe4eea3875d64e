//! Exact expected-cost analysis of labeling orders (Section 4.2).
//!
//! Each candidate pair carries a probability of being matching. A *world* is
//! a joint labeling of all pairs; only **consistent** worlds are possible —
//! a labeling is realizable by some entity clustering iff no non-matching
//! pair connects two objects that matching pairs place in one cluster. The
//! expected number of crowdsourced pairs of an order is the
//! consistency-renormalized expectation of the sequential labeler's cost over
//! worlds (this reproduces Example 4's arithmetic exactly).
//!
//! Finding the order minimizing this expectation is NP-hard (Vesdapunt et
//! al., VLDB 2014 — acknowledged in the paper's revision), so the production
//! path uses the likelihood-descending heuristic; this module provides the
//! exact machinery for small instances so the heuristic's gap can be
//! measured (ablation benches) and the paper's worked example can be pinned
//! in tests.

use crate::types::{Label, Pair, ScoredPair};
use crowdjoin_graph::{ClusterGraph, UnionFind};
use crowdjoin_util::FxHashMap;

/// Hard cap on the number of pairs world enumeration accepts (2^m worlds).
pub const MAX_ENUMERABLE_PAIRS: usize = 22;

/// Error returned when an instance is too large for exact enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyPairs {
    /// Number of pairs in the offending instance.
    pub pairs: usize,
}

impl std::fmt::Display for TooManyPairs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "exact world enumeration supports at most {MAX_ENUMERABLE_PAIRS} pairs, got {}",
            self.pairs
        )
    }
}

impl std::error::Error for TooManyPairs {}

/// A consistent world: one label per pair (indexed like the input pairs) and
/// its renormalized probability.
#[derive(Debug, Clone)]
pub struct World {
    /// Label of each pair, in input order.
    pub labels: Vec<Label>,
    /// Probability of this world, renormalized over consistent worlds.
    pub probability: f64,
}

/// Exact enumeration of all consistent worlds of a small instance.
#[derive(Debug, Clone)]
pub struct WorldEnumeration {
    num_objects: usize,
    pairs: Vec<ScoredPair>,
    index_of: FxHashMap<Pair, usize>,
    worlds: Vec<World>,
}

impl WorldEnumeration {
    /// Enumerates the consistent worlds of `pairs` over `num_objects`
    /// objects, with probabilities renormalized to sum to one.
    ///
    /// # Errors
    ///
    /// Returns [`TooManyPairs`] when `pairs.len() > MAX_ENUMERABLE_PAIRS`.
    pub fn new(num_objects: usize, pairs: &[ScoredPair]) -> Result<Self, TooManyPairs> {
        let m = pairs.len();
        if m > MAX_ENUMERABLE_PAIRS {
            return Err(TooManyPairs { pairs: m });
        }
        let index_of: FxHashMap<Pair, usize> =
            pairs.iter().enumerate().map(|(i, sp)| (sp.pair, i)).collect();
        assert_eq!(index_of.len(), m, "duplicate pairs in instance");

        let mut worlds = Vec::new();
        let mut total = 0.0f64;
        for mask in 0u64..(1u64 << m) {
            let labels: Vec<Label> = (0..m)
                .map(|i| if mask >> i & 1 == 1 { Label::Matching } else { Label::NonMatching })
                .collect();
            if !is_consistent(num_objects, pairs, &labels) {
                continue;
            }
            let mut prob = 1.0;
            for (i, sp) in pairs.iter().enumerate() {
                prob *= match labels[i] {
                    Label::Matching => sp.likelihood,
                    Label::NonMatching => 1.0 - sp.likelihood,
                };
            }
            total += prob;
            worlds.push(World { labels, probability: prob });
        }
        // Degenerate instances (a pair with likelihood exactly 0 or 1 forcing
        // inconsistency) can make the total zero; fall back to uniform over
        // consistent worlds so expectations stay defined.
        if total > 0.0 {
            for w in &mut worlds {
                w.probability /= total;
            }
        } else if !worlds.is_empty() {
            let uniform = 1.0 / worlds.len() as f64;
            for w in &mut worlds {
                w.probability = uniform;
            }
        }
        Ok(Self { num_objects, pairs: pairs.to_vec(), index_of, worlds })
    }

    /// The consistent worlds.
    #[must_use]
    pub fn worlds(&self) -> &[World] {
        &self.worlds
    }

    /// Number of consistent worlds.
    #[must_use]
    pub fn num_worlds(&self) -> usize {
        self.worlds.len()
    }

    /// The instance's pairs in input order.
    #[must_use]
    pub fn pairs(&self) -> &[ScoredPair] {
        &self.pairs
    }

    /// Expected number of crowdsourced pairs for labeling order `order`
    /// (pair indices into [`Self::pairs`], a permutation).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..pairs.len()`.
    #[must_use]
    pub fn expected_cost(&self, order: &[usize]) -> f64 {
        self.check_permutation(order);
        self.worlds.iter().map(|w| w.probability * self.world_cost(order, &w.labels) as f64).sum()
    }

    /// Expected cost of an order expressed as pairs rather than indices.
    ///
    /// # Panics
    ///
    /// Panics if the order is not a permutation of the instance's pairs.
    #[must_use]
    pub fn expected_cost_of_pairs(&self, order: &[ScoredPair]) -> f64 {
        let indices: Vec<usize> = order
            .iter()
            .map(|sp| {
                *self
                    .index_of
                    .get(&sp.pair)
                    .unwrap_or_else(|| panic!("pair {} not in instance", sp.pair))
            })
            .collect();
        self.expected_cost(&indices)
    }

    /// Number of crowdsourced pairs the sequential labeler incurs for
    /// `order` in the world `labels`.
    fn world_cost(&self, order: &[usize], labels: &[Label]) -> usize {
        let mut graph = ClusterGraph::new(self.num_objects);
        let mut cost = 0;
        for &i in order {
            let pair = self.pairs[i].pair;
            if graph.deduce(pair.a(), pair.b()).is_none() {
                cost += 1;
                graph
                    .insert(pair.a(), pair.b(), labels[i])
                    .expect("consistent world cannot conflict");
            }
        }
        cost
    }

    /// Exhaustive search for the expected-optimal order. Exponential in the
    /// number of pairs — intended for instances of at most ~8 pairs.
    ///
    /// Returns `(order, expected_cost)` minimizing the expectation; ties
    /// break toward the lexicographically smallest index order, making the
    /// result deterministic.
    #[must_use]
    pub fn brute_force_optimal(&self) -> (Vec<usize>, f64) {
        let m = self.pairs.len();
        let mut best_order: Vec<usize> = (0..m).collect();
        if m == 0 {
            return (best_order, 0.0);
        }
        let mut best_cost = self.expected_cost(&best_order);
        let mut current: Vec<usize> = (0..m).collect();
        // Iterative Heap's algorithm over index permutations.
        let mut c = vec![0usize; m];
        let mut i = 0;
        while i < m {
            if c[i] < i {
                if i % 2 == 0 {
                    current.swap(0, i);
                } else {
                    current.swap(c[i], i);
                }
                let cost = self.expected_cost(&current);
                if cost + 1e-12 < best_cost {
                    best_cost = cost;
                    best_order = current.clone();
                }
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        (best_order, best_cost)
    }

    fn check_permutation(&self, order: &[usize]) {
        assert_eq!(order.len(), self.pairs.len(), "order length mismatch");
        let mut seen = vec![false; self.pairs.len()];
        for &i in order {
            assert!(i < seen.len() && !seen[i], "order is not a permutation");
            seen[i] = true;
        }
    }
}

/// A labeling of pairs is consistent iff no non-matching pair connects two
/// objects that the matching pairs place in the same cluster.
#[must_use]
pub fn is_consistent(num_objects: usize, pairs: &[ScoredPair], labels: &[Label]) -> bool {
    debug_assert_eq!(pairs.len(), labels.len());
    let mut uf = UnionFind::new(num_objects);
    for (sp, &label) in pairs.iter().zip(labels) {
        if label == Label::Matching {
            uf.union(sp.pair.a(), sp.pair.b());
        }
    }
    pairs
        .iter()
        .zip(labels)
        .filter(|(_, &l)| l == Label::NonMatching)
        .all(|(sp, _)| !uf.connected(sp.pair.a(), sp.pair.b()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Example 4: triangle with likelihoods 0.9 / 0.5 / 0.1.
    fn example4() -> (usize, Vec<ScoredPair>) {
        (
            3,
            vec![
                ScoredPair::new(Pair::new(0, 1), 0.9), // p1
                ScoredPair::new(Pair::new(1, 2), 0.5), // p2
                ScoredPair::new(Pair::new(0, 2), 0.1), // p3
            ],
        )
    }

    #[test]
    fn triangle_has_five_consistent_worlds() {
        let (n, pairs) = example4();
        let we = WorldEnumeration::new(n, &pairs).unwrap();
        assert_eq!(we.num_worlds(), 5);
        let total: f64 = we.worlds().iter().map(|w| w.probability).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn example4_expected_costs() {
        // E[C(ω1..ω6)] = 2.09, 2.17, 2.83, 2.09, 2.17, 2.83 (paper values,
        // rounded to two decimals).
        let (n, pairs) = example4();
        let we = WorldEnumeration::new(n, &pairs).unwrap();
        let expect = |order: &[usize]| we.expected_cost(order);
        let approx = |x: f64, y: f64| (x - y).abs() < 5e-3;
        assert!(approx(expect(&[0, 1, 2]), 2.0917), "{}", expect(&[0, 1, 2])); // ω1
        assert!(approx(expect(&[0, 2, 1]), 2.1651), "{}", expect(&[0, 2, 1])); // ω2
        assert!(approx(expect(&[1, 2, 0]), 2.8257), "{}", expect(&[1, 2, 0])); // ω3
        assert!(approx(expect(&[1, 0, 2]), 2.0917), "{}", expect(&[1, 0, 2])); // ω4
        assert!(approx(expect(&[2, 0, 1]), 2.1651), "{}", expect(&[2, 0, 1])); // ω5
        assert!(approx(expect(&[2, 1, 0]), 2.8257), "{}", expect(&[2, 1, 0])); // ω6
    }

    #[test]
    fn example4_brute_force_picks_omega1_or_omega4() {
        let (n, pairs) = example4();
        let we = WorldEnumeration::new(n, &pairs).unwrap();
        let (order, cost) = we.brute_force_optimal();
        assert!((cost - 2.0917).abs() < 5e-3);
        assert!(order == vec![0, 1, 2] || order == vec![1, 0, 2], "{order:?}");
    }

    #[test]
    fn heuristic_matches_brute_force_on_example4() {
        // Likelihood-descending = ⟨p1, p2, p3⟩ = ω1, which is optimal here.
        let (n, pairs) = example4();
        let we = WorldEnumeration::new(n, &pairs).unwrap();
        let heuristic_cost = we.expected_cost(&[0, 1, 2]);
        let (_, best) = we.brute_force_optimal();
        assert!((heuristic_cost - best).abs() < 1e-9);
    }

    #[test]
    fn consistency_check_matches_intuition() {
        let (n, pairs) = example4();
        use Label::{Matching as M, NonMatching as N};
        assert!(is_consistent(n, &pairs, &[M, M, M]));
        assert!(is_consistent(n, &pairs, &[N, N, N]));
        assert!(is_consistent(n, &pairs, &[N, N, M]));
        assert!(!is_consistent(n, &pairs, &[M, M, N]));
        assert!(!is_consistent(n, &pairs, &[M, N, M]));
        assert!(!is_consistent(n, &pairs, &[N, M, M]));
    }

    #[test]
    fn rejects_oversized_instances() {
        let pairs: Vec<ScoredPair> = (0..MAX_ENUMERABLE_PAIRS as u32 + 1)
            .map(|i| ScoredPair::new(Pair::new(i, i + 100), 0.5))
            .collect();
        let err = WorldEnumeration::new(200, &pairs).unwrap_err();
        assert_eq!(err.pairs, MAX_ENUMERABLE_PAIRS + 1);
    }

    #[test]
    fn empty_instance() {
        let we = WorldEnumeration::new(3, &[]).unwrap();
        assert_eq!(we.num_worlds(), 1, "only the empty world");
        assert_eq!(we.expected_cost(&[]), 0.0);
        let (order, cost) = we.brute_force_optimal();
        assert!(order.is_empty());
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn disconnected_pairs_all_cost_one() {
        // Two disjoint pairs: nothing is ever deducible, expected cost = 2
        // for every order.
        let pairs =
            vec![ScoredPair::new(Pair::new(0, 1), 0.7), ScoredPair::new(Pair::new(2, 3), 0.4)];
        let we = WorldEnumeration::new(4, &pairs).unwrap();
        assert_eq!(we.num_worlds(), 4, "all four labelings are consistent");
        assert!((we.expected_cost(&[0, 1]) - 2.0).abs() < 1e-12);
        assert!((we.expected_cost(&[1, 0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn expected_cost_of_pairs_maps_correctly() {
        let (n, pairs) = example4();
        let we = WorldEnumeration::new(n, &pairs).unwrap();
        let reordered = vec![pairs[1], pairs[0], pairs[2]]; // ω4
        let via_pairs = we.expected_cost_of_pairs(&reordered);
        let via_indices = we.expected_cost(&[1, 0, 2]);
        assert!((via_pairs - via_indices).abs() < 1e-15);
    }

    #[test]
    fn extreme_likelihoods_stay_defined() {
        // p=1.0 matching edges force worlds; ensure normalization survives.
        let pairs = vec![
            ScoredPair::new(Pair::new(0, 1), 1.0),
            ScoredPair::new(Pair::new(1, 2), 1.0),
            ScoredPair::new(Pair::new(0, 2), 0.0),
        ];
        let we = WorldEnumeration::new(3, &pairs).unwrap();
        // All-matching is the only world with non-zero raw weight... but its
        // weight is 1*1*(1-0)=... p3 non-matching has probability 1 yet is
        // inconsistent with the forced matches, so the raw total is 0 and the
        // uniform fallback kicks in.
        let total: f64 = we.worlds().iter().map(|w| w.probability).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let cost = we.expected_cost(&[0, 1, 2]);
        assert!(cost.is_finite());
    }
}
