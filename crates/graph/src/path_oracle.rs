//! A deliberately simple reference implementation of the Lemma 1 path
//! semantics, used to verify [`crate::ClusterGraph`].
//!
//! Deduction is answered straight from the definition: `(a, b)` is matching
//! iff a matching-only path connects them; non-matching iff some path uses
//! exactly one non-matching edge — equivalently, iff a non-matching edge
//! `(u, v)` exists with `u` matching-reachable from `a` and `v`
//! matching-reachable from `b` (or vice versa). Queries are O(V + E); this is
//! the *oracle*, not the production structure.

use crate::EdgeLabel;

/// Labeled-pair graph answering deduction queries by breadth-first search.
#[derive(Debug, Clone)]
pub struct PathOracleGraph {
    n: usize,
    /// Matching adjacency lists.
    matching_adj: Vec<Vec<u32>>,
    /// All non-matching edges, as inserted.
    nonmatching_edges: Vec<(u32, u32)>,
}

impl PathOracleGraph {
    /// Creates an oracle over objects `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self { n, matching_adj: vec![Vec::new(); n], nonmatching_edges: Vec::new() }
    }

    /// Number of objects.
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.n
    }

    /// Records a labeled pair. No consistency checking: the oracle represents
    /// exactly the set of labeled edges it was given.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range or `a == b`.
    pub fn insert(&mut self, a: u32, b: u32, label: EdgeLabel) {
        assert_ne!(a, b, "a pair must relate two distinct objects");
        assert!((a as usize) < self.n && (b as usize) < self.n, "object id out of range");
        match label {
            EdgeLabel::Matching => {
                self.matching_adj[a as usize].push(b);
                self.matching_adj[b as usize].push(a);
            }
            EdgeLabel::NonMatching => self.nonmatching_edges.push((a, b)),
        }
    }

    /// Set of objects reachable from `start` using only matching edges
    /// (including `start` itself), as a membership bitmap.
    fn matching_component(&self, start: u32) -> Vec<bool> {
        let mut seen = vec![false; self.n];
        seen[start as usize] = true;
        let mut stack = vec![start];
        while let Some(x) = stack.pop() {
            for &y in &self.matching_adj[x as usize] {
                if !seen[y as usize] {
                    seen[y as usize] = true;
                    stack.push(y);
                }
            }
        }
        seen
    }

    /// Deduction by the literal Lemma 1 conditions.
    #[must_use]
    pub fn deduce(&self, a: u32, b: u32) -> Option<EdgeLabel> {
        let comp_a = self.matching_component(a);
        if comp_a[b as usize] {
            return Some(EdgeLabel::Matching);
        }
        let comp_b = self.matching_component(b);
        for &(u, v) in &self.nonmatching_edges {
            let (u, v) = (u as usize, v as usize);
            if (comp_a[u] && comp_b[v]) || (comp_a[v] && comp_b[u]) {
                return Some(EdgeLabel::NonMatching);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterGraph, ScanGraph, ScanStep};
    use proptest::prelude::*;

    #[test]
    fn matches_lemma_examples() {
        // Paper Example 1 / Figure 2, 0-based ids.
        let mut g = PathOracleGraph::new(7);
        g.insert(0, 1, EdgeLabel::Matching);
        g.insert(2, 3, EdgeLabel::Matching);
        g.insert(3, 4, EdgeLabel::Matching);
        g.insert(0, 5, EdgeLabel::NonMatching);
        g.insert(1, 2, EdgeLabel::NonMatching);
        g.insert(2, 6, EdgeLabel::NonMatching);
        g.insert(4, 5, EdgeLabel::NonMatching);
        assert_eq!(g.deduce(2, 4), Some(EdgeLabel::Matching));
        assert_eq!(g.deduce(4, 6), Some(EdgeLabel::NonMatching));
        assert_eq!(g.deduce(0, 6), None);
    }

    #[test]
    fn symmetric_queries() {
        let mut g = PathOracleGraph::new(4);
        g.insert(0, 1, EdgeLabel::Matching);
        g.insert(1, 2, EdgeLabel::NonMatching);
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    assert_eq!(g.deduce(a, b), g.deduce(b, a), "asymmetry on ({a},{b})");
                }
            }
        }
    }

    /// Strategy producing a *consistent* random label sequence: each edge is
    /// labeled according to a random ground-truth clustering, which is exactly
    /// how the labeling framework feeds the ClusterGraph (deduction happens
    /// before insertion, so inserted labels never contradict the graph).
    fn consistent_sequence() -> impl Strategy<Value = (usize, Vec<(u32, u32, EdgeLabel)>)> {
        (4usize..16)
            .prop_flat_map(|n| {
                let entity = proptest::collection::vec(0u32..(n as u32 / 2).max(1), n);
                let pairs = proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..40);
                (Just(n), entity, pairs)
            })
            .prop_map(|(n, entity, pairs)| {
                let seq = pairs
                    .into_iter()
                    .filter(|&(a, b)| a != b)
                    .map(|(a, b)| {
                        let label = if entity[a as usize] == entity[b as usize] {
                            EdgeLabel::Matching
                        } else {
                            EdgeLabel::NonMatching
                        };
                        (a, b, label)
                    })
                    .collect();
                (n, seq)
            })
    }

    /// Strategy producing an *inconsistent* label sequence: the labels of
    /// [`consistent_sequence`], each flipped with probability 1/4 — what a
    /// noisy crowd feeds the graph. Nothing is filtered: redundant and
    /// conflicting inserts are part of the sequence.
    fn noisy_sequence() -> impl Strategy<Value = (usize, Vec<(u32, u32, EdgeLabel)>)> {
        consistent_sequence()
            .prop_flat_map(|(n, seq)| {
                let flips = proptest::collection::vec(0u32..4, seq.len());
                (Just(n), Just(seq), flips)
            })
            .prop_map(|(n, seq, flips)| {
                let seq = seq
                    .into_iter()
                    .zip(flips)
                    .map(|((a, b, label), flip)| {
                        let label = match (flip, label) {
                            (0, EdgeLabel::Matching) => EdgeLabel::NonMatching,
                            (0, EdgeLabel::NonMatching) => EdgeLabel::Matching,
                            (_, label) => label,
                        };
                        (a, b, label)
                    })
                    .collect();
                (n, seq)
            })
    }

    proptest! {
        /// ClusterGraph must agree with the path-semantics oracle on every
        /// pair after every prefix of a consistent insertion sequence.
        #[test]
        fn cluster_graph_equals_oracle((n, seq) in consistent_sequence()) {
            let mut fast = ClusterGraph::new(n);
            let mut slow = PathOracleGraph::new(n);
            for &(a, b, label) in &seq {
                // Mirror the labeling framework: deduce first, insert only
                // when not deducible.
                if fast.deduce(a, b).is_none() {
                    fast.insert(a, b, label).expect("consistent sequence cannot conflict");
                    slow.insert(a, b, label);
                }
                for x in 0..n as u32 {
                    for y in (x + 1)..n as u32 {
                        prop_assert_eq!(
                            fast.deduce(x, y),
                            slow.deduce(x, y),
                            "disagreement on ({}, {}) after inserting ({}, {})", x, y, a, b
                        );
                    }
                }
            }
        }

        /// The scan graph is `ClusterGraph::insert` on a noisy sequence:
        /// `Inserted` is a merge (matching) or an edge (non-matching),
        /// `Redundant` and a conflict are nothing, every step names the
        /// roots the `ClusterGraph` sees, and after every insert both graphs
        /// deduce the same label for every pair. The scan graph runs on an
        /// instance reset after a first sequence, and a second reset graph
        /// replaying the recorded steps ends in the same state — the two
        /// things the labeler's rescan does. The universe is the larger of
        /// the two cases', so the first run leaves state in ids the second
        /// also uses.
        #[test]
        fn scan_graph_equals_cluster_graph(
            (n1, first) in noisy_sequence(),
            (n2, second) in noisy_sequence(),
        ) {
            let n = n1.max(n2);
            let mut scan = ScanGraph::new(n);
            let mut replayed = ScanGraph::new(n);
            for &(a, b, label) in &first {
                scan.insert(a, b, label);
                replayed.insert(a, b, label);
            }
            scan.reset();
            replayed.reset();
            let mut reference = ClusterGraph::new(n);
            let mut steps = Vec::new();
            for &(a, b, label) in &second {
                let roots = (reference.cluster_of(a), reference.cluster_of(b));
                let inserted = reference.insert(a, b, label) == Ok(crate::InsertOutcome::Inserted);
                let step = scan.insert(a, b, label);
                let (x, y) = step.roots();
                match step {
                    ScanStep::Nothing(..) => prop_assert!(!inserted),
                    ScanStep::Merge { .. } => prop_assert!(inserted && label.is_matching()),
                    ScanStep::Edge(..) => prop_assert!(inserted && !label.is_matching()),
                }
                prop_assert!((x, y) == roots || (y, x) == roots, "{:?} vs roots {:?}", step, roots);
                steps.push(step);
                for x in 0..n as u32 {
                    for y in (x + 1)..n as u32 {
                        prop_assert_eq!(scan.deduce(x, y), reference.deduce(x, y), "({}, {})", x, y);
                    }
                }
            }
            for step in steps {
                replayed.replay(step);
            }
            for x in 0..n as u32 {
                prop_assert_eq!(replayed.is_root(x), reference.cluster_of(x) == x);
                for y in (x + 1)..n as u32 {
                    prop_assert_eq!(replayed.deduce(x, y), reference.deduce(x, y), "({}, {})", x, y);
                }
            }
        }

        /// Inconsistent label sequences (a noisy crowd): a rejected insert
        /// changes no deduction, and the graph keeps agreeing with the path
        /// oracle fed exactly the accepted labels. After every insert the
        /// edge count equals a brute-force count of adjacent cluster pairs
        /// and slot adjacency is symmetric, and the neighbour lists and
        /// degrees (which pick the migrated side) match a brute-force count.
        #[test]
        fn conflicts_leave_the_graph_unchanged((n, seq) in noisy_sequence()) {
            let all_pairs = |g: &mut ClusterGraph| -> Vec<Option<EdgeLabel>> {
                (0..n as u32)
                    .flat_map(|x| ((x + 1)..n as u32).map(move |y| (x, y)))
                    .map(|(x, y)| g.deduce(x, y))
                    .collect()
            };
            let mut fast = ClusterGraph::new(n);
            let mut slow = PathOracleGraph::new(n);
            for &(a, b, label) in &seq {
                let before = all_pairs(&mut fast);
                match fast.insert(a, b, label) {
                    Ok(crate::InsertOutcome::Inserted) => slow.insert(a, b, label),
                    Ok(crate::InsertOutcome::Redundant) => {
                        prop_assert_eq!(all_pairs(&mut fast), before, "redundant insert changed a deduction");
                    }
                    Err(conflict) => {
                        prop_assert_eq!(conflict.attempted, label);
                        prop_assert_eq!(Some(conflict.deduced), slow.deduce(a, b));
                        prop_assert_eq!(all_pairs(&mut fast), before, "conflict changed a deduction");
                    }
                }
                let mut adjacent = crowdjoin_util::FxHashSet::default();
                for x in 0..n as u32 {
                    for y in (x + 1)..n as u32 {
                        prop_assert_eq!(fast.deduce(x, y), slow.deduce(x, y), "({}, {})", x, y);
                        let (sx, sy) = (fast.slot_of(x), fast.slot_of(y));
                        prop_assert_eq!(fast.slots_adjacent(sx, sy), fast.slots_adjacent(sy, sx));
                        prop_assert_eq!(
                            fast.slots_adjacent(sx, sy),
                            fast.deduce(x, y) == Some(EdgeLabel::NonMatching)
                        );
                        if fast.slots_adjacent(sx, sy) {
                            adjacent.insert((sx.min(sy), sx.max(sy)));
                        }
                    }
                }
                prop_assert_eq!(fast.num_cluster_edges(), adjacent.len());
                fast.assert_layout_invariants();
            }
        }

        /// Deduction from the oracle is sound with respect to the generating
        /// ground truth: whatever it deduces equals the true relation.
        #[test]
        fn oracle_deduction_is_sound((n, seq) in consistent_sequence()) {
            // Rebuild the ground truth from the sequence itself: matching
            // edges union objects.
            let mut slow = PathOracleGraph::new(n);
            let mut uf = crate::UnionFind::new(n);
            let mut nonmatching = vec![];
            for &(a, b, label) in &seq {
                slow.insert(a, b, label);
                match label {
                    EdgeLabel::Matching => { uf.union(a, b); }
                    EdgeLabel::NonMatching => nonmatching.push((a, b)),
                }
            }
            for x in 0..n as u32 {
                for y in (x + 1)..n as u32 {
                    if let Some(EdgeLabel::Matching) = slow.deduce(x, y) {
                        prop_assert!(uf.connected(x, y));
                    }
                }
            }
            // Every directly inserted non-matching edge endpoints must not be
            // matching-connected (consistency of generated data).
            for (a, b) in nonmatching {
                prop_assert!(!uf.connected(a, b));
            }
        }
    }
}
