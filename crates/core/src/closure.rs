//! Incremental transitive closure over a set of *tracked* pairs.
//!
//! Algorithm 2 as written sweeps every still-pending pair after each crowd
//! answer, O(pending) per answer. The [`crate::ParallelLabeler`] instead
//! maintains the closure **eagerly and incrementally**, in the style of
//! semi-naive datalog evaluation: only facts derived *by the newest label*
//! propagate, nothing is recomputed from scratch.
//!
//! The index keys every tracked-but-undecided pair by the unordered pair of
//! **cluster slots** of its endpoints (slots are the stable cluster ids of
//! [`ClusterGraph`]). The deduction rules of the paper then become index
//! operations on the structural events reported by
//! [`ClusterGraph::insert_tracked`]:
//!
//! * new non-matching cluster edge `(A, B)` → every pending pair keyed
//!   `(A, B)` is deducible **non-matching**;
//! * cluster merge `dropped → kept` → pending keys `(dropped, X)` re-key to
//!   `(kept, X)`; pairs keyed `(dropped, kept)` become **matching**; re-keyed
//!   pairs whose new key hits an existing cluster edge become
//!   **non-matching**; and each *new neighbor* the merge grafted onto `kept`
//!   resolves pending pairs keyed `(kept, neighbor)` as **non-matching**.
//!
//! Total work over a run is bounded by key migrations, which follow the
//! ClusterGraph's smaller-set merge rule — O(P log P) amortized for P
//! tracked pairs, versus O(P · answers) for the rescan strategy.

use crate::types::{Label, Pair};
use crowdjoin_graph::{ClusterGraph, ConflictError, InsertOutcome, TrackedInsert};
use crowdjoin_util::{FxHashMap, FxHashSet};

/// A newly deduced tracked pair: the caller-assigned id and the label.
pub(crate) type Deduction = (usize, Label);

/// Incrementally maintained positive/negative transitive closure.
#[derive(Debug, Clone)]
pub(crate) struct IncrementalClosure {
    graph: ClusterGraph,
    /// Unordered slot-pair key → caller ids of pending pairs between those
    /// clusters.
    pending: FxHashMap<(u32, u32), Vec<usize>>,
    /// Per slot: partner slots with at least one pending pair.
    partners: Vec<FxHashSet<u32>>,
}

fn key(a: u32, b: u32) -> (u32, u32) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

impl IncrementalClosure {
    /// Creates a closure over objects `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            graph: ClusterGraph::new(n),
            pending: FxHashMap::default(),
            partners: vec![FxHashSet::default(); n],
        }
    }

    /// Registers a pair of interest under the caller's `id`.
    ///
    /// Returns the label right away if the pair is already deducible
    /// (it is then *not* indexed); otherwise the pair is indexed and will be
    /// reported through [`Self::insert`]'s deduction output exactly once,
    /// when it first becomes deducible.
    pub(crate) fn track(&mut self, id: usize, pair: Pair) -> Option<Label> {
        let sa = self.graph.slot_of(pair.a());
        let sb = self.graph.slot_of(pair.b());
        if sa == sb {
            return Some(Label::Matching);
        }
        if self.graph.slots_adjacent(sa, sb) {
            return Some(Label::NonMatching);
        }
        self.pending.entry(key(sa, sb)).or_default().push(id);
        self.partners[sa as usize].insert(sb);
        self.partners[sb as usize].insert(sa);
        None
    }

    /// Inserts a crowd label and appends every tracked pair that *became*
    /// deducible to `deduced` (semi-naive delta propagation).
    ///
    /// On conflict (the label contradicts the existing closure) nothing
    /// changes and the error carries the deduced label — callers choose the
    /// resolution policy exactly as with [`ClusterGraph::insert`].
    pub(crate) fn insert(
        &mut self,
        pair: Pair,
        label: Label,
        deduced: &mut Vec<Deduction>,
    ) -> Result<InsertOutcome, ConflictError> {
        let event = self.graph.insert_tracked(pair.a(), pair.b(), label)?;
        match event {
            TrackedInsert::Redundant => Ok(InsertOutcome::Redundant),
            TrackedInsert::NonMatchingEdge { slot_a, slot_b } => {
                self.resolve_key(slot_a, slot_b, Label::NonMatching, deduced);
                Ok(InsertOutcome::Inserted)
            }
            TrackedInsert::Merge { kept_slot, dropped_slot, new_neighbors } => {
                self.apply_merge(kept_slot, dropped_slot, &new_neighbors, deduced);
                Ok(InsertOutcome::Inserted)
            }
        }
    }

    /// Drains the pending list keyed `(a, b)`, reporting each pair with
    /// `label`.
    fn resolve_key(&mut self, a: u32, b: u32, label: Label, deduced: &mut Vec<Deduction>) {
        if let Some(ids) = self.pending.remove(&key(a, b)) {
            self.partners[a as usize].remove(&b);
            self.partners[b as usize].remove(&a);
            deduced.extend(ids.into_iter().map(|id| (id, label)));
        }
    }

    /// Applies a cluster merge to the index.
    fn apply_merge(
        &mut self,
        kept: u32,
        dropped: u32,
        new_neighbors: &[u32],
        deduced: &mut Vec<Deduction>,
    ) {
        // Re-home every pending key involving the dropped slot.
        let dropped_partners = std::mem::take(&mut self.partners[dropped as usize]);
        for t in dropped_partners {
            let ids = self
                .pending
                .remove(&key(dropped, t))
                .expect("partner set and pending keys must agree");
            self.partners[t as usize].remove(&dropped);
            if t == kept {
                // Pairs between the two merging clusters: now matching.
                deduced.extend(ids.into_iter().map(|id| (id, Label::Matching)));
            } else if self.graph.slots_adjacent(kept, t) {
                // The merged cluster already carries a non-matching edge to
                // t: one hop of negative transitivity.
                deduced.extend(ids.into_iter().map(|id| (id, Label::NonMatching)));
            } else {
                // Still undecided; carried over under the surviving slot.
                self.partners[t as usize].insert(kept);
                self.partners[kept as usize].insert(t);
                self.pending.entry(key(kept, t)).or_default().extend(ids);
            }
        }
        // Cluster edges the merge grafted onto the kept side resolve pending
        // pairs between the kept cluster and those neighbors.
        for &t in new_neighbors {
            self.resolve_key(kept, t, Label::NonMatching, deduced);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(a: u32, b: u32) -> Pair {
        Pair::new(a, b)
    }

    /// Reference: after each insert, the delta must equal the set of tracked
    /// pairs that switched from undeducible to deducible in a fresh graph.
    fn check_against_reference(n: usize, tracked: &[Pair], inserts: &[(Pair, Label)]) {
        let mut closure = IncrementalClosure::new(n);
        let mut immediately: Vec<(usize, Option<Label>)> = Vec::new();
        for (id, &pr) in tracked.iter().enumerate() {
            immediately.push((id, closure.track(id, pr)));
        }
        let mut resolved: FxHashMap<usize, Label> =
            immediately.iter().filter_map(|&(id, l)| l.map(|l| (id, l))).collect();

        let mut reference = ClusterGraph::new(n);
        for &(pr, label) in inserts {
            let before: Vec<Option<Label>> =
                tracked.iter().map(|t| reference.deduce(t.a(), t.b())).collect();
            let mut delta = Vec::new();
            let ours = closure.insert(pr, label, &mut delta);
            let refr = reference.insert(pr.a(), pr.b(), label);
            assert_eq!(ours.is_err(), refr.is_err(), "conflict behavior diverged on {pr}");
            let after: Vec<Option<Label>> =
                tracked.iter().map(|t| reference.deduce(t.a(), t.b())).collect();

            let mut expect: Vec<(usize, Label)> = before
                .iter()
                .zip(&after)
                .enumerate()
                .filter_map(|(id, (b, a))| match (b, a) {
                    (None, Some(l)) if !resolved.contains_key(&id) => Some((id, *l)),
                    _ => None,
                })
                .collect();
            expect.sort_unstable_by_key(|&(id, _)| id);
            delta.sort_unstable_by_key(|&(id, _)| id);
            assert_eq!(delta, expect, "delta diverged after inserting {pr} {label}");
            for (id, l) in delta {
                resolved.insert(id, l);
            }
        }
    }

    #[test]
    fn track_reports_already_deducible() {
        let mut c = IncrementalClosure::new(3);
        let mut delta = Vec::new();
        c.insert(p(0, 1), Label::Matching, &mut delta).unwrap();
        assert!(delta.is_empty());
        assert_eq!(c.track(0, p(0, 1)), Some(Label::Matching));
        assert_eq!(c.track(1, p(0, 2)), None);
        assert_eq!(c.pending.values().map(Vec::len).sum::<usize>(), 1);
    }

    #[test]
    fn positive_chain_delta() {
        let mut c = IncrementalClosure::new(4);
        let mut delta = Vec::new();
        assert_eq!(c.track(0, p(0, 2)), None); // will follow 0=1, 1=2
        assert_eq!(c.track(1, p(0, 3)), None);
        c.insert(p(0, 1), Label::Matching, &mut delta).unwrap();
        assert!(delta.is_empty());
        c.insert(p(1, 2), Label::Matching, &mut delta).unwrap();
        assert_eq!(delta, vec![(0, Label::Matching)]);
        delta.clear();
        c.insert(p(2, 3), Label::Matching, &mut delta).unwrap();
        assert_eq!(delta, vec![(1, Label::Matching)]);
        assert!(c.pending.is_empty());
    }

    #[test]
    fn negative_single_hop_delta() {
        let mut c = IncrementalClosure::new(3);
        let mut delta = Vec::new();
        c.track(7, p(0, 2));
        c.insert(p(0, 1), Label::Matching, &mut delta).unwrap();
        c.insert(p(1, 2), Label::NonMatching, &mut delta).unwrap();
        assert_eq!(delta, vec![(7, Label::NonMatching)]);
    }

    #[test]
    fn merge_with_existing_edge_resolves_nonmatching() {
        // track (1,2); 0≠2; then 0=1 merges and the pre-existing edge to
        // {2} makes (1,2) non-matching.
        let mut c = IncrementalClosure::new(3);
        let mut delta = Vec::new();
        c.track(0, p(1, 2));
        c.insert(p(0, 2), Label::NonMatching, &mut delta).unwrap();
        assert!(delta.is_empty());
        c.insert(p(0, 1), Label::Matching, &mut delta).unwrap();
        assert_eq!(delta, vec![(0, Label::NonMatching)]);
    }

    #[test]
    fn conflict_leaves_index_untouched() {
        let mut c = IncrementalClosure::new(3);
        let mut delta = Vec::new();
        c.track(0, p(0, 2));
        c.insert(p(0, 1), Label::Matching, &mut delta).unwrap();
        c.insert(p(1, 2), Label::Matching, &mut delta).unwrap();
        assert_eq!(delta, vec![(0, Label::Matching)]);
        delta.clear();
        let err = c.insert(p(0, 2), Label::NonMatching, &mut delta).unwrap_err();
        assert_eq!(err.deduced, Label::Matching);
        assert!(delta.is_empty());
    }

    #[test]
    fn paper_running_example_against_reference() {
        // Figure 3: all 8 candidate pairs tracked, answers arriving in the
        // expected-likelihood order.
        let tracked = [p(0, 1), p(1, 2), p(0, 5), p(0, 2), p(3, 4), p(3, 5), p(1, 3), p(4, 5)];
        let inserts = [
            (p(0, 1), Label::Matching),
            (p(1, 2), Label::Matching),
            (p(0, 5), Label::NonMatching),
            (p(3, 4), Label::Matching),
            (p(3, 5), Label::NonMatching),
            (p(1, 3), Label::NonMatching),
        ];
        check_against_reference(6, &tracked, &inserts);
    }

    #[test]
    fn randomized_against_reference() {
        // Deterministic pseudo-random instances exercise merge re-keying,
        // parallel-edge collapse, and new-neighbor grafting.
        let mut rng = crowdjoin_util::SplitMix64::new(0xC10_05E);
        for case in 0..200 {
            let n = 4 + (rng.next_u64() % 10) as usize;
            let mut tracked = Vec::new();
            let mut seen = FxHashSet::default();
            for _ in 0..n * 2 {
                let a = (rng.next_u64() % n as u64) as u32;
                let b = (rng.next_u64() % n as u64) as u32;
                if a != b && seen.insert(key(a, b)) {
                    tracked.push(p(a, b));
                }
            }
            // Consistent truth: entity = id % k.
            let k = 1 + (rng.next_u64() % 4) as u32;
            let label_of = |pr: Pair| {
                if pr.a() % k == pr.b() % k {
                    Label::Matching
                } else {
                    Label::NonMatching
                }
            };
            let mut inserts: Vec<(Pair, Label)> =
                tracked.iter().map(|&t| (t, label_of(t))).collect();
            // Shuffle arrival order.
            for i in (1..inserts.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                inserts.swap(i, j);
            }
            check_against_reference(n, &tracked, &inserts);
            let _ = case;
        }
    }
}
