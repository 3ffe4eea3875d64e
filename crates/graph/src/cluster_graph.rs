//! The incremental **ClusterGraph** (Section 3.2 of the paper).
//!
//! Matching edges are contracted with union–find; non-matching edges are kept
//! between the contracted clusters. Deduction then becomes:
//!
//! * same cluster → deducible as *matching* (a matching-only path exists);
//! * different clusters with a direct cluster edge → deducible as
//!   *non-matching* (a path with exactly one non-matching edge exists);
//! * otherwise → not deducible.
//!
//! # Complexity
//!
//! `deduce` costs two `find`s plus one hash probe — O(α(n)) amortized.
//! `insert` of a matching edge merges two clusters; the smaller *adjacency
//! set* is migrated into the larger one (independently of which component
//! wins the union-by-size), so the total edge-migration work over any
//! insertion sequence is O(E log E). This is done through a root→slot
//! indirection: adjacency sets store stable *slot* ids, and a merge only
//! rewrites the entries of the smaller set.

use crate::{EdgeLabel, UnionFind};
use crowdjoin_util::FxHashSet;

/// Error returned by [`ClusterGraph::insert`] when the attempted label
/// contradicts what the graph already deduces for that pair.
///
/// With a perfect answer source this never happens (the labeling framework
/// only crowdsources pairs that are not deducible), but noisy crowd answers
/// can produce contradictions; callers decide the resolution policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictError {
    /// First object of the conflicting pair.
    pub a: u32,
    /// Second object of the conflicting pair.
    pub b: u32,
    /// The label already deducible from the graph.
    pub deduced: EdgeLabel,
    /// The label the caller attempted to insert.
    pub attempted: EdgeLabel,
}

impl std::fmt::Display for ConflictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "label conflict on pair ({}, {}): graph deduces {}, attempted {}",
            self.a, self.b, self.deduced, self.attempted
        )
    }
}

impl std::error::Error for ConflictError {}

/// Outcome of a successful [`ClusterGraph::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The edge added new information to the graph.
    Inserted,
    /// The pair was already deducible with the same label; nothing changed.
    Redundant,
}

/// Outcome of a successful [`ClusterGraph::insert_tracked`], describing the
/// structural change in terms of adjacency *slots* so that layers indexing
/// per-cluster state (e.g. the engine's incremental closure) can update
/// themselves without rescans.
///
/// Slots are the stable cluster identifiers used by the adjacency sets; the
/// slot of an object's current cluster is [`ClusterGraph::slot_of`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrackedInsert {
    /// The pair was already deducible with the same label; nothing changed.
    Redundant,
    /// A non-matching cluster edge was added between two existing clusters.
    NonMatchingEdge {
        /// Slot of the first cluster.
        slot_a: u32,
        /// Slot of the second cluster.
        slot_b: u32,
    },
    /// Two clusters merged (a matching label).
    Merge {
        /// Slot identifying the surviving cluster.
        kept_slot: u32,
        /// Slot of the absorbed cluster; no longer identifies any cluster
        /// after this event.
        dropped_slot: u32,
        /// Slots that were adjacent to the dropped cluster but **not** to
        /// the kept cluster before the merge — the cluster edges the merge
        /// added to the kept cluster.
        new_neighbors: Vec<u32>,
    },
}

/// Incremental transitive-deduction structure over objects `0..n`.
#[derive(Debug, Clone)]
pub struct ClusterGraph {
    uf: UnionFind,
    /// Root object id → adjacency slot. Only meaningful for current roots.
    slot_of_root: Vec<u32>,
    /// Slot → set of neighbor slots connected by ≥1 non-matching pair.
    adj: Vec<FxHashSet<u32>>,
    /// Number of distinct cluster-level non-matching edges.
    cluster_edges: usize,
    /// Count of matching labels inserted (non-redundant).
    matching_inserted: usize,
    /// Count of non-matching labels inserted (non-redundant).
    nonmatching_inserted: usize,
}

impl ClusterGraph {
    /// Creates a graph over `n` isolated objects with ids `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            uf: UnionFind::new(n),
            slot_of_root: (0..n as u32).collect(),
            adj: vec![FxHashSet::default(); n],
            cluster_edges: 0,
            matching_inserted: 0,
            nonmatching_inserted: 0,
        }
    }

    /// Number of objects in the universe.
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.uf.len()
    }

    /// Number of clusters (union–find components), counting isolated objects.
    #[must_use]
    pub fn num_clusters(&self) -> usize {
        self.uf.num_components()
    }

    /// Number of distinct cluster-level non-matching edges.
    #[must_use]
    pub fn num_cluster_edges(&self) -> usize {
        self.cluster_edges
    }

    /// Non-redundant matching labels inserted so far.
    #[must_use]
    pub fn matching_inserted(&self) -> usize {
        self.matching_inserted
    }

    /// Non-redundant non-matching labels inserted so far.
    #[must_use]
    pub fn nonmatching_inserted(&self) -> usize {
        self.nonmatching_inserted
    }

    /// Extends the universe with a new isolated object, returning its id.
    pub fn push_object(&mut self) -> u32 {
        let id = self.uf.push();
        self.slot_of_root.push(id);
        self.adj.push(FxHashSet::default());
        id
    }

    /// Attempts to deduce the label of `(a, b)` from the inserted edges.
    ///
    /// Returns `None` when the pair is not deducible (every path between the
    /// objects would need more than one non-matching edge).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn deduce(&mut self, a: u32, b: u32) -> Option<EdgeLabel> {
        let ra = self.uf.find(a);
        let rb = self.uf.find(b);
        if ra == rb {
            return Some(EdgeLabel::Matching);
        }
        let sa = self.slot_of_root[ra as usize];
        let sb = self.slot_of_root[rb as usize];
        if self.adj[sa as usize].contains(&sb) {
            Some(EdgeLabel::NonMatching)
        } else {
            None
        }
    }

    /// Read-only deduction (no path compression). Prefer [`Self::deduce`] on
    /// hot paths; this exists for callers holding only `&self`.
    #[must_use]
    pub fn deduce_readonly(&self, a: u32, b: u32) -> Option<EdgeLabel> {
        let ra = self.uf.find_immutable(a);
        let rb = self.uf.find_immutable(b);
        if ra == rb {
            return Some(EdgeLabel::Matching);
        }
        let sa = self.slot_of_root[ra as usize];
        let sb = self.slot_of_root[rb as usize];
        if self.adj[sa as usize].contains(&sb) {
            Some(EdgeLabel::NonMatching)
        } else {
            None
        }
    }

    /// Inserts the labeled pair `(a, b)`.
    ///
    /// * If the pair is already deducible with the same label, returns
    ///   `Ok(InsertOutcome::Redundant)` and changes nothing.
    /// * If it is deducible with the *opposite* label, returns a
    ///   [`ConflictError`] and changes nothing — the caller chooses whether to
    ///   trust the deduction or the new answer.
    /// * Otherwise records the edge and returns `Ok(InsertOutcome::Inserted)`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (a pair must relate two distinct objects) or if an
    /// id is out of range.
    pub fn insert(
        &mut self,
        a: u32,
        b: u32,
        label: EdgeLabel,
    ) -> Result<InsertOutcome, ConflictError> {
        self.insert_tracked(a, b, label).map(|t| match t {
            TrackedInsert::Redundant => InsertOutcome::Redundant,
            _ => InsertOutcome::Inserted,
        })
    }

    /// [`Self::insert`] with a structural change report — see
    /// [`TrackedInsert`]. Same contract as `insert` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or an id is out of range.
    pub fn insert_tracked(
        &mut self,
        a: u32,
        b: u32,
        label: EdgeLabel,
    ) -> Result<TrackedInsert, ConflictError> {
        assert_ne!(a, b, "a pair must relate two distinct objects");
        match self.deduce(a, b) {
            Some(deduced) if deduced == label => Ok(TrackedInsert::Redundant),
            Some(deduced) => Err(ConflictError { a, b, deduced, attempted: label }),
            None => Ok(match label {
                EdgeLabel::Matching => self.insert_matching(a, b),
                EdgeLabel::NonMatching => self.insert_nonmatching(a, b),
            }),
        }
    }

    /// The adjacency *slot* currently identifying the cluster of object `x`.
    ///
    /// Stable until a merge involving the cluster; merge events
    /// ([`TrackedInsert::Merge`]) describe slot transitions.
    pub fn slot_of(&mut self, x: u32) -> u32 {
        let r = self.uf.find(x);
        self.slot_of_root[r as usize]
    }

    /// `true` when the clusters identified by `slot_a` and `slot_b` are
    /// connected by a non-matching cluster edge.
    #[must_use]
    pub fn slots_adjacent(&self, slot_a: u32, slot_b: u32) -> bool {
        self.adj[slot_a as usize].contains(&slot_b)
    }

    /// Merges the clusters of `a` and `b`. Caller guarantees they are in
    /// different clusters with no cluster edge between them (checked by
    /// `insert` via `deduce`).
    fn insert_matching(&mut self, a: u32, b: u32) -> TrackedInsert {
        let (winner, absorbed) =
            self.uf.union(a, b).expect("insert_matching called for objects already in one cluster");
        let sw = self.slot_of_root[winner as usize];
        let sa = self.slot_of_root[absorbed as usize];
        // Migrate the smaller adjacency set, independent of which component
        // won the union: slots are stable, so only the moved set's entries
        // (and its neighbors' back-references) need rewriting.
        let (keep, drop) = if self.adj[sw as usize].len() >= self.adj[sa as usize].len() {
            (sw, sa)
        } else {
            (sa, sw)
        };
        let moved = std::mem::take(&mut self.adj[drop as usize]);
        let mut new_neighbors = Vec::new();
        for t in moved {
            debug_assert_ne!(t, keep, "edge between merging clusters must have been a conflict");
            self.adj[t as usize].remove(&drop);
            if self.adj[keep as usize].insert(t) {
                self.adj[t as usize].insert(keep);
                new_neighbors.push(t);
            } else {
                // (keep, t) already existed: two parallel cluster edges
                // collapse into one.
                self.cluster_edges -= 1;
            }
        }
        self.slot_of_root[winner as usize] = keep;
        self.matching_inserted += 1;
        TrackedInsert::Merge { kept_slot: keep, dropped_slot: drop, new_neighbors }
    }

    /// Adds a cluster-level non-matching edge. Caller guarantees the clusters
    /// are distinct and not yet adjacent.
    fn insert_nonmatching(&mut self, a: u32, b: u32) -> TrackedInsert {
        let ra = self.uf.find(a);
        let rb = self.uf.find(b);
        let sa = self.slot_of_root[ra as usize];
        let sb = self.slot_of_root[rb as usize];
        let newly_a = self.adj[sa as usize].insert(sb);
        let newly_b = self.adj[sb as usize].insert(sa);
        debug_assert!(newly_a && newly_b, "insert_nonmatching called for adjacent clusters");
        self.cluster_edges += 1;
        self.nonmatching_inserted += 1;
        TrackedInsert::NonMatchingEdge { slot_a: sa, slot_b: sb }
    }

    /// Canonical clustering of all objects (each group sorted; groups sorted
    /// by first member).
    pub fn clusters(&mut self) -> Vec<Vec<u32>> {
        self.uf.clusters()
    }

    /// The cluster root of object `x` (stable only until the next matching
    /// insert).
    pub fn cluster_of(&mut self, x: u32) -> u32 {
        self.uf.find(x)
    }

    /// Size of the cluster containing `x`.
    pub fn cluster_size(&mut self, x: u32) -> u32 {
        self.uf.component_size(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_deducts_nothing() {
        let mut g = ClusterGraph::new(3);
        assert_eq!(g.deduce(0, 1), None);
        assert_eq!(g.deduce(1, 2), None);
        assert_eq!(g.num_clusters(), 3);
    }

    #[test]
    fn positive_transitivity_chain() {
        let mut g = ClusterGraph::new(4);
        g.insert(0, 1, EdgeLabel::Matching).unwrap();
        g.insert(1, 2, EdgeLabel::Matching).unwrap();
        g.insert(2, 3, EdgeLabel::Matching).unwrap();
        assert_eq!(g.deduce(0, 3), Some(EdgeLabel::Matching));
        assert_eq!(g.num_clusters(), 1);
    }

    #[test]
    fn negative_transitivity_single_hop() {
        let mut g = ClusterGraph::new(3);
        g.insert(0, 1, EdgeLabel::Matching).unwrap();
        g.insert(1, 2, EdgeLabel::NonMatching).unwrap();
        assert_eq!(g.deduce(0, 2), Some(EdgeLabel::NonMatching));
    }

    #[test]
    fn two_nonmatching_hops_not_deducible() {
        // o1 ≠ o2, o2 ≠ o3 tells us nothing about (o1, o3).
        let mut g = ClusterGraph::new(3);
        g.insert(0, 1, EdgeLabel::NonMatching).unwrap();
        g.insert(1, 2, EdgeLabel::NonMatching).unwrap();
        assert_eq!(g.deduce(0, 2), None);
    }

    #[test]
    fn paper_example_1() {
        // Figure 2: matching (o1,o2), (o3,o4), (o4,o5); non-matching
        // (o1,o6), (o2,o3), (o3,o7), (o5,o6). Objects renumbered to 0-based.
        let mut g = ClusterGraph::new(7);
        g.insert(0, 1, EdgeLabel::Matching).unwrap();
        g.insert(2, 3, EdgeLabel::Matching).unwrap();
        g.insert(3, 4, EdgeLabel::Matching).unwrap();
        g.insert(0, 5, EdgeLabel::NonMatching).unwrap();
        g.insert(1, 2, EdgeLabel::NonMatching).unwrap();
        g.insert(2, 6, EdgeLabel::NonMatching).unwrap();
        g.insert(4, 5, EdgeLabel::NonMatching).unwrap();
        // (o3,o5): matching path o3→o4→o5.
        assert_eq!(g.deduce(2, 4), Some(EdgeLabel::Matching));
        // (o5,o7): path with single non-matching pair.
        assert_eq!(g.deduce(4, 6), Some(EdgeLabel::NonMatching));
        // (o1,o7): every path has ≥2 non-matching pairs.
        assert_eq!(g.deduce(0, 6), None);
    }

    #[test]
    fn paper_example_3() {
        // Figure 6: after labeling p1..p7 of the running example, p8=(o5,o6)
        // deduces non-matching. 0-based: o1..o6 → 0..5.
        let mut g = ClusterGraph::new(6);
        g.insert(0, 1, EdgeLabel::Matching).unwrap(); // p1
        g.insert(1, 2, EdgeLabel::Matching).unwrap(); // p2
        g.insert(0, 5, EdgeLabel::NonMatching).unwrap(); // p3
        assert_eq!(g.deduce(0, 2), Some(EdgeLabel::Matching)); // p4 deduced
        g.insert(3, 4, EdgeLabel::Matching).unwrap(); // p5
        g.insert(3, 5, EdgeLabel::NonMatching).unwrap(); // p6
        g.insert(1, 3, EdgeLabel::NonMatching).unwrap(); // p7
        assert_eq!(g.deduce(4, 5), Some(EdgeLabel::NonMatching)); // p8
    }

    #[test]
    fn redundant_insert_reports_redundant() {
        let mut g = ClusterGraph::new(3);
        g.insert(0, 1, EdgeLabel::Matching).unwrap();
        g.insert(1, 2, EdgeLabel::Matching).unwrap();
        assert_eq!(g.insert(0, 2, EdgeLabel::Matching), Ok(InsertOutcome::Redundant));
        assert_eq!(g.matching_inserted(), 2);
    }

    #[test]
    fn conflicting_insert_is_rejected() {
        let mut g = ClusterGraph::new(3);
        g.insert(0, 1, EdgeLabel::Matching).unwrap();
        g.insert(1, 2, EdgeLabel::Matching).unwrap();
        let err = g.insert(0, 2, EdgeLabel::NonMatching).unwrap_err();
        assert_eq!(err.deduced, EdgeLabel::Matching);
        assert_eq!(err.attempted, EdgeLabel::NonMatching);
        // Graph unchanged.
        assert_eq!(g.deduce(0, 2), Some(EdgeLabel::Matching));
        assert_eq!(g.num_cluster_edges(), 0);
    }

    #[test]
    fn parallel_cluster_edges_collapse_on_merge() {
        // 0≠2 and 1≠2; then 0=1 merges clusters {0},{1} → the two edges to
        // {2} must collapse into one cluster edge.
        let mut g = ClusterGraph::new(3);
        g.insert(0, 2, EdgeLabel::NonMatching).unwrap();
        g.insert(1, 2, EdgeLabel::NonMatching).unwrap();
        assert_eq!(g.num_cluster_edges(), 2);
        g.insert(0, 1, EdgeLabel::Matching).unwrap();
        assert_eq!(g.num_cluster_edges(), 1);
        assert_eq!(g.deduce(0, 2), Some(EdgeLabel::NonMatching));
        assert_eq!(g.deduce(1, 2), Some(EdgeLabel::NonMatching));
    }

    #[test]
    fn push_object_extends_universe() {
        let mut g = ClusterGraph::new(2);
        let o = g.push_object();
        assert_eq!(o, 2);
        g.insert(0, o, EdgeLabel::Matching).unwrap();
        assert_eq!(g.deduce(0, 2), Some(EdgeLabel::Matching));
    }

    #[test]
    fn readonly_deduce_agrees() {
        let mut g = ClusterGraph::new(5);
        g.insert(0, 1, EdgeLabel::Matching).unwrap();
        g.insert(2, 3, EdgeLabel::NonMatching).unwrap();
        g.insert(1, 2, EdgeLabel::Matching).unwrap();
        for a in 0..5 {
            for b in (a + 1)..5 {
                assert_eq!(g.deduce_readonly(a, b), g.clone().deduce(a, b), "({a},{b})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "distinct objects")]
    fn self_pair_panics() {
        let mut g = ClusterGraph::new(2);
        let _ = g.insert(1, 1, EdgeLabel::Matching);
    }

    #[test]
    fn tracked_insert_reports_edges_and_merges() {
        let mut g = ClusterGraph::new(4);
        let s0 = g.slot_of(0);
        let s1 = g.slot_of(1);
        let s2 = g.slot_of(2);

        // Non-matching edge between {1} and {2}.
        let e = g.insert_tracked(1, 2, EdgeLabel::NonMatching).unwrap();
        assert_eq!(e, TrackedInsert::NonMatchingEdge { slot_a: s1, slot_b: s2 });
        assert!(g.slots_adjacent(s1, s2) && g.slots_adjacent(s2, s1));

        // Merge {0} into {1}: {1} has the larger adjacency set, so its slot
        // survives and {2} becomes newly adjacent to nothing (it already was
        // adjacent to the kept side).
        let m = g.insert_tracked(0, 1, EdgeLabel::Matching).unwrap();
        assert_eq!(
            m,
            TrackedInsert::Merge { kept_slot: s1, dropped_slot: s0, new_neighbors: vec![] }
        );
        assert_eq!(g.slot_of(0), s1);

        // Redundant insert reports Redundant.
        assert_eq!(g.insert_tracked(0, 2, EdgeLabel::NonMatching), Ok(TrackedInsert::Redundant));
    }

    #[test]
    fn tracked_merge_lists_new_neighbors() {
        // {0}≠{2}; merging {0}={1} where {1} has no edges: kept slot is 0's
        // (larger adjacency), no new neighbors. Then {3}≠{1} and merge
        // {1}={2}: the union brings 3's cluster in as a new neighbor of the
        // kept side.
        let mut g = ClusterGraph::new(4);
        g.insert(0, 2, EdgeLabel::NonMatching).unwrap();
        let s0 = g.slot_of(0);
        let s3 = g.slot_of(3);
        let m = g.insert_tracked(0, 1, EdgeLabel::Matching).unwrap();
        assert!(matches!(m, TrackedInsert::Merge { kept_slot, ref new_neighbors, .. }
            if kept_slot == s0 && new_neighbors.is_empty()));

        g.insert(1, 3, EdgeLabel::NonMatching).unwrap();
        // Sanity: deduction sees 3 adjacent to the whole merged cluster.
        assert_eq!(g.deduce(0, 3), Some(EdgeLabel::NonMatching));

        // Merge the {0,1} cluster with {2}'s neighbor? {2} is adjacent, so
        // merging 2 with 3 instead: cluster {3} (adjacent to {0,1}) absorbs
        // {2}'s adjacency (also adjacent to {0,1}) — parallel edges collapse,
        // no new neighbors.
        let m = g.insert_tracked(2, 3, EdgeLabel::Matching);
        // (2,3) is not deducible (both adjacent to {0,1} but not to each
        // other), so this merge is legal.
        let m = m.unwrap();
        assert!(matches!(m, TrackedInsert::Merge { ref new_neighbors, .. }
            if new_neighbors.is_empty()));
        assert_eq!(g.num_cluster_edges(), 1);
        let _ = s3;
    }

    #[test]
    fn tracked_merge_new_neighbor_propagates() {
        // {2}≠{1}; merge {0}={1}. Kept slot is 1's (larger adjacency); 0 has
        // none. Now add {3}≠{0}... instead: set up so the *dropped* side owns
        // an edge the kept side lacks.
        let mut g = ClusterGraph::new(4);
        g.insert(0, 2, EdgeLabel::NonMatching).unwrap(); // {0}–{2}
        g.insert(1, 3, EdgeLabel::NonMatching).unwrap(); // {1}–{3}
        let s2 = g.slot_of(2);
        let s3 = g.slot_of(3);
        let m = g.insert_tracked(0, 1, EdgeLabel::Matching).unwrap();
        match m {
            TrackedInsert::Merge { kept_slot, mut new_neighbors, .. } => {
                // Exactly one side migrated; its single edge is new.
                new_neighbors.sort_unstable();
                assert!(new_neighbors == vec![s2] || new_neighbors == vec![s3]);
                assert!(g.slots_adjacent(kept_slot, s2) && g.slots_adjacent(kept_slot, s3));
            }
            other => panic!("expected merge, got {other:?}"),
        }
    }
}
