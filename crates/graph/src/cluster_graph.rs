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
//! # Layout
//!
//! Clusters are named by stable *slot* ids through a root→slot indirection:
//! a slot starts as its object's id and dies when a merge drops it; it is
//! never reused. The cluster edges live in **one** flat, insert-only set of
//! unordered `(slot, slot)` keys (`EdgeSet`), so `deduce` and
//! `slots_adjacent` are two `find`s plus one probe into one table. (The
//! labeler's Algorithm-3 scan, which rebuilds a graph per scan, uses
//! [`crate::ScanGraph`] instead.)
//!
//! The set cannot enumerate a slot's edges, which a merge must, so every
//! edge is also an entry in each endpoint's *neighbour list* (singly linked
//! through one shared arena, newest first), read only when that slot is
//! dropped. A merge re-keys the dropped slot's edges under the kept slot
//! and leaves the old keys and the neighbours' entries for the dropped slot
//! where they are: a dead slot is never queried again, so its keys are
//! unreachable, and a list entry naming a dead slot (marked in `degree`) is
//! skipped when its list is finally walked. Hence a list holds every *live*
//! neighbour exactly once — two live slots gain entries for each other only
//! when their key enters the set — plus possibly neighbours that have died
//! since. `degree` counts the live ones: the size the per-slot adjacency
//! set would have.
//!
//! # Complexity
//!
//! `deduce` is O(α(n)) amortized. `insert` of a matching edge merges two
//! clusters; the side with the smaller degree is migrated into the other
//! (independently of which component wins the union-by-size), re-keying only
//! the moved side's edges. Live entries move under that smaller-into-larger
//! rule, O(E log E) over any insertion sequence; a list is walked once,
//! when its slot is dropped, so a stale entry is skipped once, and there
//! are at most as many of them as list pushes — two per inserted or
//! migrated edge. The total stays O(E log E), and so does the memory: dead
//! keys and entries are never reclaimed (one key and two entries per
//! migrated edge; merges move the smaller side, so in the labelers' graphs
//! this is a fraction of the live edges).

use crate::edge_set::EdgeSet;
use crate::{EdgeLabel, UnionFind};

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
/// Slots are the stable cluster identifiers the cluster edges are keyed by;
/// the slot of an object's current cluster is [`ClusterGraph::slot_of`].
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
    /// Root object id → slot. Only meaningful for current roots.
    slot_of_root: Vec<u32>,
    /// Every cluster-level non-matching edge between live slots, keyed by
    /// its two slots (plus unreachable keys of dead slots).
    edges: EdgeSet,
    /// Slot → its newest neighbour-list entry in `entries`, or `NONE`.
    head: Vec<u32>,
    /// Neighbour-list arena: `(neighbour slot, next entry or NONE)`.
    entries: Vec<(u32, u32)>,
    /// Slot → number of live neighbours, or `DEAD` once the slot is dropped.
    degree: Vec<u32>,
    /// Number of distinct cluster-level non-matching edges.
    cluster_edges: usize,
}

/// End of a neighbour list.
const NONE: u32 = u32::MAX;
/// `degree` of a dropped slot. No live slot gets there: a slot has fewer
/// neighbours than there are slots.
const DEAD: u32 = u32::MAX;

/// What one insert did to the graph, in slots.
enum Change {
    Redundant,
    Edge { slot_a: u32, slot_b: u32 },
    Merge { kept_slot: u32, dropped_slot: u32 },
}

impl ClusterGraph {
    /// Creates a graph over `n` isolated objects with ids `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            uf: UnionFind::new(n),
            slot_of_root: (0..n as u32).collect(),
            edges: EdgeSet::default(),
            head: vec![NONE; n],
            entries: Vec::new(),
            degree: vec![0; n],
            cluster_edges: 0,
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
        self.deduce_roots(ra, rb)
    }

    /// Read-only deduction (no path compression). Prefer [`Self::deduce`] on
    /// hot paths; this exists for callers holding only `&self`.
    #[must_use]
    pub fn deduce_readonly(&self, a: u32, b: u32) -> Option<EdgeLabel> {
        self.deduce_roots(self.uf.find_immutable(a), self.uf.find_immutable(b))
    }

    fn deduce_roots(&self, ra: u32, rb: u32) -> Option<EdgeLabel> {
        if ra == rb {
            return Some(EdgeLabel::Matching);
        }
        let sa = self.slot_of_root[ra as usize];
        let sb = self.slot_of_root[rb as usize];
        self.edges.contains(sa, sb).then_some(EdgeLabel::NonMatching)
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
        self.apply(a, b, label, |_| {}).map(|change| match change {
            Change::Redundant => InsertOutcome::Redundant,
            Change::Edge { .. } | Change::Merge { .. } => InsertOutcome::Inserted,
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
        let mut new_neighbors = Vec::new();
        self.apply(a, b, label, |t| new_neighbors.push(t)).map(|change| match change {
            Change::Redundant => TrackedInsert::Redundant,
            Change::Edge { slot_a, slot_b } => TrackedInsert::NonMatchingEdge { slot_a, slot_b },
            Change::Merge { kept_slot, dropped_slot } => {
                TrackedInsert::Merge { kept_slot, dropped_slot, new_neighbors }
            }
        })
    }

    /// The one insert path: resolves each endpoint's root once, then
    /// deduces, and — when the pair is not deducible — records the label.
    /// `new_neighbor` sees each slot a merge newly made adjacent to the kept
    /// cluster ([`TrackedInsert::Merge::new_neighbors`]).
    fn apply(
        &mut self,
        a: u32,
        b: u32,
        label: EdgeLabel,
        new_neighbor: impl FnMut(u32),
    ) -> Result<Change, ConflictError> {
        assert_ne!(a, b, "a pair must relate two distinct objects");
        let ra = self.uf.find(a);
        let rb = self.uf.find(b);
        let conflict = |deduced| Err(ConflictError { a, b, deduced, attempted: label });
        if ra == rb {
            return match label {
                EdgeLabel::Matching => Ok(Change::Redundant),
                EdgeLabel::NonMatching => conflict(EdgeLabel::Matching),
            };
        }
        let sa = self.slot_of_root[ra as usize];
        let sb = self.slot_of_root[rb as usize];
        match label {
            EdgeLabel::NonMatching => {
                if !self.edges.insert(sa, sb) {
                    return Ok(Change::Redundant);
                }
                self.push_neighbor(sa, sb);
                self.push_neighbor(sb, sa);
                self.degree[sa as usize] += 1;
                self.degree[sb as usize] += 1;
                self.cluster_edges += 1;
                Ok(Change::Edge { slot_a: sa, slot_b: sb })
            }
            EdgeLabel::Matching => {
                if self.edges.contains(sa, sb) {
                    return conflict(EdgeLabel::NonMatching);
                }
                Ok(self.merge(ra, rb, new_neighbor))
            }
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
        let live = |slot: u32| self.degree[slot as usize] != DEAD;
        slot_a != slot_b && live(slot_a) && live(slot_b) && self.edges.contains(slot_a, slot_b)
    }

    /// Merges the clusters rooted at `ra` and `rb`. Caller guarantees the
    /// roots are distinct with no cluster edge between them.
    fn merge(&mut self, ra: u32, rb: u32, mut new_neighbor: impl FnMut(u32)) -> Change {
        let (winner, absorbed) = self.uf.union_roots(ra, rb);
        let sw = self.slot_of_root[winner as usize];
        let sa = self.slot_of_root[absorbed as usize];
        // Migrate the side with fewer live neighbours, independent of which
        // component won the union: slots are stable, so only the moved
        // side's edges need re-keying.
        let (keep, drop) =
            if self.degree[sw as usize] >= self.degree[sa as usize] { (sw, sa) } else { (sa, sw) };
        let mut e = std::mem::replace(&mut self.head[drop as usize], NONE);
        while e != NONE {
            let (t, next) = self.entries[e as usize];
            e = next;
            if self.degree[t as usize] == DEAD {
                // Stale: t was dropped after this entry was pushed.
                continue;
            }
            debug_assert_ne!(t, keep, "edge between merging clusters must have been a conflict");
            if self.edges.insert(keep, t) {
                // t trades its edge to `drop` for one to `keep`: its degree
                // is unchanged.
                self.push_neighbor(keep, t);
                self.push_neighbor(t, keep);
                self.degree[keep as usize] += 1;
                new_neighbor(t);
            } else {
                // (keep, t) already existed: two parallel cluster edges
                // collapse into one.
                self.degree[t as usize] -= 1;
                self.cluster_edges -= 1;
            }
        }
        self.degree[drop as usize] = DEAD;
        self.slot_of_root[winner as usize] = keep;
        Change::Merge { kept_slot: keep, dropped_slot: drop }
    }

    /// Prepends `neighbor` to `slot`'s neighbour list.
    fn push_neighbor(&mut self, slot: u32, neighbor: u32) {
        let entry = self.entries.len();
        assert!(entry < NONE as usize, "neighbour-list arena exceeds u32 indices");
        self.entries.push((neighbor, self.head[slot as usize]));
        self.head[slot as usize] = entry as u32;
    }

    /// Checks the layout invariants of the module docs by brute force: a
    /// live slot's list names each live neighbour exactly once, `degree`
    /// counts them, and `cluster_edges` counts each edge once.
    #[cfg(test)]
    pub(crate) fn assert_layout_invariants(&mut self) {
        let n = self.num_objects() as u32;
        let live: Vec<u32> = {
            let mut slots: Vec<u32> = (0..n).map(|x| self.slot_of(x)).collect();
            slots.sort_unstable();
            slots.dedup();
            slots
        };
        assert_eq!(live.len(), self.num_clusters());
        let mut degree_sum = 0;
        for &s in &live {
            let expected: Vec<u32> =
                live.iter().copied().filter(|&t| t != s && self.edges.contains(s, t)).collect();
            let mut listed = Vec::new();
            let mut e = self.head[s as usize];
            while e != NONE {
                let (t, next) = self.entries[e as usize];
                if self.degree[t as usize] != DEAD {
                    listed.push(t);
                }
                e = next;
            }
            listed.sort_unstable();
            assert_eq!(listed, expected, "neighbour list of live slot {s}");
            assert_eq!(self.degree[s as usize] as usize, expected.len(), "degree of slot {s}");
            degree_sum += expected.len();
        }
        assert_eq!(degree_sum, 2 * self.cluster_edges);
        for s in (0..n).filter(|s| !live.contains(s)) {
            assert_eq!(self.degree[s as usize], DEAD, "slot {s} names no cluster");
        }
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
        assert_eq!(g.num_clusters(), 1);
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
