//! The incremental **ClusterGraph** (Section 3.2 of the paper), which is
//! also Algorithm 2's incremental transitive closure.
//!
//! Matching edges are contracted with union–find; non-matching edges are kept
//! between the contracted clusters. Deduction then becomes:
//!
//! * same cluster → deducible as *matching* (a matching-only path exists);
//! * different clusters with a direct cluster edge → deducible as
//!   *non-matching* (a path with exactly one non-matching edge exists);
//! * otherwise → not deducible.
//!
//! A caller may also [`track`](ClusterGraph::track) pairs under ids of its
//! own. [`ClusterGraph::insert_deducing`] then reports each tracked pair
//! exactly once, from the insert that first makes it deducible: only what
//! the newest label implies is derived, with no sweep over the undecided
//! pairs (semi-naive evaluation).
//!
//! # Layout
//!
//! Clusters are named by stable *slot* ids through a root→slot indirection:
//! a slot starts as its object's id and dies when a merge drops it; it is
//! never reused. **One** open-addressing table keyed by unordered
//! `(slot, slot)` pairs holds the one fact the deduction needs about two
//! clusters: `EDGE` (a non-matching cluster edge between them) or a
//! *pending list* (the tracked pairs between them, none deducible yet). A
//! pending list is `head << 32 | tail` over one `next: Vec<u32>` indexed by
//! tracked id, so two lists concatenate in O(1) and nothing allocates.
//! `deduce` and `track` are two `find`s plus one probe.
//!
//! The table cannot enumerate a slot's keys, which a merge must, so every key
//! is also an entry in each endpoint's *neighbour list* (singly linked
//! through one shared arena, newest first), read only when that slot is
//! dropped. A merge re-keys the dropped slot's keys under the kept slot and
//! leaves the old keys and the neighbours' entries for the dropped slot
//! where they are: a dead slot is never queried again, so its keys are
//! unreachable, and a list entry naming a dead slot (marked in `degree`) is
//! skipped when its list is finally walked. The table is insert-or-overwrite
//! only; a live key goes from vacant to a pending list or `EDGE`, and from a
//! pending list to `EDGE`, never back.
//!
//! # Merge
//!
//! A matching label merges two clusters; the side with fewer keyed
//! neighbours is dropped. The key between the two merging slots can only
//! hold a pending list (an edge would make the label a conflict): it drains
//! as *matching*. Each other key `(dropped, t)` moves to `(kept, t)` and
//! meets what is there:
//!
//! * nothing → the entry is re-keyed (`t` becomes a neighbour of the kept
//!   slot);
//! * edge and edge → they collapse into one edge;
//! * edge and pending list (either way round) → the list drains as
//!   *non-matching* and the key holds `EDGE`;
//! * pending and pending → the two lists are concatenated.
//!
//! A non-matching label on a key holding a pending list drains it as
//! *non-matching*.
//!
//! # Invariants
//!
//! * A live slot's list names every live slot it shares a key with exactly
//!   once (two live slots gain entries for each other only when their key
//!   is first written), plus possibly slots that have died since.
//! * `degree` counts those live keyed neighbours, edges and pending lists
//!   alike, or is `DEAD`.
//! * Every tracked id not yet reported sits in exactly one pending list,
//!   under the key of its endpoints' current slots.
//!
//! `tracked_delta_equals_oracle` (in the crate's path-oracle tests) pins
//! the closure against the Lemma 1 path oracle fed only the accepted labels
//! of a noisy crowd: after every insert the delta is exactly the tracked
//! pairs that became deducible, a conflict changes nothing, and the
//! invariants above hold, checked by brute force. Each of these planted
//! mutations fails it at 1024 cases: dropping either edge-meets-pending
//! drain of a merge, a concatenation that loses the moved list, and
//! skipping `degree[t] -= 1` when two keys collapse.
//!
//! # Complexity
//!
//! `deduce` and `track` are O(α(n)) amortized. A non-matching insert is one
//! probe plus the pairs it reports. A merge walks the dropped side's list,
//! one `get` and one `entry` per live neighbour; live entries move under
//! the smaller-into-larger rule, O(K log K) over any insertion sequence for
//! K keys. A list is walked once, when its slot is dropped, so a stale entry
//! is skipped once, and there are at most as many of them as list pushes —
//! two per written or re-keyed key. Every tracked id is drained once. The
//! memory is O(K log K) plus one `u32` per tracked id: dead keys and list
//! entries are never reclaimed (one key and two entries per re-keyed entry;
//! merges move the smaller side, so in the labelers' graphs this is a
//! fraction of the live keys).

use crate::edge_set::{SlotPairMap, VACANT};
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

/// Incremental transitive-deduction structure over objects `0..n`.
#[derive(Debug, Clone)]
pub struct ClusterGraph {
    uf: UnionFind,
    /// Root object id → slot. Only meaningful for current roots.
    root_slot: Vec<u32>,
    /// Slot pair → `EDGE` or a pending list, for every pair of live slots
    /// that has either (plus unreachable keys of dead slots).
    pairs: SlotPairMap,
    /// Slot → its newest neighbour-list entry in `entries`, or `NONE`.
    head: Vec<u32>,
    /// Neighbour-list arena: `(neighbour slot, next entry or NONE)`.
    entries: Vec<(u32, u32)>,
    /// Slot → number of live keyed neighbours, or `DEAD` once dropped.
    degree: Vec<u32>,
    /// Tracked id → the next id of its pending list (unread at the tail).
    next: Vec<u32>,
}

/// End of a neighbour list.
const NONE: u32 = u32::MAX;
/// `degree` of a dropped slot. No live slot gets there: a slot has fewer
/// neighbours than there are slots.
const DEAD: u32 = u32::MAX;
/// The slot-pair value of a non-matching cluster edge. Never a pending list
/// (whose head is a tracked id, below `NONE`) nor [`VACANT`].
const EDGE: u64 = u64::MAX - 1;

/// The pending list running from id `head` to id `tail`.
fn list(head: u32, tail: u32) -> u64 {
    (u64::from(head) << 32) | u64::from(tail)
}

/// The `(head, tail)` ids of a pending list.
fn ends(list: u64) -> (u32, u32) {
    ((list >> 32) as u32, list as u32)
}

/// Appends every id of the pending list `list` to `out`, head first.
fn drain(next: &[u32], list: u64, label: EdgeLabel, out: &mut Vec<(usize, EdgeLabel)>) {
    let (mut id, tail) = ends(list);
    out.push((id as usize, label));
    while id != tail {
        id = next[id as usize];
        out.push((id as usize, label));
    }
}

impl ClusterGraph {
    /// Creates a graph over `n` isolated objects with ids `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            uf: UnionFind::new(n),
            root_slot: (0..n as u32).collect(),
            pairs: SlotPairMap::default(),
            head: vec![NONE; n],
            entries: Vec::new(),
            degree: vec![0; n],
            next: Vec::new(),
        }
    }

    /// Number of objects in the universe.
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.uf.len()
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
        let (sa, sb) = (self.slot(a), self.slot(b));
        if sa == sb {
            return Some(EdgeLabel::Matching);
        }
        (self.pairs.get(sa, sb) == EDGE).then_some(EdgeLabel::NonMatching)
    }

    /// Tracks the pair `(a, b)` under the caller's `id`: returns its label
    /// when it is deducible already (it is then not tracked), and otherwise
    /// [`Self::insert_deducing`] reports it exactly once, when it first
    /// becomes deducible. Track each id at most once; ids index a dense
    /// array, so keep them small.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`, an object is out of range, or `id` does not fit
    /// below `u32::MAX`.
    pub fn track(&mut self, id: usize, a: u32, b: u32) -> Option<EdgeLabel> {
        assert_ne!(a, b, "a pair must relate two distinct objects");
        let id = u32::try_from(id).ok().filter(|&id| id != NONE).expect("tracked id exceeds u32");
        let (sa, sb) = (self.slot(a), self.slot(b));
        if sa == sb {
            return Some(EdgeLabel::Matching);
        }
        if self.next.len() <= id as usize {
            self.next.resize(id as usize + 1, NONE);
        }
        let value = self.pairs.entry(sa, sb);
        match *value {
            EDGE => return Some(EdgeLabel::NonMatching),
            VACANT => {
                *value = list(id, id);
                self.link(sa, sb);
            }
            pending => {
                let (head, tail) = ends(pending);
                self.next[tail as usize] = id;
                *value = list(head, id);
            }
        }
        None
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
        self.insert_deducing(a, b, label, &mut Vec::new())
    }

    /// [`Self::insert`] that also appends to `deduced` every tracked pair
    /// the label made deducible, as `(id, label)` — the closure's delta. A
    /// redundant or conflicting insert appends nothing.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or an id is out of range.
    pub fn insert_deducing(
        &mut self,
        a: u32,
        b: u32,
        label: EdgeLabel,
        deduced: &mut Vec<(usize, EdgeLabel)>,
    ) -> Result<InsertOutcome, ConflictError> {
        assert_ne!(a, b, "a pair must relate two distinct objects");
        let ra = self.uf.find(a);
        let rb = self.uf.find(b);
        let conflict = |known| Err(ConflictError { a, b, deduced: known, attempted: label });
        if ra == rb {
            return match label {
                EdgeLabel::Matching => Ok(InsertOutcome::Redundant),
                EdgeLabel::NonMatching => conflict(EdgeLabel::Matching),
            };
        }
        let sa = self.root_slot[ra as usize];
        let sb = self.root_slot[rb as usize];
        match label {
            EdgeLabel::NonMatching => match std::mem::replace(self.pairs.entry(sa, sb), EDGE) {
                EDGE => return Ok(InsertOutcome::Redundant),
                VACANT => self.link(sa, sb),
                pending => drain(&self.next, pending, EdgeLabel::NonMatching, deduced),
            },
            EdgeLabel::Matching => {
                if self.pairs.get(sa, sb) == EDGE {
                    return conflict(EdgeLabel::NonMatching);
                }
                self.merge(ra, rb, deduced);
            }
        }
        Ok(InsertOutcome::Inserted)
    }

    /// The slot of `x`'s cluster.
    fn slot(&mut self, x: u32) -> u32 {
        let r = self.uf.find(x);
        self.root_slot[r as usize]
    }

    /// Merges the clusters rooted at `ra` and `rb`. Caller guarantees the
    /// roots are distinct with no cluster edge between them.
    fn merge(&mut self, ra: u32, rb: u32, deduced: &mut Vec<(usize, EdgeLabel)>) {
        let (winner, absorbed) = self.uf.union_roots(ra, rb);
        let sw = self.root_slot[winner as usize];
        let sa = self.root_slot[absorbed as usize];
        // Migrate the side with fewer live neighbours, independent of which
        // component won the union: slots are stable, so only the moved
        // side's keys need re-keying.
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
            let moved = self.pairs.get(drop, t);
            if t == keep {
                // Pairs between the two merging clusters: now matching.
                debug_assert_ne!(moved, EDGE, "an edge between merging clusters is a conflict");
                drain(&self.next, moved, EdgeLabel::Matching, deduced);
                self.degree[keep as usize] -= 1;
                continue;
            }
            let value = self.pairs.entry(keep, t);
            match (*value, moved) {
                (VACANT, _) => {
                    // t trades its key with `drop` for one with `keep`: its
                    // degree is unchanged.
                    *value = moved;
                    self.push_neighbor(keep, t);
                    self.push_neighbor(t, keep);
                    self.degree[keep as usize] += 1;
                    continue;
                }
                (EDGE, EDGE) => {}
                (EDGE, pending) => drain(&self.next, pending, EdgeLabel::NonMatching, deduced),
                (pending, EDGE) => {
                    *value = EDGE;
                    drain(&self.next, pending, EdgeLabel::NonMatching, deduced);
                }
                (kept, moved) => {
                    let ((kept_head, kept_tail), (moved_head, moved_tail)) =
                        (ends(kept), ends(moved));
                    self.next[kept_tail as usize] = moved_head;
                    *value = list(kept_head, moved_tail);
                }
            }
            // Two keys of t collapsed into one.
            self.degree[t as usize] -= 1;
        }
        self.degree[drop as usize] = DEAD;
        self.root_slot[winner as usize] = keep;
    }

    /// Makes the live slots `s` and `t` neighbours (their key was vacant).
    fn link(&mut self, s: u32, t: u32) {
        self.push_neighbor(s, t);
        self.push_neighbor(t, s);
        self.degree[s as usize] += 1;
        self.degree[t as usize] += 1;
    }

    /// Prepends `neighbor` to `slot`'s neighbour list.
    fn push_neighbor(&mut self, slot: u32, neighbor: u32) {
        let entry = self.entries.len();
        assert!(entry < NONE as usize, "neighbour-list arena exceeds u32 indices");
        self.entries.push((neighbor, self.head[slot as usize]));
        self.head[slot as usize] = entry as u32;
    }

    /// Canonical clustering of all objects (each group sorted; groups sorted
    /// by first member).
    pub fn clusters(&mut self) -> Vec<Vec<u32>> {
        self.uf.clusters()
    }

    /// Number of clusters (union–find components), counting isolated objects.
    #[cfg(test)]
    pub(crate) fn num_clusters(&self) -> usize {
        self.uf.num_components()
    }

    /// The cluster root of object `x` (stable only until the next matching
    /// insert).
    #[cfg(test)]
    pub(crate) fn cluster_of(&mut self, x: u32) -> u32 {
        self.uf.find(x)
    }

    /// The slots of the current clusters, ascending.
    #[cfg(test)]
    fn live_slots(&mut self) -> Vec<u32> {
        let mut slots: Vec<u32> = (0..self.num_objects() as u32).map(|x| self.slot(x)).collect();
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// Number of distinct cluster-level non-matching edges, by brute force.
    #[cfg(test)]
    pub(crate) fn num_cluster_edges(&mut self) -> usize {
        let live = self.live_slots();
        let adjacent = |(i, &s): (usize, &u32)| {
            live[i + 1..].iter().filter(|&&t| self.pairs.get(s, t) == EDGE).count()
        };
        live.iter().enumerate().map(adjacent).sum()
    }

    /// Checks the invariants of the module docs by brute force. `undecided`
    /// lists every tracked pair not yet reported, as `(id, a, b)`.
    #[cfg(test)]
    pub(crate) fn assert_layout_invariants(&mut self, undecided: &[(usize, u32, u32)]) {
        let live = self.live_slots();
        assert_eq!(live.len(), self.num_clusters());
        let mut pending = Vec::new();
        for &s in &live {
            let keyed: Vec<u32> = live
                .iter()
                .copied()
                .filter(|&t| t != s && self.pairs.get(s, t) != VACANT)
                .collect();
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
            assert_eq!(listed, keyed, "neighbour list of live slot {s}");
            assert_eq!(self.degree[s as usize] as usize, keyed.len(), "degree of slot {s}");
            for &t in keyed.iter().filter(|&&t| t > s) {
                let value = self.pairs.get(s, t);
                if value == EDGE {
                    continue;
                }
                let (mut id, tail) = ends(value);
                loop {
                    pending.push((id as usize, s, t));
                    assert!(pending.len() <= self.next.len(), "pending list ({s}, {t}) loops");
                    if id == tail {
                        break;
                    }
                    id = self.next[id as usize];
                }
            }
        }
        for s in (0..self.num_objects() as u32).filter(|s| !live.contains(s)) {
            assert_eq!(self.degree[s as usize], DEAD, "slot {s} names no cluster");
        }
        let mut expected: Vec<(usize, u32, u32)> = undecided
            .iter()
            .map(|&(id, a, b)| {
                let (sa, sb) = (self.slot(a), self.slot(b));
                (id, sa.min(sb), sa.max(sb))
            })
            .collect();
        expected.sort_unstable();
        pending.sort_unstable();
        assert_eq!(pending, expected, "undecided tracked ids and pending lists");
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
    #[should_panic(expected = "distinct objects")]
    fn self_pair_panics() {
        let mut g = ClusterGraph::new(2);
        let _ = g.insert(1, 1, EdgeLabel::Matching);
    }

    /// Tracks `pairs` as ids `0..` on a fresh graph over `n` objects;
    /// none may be deducible yet.
    fn tracking(n: usize, pairs: &[(u32, u32)]) -> ClusterGraph {
        let mut g = ClusterGraph::new(n);
        for (id, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(g.track(id, a, b), None);
        }
        g
    }

    #[test]
    fn track_reports_already_deducible() {
        let mut g = ClusterGraph::new(4);
        g.insert(0, 1, EdgeLabel::Matching).unwrap();
        g.insert(1, 3, EdgeLabel::NonMatching).unwrap();
        assert_eq!(g.track(0, 0, 1), Some(EdgeLabel::Matching));
        assert_eq!(g.track(1, 0, 3), Some(EdgeLabel::NonMatching));
        assert_eq!(g.track(2, 0, 2), None);
        g.assert_layout_invariants(&[(2, 0, 2)]);
    }

    #[test]
    fn positive_chain_delta() {
        // (0,2) follows 0=1, 1=2; (0,3) follows 2=3.
        let mut g = tracking(4, &[(0, 2), (0, 3)]);
        let mut delta = Vec::new();
        g.insert_deducing(0, 1, EdgeLabel::Matching, &mut delta).unwrap();
        assert!(delta.is_empty());
        g.insert_deducing(1, 2, EdgeLabel::Matching, &mut delta).unwrap();
        assert_eq!(delta, vec![(0, EdgeLabel::Matching)]);
        delta.clear();
        g.insert_deducing(2, 3, EdgeLabel::Matching, &mut delta).unwrap();
        assert_eq!(delta, vec![(1, EdgeLabel::Matching)]);
        g.assert_layout_invariants(&[]);
    }

    #[test]
    fn negative_single_hop_delta() {
        let mut g = ClusterGraph::new(3);
        assert_eq!(g.track(7, 0, 2), None);
        let mut delta = Vec::new();
        g.insert_deducing(0, 1, EdgeLabel::Matching, &mut delta).unwrap();
        g.insert_deducing(1, 2, EdgeLabel::NonMatching, &mut delta).unwrap();
        assert_eq!(delta, vec![(7, EdgeLabel::NonMatching)]);
    }

    #[test]
    fn merge_with_existing_edge_resolves_nonmatching() {
        // Track (1,2); 0≠2; then 0=1 merges and the edge to {2} makes (1,2)
        // non-matching.
        let mut g = tracking(3, &[(1, 2)]);
        let mut delta = Vec::new();
        g.insert_deducing(0, 2, EdgeLabel::NonMatching, &mut delta).unwrap();
        assert!(delta.is_empty());
        g.insert_deducing(0, 1, EdgeLabel::Matching, &mut delta).unwrap();
        assert_eq!(delta, vec![(0, EdgeLabel::NonMatching)]);
        g.assert_layout_invariants(&[]);
    }

    #[test]
    fn conflict_leaves_index_untouched() {
        let mut g = tracking(4, &[(0, 2), (0, 3)]);
        let mut delta = Vec::new();
        g.insert_deducing(0, 1, EdgeLabel::Matching, &mut delta).unwrap();
        g.insert_deducing(1, 2, EdgeLabel::Matching, &mut delta).unwrap();
        assert_eq!(delta, vec![(0, EdgeLabel::Matching)]);
        delta.clear();
        let err = g.insert_deducing(0, 2, EdgeLabel::NonMatching, &mut delta).unwrap_err();
        assert_eq!(err.deduced, EdgeLabel::Matching);
        assert!(delta.is_empty());
        g.assert_layout_invariants(&[(1, 0, 3)]);
    }
}
