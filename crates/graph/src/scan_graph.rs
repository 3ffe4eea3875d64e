//! The **scan graph** behind the labeler's Algorithm-3 scan: the
//! [`crate::ClusterGraph::insert`] outcome of every position, on a layout
//! that is rebuilt once per scan and can *replay* a step recorded in an
//! earlier scan without looking anything up.
//!
//! [`ScanGraph::insert`] answers what `ClusterGraph::insert` would:
//! `Inserted` is a [`ScanStep::Merge`] (matching) or a [`ScanStep::Edge`]
//! (non-matching); `Redundant` and a conflict are both [`ScanStep::Nothing`].
//! Each step names the roots it saw, and [`ScanGraph::replay`] re-applies
//! it to roots that hold the same objects as they did then.
//!
//! # Layout
//!
//! A [`UnionFind`] plus, per root, a `Vec<u32>` of neighbour ids. A
//! non-matching edge pushes each root onto the other root's list; a merge
//! appends the shorter list to the longer one, swapping the two vectors
//! when the union's winner holds the shorter. An entry is *some* object of
//! the neighbouring cluster — it may have stopped being a root since, and
//! one neighbour may be named more than once — so the invariant is only:
//! every cluster adjacent to root `r` is the cluster of some entry in `r`'s
//! list, and of no other (a merge never joins adjacent clusters: that pair
//! is a conflict and does nothing).
//!
//! Adjacency walks the shorter of the two lists: it `find`s each entry and
//! writes the root back, drops an entry whose root this walk already met (a
//! per-object stamp), and stops on a hit. There is no hashing and no
//! re-keying, and [`ScanGraph::reset`] keeps every allocation.
//!
//! # Complexity
//!
//! A merge moves the shorter list, so an entry moves O(log E) times per
//! scan, and every entry was pushed by one edge: O(E log E) list traffic,
//! as for the `ClusterGraph`. A walk costs at most the shorter list's
//! length and shrinks it to the distinct neighbours it read.

use crate::{EdgeLabel, UnionFind};

/// What one [`ScanGraph::insert`] did, named by the roots it saw — one
/// scan position's decision, which [`ScanGraph::replay`] re-applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStep {
    /// The pair was one cluster or two adjacent ones (`ClusterGraph::insert`
    /// returns `Redundant` or a conflict): nothing changed. Holds the roots
    /// of the pair's two objects, equal when they were one cluster.
    Nothing(u32, u32),
    /// A matching pair joined two clusters: root `loser` now points at root
    /// `winner`.
    Merge {
        /// Root of the merged cluster.
        winner: u32,
        /// Root of the absorbed cluster; no longer a root.
        loser: u32,
    },
    /// A non-matching pair made the clusters rooted at the two ids adjacent.
    Edge(u32, u32),
}

impl ScanStep {
    /// The two roots the step names (for a merge, winner then loser).
    #[must_use]
    pub fn roots(self) -> (u32, u32) {
        match self {
            Self::Nothing(a, b) | Self::Edge(a, b) => (a, b),
            Self::Merge { winner, loser } => (winner, loser),
        }
    }
}

/// Union–find plus per-root neighbour lists over objects `0..n`; see the
/// module docs.
#[derive(Debug, Clone)]
pub struct ScanGraph {
    uf: UnionFind,
    /// Root → neighbour entries (module docs); empty for a non-root.
    neighbors: Vec<Vec<u32>>,
    /// Object → the stamp of the last walk that met it as a root.
    met: Vec<u32>,
    /// The current walk's stamp.
    walk: u32,
}

impl ScanGraph {
    /// Creates a graph over `n` isolated objects with ids `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self { uf: UnionFind::new(n), neighbors: vec![Vec::new(); n], met: vec![0; n], walk: 0 }
    }

    /// Forgets every inserted pair — back to isolated objects — keeping
    /// every allocation.
    pub fn reset(&mut self) {
        self.uf.reset();
        for list in &mut self.neighbors {
            list.clear();
        }
    }

    /// `true` when `x` is the root of its cluster; `false` for an id outside
    /// the universe.
    #[must_use]
    pub fn is_root(&self, x: u32) -> bool {
        self.uf.is_root(x)
    }

    /// Inserts the labeled pair `(a, b)` and reports what that did: nothing
    /// when the pair is one cluster or two adjacent ones, otherwise a merge
    /// (matching) or a cluster edge (non-matching).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or an id is out of range.
    pub fn insert(&mut self, a: u32, b: u32, label: EdgeLabel) -> ScanStep {
        assert_ne!(a, b, "a pair must relate two distinct objects");
        let ra = self.uf.find(a);
        let rb = self.uf.find(b);
        if ra == rb || self.adjacent(ra, rb) {
            return ScanStep::Nothing(ra, rb);
        }
        match label {
            EdgeLabel::Matching => {
                let (winner, loser) = self.merge(ra, rb);
                ScanStep::Merge { winner, loser }
            }
            EdgeLabel::NonMatching => {
                self.link(ra, rb);
                ScanStep::Edge(ra, rb)
            }
        }
    }

    /// Re-applies a recorded step without deciding it. The caller
    /// guarantees the step's ids are roots holding the objects they held
    /// when it was recorded, with the adjacency they had then, so the step
    /// is what [`Self::insert`] would return again.
    pub fn replay(&mut self, step: ScanStep) {
        match step {
            ScanStep::Nothing(..) => {}
            ScanStep::Merge { winner, loser } => {
                // Union by size with ties to the first root: equal clusters
                // repeat the recorded union.
                let merged = self.merge(winner, loser);
                debug_assert_eq!(merged, (winner, loser), "a replayed merge repeats its union");
            }
            ScanStep::Edge(ra, rb) => self.link(ra, rb),
        }
    }

    /// The label deducible for `(a, b)`, as [`crate::ClusterGraph::deduce`].
    #[cfg(test)]
    pub(crate) fn deduce(&mut self, a: u32, b: u32) -> Option<EdgeLabel> {
        let (ra, rb) = (self.uf.find(a), self.uf.find(b));
        if ra == rb {
            Some(EdgeLabel::Matching)
        } else {
            self.adjacent(ra, rb).then_some(EdgeLabel::NonMatching)
        }
    }

    /// `true` when the clusters of the distinct roots `ra` and `rb` are
    /// adjacent: walks the shorter list, compacting what it reads.
    fn adjacent(&mut self, ra: u32, rb: u32) -> bool {
        let (from, to) = if self.neighbors[ra as usize].len() <= self.neighbors[rb as usize].len() {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.walk = self.walk.wrapping_add(1);
        if self.walk == 0 {
            self.met.fill(0);
            self.walk = 1;
        }
        let list = &mut self.neighbors[from as usize];
        let mut kept = 0;
        for read in 0..list.len() {
            let root = self.uf.find(list[read]);
            if std::mem::replace(&mut self.met[root as usize], self.walk) == self.walk {
                continue;
            }
            list[kept] = root;
            kept += 1;
            if root == to {
                list.drain(kept..=read);
                return true;
            }
        }
        list.truncate(kept);
        false
    }

    /// Unions the distinct, non-adjacent roots `ra` and `rb`; the winner
    /// takes both neighbour lists. Returns `(winner, loser)`.
    fn merge(&mut self, ra: u32, rb: u32) -> (u32, u32) {
        let (winner, loser) = self.uf.union_roots(ra, rb);
        let (w, l) = (winner as usize, loser as usize);
        if self.neighbors[w].len() < self.neighbors[l].len() {
            self.neighbors.swap(w, l);
        }
        let mut moved = std::mem::take(&mut self.neighbors[l]);
        self.neighbors[w].extend_from_slice(&moved);
        moved.clear();
        self.neighbors[l] = moved;
        (winner, loser)
    }

    /// Makes the clusters rooted at `ra` and `rb` adjacent.
    fn link(&mut self, ra: u32, rb: u32) {
        self.neighbors[ra as usize].push(rb);
        self.neighbors[rb as usize].push(ra);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_name_the_roots_they_saw() {
        let mut g = ScanGraph::new(4);
        assert_eq!(g.insert(0, 1, EdgeLabel::Matching), ScanStep::Merge { winner: 0, loser: 1 });
        assert!(g.is_root(0) && !g.is_root(1) && !g.is_root(4));
        assert_eq!(g.insert(2, 1, EdgeLabel::NonMatching), ScanStep::Edge(2, 0));
        // Redundant, then a conflict: both nothing.
        assert_eq!(g.insert(1, 2, EdgeLabel::NonMatching), ScanStep::Nothing(0, 2));
        assert_eq!(g.insert(0, 2, EdgeLabel::Matching), ScanStep::Nothing(0, 2));
        assert_eq!(g.insert(1, 0, EdgeLabel::NonMatching), ScanStep::Nothing(0, 0));
        // 2 joins 3's cluster, which inherits 2's edge to 0's cluster.
        assert_eq!(g.insert(3, 2, EdgeLabel::Matching).roots(), (3, 2));
        assert_eq!(g.deduce(1, 3), Some(EdgeLabel::NonMatching));
    }

    #[test]
    fn reset_and_replay_rebuild_the_same_graph() {
        let mut g = ScanGraph::new(5);
        let steps = [
            g.insert(0, 1, EdgeLabel::Matching),
            g.insert(2, 3, EdgeLabel::NonMatching),
            g.insert(1, 2, EdgeLabel::NonMatching),
            g.insert(3, 4, EdgeLabel::Matching),
        ];
        g.reset();
        assert!((0..5).all(|x| g.is_root(x)));
        assert_eq!(g.deduce(0, 2), None);
        for step in steps {
            g.replay(step);
        }
        assert_eq!(g.deduce(0, 2), Some(EdgeLabel::NonMatching));
        assert_eq!(g.deduce(2, 4), Some(EdgeLabel::NonMatching));
        assert_eq!(g.deduce(0, 4), None);
        assert_eq!(g.deduce(3, 4), Some(EdgeLabel::Matching));
    }

    #[test]
    fn walks_compact_stale_and_duplicate_entries() {
        // 0 neighbours 1, 2 and 3; merging 1, 2, 3 leaves three entries
        // naming one cluster. A miss walks 0's list (4's is longer) and
        // compacts it to one entry.
        let mut g = ScanGraph::new(9);
        for x in 1..4 {
            g.insert(0, x, EdgeLabel::NonMatching);
        }
        for x in 5..9 {
            g.insert(4, x, EdgeLabel::NonMatching);
        }
        g.insert(1, 2, EdgeLabel::Matching);
        g.insert(2, 3, EdgeLabel::Matching);
        assert_eq!(g.neighbors[0].len(), 3);
        assert_eq!(g.deduce(0, 4), None);
        assert_eq!(g.neighbors[0].len(), 1);
        assert_eq!(g.deduce(0, 3), Some(EdgeLabel::NonMatching));
    }

    #[test]
    #[should_panic(expected = "distinct objects")]
    fn self_pair_panics() {
        ScanGraph::new(2).insert(1, 1, EdgeLabel::Matching);
    }
}
