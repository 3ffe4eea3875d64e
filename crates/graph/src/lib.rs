//! Deduction substrate for crowdsourced joins.
//!
//! The paper's labeling framework (Wang et al., SIGMOD 2013) decides for every
//! candidate pair whether its label can be *deduced* from already-labeled
//! pairs via transitive relations:
//!
//! * positive transitivity: `a = b ∧ b = c ⇒ a = c`;
//! * negative transitivity: `a = b ∧ b ≠ c ⇒ a ≠ c`.
//!
//! Lemma 1 of the paper reduces deduction to a path property on the graph of
//! labeled pairs: `(o, o')` is deducible as matching iff some path from `o`
//! to `o'` uses only matching edges, and deducible as non-matching iff some
//! path uses exactly one non-matching edge. Enumerating paths is exponential,
//! so the paper introduces the **ClusterGraph**: matching edges are contracted
//! with a union–find structure and non-matching edges connect the contracted
//! clusters. This crate provides:
//!
//! * [`UnionFind`] — Tarjan union–find with path halving and union by size;
//! * [`ClusterGraph`] — the incremental deduction structure (the hot path of
//!   every labeler in `crowdjoin-core`) and Algorithm 2's incremental
//!   closure: one slot-pair table holds, for each pair of clusters, either
//!   their non-matching edge or the tracked pairs still pending between
//!   them, so a merge migrates both facts in one pass (module docs);
//! * [`ScanGraph`] — the same insert outcomes on a layout the labeler's
//!   Algorithm-3 scan rebuilds per scan and replays recorded steps into.
//!
//! The crate's tests check both against `PathOracleGraph`, a test-only
//! implementation of the Lemma 1 path semantics as written.
//!
//! # Example
//!
//! ```
//! use crowdjoin_graph::{ClusterGraph, EdgeLabel};
//!
//! let mut g = ClusterGraph::new(5);
//! g.insert(0, 1, EdgeLabel::Matching).unwrap();
//! g.insert(1, 2, EdgeLabel::Matching).unwrap();
//! g.insert(2, 3, EdgeLabel::NonMatching).unwrap();
//!
//! assert_eq!(g.deduce(0, 2), Some(EdgeLabel::Matching));     // 0=1, 1=2
//! assert_eq!(g.deduce(0, 3), Some(EdgeLabel::NonMatching));  // 0=2, 2≠3
//! assert_eq!(g.deduce(0, 4), None);                          // unknown object
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster_graph;
mod edge_set;
#[cfg(test)]
mod path_oracle;
mod scan_graph;
mod union_find;

pub use cluster_graph::{ClusterGraph, ConflictError, InsertOutcome};
pub use scan_graph::{ScanGraph, ScanStep};
pub use union_find::UnionFind;

/// The label of an edge (a labeled object pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeLabel {
    /// The two objects refer to the same real-world entity.
    Matching,
    /// The two objects refer to different real-world entities.
    NonMatching,
}

impl EdgeLabel {
    /// `true` for [`EdgeLabel::Matching`].
    #[must_use]
    pub fn is_matching(self) -> bool {
        matches!(self, EdgeLabel::Matching)
    }
}

impl std::fmt::Display for EdgeLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeLabel::Matching => write!(f, "matching"),
            EdgeLabel::NonMatching => write!(f, "non-matching"),
        }
    }
}
