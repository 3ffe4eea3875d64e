//! # crowdjoin-core — transitive-relation labeling for crowdsourced joins
//!
//! This crate implements the primary contribution of *Leveraging Transitive
//! Relations for Crowdsourced Joins* (Wang, Li, Kraska, Franklin, Feng —
//! SIGMOD 2013, revised 2014): given a machine-generated set of candidate
//! matching pairs, obtain a label for **every** pair while **crowdsourcing as
//! few pairs as possible**, by deducing the rest through positive and
//! negative transitivity.
//!
//! ## Components
//!
//! * **Sorting** ([`sort`]) — labeling orders: the theoretical optimum
//!   (matching pairs first, Theorem 1), the practical likelihood-descending
//!   heuristic, plus random/worst baselines for experiments.
//! * **Labeling** ([`sequential`], [`parallel`]) — the one-pair-at-a-time
//!   labeler and the parallel labeler (Algorithms 2/3) that publishes every
//!   pair provably needing crowdsourcing, supporting the *instant decision*
//!   and *non-matching first* optimizations through its event-driven API.
//!   [`ParallelLabeler`] is the one Algorithm-3 implementation: the
//!   round-based driver, the platform runners and every engine shard run
//!   it. It deduces through an incremental transitive closure (only what
//!   the newest answer implies is derived): its
//!   `crowdjoin_graph::ClusterGraph` keeps one slot-pair table whose entry
//!   for two clusters is their non-matching edge or the positions pending
//!   between them. It skips Algorithm-3 scans that cannot differ from the
//!   last one.
//! * **Baseline** ([`baseline`]) — the non-transitive labeler prior systems
//!   use (crowdsource everything).
//! * **Analysis** ([`analysis`], [`expected`]) — closed-form optimal cost and
//!   exact expected-cost evaluation over consistent worlds (Example 4),
//!   including brute-force search for the expected-optimal order on small
//!   instances (the general problem is NP-hard; Vesdapunt et al. 2014).
//! * **Quality** ([`metrics`]) — precision/recall/F-measure as defined in
//!   Section 6.4.
//!
//! ## Quick start
//!
//! ```
//! use crowdjoin_core::{
//!     CandidateSet, GroundTruth, GroundTruthOracle, LabelingTask, Pair, ScoredPair,
//!     SortStrategy,
//! };
//!
//! // Three records that all refer to one entity ("iPad 2nd Gen" ≅ "iPad Two"
//! // ≅ "iPad 2"), with machine likelihoods.
//! let truth = GroundTruth::from_clusters(3, &[vec![0, 1, 2]]);
//! let candidates = CandidateSet::new(3, vec![
//!     ScoredPair::new(Pair::new(0, 1), 0.9),
//!     ScoredPair::new(Pair::new(1, 2), 0.8),
//!     ScoredPair::new(Pair::new(0, 2), 0.7),
//! ]);
//!
//! let task = LabelingTask::new(candidates);
//! let mut crowd = GroundTruthOracle::new(&truth);
//! let result = task.run_sequential(SortStrategy::ExpectedLikelihood, &mut crowd);
//!
//! // The third pair is deduced by positive transitivity — only two pairs
//! // cost money.
//! assert_eq!(result.num_crowdsourced(), 2);
//! assert_eq!(result.num_deduced(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baseline;
pub mod expected;
pub mod framework;
mod labeler;
pub mod metrics;
pub mod one_to_one;
pub mod oracle;
pub mod parallel;
pub mod resolution;
pub mod result;
pub mod sequential;
pub mod sort;
pub mod truth;
pub mod types;

pub use analysis::{optimal_cost, OptimalCost};
pub use baseline::label_non_transitive;
pub use expected::{is_consistent, World, WorldEnumeration, MAX_ENUMERABLE_PAIRS};
pub use framework::LabelingTask;
pub use labeler::ParallelLabeler;
pub use metrics::QualityMetrics;
pub use one_to_one::{enforce_one_to_one, OneToOneOutcome};
pub use oracle::{FixedOracle, GroundTruthOracle, NoisyOracle, Oracle};
pub use parallel::{run_parallel_rounds, ParallelRunStats};
pub use resolution::{resolve_entities, EntityResolution};
pub use result::LabelingResult;
pub use sequential::label_sequential;
pub use sort::{sort_pairs, SortStrategy};
pub use truth::GroundTruth;
pub use types::{CandidateSet, Label, LabeledPair, Pair, Provenance, ScoredPair};

/// The paper's Figure 3 running example (0-based ids): clusters {o1,o2,o3}
/// and {o4,o5}; candidate pairs p1..p8 in decreasing likelihood.
#[cfg(test)]
pub(crate) fn running_example() -> (CandidateSet, GroundTruth) {
    let truth = GroundTruth::from_clusters(6, &[vec![0, 1, 2], vec![3, 4]]);
    let pairs = vec![
        ScoredPair::new(Pair::new(0, 1), 0.95), // p1 M
        ScoredPair::new(Pair::new(1, 2), 0.90), // p2 M
        ScoredPair::new(Pair::new(0, 5), 0.85), // p3 N
        ScoredPair::new(Pair::new(0, 2), 0.80), // p4 M
        ScoredPair::new(Pair::new(3, 4), 0.75), // p5 M
        ScoredPair::new(Pair::new(3, 5), 0.70), // p6 N
        ScoredPair::new(Pair::new(1, 3), 0.65), // p7 N
        ScoredPair::new(Pair::new(4, 5), 0.60), // p8 N
    ];
    (CandidateSet::new(6, pairs), truth)
}
