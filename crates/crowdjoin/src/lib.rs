//! # crowdjoin — crowdsourced joins with transitive relations
//!
//! A production-grade reproduction of *Leveraging Transitive Relations for
//! Crowdsourced Joins* (Wang, Li, Kraska, Franklin, Feng — SIGMOD 2013,
//! revised 2014): hybrid human–machine entity resolution that labels every
//! machine-generated candidate pair while **crowdsourcing as few pairs as
//! possible**, deducing the rest via positive/negative transitivity.
//!
//! This facade crate re-exports the whole workspace and adds the glue that
//! joins the layers:
//!
//! | layer | crate | contents |
//! |-------|-------|----------|
//! | deduction substrate | [`graph`] | union–find, ClusterGraph, path oracle |
//! | datasets | [`records`] | Paper/Product generators (Cora / Abt-Buy stand-ins) |
//! | machine matcher | [`matcher`] | tokenizers, similarity, tf-idf join |
//! | labeling framework | [`core`] | orders, sequential/parallel labelers, expected cost |
//! | crowd platform | [`sim`] | discrete-event AMT simulator + the pluggable `CrowdBackend` layer |
//! | external crowd | [`backend_spool`] | spool-directory backend: drive a job with any external answerer |
//! | answer journal | [`wal`] | crash-safe write-ahead journal for resumable jobs |
//! | execution engine | [`engine`] | component sharding, one event loop over simulated, external and oracle backends |
//! | integration | [`pipeline`], [`runner`] | dataset→task glue, platform-driven runs |
//! | streaming | [`stream`] | journaled record log; `close` is the batch join |
//!
//! ## End-to-end example
//!
//! ```
//! use crowdjoin::matcher::MatcherConfig;
//! use crowdjoin::records::{generate_paper, ClusterSpec, PaperGenConfig, PerturbConfig};
//! use crowdjoin::{build_task, GroundTruthOracle, SortStrategy};
//!
//! // 1. Machine stage: generate (or load) records, score candidate pairs.
//! let dataset = generate_paper(&PaperGenConfig {
//!     num_records: 60,
//!     clusters: ClusterSpec::Explicit(vec![(6, 3), (2, 6)]),
//!     perturb: PerturbConfig::light(),
//!     sibling_probability: 0.0,
//!     seed: 42,
//! });
//! let (task, truth) = build_task(&dataset, &MatcherConfig::for_arity(5), 0.3);
//!
//! // 2. Crowd stage: label candidates, deducing everything transitivity can.
//! let mut crowd = GroundTruthOracle::new(&truth);
//! let result = task.run_sequential(SortStrategy::ExpectedLikelihood, &mut crowd);
//!
//! assert_eq!(result.num_labeled(), task.candidates().len());
//! assert!(result.num_deduced() > 0, "transitivity saved crowd questions");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pipeline;
pub mod report;
pub mod runner;
pub mod stream;

/// The spool-directory external crowd backend (re-export of
/// `crowdjoin-backend-spool`).
pub use crowdjoin_backend_spool as backend_spool;
/// The labeling framework (re-export of `crowdjoin-core`).
pub use crowdjoin_core as core;
/// The sharded execution engine (re-export of `crowdjoin-engine`).
pub use crowdjoin_engine as engine;
/// The deduction substrate (re-export of `crowdjoin-graph`).
pub use crowdjoin_graph as graph;
/// The machine matcher (re-export of `crowdjoin-matcher`).
pub use crowdjoin_matcher as matcher;
/// The observability layer: tracing, metrics, sinks (re-export of
/// `crowdjoin-obs`).
pub use crowdjoin_obs as obs;
/// Dataset generators (re-export of `crowdjoin-records`).
pub use crowdjoin_records as records;
/// The crowd-platform simulator (re-export of `crowdjoin-sim`).
pub use crowdjoin_sim as sim;
/// Shared utilities (re-export of `crowdjoin-util`).
pub use crowdjoin_util as util;
/// The crash-safe answer journal (re-export of `crowdjoin-wal`).
pub use crowdjoin_wal as wal;

pub use crowdjoin_core::{
    enforce_one_to_one, label_sequential, optimal_cost, resolve_entities, run_parallel_rounds,
    sort_pairs, CandidateSet, GroundTruth, GroundTruthOracle, Label, LabelingResult, LabelingTask,
    Oracle, Pair, ParallelLabeler, Provenance, QualityMetrics, ScoredPair, SortStrategy,
};
// The engine's oracle entry point under the facade's historical name.
pub use crowdjoin_engine::run_with_oracle as run_sharded_with_oracle;
pub use crowdjoin_engine::{
    BackendFactory, CrowdBackend, Engine, EngineConfig, EngineReport, ShardContext,
    SharedGroundTruth, SimFactory, TimeSource,
};
pub use pipeline::{build_task, ground_truth_of, to_candidate_set};
pub use runner::{publish_in_waves, run_parallel_on_platform};
pub use stream::StreamJob;
