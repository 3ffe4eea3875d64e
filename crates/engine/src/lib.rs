//! # crowdjoin-engine — sharded, multi-threaded execution engine
//!
//! `crowdjoin_core::ParallelLabeler` labels one candidate graph in one
//! thread. Its deduction substrate is naturally partitionable, though:
//! transitive relations (positive and negative alike) propagate only along
//! candidate edges, so **pairs in different connected components can never
//! deduce each other**. This crate turns that observation into a
//! job-oriented execution engine in which every shard runs that same
//! labeler over its own components:
//!
//! 1. **Partitioner** ([`partition`]) — extracts connected components with
//!    the `crowdjoin-graph` union–find and bin-packs them (LPT) into
//!    balanced shards.
//! 2. **Event loop** ([`event_loop`]) — the one driver: every shard is a
//!    non-blocking [`task::ShardTask`] state machine
//!    (`Publishing → AwaitingCrowd → Deducing → Done`) over its own
//!    [`CrowdBackend`], and a cooperative scheduler advances the shard with
//!    the earliest pending virtual event, multiplexing thousands of shards
//!    over [`effective_threads`] workers. The partition is fixed for the
//!    whole job.
//! 3. **Backends** — a deterministic simulated platform per shard
//!    ([`Engine::run`]), any external [`BackendFactory`]
//!    ([`Engine::run_with_backend`]), or a thread-safe oracle
//!    ([`oracle::SharedOracle`]) as a zero-latency backend
//!    ([`run_with_oracle`]). All three run the same shard tasks.
//! 4. **Merged report** ([`report`]) — per-shard `LabelingResult`s stitched
//!    into a global result with platform stats summed and completion time
//!    taken as the virtual-time critical path (max over shards).
//!
//! ## Example
//!
//! ```
//! use crowdjoin_core::{sort_pairs, CandidateSet, GroundTruth, Pair, ScoredPair, SortStrategy};
//! use crowdjoin_engine::{run_with_oracle, EngineConfig, SharedGroundTruth};
//!
//! // Two disjoint entity clusters → two components → two shards.
//! let truth = GroundTruth::from_clusters(6, &[vec![0, 1, 2], vec![3, 4, 5]]);
//! let candidates = CandidateSet::new(6, vec![
//!     ScoredPair::new(Pair::new(0, 1), 0.9),
//!     ScoredPair::new(Pair::new(1, 2), 0.8),
//!     ScoredPair::new(Pair::new(3, 4), 0.9),
//!     ScoredPair::new(Pair::new(4, 5), 0.8),
//! ]);
//! let order = sort_pairs(&candidates, SortStrategy::ExpectedLikelihood);
//!
//! let oracle = SharedGroundTruth::new(&truth);
//! let report = run_with_oracle(6, &order, &oracle, &EngineConfig::with_shards(2));
//! assert_eq!(report.num_shards(), 2);
//! assert_eq!(report.result.num_labeled(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod event_loop;
pub mod oracle;
pub mod partition;
mod persist;
pub mod report;
pub mod scheduler;
pub mod task;

/// The on-disk answer-journal format (re-export of `crowdjoin-wal`).
pub use crowdjoin_wal as wal;

/// The pluggable crowd-backend layer (re-export of `crowdjoin-sim`): the
/// [`CrowdBackend`] poll interface the engine is generic over, the
/// [`TimeSource`] clocks it schedules against, and the default simulator
/// factory.
pub use crowdjoin_sim::{
    BackendFactory, CrowdBackend, ShardContext, SimFactory, TimeSource, VirtualClock, WallClock,
};

pub use engine::{run_with_oracle, Engine, EngineConfig};
pub use oracle::{SharedGroundTruth, SharedOracle};
pub use partition::{partition_candidates, Partition, Shard};
pub use report::{EngineReport, RoundMetric, ShardMetrics, ShardReport};
pub use scheduler::effective_threads;
pub use task::{pair_task_id, task_id_pair, ShardState, ShardTask};
