//! # crowdjoin-sim — a discrete-event crowdsourcing-platform simulator
//!
//! The paper evaluates its labeling algorithms on Amazon Mechanical Turk;
//! this crate is the in-process stand-in. It reproduces the mechanics the
//! paper's AMT experiments measure — HIT batching, replicated assignments
//! with majority voting, qualification tests, worker error rates, and the
//! worker-arrival latency that makes sequential publishing an order of
//! magnitude slower than parallel publishing (Table 1) — behind a small,
//! deterministic, seedable API.
//!
//! The crate also defines the **pluggable crowd-backend layer** the
//! execution engine is generic over: the [`CrowdBackend`] poll interface
//! (which [`Platform`] implements as the reference backend), the
//! [`BackendFactory`] that creates one backend per shard, and the
//! [`TimeSource`] clocks ([`VirtualClock`] / [`WallClock`]) that let one
//! event loop drive simulated and real-time backends alike — see
//! [`backend`] for the contract and `crowdjoin-backend-spool` for the
//! first external implementation.
//!
//! ```
//! use crowdjoin_sim::{Platform, PlatformConfig, TaskSpec};
//!
//! let mut platform = Platform::new(PlatformConfig::perfect_workers(42));
//! platform.publish(
//!     (0..40).map(|id| TaskSpec { id, truth: id % 2 == 0, priority: 0.5 }).collect(),
//! );
//! // Polling up to the next event is what advances the virtual clock.
//! let mut labeled = 0;
//! while let Some(next) = platform.next_event_time() {
//!     if let Some((_time, batch)) = platform.poll_completions(next) {
//!         labeled += batch.len();
//!     }
//! }
//! assert_eq!(labeled, 40);
//! assert_eq!(platform.stats().hits_published, 2); // 20 pairs per HIT
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod config;
pub mod dist;
pub mod platform;
pub mod stager;
pub mod time;
pub mod vote;

pub use backend::{BackendFactory, CrowdBackend, ShardContext, SimFactory};
pub use config::{AssignmentPolicy, PlatformConfig};
pub use dist::LogNormal;
pub use platform::{Platform, PlatformStats, ResolvedTask, TaskSpec, WorkerStats};
pub use stager::HitStager;
pub use time::{SimDuration, TimeSource, VirtualClock, VirtualTime, WallClock};
pub use vote::majority;
