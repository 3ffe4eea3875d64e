//! # crowdjoin-backend-spool — drive the engine with an external crowd
//!
//! The engine's `CrowdBackend` layer (see `crowdjoin-sim`) makes the crowd
//! a pluggable choice; this crate is the first backend whose answers come
//! from **outside the process**. It publishes HITs as JSON files into a
//! spool directory and polls an answers directory on wall-clock time —
//! making a crowdjoin job drivable by another program, a queue worker
//! fleet, or a human with a text editor, end-to-end testable without any
//! network.
//!
//! ```text
//! engine ──ShardTask── SpoolBackend ──writes──▶ <spool>/hits/h-0-0.json
//!                            ▲                          │
//!                            │                          ▼   (anything:
//!                       polls answers/          external answerer  a script,
//!                            │                          │    a human, qurk…)
//!                            └──reads── <spool>/answers/h-0-0.json
//! ```
//!
//! The engine side is *identical* to the simulator path — same `ShardTask`
//! state machines, same event loop, same write-ahead journal — only the
//! backend (and its wall-clock `TimeSource`) differs. With a journal
//! attached, a killed spool job resumes without re-asking a single
//! journaled question: the answers are fed back through the labelers and
//! only the unanswered remainder is re-published.
//!
//! See [`SpoolBackend`] for the exact file protocol and [`answer_pending`]
//! for a reference external answerer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The JSON reader/writer HIT and answer files go through — a re-export
/// of [`crowdjoin_util::json`], kept so
/// `crowdjoin_backend_spool::json::{parse, Value}` resolves.
pub mod json {
    pub use crowdjoin_util::json::{parse, write_str, Value};
}
mod spool;

pub use spool::{
    answer_pending, pending_hits, retract_unanswered_hits, write_answers, SpoolBackend,
    SpoolConfig, SpoolFactory, SpoolQuestion,
};
