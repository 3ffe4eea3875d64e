//! Zero-cost observability for the crowdjoin workspace: structured trace
//! events and spans, per-shard metrics, and pluggable sinks — with a hard
//! guarantee that none of it can change what a run computes.
//!
//! The paper this workspace reproduces ("Leveraging Transitive Relations
//! for Crowdsourced Joins", SIGMOD 2013) argues with numbers — questions
//! crowdsourced vs deduced, rounds, dollars, waste — so every layer here
//! is built to be *measured*. This crate is the shared measurement
//! substrate:
//!
//! * [`event`] — the typed [`TraceEvent`] record: a kind, a category, a
//!   shard, a monotonic wall timestamp (microseconds since the trace
//!   epoch), an optional duration (spans), an optional virtual-time stamp
//!   (the simulator's millisecond clock), and a small list of typed fields.
//! * [`recorder`] — the global recording gate and the [`obs_event!`] /
//!   [`obs_span!`] entry points. Recording is **off by default**; a
//!   disabled site costs one relaxed atomic load (and compiles out
//!   entirely when the `trace` feature is off, see below).
//! * [`metrics`] — allocation-free counters, gauges, and log₂-bucketed
//!   histograms, registered per `(name, shard)` in a deterministic-order
//!   registry so snapshots diff cleanly.
//! * [`sink`] — where enabled traces go: a line-per-event JSONL writer
//!   ([`JsonlSink`]), a Chrome trace-event exporter loadable in Perfetto /
//!   `chrome://tracing` ([`ChromeTraceSink`]), and an in-memory
//!   [`CaptureSink`] for tests.
//! * [`json`] — the JSON writer helpers, re-exported from
//!   `crowdjoin_util::json` (the workspace's one JSON codec) under the
//!   path the sinks, the CLI report and the benches have always used.
//!
//! ## The zero-cost contract
//!
//! Instrumented code must behave bit-identically whether tracing is off,
//! on, or compiled out:
//!
//! * **compiled out** (`trace` feature disabled): [`recorder::enabled`]
//!   is a compile-time `false`, so every `if enabled() { … }` site is
//!   dead code and vanishes;
//! * **off** (the default at runtime): one relaxed [`std::sync::atomic::AtomicBool`]
//!   load per site, no allocation, no lock;
//! * **on**: events are recorded to sinks behind a mutex, but nothing an
//!   event records feeds back into the computation — labels, money,
//!   per-shard stats, and journal bytes stay bit-identical (pinned by
//!   `tests/obs_determinism.rs` in the workspace root).
//!
//! Metrics are always-on (a relaxed atomic add is cheaper than gating it)
//! and equally side-effect-free.
//!
//! ## Timestamps
//!
//! Every event carries `wall_us`, microseconds on the process-wide
//! monotonic trace epoch (first use wins) — that is what profiles order
//! by. Events from virtual-time runs *additionally* carry the backend's
//! `VirtualTime` milliseconds in `virt_ms`, so a simulated timeline can
//! be reconstructed even though the whole run executes in a burst of
//! wall-clock microseconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
/// JSON writer helpers — a re-export of [`crowdjoin_util::json`]'s writer
/// half, kept so `crowdjoin_obs::json::{js_str, JsonObject, …}` resolves.
pub mod json {
    pub use crowdjoin_util::json::{js_f64, js_opt_f64, js_str, write_str, JsonObject};
}
pub mod metrics;
pub mod recorder;
pub mod sink;

pub use event::{FieldValue, TraceEvent, NO_SHARD};
pub use metrics::{counter, gauge, histogram, metrics_json, reset_metrics, snapshot_metrics};
pub use recorder::{enabled, finish_sinks, install_sink, record, EventBuilder, SpanGuard};
pub use sink::{CaptureSink, ChromeTraceSink, JsonlSink, TraceSink};
