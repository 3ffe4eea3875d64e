//! The global recording gate, event/span builders, and the
//! [`obs_event!`](crate::obs_event) / [`obs_span!`](crate::obs_span) macros.
//!
//! Recording state is process-global: a relaxed [`AtomicBool`] gate, a
//! mutex-guarded sink list, a monotonic trace epoch, and a per-thread
//! ordinal. Installing the first sink turns the gate on; finishing the
//! sinks turns it back off. Instrumentation sites check
//! [`enabled`] *first* and only then pay for timestamps, field vectors,
//! and the sink lock — so a run with no sinks attached does one relaxed
//! load per site and nothing else.

use crate::event::{FieldValue, TraceEvent};
use crate::sink::TraceSink;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The runtime gate. Only [`install_sink`] / [`finish_sinks`] flip it.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Attached sinks. Locked only while recording an event (gate already
/// checked) or installing/finishing.
static SINKS: Mutex<Vec<Box<dyn TraceSink>>> = Mutex::new(Vec::new());

/// Monotonic epoch all `wall_us` timestamps count from; first use wins.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Allocator for per-thread ordinals.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Whether event recording is live. Compile-time `false` without the
/// `trace` feature (every guarded site becomes dead code); otherwise one
/// relaxed atomic load.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    cfg!(feature = "trace") && ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the process trace epoch (established on first
/// call).
#[must_use]
pub fn wall_micros() -> u64 {
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// This thread's small recording ordinal (first recording thread is 0).
#[must_use]
pub fn thread_ordinal() -> u64 {
    TID.with(|t| *t)
}

/// Attaches a sink and turns recording on.
pub fn install_sink(sink: Box<dyn TraceSink>) {
    // Pin the epoch before the first event so timestamps never precede it.
    let _ = wall_micros();
    let mut sinks = SINKS.lock().expect("obs sink registry poisoned");
    sinks.push(sink);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Detaches every sink, finishing each (flushing buffered output), and
/// turns recording off. Returns the first I/O error encountered after
/// finishing all of them.
pub fn finish_sinks() -> std::io::Result<()> {
    let mut sinks = std::mem::take(&mut *SINKS.lock().expect("obs sink registry poisoned"));
    ENABLED.store(false, Ordering::Relaxed);
    let mut first_err = None;
    for sink in &mut sinks {
        if let Err(e) = sink.finish() {
            first_err.get_or_insert(e);
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Delivers one event to every attached sink. Callers gate on
/// [`enabled`] first; a racing [`finish_sinks`] just means the event is
/// dropped, never an error.
pub fn record(event: TraceEvent) {
    let mut sinks = SINKS.lock().expect("obs sink registry poisoned");
    for sink in sinks.iter_mut() {
        sink.record(&event);
    }
}

/// Builder for an instant event. Construct only behind an
/// `if enabled()` guard (the [`obs_event!`](crate::obs_event) macro does):
/// the builder
/// itself allocates its field vector.
#[derive(Debug)]
pub struct EventBuilder {
    event: TraceEvent,
}

impl EventBuilder {
    /// Starts an event of `kind` in layer `cat`, stamped now.
    #[must_use]
    pub fn new(cat: &'static str, kind: &'static str, shard: u32) -> Self {
        Self {
            event: TraceEvent {
                kind,
                cat,
                shard,
                tid: thread_ordinal(),
                wall_us: wall_micros(),
                dur_us: None,
                virt_ms: None,
                fields: Vec::new(),
            },
        }
    }

    /// Attaches the virtual-time stamp (simulated-timeline events).
    #[must_use]
    pub fn virt(mut self, ms: u64) -> Self {
        self.event.virt_ms = Some(ms);
        self
    }

    /// Appends a typed field.
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.event.fields.push((key, value.into()));
        self
    }

    /// Records the event.
    pub fn emit(self) {
        record(self.event);
    }
}

/// A live span: started at construction, recorded as a completed event
/// (with `dur_us`) on drop. When recording is disabled at construction
/// the guard is inert — no timestamp is read and drop does nothing.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    inner: Option<TraceEvent>,
}

impl SpanGuard {
    /// Starts a span of `kind` in layer `cat` (inert when recording is
    /// off).
    pub fn new(cat: &'static str, kind: &'static str, shard: u32) -> Self {
        if !enabled() {
            return Self { inner: None };
        }
        Self {
            inner: Some(TraceEvent {
                kind,
                cat,
                shard,
                tid: thread_ordinal(),
                wall_us: wall_micros(),
                dur_us: None,
                virt_ms: None,
                fields: Vec::new(),
            }),
        }
    }

    /// An inert span (useful as a default before deciding to measure).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Attaches the virtual-time stamp.
    pub fn virt(mut self, ms: u64) -> Self {
        if let Some(e) = &mut self.inner {
            e.virt_ms = Some(ms);
        }
        self
    }

    /// Appends a typed field (before or after construction-time ones).
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        if let Some(e) = &mut self.inner {
            e.fields.push((key, value.into()));
        }
        self
    }

    /// Appends a typed field through a mutable reference (for fields only
    /// known mid-span, e.g. a result count).
    pub fn set_field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(e) = &mut self.inner {
            e.fields.push((key, value.into()));
        }
    }

    /// Whether this guard is live (recording was enabled when it started).
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut event) = self.inner.take() {
            event.dur_us = Some(wall_micros().saturating_sub(event.wall_us));
            record(event);
        }
    }
}

/// Records an instant event when tracing is enabled; otherwise costs one
/// relaxed atomic load. Field keys are bare identifiers, values anything
/// `Into<FieldValue>`:
///
/// ```
/// crowdjoin_obs::obs_event!("engine", "task.publish", 3, pairs = 40usize, flush = true);
/// ```
#[macro_export]
macro_rules! obs_event {
    ($cat:expr, $kind:expr, $shard:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::EventBuilder::new($cat, $kind, $shard)
                $(.field(stringify!($key), $value))*
                .emit();
        }
    };
}

/// Starts a [`SpanGuard`] measuring until the end of the enclosing scope
/// (inert when tracing is off):
///
/// ```
/// let _span = crowdjoin_obs::obs_span!("matcher", "matcher.index", crowdjoin_obs::NO_SHARD);
/// ```
#[macro_export]
macro_rules! obs_span {
    ($cat:expr, $kind:expr, $shard:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::SpanGuard::new($cat, $kind, $shard)
            $(.field(stringify!($key), $value))*
    };
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::event::NO_SHARD;
    use crate::sink::CaptureSink;

    /// The recorder is process-global; tests that install sinks serialize
    /// on this lock so parallel test threads cannot observe each other's
    /// sinks.
    pub(crate) static GLOBAL_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_recording_is_inert() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        assert!(!enabled());
        obs_event!("test", "test.instant", 1, n = 3u64);
        let span = SpanGuard::new("test", "test.span", 2);
        assert!(!span.is_live());
        drop(span);
        // Nothing panicked, nothing was delivered (no sink to deliver to).
    }

    #[test]
    fn events_and_spans_reach_installed_sinks() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        let (sink, captured) = CaptureSink::new();
        install_sink(Box::new(sink));
        assert!(enabled());

        obs_event!("test", "test.instant", 7, count = 4usize, mode = "flush");
        {
            let _span = obs_span!("test", "test.span", NO_SHARD, items = 2u64).virt(1500);
        }
        finish_sinks().unwrap();
        assert!(!enabled());

        let events = captured.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "test.instant");
        assert_eq!(events[0].shard, 7);
        assert_eq!(events[0].dur_us, None);
        assert_eq!(
            events[0].fields,
            vec![("count", FieldValue::U64(4)), ("mode", FieldValue::Str("flush"))]
        );
        assert_eq!(events[1].kind, "test.span");
        assert_eq!(events[1].shard, NO_SHARD);
        assert_eq!(events[1].virt_ms, Some(1500));
        assert!(events[1].dur_us.is_some(), "spans carry a duration");
        assert!(events[1].wall_us <= wall_micros());
    }

    #[test]
    fn events_after_finish_are_dropped() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        let (sink, captured) = CaptureSink::new();
        install_sink(Box::new(sink));
        finish_sinks().unwrap();
        obs_event!("test", "test.late", 0);
        assert!(captured.lock().unwrap().is_empty());
    }
}
