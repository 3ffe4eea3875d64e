//! The structured trace record: [`TraceEvent`] and its typed fields.

/// Shard sentinel for events that are not scoped to any shard (matcher
/// stages, job-level engine events). Serialized as the literal
/// `4294967295` so every event line still carries a `shard` key.
pub const NO_SHARD: u32 = u32::MAX;

/// A typed field value. Field keys are `&'static str` so building an
/// event never allocates for names; only the field vector itself does,
/// and only when recording is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, ids, byte sizes).
    U64(u64),
    /// Signed integer (deltas, gauge levels).
    I64(i64),
    /// Floating point (ratios, scores).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Static string (state names, modes).
    Str(&'static str),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}

/// One recorded observation: an instant event (`dur_us == None`) or a
/// completed span (`dur_us == Some`). See the crate docs for the
/// timestamp semantics.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event kind, dot-namespaced by layer — the stable taxonomy external
    /// consumers match on (e.g. `task.state`, `backend.poll`,
    /// `matcher.probe`, `wal.append`). See ARCHITECTURE.md for the full
    /// list.
    pub kind: &'static str,
    /// Coarse layer category (`engine`, `matcher`, `backend`, `wal`,
    /// `sim`) — becomes the Chrome trace category.
    pub cat: &'static str,
    /// Index of the shard the event belongs to, or [`NO_SHARD`].
    pub shard: u32,
    /// Small per-thread ordinal (first thread to record gets 0).
    pub tid: u64,
    /// Microseconds since the process-wide trace epoch (monotonic).
    pub wall_us: u64,
    /// Span duration in microseconds; `None` for instant events.
    pub dur_us: Option<u64>,
    /// The backend's [`VirtualTime`] milliseconds when the event comes
    /// from a simulated timeline, `None` on pure wall-clock paths.
    ///
    /// [`VirtualTime`]: https://docs.rs/crowdjoin-sim
    pub virt_ms: Option<u64>,
    /// Typed payload fields, in recording order.
    pub fields: Vec<(&'static str, FieldValue)>,
}
