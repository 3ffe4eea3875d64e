//! In-memory span recorder for the traced repetitions.
//!
//! Spans are recorded from the benchmark's own code, around the calls into
//! each layer; nothing inside the crates is instrumented. They are kept in
//! memory and written out once, when the run ends. A disabled tracer records
//! nothing, so the untraced repetitions pay one branch per call site.

use crowdjoin::obs::json::{js_str, JsonObject};
use std::time::Instant;

/// Handle of an open span (an index into the tracer's span list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`matcher.probe`, `engine.run`, ...).
    pub name: String,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Which job of the run the span belongs to.
    pub job: usize,
    /// Time the layer was busy inside `[start, end]`, where that is less
    /// than the interval: a per-shard backend aggregate covers the shard's
    /// first to last call but was only busy during the calls.
    pub busy_ns: Option<u64>,
    /// Calls aggregated into this span (1 for an ordinary span).
    pub calls: u64,
}

impl Span {
    /// Time this span accounts for in its parent: its busy time when it is
    /// an aggregate, its duration otherwise.
    #[must_use]
    pub fn covered_ns(&self) -> u64 {
        self.busy_ns.unwrap_or(self.end_ns - self.start_ns)
    }
}

/// Records spans against one epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    job: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
}

const DISABLED: SpanId = SpanId(usize::MAX);

impl Tracer {
    /// A tracer with its epoch at now, recording nothing until
    /// [`Tracer::start_job`] enables it.
    #[must_use]
    pub fn new() -> Self {
        Self { epoch: Instant::now(), enabled: false, job: 0, open: Vec::new(), spans: Vec::new() }
    }

    /// Starts job number `job`; its spans are recorded only if `traced`.
    pub fn start_job(&mut self, job: usize, traced: bool) {
        debug_assert!(self.open.is_empty(), "job started inside an open span");
        self.job = job;
        self.enabled = traced;
    }

    /// Whether the current job is traced.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant every `start_ns`/`end_ns` counts from.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return DISABLED;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            job: self.job,
            busy_ns: None,
            calls: 1,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if id == DISABLED {
            return;
        }
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = now;
    }

    /// Records an aggregate measured elsewhere (a shard's backend calls)
    /// as a child of the open span `parent`.
    pub fn aggregate(
        &mut self,
        name: &str,
        parent: SpanId,
        (start_ns, end_ns): (u64, u64),
        busy_ns: u64,
        calls: u64,
    ) {
        if parent == DISABLED {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: Some(parent.0),
            job: self.job,
            busy_ns: Some(busy_ns),
            calls,
        });
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: what it covers minus what its children cover.
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::covered_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.covered_ns());
            }
        }
        own
    }

    /// Seconds covered by the spans of `job` named `name`.
    #[must_use]
    pub fn seconds(&self, job: usize, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.job == job && s.name == name)
            .map(Span::covered_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Self time, in seconds, of the spans of `job` named `name`.
    #[must_use]
    pub fn self_seconds(&self, job: usize, name: &str) -> f64 {
        let own = self.self_ns();
        let ns: u64 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.job == job && s.name == name)
            .map(|(_, &ns)| ns)
            .sum();
        ns as f64 / 1e9
    }

    /// The trace document: one object per span, parents by index.
    #[must_use]
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let own = self.self_ns();
        let spans: Vec<String> = self
            .spans
            .iter()
            .zip(&own)
            .map(|(s, own_ns)| {
                let mut o = JsonObject::new();
                o.field("name", js_str(&s.name));
                o.field("start_ns", s.start_ns.to_string());
                o.field("end_ns", s.end_ns.to_string());
                o.field("parent", s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()));
                o.field("job", s.job.to_string());
                o.field("self_ns", own_ns.to_string());
                if let Some(busy) = s.busy_ns {
                    o.field("busy_ns", busy.to_string());
                    o.field("calls", s.calls.to_string());
                }
                o.render()
            })
            .collect();
        format!(
            "{{\"schema\": \"crowdjoin-benchmark-trace/1\", \"workload\": {}, \"seed\": {seed}, \
             \"spans\": [\n{}\n]}}\n",
            js_str(workload),
            spans.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new();
        tr.start_job(0, false);
        let a = tr.begin("job");
        tr.aggregate("sim.backend", a, (0, 10), 5, 2);
        tr.end(a);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children_and_aggregates_by_busy_time() {
        let mut tr = Tracer::new();
        tr.start_job(3, true);
        let job = tr.begin("job");
        let run = tr.begin("engine.run");
        tr.aggregate("sim.backend", run, (0, 1_000_000_000), 7, 4);
        tr.end(run);
        tr.end(job);
        // Fix the clock readings so the arithmetic is exact.
        tr.spans[0].start_ns = 0;
        tr.spans[0].end_ns = 100;
        tr.spans[1].start_ns = 10;
        tr.spans[1].end_ns = 60;
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[2].parent, Some(1));
        assert_eq!(tr.spans()[2].job, 3);
        // job: 100 - 50; engine.run: 50 - 7 busy (not the 1 s interval).
        assert_eq!(tr.self_ns(), vec![50, 43, 7]);
        assert!((tr.seconds(3, "sim.backend") - 7e-9).abs() < 1e-15);
        assert!((tr.self_seconds(3, "engine.run") - 43e-9).abs() < 1e-15);
        let doc = crowdjoin::backend_spool::json::parse(&tr.to_json("w", 1)).expect("valid JSON");
        assert_eq!(doc.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len), Some(3));
    }
}
