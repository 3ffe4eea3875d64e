//! One place for everything the CLI tells the user about a finished job.
//!
//! The `crowdjoin` binary used to scatter its human-facing summary across
//! ~30 `eprintln!` call sites; this module centralizes them behind a
//! [`Reporter`] so the same run can be narrated two ways:
//!
//! * **human** (default): the familiar stderr lines, printed as the run
//!   progresses — candidate counts, the `=== … ===` engine block, the
//!   savings summary, optional `--timings`;
//! * **json** (`--report json`): nothing is printed along the way; the
//!   reporter accumulates every section and [`Reporter::finish`] returns
//!   one machine-readable document (schema `crowdjoin-report/1`) for
//!   stdout — the final [`EngineReport`] rollups (per-shard and per-round
//!   metrics included) plus the matcher's phase timings.
//!
//! Either way the *labels CSV* is unaffected: reports go to stderr or to
//! the single stdout JSON document, never interleaved with data output.
//!
//! The wall-clock [`ProgressLine`] lives here too: a sampling thread that
//! repaints one stderr status line from the engine's always-on metrics
//! registry (answers so far, pairs in flight) while a spool-backed job
//! waits on an external crowd.

use crowdjoin_engine::EngineReport;
use crowdjoin_obs::metrics::MetricValue;
use crowdjoin_obs::NO_SHARD;
use crowdjoin_util::json::{js_f64, js_str, JsonObject};
use std::time::Duration;

/// How the CLI narrates the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportFormat {
    /// Progressive stderr lines (the default).
    #[default]
    Human,
    /// One `crowdjoin-report/1` JSON document on stdout at the end.
    Json,
}

/// Which backend answered the engine's HITs (affects the summary header
/// and whether completion time is virtual or wall-clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineBackend {
    /// The in-process discrete-event simulator.
    #[default]
    Sim,
    /// The spool-directory backend (external answerer, wall clock).
    Spool,
}

/// Journal involvement of the run, for the summary's last line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalOutcome<'a> {
    /// No journal in play.
    None,
    /// A fresh journal was written to this path.
    Journaled(&'a str),
    /// The run resumed from this journal path.
    Resumed(&'a str),
}

/// Wall-clock phase breakdown of the matcher + labeling pipeline, plus the
/// prefix index's per-block filter-cascade decisions.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatcherTimings {
    /// One-pass tokenization of the dataset.
    pub tokenize: Duration,
    /// Tf-idf index construction.
    pub index: Duration,
    /// Prefix-index build (prefix cuts + filter-cascade planning).
    pub prefix: Duration,
    /// Candidate generation (blocked probe + verify).
    pub candidates: Duration,
    /// The labeling run itself (sequential or engine).
    pub join: Duration,
    /// Probe blocks the index was tiled into.
    pub blocks: u64,
    /// Blocks where the cascade enabled the length filter.
    pub blocks_len_on: u64,
    /// Blocks where the cascade enabled the positional filter.
    pub blocks_pos_on: u64,
    /// (probe, record) pairs a posting scan touched.
    pub probe_touched: u64,
    /// Touched pairs whose cosine tail the verifier walked.
    pub probe_tail_walks: u64,
    /// Exact merge joins (cosine or Jaccard) the verifier ran.
    pub probe_merges: u64,
}

impl MatcherTimings {
    /// Reads the phase breakdown back from the always-on metrics registry.
    ///
    /// The matcher library publishes its own stage timers as µs counters
    /// (`matcher.tokenize.us`, `matcher.index.us`, `matcher.prefix.us`,
    /// `matcher.candidates.us`), the block cascade's decision counters
    /// (`matcher.blocks`, `matcher.blocks.len_on`, `matcher.blocks.pos_on`)
    /// and the verifier's work counters (`matcher.probe.touched`,
    /// `matcher.probe.tail_walks`, `matcher.probe.merges`), and the CLI publishes `join.label.us` around the labeling run, so
    /// `--timings` no longer needs its own `Instant` bookkeeping — one
    /// registry read after the job replaces the ad-hoc stopwatch sites.
    /// Counters accumulate, so callers should `reset_metrics()` at job
    /// start (the CLI already does).
    #[must_use]
    pub fn from_metrics() -> Self {
        let mut t = Self::default();
        for snap in crowdjoin_obs::snapshot_metrics() {
            if snap.shard != NO_SHARD {
                continue;
            }
            let MetricValue::Counter(v) = snap.value else { continue };
            let d = Duration::from_micros(v);
            match snap.name {
                "matcher.tokenize.us" => t.tokenize = d,
                "matcher.index.us" => t.index = d,
                "matcher.prefix.us" => t.prefix = d,
                "matcher.candidates.us" => t.candidates = d,
                "join.label.us" => t.join = d,
                "matcher.blocks" => t.blocks = v,
                "matcher.blocks.len_on" => t.blocks_len_on = v,
                "matcher.blocks.pos_on" => t.blocks_pos_on = v,
                "matcher.probe.touched" => t.probe_touched = v,
                "matcher.probe.tail_walks" => t.probe_tail_walks = v,
                "matcher.probe.merges" => t.probe_merges = v,
                _ => {}
            }
        }
        t
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Accumulates (json) or prints (human) the run's report sections.
#[derive(Debug, Default)]
pub struct Reporter {
    format: ReportFormat,
    fields: Vec<(&'static str, String)>,
}

impl Reporter {
    /// A reporter narrating in `format`.
    #[must_use]
    pub fn new(format: ReportFormat) -> Self {
        Self { format, fields: Vec::new() }
    }

    fn is_json(&self) -> bool {
        self.format == ReportFormat::Json
    }

    /// An informational aside (spool banner, stream ingest summary,
    /// one-to-one demotions, consistency warnings). Always goes to stderr —
    /// asides narrate the run in both formats and never join the JSON
    /// document.
    pub fn note(&self, msg: &str) {
        eprintln!("{msg}");
    }

    /// The matcher stage's outcome: candidate pairs over the threshold.
    pub fn candidates(&mut self, records: usize, candidates: usize, threshold: f64) {
        if self.is_json() {
            self.fields.push(("records", records.to_string()));
            self.fields.push(("candidates", candidates.to_string()));
            self.fields.push(("threshold", format!("{threshold}")));
        } else {
            eprintln!("{records} records -> {candidates} candidate pairs at threshold {threshold}");
        }
    }

    /// The final labeled/crowdsourced/deduced/savings summary.
    pub fn labeled(&mut self, result: &crowdjoin_core::LabelingResult) {
        if self.is_json() {
            let mut obj = JsonObject::new();
            obj.field("total", result.num_labeled().to_string());
            obj.field("crowdsourced", result.num_crowdsourced().to_string());
            obj.field("deduced", result.num_deduced().to_string());
            obj.field("conflicts", result.num_conflicts().to_string());
            obj.field("savings_ratio", js_f64(result.savings_ratio(), 4));
            self.fields.push(("labeled", obj.render()));
        } else {
            eprintln!(
                "labeled {} pairs: {} answered, {} deduced for free ({:.0}% saved)",
                result.num_labeled(),
                result.num_crowdsourced(),
                result.num_deduced(),
                result.savings_ratio() * 100.0
            );
        }
    }

    /// The full `=== … ===` platform-run summary block.
    pub fn platform_summary(
        &mut self,
        report: &EngineReport,
        backend: EngineBackend,
        journal: JournalOutcome<'_>,
    ) {
        if self.is_json() {
            self.fields.push(("engine", engine_json(report)));
            return;
        }
        let (hits, assignments) = report
            .shards
            .iter()
            .filter_map(|s| s.stats.as_ref())
            .fold((0usize, 0usize), |(h, a), st| {
                (h + st.hits_published, a + st.assignments_completed)
            });
        match backend {
            EngineBackend::Sim => eprintln!("=== simulated crowd run (event-loop engine) ==="),
            EngineBackend::Spool => {
                eprintln!("=== external crowd run (spool backend, event-loop engine) ===");
            }
        }
        eprintln!(
            "  shards             {} over {} component(s)",
            report.num_shards(),
            report.num_components
        );
        eprintln!("  publish rounds     {} (critical path)", report.critical_path_rounds());
        eprintln!(
            "  pairs labeled      {} = {} crowdsourced + {} deduced ({:.0}% saved)",
            report.result.num_labeled(),
            report.num_crowdsourced(),
            report.num_deduced(),
            report.result.savings_ratio() * 100.0
        );
        eprintln!("  HITs               {hits} published, {assignments} assignments completed");
        eprintln!(
            "  partial-HIT waste  {:.1}% of paid pair slots",
            report.partial_hit_waste() * 100.0
        );
        eprintln!("  cost               ${:.2}", report.total_cost_cents as f64 / 100.0);
        match backend {
            EngineBackend::Sim => {
                eprintln!("  completion         {:.2} virtual hours", report.completion.as_hours());
            }
            EngineBackend::Spool => eprintln!(
                "  completion         {:.1} wall-clock seconds",
                report.completion.0 as f64 / 1000.0
            ),
        }
        match journal {
            JournalOutcome::Resumed(path) => eprintln!(
                "  resumed            {} answer(s) (${:.2}) replayed from {path}, {} newly asked",
                report.num_replayed_answers(),
                report.replayed_cost_cents() as f64 / 100.0,
                report.num_new_answers(),
            ),
            JournalOutcome::Journaled(path) => eprintln!(
                "  journal            {} answer(s) logged to {path} (resume with --resume {path})",
                report.num_crowd_answers()
            ),
            JournalOutcome::None => {}
        }
    }

    /// The `--timings` phase breakdown.
    pub fn timings(&mut self, t: &MatcherTimings) {
        if self.is_json() {
            let mut obj = JsonObject::new();
            obj.field("tokenize", js_f64(ms(t.tokenize), 3));
            obj.field("index", js_f64(ms(t.index), 3));
            obj.field("prefix", js_f64(ms(t.prefix), 3));
            obj.field("candidates", js_f64(ms(t.candidates), 3));
            obj.field("join", js_f64(ms(t.join), 3));
            self.fields.push(("timings_ms", obj.render()));
            let mut blocks = JsonObject::new();
            blocks.field("total", t.blocks.to_string());
            blocks.field("len_filter_on", t.blocks_len_on.to_string());
            blocks.field("pos_filter_on", t.blocks_pos_on.to_string());
            self.fields.push(("probe_blocks", blocks.render()));
            let mut pairs = JsonObject::new();
            pairs.field("touched", t.probe_touched.to_string());
            pairs.field("tail_walks", t.probe_tail_walks.to_string());
            pairs.field("merges", t.probe_merges.to_string());
            self.fields.push(("probe_pairs", pairs.render()));
        } else {
            eprintln!(
                "timings: tokenize {:.1} ms | tf-idf index {:.1} ms | prefix {:.1} ms | \
                 candidates {:.1} ms | join {:.1} ms",
                ms(t.tokenize),
                ms(t.index),
                ms(t.prefix),
                ms(t.candidates),
                ms(t.join)
            );
            eprintln!(
                "blocks:  {} probe block(s) — length filter on in {}, positional filter on \
                 in {}",
                t.blocks, t.blocks_len_on, t.blocks_pos_on
            );
            eprintln!(
                "probe:   {} pair(s) touched, {} cosine tail walk(s), {} exact merge(s)",
                t.probe_touched, t.probe_tail_walks, t.probe_merges
            );
        }
    }

    /// Ends the report: `Some(document)` to print on stdout in JSON mode,
    /// `None` in human mode (everything already went to stderr).
    #[must_use]
    pub fn finish(self) -> Option<String> {
        if !self.is_json() {
            return None;
        }
        let mut doc = JsonObject::new();
        doc.field("schema", js_str("crowdjoin-report/1"));
        for (key, rendered) in self.fields {
            doc.field(key, rendered);
        }
        Some(format!("{}\n", doc.render()))
    }
}

/// Renders an [`EngineReport`] — job totals plus the per-shard and
/// per-round metric rollups — as one JSON object.
#[must_use]
pub fn engine_json(report: &EngineReport) -> String {
    let (hits, assignments) = report
        .shards
        .iter()
        .filter_map(|s| s.stats.as_ref())
        .fold((0usize, 0usize), |(h, a), st| (h + st.hits_published, a + st.assignments_completed));
    let mut obj = JsonObject::new();
    obj.field("shards", report.num_shards().to_string());
    obj.field("components", report.num_components.to_string());
    obj.field("critical_path_rounds", report.critical_path_rounds().to_string());
    obj.field("hits_published", hits.to_string());
    obj.field("assignments_completed", assignments.to_string());
    obj.field("partial_hit_waste", js_f64(report.partial_hit_waste(), 4));
    obj.field("cost_cents", report.total_cost_cents.to_string());
    obj.field("completion_ms", report.completion.0.to_string());
    obj.field("replayed_answers", report.num_replayed_answers().to_string());
    obj.field("replayed_cost_cents", report.replayed_cost_cents().to_string());
    let shard_rows: Vec<String> = report
        .shard_metrics()
        .iter()
        .map(|m| {
            let mut row = JsonObject::new();
            row.field("shard", m.shard.to_string());
            row.field("crowdsourced", m.crowdsourced.to_string());
            row.field("deduced", m.deduced.to_string());
            row.field("conflicts", m.conflicts.to_string());
            row.field("publish_rounds", m.publish_rounds.to_string());
            row.field("spend_cents", m.spend_cents.to_string());
            row.field("waste", js_f64(m.waste, 4));
            row.field("peak_unresolved", m.peak_unresolved.to_string());
            row.field("replayed_answers", m.replayed_answers.to_string());
            row.render()
        })
        .collect();
    obj.field("shard_metrics", format!("[{}]", shard_rows.join(", ")));
    let round_rows: Vec<String> = report
        .round_metrics()
        .iter()
        .map(|r| {
            let mut row = JsonObject::new();
            row.field("round", r.round.to_string());
            row.field("published", r.published.to_string());
            row.field("crowdsourced", r.crowdsourced.to_string());
            row.field("deduced", r.deduced.to_string());
            row.field("cost_cents", r.cost_cents.to_string());
            row.field("at_ms", r.at.0.to_string());
            row.render()
        })
        .collect();
    obj.field("round_metrics", format!("[{}]", round_rows.join(", ")));
    obj.render()
}

/// A live stderr progress line for wall-clock (spool-backed) jobs.
///
/// Samples the always-on metrics registry — `engine.answers` counters and
/// `engine.unresolved_pairs` gauges across shards — a few times a second
/// and repaints one `\r`-anchored line while the job waits on an external
/// crowd. Purely an extra *reader* of existing metrics: it publishes
/// nothing, so engine output is untouched.
#[derive(Debug)]
pub struct ProgressLine {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressLine {
    /// Starts the sampling thread.
    #[must_use]
    pub fn start() -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("crowdjoin-progress".into())
            .spawn(move || {
                let started = std::time::Instant::now();
                while !flag.load(Ordering::Relaxed) {
                    let (answered, in_flight) = Self::sample();
                    eprint!(
                        "\r[{:>5.0}s] crowd answers {answered} | pairs awaiting crowd {in_flight}   ",
                        started.elapsed().as_secs_f64()
                    );
                    std::thread::sleep(Duration::from_millis(500));
                }
                // Blank the line out before the final summary prints.
                eprint!("\r{:78}\r", "");
            })
            .expect("spawn progress thread");
        Self { stop, handle: Some(handle) }
    }

    /// Sums `engine.answers` / `engine.unresolved_pairs` over all shards.
    fn sample() -> (u64, i64) {
        let mut answered = 0u64;
        let mut in_flight = 0i64;
        for snap in crowdjoin_obs::snapshot_metrics() {
            if snap.shard == NO_SHARD {
                continue;
            }
            match (snap.name, snap.value) {
                ("engine.answers", MetricValue::Counter(v)) => answered += v,
                ("engine.unresolved_pairs", MetricValue::Gauge(v)) => in_flight += v.max(0),
                _ => {}
            }
        }
        (answered, in_flight)
    }

    /// Stops the thread and clears the line.
    pub fn finish(mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ProgressLine {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdjoin_core::{Label, LabelingResult, Pair, Provenance};
    use crowdjoin_engine::ShardReport;
    use crowdjoin_sim::VirtualTime;

    fn tiny_report() -> EngineReport {
        let mut result = LabelingResult::new();
        result.record(Pair::new(0, 1), Label::Matching, Provenance::Crowdsourced);
        result.record(Pair::new(1, 2), Label::Matching, Provenance::Deduced);
        let shard = ShardReport {
            shard: 0,
            num_objects: 3,
            num_pairs: 2,
            num_components: 1,
            result,
            stats: None,
            completion: VirtualTime(1500),
            publish_rounds: 2,
            replayed_answers: 0,
            replayed_cost_cents: 0,
            rounds: vec![crowdjoin_engine::RoundMetric {
                round: 1,
                published: 2,
                at: VirtualTime(700),
                ..Default::default()
            }],
            peak_unresolved: 2,
        };
        EngineReport::from_shards(vec![shard], 1)
    }

    #[test]
    fn human_mode_emits_no_document() {
        let mut rep = Reporter::new(ReportFormat::Human);
        rep.candidates(10, 4, 0.3);
        rep.labeled(&LabelingResult::new());
        assert_eq!(rep.finish(), None);
    }

    #[test]
    fn json_mode_accumulates_one_document() {
        let mut rep = Reporter::new(ReportFormat::Json);
        rep.candidates(10, 4, 0.3);
        let mut result = LabelingResult::new();
        result.record(Pair::new(0, 1), Label::Matching, Provenance::Crowdsourced);
        rep.labeled(&result);
        rep.platform_summary(&tiny_report(), EngineBackend::Sim, JournalOutcome::None);
        rep.timings(&MatcherTimings::default());
        let doc = rep.finish().expect("json document");
        assert!(doc.starts_with("{\"schema\": \"crowdjoin-report/1\""), "{doc}");
        assert!(doc.contains("\"candidates\": 4"), "{doc}");
        assert!(doc.contains("\"labeled\": {\"total\": 1"), "{doc}");
        assert!(doc.contains("\"critical_path_rounds\": 2"), "{doc}");
        assert!(doc.contains("\"round_metrics\": [{\"round\": 1, \"published\": 2"), "{doc}");
        assert!(doc.ends_with("}\n"), "{doc}");
    }

    #[test]
    fn timings_read_back_from_the_registry() {
        let _registry =
            crate::METRICS_TEST_LOCK.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        crowdjoin_obs::reset_metrics();
        crowdjoin_obs::counter("matcher.tokenize.us", NO_SHARD).add(1_500);
        crowdjoin_obs::counter("matcher.index.us", NO_SHARD).add(2_500);
        crowdjoin_obs::counter("matcher.prefix.us", NO_SHARD).add(700);
        crowdjoin_obs::counter("matcher.candidates.us", NO_SHARD).add(10_000);
        crowdjoin_obs::counter("join.label.us", NO_SHARD).add(42);
        crowdjoin_obs::counter("matcher.blocks", NO_SHARD).add(7);
        crowdjoin_obs::counter("matcher.blocks.len_on", NO_SHARD).add(5);
        crowdjoin_obs::counter("matcher.blocks.pos_on", NO_SHARD).add(2);
        crowdjoin_obs::counter("matcher.probe.touched", NO_SHARD).add(90);
        crowdjoin_obs::counter("matcher.probe.tail_walks", NO_SHARD).add(30);
        crowdjoin_obs::counter("matcher.probe.merges", NO_SHARD).add(4);
        let t = MatcherTimings::from_metrics();
        assert_eq!(t.tokenize, Duration::from_micros(1_500));
        assert_eq!(t.index, Duration::from_micros(2_500));
        assert_eq!(t.prefix, Duration::from_micros(700));
        assert_eq!(t.candidates, Duration::from_micros(10_000));
        assert_eq!(t.join, Duration::from_micros(42));
        assert_eq!((t.blocks, t.blocks_len_on, t.blocks_pos_on), (7, 5, 2));
        assert_eq!((t.probe_touched, t.probe_tail_walks, t.probe_merges), (90, 30, 4));
        crowdjoin_obs::reset_metrics();
    }

    #[test]
    fn engine_json_includes_rollups() {
        let json = engine_json(&tiny_report());
        assert!(json.contains("\"shards\": 1"), "{json}");
        assert!(json.contains("\"completion_ms\": 1500"), "{json}");
        assert!(json.contains("\"peak_unresolved\": 2"), "{json}");
        // Oracle run: no platforms, waste guarded to 0, not NaN.
        assert!(json.contains("\"partial_hit_waste\": 0.0000"), "{json}");
    }
}
