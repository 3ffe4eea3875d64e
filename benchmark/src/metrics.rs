//! The metric vocabulary: every name the benchmark prints, its unit and
//! direction, the bound an end-to-end metric may worsen by, and how the
//! numbers of one job become the numbers of one run.
//!
//! `BENCHMARK.json` repeats this table for the driver; a test holds the two
//! together.

use crate::job::JobOutput;
use crate::trace::Tracer;
use crate::workload::{self, InputSet, Workload, NUM_SHARDS};
use crowdjoin::core::QualityMetrics;
use crowdjoin::util::Summary;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric of the vocabulary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Stable name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median the metric may
    /// worsen by before a change counts as a regression. Per-layer metrics
    /// explain; they are not gated (0).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("job_wall_s", "s", Lower, 0.25),
    e2e("match_us_per_record", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("questions_crowdsourced", "count", Lower, 0.05),
    e2e("crowd_cost_cents", "cents", Lower, 0.10),
    e2e("crowd_completion_vh", "h", Lower, 0.25),
    e2e("label_f1", "ratio", Higher, 0.06),
];

/// What single layers did, from the traced repetitions. Layer = crate or
/// module name; `bench.*` describes the measurement itself.
pub const PER_LAYER: [MetricDef; 52] = [
    layer("records.parse_s", "s", Lower),
    layer("records.write_s", "s", Lower),
    layer("records.out_bytes", "B", Lower),
    layer("matcher.tokenize_s", "s", Lower),
    layer("matcher.index_s", "s", Lower),
    layer("matcher.probe_s", "s", Lower),
    layer("matcher.candidates", "count", Lower),
    layer("matcher.candidates_per_record", "ratio", Lower),
    layer("matcher.candidates_per_s", "1/s", Higher),
    layer("matcher.vocab", "count", Lower),
    layer("matcher.stream.ingest_s", "s", Lower),
    layer("matcher.stream.close_s", "s", Lower),
    layer("matcher.stream.delta_pairs", "count", Lower),
    layer("matcher.stream.ingest_us_per_record", "us", Lower),
    layer("matcher.stream.chunk_p95_ms", "ms", Lower),
    layer("matcher.stream.chunk_first_decile_ms", "ms", Lower),
    layer("matcher.stream.chunk_last_decile_ms", "ms", Lower),
    layer("core.order_s", "s", Lower),
    layer("engine.run_s", "s", Lower),
    layer("engine.self_s", "s", Lower),
    layer("engine.partition_s", "s", Lower),
    layer("engine.oracle_run_s", "s", Lower),
    layer("engine.components", "count", Lower),
    layer("engine.shards", "count", Higher),
    layer("engine.rounds", "count", Lower),
    layer("engine.deduced", "count", Higher),
    layer("engine.deduced_per_answer", "ratio", Higher),
    layer("engine.conflicts", "count", Lower),
    layer("sim.backend_busy_s", "s", Lower),
    layer("sim.backend_calls", "count", Lower),
    layer("sim.hits_published", "count", Lower),
    layer("sim.partial_hit_waste", "ratio", Lower),
    layer("sim.assignments_completed", "count", Lower),
    layer("sim.assignments_abandoned", "count", Lower),
    layer("wal.journal_bytes", "B", Lower),
    layer("wal.records", "count", Lower),
    layer("wal.overhead_s", "s", Lower),
    layer("wal.read_s", "s", Lower),
    layer("wal.append_s", "s", Lower),
    layer("wal.resume_s", "s", Lower),
    layer("wal.replayed_answers", "count", Higher),
    layer("wal.new_answers", "count", Lower),
    layer("bench.unattributed_s", "s", Lower),
    layer("bench.unattributed_frac", "ratio", Lower),
    layer("bench.trace_overhead_frac", "ratio", Lower),
    layer("bench.traced_job_wall_s", "s", Lower),
    layer("bench.jobs", "count", Higher),
    layer("bench.input_sets", "count", Higher),
    layer("bench.records", "count", Higher),
    layer("bench.threads", "count", Higher),
    layer("bench.shards", "count", Higher),
    layer("bench.nproc", "count", Higher),
];

/// Median of `values` (mean of the middle two for an even count); 0 for none.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method); both equal the value for fewer than
/// two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The samples of one run: per metric, per input set, one value per job.
#[derive(Debug, Default)]
pub struct Samples {
    by_metric: Vec<(&'static str, Vec<Vec<f64>>)>,
}

impl Samples {
    /// Adds one job's value of `metric` on input set `set`.
    pub fn push(&mut self, metric: &'static str, set: usize, value: f64) {
        let slot = match self.by_metric.iter().position(|(name, _)| *name == metric) {
            Some(i) => i,
            None => {
                self.by_metric.push((metric, Vec::new()));
                self.by_metric.len() - 1
            }
        };
        let sets = &mut self.by_metric[slot].1;
        if sets.len() <= set {
            sets.resize(set + 1, Vec::new());
        }
        sets[set].push(value);
    }

    /// Per-set low medians of `metric` (`Summary::median` is nearest-rank: the
    /// middle value, or the smaller of the middle two), for the sets that have
    /// samples. A set is measured two or three times in a run and interference
    /// only ever slows a job down, so of two samples the smaller is the one to
    /// keep; counts repeat exactly per set and are not affected.
    #[must_use]
    pub fn set_medians(&self, metric: &str) -> Vec<f64> {
        self.by_metric
            .iter()
            .find(|(name, _)| *name == metric)
            .map(|(_, sets)| sets.iter().filter_map(|s| Summary::from_slice(s).median()).collect())
            .unwrap_or_default()
    }

    /// The run's value of `metric`: the mean over input sets of each set's
    /// low median. Jobs take the sets in turn, so the mean weighs every
    /// dataset equally however many jobs the run fitted in; 0 with no samples.
    #[must_use]
    pub fn value(&self, metric: &str) -> f64 {
        Summary::from_slice(&self.set_medians(metric)).mean().unwrap_or(0.0)
    }
}

/// The end-to-end numbers of one job (all but `setup_s`, which belongs to
/// the run, and `peak_rss_mb`, which the caller reads from the kernel).
#[must_use]
pub fn end_to_end_of(set: &InputSet, out: &JobOutput) -> Vec<(&'static str, f64)> {
    let quality = QualityMetrics::of_result(&out.report.result, &set.truth);
    vec![
        ("job_wall_s", out.wall_s),
        ("match_us_per_record", out.match_s * 1e6 / set.records as f64),
        ("questions_crowdsourced", out.report.num_crowdsourced() as f64),
        ("crowd_cost_cents", out.report.total_cost_cents as f64),
        ("crowd_completion_vh", out.report.completion.as_hours()),
        ("label_f1", quality.f_measure()),
    ]
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The per-layer numbers of traced job number `job`: span times from the
/// tracer, counts from what the calls returned. Metrics of a path the
/// workload does not take are 0.
#[must_use]
pub fn per_layer_of(
    set: &InputSet,
    out: &JobOutput,
    tr: &Tracer,
    job: usize,
) -> Vec<(&'static str, f64)> {
    let sec = |name: &str| tr.seconds(job, name);
    let report = &out.report;
    let stats: Vec<_> = report.shards.iter().filter_map(|s| s.stats).collect();
    let sum = |f: fn(&crowdjoin::sim::PlatformStats) -> usize| -> f64 {
        stats.iter().map(|s| f(s) as f64).sum()
    };
    let backend_calls: u64 = tr
        .spans()
        .iter()
        .filter(|s| s.job == job && s.name == "sim.backend")
        .map(|s| s.calls)
        .sum();
    let job_s = sec("job");
    let unattributed = tr.self_seconds(job, "job");
    let candidates = out.order.len() as f64;
    let match_s = sec("matcher.tokenize")
        + sec("matcher.index")
        + sec("matcher.probe")
        + sec("matcher.stream.ingest")
        + sec("matcher.stream.close");

    let mut m = vec![
        ("records.parse_s", sec("records.parse")),
        ("records.write_s", sec("records.write")),
        ("records.out_bytes", out.out_bytes as f64),
        ("matcher.tokenize_s", sec("matcher.tokenize")),
        ("matcher.index_s", sec("matcher.index")),
        ("matcher.probe_s", sec("matcher.probe")),
        ("matcher.candidates", candidates),
        ("matcher.candidates_per_record", ratio(candidates, set.records as f64)),
        ("matcher.candidates_per_s", ratio(candidates, match_s)),
        ("matcher.vocab", out.vocab as f64),
        ("core.order_s", sec("core.order")),
        ("engine.run_s", sec("engine.run")),
        ("engine.self_s", tr.self_seconds(job, "engine.run")),
        ("engine.partition_s", sec("engine.partition")),
        ("engine.oracle_run_s", sec("engine.oracle_run")),
        ("engine.components", report.num_components as f64),
        ("engine.shards", report.num_shards() as f64),
        ("engine.rounds", report.critical_path_rounds() as f64),
        ("engine.deduced", report.num_deduced() as f64),
        (
            "engine.deduced_per_answer",
            ratio(report.num_deduced() as f64, report.num_crowdsourced() as f64),
        ),
        ("engine.conflicts", report.result.num_conflicts() as f64),
        ("sim.backend_busy_s", sec("sim.backend")),
        ("sim.backend_calls", backend_calls as f64),
        ("sim.hits_published", sum(|s| s.hits_published)),
        ("sim.partial_hit_waste", report.partial_hit_waste()),
        ("sim.assignments_completed", sum(|s| s.assignments_completed)),
        ("sim.assignments_abandoned", sum(|s| s.assignments_abandoned)),
        ("bench.unattributed_s", unattributed),
        ("bench.unattributed_frac", ratio(unattributed, job_s)),
        ("bench.traced_job_wall_s", job_s + sec("job.resume")),
    ];

    if let Some(stream) = &out.stream {
        let ms: Vec<f64> = stream.chunk_s.iter().map(|s| s * 1e3).collect();
        let decile = (ms.len() / 10).max(1);
        let mean = |xs: &[f64]| Summary::from_slice(xs).mean().unwrap_or(0.0);
        m.extend([
            ("matcher.stream.ingest_s", sec("matcher.stream.ingest")),
            ("matcher.stream.close_s", sec("matcher.stream.close")),
            ("matcher.stream.delta_pairs", stream.delta_pairs as f64),
            (
                "matcher.stream.ingest_us_per_record",
                ratio(sec("matcher.stream.ingest") * 1e6, set.records as f64),
            ),
            (
                "matcher.stream.chunk_p95_ms",
                Summary::from_slice(&ms).percentile(95.0).unwrap_or(0.0),
            ),
            ("matcher.stream.chunk_first_decile_ms", mean(&ms[..decile.min(ms.len())])),
            ("matcher.stream.chunk_last_decile_ms", mean(&ms[ms.len().saturating_sub(decile)..])),
        ]);
    }
    if let Some(journal) = &out.journal {
        m.extend([
            ("wal.journal_bytes", journal.contents.valid_len as f64),
            ("wal.records", journal.contents.records.len() as f64),
            ("wal.overhead_s", sec("engine.run") - sec("engine.run.unjournaled")),
            ("wal.read_s", sec("wal.read")),
            ("wal.append_s", sec("wal.append")),
            ("wal.resume_s", journal.resume_s),
            ("wal.replayed_answers", journal.resumed.num_replayed_answers() as f64),
            ("wal.new_answers", journal.resumed.num_new_answers() as f64),
        ]);
    }
    m
}

/// The numbers that describe the run rather than any job.
#[must_use]
pub fn run_facts(workload: &Workload, jobs: usize) -> Vec<(&'static str, f64)> {
    vec![
        ("bench.jobs", jobs as f64),
        ("bench.input_sets", workload.sets as f64),
        ("bench.records", workload.num_records() as f64),
        ("bench.threads", workload::threads() as f64),
        ("bench.shards", NUM_SHARDS as f64),
        ("bench.nproc", workload::nproc() as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdjoin::backend_spool::json::{parse, Value};

    #[test]
    fn medians_and_quartiles_match_python() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), (1.0, 3.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn a_run_value_is_the_mean_of_per_set_low_medians() {
        let mut s = Samples::default();
        for v in [1.0, 9.0, 2.0] {
            s.push("job_wall_s", 0, v);
        }
        for v in [6.0, 4.0] {
            s.push("job_wall_s", 1, v);
        }
        assert_eq!(s.set_medians("job_wall_s"), vec![2.0, 4.0]);
        assert_eq!(s.value("job_wall_s"), 3.0);
        assert_eq!(s.value("never_pushed"), 0.0);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name).collect();
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    fn defs_of(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (text("name"), text("unit"), text("better"), m.get("bound").and_then(Value::as_f64))
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must say the same thing.
    #[test]
    fn benchmark_json_repeats_this_vocabulary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
        let ours = |defs: &[MetricDef], bounded: bool| -> Vec<_> {
            defs.iter()
                .map(|m| {
                    let bound = bounded.then_some(m.bound);
                    let better = match m.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    };
                    (m.name.to_string(), m.unit.to_string(), better.to_string(), bound)
                })
                .collect()
        };
        assert_eq!(defs_of(&doc, "end_to_end"), ours(&END_TO_END, true));
        assert_eq!(defs_of(&doc, "per_layer"), ours(&PER_LAYER, false));
        let listed: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads list")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap_or("").to_string())
            .collect();
        let ours: Vec<String> = workload::WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(listed, ours);
    }
}
