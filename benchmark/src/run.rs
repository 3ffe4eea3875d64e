//! One run: set up, measure jobs for the given number of seconds, check every
//! job's output, reduce the samples, print the result.
//!
//! Closed loop, one job at a time. The jobs take the run's input sets in
//! turn; a traced run traces every other job, shifting by one each turn, so
//! every input set is measured both ways and the tracing overhead is measured
//! within the one process.

use crate::check::{check_labels, check_resume, check_stream, Labeled, RunOutcome, Verdict};
use crate::job::{isolation_arms, run_job, JobOutput};
use crate::metrics::{
    end_to_end_of, median, per_layer_of, run_facts, MetricDef, Samples, END_TO_END, PER_LAYER,
};
use crate::trace::Tracer;
use crate::workload::{InputSet, Workload};
use crowdjoin::matcher::generate_candidates;
use crowdjoin::obs::json::{js_str, JsonObject};
use crowdjoin::{EngineReport, Label, Provenance};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Where generated inputs, job outputs, traces and suite results go. The
/// benchmark runs from the root of a checkout and writes nowhere else.
pub const OUT_DIR: &str = "benchmark/out";

/// The result of one run, as the driver reads it.
#[derive(Debug)]
pub struct RunResult {
    /// Operations checked: candidate pairs, records streamed, resumes.
    pub attempted: u64,
    /// Operations that broke the contract.
    pub failed: u64,
    /// The end-to-end metrics of an untraced run, or the per-layer metrics
    /// of a traced one, in vocabulary order.
    pub metrics: Vec<(MetricDef, f64)>,
}

impl RunResult {
    /// The one-line JSON object a run ends its standard output with.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut metrics = JsonObject::new();
        for (def, value) in &self.metrics {
            let mut m = JsonObject::new();
            m.field("value", format!("{value}"));
            m.field("unit", js_str(def.unit));
            metrics.field(def.name, m.render());
        }
        let mut o = JsonObject::new();
        o.field("correct", (self.failed == 0).to_string());
        o.field("attempted", self.attempted.to_string());
        o.field("failed", self.failed.to_string());
        o.field("metrics", metrics.render());
        o.render()
    }
}

/// Resets the kernel's record of this process's peak resident set, so the
/// next reading is the peak since now. Where the kernel does not oblige,
/// readings are the peak since the process started.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MB; 0 where `/proc` does not say.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn labeled_of(report: &EngineReport) -> Vec<Labeled> {
    report
        .result
        .labeled_pairs()
        .iter()
        .map(|lp| Labeled {
            a: lp.pair.a(),
            b: lp.pair.b(),
            matching: lp.label == Label::Matching,
            crowdsourced: lp.provenance == Provenance::Crowdsourced,
        })
        .collect()
}

/// Checks everything one job produced. Operations are candidate pairs, plus
/// records streamed, plus resume attempts.
fn check_job(workload: &Workload, set: &InputSet, out: &JobOutput) -> Verdict {
    let candidates: Vec<(u32, u32)> =
        out.order.iter().map(|sp| (sp.pair.a(), sp.pair.b())).collect();
    let labeled = labeled_of(&out.report);
    let mut verdict = check_labels(out.num_objects, &candidates, &labeled);

    // The platforms' own ledgers: a pair published twice was paid twice.
    let published: usize =
        out.report.shards.iter().filter_map(|s| s.stats).map(|s| s.pairs_published).sum();
    verdict.fail(
        published.abs_diff(out.report.num_crowdsourced()) as u64,
        "pair published to the crowd but not among the crowdsourced labels, or the reverse",
    );

    // The artefact the user gets: one row per candidate under the header.
    match std::fs::read_to_string(&set.output) {
        Ok(csv) => verdict.fail(
            csv.lines().count().saturating_sub(1).abs_diff(candidates.len()) as u64,
            "output CSV row missing or surplus",
        ),
        Err(e) => verdict.fail(1, &format!("output CSV unreadable: {e}")),
    }

    if let Some(journal) = &out.journal {
        let resumed = labeled_of(&journal.resumed);
        let outcome = |labeled, report: &EngineReport| RunOutcome {
            labeled,
            cost_cents: report.total_cost_cents,
            completion: report.completion.0,
        };
        verdict.absorb(check_resume(
            &outcome(&labeled, &out.report),
            &outcome(&resumed, &journal.resumed),
            journal.resumed.num_replayed_answers(),
            journal.resumed.num_new_answers(),
        ));
    }
    if let Some(stream) = &out.stream {
        let arity = stream.dataset.table.schema().arity();
        let batch = generate_candidates(&stream.dataset, &workload.matcher(arity));
        let bits = |cs: &[crowdjoin::matcher::ScoredCandidate]| -> Vec<(u32, u32, u64)> {
            cs.iter().map(|c| (c.a, c.b, c.likelihood.to_bits())).collect()
        };
        verdict.absorb(check_stream(set.records, &bits(&stream.candidates), &bits(&batch)));
    }
    verdict
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `workload` for `seconds` seconds on inputs made from `seed`.
///
/// # Errors
///
/// A message when set-up itself fails (the scratch directory or an input
/// file cannot be written). A job that fails is counted, not returned.
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<RunResult, String> {
    let dir = Path::new(OUT_DIR).join(format!("tmp-{}-{}", workload.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    let _scratch = Scratch(dir.clone());

    let mut setup_s = Vec::with_capacity(workload.sets);
    let mut sets = Vec::with_capacity(workload.sets);
    for index in 0..workload.sets {
        let t = Instant::now();
        sets.push(workload.set_up(seed, index, &dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut tr = Tracer::new();
    let mut samples = Samples::default();
    let mut verdict = Verdict::default();
    let absorb = |verdict: &mut Verdict, set: &InputSet, out: &Result<JobOutput, String>| match out
    {
        Ok(out) => verdict.absorb(check_job(workload, set, out)),
        Err(e) => {
            verdict.attempted += 1;
            verdict.fail(1, &format!("job failed: {e}"));
        }
    };

    // One unmeasured job first: page cache, allocator arenas and thread
    // stacks are warm for every measured job alike. It is checked like any
    // other.
    tr.start_job(0, false);
    let warm_up = run_job(workload, &sets[0], &mut tr);
    absorb(&mut verdict, &sets[0], &warm_up);
    drop(warm_up);

    let window = Instant::now();
    let mut job = 0;
    while job < sets.len() || window.elapsed() < Duration::from_secs(seconds) {
        let set = &sets[job % sets.len()];
        let job_traced = traced && (job + job / sets.len()) % 2 == 0;
        tr.start_job(job, job_traced);
        reset_peak_rss();
        let out = run_job(workload, set, &mut tr);
        let rss = peak_rss_mb();
        if let Ok(out) = &out {
            if job_traced {
                if let Err(e) = isolation_arms(workload, set, out, &mut tr) {
                    verdict.fail(1, &format!("isolation arm failed: {e}"));
                }
                for (name, value) in per_layer_of(set, out, &tr, job) {
                    samples.push(name, set.index, value);
                }
            } else {
                samples.push("peak_rss_mb", set.index, rss);
                for (name, value) in end_to_end_of(set, out) {
                    samples.push(name, set.index, value);
                }
            }
        }
        absorb(&mut verdict, set, &out);
        job += 1;
    }

    for note in &verdict.notes {
        eprintln!("FAILED {}: {note}", workload.name);
    }
    // What describes the run rather than any one job; the rest are samples.
    let (defs, facts) = if traced {
        let path = Path::new(OUT_DIR).join(format!("trace-{}.json", workload.name));
        std::fs::write(&path, tr.to_json(workload.name, seed))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        let overhead = match samples.value("job_wall_s") {
            untraced if untraced > 0.0 => samples.value("bench.traced_job_wall_s") / untraced - 1.0,
            _ => 0.0,
        };
        let mut facts = run_facts(workload, job);
        facts.push(("bench.trace_overhead_frac", overhead));
        (&PER_LAYER[..], facts)
    } else {
        (&END_TO_END[..], vec![("setup_s", median(&setup_s))])
    };
    let metrics = defs
        .iter()
        .map(|def| {
            let fact = facts.iter().find(|(name, _)| *name == def.name);
            (*def, fact.map_or_else(|| samples.value(def.name), |&(_, v)| v))
        })
        .collect();
    Ok(RunResult { attempted: verdict.attempted.max(1), failed: verdict.failed, metrics })
}
