//! `compare A.json B.json`: the regression rule, applied to two result files
//! of `run` (A the parent, B the change).
//!
//! One row per (workload, end-to-end metric). With `a` and `b` the medians of
//! the two sides' untraced runs and the metric's bound from the vocabulary:
//!
//! * **worse** — `b` is worse than `a` by more than the bound;
//! * **unresolved** — otherwise, when either side's own runs spread (first to
//!   third quartile, as a share of the median) wider than the bound, unless
//!   every run of B reads better than every run of A; also when a side has
//!   no run of the workload;
//! * **better** — `b` is better than `a` by more than the bound (or every run
//!   of B beats every run of A under a wide spread);
//! * **within** — anything else.

use crate::metrics::{median, quartiles, Better, MetricDef, END_TO_END};
use crate::workload::WORKLOADS;
use crowdjoin::backend_spool::json::{parse, Value};
use std::process::ExitCode;

/// What `compare` says about one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Improved by more than the bound.
    Better,
    /// Moved by no more than the bound, either way.
    Within,
    /// Worsened by more than the bound.
    Worse,
    /// The runs spread wider than the bound, or a side has none.
    Unresolved,
}

impl Outcome {
    fn as_str(self) -> &'static str {
        match self {
            Outcome::Better => "better",
            Outcome::Within => "within",
            Outcome::Worse => "worse",
            Outcome::Unresolved => "unresolved",
        }
    }
}

/// First-to-third-quartile distance of `values` as a share of their median;
/// 0 for fewer than two values, which cannot show a spread.
fn spread(values: &[f64]) -> f64 {
    let mid = median(values).abs();
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / mid
}

/// The share of the parent's median by which the change's median is worse
/// (negative when it is better).
fn worsening(def: &MetricDef, parent: f64, change: f64) -> f64 {
    let delta = match def.better {
        Better::Lower => change - parent,
        Better::Higher => parent - change,
    };
    if delta == 0.0 {
        0.0
    } else {
        delta / parent.abs()
    }
}

/// Applies `def`'s bound and direction to the runs of the two sides.
#[must_use]
pub fn outcome(def: &MetricDef, parent: &[f64], change: &[f64]) -> Outcome {
    if parent.is_empty() || change.is_empty() {
        return Outcome::Unresolved;
    }
    let worse_by = worsening(def, median(parent), median(change));
    if worse_by > def.bound {
        return Outcome::Worse;
    }
    if spread(parent).max(spread(change)) > def.bound {
        let beats = |c: f64, p: f64| match def.better {
            Better::Lower => c < p,
            Better::Higher => c > p,
        };
        let all_better = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
        return if all_better { Outcome::Better } else { Outcome::Unresolved };
    }
    if worse_by < -def.bound {
        Outcome::Better
    } else {
        Outcome::Within
    }
}

/// The values of `metric` over the untraced runs of `workload` in a result
/// document.
fn values_of(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Value::as_str) == Some(workload)
                && r.get("trace").and_then(Value::as_u64) == Some(0)
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("runs").and_then(Value::as_arr).is_none() {
        return Err(format!("{path}: no \"runs\" list; is it a result file of `run`?"));
    }
    Ok(doc)
}

/// Prints one row per (workload, end-to-end metric); fails if any is worse.
///
/// # Errors
///
/// A message naming the file that cannot be read or is not a result file.
pub fn run(parent_path: &str, change_path: &str) -> Result<ExitCode, String> {
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    println!(
        "{:<12} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    let mut any_worse = false;
    for w in &WORKLOADS {
        for def in &END_TO_END {
            let a = values_of(&parent, w.name, def.name);
            let b = values_of(&change, w.name, def.name);
            let verdict = outcome(def, &a, &b);
            any_worse |= verdict == Outcome::Worse;
            let (ma, mb) = (median(&a), median(&b));
            println!(
                "{:<12} {:<24} {ma:>14.6} {mb:>14.6} {:>8.2}% {:>6.1}%  {}",
                w.name,
                def.name,
                worsening(def, ma, mb) * 100.0,
                def.bound * 100.0,
                verdict.as_str()
            );
        }
    }
    Ok(if any_worse { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: MetricDef =
        MetricDef { name: "job_wall_s", unit: "s", better: Better::Lower, bound: 0.10 };
    const F1: MetricDef =
        MetricDef { name: "label_f1", unit: "ratio", better: Better::Higher, bound: 0.02 };

    #[test]
    fn the_bound_separates_within_from_better_and_worse() {
        assert_eq!(outcome(&WALL, &[1.0], &[1.0]), Outcome::Within);
        assert_eq!(outcome(&WALL, &[1.0], &[1.09]), Outcome::Within);
        assert_eq!(outcome(&WALL, &[1.0], &[0.91]), Outcome::Within);
        assert_eq!(outcome(&WALL, &[1.0], &[1.11]), Outcome::Worse);
        assert_eq!(outcome(&WALL, &[1.0], &[0.89]), Outcome::Better);
    }

    #[test]
    fn direction_follows_the_metric() {
        assert_eq!(outcome(&F1, &[0.90], &[0.95]), Outcome::Better);
        assert_eq!(outcome(&F1, &[0.90], &[0.85]), Outcome::Worse);
        assert_eq!(outcome(&F1, &[0.90], &[0.89]), Outcome::Within);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_wins() {
        // Quartiles 0.75 and 1.25 around a median of 1: spread 0.5 > 0.1.
        let noisy = [0.7, 1.0, 1.3];
        assert_eq!(outcome(&WALL, &noisy, &[0.95, 1.0, 1.05]), Outcome::Unresolved);
        assert_eq!(outcome(&WALL, &[0.95, 1.0, 1.05], &noisy), Outcome::Unresolved);
        assert_eq!(outcome(&WALL, &noisy, &[0.5, 0.6, 0.65]), Outcome::Better);
        // Worse by more than the bound stays worse, however noisy.
        assert_eq!(outcome(&WALL, &noisy, &[1.0, 1.5, 2.0]), Outcome::Worse);
    }

    #[test]
    fn a_side_without_runs_is_unresolved() {
        assert_eq!(outcome(&WALL, &[], &[1.0]), Outcome::Unresolved);
        assert_eq!(outcome(&WALL, &[1.0], &[]), Outcome::Unresolved);
    }

    #[test]
    fn reads_the_untraced_runs_of_a_result_document() {
        let doc = parse(
            r#"{"runs": [
                {"workload": "w", "trace": 0, "metrics": {"job_wall_s": 1.5}},
                {"workload": "w", "trace": 1, "metrics": {"job_wall_s": 9.0}},
                {"workload": "v", "trace": 0, "metrics": {"job_wall_s": 7.0}},
                {"workload": "w", "trace": 0, "metrics": {"job_wall_s": 2.5}}
            ]}"#,
        )
        .expect("valid JSON");
        assert_eq!(values_of(&doc, "w", "job_wall_s"), vec![1.5, 2.5]);
        assert!(values_of(&doc, "w", "absent").is_empty());
    }
}
