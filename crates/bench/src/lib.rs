//! Experiment harness shared code: standard dataset builds and table
//! rendering used by every figure/table binary.
//!
//! Run `cargo run -p crowdjoin-bench --release --bin <experiment>`; each
//! binary prints the paper-style rows and the corresponding paper values for
//! side-by-side comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use crowdjoin_core::{CandidateSet, GroundTruth, LabelingTask};
use crowdjoin_matcher::{generate_candidates, MatcherConfig};
use crowdjoin_records::{
    generate_paper, generate_product, Dataset, PaperGenConfig, ProductGenConfig,
};

/// Master seed for all experiments (override with `CROWDJOIN_SEED`).
#[must_use]
pub fn experiment_seed() -> u64 {
    std::env::var("CROWDJOIN_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(20130622)
}

/// A fully prepared workload: dataset, scored candidates, ground truth.
pub struct Workload {
    /// Human-readable name ("Paper" / "Product").
    pub name: &'static str,
    /// The generated dataset.
    pub dataset: Dataset,
    /// All machine candidates (unthresholded, floor 0.05).
    pub candidates: CandidateSet,
    /// Ground truth for oracles and quality scoring.
    pub truth: GroundTruth,
}

impl Workload {
    /// Candidates at a likelihood threshold, as a labeling task.
    #[must_use]
    pub fn task_at(&self, threshold: f64) -> LabelingTask {
        LabelingTask::new(self.candidates.above_threshold(threshold))
    }
}

/// Builds the Paper workload (Cora stand-in: 997 records, heavy-tail
/// clusters, self join).
#[must_use]
pub fn paper_workload() -> Workload {
    let cfg = PaperGenConfig { seed: experiment_seed(), ..PaperGenConfig::default() };
    let dataset = generate_paper(&cfg);
    build_workload("Paper", dataset, MatcherConfig::for_arity(5))
}

/// Builds the Product workload (Abt-Buy stand-in: 1081 × 1092 records,
/// mostly 1:1 matches, cross join).
#[must_use]
pub fn product_workload() -> Workload {
    let cfg =
        ProductGenConfig { seed: experiment_seed().wrapping_add(1), ..ProductGenConfig::default() };
    let dataset = generate_product(&cfg);
    // Names dominate product matching; prices are noisy secondary evidence.
    let matcher = MatcherConfig { field_weights: vec![1.0, 0.25], ..MatcherConfig::for_arity(2) };
    build_workload("Product", dataset, matcher)
}

/// The 5k-record product dataset (2×2500 records, the Figure 10(b) cluster
/// mix scaled ×2.6) that **both** perf snapshots measure —
/// `BENCH_engine.json` and `BENCH_matcher.json` stay comparable because
/// they share this one definition.
#[must_use]
pub fn product_5k_dataset() -> Dataset {
    generate_product(&ProductGenConfig {
        table_a: 2500,
        table_b: 2500,
        clusters: crowdjoin_records::ClusterSpec::Explicit(vec![
            (2, 1664),
            (3, 338),
            (4, 104),
            (5, 31),
            (6, 10),
        ]),
        ..ProductGenConfig::default()
    })
}

/// Median-of-N wall clock (milliseconds) of `f`, plus its last result. Use
/// an odd `samples` for a true median — even counts return the upper
/// middle, which for N = 2 is just the slower run.
pub fn measure<T>(samples: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(samples >= 1, "measure needs at least one sample");
    let mut times = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let t = std::time::Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], last.expect("samples >= 1"))
}

fn build_workload(name: &'static str, dataset: Dataset, matcher: MatcherConfig) -> Workload {
    let raw = generate_candidates(&dataset, &matcher);
    let candidates = crowdjoin::to_candidate_set(&dataset, &raw);
    let truth = crowdjoin::ground_truth_of(&dataset);
    Workload { name, dataset, candidates, truth }
}

/// Prints a Markdown-ish experiment table: header row + aligned rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(c.len())))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!("|{}|", widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|"));
    for row in rows {
        fmt_row(row);
    }
}

/// The likelihood thresholds swept by Figures 11/12.
pub const THRESHOLDS: [f64; 5] = [0.5, 0.4, 0.3, 0.2, 0.1];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build_and_have_signal() {
        let paper = paper_workload();
        assert_eq!(paper.dataset.len(), 997);
        assert!(paper.candidates.len() > 1000, "Paper candidates: {}", paper.candidates.len());
        let product = product_workload();
        assert_eq!(product.dataset.len(), 2173);
        assert!(product.candidates.len() > 500, "Product candidates: {}", product.candidates.len());
    }
}
