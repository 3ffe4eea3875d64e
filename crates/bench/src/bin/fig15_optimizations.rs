//! **Figure 15** — optimization techniques for the parallel labeling
//! algorithm: number of pairs available on the crowdsourcing platform as
//! labeling progresses, for plain `Parallel`, `Parallel(ID)` (instant
//! decision), and `Parallel(ID+NF)` (instant decision + non-matching first).
//!
//! Paper reference (Product dataset): after 1,420 pairs were crowdsourced,
//! plain Parallel had 1 available pair on the platform while Parallel(ID)
//! had 219 and Parallel(ID+NF) 281 — the optimizations keep workers fed.

use crowdjoin::runner::{run_parallel_on_platform, AvailabilitySample};
use crowdjoin_bench::{paper_workload, print_table, product_workload, Workload};
use crowdjoin_core::{sort_pairs, SortStrategy};
use crowdjoin_sim::{AssignmentPolicy, Platform, PlatformConfig};

struct Arm {
    label: &'static str,
    instant_decision: bool,
    policy: AssignmentPolicy,
}

const ARMS: [Arm; 3] = [
    Arm { label: "Parallel", instant_decision: false, policy: AssignmentPolicy::Random },
    Arm { label: "Parallel(ID)", instant_decision: true, policy: AssignmentPolicy::Random },
    Arm {
        label: "Parallel(ID+NF)",
        instant_decision: true,
        policy: AssignmentPolicy::NonMatchingFirst,
    },
];

fn run_arm(wl: &Workload, arm: &Arm, threshold: f64, seed: u64) -> Vec<AvailabilitySample> {
    let task = wl.task_at(threshold);
    let order = sort_pairs(task.candidates(), SortStrategy::ExpectedLikelihood);
    let cfg =
        PlatformConfig { assignment_policy: arm.policy, ..PlatformConfig::perfect_workers(seed) };
    let report = run_parallel_on_platform(
        task.candidates().num_objects(),
        order,
        &wl.truth,
        Platform::new(cfg),
        arm.instant_decision,
    );
    report.series
}

/// Open-pair level at selected progress points (fractions of total
/// crowdsourced pairs), interpolated from the series.
fn level_at(series: &[AvailabilitySample], crowdsourced: usize) -> usize {
    series.iter().rfind(|s| s.crowdsourced <= crowdsourced).map_or(0, |s| s.open_pairs)
}

fn main() {
    let threshold = 0.3;
    let seed = crowdjoin_bench::experiment_seed();
    for wl in [paper_workload(), product_workload()] {
        let series: Vec<(&str, Vec<AvailabilitySample>)> =
            ARMS.iter().map(|arm| (arm.label, run_arm(&wl, arm, threshold, seed))).collect();
        let total =
            series.iter().map(|(_, s)| s.last().map_or(0, |x| x.crowdsourced)).max().unwrap_or(0);

        let mut rows = Vec::new();
        for pct in [10, 25, 50, 75, 90] {
            let point = total * pct / 100;
            let mut row = vec![format!("{point} ({pct}%)")];
            for (_, s) in &series {
                row.push(level_at(s, point).to_string());
            }
            rows.push(row);
        }
        // Mean availability over the whole run (the "keep workers fed"
        // summary statistic).
        let mut mean_row = vec!["mean".to_string()];
        for (_, s) in &series {
            let mean = if s.is_empty() {
                0.0
            } else {
                s.iter().map(|x| x.open_pairs as f64).sum::<f64>() / s.len() as f64
            };
            mean_row.push(format!("{mean:.0}"));
        }
        rows.push(mean_row);

        print_table(
            &format!(
                "Figure 15 — {} @ threshold {threshold}: available pairs on the platform",
                wl.name
            ),
            &["crowdsourced so far", "Parallel", "Parallel(ID)", "Parallel(ID+NF)"],
            &rows,
        );
    }
    println!("\npaper reference (Product @1420 crowdsourced): Parallel 1, ID 219, ID+NF 281");
}
