//! **Ablation (ours)** — HIT batch-size sweep on the simulated platform:
//! money vs latency.
//!
//! The paper adopts 20 pairs/HIT from prior work [14, 25] without sweeping
//! it. Batching divides the per-assignment overhead across pairs (fewer
//! HITs → less money) but enlarges the unit of work (longer per-HIT
//! latency, coarser instant decisions). This sweep shows the trade-off on
//! the Paper workload.

use crowdjoin::runner::run_parallel_on_platform;
use crowdjoin_bench::{paper_workload, print_table};
use crowdjoin_core::{sort_pairs, SortStrategy};
use crowdjoin_sim::{Platform, PlatformConfig};

fn main() {
    let wl = paper_workload();
    let task = wl.task_at(0.3);
    let order = sort_pairs(task.candidates(), SortStrategy::ExpectedLikelihood);
    let n = task.candidates().num_objects();
    let seed = crowdjoin_bench::experiment_seed();

    let mut rows = Vec::new();
    for &batch in &[1usize, 5, 10, 20, 50, 100] {
        let cfg = PlatformConfig { batch_size: batch, ..PlatformConfig::perfect_workers(seed) };
        let report =
            run_parallel_on_platform(n, order.clone(), &wl.truth, Platform::new(cfg), true);
        rows.push(vec![
            batch.to_string(),
            report.stats.hits_published.to_string(),
            report.stats.total_cost_cents.to_string(),
            format!("{:.1} h", report.completion.as_hours()),
            report.result.num_crowdsourced().to_string(),
        ]);
    }
    print_table(
        "Ablation — batch size sweep (Paper @0.3, Parallel(ID), perfect workers)",
        &["pairs/HIT", "HITs", "cost (¢)", "completion", "crowdsourced"],
        &rows,
    );
    println!("\nexpected shape: cost falls roughly linearly with batch size (fixed price");
    println!("per assignment) while the crowdsourced pair count stays constant; very large");
    println!("batches stop helping once HITs outnumber available workers.");
}
