//! **Table 1** — Parallel(ID) vs Non-Parallel completion time on the (simulated)
//! crowd platform, threshold 0.3, perfect workers (the paper simulated
//! always-correct answers for this experiment so both arms cost the same
//! money and differ only in time).
//!
//! Paper reference: Paper dataset, 68 HITs — 78 hours sequential vs 8 hours
//! parallel; Product, 144 HITs — 97 hours vs 14 hours.

use crowdjoin::runner::{publish_in_waves, run_parallel_on_platform};
use crowdjoin_bench::{paper_workload, print_table, product_workload};
use crowdjoin_core::{sort_pairs, Provenance, ScoredPair, SortStrategy};
use crowdjoin_sim::{Platform, PlatformConfig};

fn main() {
    let threshold = 0.3;
    let seed = crowdjoin_bench::experiment_seed();
    let mut rows = Vec::new();
    for wl in [paper_workload(), product_workload()] {
        let task = wl.task_at(threshold);
        let order = sort_pairs(task.candidates(), SortStrategy::ExpectedLikelihood);

        // Parallel(ID).
        let par = run_parallel_on_platform(
            task.candidates().num_objects(),
            order.clone(),
            &wl.truth,
            Platform::new(PlatformConfig::perfect_workers(seed)),
            true,
        );

        // Non-Parallel: the same crowdsourced pairs, one HIT at a time.
        let crowdsourced: Vec<ScoredPair> = order
            .iter()
            .copied()
            .filter(|sp| par.result.provenance_of(sp.pair) == Some(Provenance::Crowdsourced))
            .collect();
        let p2 = Platform::new(PlatformConfig::perfect_workers(seed));
        let seq = publish_in_waves(&crowdsourced, &wl.truth, p2, 20);

        rows.push(vec![
            wl.name.to_string(),
            par.stats.hits_published.to_string(),
            format!("{:.1} hours", seq.completion.as_hours()),
            format!("{:.1} hours", par.completion.as_hours()),
            format!("{:.1}x", seq.completion.as_hours() / par.completion.as_hours().max(1e-9)),
        ]);
    }
    print_table(
        "Table 1 — Parallel(ID) vs Non-Parallel completion time (threshold 0.3)",
        &["dataset", "# of HITs", "Non-Parallel", "Parallel(ID)", "speedup"],
        &rows,
    );
    println!(
        "\npaper reference: Paper 68 HITs, 78h vs 8h (9.8x); Product 144 HITs, 97h vs 14h (6.9x)"
    );
}
