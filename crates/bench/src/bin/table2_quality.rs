//! **Table 2** — Transitive vs Non-Transitive on the (simulated) crowd
//! platform with imperfect workers: #HITs, completion time, and result
//! quality (precision / recall / F-measure), threshold 0.3.
//!
//! Paper reference:
//! * Paper dataset — Non-Transitive 1,465 HITs / 755 h / F 79.83%;
//!   Transitive 52 HITs / 32 h / F 74.25% (96.5% fewer HITs, ~5 points of F
//!   lost to labels falsely deduced from wrongly answered pairs).
//! * Product — Non-Transitive 158 HITs / 22 h / F 80.14%; Transitive 144
//!   HITs / 30 h / F 79.71% (≈10% fewer HITs, quality preserved, slightly
//!   longer because publishing is iterative).

use crowdjoin::runner::{publish_in_waves, run_parallel_on_platform};
use crowdjoin_bench::{paper_workload, print_table, product_workload};
use crowdjoin_core::{sort_pairs, QualityMetrics, SortStrategy};
use crowdjoin_sim::{Platform, PlatformConfig};

fn main() {
    let threshold = 0.3;
    let seed = crowdjoin_bench::experiment_seed();
    for wl in [paper_workload(), product_workload()] {
        let task = wl.task_at(threshold);
        let order = sort_pairs(task.candidates(), SortStrategy::ExpectedLikelihood);

        // Non-transitive: every pair in one wave, each vote at face value.
        let pairs = task.candidates().pairs();
        let p1 = Platform::new(PlatformConfig::amt_like(seed));
        let non_transitive = publish_in_waves(pairs, &wl.truth, p1, pairs.len());
        let q_nt = QualityMetrics::of_result(&non_transitive.result, &wl.truth);

        let transitive = run_parallel_on_platform(
            task.candidates().num_objects(),
            order,
            &wl.truth,
            Platform::new(PlatformConfig::amt_like(seed)),
            true,
        );
        let q_tr = QualityMetrics::of_result(&transitive.result, &wl.truth);

        let rows = vec![
            vec![
                "Non-Transitive".to_string(),
                non_transitive.stats.hits_published.to_string(),
                format!("{:.1} h", non_transitive.completion.as_hours()),
                format!("{:.2}%", q_nt.precision() * 100.0),
                format!("{:.2}%", q_nt.recall() * 100.0),
                format!("{:.2}%", q_nt.f_measure() * 100.0),
            ],
            vec![
                "Transitive".to_string(),
                transitive.stats.hits_published.to_string(),
                format!("{:.1} h", transitive.completion.as_hours()),
                format!("{:.2}%", q_tr.precision() * 100.0),
                format!("{:.2}%", q_tr.recall() * 100.0),
                format!("{:.2}%", q_tr.f_measure() * 100.0),
            ],
        ];
        print_table(
            &format!("Table 2 — {} (threshold 0.3, noisy workers, majority vote)", wl.name),
            &["method", "# of HITs", "time", "precision", "recall", "F-measure"],
            &rows,
        );
        println!(
            "transitive: {} crowdsourced + {} deduced, {} vote conflicts",
            transitive.result.num_crowdsourced(),
            transitive.result.num_deduced(),
            transitive.result.num_conflicts(),
        );
    }
    println!("\npaper reference @0.3: Paper 1465->52 HITs, F 79.8->74.3; Product 158->144 HITs, F 80.1->79.7");
}
