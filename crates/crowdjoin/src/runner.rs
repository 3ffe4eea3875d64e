//! Single-platform labeling runs: the execution modes of the paper's
//! Section 6.3/6.4 experiments, each on a simulated platform of its own.
//!
//! * **Transitive, parallel** — [`run_parallel_on_platform`], with or
//!   without the *instant decision* optimization: without it, the next batch
//!   of pairs is computed only after every published pair is labeled; with
//!   it, after every HIT resolution. It drives the labeler with the
//!   engine's `ShardTask`, the same code every engine shard runs.
//! * **The baselines** — [`publish_in_waves`]: publish a fixed list of
//!   pairs a wave at a time, wait for the whole wave, take every answer at
//!   face value. One wave of every pair is the non-transitive prior work
//!   (Table 2); one HIT per wave is the Non-Parallel arm (Table 1).
//!
//! Sharded runs are the engine's: `Engine::run` on simulated platforms, and
//! `run_sharded_with_oracle` (re-exported `run_with_oracle`) on an oracle.

use crowdjoin_core::GroundTruth;
use crowdjoin_core::{Label, LabelingResult, Pair, Provenance, ScoredPair};
use crowdjoin_engine::{pair_task_id, task_id_pair, Shard, ShardState, ShardTask};
use crowdjoin_sim::{Platform, PlatformStats, TaskSpec, VirtualTime};

/// One point of the Figure 15 series: platform occupancy as labeling
/// progresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvailabilitySample {
    /// Pairs crowdsourced (resolved) so far.
    pub crowdsourced: usize,
    /// Pairs still open on the platform (unclaimed assignments).
    pub open_pairs: usize,
    /// Virtual time of the sample.
    pub time: VirtualTime,
}

impl AvailabilitySample {
    fn of(crowdsourced: usize, platform: &Platform, time: VirtualTime) -> Self {
        Self { crowdsourced, open_pairs: platform.num_open_pairs(), time }
    }
}

/// Outcome of a platform-driven run.
#[derive(Debug, Clone)]
pub struct CrowdRunReport {
    /// The labeling result (labels, provenance, conflicts).
    pub result: LabelingResult,
    /// Platform-side statistics (HITs, assignments, cost).
    pub stats: PlatformStats,
    /// Virtual completion time.
    pub completion: VirtualTime,
    /// Occupancy series (one sample per resolution event).
    pub series: Vec<AvailabilitySample>,
    /// Number of publish rounds the labeler needed.
    pub publish_rounds: usize,
}

impl CrowdRunReport {
    fn new(
        result: LabelingResult,
        stats: PlatformStats,
        series: Vec<AvailabilitySample>,
        publish_rounds: usize,
    ) -> Self {
        Self { result, stats, completion: stats.last_resolution, series, publish_rounds }
    }
}

/// Runs the parallel labeler against a crowd platform.
///
/// `instant_decision` controls when the next publishable set is computed:
/// after *every* HIT resolution (`true`, the Section 5.2 optimization) or
/// only once all outstanding pairs are labeled (`false`, plain Algorithm 2).
///
/// Publishable pairs are *staged* and released in full HITs of the
/// platform's batch size; partial HITs go out only when nothing else is in
/// flight (otherwise iterative publishing would fragment into tiny HITs and
/// waste money — the batching optimization of Section 6.4).
///
/// The platform's workers answer according to their accuracy; with noisy
/// configs the result can contain wrong and conflicting labels exactly as in
/// the paper's Table 2 runs.
///
/// # Panics
///
/// Panics if the labeler gets stuck (platform idle, labeling incomplete, and
/// no publishable pairs) — impossible for well-formed inputs.
#[must_use]
pub fn run_parallel_on_platform(
    num_objects: usize,
    order: Vec<ScoredPair>,
    truth: &GroundTruth,
    platform: Platform,
    instant_decision: bool,
) -> CrowdRunReport {
    // One shard over the whole universe (identity ids) on its own
    // platform: staging, full-HIT batching, instant decision and idle flush
    // are the engine's, so this arm and the sharded engine cannot drift.
    let objects = (0..num_objects as u32).collect();
    let shard = Shard { index: 0, objects, pairs: order, num_components: 0 };
    let mut task = ShardTask::new(shard, platform, instant_decision);
    let truth_of = |pair: Pair| truth.is_matching(pair);
    let mut series = Vec::new();
    while task.state() != ShardState::Done {
        task.advance(&truth_of, &mut |crowdsourced, platform: &Platform, time| {
            series.push(AvailabilitySample::of(crowdsourced, platform, time));
        });
    }
    let report = task.into_report();
    let stats = report.stats.expect("a platform-driven shard reports platform stats");
    CrowdRunReport::new(report.result, stats, series, report.publish_rounds)
}

/// The paper's baselines: publishes `pairs` in waves of `wave` pairs
/// (at least 1), waits until every pair of a wave has resolved, then
/// publishes the next wave. Every majority vote is taken at face value —
/// nothing is deduced.
///
/// * `wave = pairs.len()` is the non-transitive prior work (Table 2):
///   everything goes out at once, in one round.
/// * `wave = batch_size` is the Non-Parallel arm (Table 1): one HIT at a
///   time. The next HIT is published the moment the previous one
///   resolves; late worker arrivals stay scheduled and simply find the
///   newer HIT, as on a real platform.
///
/// # Panics
///
/// Panics if the platform drains with a published pair unresolved (no
/// worker can take it).
#[must_use]
pub fn publish_in_waves(
    pairs: &[ScoredPair],
    truth: &GroundTruth,
    mut platform: Platform,
    wave: usize,
) -> CrowdRunReport {
    let wave = wave.max(1);
    // Each task id encodes its pair, as the engine's do.
    let task = |sp: &ScoredPair| TaskSpec {
        id: pair_task_id(sp.pair),
        truth: truth.is_matching(sp.pair),
        priority: sp.likelihood,
    };
    let mut result = LabelingResult::new();
    let mut series = Vec::new();
    for chunk in pairs.chunks(wave) {
        platform.publish(chunk.iter().map(task).collect());
        let target = result.num_crowdsourced() + chunk.len();
        while result.num_crowdsourced() < target {
            let until = platform.next_event_time().expect("published wave must eventually resolve");
            let Some((time, resolved)) = platform.poll_completions(until) else { continue };
            for r in &resolved {
                let label = if r.label { Label::Matching } else { Label::NonMatching };
                result.record(task_id_pair(r.id), label, Provenance::Crowdsourced);
            }
            series.push(AvailabilitySample::of(result.num_crowdsourced(), &platform, time));
        }
    }
    CrowdRunReport::new(result, platform.stats(), series, pairs.len().div_ceil(wave))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdjoin_core::{sort_pairs, CandidateSet, SortStrategy};
    use crowdjoin_sim::PlatformConfig;

    /// The Figure 3 running example.
    fn running_example() -> (CandidateSet, GroundTruth) {
        let truth = GroundTruth::from_clusters(6, &[vec![0, 1, 2], vec![3, 4]]);
        let pairs = vec![
            ScoredPair::new(Pair::new(0, 1), 0.95),
            ScoredPair::new(Pair::new(1, 2), 0.90),
            ScoredPair::new(Pair::new(0, 5), 0.85),
            ScoredPair::new(Pair::new(0, 2), 0.80),
            ScoredPair::new(Pair::new(3, 4), 0.75),
            ScoredPair::new(Pair::new(3, 5), 0.70),
            ScoredPair::new(Pair::new(1, 3), 0.65),
            ScoredPair::new(Pair::new(4, 5), 0.60),
        ];
        (CandidateSet::new(6, pairs), truth)
    }

    #[test]
    fn parallel_on_platform_matches_oracle_run() {
        let (cs, truth) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let platform = Platform::new(PlatformConfig::perfect_workers(7));
        let report = run_parallel_on_platform(cs.num_objects(), order, &truth, platform, true);
        assert_eq!(report.result.num_crowdsourced(), 6);
        assert_eq!(report.result.num_deduced(), 2);
        for sp in cs.pairs() {
            assert_eq!(report.result.label_of(sp.pair), Some(truth.label_of(sp.pair)));
        }
        assert!(report.completion > VirtualTime::ZERO);
    }

    /// One wave of every pair is the non-transitive baseline: one round,
    /// every pair crowdsourced exactly once, `⌈n / batch_size⌉` HITs.
    #[test]
    fn non_transitive_labels_everything() {
        let (cs, truth) = running_example();
        let cfg = PlatformConfig { batch_size: 3, ..PlatformConfig::perfect_workers(9) };
        let report = publish_in_waves(cs.pairs(), &truth, Platform::new(cfg), cs.len());
        assert_eq!(report.publish_rounds, 1);
        assert_eq!(report.result.num_crowdsourced(), 8);
        assert_eq!(report.result.num_deduced(), 0);
        for sp in cs.pairs() {
            assert_eq!(report.result.provenance_of(sp.pair), Some(Provenance::Crowdsourced));
            assert_eq!(report.result.label_of(sp.pair), Some(truth.label_of(sp.pair)));
        }
        assert_eq!(report.stats.pairs_published, 8, "no pair is published twice");
        assert_eq!(report.stats.hits_published, 8usize.div_ceil(3));
        assert_eq!(report.series.last().map(|s| s.crowdsourced), Some(8));
    }

    /// One HIT per wave is the Non-Parallel arm: the same crowdsourced
    /// pairs cost the same, but every wave waits out the worker latency.
    #[test]
    fn sequential_replay_is_slower_than_parallel() {
        let (cs, truth) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let cfg = PlatformConfig { batch_size: 2, ..PlatformConfig::perfect_workers(4) };
        let platform = || Platform::new(cfg.clone());
        let par =
            run_parallel_on_platform(cs.num_objects(), order.clone(), &truth, platform(), true);

        let crowdsourced: Vec<ScoredPair> = order
            .iter()
            .copied()
            .filter(|sp| par.result.provenance_of(sp.pair) == Some(Provenance::Crowdsourced))
            .collect();
        let seq = publish_in_waves(&crowdsourced, &truth, platform(), cfg.batch_size);
        assert_eq!(seq.result.num_crowdsourced(), par.result.num_crowdsourced());
        assert_eq!(seq.publish_rounds, crowdsourced.len().div_ceil(cfg.batch_size));
        assert!(
            seq.completion > par.completion,
            "sequential {:?} should be slower than parallel {:?}",
            seq.completion,
            par.completion
        );
    }

    #[test]
    fn instant_decision_never_increases_rounds_needed() {
        let (cs, truth) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let platform = || Platform::new(PlatformConfig::perfect_workers(3));
        let plain =
            run_parallel_on_platform(cs.num_objects(), order.clone(), &truth, platform(), false);
        let id = run_parallel_on_platform(cs.num_objects(), order, &truth, platform(), true);
        // Same crowdsourcing cost either way (consistent answers).
        assert_eq!(plain.result.num_crowdsourced(), id.result.num_crowdsourced());
    }
}
