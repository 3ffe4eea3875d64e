//! Single-platform labeling runs: the execution modes of the paper's
//! Section 6.3/6.4 experiments, on one caller-owned simulated platform.
//!
//! * **Transitive, parallel** — [`run_parallel_on_platform`], with or
//!   without the *instant decision* optimization: without it, the next batch
//!   of pairs is computed only after every published pair is labeled; with
//!   it, after every HIT resolution. It drives the labeler with the
//!   engine's `ShardTask`, the same code every engine shard runs.
//! * **Non-transitive** — [`run_non_transitive_on_platform`]: every pair is
//!   published up front and taken at face value (the prior-work baseline).
//! * **Sequential replay** — [`replay_pairs_sequentially`]: the Table 1
//!   Non-Parallel arm, publishing the same pairs one HIT at a time.
//!
//! Sharded runs are the engine's: `Engine::run` on simulated platforms, and
//! `run_sharded_with_oracle` (re-exported `run_with_oracle`) on an oracle.

use crowdjoin_core::GroundTruth;
use crowdjoin_core::{Label, LabelingResult, Pair, Provenance, ScoredPair};
use crowdjoin_engine::{pair_task_id, task_id_pair, Shard, ShardState, ShardTask};
use crowdjoin_sim::{Platform, PlatformStats, ResolvedTask, TaskSpec, VirtualTime};

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
        platform: &Platform,
        series: Vec<AvailabilitySample>,
        publish_rounds: usize,
    ) -> Self {
        let stats = platform.stats();
        Self { result, stats, completion: stats.last_resolution, series, publish_rounds }
    }
}

/// The tasks of `pairs`; each id encodes its pair, as the engine's do.
fn to_tasks(pairs: &[ScoredPair], truth: &GroundTruth) -> Vec<TaskSpec> {
    let task = |sp: &ScoredPair| TaskSpec {
        id: pair_task_id(sp.pair),
        truth: truth.is_matching(sp.pair),
        priority: sp.likelihood,
    };
    pairs.iter().map(task).collect()
}

/// Takes one resolution batch at face value (no deduction) and samples the
/// platform after it.
fn record_at_face_value(
    result: &mut LabelingResult,
    series: &mut Vec<AvailabilitySample>,
    platform: &Platform,
    (time, resolved): (VirtualTime, Vec<ResolvedTask>),
) {
    for r in &resolved {
        let label = if r.label { Label::Matching } else { Label::NonMatching };
        result.record(task_id_pair(r.id), label, Provenance::Crowdsourced);
    }
    series.push(AvailabilitySample::of(result.num_crowdsourced(), platform, time));
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
    platform: &mut Platform,
    instant_decision: bool,
) -> CrowdRunReport {
    // One shard over the whole universe (identity ids) on the caller's
    // platform: staging, full-HIT batching, instant decision and idle flush
    // are the engine's, so this arm and the sharded engine cannot drift.
    let objects = (0..num_objects as u32).collect();
    let shard = Shard { index: 0, objects, pairs: order, num_components: 0 };
    let mut task = ShardTask::new(shard, &mut *platform, instant_decision);
    let truth_of = |pair: Pair| truth.is_matching(pair);
    let mut series = Vec::new();
    while task.state() != ShardState::Done {
        task.advance(&truth_of, &mut |crowdsourced, platform: &&mut Platform, time| {
            series.push(AvailabilitySample::of(crowdsourced, platform, time));
        });
    }
    let report = task.into_report();
    CrowdRunReport::new(report.result, platform, series, report.publish_rounds)
}

/// The non-transitive baseline on a platform: publish everything at once,
/// accept every majority vote.
#[must_use]
pub fn run_non_transitive_on_platform(
    order: &[ScoredPair],
    truth: &GroundTruth,
    platform: &mut Platform,
) -> CrowdRunReport {
    platform.publish(to_tasks(order, truth));
    let mut result = LabelingResult::new();
    let mut series = Vec::new();
    while let Some(batch) = platform.step() {
        record_at_face_value(&mut result, &mut series, platform, batch);
    }
    CrowdRunReport::new(result, platform, series, 1)
}

/// Publishes the given pairs one HIT at a time, waiting for each HIT to
/// complete before publishing the next — the Table 1 "Non-Parallel" arm
/// (same HITs as the parallel run, serialized publishing).
///
/// The next HIT is published the moment the previous one resolves; late
/// worker arrivals stay scheduled and simply find the newer HIT, as on a
/// real platform.
#[must_use]
pub fn replay_pairs_sequentially(
    pairs: &[ScoredPair],
    truth: &GroundTruth,
    platform: &mut Platform,
    batch_size: usize,
) -> CrowdRunReport {
    let mut result = LabelingResult::new();
    let mut series = Vec::new();
    for chunk in pairs.chunks(batch_size.max(1)) {
        platform.publish(to_tasks(chunk, truth));
        let target = result.num_crowdsourced() + chunk.len();
        while result.num_crowdsourced() < target {
            let batch = platform.step().expect("published chunk must eventually resolve");
            record_at_face_value(&mut result, &mut series, platform, batch);
        }
    }
    CrowdRunReport::new(result, platform, series, pairs.len().div_ceil(batch_size.max(1)))
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
        let mut platform = Platform::new(PlatformConfig::perfect_workers(7));
        let report = run_parallel_on_platform(cs.num_objects(), order, &truth, &mut platform, true);
        assert_eq!(report.result.num_crowdsourced(), 6);
        assert_eq!(report.result.num_deduced(), 2);
        for sp in cs.pairs() {
            assert_eq!(report.result.label_of(sp.pair), Some(truth.label_of(sp.pair)));
        }
        assert!(report.completion > VirtualTime::ZERO);
    }

    #[test]
    fn non_transitive_labels_everything() {
        let (cs, truth) = running_example();
        let mut platform = Platform::new(PlatformConfig::perfect_workers(9));
        let report = run_non_transitive_on_platform(cs.pairs(), &truth, &mut platform);
        assert_eq!(report.result.num_crowdsourced(), 8);
        assert_eq!(report.result.num_deduced(), 0);
    }

    #[test]
    fn sequential_replay_is_slower_than_parallel() {
        let (cs, truth) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);

        let mut p1 = Platform::new(PlatformConfig::perfect_workers(4));
        let par = run_parallel_on_platform(cs.num_objects(), order.clone(), &truth, &mut p1, true);

        // Replay the same crowdsourced pairs one 2-pair HIT at a time.
        let crowdsourced: Vec<ScoredPair> = order
            .iter()
            .copied()
            .filter(|sp| par.result.provenance_of(sp.pair) == Some(Provenance::Crowdsourced))
            .collect();
        let mut p2 = Platform::new(PlatformConfig::perfect_workers(4));
        let seq = replay_pairs_sequentially(&crowdsourced, &truth, &mut p2, 2);
        assert_eq!(seq.result.num_crowdsourced(), par.result.num_crowdsourced());
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
        let mut p1 = Platform::new(PlatformConfig::perfect_workers(3));
        let plain =
            run_parallel_on_platform(cs.num_objects(), order.clone(), &truth, &mut p1, false);
        let mut p2 = Platform::new(PlatformConfig::perfect_workers(3));
        let id = run_parallel_on_platform(cs.num_objects(), order, &truth, &mut p2, true);
        // Same crowdsourcing cost either way (consistent answers).
        assert_eq!(plain.result.num_crowdsourced(), id.result.num_crowdsourced());
    }
}
