//! Platform-driven labeling runs.
//!
//! These runners connect the labeling framework (`crowdjoin-core`) to the
//! discrete-event crowd platform (`crowdjoin-sim`) and implement the
//! execution modes of the paper's Section 6.3/6.4 experiments:
//!
//! * **Transitive, parallel** — [`run_parallel_on_platform`], with or
//!   without the *instant decision* optimization: without it, the next batch
//!   of pairs is computed only after every published pair is labeled; with
//!   it, after every HIT resolution.
//! * **Non-transitive** — [`run_non_transitive_on_platform`]: every pair is
//!   published up front and taken at face value (the prior-work baseline).
//! * **Sequential replay** — [`replay_pairs_sequentially`]: the Table 1
//!   Non-Parallel arm, publishing the same pairs one HIT at a time.
//! * **Sharded** — [`run_sharded_on_platform`] /
//!   [`run_sharded_with_oracle`]: the `crowdjoin-engine` execution engine,
//!   partitioning the candidate graph into connected-component shards and
//!   labeling them on a worker pool.

use crowdjoin_core::GroundTruth;
use crowdjoin_core::{Label, LabelingResult, Pair, ParallelLabeler, Provenance, ScoredPair};
use crowdjoin_sim::{Platform, PlatformStats, TaskSpec, VirtualTime};
use crowdjoin_util::FxHashMap;

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

fn to_tasks(
    batch: &[ScoredPair],
    truth: &GroundTruth,
    ids: &mut FxHashMap<u64, Pair>,
    next_id: &mut u64,
) -> Vec<TaskSpec> {
    batch
        .iter()
        .map(|sp| {
            let id = *next_id;
            *next_id += 1;
            ids.insert(id, sp.pair);
            TaskSpec { id, truth: truth.is_matching(sp.pair), priority: sp.likelihood }
        })
        .collect()
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
    let mut labeler = ParallelLabeler::new(num_objects, order);
    let mut series = Vec::new();
    // The drive loop (staging, full-HIT batching, instant decision, idle
    // flush) is the engine's shared implementation, so the single-platform
    // and sharded arms cannot drift apart.
    let publish_rounds = crowdjoin_engine::drive_to_completion(
        &mut labeler,
        platform,
        instant_decision,
        &|pair| truth.is_matching(pair),
        &mut |crowdsourced, open_pairs, time| {
            series.push(AvailabilitySample { crowdsourced, open_pairs, time });
        },
    );

    CrowdRunReport {
        result: labeler.into_result(),
        stats: platform.stats(),
        completion: platform.stats().last_resolution,
        series,
        publish_rounds,
    }
}

/// The non-transitive baseline on a platform: publish everything at once,
/// accept every majority vote.
#[must_use]
pub fn run_non_transitive_on_platform(
    order: &[ScoredPair],
    truth: &GroundTruth,
    platform: &mut Platform,
) -> CrowdRunReport {
    let mut ids: FxHashMap<u64, Pair> = FxHashMap::default();
    let mut next_id = 0u64;
    let tasks = to_tasks(order, truth, &mut ids, &mut next_id);
    platform.publish(tasks);

    let mut result = LabelingResult::new();
    let mut series = Vec::new();
    while let Some((time, resolved)) = platform.step() {
        for r in &resolved {
            let label = if r.label { Label::Matching } else { Label::NonMatching };
            result.record(ids[&r.id], label, Provenance::Crowdsourced);
        }
        series.push(AvailabilitySample {
            crowdsourced: result.num_crowdsourced(),
            open_pairs: platform.num_open_pairs(),
            time,
        });
    }
    CrowdRunReport {
        result,
        stats: platform.stats(),
        completion: platform.stats().last_resolution,
        series,
        publish_rounds: 1,
    }
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
    let mut ids: FxHashMap<u64, Pair> = FxHashMap::default();
    let mut next_id = 0u64;
    let mut result = LabelingResult::new();
    let mut series = Vec::new();
    for chunk in pairs.chunks(batch_size.max(1)) {
        let tasks = to_tasks(chunk, truth, &mut ids, &mut next_id);
        platform.publish(tasks);
        let mut remaining = chunk.len();
        while remaining > 0 {
            let (time, resolved) =
                platform.step().expect("published chunk must eventually resolve");
            for r in &resolved {
                let label = if r.label { Label::Matching } else { Label::NonMatching };
                result.record(ids[&r.id], label, Provenance::Crowdsourced);
            }
            remaining -= resolved.len();
            series.push(AvailabilitySample {
                crowdsourced: result.num_crowdsourced(),
                open_pairs: platform.num_open_pairs(),
                time,
            });
        }
    }
    CrowdRunReport {
        result,
        stats: platform.stats(),
        completion: platform.stats().last_resolution,
        series,
        publish_rounds: pairs.len().div_ceil(batch_size.max(1)),
    }
}

/// Runs the sharded execution engine against per-shard platform instances
/// (one deterministic simulator per shard, virtual completion time = the
/// critical path over shards), multiplexed by the non-blocking event loop —
/// thousands of shards run on a bounded worker pool, with optional dynamic
/// re-sharding between publish rounds. Thin facade over
/// [`crowdjoin_engine::run_on_platform`] taking the same inputs as
/// [`run_parallel_on_platform`].
#[must_use]
pub fn run_sharded_on_platform(
    num_objects: usize,
    order: &[ScoredPair],
    truth: &GroundTruth,
    platform: &crowdjoin_sim::PlatformConfig,
    engine: &crowdjoin_engine::EngineConfig,
) -> crowdjoin_engine::EngineReport {
    crowdjoin_engine::run_on_platform(num_objects, order, truth, platform, engine)
}

/// The blocking thread-per-shard reference arm of
/// [`run_sharded_on_platform`]: identical per-shard simulations driven to
/// completion one worker thread at a time. Kept for equivalence testing and
/// comparison; prefer the event-loop entry point. Thin facade over
/// [`crowdjoin_engine::run_on_platform_threaded`].
#[must_use]
pub fn run_sharded_on_platform_threaded(
    num_objects: usize,
    order: &[ScoredPair],
    truth: &GroundTruth,
    platform: &crowdjoin_sim::PlatformConfig,
    engine: &crowdjoin_engine::EngineConfig,
) -> crowdjoin_engine::EngineReport {
    crowdjoin_engine::run_on_platform_threaded(num_objects, order, truth, platform, engine)
}

/// Runs the sharded execution engine against any thread-safe oracle. Thin
/// facade over [`crowdjoin_engine::run_with_oracle`].
#[must_use]
pub fn run_sharded_with_oracle<O: crowdjoin_engine::SharedOracle + ?Sized>(
    num_objects: usize,
    order: &[ScoredPair],
    oracle: &O,
    engine: &crowdjoin_engine::EngineConfig,
) -> crowdjoin_engine::EngineReport {
    crowdjoin_engine::run_with_oracle(num_objects, order, oracle, engine)
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
