//! Merged outcome of a sharded engine run, with per-shard and per-round
//! metric rollups.

use crowdjoin_core::LabelingResult;
use crowdjoin_sim::{PlatformStats, VirtualTime};

/// One publish round as a shard saw it, recorded at release time. The
/// cumulative columns (`crowdsourced`, `deduced`, `cost_cents`) reflect
/// the shard's state **when the round was published** — i.e. before the
/// round's own answers arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundMetric {
    /// Publish round index on the shard's critical path (1-based).
    pub round: usize,
    /// Pairs published by this release.
    pub published: usize,
    /// Cumulative crowdsourced labels when the round went out.
    pub crowdsourced: usize,
    /// Cumulative deduced labels when the round went out.
    pub deduced: usize,
    /// Cumulative platform spend (cents) when the round went out.
    pub cost_cents: u64,
    /// Virtual time of the release.
    pub at: VirtualTime,
}

/// Rolled-up per-shard telemetry derived from a [`ShardReport`]: the
/// paper's money/waste columns plus scheduling depth, in one row.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMetrics {
    /// Shard index within the partition.
    pub shard: usize,
    /// Pairs the crowd answered.
    pub crowdsourced: usize,
    /// Pairs deduced for free via transitivity.
    pub deduced: usize,
    /// Answers that contradicted an existing deduction.
    pub conflicts: usize,
    /// Publish rounds on the shard's critical path.
    pub publish_rounds: usize,
    /// Money spent by the shard's platform (cents); 0 for oracle runs.
    pub spend_cents: u64,
    /// Fraction of this shard's paid HIT pair slots left empty by partial
    /// HITs (0 when no platform or no slots).
    pub waste: f64,
    /// Highest number of simultaneously unresolved published pairs the
    /// shard ever had in flight (its peak crowd queue depth).
    pub peak_unresolved: usize,
    /// Crowd answers replayed from a journal instead of re-asked.
    pub replayed_answers: usize,
}

/// Outcome of one shard's labeling run. `result` is expressed in **global**
/// object ids (the engine maps back before reporting).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard index within the partition.
    pub shard: usize,
    /// Objects in the shard.
    pub num_objects: usize,
    /// Candidate pairs the shard labeled.
    pub num_pairs: usize,
    /// Connected components packed into the shard.
    pub num_components: usize,
    /// The shard's labeling result, in global ids.
    pub result: LabelingResult,
    /// Backend statistics (`PlatformStats::default()` for oracle runs,
    /// whose zero-latency backend has no HITs and no money).
    pub stats: Option<PlatformStats>,
    /// Virtual completion time of the shard (zero for oracle-driven runs).
    pub completion: VirtualTime,
    /// Publish rounds the shard's labeler needed.
    pub publish_rounds: usize,
    /// Crowd answers replayed from a journal instead of re-asked (0 unless
    /// the run was an [`crate::Engine::resume`]).
    pub replayed_answers: usize,
    /// The shard platform's cumulative spend already covered by the
    /// journal at its last replayed record — money the crashed run paid,
    /// not this one.
    pub replayed_cost_cents: u64,
    /// Per-round telemetry, ascending by round.
    pub rounds: Vec<RoundMetric>,
    /// Peak simultaneously-unresolved published pairs (crowd queue depth).
    pub peak_unresolved: usize,
}

impl ShardReport {
    /// This shard's rolled-up metric row.
    #[must_use]
    pub fn metrics(&self) -> ShardMetrics {
        let (spend_cents, waste) = match &self.stats {
            Some(st) => (
                st.total_cost_cents,
                if st.pair_slots == 0 {
                    0.0
                } else {
                    1.0 - st.pairs_published as f64 / st.pair_slots as f64
                },
            ),
            None => (0, 0.0),
        };
        ShardMetrics {
            shard: self.shard,
            crowdsourced: self.result.num_crowdsourced(),
            deduced: self.result.num_deduced(),
            conflicts: self.result.num_conflicts(),
            publish_rounds: self.publish_rounds,
            spend_cents,
            waste,
            peak_unresolved: self.peak_unresolved,
            replayed_answers: self.replayed_answers,
        }
    }
}

/// The stitched, job-level outcome of a sharded run.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Per-shard reports, ascending by shard index.
    pub shards: Vec<ShardReport>,
    /// Merged labeling result over the global id space.
    pub result: LabelingResult,
    /// Job completion time: the virtual-time critical path, i.e. the
    /// maximum over shards (shards run concurrently on the platform).
    pub completion: VirtualTime,
    /// Total money cost in cents: the sum over shards.
    pub total_cost_cents: u64,
    /// Connected components found by the partitioner.
    pub num_components: usize,
    /// `true` when this run replayed its journal by **feeding** (external,
    /// non-deterministic backends): journaled answers went straight into
    /// the labelers, so the backend counters only cover what *this* run
    /// posted. `false` for deterministic re-execution replay (and all
    /// non-resumed runs), where the re-executed platforms count everything.
    /// [`Self::num_crowd_answers`] uses this to report whole-job totals
    /// either way.
    pub fed_replay: bool,
}

impl EngineReport {
    /// Stitches shard reports (assumed ascending by shard index) into the
    /// job-level view.
    #[must_use]
    pub fn from_shards(shards: Vec<ShardReport>, num_components: usize) -> Self {
        let mut result = LabelingResult::new();
        let mut completion = VirtualTime::ZERO;
        let mut total_cost_cents = 0u64;
        for shard in &shards {
            for lp in shard.result.labeled_pairs() {
                result.record(lp.pair, lp.label, lp.provenance);
            }
            for _ in 0..shard.result.num_conflicts() {
                result.record_conflict();
            }
            completion = completion.max(shard.completion);
            if let Some(stats) = &shard.stats {
                total_cost_cents += stats.total_cost_cents;
            }
        }
        EngineReport {
            shards,
            result,
            completion,
            total_cost_cents,
            num_components,
            fed_replay: false,
        }
    }

    /// Number of shards the job ran on.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total pairs answered by the crowd (the money metric).
    #[must_use]
    pub fn num_crowdsourced(&self) -> usize {
        self.result.num_crowdsourced()
    }

    /// Total pairs deduced for free.
    #[must_use]
    pub fn num_deduced(&self) -> usize {
        self.result.num_deduced()
    }

    /// Publish rounds on the critical path (max over shards).
    #[must_use]
    pub fn critical_path_rounds(&self) -> usize {
        self.shards.iter().map(|s| s.publish_rounds).max().unwrap_or(0)
    }

    /// Crowd answers paid for across the whole job: every paid answer is a
    /// crowdsourced label, so on platform runs this equals
    /// [`Self::num_crowdsourced`]. On a fed-replay resume the journaled
    /// answers are added on top of the backend counters (which only saw
    /// this run's posts); under re-execution replay the platforms re-count
    /// them. Equals the journal's answer-record count on journaled runs
    /// either way; 0 for oracle-driven runs (no platforms).
    #[must_use]
    pub fn num_crowd_answers(&self) -> usize {
        let posted: usize =
            self.shards.iter().filter_map(|s| s.stats.as_ref()).map(|st| st.pairs_published).sum();
        if self.fed_replay {
            posted + self.num_replayed_answers()
        } else {
            posted
        }
    }

    /// Crowd answers replayed from a journal instead of re-asked (0 unless
    /// the run was an [`crate::Engine::resume`]).
    #[must_use]
    pub fn num_replayed_answers(&self) -> usize {
        self.shards.iter().map(|s| s.replayed_answers).sum()
    }

    /// Crowd answers this run actually paid for: everything the journal
    /// did not already cover.
    #[must_use]
    pub fn num_new_answers(&self) -> usize {
        self.num_crowd_answers() - self.num_replayed_answers()
    }

    /// Money (cents) already covered by the journal — spend the crashed
    /// run paid that this run did not repeat. Exact at round barriers;
    /// mid-round it excludes assignments that had not yet produced a
    /// journaled resolution.
    #[must_use]
    pub fn replayed_cost_cents(&self) -> u64 {
        self.shards.iter().map(|s| s.replayed_cost_cents).sum()
    }

    /// Fraction of paid-for HIT pair slots left empty by partial HITs,
    /// aggregated over every shard platform: each published HIT reserves
    /// `batch_size` pair slots, so
    /// `1 − pairs_published / (hits_published × batch_size)`.
    ///
    /// Per-shard publishing fragments HIT packing — every shard flushes its
    /// own partial HIT per round (~30% of slots on small sharded workloads)
    /// — and since every HIT costs `assignments_per_hit` assignments
    /// regardless of fill, empty slots are money spent without questions
    /// asked; fewer shards shrink it. Returns 0 for oracle-driven runs (no
    /// platforms).
    #[must_use]
    pub fn partial_hit_waste(&self) -> f64 {
        let (published, slots) = self
            .shards
            .iter()
            .filter_map(|s| s.stats.as_ref())
            .fold((0usize, 0usize), |(p, c), st| (p + st.pairs_published, c + st.pair_slots));
        if slots == 0 {
            0.0
        } else {
            1.0 - published as f64 / slots as f64
        }
    }

    /// Rolled-up per-shard metric rows, ascending by shard index.
    #[must_use]
    pub fn shard_metrics(&self) -> Vec<ShardMetrics> {
        self.shards.iter().map(ShardReport::metrics).collect()
    }

    /// Job-level per-round telemetry: for each publish round on the
    /// critical path, pairs published that round (summed over shards)
    /// plus the cumulative crowdsourced/deduced/spend totals as of each
    /// shard's latest release at or before that round (a shard that
    /// finished early carries its final values forward). `at` is the
    /// latest release time of the round.
    #[must_use]
    pub fn round_metrics(&self) -> Vec<RoundMetric> {
        let last_round =
            self.shards.iter().filter_map(|s| s.rounds.last()).map(|r| r.round).max().unwrap_or(0);
        (1..=last_round)
            .map(|round| {
                let mut m = RoundMetric { round, ..RoundMetric::default() };
                for shard in &self.shards {
                    for r in shard.rounds.iter().filter(|r| r.round == round) {
                        m.published += r.published;
                        m.at = m.at.max(r.at);
                    }
                    if let Some(r) = shard.rounds.iter().rev().find(|r| r.round <= round) {
                        m.crowdsourced += r.crowdsourced;
                        m.deduced += r.deduced;
                        m.cost_cents += r.cost_cents;
                    }
                }
                m
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdjoin_core::{Label, Pair, Provenance};

    fn shard_report(shard: usize) -> ShardReport {
        ShardReport {
            shard,
            num_objects: 2,
            num_pairs: 1,
            num_components: 1,
            result: LabelingResult::new(),
            stats: None,
            completion: VirtualTime::ZERO,
            publish_rounds: 0,
            replayed_answers: 0,
            replayed_cost_cents: 0,
            rounds: Vec::new(),
            peak_unresolved: 0,
        }
    }

    /// A job resolved entirely by deduction publishes zero pair slots;
    /// the waste ratio must report 0, never NaN (the satellite bug this
    /// test pins).
    #[test]
    fn waste_is_zero_not_nan_with_zero_published_slots() {
        let mut all_deduced = shard_report(0);
        all_deduced.result.record(Pair::new(0, 1), Label::Matching, Provenance::Deduced);
        all_deduced.stats = Some(PlatformStats::default());
        let report = EngineReport::from_shards(vec![all_deduced], 1);
        assert_eq!(report.partial_hit_waste(), 0.0);
        assert_eq!(report.shard_metrics()[0].waste, 0.0);
        assert!(!report.partial_hit_waste().is_nan());

        // No platforms at all (oracle run) is equally guarded.
        let oracle = EngineReport::from_shards(vec![shard_report(0)], 1);
        assert_eq!(oracle.partial_hit_waste(), 0.0);
    }

    #[test]
    fn round_metrics_aggregate_and_carry_forward() {
        let mut a = shard_report(0);
        a.rounds = vec![
            RoundMetric {
                round: 1,
                published: 20,
                cost_cents: 0,
                at: VirtualTime(10),
                ..Default::default()
            },
            RoundMetric {
                round: 2,
                published: 5,
                crowdsourced: 20,
                deduced: 3,
                cost_cents: 120,
                at: VirtualTime(40),
            },
        ];
        let mut b = shard_report(1);
        b.rounds = vec![RoundMetric {
            round: 1,
            published: 10,
            cost_cents: 0,
            at: VirtualTime(25),
            ..Default::default()
        }];
        let report = EngineReport::from_shards(vec![a, b], 2);
        let rounds = report.round_metrics();
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].published, 30);
        assert_eq!(rounds[0].at, VirtualTime(25));
        // Round 2: only shard 0 published, shard 1 carries its round-1
        // cumulative values forward.
        assert_eq!(rounds[1].published, 5);
        assert_eq!(rounds[1].crowdsourced, 20);
        assert_eq!(rounds[1].deduced, 3);
        assert_eq!(rounds[1].cost_cents, 120);
        assert_eq!(rounds[1].at, VirtualTime(40));
    }
}
