//! Thread-safe answer sources for the execution engine.
//!
//! Shards run on worker threads and issue their crowd questions in batches;
//! [`SharedOracle`] is the `&self`-based, `Sync` front-end they share.
//! [`SharedGroundTruth`] answers from a [`GroundTruth`] directly (it is
//! immutable data, so every shard can query it without coordination).
//!
//! [`crate::run_with_oracle`] puts an oracle behind the event loop as a
//! zero-latency crowd backend (`OracleBackend`), so an oracle run and a
//! platform run execute the same shard tasks and differ only in the
//! backend.

use crate::task::task_id_pair;
use crowdjoin_core::{GroundTruth, Label, Pair};
use crowdjoin_sim::{
    BackendFactory, CrowdBackend, PlatformConfig, PlatformStats, ResolvedTask, ShardContext,
    TaskSpec, TimeSource, VirtualClock, VirtualTime,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// A thread-safe source of crowd answers, queried in batches.
pub trait SharedOracle: Sync {
    /// Answers one batch of questions, one label per pair, in order.
    fn answer_batch(&self, pairs: &[Pair]) -> Vec<Label>;

    /// Questions answered so far (across all threads).
    fn questions_asked(&self) -> u64;
}

/// Counting wrapper so [`GroundTruth`] can serve as a shared oracle.
#[derive(Debug)]
pub struct SharedGroundTruth<'a> {
    truth: &'a GroundTruth,
    asked: AtomicU64,
}

impl<'a> SharedGroundTruth<'a> {
    /// Wraps a ground truth as a lock-free shared answer source.
    #[must_use]
    pub fn new(truth: &'a GroundTruth) -> Self {
        Self { truth, asked: AtomicU64::new(0) }
    }
}

impl SharedOracle for SharedGroundTruth<'_> {
    fn answer_batch(&self, pairs: &[Pair]) -> Vec<Label> {
        self.asked.fetch_add(pairs.len() as u64, Ordering::Relaxed);
        pairs.iter().map(|&p| self.truth.label_of(p)).collect()
    }

    fn questions_asked(&self) -> u64 {
        self.asked.load(Ordering::Relaxed)
    }
}

/// A crowd with no latency: each post is answered by one
/// [`SharedOracle::answer_batch`] call, ready at [`VirtualTime::ZERO`].
/// Nothing is ever unresolved, so every release flushes and a shard's
/// publish rounds are exactly its labeler's batches. No HITs, no money:
/// stats stay [`PlatformStats::default`]. It is its own factory: every
/// shard gets an empty backend over the same oracle.
pub(crate) struct OracleBackend<'o, O: ?Sized> {
    pub(crate) oracle: &'o O,
    /// Answers of the last post, waiting for the next poll.
    pub(crate) answered: Vec<ResolvedTask>,
}

impl<O: ?Sized> std::fmt::Debug for OracleBackend<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleBackend").field("answered", &self.answered.len()).finish()
    }
}

impl<'o, O: SharedOracle + ?Sized> BackendFactory for OracleBackend<'o, O> {
    type Backend = Self;

    fn create(&self, _cfg: &PlatformConfig, _shard: &ShardContext) -> Self {
        Self { oracle: self.oracle, answered: Vec::new() }
    }

    fn time_source(&self) -> &dyn TimeSource {
        &VirtualClock
    }

    // Oracle runs are never journaled, so there is nothing to replay.
    fn deterministic_replay(&self) -> bool {
        true
    }
}

impl<O: SharedOracle + ?Sized> CrowdBackend for OracleBackend<'_, O> {
    fn post_hits(&mut self, tasks: Vec<TaskSpec>) {
        let pairs: Vec<Pair> = tasks.iter().map(|t| task_id_pair(t.id)).collect();
        let answers = self.oracle.answer_batch(&pairs);
        assert_eq!(answers.len(), tasks.len(), "oracle must answer every question");
        self.answered.extend(tasks.iter().zip(answers).map(|(t, answer)| {
            let matching = answer == Label::Matching;
            ResolvedTask {
                id: t.id,
                label: matching,
                yes_votes: u32::from(matching),
                no_votes: u32::from(!matching),
            }
        }));
    }

    fn poll_completions(
        &mut self,
        _until: VirtualTime,
    ) -> Option<(VirtualTime, Vec<ResolvedTask>)> {
        (!self.answered.is_empty()).then(|| (VirtualTime::ZERO, std::mem::take(&mut self.answered)))
    }

    fn next_event_time(&self) -> Option<VirtualTime> {
        (!self.answered.is_empty()).then_some(VirtualTime::ZERO)
    }

    fn now(&self) -> VirtualTime {
        VirtualTime::ZERO
    }

    fn num_unresolved_pairs(&self) -> usize {
        0
    }

    /// No HIT granularity: any staged set is whole HITs.
    fn batch_size(&self) -> usize {
        1
    }

    fn stats(&self) -> PlatformStats {
        PlatformStats::default()
    }

    fn warp_to(&mut self, _t: VirtualTime) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_ground_truth_counts() {
        let truth = GroundTruth::from_clusters(4, &[vec![0, 1]]);
        let o = SharedGroundTruth::new(&truth);
        let answers = o.answer_batch(&[Pair::new(0, 1), Pair::new(0, 2)]);
        assert_eq!(answers, vec![Label::Matching, Label::NonMatching]);
        assert_eq!(o.questions_asked(), 2);
    }
}
