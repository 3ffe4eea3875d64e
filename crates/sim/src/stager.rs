//! HIT staging policy of the engine's shard tasks.
//!
//! Iterative publishing (instant decision) would fragment tasks into tiny
//! HITs and waste money; the batching optimization of Section 6.4 says to
//! publish in full HITs of the platform's batch size. [`HitStager`] holds
//! that policy: stage publishable tasks as the labeler emits them, release
//! full HITs immediately, and flush the partial remainder only when the
//! platform would otherwise sit idle waiting for it.

use crate::backend::CrowdBackend;
use crate::platform::TaskSpec;

/// Stages publishable tasks and releases them to a [`CrowdBackend`] (the
/// simulator [`crate::Platform`] or any external backend) in full HITs,
/// counting publish rounds. Carries an optional shard tag so its
/// `stager.publish` trace events attribute to the owning shard.
#[derive(Debug, Clone)]
pub struct HitStager {
    staged: Vec<TaskSpec>,
    publish_rounds: usize,
    shard: u32,
}

impl Default for HitStager {
    fn default() -> Self {
        Self { staged: Vec::new(), publish_rounds: 0, shard: crowdjoin_obs::NO_SHARD }
    }
}

impl HitStager {
    /// An empty stager.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty stager tagged with the owning shard's index (trace
    /// attribution only; publishing behavior is identical).
    #[must_use]
    pub fn for_shard(shard: u32) -> Self {
        Self { shard, ..Self::default() }
    }

    /// Adds tasks to the staging buffer (publishes nothing yet).
    pub fn stage(&mut self, tasks: impl IntoIterator<Item = TaskSpec>) {
        self.staged.extend(tasks);
    }

    /// Tasks currently staged and unpublished.
    #[must_use]
    pub fn num_staged(&self) -> usize {
        self.staged.len()
    }

    /// Publish rounds so far (a release that publishes nothing is not a
    /// round).
    #[must_use]
    pub fn publish_rounds(&self) -> usize {
        self.publish_rounds
    }

    /// Publishes every staged full HIT; with `flush`, the partial remainder
    /// too. Uses the backend's configured batch size. Returns the number
    /// of pairs published (0 when nothing was released).
    pub fn release<B: CrowdBackend + ?Sized>(&mut self, backend: &mut B, flush: bool) -> usize {
        let batch_size = backend.batch_size();
        let full = (self.staged.len() / batch_size) * batch_size;
        let take = if flush { self.staged.len() } else { full };
        if take > 0 {
            let tasks: Vec<TaskSpec> = self.staged.drain(..take).collect();
            self.publish_rounds += 1;
            if crowdjoin_obs::enabled() {
                crowdjoin_obs::EventBuilder::new("sim", "stager.publish", self.shard)
                    .virt(backend.now().0)
                    .field("pairs", take)
                    .field("round", self.publish_rounds)
                    .field("flush", flush)
                    .emit();
            }
            backend.post_hits(tasks);
        }
        take
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use crate::platform::{drain, Platform};
    use crate::time::VirtualTime;

    fn tasks(n: usize) -> Vec<TaskSpec> {
        (0..n).map(|i| TaskSpec { id: i as u64, truth: true, priority: 0.5 }).collect()
    }

    #[test]
    fn holds_partial_hits_until_flush() {
        // batch_size 20 in the perfect_workers preset.
        let mut platform = Platform::new(PlatformConfig::perfect_workers(3));
        let mut stager = HitStager::new();
        stager.stage(tasks(25));
        stager.release(&mut platform, false);
        assert_eq!(stager.num_staged(), 5, "partial HIT stays staged");
        assert_eq!(platform.stats().hits_published, 1);
        stager.release(&mut platform, true);
        assert_eq!(stager.num_staged(), 0);
        assert_eq!(platform.stats().hits_published, 2);
        assert_eq!(stager.publish_rounds(), 2);
    }

    #[test]
    fn empty_release_is_not_a_round() {
        let mut platform = Platform::new(PlatformConfig::perfect_workers(3));
        let mut stager = HitStager::new();
        stager.release(&mut platform, true);
        assert_eq!(stager.publish_rounds(), 0);
        assert_eq!(platform.stats().hits_published, 0);
    }

    #[test]
    fn flush_on_idle_with_single_staged_pair() {
        // The smallest possible partial HIT: one pair. Held back without
        // flush, published (and resolvable) as a one-pair HIT on idle flush.
        let mut platform = Platform::new(PlatformConfig::perfect_workers(5));
        let mut stager = HitStager::new();
        stager.stage(tasks(1));
        stager.release(&mut platform, false);
        assert_eq!(stager.num_staged(), 1, "lone pair must wait for the flush");
        assert_eq!(platform.stats().hits_published, 0);
        assert!(platform.next_event_time().is_none(), "nothing published, platform idle");

        stager.release(&mut platform, true);
        assert_eq!(stager.num_staged(), 0);
        assert_eq!(platform.stats().hits_published, 1);
        let (_, resolved) =
            platform.poll_completions(VirtualTime::MAX).expect("the one-pair HIT resolves");
        assert_eq!(resolved.len(), 1);
        assert_eq!(stager.publish_rounds(), 1);
    }

    #[test]
    fn batch_size_one_never_holds_anything_back() {
        // With one-pair HITs every staged task is a full HIT, so a
        // non-flushing release already publishes everything.
        let cfg = PlatformConfig { batch_size: 1, ..PlatformConfig::perfect_workers(5) };
        let mut platform = Platform::new(cfg);
        let mut stager = HitStager::new();
        stager.stage(tasks(7));
        stager.release(&mut platform, false);
        assert_eq!(stager.num_staged(), 0);
        assert_eq!(platform.stats().hits_published, 7);
        assert_eq!(platform.stats().pair_slots, 7, "batch size 1 cannot fragment");
        let resolved: usize = drain(&mut platform).iter().map(|(_, r)| r.len()).sum();
        assert_eq!(resolved, 7);
    }

    #[test]
    fn final_round_partial_hit_resolves_and_is_accounted() {
        // A shard whose last round does not fill a HIT: the earlier full HIT
        // goes out eagerly, the 5-pair remainder only on the final flush,
        // and the platform's slot accounting shows exactly that waste.
        let mut platform = Platform::new(PlatformConfig::perfect_workers(9));
        let mut stager = HitStager::new();
        stager.stage(tasks(25));
        stager.release(&mut platform, false);
        assert_eq!(platform.stats().hits_published, 1);
        let resolved: usize = drain(&mut platform).iter().map(|(_, r)| r.len()).sum();
        assert_eq!(resolved, 20);

        // Final round: the leftover partial HIT flushes once the platform
        // would otherwise idle.
        stager.release(&mut platform, true);
        assert_eq!(stager.num_staged(), 0);
        let resolved: usize = drain(&mut platform).iter().map(|(_, r)| r.len()).sum();
        assert_eq!(resolved, 5);
        let stats = platform.stats();
        assert_eq!(stats.hits_published, 2);
        assert_eq!(stats.pairs_published, 25);
        assert_eq!(stats.pair_slots, 40, "final partial HIT wastes 15 slots");
        assert_eq!(stager.publish_rounds(), 2);
    }
}
