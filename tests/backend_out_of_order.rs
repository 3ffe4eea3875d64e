//! A `CrowdBackend` test double that delivers completions in shuffled
//! (but time-valid) order, pinning the event loop's tolerance for
//! backends that — like any real crowd — do not resolve HITs in the order
//! the simulator would hand them back.
//!
//! The double wraps a real simulator platform: posted HITs simulate
//! normally, but resolution batches are buffered and released in a
//! seeded-shuffled order. Each delivered batch keeps its true resolution
//! timestamp (never in the future — "time-valid"), only the hand-back
//! order changes. With instant decision off, publish decisions happen at
//! fully-resolved round boundaries where the answer *set* — not its
//! arrival order — determines the next batch, so labels, crowdsourced
//! counts, and money must all equal the in-order run bit for bit; and a
//! fixed shuffle seed must reproduce the identical report.

use crowdjoin::sim::{
    BackendFactory, CrowdBackend, Platform, PlatformConfig, PlatformStats, ResolvedTask,
    ShardContext, TaskSpec, TimeSource, VirtualClock, VirtualTime,
};
use crowdjoin::util::{derive_seed, SplitMix64};
use crowdjoin::{
    sort_pairs, CandidateSet, Engine, EngineConfig, EngineReport, GroundTruth, Pair, ScoredPair,
    SortStrategy,
};

/// Wraps a simulator platform and shuffles the order in which ready
/// resolution batches are handed back.
#[derive(Debug)]
struct ShuffledBackend {
    inner: Platform,
    /// Batches the inner platform resolved but the caller has not seen.
    buffered: Vec<(VirtualTime, Vec<ResolvedTask>)>,
    rng: SplitMix64,
}

impl CrowdBackend for ShuffledBackend {
    fn post_hits(&mut self, tasks: Vec<TaskSpec>) {
        self.inner.post_hits(tasks);
    }

    fn poll_completions(&mut self, until: VirtualTime) -> Option<(VirtualTime, Vec<ResolvedTask>)> {
        // Drain everything the simulator has ready by `until`, then hand
        // back a uniformly chosen buffered batch — out of order, but every
        // batch still stamped with its true (past) resolution time.
        while let Some(batch) = self.inner.poll_completions(until) {
            self.buffered.push(batch);
        }
        if self.buffered.is_empty() {
            return None;
        }
        let k = (self.rng.next_u64() % self.buffered.len() as u64) as usize;
        let batch = self.buffered.swap_remove(k);
        debug_assert!(batch.0 <= self.now(), "delivered resolution from the future");
        Some(batch)
    }

    fn next_event_time(&self) -> Option<VirtualTime> {
        if self.buffered.is_empty() {
            self.inner.next_event_time()
        } else {
            Some(self.inner.now())
        }
    }

    fn now(&self) -> VirtualTime {
        self.inner.now()
    }

    fn num_unresolved_pairs(&self) -> usize {
        // Undelivered buffered pairs are still unresolved from the
        // caller's point of view — the round boundary must not fire early.
        self.inner.num_unresolved_pairs()
            + self.buffered.iter().map(|(_, r)| r.len()).sum::<usize>()
    }

    fn batch_size(&self) -> usize {
        self.inner.batch_size()
    }

    fn stats(&self) -> PlatformStats {
        self.inner.stats()
    }

    fn warp_to(&mut self, t: VirtualTime) {
        self.inner.warp_to(t);
    }
}

struct ShuffledFactory {
    clock: VirtualClock,
    shuffle_seed: u64,
}

impl ShuffledFactory {
    fn new(shuffle_seed: u64) -> Self {
        Self { clock: VirtualClock, shuffle_seed }
    }
}

impl BackendFactory for ShuffledFactory {
    type Backend = ShuffledBackend;

    fn create(&self, cfg: &PlatformConfig, shard: &ShardContext) -> ShuffledBackend {
        ShuffledBackend {
            inner: Platform::new(cfg.clone()),
            buffered: Vec::new(),
            rng: SplitMix64::new(derive_seed(self.shuffle_seed, shard.shard_index as u64)),
        }
    }

    fn time_source(&self) -> &dyn TimeSource {
        &self.clock
    }

    fn deterministic_replay(&self) -> bool {
        true
    }
}

/// A workload big enough for several publish rounds and multiple shards.
fn workload() -> (CandidateSet, GroundTruth, Vec<ScoredPair>) {
    // Six disjoint 4-cliques (each fully matching) plus cross-component
    // noise pairs, so every shard needs deduction and several rounds.
    let num_objects = 30u32;
    let mut clusters = Vec::new();
    for c in 0..6u32 {
        clusters.push((0..4).map(|i| c * 4 + i).collect::<Vec<_>>());
    }
    let truth = GroundTruth::from_clusters(num_objects as usize, &clusters);
    let mut pairs = Vec::new();
    let mut rng = SplitMix64::new(99);
    for c in 0..6u32 {
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                pairs.push(ScoredPair::new(
                    Pair::new(c * 4 + i, c * 4 + j),
                    0.6 + 0.4 * rng.next_f64(),
                ));
            }
        }
    }
    // Likely-non-matching noise, including the spare objects 24..30.
    for k in 0..20u64 {
        let a = (rng.next_u64() % u64::from(num_objects)) as u32;
        let b = (rng.next_u64() % u64::from(num_objects)) as u32;
        if a != b && !pairs.iter().any(|sp: &ScoredPair| sp.pair == Pair::new(a, b)) {
            pairs.push(ScoredPair::new(Pair::new(a, b), 0.3 + 0.01 * k as f64));
        }
    }
    let cs = CandidateSet::new(num_objects as usize, pairs);
    let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
    (cs, truth, order)
}

fn run_with<F: BackendFactory>(factory: &F, shards: usize) -> EngineReport {
    let (cs, truth, order) = workload();
    let platform = PlatformConfig::perfect_workers(17);
    // Instant decision off: publish decisions happen at fully-resolved
    // round boundaries, where only the answer *set* matters — the
    // invariant that makes out-of-order delivery equivalence exact.
    let config =
        EngineConfig { num_shards: shards, instant_decision: false, ..EngineConfig::default() };
    Engine::new(cs.num_objects(), &order, &truth, &platform, config)
        .run_with_backend(factory)
        .expect("unjournaled run cannot fail")
}

#[test]
fn shuffled_completions_match_in_order_run_exactly() {
    for shards in [1usize, 4] {
        let in_order = run_with(&crowdjoin::SimFactory::new(), shards);
        let shuffled = run_with(&ShuffledFactory::new(0xBAD5EED), shards);

        let (cs, truth, _) = workload();
        assert_eq!(shuffled.result.num_labeled(), cs.len());
        for sp in cs.pairs() {
            assert_eq!(
                shuffled.result.label_of(sp.pair),
                in_order.result.label_of(sp.pair),
                "label of {} diverged under shuffling ({shards} shards)",
                sp.pair
            );
            assert_eq!(shuffled.result.label_of(sp.pair), Some(truth.label_of(sp.pair)));
        }
        // Same questions asked, same money, same per-shard platform work.
        assert_eq!(shuffled.num_crowdsourced(), in_order.num_crowdsourced());
        assert_eq!(shuffled.num_deduced(), in_order.num_deduced());
        assert_eq!(shuffled.total_cost_cents, in_order.total_cost_cents);
        assert_eq!(shuffled.completion, in_order.completion);
        assert_eq!(shuffled.num_shards(), in_order.num_shards());
        for (a, b) in shuffled.shards.iter().zip(&in_order.shards) {
            assert_eq!(a.stats, b.stats, "shard {} platform stats diverged", a.shard);
            assert_eq!(a.publish_rounds, b.publish_rounds);
        }
    }
}

#[test]
fn shuffled_delivery_is_deterministic_per_seed() {
    let a = run_with(&ShuffledFactory::new(42), 4);
    let b = run_with(&ShuffledFactory::new(42), 4);
    let (cs, _, _) = workload();
    for sp in cs.pairs() {
        assert_eq!(a.result.label_of(sp.pair), b.result.label_of(sp.pair));
        assert_eq!(a.result.provenance_of(sp.pair), b.result.provenance_of(sp.pair));
    }
    assert_eq!(a.total_cost_cents, b.total_cost_cents);
    assert_eq!(a.completion, b.completion);
    for (x, y) in a.shards.iter().zip(&b.shards) {
        assert_eq!(x.stats, y.stats);
    }
}
