//! A timing decorator around any [`BackendFactory`]: the backends it creates
//! forward every call unchanged and add up the wall time spent inside
//! `post_hits` and `poll_completions`, per shard incarnation.
//!
//! This is how the traced repetitions separate "time in the crowd backend"
//! from "time in the engine" without instrumenting either crate. The
//! decorator owns no state the engine can observe, so labels, money,
//! completion time and journal bytes are those of the undecorated run, and
//! `deterministic_replay` is the inner factory's.

use crowdjoin::sim::{PlatformConfig, PlatformStats, ResolvedTask, TaskSpec, VirtualTime};
use crowdjoin::{BackendFactory, CrowdBackend, ShardContext, TimeSource};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Time one shard incarnation's backend was busy. Plain counters: nothing
/// is published through them, they are read after the run's worker threads
/// have been joined, so `Relaxed` is enough.
#[derive(Debug)]
pub struct ShardTiming {
    busy_ns: AtomicU64,
    calls: AtomicU64,
    first_ns: AtomicU64,
    last_ns: AtomicU64,
}

impl ShardTiming {
    /// Nanoseconds spent inside `post_hits` + `poll_completions`.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    /// Number of `post_hits` + `poll_completions` calls.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Start of the first and end of the last call, in nanoseconds since
    /// the factory's epoch; `None` if the backend was never called.
    #[must_use]
    pub fn interval_ns(&self) -> Option<(u64, u64)> {
        let first = self.first_ns.load(Ordering::Relaxed);
        (first != u64::MAX).then(|| (first, self.last_ns.load(Ordering::Relaxed)))
    }
}

/// A backend that times the two calls that do the backend's work.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    epoch: Instant,
    timing: Arc<ShardTiming>,
}

impl<B: CrowdBackend> TimedBackend<B> {
    fn timed<T>(&mut self, call: impl FnOnce(&mut B) -> T) -> T {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = call(&mut self.inner);
        let end = self.epoch.elapsed().as_nanos() as u64;
        let t = &self.timing;
        t.busy_ns.fetch_add(end - start, Ordering::Relaxed);
        t.calls.fetch_add(1, Ordering::Relaxed);
        t.first_ns.fetch_min(start, Ordering::Relaxed);
        t.last_ns.fetch_max(end, Ordering::Relaxed);
        out
    }
}

impl<B: CrowdBackend> CrowdBackend for TimedBackend<B> {
    fn post_hits(&mut self, tasks: Vec<TaskSpec>) {
        self.timed(|b| b.post_hits(tasks));
    }

    fn poll_completions(&mut self, until: VirtualTime) -> Option<(VirtualTime, Vec<ResolvedTask>)> {
        self.timed(|b| b.poll_completions(until))
    }

    fn next_event_time(&self) -> Option<VirtualTime> {
        self.inner.next_event_time()
    }

    fn now(&self) -> VirtualTime {
        self.inner.now()
    }

    fn num_unresolved_pairs(&self) -> usize {
        self.inner.num_unresolved_pairs()
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

    fn absorb_replayed_cost(&mut self, cents: u64) {
        self.inner.absorb_replayed_cost(cents);
    }
}

/// Wraps a factory so every backend it creates is a [`TimedBackend`].
#[derive(Debug)]
pub struct TimedFactory<F> {
    inner: F,
    epoch: Instant,
    shards: Mutex<Vec<Arc<ShardTiming>>>,
}

impl<F: BackendFactory> TimedFactory<F> {
    /// Decorates `inner`; call times count from `epoch`.
    #[must_use]
    pub fn new(inner: F, epoch: Instant) -> Self {
        Self { inner, epoch, shards: Mutex::new(Vec::new()) }
    }

    /// The timings of every backend created so far, in creation order.
    #[must_use]
    pub fn timings(&self) -> Vec<Arc<ShardTiming>> {
        self.shards.lock().expect("a backend-creating thread panicked").clone()
    }
}

impl<F: BackendFactory> BackendFactory for TimedFactory<F> {
    type Backend = TimedBackend<F::Backend>;

    fn create(&self, cfg: &PlatformConfig, shard: &ShardContext) -> Self::Backend {
        let timing = Arc::new(ShardTiming {
            busy_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            first_ns: AtomicU64::new(u64::MAX),
            last_ns: AtomicU64::new(0),
        });
        self.shards.lock().expect("a backend-creating thread panicked").push(Arc::clone(&timing));
        TimedBackend { inner: self.inner.create(cfg, shard), epoch: self.epoch, timing }
    }

    fn time_source(&self) -> &dyn TimeSource {
        self.inner.time_source()
    }

    fn deterministic_replay(&self) -> bool {
        self.inner.deterministic_replay()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdjoin::{
        sort_pairs, CandidateSet, Engine, EngineConfig, GroundTruth, Pair, ScoredPair, SimFactory,
        SortStrategy,
    };

    /// Forty 5-cliques with descending likelihoods: several publish rounds
    /// on several shards, deductions inside every clique.
    fn cliques() -> (usize, Vec<ScoredPair>, GroundTruth) {
        let (k, size) = (40u32, 5u32);
        let mut pairs = Vec::new();
        let mut clusters = Vec::new();
        for c in 0..k {
            let base = c * size;
            clusters.push((base..base + size).collect::<Vec<u32>>());
            for i in 0..size {
                for j in (i + 1)..size {
                    let l = 0.9 - f64::from(c * 25 + i * 5 + j) * 1e-4;
                    pairs.push(ScoredPair::new(Pair::new(base + i, base + j), l));
                }
                // A cross-clique non-match, so negative deductions happen too.
                if c + 1 < k {
                    pairs.push(ScoredPair::new(Pair::new(base + i, base + size + i), 0.4));
                }
            }
        }
        let n = (k * size) as usize;
        let order =
            sort_pairs(&CandidateSet::new(n, pairs.clone()), SortStrategy::ExpectedLikelihood);
        (n, order, GroundTruth::from_clusters(n, &clusters))
    }

    #[test]
    fn decorated_run_equals_plain_run() {
        let (n, order, truth) = cliques();
        let platform = PlatformConfig { num_workers: 60, ..PlatformConfig::amt_like(11) };
        let cfg =
            EngineConfig { num_shards: 4, num_threads: 2, seed: 5, ..EngineConfig::default() };
        let engine = Engine::new(n, &order, &truth, &platform, cfg);
        let plain = engine.run().expect("unjournaled run cannot fail");
        let factory = TimedFactory::new(SimFactory::new(), Instant::now());
        assert!(factory.deterministic_replay(), "must report the simulator's replay mode");
        let timed = engine.run_with_backend(&factory).expect("unjournaled run cannot fail");

        assert_eq!(timed.result.labeled_pairs(), plain.result.labeled_pairs());
        assert_eq!(timed.total_cost_cents, plain.total_cost_cents);
        assert_eq!(timed.completion, plain.completion);
        assert_eq!(timed.num_crowdsourced(), plain.num_crowdsourced());
        for (t, p) in timed.shards.iter().zip(&plain.shards) {
            assert_eq!(t.stats, p.stats, "shard {} platform stats", p.shard);
        }

        let timings = factory.timings();
        assert_eq!(timings.len(), plain.num_shards(), "one backend per shard");
        for (i, t) in timings.iter().enumerate() {
            assert!(t.calls() > 0 && t.busy_ns() > 0, "backend {i} was never timed");
            let (first, last) = t.interval_ns().expect("called at least once");
            assert!(last - first >= t.busy_ns(), "busy time exceeds its own interval");
        }
    }

    #[test]
    fn journaled_resume_accepts_the_decorator() {
        let (n, order, truth) = cliques();
        let platform = PlatformConfig::perfect_workers(3);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/tmp-timed-backend-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("job.wal");
        let cfg = EngineConfig {
            num_shards: 2,
            seed: 9,
            journal: Some(path.clone()),
            ..EngineConfig::default()
        };
        let engine = Engine::new(n, &order, &truth, &platform, cfg);
        let first = engine.run().expect("fresh journal");
        // Re-execution replay verifies every record bit for bit, so a
        // decorator that perturbed anything would panic here.
        let factory = TimedFactory::new(SimFactory::new(), Instant::now());
        let resumed = engine.resume_with_backend(&path, &factory).expect("finished journal");
        assert_eq!(resumed.result.labeled_pairs(), first.result.labeled_pairs());
        assert_eq!(resumed.num_new_answers(), 0);
        std::fs::remove_dir_all(&dir).expect("temp dir removal");
    }
}
