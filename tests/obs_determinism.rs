//! The observability layer's hard constraint, pinned: attaching trace
//! sinks must not change one bit of engine output. A traced run — JSONL
//! and Chrome sinks both live — must produce labels, provenance, money,
//! completion time, per-shard platform stats, and journal *bytes*
//! identical to the untraced run, at 1 and 4 shards, against both the
//! in-order simulator and an out-of-order delivery double. Tracing is
//! read-only bookkeeping; if any of these assertions ever fails, an
//! instrumentation point has grown a side effect.

use crowdjoin::obs::{finish_sinks, install_sink, CaptureSink, ChromeTraceSink, JsonlSink};
use crowdjoin::sim::{
    BackendFactory, CrowdBackend, Platform, PlatformConfig, PlatformStats, ResolvedTask,
    ShardContext, TaskSpec, TimeSource, VirtualClock, VirtualTime,
};
use crowdjoin::util::{derive_seed, SplitMix64};
use crowdjoin::{
    sort_pairs, CandidateSet, Engine, EngineConfig, EngineReport, GroundTruth, Pair, ScoredPair,
    SortStrategy,
};
use std::path::PathBuf;
use std::sync::Mutex;

/// The trace recorder is process-global; tests that install or expect
/// absent sinks must not interleave.
static OBS: Mutex<()> = Mutex::new(());

/// Minimal out-of-order backend double: wraps a simulator platform and
/// hands resolved batches back in seeded-shuffled (but time-valid) order.
#[derive(Debug)]
struct ShuffledBackend {
    inner: Platform,
    buffered: Vec<(VirtualTime, Vec<ResolvedTask>)>,
    rng: SplitMix64,
}

impl CrowdBackend for ShuffledBackend {
    fn post_hits(&mut self, tasks: Vec<TaskSpec>) {
        self.inner.post_hits(tasks);
    }

    fn poll_completions(&mut self, until: VirtualTime) -> Option<(VirtualTime, Vec<ResolvedTask>)> {
        while let Some(batch) = self.inner.poll_completions(until) {
            self.buffered.push(batch);
        }
        if self.buffered.is_empty() {
            return None;
        }
        let k = (self.rng.next_u64() % self.buffered.len() as u64) as usize;
        Some(self.buffered.swap_remove(k))
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

/// Six matching 4-cliques plus noise pairs: multiple shards, multiple
/// publish rounds, real deduction work.
fn workload() -> (CandidateSet, GroundTruth, Vec<ScoredPair>) {
    let num_objects = 30u32;
    let clusters: Vec<Vec<u32>> = (0..6u32).map(|c| (0..4).map(|i| c * 4 + i).collect()).collect();
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

fn run_with<F: BackendFactory>(
    factory: &F,
    shards: usize,
    journal: Option<PathBuf>,
) -> EngineReport {
    let (cs, truth, order) = workload();
    let platform = PlatformConfig::perfect_workers(17);
    let config = EngineConfig {
        num_shards: shards,
        instant_decision: false,
        journal,
        ..EngineConfig::default()
    };
    Engine::new(cs.num_objects(), &order, &truth, &platform, config)
        .run_with_backend(factory)
        .expect("run")
}

/// Bit-identical: every label and provenance, money, completion, and every
/// per-shard stat block.
fn assert_identical(traced: &EngineReport, plain: &EngineReport, ctx: &str) {
    let (cs, _, _) = workload();
    for sp in cs.pairs() {
        assert_eq!(
            traced.result.label_of(sp.pair),
            plain.result.label_of(sp.pair),
            "{ctx}: label of {} diverged under tracing",
            sp.pair
        );
        assert_eq!(
            traced.result.provenance_of(sp.pair),
            plain.result.provenance_of(sp.pair),
            "{ctx}: provenance of {} diverged",
            sp.pair
        );
    }
    assert_eq!(traced.num_crowdsourced(), plain.num_crowdsourced(), "{ctx}: crowdsourced");
    assert_eq!(traced.num_deduced(), plain.num_deduced(), "{ctx}: deduced");
    assert_eq!(traced.total_cost_cents, plain.total_cost_cents, "{ctx}: money");
    assert_eq!(traced.completion, plain.completion, "{ctx}: completion");
    assert_eq!(traced.num_shards(), plain.num_shards(), "{ctx}: shard count");
    for (a, b) in traced.shards.iter().zip(&plain.shards) {
        assert_eq!(a.stats, b.stats, "{ctx}: shard {} platform stats", a.shard);
        assert_eq!(a.publish_rounds, b.publish_rounds, "{ctx}: shard {} rounds", a.shard);
        assert_eq!(a.peak_unresolved, b.peak_unresolved, "{ctx}: shard {} peak", a.shard);
        assert_eq!(a.rounds, b.rounds, "{ctx}: shard {} round metrics", a.shard);
    }
}

fn run_traced<F: BackendFactory>(factory: &F, shards: usize) -> (EngineReport, usize) {
    let (capture, events) = CaptureSink::new();
    install_sink(Box::new(capture));
    install_sink(Box::new(JsonlSink::new(Vec::new())));
    install_sink(Box::new(ChromeTraceSink::new(Vec::new())));
    let report = run_with(factory, shards, None);
    finish_sinks().expect("sinks flush");
    let n = events.lock().expect("capture").len();
    (report, n)
}

#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let _serial = OBS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for shards in [1usize, 4] {
        let plain = run_with(&crowdjoin::SimFactory::new(), shards, None);
        let (traced, events) = run_traced(&crowdjoin::SimFactory::new(), shards);
        assert!(events > 0, "sinks were live but captured nothing ({shards} shards)");
        assert_identical(&traced, &plain, &format!("sim backend, {shards} shards"));

        let plain =
            run_with(&ShuffledFactory { clock: VirtualClock, shuffle_seed: 0xF00D }, shards, None);
        let (traced, events) =
            run_traced(&ShuffledFactory { clock: VirtualClock, shuffle_seed: 0xF00D }, shards);
        assert!(events > 0, "no events captured on the out-of-order double");
        assert_identical(&traced, &plain, &format!("out-of-order double, {shards} shards"));
    }
}

/// The journal is the crash-safety ground truth; tracing must not move a
/// single byte of it.
#[test]
fn traced_journal_bytes_identical_to_untraced() {
    let _serial = OBS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let plain_path = dir.join(format!("crowdjoin-obs-det-plain-{pid}.wal"));
    let traced_path = dir.join(format!("crowdjoin-obs-det-traced-{pid}.wal"));
    let _ = std::fs::remove_file(&plain_path);
    let _ = std::fs::remove_file(&traced_path);

    let plain = run_with(&crowdjoin::SimFactory::new(), 4, Some(plain_path.clone()));

    let (capture, events) = CaptureSink::new();
    install_sink(Box::new(capture));
    let traced = run_with(&crowdjoin::SimFactory::new(), 4, Some(traced_path.clone()));
    finish_sinks().expect("sinks flush");
    assert!(!events.lock().expect("capture").is_empty(), "tracing was not live");

    assert_identical(&traced, &plain, "journaled, 4 shards");
    let plain_bytes = std::fs::read(&plain_path).expect("plain journal");
    let traced_bytes = std::fs::read(&traced_path).expect("traced journal");
    assert!(!plain_bytes.is_empty(), "journal should have content");
    assert_eq!(plain_bytes, traced_bytes, "journal bytes diverged under tracing");
    let _ = std::fs::remove_file(&plain_path);
    let _ = std::fs::remove_file(&traced_path);
}
