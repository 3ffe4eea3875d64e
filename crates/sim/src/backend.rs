//! The pluggable crowd-backend layer.
//!
//! The engine's transitive-deduction machinery only needs *answers*: it
//! posts batches of boolean questions and consumes majority-voted
//! resolutions. Everything else — who answers, how long it takes, what a
//! "worker" even is — belongs behind [`CrowdBackend`], the non-blocking
//! poll interface every platform driver speaks:
//!
//! * [`CrowdBackend::post_hits`] — submit tasks, return immediately;
//! * [`CrowdBackend::poll_completions`] — hand back the next resolution
//!   batch ready at or before a deadline, never blocking;
//! * [`CrowdBackend::next_event_time`] — when the backend next deserves a
//!   poll, the scheduling hook event loops order their wake-ups by.
//!
//! Two families implement it:
//!
//! * the in-process discrete-event simulator ([`Platform`]) on
//!   **virtual** time — polling *is* what advances its clock, so a
//!   scheduler never waits;
//! * external backends (e.g. the spool-directory backend in
//!   `crowdjoin-backend-spool`) on **wall-clock** time — polling is real
//!   I/O and the scheduler sleeps between deadlines.
//!
//! The [`TimeSource`] abstraction (in [`crate::time`]) is what lets one
//! event loop drive both: it waits on wall clocks and no-ops on virtual
//! ones.
//!
//! ## Time-source rules
//!
//! A backend reports every instant ([`CrowdBackend::now`], resolution
//! times, [`CrowdBackend::next_event_time`]) on **one** clock, the clock of
//! its [`BackendFactory::time_source`]. The contract between backend and
//! scheduler:
//!
//! 1. `now()` is monotone non-decreasing;
//! 2. `poll_completions(until)` never advances `now()` past `until` and
//!    never returns a resolution stamped later than `now()`;
//! 3. `next_event_time()` is `None` **iff** the backend is drained (no
//!    posted task unresolved, no resolution unpolled) — `None` is how a
//!    driver recognizes a round boundary, so a backend that still owes
//!    resolutions must keep returning a next poll deadline;
//! 4. a backend with an unpolled resolution reports `next_event_time() ==
//!    now()` — it is ready immediately.

use crate::config::PlatformConfig;
use crate::platform::{Platform, PlatformStats, ResolvedTask, TaskSpec};
use crate::time::{TimeSource, VirtualClock, VirtualTime};

/// A non-blocking crowd platform: the interface the engine's `ShardTask`
/// state machines and event loop are generic over. See the module docs for
/// the time-source rules implementations must uphold.
///
/// `Send` + [`std::fmt::Debug`] are supertraits because backends travel
/// between event-loop worker threads inside their tasks.
pub trait CrowdBackend: Send + std::fmt::Debug {
    /// Submits tasks for crowd labeling and returns immediately. The
    /// backend batches them into HITs of [`Self::batch_size`] itself when
    /// the transport needs it; callers pre-batch via `HitStager`, so a
    /// call never splits a full HIT.
    fn post_hits(&mut self, tasks: Vec<TaskSpec>);

    /// Returns the next resolution batch ready **no later than `until`**,
    /// or `None` once no completion at or before `until` is available.
    /// Must not block beyond bounded I/O (a directory scan, a socket
    /// read); waiting for `until` to arrive is the scheduler's job via
    /// [`TimeSource::wait_until`].
    fn poll_completions(&mut self, until: VirtualTime) -> Option<(VirtualTime, Vec<ResolvedTask>)>;

    /// When this backend next deserves a poll: the earliest pending event
    /// (virtual backends) or a polling deadline (wall-clock backends).
    /// `None` iff drained — nothing posted is unresolved and nothing
    /// resolved is unpolled.
    fn next_event_time(&self) -> Option<VirtualTime>;

    /// The backend's current time, on its factory's [`TimeSource`] clock.
    fn now(&self) -> VirtualTime;

    /// Tasks posted but not yet resolved (drives the drivers' shared
    /// partial-HIT flush and instant-decision policies).
    fn num_unresolved_pairs(&self) -> usize;

    /// Pairs per HIT — the staging granularity (`HitStager` releases full
    /// multiples of this, flushing partials only on idle).
    fn batch_size(&self) -> usize;

    /// Aggregate counters so far (HITs, assignments, money, last
    /// resolution time).
    fn stats(&self) -> PlatformStats;

    /// Advances an **idle** backend's clock to at least `t`, so a backend
    /// created mid-job can continue a predecessor's timeline. The engine
    /// no longer calls it. Wall-clock backends, whose `now` is physical,
    /// may ignore it.
    fn warp_to(&mut self, t: VirtualTime);

    /// Folds money a resumed journal already paid into this backend's
    /// ledger, so [`Self::stats`]' `total_cost_cents` covers the whole job
    /// under feed-replay (see [`BackendFactory::deterministic_replay`]).
    /// Deterministic backends re-derive that spend by re-execution and
    /// keep the default no-op.
    fn absorb_replayed_cost(&mut self, _cents: u64) {}
}

/// [`Platform`] is the reference backend: the discrete-event simulator on
/// virtual time. Every method is a delegation to the inherent API, so
/// routing through the trait cannot change behavior.
impl CrowdBackend for Platform {
    fn post_hits(&mut self, tasks: Vec<TaskSpec>) {
        Platform::publish(self, tasks);
    }

    fn poll_completions(&mut self, until: VirtualTime) -> Option<(VirtualTime, Vec<ResolvedTask>)> {
        Platform::poll_completions(self, until)
    }

    fn next_event_time(&self) -> Option<VirtualTime> {
        Platform::next_event_time(self)
    }

    fn now(&self) -> VirtualTime {
        Platform::now(self)
    }

    fn num_unresolved_pairs(&self) -> usize {
        Platform::num_unresolved_pairs(self)
    }

    fn batch_size(&self) -> usize {
        Platform::batch_size(self)
    }

    fn stats(&self) -> PlatformStats {
        Platform::stats(self)
    }

    fn warp_to(&mut self, t: VirtualTime) {
        Platform::warp_to(self, t);
    }
}

/// Identity of the shard a backend is created for: enough for a factory to
/// derive unique spool names, topics, or queue ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardContext {
    /// Shard index within the job's partition — unique per job, so it is
    /// the right key for external namespaces (the spool backend names its
    /// HIT files with it) and for the journal.
    pub shard_index: usize,
    /// Concurrent shards in the job.
    pub active_shards: usize,
}

/// Creates the per-shard backends of one engine run and owns their shared
/// clock. The engine derives a per-shard [`PlatformConfig`] (seed, crowd
/// split) and hands it to [`BackendFactory::create`]; backends are free to
/// use only the fields that apply to them (the spool backend reads
/// `batch_size` and `price_per_assignment_cents` and ignores the simulated
/// worker pool).
pub trait BackendFactory: Sync {
    /// The backend type this factory creates.
    type Backend: CrowdBackend;

    /// Creates the backend for one shard.
    fn create(&self, cfg: &PlatformConfig, shard: &ShardContext) -> Self::Backend;

    /// The clock the event loop schedules (and waits) against. Must be the
    /// clock every created backend stamps its events with.
    fn time_source(&self) -> &dyn TimeSource;

    /// Whether a resumed journal replays by deterministic **re-execution**
    /// (`true`: the engine re-derives every record and verifies it
    /// bit-for-bit against the journal — only sound when same seed ⇒ same
    /// run) or by **feeding** (`false`: journaled answers are fed straight
    /// into the labelers without touching the backend, and only the
    /// remainder is posted — the only option when answers come from the
    /// outside world).
    fn deterministic_replay(&self) -> bool;
}

/// The factory of the simulated-crowd path: one deterministic [`Platform`]
/// per shard, virtual time, re-execution replay. [`Default`]-constructible
/// because it carries no state beyond the shared [`VirtualClock`].
#[derive(Debug, Default)]
pub struct SimFactory {
    clock: VirtualClock,
}

impl SimFactory {
    /// A simulator factory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl BackendFactory for SimFactory {
    type Backend = Platform;

    fn create(&self, cfg: &PlatformConfig, _shard: &ShardContext) -> Platform {
        Platform::new(cfg.clone())
    }

    fn time_source(&self) -> &dyn TimeSource {
        &self.clock
    }

    fn deterministic_replay(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::drain;

    fn tasks(n: usize) -> Vec<TaskSpec> {
        (0..n).map(|i| TaskSpec { id: i as u64, truth: true, priority: 0.5 }).collect()
    }

    /// Driving a platform through the trait is the same as driving it
    /// directly — the bit-identity the engine's pinned suites rely on.
    #[test]
    fn trait_routed_platform_is_identical() {
        let mut direct = Platform::new(PlatformConfig::perfect_workers(7));
        direct.publish(tasks(50));
        let expected = drain(&mut direct);

        let factory = SimFactory::new();
        let shard = ShardContext { shard_index: 0, active_shards: 1 };
        let mut routed: Box<dyn CrowdBackend> =
            Box::new(factory.create(&PlatformConfig::perfect_workers(7), &shard));
        routed.post_hits(tasks(50));
        let mut batches = Vec::new();
        while let Some(t) = routed.next_event_time() {
            if let Some(batch) = routed.poll_completions(t) {
                batches.push(batch);
            }
        }
        assert_eq!(batches, expected);
        assert_eq!(routed.stats(), direct.stats());
        assert_eq!(routed.now(), direct.now());
        assert_eq!(routed.num_unresolved_pairs(), 0);
        assert!(factory.deterministic_replay());
    }

    /// The default `absorb_replayed_cost` is a no-op (re-execution replay
    /// regenerates spend); `warp_to` keeps its platform semantics.
    #[test]
    fn platform_trait_defaults() {
        let mut p = Platform::new(PlatformConfig::perfect_workers(5));
        CrowdBackend::absorb_replayed_cost(&mut p, 999);
        assert_eq!(CrowdBackend::stats(&p).total_cost_cents, 0);
        CrowdBackend::warp_to(&mut p, VirtualTime(1234));
        assert_eq!(CrowdBackend::now(&p), VirtualTime(1234));
        assert_eq!(CrowdBackend::batch_size(&p), 20);
    }
}
