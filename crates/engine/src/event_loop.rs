//! The cooperative event loop: multiplexes many [`ShardTask`] state
//! machines over a bounded worker pool.
//!
//! ## Scheduling
//!
//! Every task exposes the virtual time at which it next needs attention
//! ([`ShardTask::next_wake`]); the loop keeps tasks in a min-heap on that
//! time and workers always advance the task with the earliest pending
//! event. Shards are disjoint workloads, so per-shard outcomes are
//! independent of worker count and interleaving — the loop drives thousands
//! of shards to the *same* labels, costs, and completion times on one, two
//! or four threads (pinned by `tests/event_loop.rs`). Workers never block
//! on a backend: one
//! [`ShardTask::advance`] call does a bounded amount of simulation and
//! returns, so shard count is limited by memory, not threads. A task's
//! lifecycle ends at [`ShardState::Done`]; the loop ends when every task
//! has.
//!
//! ## Journaling
//!
//! A journaled run ([`crate::EngineConfig::journal`] /
//! [`crate::Engine::resume`]) threads one shared
//! [`crowdjoin_wal::Journal`] sink through the loop. The per-shard
//! journaling points live in [`ShardTask`]; the loop itself owns the one
//! global record, the [`crowdjoin_wal::CompleteRecord`] appended when the
//! job finishes. On resume the loop hands each task the journaled replay
//! queue for its shard index, and the deterministic re-execution consumes
//! those queues exactly — any leftover is a divergence and panics loudly.

use crate::engine::EngineConfig;
use crate::partition::Partition;
use crate::report::{EngineReport, ShardReport};
use crate::scheduler::effective_threads;
use crate::task::{ShardState, ShardTask};
use crowdjoin_core::Pair;
use crowdjoin_sim::{BackendFactory, CrowdBackend, PlatformConfig, ShardContext, VirtualTime};
use crowdjoin_util::derive_seed;
use crowdjoin_wal as wal;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

/// Derives the platform configuration for one shard: a deterministic
/// per-shard seed, and an even split of the configured crowd across the
/// job's `num_shards` platforms (floored at `assignments_per_hit` so HITs
/// can still resolve).
///
/// The derivation is part of every journal's history: changing it changes
/// the simulated crowd of every journaled job.
fn shard_platform_config(
    base: &PlatformConfig,
    engine: &EngineConfig,
    shard_index: usize,
    num_shards: usize,
) -> PlatformConfig {
    PlatformConfig {
        seed: derive_seed(engine.seed ^ base.seed, shard_index as u64),
        num_workers: (base.num_workers / num_shards.max(1)).max(base.assignments_per_hit as usize),
        ..base.clone()
    }
}

/// A journal attached to one event-loop run: the append sink plus the
/// replay queues of a resumed journal (all empty for a fresh journaled
/// run).
pub(crate) struct JournalRun {
    /// Shared append sink; tasks and the loop clone the `Arc`.
    pub sink: Arc<wal::Journal>,
    /// Journaled history to verify instead of re-append, split per shard.
    pub plan: wal::ReplayPlan,
}

/// Shared mutable scheduler state (behind one mutex; workers hold it only
/// between advances, never while simulating).
struct LoopState<B: CrowdBackend> {
    /// Min-heap of `(wake time, slot)`; the slot index breaks ties
    /// deterministically.
    heap: BinaryHeap<Reverse<(VirtualTime, usize)>>,
    /// Slot-indexed task storage; `None` while a worker holds the task or
    /// after it finished.
    slots: Vec<Option<ShardTask<B>>>,
    /// Tasks currently held by workers.
    inflight: usize,
    /// Tasks not yet `Done` (in the heap or in flight).
    active: usize,
    /// Completed shard reports.
    finished: Vec<ShardReport>,
}

/// Runs a partitioned workload on the event loop and stitches the merged
/// report. The entry point behind [`crate::Engine::run_with_backend`] and
/// [`crate::run_with_oracle`]; `factory` creates the per-shard
/// [`CrowdBackend`]s and owns the [`crowdjoin_sim::TimeSource`] workers
/// wait on.
pub(crate) fn run_event_loop<F: BackendFactory>(
    partition: Partition,
    truth_of: &(dyn Fn(Pair) -> bool + Sync),
    factory: &F,
    platform_cfg: &PlatformConfig,
    engine_cfg: &EngineConfig,
    journal: Option<JournalRun>,
) -> EngineReport {
    let deterministic = factory.deterministic_replay();
    let num_components = partition.num_components;
    let shards = partition.shards;
    let (sink, mut replay_shards, journal_complete) = match journal {
        Some(j) => (Some(j.sink), j.plan.shards, j.plan.complete),
        None => (None, std::collections::BTreeMap::new(), None),
    };
    if shards.is_empty() {
        let mut report = EngineReport::from_shards(Vec::new(), num_components);
        report.fed_replay = !deterministic;
        journal_completion(sink.as_deref(), journal_complete, &report, deterministic);
        return report;
    }

    let num_shards = shards.len();
    let workers = effective_threads(engine_cfg.num_threads, num_shards);

    let mut state = LoopState {
        heap: BinaryHeap::with_capacity(num_shards),
        slots: Vec::with_capacity(num_shards),
        inflight: 0,
        active: 0,
        finished: Vec::new(),
    };
    for shard in shards {
        let index = shard.index;
        let cfg = shard_platform_config(platform_cfg, engine_cfg, index, num_shards);
        let shard_ctx = ShardContext { shard_index: index, active_shards: num_shards };
        let backend = factory.create(&cfg, &shard_ctx);
        let mut task = ShardTask::new(shard, backend, engine_cfg.instant_decision);
        if sink.is_some() {
            let replay = replay_shards.remove(&(index as u32)).unwrap_or_default();
            if deterministic {
                task.attach_journal(sink.clone(), replay);
            } else {
                // Non-deterministic backends cannot re-execute history:
                // journaled answers are fed to the labeler and only new
                // records append.
                task.feed_replay(replay);
                task.attach_journal(sink.clone(), VecDeque::new());
            }
        }
        enqueue(&mut state, task);
    }
    assert!(
        replay_shards.is_empty(),
        "journal divergence: journal holds records for {} shard(s) the resumed run never \
         created",
        replay_shards.len()
    );

    let state = Mutex::new(state);
    let cv = Condvar::new();
    if workers <= 1 {
        worker_loop(&state, &cv, truth_of, factory);
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| worker_loop(&state, &cv, truth_of, factory));
            }
        });
    }

    let state = state.into_inner().expect("event loop mutex poisoned");
    debug_assert_eq!(state.active, 0);
    let mut reports = state.finished;
    reports.sort_unstable_by_key(|r| r.shard);

    // `from_shards` takes completion as the per-shard maximum — the
    // virtual-time critical path.
    let mut report = EngineReport::from_shards(reports, num_components);
    report.fed_replay = !deterministic;
    journal_completion(sink.as_deref(), journal_complete, &report, deterministic);
    report
}

/// Appends (or, on a resume whose journal already ends with one, verifies)
/// the job-completion record.
///
/// Under re-execution replay (`deterministic`) the whole record must match
/// bit-for-bit — answers, money, completion time. Under feed replay the
/// backend's counters only cover what *this* run posted, so the answer
/// total is `replayed + new`, money is checked against the absorbed
/// ledger, and the completion time — wall-clock, different every run — is
/// not compared.
///
/// # Panics
///
/// Panics on journal divergence or I/O failure.
fn journal_completion(
    sink: Option<&wal::Journal>,
    journaled: Option<wal::CompleteRecord>,
    report: &EngineReport,
    deterministic: bool,
) {
    let Some(sink) = sink else { return };
    // `num_crowd_answers` is replay-mode aware (via `fed_replay`), so this
    // is the whole-job answer count either way.
    let record = wal::CompleteRecord {
        answers: report.num_crowd_answers() as u64,
        cost_cents: report.total_cost_cents,
        completion: report.completion.0,
    };
    match journaled {
        Some(j) if deterministic => assert_eq!(
            j, record,
            "journal divergence: the resumed run finished with different totals than the \
             journaled completion record"
        ),
        Some(j) => {
            assert_eq!(
                (j.answers, j.cost_cents),
                (record.answers, record.cost_cents),
                "journal divergence: the fed-replay resume finished with different \
                 answer/money totals than the journaled completion record"
            );
        }
        None => sink
            .append_durable(&wal::Record::Complete(record))
            .expect("completion journal append failed"),
    }
}

/// Inserts a task into the scheduler (or straight into `finished` when it
/// completed at construction, e.g. an empty workload).
fn enqueue<B: CrowdBackend>(state: &mut LoopState<B>, task: ShardTask<B>) {
    match task.next_wake() {
        Some(wake) => {
            let slot = state.slots.len();
            state.slots.push(Some(task));
            state.heap.push(Reverse((wake, slot)));
            state.active += 1;
        }
        None => {
            debug_assert_eq!(task.state(), ShardState::Done);
            state.finished.push(task.into_report());
        }
    }
}

/// Restores scheduler counters if [`ShardTask::advance`] panics while the
/// mutex is unlocked: the task is lost, but peers must see consistent
/// `inflight`/`active` so they can drain the remaining shards and let the
/// thread scope re-raise the panic — instead of waiting forever on a count
/// that will never reach zero.
struct AdvanceGuard<'a, B: CrowdBackend> {
    state: &'a Mutex<LoopState<B>>,
    cv: &'a Condvar,
    armed: bool,
}

impl<B: CrowdBackend> Drop for AdvanceGuard<'_, B> {
    fn drop(&mut self) {
        if self.armed {
            if let Ok(mut st) = self.state.lock() {
                st.inflight -= 1;
                st.active -= 1;
            }
            self.cv.notify_all();
        }
    }
}

/// One worker: pop the earliest-event task, wait out its deadline on the
/// factory's time source (a no-op on virtual time, a real sleep on wall
/// clock), advance it outside the lock, and requeue or finish it — or, while
/// its next wake is still no later than the heap's earliest, keep advancing
/// it rather than requeue it for another worker (a hot task bouncing
/// between cores costs more than it overlaps). `truth_of` is the
/// ground-truth answer of a global pair, handed to the backends.
fn worker_loop<F: BackendFactory>(
    state: &Mutex<LoopState<F::Backend>>,
    cv: &Condvar,
    truth_of: &(dyn Fn(Pair) -> bool + Sync),
    factory: &F,
) {
    let mut st = state.lock().expect("event loop mutex poisoned");
    // The task this worker keeps advancing, counted in `inflight`.
    let mut held = None;
    loop {
        if st.active == 0 {
            cv.notify_all();
            return;
        }
        let next = held.take().or_else(|| {
            let Reverse((wake, slot)) = st.heap.pop()?;
            let task = st.slots[slot].take().expect("scheduled slot must hold a task");
            st.inflight += 1;
            Some((wake, slot, task))
        });
        let Some((wake, slot, mut task)) = next else {
            // Nothing runnable: every active task is mid-advance on a peer,
            // which will requeue or finish it.
            debug_assert!(st.inflight > 0, "active tasks must be queued or in flight");
            st = cv.wait(st).expect("event loop mutex poisoned");
            continue;
        };
        drop(st);

        // Wall-clock backends schedule polls in the future; sleep until
        // the deadline instead of busy-polling. Virtual time returns
        // immediately — polling is what advances it. Waits that really
        // slept (≥ 1ms of wall time) are traced as scheduling gaps;
        // virtual-time no-op waits would only be noise.
        if crowdjoin_obs::enabled() {
            let start = crowdjoin_obs::recorder::wall_micros();
            factory.time_source().wait_until(wake);
            let dur = crowdjoin_obs::recorder::wall_micros().saturating_sub(start);
            if dur >= 1000 {
                crowdjoin_obs::record(crowdjoin_obs::TraceEvent {
                    kind: "loop.wait",
                    cat: "engine",
                    shard: crowdjoin_obs::NO_SHARD,
                    tid: crowdjoin_obs::recorder::thread_ordinal(),
                    wall_us: start,
                    dur_us: Some(dur),
                    virt_ms: Some(wake.0),
                    fields: vec![("slot", crowdjoin_obs::FieldValue::U64(slot as u64))],
                });
            }
        } else {
            factory.time_source().wait_until(wake);
        }

        let mut guard = AdvanceGuard { state, cv, armed: true };
        task.advance(truth_of, &mut |_, _, _| {});
        guard.armed = false;

        st = state.lock().expect("event loop mutex poisoned");
        st.inflight -= 1;
        if task.state() == ShardState::Done {
            st.active -= 1;
            st.finished.push(task.into_report());
            // Termination gates on `active`; every waiter must re-check.
            cv.notify_all();
            continue;
        }
        let wake = task.next_wake().expect("active task must have a wake time");
        if st.heap.peek().is_none_or(|&Reverse((earliest, _))| wake <= earliest) {
            st.inflight += 1;
            held = Some((wake, slot, task));
            continue;
        }
        st.slots[slot] = Some(task);
        st.heap.push(Reverse((wake, slot)));
        // Exactly one unit of work appeared; one waiter suffices.
        cv.notify_one();
    }
}
