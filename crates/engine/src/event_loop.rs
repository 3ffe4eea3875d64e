//! The cooperative event loop: multiplexes many [`ShardTask`] state
//! machines over a bounded worker pool, with an optional re-sharding
//! barrier between publish rounds.
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
//! returns, so shard count is limited by memory, not threads.
//!
//! ## Dynamic re-sharding
//!
//! With [`crate::EngineConfig::reshard`] set, a task that drains its
//! platform at a round boundary *parks* instead of republishing. Once every
//! task is done or parked (a deterministic global barrier — no worker can
//! make progress), the loop retires the parked tasks, re-runs
//! [`partition_candidates`] over the pairs of still-open components, and
//! packs them into fewer shards as the working set shrinks (components that
//! collapsed early drop out entirely). Each merged shard gets a fresh
//! platform warped to the barrier's virtual time and a labeler re-seeded
//! with the already-paid-for crowd answers, so no deduction potential and
//! no money is lost. Fewer, fuller shards mean later rounds pack full HITs
//! instead of per-shard partial ones — directly shrinking
//! [`crate::EngineReport::partial_hit_waste`].
//!
//! ## Journaling
//!
//! A journaled run ([`crate::EngineConfig::journal`] /
//! [`crate::Engine::resume`]) threads one shared
//! [`crowdjoin_wal::Journal`] sink through the loop. The per-shard
//! journaling points live in [`ShardTask`]; the loop itself owns the two
//! global record kinds: an fsynced [`crowdjoin_wal::GenerationRecord`] at
//! every re-sharding barrier (before the merged generation's tasks are
//! enqueued) and one [`crowdjoin_wal::CompleteRecord`] when the job
//! finishes. On resume the loop hands each task the journaled replay queue
//! for its report index, and the deterministic re-execution consumes those
//! queues exactly — any leftover is a divergence and panics loudly.

use crate::engine::EngineConfig;
use crate::partition::{partition_candidates, Partition};
use crate::report::{EngineReport, ShardReport};
use crate::scheduler::effective_threads;
use crate::task::{ShardState, ShardTask};
use crowdjoin_core::{Label, Pair, ParallelLabeler, ScoredPair};
use crowdjoin_sim::{BackendFactory, CrowdBackend, PlatformConfig, ShardContext, VirtualTime};
use crowdjoin_util::{derive_seed, FxHashMap};
use crowdjoin_wal as wal;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

/// Derives the platform configuration for one shard of a generation: a
/// deterministic per-shard seed, and an even split of the configured crowd
/// across the generation's `active_shards` platforms (floored at
/// `assignments_per_hit` so HITs can still resolve).
///
/// Generation 0's derivation is part of every journal's history: changing
/// it changes the simulated crowd of every journaled job.
pub(crate) fn shard_platform_config(
    base: &PlatformConfig,
    engine: &EngineConfig,
    generation: usize,
    shard_index: usize,
    active_shards: usize,
) -> PlatformConfig {
    PlatformConfig {
        seed: derive_seed(
            engine.seed ^ base.seed,
            shard_index as u64 | ((generation as u64) << 40),
        ),
        num_workers: (base.num_workers / active_shards.max(1))
            .max(base.assignments_per_hit as usize),
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
    /// Tasks waiting at the re-sharding barrier.
    parked: Vec<ShardTask<B>>,
    /// Tasks currently held by workers.
    inflight: usize,
    /// Tasks not yet `Done` (in the heap, in flight, or parked).
    active: usize,
    /// Completed shard reports (current and retired generations).
    finished: Vec<ShardReport>,
    /// Allocator for report indices across generations.
    next_report_index: usize,
    /// Re-sharding generations performed so far.
    generations: usize,
    /// Replay queues of shard incarnations not yet created (consumed at
    /// task creation; must be empty when the loop finishes).
    replay_shards: std::collections::BTreeMap<u32, VecDeque<wal::ShardEvent>>,
    /// Journaled re-sharding barriers to verify instead of re-append.
    replay_generations: VecDeque<wal::GenerationRecord>,
}

/// Everything workers need by reference.
struct LoopCtx<'a, F: BackendFactory> {
    /// Ground-truth answer of a global pair, handed to the backends.
    truth_of: &'a (dyn Fn(Pair) -> bool + Sync),
    /// Creates the per-shard backends and owns the clock workers wait on.
    factory: &'a F,
    platform_cfg: &'a PlatformConfig,
    engine_cfg: &'a EngineConfig,
    num_objects: usize,
    initial_shards: usize,
    total_pairs: usize,
    /// Position of each pair in the caller's global labeling order, so
    /// re-sharding can merge open pairs back into that exact order (the
    /// order encodes the sort strategy — it decides which pairs get
    /// crowdsourced vs deduced and must survive the barrier).
    order_position: FxHashMap<Pair, usize>,
    /// Answer-journal sink of a journaled run.
    journal: Option<Arc<wal::Journal>>,
}

/// Runs a partitioned workload on the event loop and stitches the merged
/// report. The entry point behind [`crate::Engine::run_with_backend`] and
/// [`crate::run_with_oracle`]; `order` is the same global labeling order
/// the partition was built from, `factory` creates the per-shard
/// [`CrowdBackend`]s and owns the [`crowdjoin_sim::TimeSource`] workers
/// wait on.
#[allow(clippy::too_many_arguments)] // crate-internal; two callers in engine.rs
pub(crate) fn run_event_loop<F: BackendFactory>(
    num_objects: usize,
    order: &[ScoredPair],
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
    let (sink, replay_shards, replay_generations, journal_complete) = match journal {
        Some(j) => (Some(j.sink), j.plan.shards, j.plan.generations, j.plan.complete),
        None => (None, std::collections::BTreeMap::new(), VecDeque::new(), None),
    };
    if shards.is_empty() {
        let mut report = EngineReport::from_shards(Vec::new(), num_components);
        report.fed_replay = !deterministic;
        journal_completion(sink.as_deref(), journal_complete, &report, deterministic);
        return report;
    }

    let initial_shards = shards.len();
    let total_pairs: usize = shards.iter().map(|s| s.pairs.len()).sum();
    let workers = effective_threads(engine_cfg.num_threads, initial_shards);

    let mut state = LoopState {
        heap: BinaryHeap::with_capacity(initial_shards),
        slots: Vec::with_capacity(initial_shards),
        parked: Vec::new(),
        inflight: 0,
        active: 0,
        finished: Vec::new(),
        next_report_index: initial_shards,
        generations: 0,
        replay_shards,
        replay_generations,
    };
    for shard in shards {
        let cfg = shard_platform_config(platform_cfg, engine_cfg, 0, shard.index, initial_shards);
        let index = shard.index;
        let shard_ctx = ShardContext {
            generation: 0,
            shard_index: index,
            active_shards: initial_shards,
            report_index: index,
        };
        let backend = factory.create(&cfg, &shard_ctx);
        let mut task = ShardTask::new(shard, backend, engine_cfg.instant_decision, index);
        if sink.is_some() {
            let replay = state.replay_shards.remove(&(index as u32)).unwrap_or_default();
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

    // Only the re-sharding barrier reads the position map; don't pay the
    // O(total pairs) build on default (reshard-off) runs.
    let order_position: FxHashMap<Pair, usize> = if engine_cfg.reshard {
        order.iter().enumerate().map(|(i, sp)| (sp.pair, i)).collect()
    } else {
        FxHashMap::default()
    };
    let ctx = LoopCtx {
        truth_of,
        factory,
        platform_cfg,
        engine_cfg,
        num_objects,
        initial_shards,
        total_pairs,
        order_position,
        journal: sink.clone(),
    };
    let state = Mutex::new(state);
    let cv = Condvar::new();
    if workers <= 1 {
        worker_loop(&state, &cv, &ctx);
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| worker_loop(&state, &cv, &ctx));
            }
        });
    }

    let state = state.into_inner().expect("event loop mutex poisoned");
    debug_assert_eq!(state.active, 0);
    assert!(
        state.replay_shards.is_empty(),
        "journal divergence: journal holds records for {} shard incarnation(s) the resumed \
         run never created",
        state.replay_shards.len()
    );
    assert!(
        state.replay_generations.is_empty(),
        "journal divergence: {} journaled re-sharding barrier(s) were never re-derived",
        state.replay_generations.len()
    );
    let mut reports = state.finished;
    reports.sort_unstable_by_key(|r| r.shard);

    // `from_shards` takes completion as the per-shard maximum — the
    // virtual-time critical path (re-sharded generations warp past their
    // predecessors, so the maximum spans incarnations too).
    let mut report = EngineReport::from_shards(reports, num_components);
    report.reshard_generations = state.generations;
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
/// clock), advance it outside the lock, and park or finish it — or, while
/// its next wake is still no later than the heap's earliest, keep advancing
/// it rather than requeue it for another worker (a hot task bouncing
/// between cores costs more than it overlaps). Runs the re-sharding
/// barrier when no task can progress otherwise.
fn worker_loop<F: BackendFactory>(
    state: &Mutex<LoopState<F::Backend>>,
    cv: &Condvar,
    ctx: &LoopCtx<'_, F>,
) {
    let park_on_idle = ctx.engine_cfg.reshard;
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
        if let Some((wake, slot, mut task)) = next {
            drop(st);

            // Wall-clock backends schedule polls in the future; sleep until
            // the deadline instead of busy-polling. Virtual time returns
            // immediately — polling is what advances it. Waits that really
            // slept (≥ 1ms of wall time) are traced as scheduling gaps;
            // virtual-time no-op waits would only be noise.
            if crowdjoin_obs::enabled() {
                let start = crowdjoin_obs::recorder::wall_micros();
                ctx.factory.time_source().wait_until(wake);
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
                ctx.factory.time_source().wait_until(wake);
            }

            let mut guard = AdvanceGuard { state, cv, armed: true };
            task.advance(ctx.truth_of, park_on_idle, &mut |_, _, _| {});
            guard.armed = false;

            st = state.lock().expect("event loop mutex poisoned");
            st.inflight -= 1;
            match task.state() {
                ShardState::Done => {
                    st.active -= 1;
                    st.finished.push(task.into_report());
                    // Termination and the reshard barrier gate on
                    // `active`/`inflight`; every waiter must re-check.
                    cv.notify_all();
                }
                ShardState::Parked => {
                    st.parked.push(task);
                    cv.notify_all();
                }
                _ => {
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
            continue;
        }
        // Nothing runnable. If peers are mid-advance they may requeue work
        // (or park); wait for them. Otherwise every remaining task is
        // parked: this is the deterministic re-sharding barrier.
        if st.inflight > 0 {
            st = cv.wait(st).expect("event loop mutex poisoned");
            continue;
        }
        if !st.parked.is_empty() {
            reshard(&mut st, ctx);
            cv.notify_all();
        }
    }
}

/// The re-sharding barrier: retire every parked task, repartition the pairs
/// of still-open components into fewer shards (proportional to how much
/// work remains), and enqueue the merged generation on fresh backends that
/// continue the virtual timeline.
fn reshard<F: BackendFactory>(st: &mut LoopState<F::Backend>, ctx: &LoopCtx<'_, F>) {
    st.generations += 1;
    let parked = std::mem::take(&mut st.parked);
    st.active -= parked.len();
    let barrier = parked.iter().map(ShardTask::platform_now).max().unwrap_or(VirtualTime::ZERO);
    // The merged generation runs strictly after every parked round, so its
    // rounds chain onto the deepest critical path retired here.
    let barrier_rounds = parked.iter().map(ShardTask::total_rounds).max().unwrap_or(0);

    let mut open_pairs: Vec<ScoredPair> = Vec::new();
    let mut known: FxHashMap<Pair, Label> = FxHashMap::default();
    for task in parked {
        let retired = task.retire();
        st.finished.push(retired.report);
        open_pairs.extend(retired.open_pairs);
        known.extend(retired.known);
    }
    // Merge open pairs back into the caller's global labeling order: the
    // order encodes the sort strategy (it decides which pairs are
    // crowdsourced vs deduced within a component), so the barrier must not
    // impose its own.
    open_pairs.sort_unstable_by_key(|sp| ctx.order_position[&sp.pair]);

    // Merge shards as the working set shrinks: aim for at least a full
    // HIT's worth of pairs per shard (otherwise every merged shard still
    // flushes a tiny partial HIT each round), and never exceed the initial
    // pairs-per-shard balance. Shard count is sized to the *predicted
    // next-round publishable count*, not
    // the raw open-pair count — most open pairs are held as deducible, so
    // raw count over-provisions shards that then flush partial HITs.
    let publishable = predict_publishable(ctx, &open_pairs, &known);
    let min_load = ctx.total_pairs.div_ceil(ctx.initial_shards).max(ctx.platform_cfg.batch_size);
    let target = publishable.div_ceil(min_load.max(1)).clamp(1, ctx.initial_shards);
    let partition = partition_candidates(ctx.num_objects, &open_pairs, target);
    let active_shards = partition.shards.len().max(1);

    if crowdjoin_obs::enabled() {
        crowdjoin_obs::EventBuilder::new("engine", "engine.reshard", crowdjoin_obs::NO_SHARD)
            .virt(barrier.0)
            .field("generation", st.generations)
            .field("shards", active_shards)
            .field("open_pairs", open_pairs.len())
            .field("publishable", publishable)
            .field("rounds", barrier_rounds)
            .emit();
    }

    // The generation record goes to the journal before any merged task can
    // append an answer, so a journal always reads `…gen-N answers,
    // generation barrier, gen-N+1 answers…` in order.
    if ctx.journal.is_some() || !st.replay_generations.is_empty() {
        let record = wal::GenerationRecord {
            generation: st.generations as u32,
            shards: active_shards as u32,
            time: barrier.0,
            rounds: barrier_rounds as u32,
            open_pairs: open_pairs.len() as u64,
        };
        match st.replay_generations.pop_front() {
            Some(journaled) => assert_eq!(
                journaled, record,
                "journal divergence: re-sharding barrier {} does not match the journaled one",
                st.generations
            ),
            None => {
                if let Some(sink) = &ctx.journal {
                    sink.append_durable(&wal::Record::Generation(record))
                        .expect("generation journal append failed");
                }
            }
        }
    }

    for shard in partition.shards {
        let cfg = shard_platform_config(
            ctx.platform_cfg,
            ctx.engine_cfg,
            st.generations,
            shard.index,
            active_shards,
        );
        let report_index_for_ctx = st.next_report_index;
        let shard_ctx = ShardContext {
            generation: st.generations,
            shard_index: shard.index,
            active_shards,
            report_index: report_index_for_ctx,
        };
        let mut platform = ctx.factory.create(&cfg, &shard_ctx);
        platform.warp_to(barrier);
        let mut labeler = ParallelLabeler::new(shard.num_objects(), shard.pairs.clone());
        for sp in &shard.pairs {
            if let Some(&label) = known.get(&shard.to_global(sp.pair)) {
                labeler.seed_known(sp.pair, label);
            }
        }
        let report_index = report_index_for_ctx;
        st.next_report_index += 1;
        let mut task = ShardTask::resume(
            shard,
            labeler,
            platform,
            ctx.engine_cfg.instant_decision,
            report_index,
            barrier_rounds,
        );
        if ctx.journal.is_some() {
            // Journaled re-sharding runs are deterministic by construction
            // (the engine refuses the journal+reshard combination for
            // feed-replay backends), so this is always verify-mode replay.
            let replay = st.replay_shards.remove(&(report_index as u32)).unwrap_or_default();
            task.attach_journal(ctx.journal.clone(), replay);
        }
        enqueue(st, task);
    }
}

/// Predicts how many of the merged generation's open pairs would be
/// published in its first round: a throwaway labeler
/// over the global open-pair order, seeded with every already-paid-for
/// answer, asked for one batch. Deterministic (pure function of the barrier
/// state and the engine config), so journal replay re-derives the same
/// shard target.
fn predict_publishable<F: BackendFactory>(
    ctx: &LoopCtx<'_, F>,
    open_pairs: &[ScoredPair],
    known: &FxHashMap<Pair, Label>,
) -> usize {
    let mut probe = ParallelLabeler::new(ctx.num_objects, open_pairs.to_vec());
    for sp in open_pairs {
        if let Some(&label) = known.get(&sp.pair) {
            probe.seed_known(sp.pair, label);
        }
    }
    probe.next_batch().len()
}
