//! The per-shard non-blocking state machine driven by the event loop.
//!
//! [`ShardTask`] is the one driver of a labeler against a crowd: the event
//! loop advances one per shard (simulator, external or oracle backend), and
//! the paper-figure runner advances one whole-universe task over its own
//! platform. Instead of monopolizing a worker thread while its platform
//! simulates, a task exposes *when* it next needs attention
//! ([`ShardTask::next_wake`]) and does a bounded amount of work per
//! [`ShardTask::advance`] call. The event loop can therefore multiplex
//! thousands of shards over a handful of workers, always advancing the
//! shard with the earliest pending virtual event.
//!
//! The state machine:
//!
//! ```text
//! Publishing ──publish round──▶ AwaitingCrowd ──resolution──▶ Deducing
//!     ▲                               ▲       (feed answers)    │ │ │
//!     │ platform idle                 └─────publish / wait──────┘ │ │
//!     │ (defensive republish)                                     │ │
//!     └───────────────◀── all labeled ──▶ Done ◀──────────────────┘ │
//!                                                                   │
//!              round fully resolved + parking requested ──▶ Parked ─┘
//!                                       (re-sharding barrier)
//! ```
//!
//! Transition policy: the first round flushes unconditionally, *instant
//! decision* recomputes the publishable set after every HIT resolution,
//! partial HITs flush only when the platform would otherwise idle, and an
//! idle platform with an incomplete labeler must always yield a non-empty
//! batch. This is the paper's blocking publish–wait–re-decide loop, cut at
//! its waits; a `#[cfg(test)]` copy of that loop pins the equivalence
//! (`task_matches_blocking_driver_exactly`).
//!
//! ## Journaling points (crash safety)
//!
//! With a journal attached ([`ShardTask::attach_journal`]) the state
//! machine becomes a write-ahead logger at exactly two points:
//!
//! * entering `Deducing`, every resolution in the batch is appended as an
//!   [`crowdjoin_wal::AnswerRecord`] **before** any answer is fed to the
//!   labeler — the WAL discipline: a paid answer is durable before its
//!   effects (deductions, the next publish decision) exist anywhere;
//! * a drained platform at a round boundary (the `AwaitingCrowd` →
//!   `Publishing`/`Parked`/`Done` transition) appends an fsynced
//!   [`crowdjoin_wal::BarrierRecord`] snapshotting the platform's full
//!   counters, making every round a durable, verifiable recovery point.
//!
//! On resume the same two points run in reverse — in one of two modes,
//! chosen by the backend's
//! [`crowdjoin_sim::BackendFactory::deterministic_replay`]:
//!
//! * **re-execution** (deterministic backends, i.e. the simulator): while
//!   the journaled replay queue is non-empty, each produced record is
//!   checked bit-for-bit against the journal (pair, label, votes, virtual
//!   time, money) instead of being re-appended, and any divergence panics
//!   loudly rather than silently forking history;
//! * **feeding** ([`ShardTask::feed_replay`], external backends): the
//!   journaled answers are seeded straight into the labeler before the
//!   state machine starts, so the backend is never asked them again —
//!   re-execution is impossible when the answers came from the outside
//!   world.
//!
//! Either way the task counts replayed answers so the engine can report
//! how much of the run was already paid for.
//!
//! ## Task ids
//!
//! The task id handed to the backend encodes the **global pair** —
//! `(a << 32) | b` — so external backends can render the actual question
//! (which two records?) without any side channel. Backends must treat ids
//! as opaque; the simulator does.

use crate::partition::Shard;
use crate::persist::snapshot_of;
use crate::report::{RoundMetric, ShardReport};
use crowdjoin_core::{Label, LabelingResult, Pair, ParallelLabeler, Provenance, ScoredPair};
use crowdjoin_graph::UnionFind;
use crowdjoin_sim::{CrowdBackend, HitStager, ResolvedTask, TaskSpec, VirtualTime};
use crowdjoin_util::{FxHashMap, FxHashSet};
use crowdjoin_wal::{AnswerRecord, BarrierRecord, Journal, Record, ShardEvent};
use std::collections::VecDeque;
use std::sync::Arc;

/// Packs a (global) pair into the task id posted to the backend, making
/// every posted task self-describing — see the module docs.
#[must_use]
pub fn pair_task_id(pair: Pair) -> u64 {
    (u64::from(pair.a()) << 32) | u64::from(pair.b())
}

/// Inverse of [`pair_task_id`].
#[must_use]
pub fn task_id_pair(id: u64) -> Pair {
    Pair::new((id >> 32) as u32, (id & u32::MAX as u64) as u32)
}

/// Lifecycle state of a [`ShardTask`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// The labeler has publishable pairs to stage and release.
    Publishing,
    /// HITs are in flight; the task sleeps until the platform's next event.
    AwaitingCrowd,
    /// A resolution batch is being fed back into the labeler.
    Deducing,
    /// The platform drained at a round boundary and the task waits for the
    /// re-sharding barrier (only entered when parking is requested).
    Parked,
    /// Every pair is labeled; the task can be turned into a report.
    Done,
}

/// What remains of a parked shard when the re-sharding barrier retires it:
/// a report carrying everything already paid for and decided, plus the open
/// work (and its deduction context) to fold into the next generation.
#[derive(Debug)]
pub(crate) struct RetiredShard {
    /// Labels of fully-labeled components, this incarnation's platform
    /// stats (all money it spent, including on still-open components), and
    /// its publish rounds.
    pub report: ShardReport,
    /// Every pair of a component that still has unlabeled pairs, in global
    /// ids, preserving the shard's labeling order.
    pub open_pairs: Vec<ScoredPair>,
    /// Crowdsourced answers already obtained for `open_pairs` (global ids);
    /// seeding them into the next generation's labeler re-derives the
    /// deduced labels too.
    pub known: Vec<(Pair, Label)>,
}

/// A non-blocking shard state machine: labeler + crowd backend + staging
/// policy, advanced cooperatively by the event loop. Generic over the
/// [`CrowdBackend`] that answers its questions — the simulator platform on
/// virtual time, or any external backend on wall-clock time.
#[derive(Debug)]
pub struct ShardTask<B: CrowdBackend> {
    shard: Shard,
    labeler: ParallelLabeler,
    platform: B,
    stager: HitStager,
    ids: FxHashMap<u64, Pair>,
    instant_decision: bool,
    state: ShardState,
    /// Resolution batch stashed between `AwaitingCrowd` and `Deducing`.
    resolved: Vec<ResolvedTask>,
    /// Virtual time the stashed batch resolved at (journaled per answer).
    resolved_at: VirtualTime,
    /// Answer journal to append this task's records to, if the run is
    /// journaled.
    journal: Option<Arc<Journal>>,
    /// Journaled prefix of this shard's records, verified (not re-appended
    /// and not re-paid) as the resumed run re-derives them.
    replay: VecDeque<ShardEvent>,
    /// Answers consumed from `replay` so far.
    replayed_answers: usize,
    /// Cumulative platform spend covered by the last replayed record.
    replayed_cost_cents: u64,
    /// The initial publish round is exempt from the stuck assertion (an
    /// empty workload completes at construction instead).
    first_round: bool,
    /// Index under which this task reports (unique across re-sharding
    /// generations, unlike `shard.index` which restarts per generation).
    report_index: usize,
    /// Publish rounds already on this shard's critical path when the task
    /// was created — the sequential depth of the re-sharding generations
    /// behind it (0 for generation 0). Reported rounds are
    /// `base_rounds + own stager rounds`, so the job-level critical-path
    /// maximum counts chained generations sequentially, not as parallel
    /// shards.
    base_rounds: usize,
    /// Per-round telemetry, recorded at each publish release (pure
    /// bookkeeping over deterministic state — rolls up into
    /// [`ShardReport::rounds`], never feeds back into decisions).
    rounds: Vec<RoundMetric>,
    /// Peak simultaneously-unresolved published pairs.
    peak_unresolved: usize,
    /// Global metric handles (`--progress` reads these live).
    m_answers: std::sync::Arc<crowdjoin_obs::metrics::Counter>,
    /// Algorithm-3 scans run, `next_batch` calls skipped under the
    /// labeler's skip rule, positions visited by the scans run, and those
    /// of them decided afresh rather than replayed.
    m_scans: std::sync::Arc<crowdjoin_obs::metrics::Counter>,
    m_scans_skipped: std::sync::Arc<crowdjoin_obs::metrics::Counter>,
    m_scan_visits: std::sync::Arc<crowdjoin_obs::metrics::Counter>,
    m_scan_decisions: std::sync::Arc<crowdjoin_obs::metrics::Counter>,
    m_queue: std::sync::Arc<crowdjoin_obs::metrics::Gauge>,
}

/// Human-readable state name for trace events.
fn state_name(s: ShardState) -> &'static str {
    match s {
        ShardState::Publishing => "Publishing",
        ShardState::AwaitingCrowd => "AwaitingCrowd",
        ShardState::Deducing => "Deducing",
        ShardState::Parked => "Parked",
        ShardState::Done => "Done",
    }
}

impl<B: CrowdBackend> ShardTask<B> {
    /// Creates a task for a fresh shard on its own backend.
    #[must_use]
    pub fn new(shard: Shard, platform: B, instant_decision: bool, report_index: usize) -> Self {
        let labeler = ParallelLabeler::new(shard.num_objects(), shard.pairs.clone());
        Self::resume(shard, labeler, platform, instant_decision, report_index, 0)
    }

    /// Creates a task around an existing labeler (possibly pre-seeded with
    /// known answers by the re-sharding barrier), `base_rounds` publish
    /// rounds into the job's critical path.
    #[must_use]
    pub fn resume(
        shard: Shard,
        labeler: ParallelLabeler,
        platform: B,
        instant_decision: bool,
        report_index: usize,
        base_rounds: usize,
    ) -> Self {
        let state = if labeler.is_complete() { ShardState::Done } else { ShardState::Publishing };
        let shard_tag = report_index as u32;
        Self {
            shard,
            labeler,
            platform,
            stager: HitStager::for_shard(shard_tag),
            ids: FxHashMap::default(),
            instant_decision,
            state,
            resolved: Vec::new(),
            resolved_at: VirtualTime::ZERO,
            journal: None,
            replay: VecDeque::new(),
            replayed_answers: 0,
            replayed_cost_cents: 0,
            first_round: true,
            report_index,
            base_rounds,
            rounds: Vec::new(),
            peak_unresolved: 0,
            m_answers: crowdjoin_obs::counter("engine.answers", shard_tag),
            m_scans: crowdjoin_obs::counter("engine.scans", shard_tag),
            m_scans_skipped: crowdjoin_obs::counter("engine.scans_skipped", shard_tag),
            m_scan_visits: crowdjoin_obs::counter("engine.scan_visits", shard_tag),
            m_scan_decisions: crowdjoin_obs::counter("engine.scan_decisions", shard_tag),
            m_queue: crowdjoin_obs::gauge("engine.unresolved_pairs", shard_tag),
        }
    }

    /// Attaches the answer journal: every record this task produces is
    /// appended to `sink`, except while `replay` (the journaled prefix of
    /// this shard's records, from a crashed run) is non-empty — those are
    /// verified against the journal instead, so a resumed run never
    /// re-appends or re-pays what the journal already holds.
    pub fn attach_journal(&mut self, sink: Option<Arc<Journal>>, replay: VecDeque<ShardEvent>) {
        self.journal = sink;
        self.replay = replay;
    }

    /// Feed-mode replay for **non-deterministic** backends: seeds every
    /// journaled answer straight into the labeler (crowdsourced provenance,
    /// deduction deltas re-derived) without touching the backend, so a
    /// resumed run never re-posts a paid-for question. Journaled barriers
    /// advance the inherited round count and the covered-spend watermark;
    /// the total journaled spend is folded into the backend's ledger via
    /// [`CrowdBackend::absorb_replayed_cost`] so the job's money report
    /// stays whole-run. Conflicts a noisy history contained are *not*
    /// re-counted (the crashed run already reported them; labels and money
    /// replay exactly).
    ///
    /// Deterministic backends must not use this — their replay is the
    /// bit-verified re-execution of [`Self::attach_journal`].
    ///
    /// # Panics
    ///
    /// Panics if called after the task has started (or on a journal whose
    /// answers do not belong to this shard — inputs changed between run
    /// and resume in a way the header fingerprint could not catch).
    pub fn feed_replay(&mut self, events: VecDeque<ShardEvent>) {
        assert!(
            self.first_round && self.stager.num_staged() == 0 && self.replay.is_empty(),
            "feed_replay must run before the task starts"
        );
        for event in events {
            match event {
                ShardEvent::Answer(a) => {
                    let global = Pair::new(a.a, a.b);
                    let local = self.shard.to_local(global).unwrap_or_else(|| {
                        panic!(
                            "journal divergence on shard {}: journaled answer {global} is not \
                             a pair of this shard",
                            self.report_index
                        )
                    });
                    let label = if a.matching { Label::Matching } else { Label::NonMatching };
                    self.labeler.seed_known(local, label);
                    self.replayed_answers += 1;
                    self.replayed_cost_cents = a.cost_cents;
                }
                ShardEvent::Barrier(b) => {
                    self.base_rounds = self.base_rounds.max(b.rounds as usize);
                    self.replayed_cost_cents = b.stats.total_cost_cents;
                }
            }
        }
        self.platform.absorb_replayed_cost(self.replayed_cost_cents);
        if self.labeler.is_complete() {
            self.state = ShardState::Done;
        }
    }

    /// Answers replayed from the journal so far (0 for non-resumed runs).
    #[must_use]
    pub fn replayed_answers(&self) -> usize {
        self.replayed_answers
    }

    /// Publish rounds on this shard's critical path so far: the sequential
    /// depth inherited from earlier generations plus this incarnation's own
    /// rounds.
    #[must_use]
    pub fn total_rounds(&self) -> usize {
        self.base_rounds + self.stager.publish_rounds()
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> ShardState {
        self.state
    }

    /// When this task next needs attention, in its platform's virtual time:
    /// the next platform event, or "now" when it has work ready (publishing,
    /// deducing, or an idle platform to republish into). `None` once done or
    /// parked.
    #[must_use]
    pub fn next_wake(&self) -> Option<VirtualTime> {
        match self.state {
            ShardState::Done | ShardState::Parked => None,
            ShardState::Publishing | ShardState::Deducing => Some(self.platform.now()),
            ShardState::AwaitingCrowd => {
                Some(self.platform.next_event_time().unwrap_or_else(|| self.platform.now()))
            }
        }
    }

    /// The task platform's current virtual time (the re-sharding barrier
    /// maximizes this over parked tasks).
    #[must_use]
    pub fn platform_now(&self) -> VirtualTime {
        self.platform.now()
    }

    /// Updates the state, emitting a `task.state` trace event when the
    /// transition is real and tracing is on (one relaxed load otherwise).
    fn set_state(&mut self, next: ShardState) {
        if crowdjoin_obs::enabled() && next != self.state {
            crowdjoin_obs::EventBuilder::new("engine", "task.state", self.report_index as u32)
                .virt(self.platform.now().0)
                .field("from", state_name(self.state))
                .field("to", state_name(next))
                .emit();
        }
        self.state = next;
    }

    /// Publishes staged pairs under a `backend.post` span and records the
    /// round's telemetry when anything went out.
    fn release_staged(&mut self, flush: bool) {
        let mut span =
            crowdjoin_obs::SpanGuard::new("engine", "backend.post", self.report_index as u32)
                .virt(self.platform.now().0);
        let published = self.stager.release(&mut self.platform, flush);
        span.set_field("pairs", published);
        drop(span);
        if published > 0 {
            let round = self.total_rounds();
            let result = self.labeler.result();
            let metric = RoundMetric {
                round,
                published,
                crowdsourced: result.num_crowdsourced(),
                deduced: result.num_deduced(),
                cost_cents: self.platform.stats().total_cost_cents,
                at: self.platform.now(),
            };
            self.rounds.push(metric);
        }
        self.note_queue_depth();
    }

    /// Tracks the crowd queue depth (peak for the report, gauge for live
    /// `--progress`).
    fn note_queue_depth(&mut self) {
        let depth = self.platform.num_unresolved_pairs();
        self.peak_unresolved = self.peak_unresolved.max(depth);
        self.m_queue.set(depth as i64);
    }

    /// The labeler's next batch, counted: per call, not per position.
    fn next_batch(&mut self) -> Vec<ScoredPair> {
        let scans = self.labeler.rescan_pending();
        let batch = self.labeler.next_batch();
        if scans {
            self.m_scans.add(1);
            self.m_scan_visits.add(self.labeler.order().len() as u64);
            self.m_scan_decisions.add(self.labeler.last_scan_decisions() as u64);
        } else {
            self.m_scans_skipped.add(1);
        }
        batch
    }

    fn stage(&mut self, batch: &[ScoredPair], truth_of: &(dyn Fn(Pair) -> bool + Sync)) {
        let tasks: Vec<TaskSpec> = batch
            .iter()
            .map(|sp| {
                let global = self.shard.to_global(sp.pair);
                let id = pair_task_id(global);
                self.ids.insert(id, sp.pair);
                TaskSpec { id, truth: truth_of(global), priority: sp.likelihood }
            })
            .collect();
        self.stager.stage(tasks);
    }

    /// Advances the state machine by one bounded step: publish a round, poll
    /// the platform up to its next event, or feed one resolution batch (and
    /// publish per the instant-decision policy). Returns with the task
    /// `Done`, `Parked` (re-sharding requested and the platform idled at a
    /// round boundary), or `AwaitingCrowd` with a fresh [`Self::next_wake`].
    ///
    /// `truth_of` supplies the ground-truth answer the simulator uses to
    /// synthesize worker responses, in **global** ids. `on_resolution`
    /// fires after each resolution batch is fed to the labeler and before
    /// the next publish, with `(crowdsourced so far, the backend, resolution
    /// time)`: the paper-figure runner samples the Figure 15 availability
    /// series there; the event loop passes a no-op.
    ///
    /// # Panics
    ///
    /// Panics if the labeler reports incomplete while the platform is idle
    /// and no batch is publishable — impossible for well-formed inputs.
    pub fn advance(
        &mut self,
        truth_of: &(dyn Fn(Pair) -> bool + Sync),
        park_on_idle: bool,
        on_resolution: &mut dyn FnMut(usize, &B, VirtualTime),
    ) {
        loop {
            match self.state {
                ShardState::Done | ShardState::Parked => return,
                ShardState::Publishing => {
                    let batch = self.next_batch();
                    self.stage(&batch, truth_of);
                    assert!(
                        self.first_round || self.stager.num_staged() > 0,
                        "labeler stuck: platform idle but only {} pairs labeled",
                        self.labeler.result().num_labeled()
                    );
                    self.first_round = false;
                    self.release_staged(true);
                    self.set_state(ShardState::AwaitingCrowd);
                    return;
                }
                ShardState::AwaitingCrowd => {
                    let Some(until) = self.platform.next_event_time() else {
                        // Platform drained at a round boundary: a durable,
                        // verifiable recovery point.
                        self.journal_round_boundary();
                        if self.labeler.is_complete() {
                            self.set_state(ShardState::Done);
                        } else if park_on_idle {
                            self.set_state(ShardState::Parked);
                        } else {
                            self.set_state(ShardState::Publishing);
                            continue;
                        }
                        return;
                    };
                    let mut poll_span = crowdjoin_obs::SpanGuard::new(
                        "engine",
                        "backend.poll",
                        self.report_index as u32,
                    )
                    .virt(until.0);
                    match self.platform.poll_completions(until) {
                        Some((at, resolved)) => {
                            poll_span.set_field("resolved", resolved.len());
                            drop(poll_span);
                            self.resolved = resolved;
                            self.resolved_at = at;
                            self.set_state(ShardState::Deducing);
                        }
                        // Events processed without a resolution; hand
                        // control back so the loop can reschedule fairly.
                        None => return,
                    }
                }
                ShardState::Deducing => {
                    let resolved = std::mem::take(&mut self.resolved);
                    // WAL discipline: every answer of the batch is durable
                    // (or verified against the journal) before any of them
                    // takes effect in the labeler.
                    self.journal_answers(&resolved);
                    for r in &resolved {
                        let pair = self.ids[&r.id];
                        let label = if r.label { Label::Matching } else { Label::NonMatching };
                        self.labeler.submit_answer(pair, label);
                    }
                    self.m_answers.add(resolved.len() as u64);
                    self.note_queue_depth();
                    let crowdsourced = self.labeler.result().num_crowdsourced();
                    on_resolution(crowdsourced, &self.platform, self.resolved_at);
                    if self.labeler.is_complete() {
                        self.set_state(ShardState::Done);
                        return;
                    }
                    // A fully-resolved round with nothing staged or awaiting
                    // is a clean round boundary: park there when re-sharding
                    // is on (publishing the next round is exactly what the
                    // barrier wants to do globally instead).
                    if park_on_idle
                        && self.platform.num_unresolved_pairs() == 0
                        && self.stager.num_staged() == 0
                        && self.labeler.num_outstanding() == 0
                    {
                        self.set_state(ShardState::Parked);
                        return;
                    }
                    let may_publish =
                        self.instant_decision || self.platform.num_unresolved_pairs() == 0;
                    if may_publish {
                        let batch = self.next_batch();
                        self.stage(&batch, truth_of);
                        // Flush partial HITs only when the platform would
                        // otherwise go idle waiting for them.
                        let flush = self.platform.num_unresolved_pairs() == 0;
                        self.release_staged(flush);
                    }
                    self.set_state(ShardState::AwaitingCrowd);
                    return;
                }
            }
        }
    }

    /// Journals (or, on resume, verifies) one batch of resolutions before
    /// they are applied. A record is appended only once the replay queue is
    /// exhausted — everything before that is history the crashed run
    /// already wrote and paid for.
    ///
    /// # Panics
    ///
    /// Panics on journal divergence (the resumed run produced a different
    /// answer than the journal — inputs, seeds, or flags changed) or on a
    /// journal I/O failure (continuing without durability would betray a
    /// later resume).
    fn journal_answers(&mut self, resolved: &[ResolvedTask]) {
        if self.journal.is_none() && self.replay.is_empty() {
            return;
        }
        let _span = crowdjoin_obs::SpanGuard::new("wal", "wal.append", self.report_index as u32)
            .virt(self.resolved_at.0)
            .field("answers", resolved.len());
        for r in resolved {
            let global = self.shard.to_global(self.ids[&r.id]);
            let record = AnswerRecord {
                shard: self.report_index as u32,
                a: global.a(),
                b: global.b(),
                matching: r.label,
                yes_votes: r.yes_votes,
                no_votes: r.no_votes,
                time: self.resolved_at.0,
                cost_cents: self.platform.stats().total_cost_cents,
            };
            match self.replay.pop_front() {
                Some(ShardEvent::Answer(journaled)) => {
                    assert_eq!(
                        journaled, record,
                        "journal divergence on shard {}: the resumed run re-derived a \
                         different answer than the journaled one",
                        self.report_index
                    );
                    self.replayed_answers += 1;
                    self.replayed_cost_cents = journaled.cost_cents;
                }
                Some(ShardEvent::Barrier(_)) => panic!(
                    "journal divergence on shard {}: journal holds a round barrier where \
                     the resumed run produced an answer",
                    self.report_index
                ),
                None => {
                    if let Some(journal) = &self.journal {
                        journal
                            .append(&Record::Answer(record))
                            .expect("answer journal append failed; refusing to continue unlogged");
                    }
                }
            }
        }
    }

    /// Journals (or, on resume, verifies) a fully-resolved round boundary:
    /// an fsynced barrier record snapshotting the platform's counters.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::journal_answers`].
    fn journal_round_boundary(&mut self) {
        if self.journal.is_none() && self.replay.is_empty() {
            return;
        }
        // Barrier appends fsync; the span makes that latency visible.
        let _span = crowdjoin_obs::SpanGuard::new("wal", "wal.barrier", self.report_index as u32)
            .virt(self.platform.now().0);
        let record = BarrierRecord {
            shard: self.report_index as u32,
            rounds: self.total_rounds() as u32,
            time: self.platform.now().0,
            stats: snapshot_of(&self.platform.stats()),
        };
        match self.replay.pop_front() {
            Some(ShardEvent::Barrier(journaled)) => {
                assert_eq!(
                    journaled, record,
                    "journal divergence on shard {}: round-barrier platform counters do \
                     not match the journaled ones",
                    self.report_index
                );
                self.replayed_cost_cents = journaled.stats.total_cost_cents;
            }
            Some(ShardEvent::Answer(_)) => panic!(
                "journal divergence on shard {}: journal holds an answer where the \
                 resumed run reached a round barrier",
                self.report_index
            ),
            None => {
                if let Some(journal) = &self.journal {
                    journal
                        .append_durable(&Record::Barrier(record))
                        .expect("barrier journal append failed; refusing to continue unlogged");
                }
            }
        }
    }

    /// Converts a finished task into its shard report.
    ///
    /// # Panics
    ///
    /// Panics if the task is not `Done`, or if journaled replay events
    /// remain unconsumed (the journal holds history this run never
    /// re-derived — a divergence).
    #[must_use]
    pub fn into_report(self) -> ShardReport {
        assert_eq!(self.state, ShardState::Done, "task must be done to report");
        assert!(
            self.replay.is_empty(),
            "journal divergence on shard {}: {} journaled event(s) were never re-derived",
            self.report_index,
            self.replay.len()
        );
        self.report(self.shard.globalize(self.labeler.result()), self.shard.num_components)
    }

    /// This incarnation's report over `result` (in global ids): its
    /// backend's stats and money, its rounds and its replay ledger.
    fn report(&self, result: LabelingResult, num_components: usize) -> ShardReport {
        ShardReport {
            shard: self.report_index,
            num_objects: self.shard.num_objects(),
            num_pairs: result.num_labeled(),
            num_components,
            result,
            stats: Some(self.platform.stats()),
            completion: self.platform.stats().last_resolution,
            publish_rounds: self.total_rounds(),
            replayed_answers: self.replayed_answers,
            replayed_cost_cents: self.replayed_cost_cents,
            rounds: self.rounds.clone(),
            peak_unresolved: self.peak_unresolved,
        }
    }

    /// Retires a parked task at the re-sharding barrier: splits it into a
    /// report of everything decided and paid for so far, the open work to
    /// repartition, and the answers that rebuild its deduction context.
    ///
    /// # Panics
    ///
    /// Panics if the task is not `Parked` (the barrier only retires parked
    /// tasks, which by construction have nothing staged or outstanding).
    #[must_use]
    pub(crate) fn retire(self) -> RetiredShard {
        assert_eq!(self.state, ShardState::Parked, "only parked tasks retire");
        assert_eq!(self.labeler.num_outstanding(), 0, "parked task cannot await answers");
        assert_eq!(self.stager.num_staged(), 0, "parked task cannot hold staged pairs");
        assert!(
            self.replay.is_empty(),
            "journal divergence on shard {}: {} journaled event(s) were never re-derived \
             before parking",
            self.report_index,
            self.replay.len()
        );

        // Components over the shard's local candidate graph; a component is
        // *open* while any of its pairs is unlabeled.
        let mut uf = UnionFind::new(self.shard.num_objects());
        for sp in self.labeler.order() {
            uf.union(sp.pair.a(), sp.pair.b());
        }
        let comp_of = uf.component_ids();
        let mut open: FxHashSet<u32> = FxHashSet::default();
        for sp in self.labeler.unlabeled_pairs() {
            open.insert(comp_of[sp.pair.a() as usize]);
        }

        // Labels of closed components retire now; conflicts stay attributed
        // to this incarnation (replay into the next one never re-counts).
        let mut retired = LabelingResult::new();
        let mut closed_components: FxHashSet<u32> = FxHashSet::default();
        for lp in self.labeler.result().labeled_pairs() {
            let c = comp_of[lp.pair.a() as usize];
            if !open.contains(&c) {
                closed_components.insert(c);
                retired.record(self.shard.to_global(lp.pair), lp.label, lp.provenance);
            }
        }
        for _ in 0..self.labeler.result().num_conflicts() {
            retired.record_conflict();
        }

        let mut open_pairs = Vec::new();
        let mut known = Vec::new();
        for sp in self.labeler.order() {
            if !open.contains(&comp_of[sp.pair.a() as usize]) {
                continue;
            }
            let global = self.shard.to_global(sp.pair);
            open_pairs.push(ScoredPair::new(global, sp.likelihood));
            if self.labeler.result().provenance_of(sp.pair) == Some(Provenance::Crowdsourced) {
                let label = self.labeler.result().label_of(sp.pair).expect("labeled");
                known.push((global, label));
            }
        }

        RetiredShard { report: self.report(retired, closed_components.len()), open_pairs, known }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdjoin_core::{sort_pairs, CandidateSet, GroundTruth, SortStrategy};
    use crowdjoin_sim::{Platform, PlatformConfig};

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

    fn whole_universe_shard(cs: &CandidateSet) -> Shard {
        crate::partition::partition_candidates(cs.num_objects(), cs.pairs(), 1).shards.remove(0)
    }

    /// `(crowdsourced so far, open pairs on the platform, resolution time)`.
    type Sample = (usize, usize, VirtualTime);

    /// The blocking loop the state machine was cut from: publish, block on
    /// `Platform::step`, feed the batch, sample, re-decide. Returns the
    /// publish rounds and one sample per resolution batch.
    fn blocking_reference(
        labeler: &mut ParallelLabeler,
        platform: &mut Platform,
        instant_decision: bool,
        truth_of: &dyn Fn(Pair) -> bool,
    ) -> (usize, Vec<Sample>) {
        let mut ids: Vec<Pair> = Vec::new();
        let mut stager = HitStager::new();
        let stage = |stager: &mut HitStager, ids: &mut Vec<Pair>, batch: Vec<ScoredPair>| {
            stager.stage(batch.into_iter().map(|sp| {
                ids.push(sp.pair);
                let id = ids.len() as u64 - 1;
                TaskSpec { id, truth: truth_of(sp.pair), priority: sp.likelihood }
            }));
        };
        stage(&mut stager, &mut ids, labeler.next_batch());
        stager.release(platform, true);
        let mut series = Vec::new();
        while !labeler.is_complete() {
            let Some((time, resolved)) = platform.step() else {
                stage(&mut stager, &mut ids, labeler.next_batch());
                assert!(stager.num_staged() > 0, "labeler stuck");
                stager.release(platform, true);
                continue;
            };
            for r in &resolved {
                let label = if r.label { Label::Matching } else { Label::NonMatching };
                labeler.submit_answer(ids[r.id as usize], label);
            }
            series.push((labeler.result().num_crowdsourced(), platform.num_open_pairs(), time));
            let idle = platform.num_unresolved_pairs() == 0;
            if (instant_decision || idle) && !labeler.is_complete() {
                stage(&mut stager, &mut ids, labeler.next_batch());
                stager.release(platform, idle);
            }
        }
        (stager.publish_rounds(), series)
    }

    /// Driving a ShardTask to completion through `advance` must reproduce
    /// the blocking loop bit for bit: same labels, provenance, rounds,
    /// platform stats, completion time, and the same availability sample
    /// after every resolution batch — on a perfect and on a noisy crowd.
    #[test]
    fn task_matches_blocking_driver_exactly() {
        let (cs, truth) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let truth_of = |pair: Pair| truth.is_matching(pair);
        for cfg in [PlatformConfig::perfect_workers(17), PlatformConfig::amt_like(17)] {
            for instant in [true, false] {
                let mut platform = Platform::new(cfg.clone());
                let mut labeler = ParallelLabeler::new(cs.num_objects(), order.clone());
                let (rounds, series) =
                    blocking_reference(&mut labeler, &mut platform, instant, &truth_of);

                let shard = whole_universe_shard(&cs);
                let mut task = ShardTask::new(shard, Platform::new(cfg.clone()), instant, 0);
                let mut observed: Vec<Sample> = Vec::new();
                while task.state() != ShardState::Done {
                    assert!(task.next_wake().is_some(), "active task must have a wake time");
                    task.advance(&truth_of, false, &mut |crowdsourced, p: &Platform, at| {
                        observed.push((crowdsourced, p.num_open_pairs(), at));
                    });
                }
                let report = task.into_report();

                assert_eq!(observed, series, "instant={instant}");
                assert_eq!(report.publish_rounds, rounds, "instant={instant}");
                assert_eq!(report.stats, Some(platform.stats()), "instant={instant}");
                assert_eq!(report.completion, platform.stats().last_resolution);
                let blocking = labeler.into_result();
                assert_eq!(report.result.num_crowdsourced(), blocking.num_crowdsourced());
                assert_eq!(report.result.num_deduced(), blocking.num_deduced());
                for sp in cs.pairs() {
                    assert_eq!(report.result.label_of(sp.pair), blocking.label_of(sp.pair));
                    assert_eq!(
                        report.result.provenance_of(sp.pair),
                        blocking.provenance_of(sp.pair)
                    );
                }
            }
        }
    }

    /// With parking enabled the task stops at its first fully-resolved round
    /// boundary and retire() hands back exactly the open components and
    /// their crowdsourced context.
    #[test]
    fn parks_at_round_boundary_and_retires_open_work() {
        // A triangle over all-distinct objects plus a disjoint matching
        // pair: round 1 publishes (0,1), (1,2) and (3,4) — (0,2) is held as
        // presumed-deducible. The two non-matching answers refute the
        // deduction, so the shard needs a second round and parks before it.
        let pairs = vec![
            ScoredPair::new(Pair::new(0, 1), 0.9),
            ScoredPair::new(Pair::new(1, 2), 0.8),
            ScoredPair::new(Pair::new(0, 2), 0.7),
            ScoredPair::new(Pair::new(3, 4), 0.6),
        ];
        let cs = CandidateSet::new(5, pairs);
        let truth = GroundTruth::from_clusters(5, &[vec![3, 4]]);
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let shard = crate::partition::partition_candidates(5, &order, 1).shards.remove(0);
        let mut task =
            ShardTask::new(shard, Platform::new(PlatformConfig::perfect_workers(5)), true, 3);
        let truth_of = |pair: Pair| truth.is_matching(pair);
        while !matches!(task.state(), ShardState::Parked | ShardState::Done) {
            task.advance(&truth_of, true, &mut |_, _, _| {});
        }
        assert_eq!(task.state(), ShardState::Parked);
        assert!(task.next_wake().is_none());

        let retired = task.retire();
        assert_eq!(retired.report.shard, 3);
        assert!(retired.report.stats.expect("platform stats").total_cost_cents > 0);
        // The {3,4} component closed in round 1 and retires with its label.
        assert_eq!(retired.report.result.num_labeled(), 1);
        assert_eq!(retired.report.result.label_of(Pair::new(3, 4)), Some(Label::Matching));
        // The triangle component stays open: all three of its pairs travel,
        // with the two answered ones as known context.
        let open: FxHashSet<Pair> = retired.open_pairs.iter().map(|sp| sp.pair).collect();
        assert_eq!(open, [Pair::new(0, 1), Pair::new(1, 2), Pair::new(0, 2)].into_iter().collect());
        let mut known = retired.known.clone();
        known.sort_by_key(|&(p, _)| p);
        assert_eq!(
            known,
            vec![(Pair::new(0, 1), Label::NonMatching), (Pair::new(1, 2), Label::NonMatching)]
        );

        // Seeding the known answers into a fresh labeler over the open pairs
        // resumes exactly where the shard parked: one pair left to publish.
        let resumed_shard =
            crate::partition::partition_candidates(5, &retired.open_pairs, 1).shards.remove(0);
        let mut labeler =
            ParallelLabeler::new(resumed_shard.num_objects(), resumed_shard.pairs.clone());
        let known_of: FxHashMap<Pair, Label> = retired.known.iter().copied().collect();
        for sp in &resumed_shard.pairs {
            if let Some(&label) = known_of.get(&resumed_shard.to_global(sp.pair)) {
                labeler.seed_known(sp.pair, label);
            }
        }
        assert!(!labeler.is_complete());
        let batch = labeler.next_batch();
        assert_eq!(batch.len(), 1, "only (0,2) is left to crowdsource");
        assert_eq!(resumed_shard.to_global(batch[0].pair), Pair::new(0, 2));
    }
}
