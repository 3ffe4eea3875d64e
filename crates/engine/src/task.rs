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
//!     ▲                               ▲       (feed answers)    │ │
//!     │ platform idle                 └─────publish / wait──────┘ │
//!     │ (defensive republish)                                     │
//!     └───────────────◀── all labeled ──▶ Done ◀──────────────────┘
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
//!   `Publishing`/`Done` transition) appends an fsynced
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
use crowdjoin_core::{Label, Pair, ParallelLabeler, ScoredPair};
use crowdjoin_sim::{CrowdBackend, HitStager, ResolvedTask, TaskSpec, VirtualTime};
use crowdjoin_util::FxHashMap;
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
    /// Every pair is labeled; the task can be turned into a report.
    Done,
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
    /// Publish rounds a fed replay inherited from the journal's round
    /// barriers (0 otherwise). Reported rounds are
    /// `base_rounds + own stager rounds`.
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
        ShardState::Done => "Done",
    }
}

impl<B: CrowdBackend> ShardTask<B> {
    /// Creates a task for a shard on its own backend.
    #[must_use]
    pub fn new(shard: Shard, platform: B, instant_decision: bool) -> Self {
        let labeler = ParallelLabeler::new(shard.num_objects(), shard.pairs.clone());
        let state = if labeler.is_complete() { ShardState::Done } else { ShardState::Publishing };
        let shard_tag = shard.index as u32;
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
            base_rounds: 0,
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
                            self.shard.index
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

    /// Publish rounds on this shard's critical path so far: the rounds a
    /// fed replay inherited from the journal plus this task's own.
    fn total_rounds(&self) -> usize {
        self.base_rounds + self.stager.publish_rounds()
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> ShardState {
        self.state
    }

    /// When this task next needs attention, in its platform's virtual time:
    /// the next platform event, or "now" when it has work ready (publishing,
    /// deducing, or an idle platform to republish into). `None` once done.
    #[must_use]
    pub fn next_wake(&self) -> Option<VirtualTime> {
        match self.state {
            ShardState::Done => None,
            ShardState::Publishing | ShardState::Deducing => Some(self.platform.now()),
            ShardState::AwaitingCrowd => {
                Some(self.platform.next_event_time().unwrap_or_else(|| self.platform.now()))
            }
        }
    }

    /// Updates the state, emitting a `task.state` trace event when the
    /// transition is real and tracing is on (one relaxed load otherwise).
    fn set_state(&mut self, next: ShardState) {
        if crowdjoin_obs::enabled() && next != self.state {
            crowdjoin_obs::EventBuilder::new("engine", "task.state", self.shard.index as u32)
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
            crowdjoin_obs::SpanGuard::new("engine", "backend.post", self.shard.index as u32)
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
    /// `Done` or `AwaitingCrowd` with a fresh [`Self::next_wake`].
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
        on_resolution: &mut dyn FnMut(usize, &B, VirtualTime),
    ) {
        loop {
            match self.state {
                ShardState::Done => return,
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
                            return;
                        }
                        self.set_state(ShardState::Publishing);
                        continue;
                    };
                    let mut poll_span = crowdjoin_obs::SpanGuard::new(
                        "engine",
                        "backend.poll",
                        self.shard.index as u32,
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
        let _span = crowdjoin_obs::SpanGuard::new("wal", "wal.append", self.shard.index as u32)
            .virt(self.resolved_at.0)
            .field("answers", resolved.len());
        for r in resolved {
            let global = self.shard.to_global(self.ids[&r.id]);
            let record = AnswerRecord {
                shard: self.shard.index as u32,
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
                        self.shard.index
                    );
                    self.replayed_answers += 1;
                    self.replayed_cost_cents = journaled.cost_cents;
                }
                Some(ShardEvent::Barrier(_)) => panic!(
                    "journal divergence on shard {}: journal holds a round barrier where \
                     the resumed run produced an answer",
                    self.shard.index
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
        let _span = crowdjoin_obs::SpanGuard::new("wal", "wal.barrier", self.shard.index as u32)
            .virt(self.platform.now().0);
        let record = BarrierRecord {
            shard: self.shard.index as u32,
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
                    self.shard.index
                );
                self.replayed_cost_cents = journaled.stats.total_cost_cents;
            }
            Some(ShardEvent::Answer(_)) => panic!(
                "journal divergence on shard {}: journal holds an answer where the \
                 resumed run reached a round barrier",
                self.shard.index
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
            self.shard.index,
            self.replay.len()
        );
        let result = self.shard.globalize(self.labeler.result());
        ShardReport {
            shard: self.shard.index,
            num_objects: self.shard.num_objects(),
            num_pairs: result.num_labeled(),
            num_components: self.shard.num_components,
            result,
            stats: Some(self.platform.stats()),
            completion: self.platform.stats().last_resolution,
            publish_rounds: self.total_rounds(),
            replayed_answers: self.replayed_answers,
            replayed_cost_cents: self.replayed_cost_cents,
            rounds: self.rounds,
            peak_unresolved: self.peak_unresolved,
        }
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
    /// an unbounded poll, feed the batch, sample, re-decide. Returns the
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
            let Some((time, resolved)) = platform.poll_completions(VirtualTime::MAX) else {
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
                let mut task = ShardTask::new(shard, Platform::new(cfg.clone()), instant);
                let mut observed: Vec<Sample> = Vec::new();
                while task.state() != ShardState::Done {
                    assert!(task.next_wake().is_some(), "active task must have a wake time");
                    task.advance(&truth_of, &mut |crowdsourced, p: &Platform, at| {
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
}
