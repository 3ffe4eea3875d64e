//! The discrete-event crowdsourcing platform.
//!
//! Mechanics modeled (each matters for a paper experiment):
//!
//! * **Batching** — published tasks are grouped into HITs of
//!   `batch_size` pairs (money saver from [14, 25], used in Section 6.4).
//! * **Replicated assignments + majority vote** — each HIT is completed by
//!   `assignments_per_hit` distinct workers; per-task majority decides the
//!   label (quality control of Table 2).
//! * **Qualification tests** — workers that fail a 3-question test never
//!   take HITs, filtering most spammers.
//! * **Worker latency** — off-platform workers only notice new work after a
//!   lognormal revisit delay; this is what makes sequential publishing take
//!   ~10× longer than parallel publishing (Table 1).
//! * **Assignment policy** — AMT's random HIT assignment, or the
//!   *non-matching first* priority order (Figure 15's `Parallel(ID+NF)`).
//!
//! The platform is intentionally independent of the labeling framework: it
//! labels opaque boolean tasks. The `crowdjoin` facade crate adapts
//! `crowdjoin-core` pairs onto it.

use crate::config::{AssignmentPolicy, PlatformConfig};
use crate::dist::bernoulli;
use crate::time::{SimDuration, VirtualTime};
use crate::vote::majority;
use crowdjoin_util::{derive_seed, FxHashSet, SplitMix64};
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// A unit of work: one pair to label, with its ground-truth answer (used to
/// synthesize worker responses) and a priority key (its machine likelihood,
/// consumed by the non-matching-first policy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// Caller-assigned task id (the facade uses it to map back to pairs).
    pub id: u64,
    /// Ground-truth answer ("are these matching?").
    pub truth: bool,
    /// Priority key; **lower** keys are served first under
    /// [`AssignmentPolicy::NonMatchingFirst`].
    pub priority: f64,
}

/// A task whose label the platform has decided by majority vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedTask {
    /// Caller-assigned task id.
    pub id: u64,
    /// Majority-vote label.
    pub label: bool,
    /// Votes for `true`.
    pub yes_votes: u32,
    /// Votes for `false`.
    pub no_votes: u32,
}

/// Aggregate platform statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlatformStats {
    /// HITs published so far.
    pub hits_published: usize,
    /// Pairs published so far (tasks actually placed into HITs).
    pub pairs_published: usize,
    /// Pair capacity of the published HITs (`hits_published × batch_size`).
    /// `pair_slots - pairs_published` is the number of paid-for HIT slots
    /// left empty by partial HITs — the fragmentation the engine's
    /// `partial_hit_waste` metric quantifies.
    pub pair_slots: usize,
    /// Assignments completed so far.
    pub assignments_completed: usize,
    /// Total cost in cents (completed assignments × price).
    pub total_cost_cents: u64,
    /// Time the last task resolution happened.
    pub last_resolution: VirtualTime,
    /// Number of workers that passed qualification.
    pub qualified_workers: usize,
    /// Assignments abandoned by workers (re-opened after the timeout).
    pub assignments_abandoned: usize,
}

#[derive(Debug, Clone)]
struct Worker {
    accuracy: f64,
    qualified: bool,
    /// Worker is neither busy nor scheduled to check for work.
    idle: bool,
    rng: SplitMix64,
    hits_taken: FxHashSet<u32>,
    assignments_completed: u32,
}

/// Per-worker observability snapshot (see [`Platform::worker_stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerStats {
    /// The worker's answer accuracy.
    pub accuracy: f64,
    /// Whether the worker passed the qualification test.
    pub qualified: bool,
    /// Assignments the worker has completed.
    pub assignments_completed: u32,
}

#[derive(Debug, Clone)]
struct Hit {
    tasks: Vec<TaskSpec>,
    assignments_launched: u32,
    /// Completed assignments: per assignment, one answer per task.
    answers: Vec<Vec<bool>>,
    resolved: bool,
    /// Mean task priority; used by the non-matching-first policy.
    priority: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// Worker visits the platform looking for work.
    WorkerCheck { worker: u32 },
    /// Worker finishes an assignment of a HIT.
    AssignmentDone { worker: u32, hit: u32 },
    /// Worker walked away; the assignment times out and re-opens.
    AssignmentAbandoned { worker: u32, hit: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedEvent {
    time: VirtualTime,
    seq: u64,
    kind: EventKind,
}

// BinaryHeap is a max-heap; invert the ordering on (time, seq) to pop the
// earliest event first. `seq` breaks ties deterministically.
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulated crowdsourcing platform.
#[derive(Debug, Clone)]
pub struct Platform {
    cfg: PlatformConfig,
    workers: Vec<Worker>,
    hits: Vec<Hit>,
    /// HITs that can still launch assignments.
    open_hits: Vec<u32>,
    queue: BinaryHeap<QueuedEvent>,
    seq: u64,
    now: VirtualTime,
    resolved: VecDeque<(VirtualTime, Vec<ResolvedTask>)>,
    pick_rng: SplitMix64,
    stats: PlatformStats,
    open_pair_count: usize,
    unresolved_pair_count: usize,
}

impl Platform {
    /// Builds the platform: spawns the worker pool and runs qualification
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or qualification leaves fewer
    /// qualified workers than `assignments_per_hit`.
    #[must_use]
    pub fn new(cfg: PlatformConfig) -> Self {
        cfg.validate();
        let mut qual_rng = SplitMix64::new(derive_seed(cfg.seed, 101));
        let mut workers = Vec::with_capacity(cfg.num_workers);
        for w in 0..cfg.num_workers {
            let accuracy = if bernoulli(&mut qual_rng, cfg.spammer_fraction) {
                cfg.spammer_accuracy
            } else {
                cfg.good_accuracy
            };
            // Qualification: all questions must be answered correctly.
            let qualified = !cfg.qualification_test
                || (0..cfg.qualification_questions).all(|_| bernoulli(&mut qual_rng, accuracy));
            workers.push(Worker {
                accuracy,
                qualified,
                idle: true,
                rng: SplitMix64::new(derive_seed(cfg.seed, 1000 + w as u64)),
                hits_taken: FxHashSet::default(),
                assignments_completed: 0,
            });
        }
        let qualified_workers = workers.iter().filter(|w| w.qualified).count();
        assert!(
            qualified_workers >= cfg.assignments_per_hit as usize,
            "only {qualified_workers} workers passed qualification; HITs need {}",
            cfg.assignments_per_hit
        );
        let pick_rng = SplitMix64::new(derive_seed(cfg.seed, 102));
        Self {
            cfg,
            workers,
            hits: Vec::new(),
            open_hits: Vec::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            now: VirtualTime::ZERO,
            resolved: VecDeque::new(),
            pick_rng,
            stats: PlatformStats { qualified_workers, ..PlatformStats::default() },
            open_pair_count: 0,
            unresolved_pair_count: 0,
        }
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// The configured HIT batch size (pairs per HIT).
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.cfg.batch_size
    }

    /// Per-worker observability: accuracy, qualification, work done.
    #[must_use]
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.workers
            .iter()
            .map(|w| WorkerStats {
                accuracy: w.accuracy,
                qualified: w.qualified,
                assignments_completed: w.assignments_completed,
            })
            .collect()
    }

    /// Aggregate statistics so far.
    #[must_use]
    pub fn stats(&self) -> PlatformStats {
        self.stats
    }

    /// Pairs in HITs that still have unclaimed assignments — the paper's
    /// "number of available pairs in the crowdsourcing platform" (Figure 15).
    #[must_use]
    pub fn num_open_pairs(&self) -> usize {
        self.open_pair_count
    }

    /// Pairs published but not yet majority-resolved.
    #[must_use]
    pub fn num_unresolved_pairs(&self) -> usize {
        self.unresolved_pair_count
    }

    /// Publishes tasks, batching them into HITs of `batch_size`, and wakes
    /// idle qualified workers (they arrive after their revisit delay).
    pub fn publish(&mut self, tasks: Vec<TaskSpec>) {
        if tasks.is_empty() {
            return;
        }
        self.unresolved_pair_count += tasks.len();
        self.open_pair_count += tasks.len();
        self.stats.pairs_published += tasks.len();
        for chunk in tasks.chunks(self.cfg.batch_size) {
            let priority = chunk.iter().map(|t| t.priority).sum::<f64>() / chunk.len() as f64;
            let id = self.hits.len() as u32;
            self.hits.push(Hit {
                tasks: chunk.to_vec(),
                assignments_launched: 0,
                answers: Vec::new(),
                resolved: false,
                priority,
            });
            self.open_hits.push(id);
            self.stats.hits_published += 1;
            self.stats.pair_slots += self.cfg.batch_size;
        }
        self.wake_idle_workers();
    }

    /// Wakes every idle qualified worker with a fresh revisit delay (used on
    /// publish and when an abandoned assignment re-opens a HIT).
    fn wake_idle_workers(&mut self) {
        for w in 0..self.workers.len() {
            if self.workers[w].idle && self.workers[w].qualified {
                self.workers[w].idle = false;
                let delay = SimDuration::from_secs_f64(
                    self.cfg.revisit_delay.sample(&mut self.workers[w].rng),
                );
                self.schedule(self.now.after(delay), EventKind::WorkerCheck { worker: w as u32 });
            }
        }
    }

    /// The virtual time of the earliest pending event, or `None` when the
    /// platform is fully idle (nothing queued, nothing left to resolve).
    /// A resolution batch that has been produced but not yet polled reports
    /// the current time — it is ready immediately.
    ///
    /// This is the scheduling hook for event-loop drivers: poll the platform
    /// with the earliest `next_event_time` first and nothing ever runs ahead
    /// of virtual time.
    #[must_use]
    pub fn next_event_time(&self) -> Option<VirtualTime> {
        if !self.resolved.is_empty() {
            return Some(self.now);
        }
        self.queue.peek().map(|e| e.time)
    }

    /// Non-blocking poll half of the poll-based interface: processes queued
    /// events **no later than `until`** and returns the first resolution
    /// batch produced, or `None` once no event at or before `until` remains.
    ///
    /// Events strictly after `until` are left queued and the clock never
    /// advances past them, so a caller multiplexing many platforms can
    /// interleave them fairly by always polling the platform whose
    /// [`Self::next_event_time`] is earliest. Polling with
    /// [`VirtualTime::MAX`] blocks: it runs the simulation until the next
    /// resolution batch, or returns `None` once no event remains.
    pub fn poll_completions(
        &mut self,
        until: VirtualTime,
    ) -> Option<(VirtualTime, Vec<ResolvedTask>)> {
        loop {
            if let Some(batch) = self.resolved.pop_front() {
                return Some(batch);
            }
            if self.queue.peek()?.time > until {
                return None;
            }
            let event = self.queue.pop().expect("peeked event must pop");
            debug_assert!(event.time >= self.now, "event from the past");
            self.now = event.time;
            match event.kind {
                EventKind::WorkerCheck { worker } => self.worker_check(worker),
                EventKind::AssignmentDone { worker, hit } => self.assignment_done(worker, hit),
                EventKind::AssignmentAbandoned { worker, hit } => {
                    self.assignment_abandoned(worker, hit);
                }
            }
        }
    }

    /// Advances an **idle** platform's clock to `t` (keeping the maximum of
    /// the two). For a platform constructed mid-job, so its resolutions
    /// continue a predecessor's virtual timeline instead of restarting at
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if events are queued or resolutions are unpolled: time may
    /// only warp while nothing is in flight.
    pub fn warp_to(&mut self, t: VirtualTime) {
        assert!(
            self.queue.is_empty() && self.resolved.is_empty(),
            "cannot warp a platform with pending events"
        );
        self.now = self.now.max(t);
    }

    fn schedule(&mut self, time: VirtualTime, kind: EventKind) {
        self.seq += 1;
        self.queue.push(QueuedEvent { time, seq: self.seq, kind });
    }

    /// Index into `open_hits` of the HIT this worker should take, if any.
    fn pick_hit(&mut self, worker: u32) -> Option<usize> {
        let taken = &self.workers[worker as usize].hits_taken;
        let eligible: Vec<usize> = self
            .open_hits
            .iter()
            .enumerate()
            .filter(|&(_, &h)| !taken.contains(&h))
            .map(|(i, _)| i)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        match self.cfg.assignment_policy {
            AssignmentPolicy::Random => {
                let k = (self.pick_rng.next_u64() % eligible.len() as u64) as usize;
                Some(eligible[k])
            }
            AssignmentPolicy::NonMatchingFirst => eligible.into_iter().min_by(|&i, &j| {
                let (a, b) = (self.open_hits[i], self.open_hits[j]);
                self.hits[a as usize]
                    .priority
                    .total_cmp(&self.hits[b as usize].priority)
                    .then(a.cmp(&b))
            }),
        }
    }

    fn worker_check(&mut self, worker: u32) {
        match self.pick_hit(worker) {
            None => self.workers[worker as usize].idle = true,
            Some(open_idx) => {
                let hit_id = self.open_hits[open_idx];
                let hit = &mut self.hits[hit_id as usize];
                hit.assignments_launched += 1;
                if hit.assignments_launched >= self.cfg.assignments_per_hit {
                    self.open_hits.swap_remove(open_idx);
                    self.open_pair_count -= hit.tasks.len();
                }
                let n_tasks = self.hits[hit_id as usize].tasks.len();
                let w = &mut self.workers[worker as usize];
                w.hits_taken.insert(hit_id);
                if bernoulli(&mut w.rng, self.cfg.abandonment_rate) {
                    // The worker walks away; the platform notices at the
                    // assignment timeout and re-opens the slot.
                    let timeout = SimDuration::from_secs_f64(self.cfg.abandonment_timeout_secs);
                    self.schedule(
                        self.now.after(timeout),
                        EventKind::AssignmentAbandoned { worker, hit: hit_id },
                    );
                    return;
                }
                let mut secs = 0.0;
                for _ in 0..n_tasks {
                    secs += self.cfg.work_time_per_pair.sample(&mut w.rng);
                }
                self.schedule(
                    self.now.after(SimDuration::from_secs_f64(secs)),
                    EventKind::AssignmentDone { worker, hit: hit_id },
                );
            }
        }
    }

    fn assignment_done(&mut self, worker: u32, hit_id: u32) {
        // Synthesize this worker's answers.
        let accuracy = self.workers[worker as usize].accuracy;
        let n = self.hits[hit_id as usize].tasks.len();
        let mut answers = Vec::with_capacity(n);
        for i in 0..n {
            let truth = self.hits[hit_id as usize].tasks[i].truth;
            let correct = bernoulli(&mut self.workers[worker as usize].rng, accuracy);
            answers.push(if correct { truth } else { !truth });
        }
        let hit = &mut self.hits[hit_id as usize];
        hit.answers.push(answers);
        self.workers[worker as usize].assignments_completed += 1;
        self.stats.assignments_completed += 1;
        self.stats.total_cost_cents += self.cfg.price_per_assignment_cents as u64;

        if hit.answers.len() as u32 >= self.cfg.assignments_per_hit && !hit.resolved {
            hit.resolved = true;
            let mut resolved = Vec::with_capacity(hit.tasks.len());
            for (i, task) in hit.tasks.iter().enumerate() {
                let votes: Vec<bool> = hit.answers.iter().map(|a| a[i]).collect();
                let (label, yes, no) = majority(&votes);
                resolved.push(ResolvedTask { id: task.id, label, yes_votes: yes, no_votes: no });
            }
            self.unresolved_pair_count -= hit.tasks.len();
            self.stats.last_resolution = self.now;
            self.resolved.push_back((self.now, resolved));
        }

        // Worker looks for the next assignment after a short break.
        let w = &mut self.workers[worker as usize];
        let pause = SimDuration::from_secs_f64(self.cfg.between_assignments.sample(&mut w.rng));
        self.schedule(self.now.after(pause), EventKind::WorkerCheck { worker });
    }

    /// The assignment timed out without a submission: re-open the slot and
    /// send the (long-gone) worker back into the revisit cycle. The worker
    /// keeps the HIT in `hits_taken` — like AMT, a returned assignment is
    /// not re-offered to the same worker here.
    fn assignment_abandoned(&mut self, worker: u32, hit_id: u32) {
        self.stats.assignments_abandoned += 1;
        let hit = &mut self.hits[hit_id as usize];
        debug_assert!(hit.assignments_launched > 0);
        let was_closed = hit.assignments_launched >= self.cfg.assignments_per_hit;
        hit.assignments_launched -= 1;
        if was_closed && !hit.resolved {
            self.open_hits.push(hit_id);
            self.open_pair_count += self.hits[hit_id as usize].tasks.len();
        }
        self.wake_idle_workers();
        let w = &mut self.workers[worker as usize];
        let delay = SimDuration::from_secs_f64(self.cfg.revisit_delay.sample(&mut w.rng));
        self.schedule(self.now.after(delay), EventKind::WorkerCheck { worker });
    }
}

/// Polls `platform` with no time bound until no event remains, returning
/// every resolution batch in order.
#[cfg(test)]
pub(crate) fn drain(platform: &mut Platform) -> Vec<(VirtualTime, Vec<ResolvedTask>)> {
    std::iter::from_fn(|| platform.poll_completions(VirtualTime::MAX)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tasks(n: usize, truth: bool) -> Vec<TaskSpec> {
        (0..n).map(|i| TaskSpec { id: i as u64, truth, priority: 0.5 }).collect()
    }

    #[test]
    fn resolves_all_published_tasks() {
        let mut p = Platform::new(PlatformConfig::perfect_workers(7));
        p.publish(tasks(50, true));
        let batches = drain(&mut p);
        let total: usize = batches.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(total, 50);
        assert_eq!(p.num_unresolved_pairs(), 0);
        assert_eq!(p.num_open_pairs(), 0);
        // 50 tasks at 20/HIT → 3 HITs; 3 assignments each.
        assert_eq!(p.stats().hits_published, 3);
        assert_eq!(p.stats().assignments_completed, 9);
        assert_eq!(p.stats().total_cost_cents, 18);
    }

    #[test]
    fn perfect_workers_always_correct() {
        let mut p = Platform::new(PlatformConfig::perfect_workers(3));
        let mut spec = tasks(30, true);
        for (i, t) in spec.iter_mut().enumerate() {
            t.truth = i % 3 == 0;
        }
        let truths: Vec<bool> = spec.iter().map(|t| t.truth).collect();
        p.publish(spec);
        for (_, batch) in drain(&mut p) {
            for r in batch {
                assert_eq!(r.label, truths[r.id as usize]);
                assert_eq!(r.yes_votes + r.no_votes, 3);
            }
        }
    }

    #[test]
    fn noisy_workers_mostly_correct_with_vote() {
        let cfg = PlatformConfig { seed: 11, ..PlatformConfig::amt_like(11) };
        let mut p = Platform::new(cfg);
        p.publish(tasks(400, true));
        let mut correct = 0;
        let mut total = 0;
        for (_, batch) in drain(&mut p) {
            for r in batch {
                total += 1;
                if r.label {
                    correct += 1;
                }
            }
        }
        assert_eq!(total, 400);
        let rate = correct as f64 / total as f64;
        assert!(rate > 0.9, "majority vote accuracy {rate} too low");
        assert!(rate < 1.0 + 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut p = Platform::new(PlatformConfig::amt_like(seed));
            p.publish(tasks(60, false));
            let batches = drain(&mut p);
            (batches.len(), p.now(), p.stats().assignments_completed)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).1, run(6).1, "different seeds should differ in timing");
    }

    #[test]
    fn sequential_publishing_is_much_slower() {
        // The Table 1 phenomenon: publishing one HIT at a time pays the
        // worker revisit latency per HIT; publishing all at once amortizes
        // it. A small pool makes arrivals the bottleneck.
        let n = 200;
        let config = || PlatformConfig { num_workers: 10, ..PlatformConfig::perfect_workers(42) };
        // Parallel: all at once.
        let mut par = Platform::new(config());
        par.publish(tasks(n, true));
        drain(&mut par);
        let t_par = par.stats().last_resolution;

        // Sequential: one HIT (batch of 20) at a time, next HIT published as
        // soon as the previous resolves.
        let mut seq = Platform::new(config());
        let all = tasks(n, true);
        for chunk in all.chunks(20) {
            seq.publish(chunk.to_vec());
            let mut remaining = chunk.len();
            while remaining > 0 {
                let (_, resolved) = seq.poll_completions(VirtualTime::MAX).expect("chunk resolves");
                remaining -= resolved.len();
            }
        }
        let t_seq = seq.stats().last_resolution;
        assert!(
            t_seq.as_hours() > t_par.as_hours() * 2.0,
            "sequential {:.2}h should be ≫ parallel {:.2}h",
            t_seq.as_hours(),
            t_par.as_hours()
        );
    }

    #[test]
    fn nonmatching_first_serves_low_priority_hits_first() {
        let cfg = PlatformConfig {
            assignment_policy: AssignmentPolicy::NonMatchingFirst,
            batch_size: 5,
            ..PlatformConfig::perfect_workers(9)
        };
        let mut p = Platform::new(cfg);
        // Two batches: high-priority ids 0..5 (likely matching), low ids 5..10.
        let mut spec = Vec::new();
        for i in 0..5u64 {
            spec.push(TaskSpec { id: i, truth: true, priority: 0.9 });
        }
        for i in 5..10u64 {
            spec.push(TaskSpec { id: i, truth: true, priority: 0.1 });
        }
        p.publish(spec);
        let batches = drain(&mut p);
        let first_ids: Vec<u64> = batches[0].1.iter().map(|r| r.id).collect();
        assert!(
            first_ids.iter().all(|&id| id >= 5),
            "low-likelihood HIT must resolve first, got {first_ids:?}"
        );
    }

    #[test]
    fn qualification_filters_spammers() {
        let cfg = PlatformConfig {
            num_workers: 200,
            spammer_fraction: 0.5,
            spammer_accuracy: 0.5,
            qualification_test: true,
            ..PlatformConfig::amt_like(17)
        };
        let p = Platform::new(cfg);
        let q = p.stats().qualified_workers;
        // Good workers pass with 0.95³ ≈ 0.857, spammers with 0.5³ = 0.125.
        // With 100 of each, expect ≈ 86 + 12 ≈ 98 ± noise.
        assert!(q > 70 && q < 130, "qualified {q}");
    }

    #[test]
    fn abandonment_reopens_and_still_resolves() {
        let cfg = PlatformConfig {
            abandonment_rate: 0.3,
            abandonment_timeout_secs: 600.0,
            ..PlatformConfig::perfect_workers(21)
        };
        let mut p = Platform::new(cfg);
        p.publish(tasks(100, true));
        let resolved: usize = drain(&mut p).iter().map(|(_, r)| r.len()).sum();
        assert_eq!(resolved, 100, "every task resolves despite abandonment");
        assert!(p.stats().assignments_abandoned > 0, "30% rate must abandon something");
        // Abandoned assignments are not paid.
        assert_eq!(p.stats().total_cost_cents, p.stats().assignments_completed as u64 * 2);
    }

    #[test]
    fn abandonment_slows_completion() {
        let run = |rate: f64| {
            let cfg = PlatformConfig {
                abandonment_rate: rate,
                abandonment_timeout_secs: 3600.0,
                ..PlatformConfig::perfect_workers(22)
            };
            let mut p = Platform::new(cfg);
            p.publish(tasks(200, true));
            drain(&mut p);
            p.stats().last_resolution
        };
        let clean = run(0.0);
        let flaky = run(0.4);
        assert!(flaky > clean, "abandonment should delay completion: {flaky:?} vs {clean:?}");
    }

    #[test]
    fn worker_stats_account_for_all_assignments() {
        let mut p = Platform::new(PlatformConfig::perfect_workers(13));
        p.publish(tasks(60, true));
        drain(&mut p);
        let stats = p.worker_stats();
        assert_eq!(stats.len(), 40);
        let total: u32 = stats.iter().map(|w| w.assignments_completed).sum();
        assert_eq!(total as usize, p.stats().assignments_completed);
        // Perfect-worker preset: everyone qualified at accuracy 1.0.
        assert!(stats.iter().all(|w| w.qualified && w.accuracy == 1.0));
        // No worker can complete two assignments of one HIT: with 3 HITs
        // nobody exceeds 3 assignments.
        assert!(stats.iter().all(|w| w.assignments_completed <= 3));
    }

    #[test]
    fn poll_respects_time_bound() {
        let mut blocking = Platform::new(PlatformConfig::perfect_workers(7));
        blocking.publish(tasks(50, true));
        let expected = drain(&mut blocking);

        // Drive an identical platform purely through the poll interface,
        // always advancing to the next event time — the event-loop pattern.
        let mut polled = Platform::new(PlatformConfig::perfect_workers(7));
        polled.publish(tasks(50, true));
        let mut batches = Vec::new();
        while let Some(t) = polled.next_event_time() {
            assert!(t >= polled.now(), "next event cannot be in the past");
            if let Some(batch) = polled.poll_completions(t) {
                batches.push(batch);
            }
            assert!(polled.now() <= t, "poll must not run past its bound");
        }
        assert_eq!(batches, expected, "poll-driven run must equal blocking run");
        assert_eq!(polled.now(), blocking.now());
        assert_eq!(polled.stats(), blocking.stats());
    }

    #[test]
    fn poll_before_first_event_is_empty() {
        let mut p = Platform::new(PlatformConfig::perfect_workers(3));
        p.publish(tasks(10, true));
        let first = p.next_event_time().expect("publish schedules worker checks");
        assert!(first > VirtualTime::ZERO);
        // Polling strictly before the first event processes nothing.
        assert!(p.poll_completions(VirtualTime(first.0 - 1)).is_none());
        assert_eq!(p.now(), VirtualTime::ZERO);
        assert_eq!(p.stats().assignments_completed, 0);
    }

    #[test]
    fn warp_advances_idle_clock_monotonically() {
        let mut p = Platform::new(PlatformConfig::perfect_workers(5));
        p.warp_to(VirtualTime(5_000));
        assert_eq!(p.now(), VirtualTime(5_000));
        p.warp_to(VirtualTime(1_000)); // never backwards
        assert_eq!(p.now(), VirtualTime(5_000));
        p.publish(tasks(20, true));
        let batches = drain(&mut p);
        assert!(batches.iter().all(|&(t, _)| t >= VirtualTime(5_000)));
    }

    #[test]
    #[should_panic(expected = "cannot warp")]
    fn warp_rejected_while_events_pending() {
        let mut p = Platform::new(PlatformConfig::perfect_workers(5));
        p.publish(tasks(20, true));
        p.warp_to(VirtualTime(5_000));
    }

    #[test]
    fn pair_slot_accounting_tracks_partial_hits() {
        let mut p = Platform::new(PlatformConfig::perfect_workers(19));
        p.publish(tasks(45, true)); // batch size 20 → HITs of 20+20+5
        let stats = p.stats();
        assert_eq!(stats.hits_published, 3);
        assert_eq!(stats.pairs_published, 45);
        assert_eq!(stats.pair_slots, 60);
    }

    #[test]
    fn publish_nothing_is_noop() {
        let mut p = Platform::new(PlatformConfig::perfect_workers(1));
        p.publish(vec![]);
        assert!(p.poll_completions(VirtualTime::MAX).is_none());
        assert_eq!(p.stats().hits_published, 0);
    }

    #[test]
    fn open_pairs_gauge_tracks_claims() {
        let cfg = PlatformConfig { batch_size: 10, ..PlatformConfig::perfect_workers(23) };
        let mut p = Platform::new(cfg);
        p.publish(tasks(10, true));
        assert_eq!(p.num_open_pairs(), 10);
        drain(&mut p);
        assert_eq!(p.num_open_pairs(), 0);
    }

    #[test]
    fn incremental_publishing_keeps_clock_monotonic() {
        let mut p = Platform::new(PlatformConfig::perfect_workers(31));
        p.publish(tasks(20, true));
        let mut last = VirtualTime::ZERO;
        while let Some((t, _)) = p.poll_completions(VirtualTime::MAX) {
            assert!(t >= last);
            last = t;
        }
        // Publish more after completion; clock keeps advancing.
        p.publish((100..120u64).map(|id| TaskSpec { id, truth: false, priority: 0.2 }).collect());
        let mut resolved2 = 0;
        while let Some((t, r)) = p.poll_completions(VirtualTime::MAX) {
            assert!(t >= last);
            last = t;
            resolved2 += r.len();
        }
        assert_eq!(resolved2, 20);
    }
}
