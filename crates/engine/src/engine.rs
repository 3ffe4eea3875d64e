//! Job-level entry points: partition, schedule, run, resume, stitch.

use crate::event_loop::{run_event_loop, JournalRun};
use crate::oracle::{OracleBackend, SharedOracle};
use crate::partition::partition_candidates;
use crate::persist::{job_header, verify_header};
use crate::report::EngineReport;
use crowdjoin_core::{GroundTruth, ScoredPair};
use crowdjoin_sim::{BackendFactory, PlatformConfig, SimFactory};
use crowdjoin_wal::{partition_replay, Journal, WalError};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Engine tunables.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Target shard count; the partitioner may produce fewer when there are
    /// fewer connected components. `0` means one shard per available CPU.
    pub num_shards: usize,
    /// Worker threads; `0` means `min(num_shards, available parallelism)`.
    pub num_threads: usize,
    /// Platform-driven runs: recompute the publishable set after every HIT
    /// resolution (`true`, the paper's instant-decision optimization) or
    /// only when all outstanding pairs are labeled (`false`).
    pub instant_decision: bool,
    /// Master seed for per-shard platform derivation.
    pub seed: u64,
    /// Platform-driven runs: append every crowd answer to a crash-safe
    /// write-ahead journal at this path (see `crowdjoin-wal`). A killed job
    /// is then resumable with [`Engine::resume`], re-paying nothing. The
    /// path must not already hold a non-empty file — an existing journal
    /// may contain paid-for answers and must be resumed or deleted
    /// explicitly. Ignored by [`run_with_oracle`].
    pub journal: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { num_shards: 0, num_threads: 0, instant_decision: true, seed: 0, journal: None }
    }
}

impl EngineConfig {
    /// Config with an explicit shard count and defaults elsewhere.
    #[must_use]
    pub fn with_shards(num_shards: usize) -> Self {
        Self { num_shards, ..Self::default() }
    }

    pub(crate) fn effective_shards(&self) -> usize {
        if self.num_shards == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.num_shards
        }
    }
}

/// A configured platform-driven job: inputs and tunables bundled so fresh
/// runs and journal resumes share one construction path.
///
/// ```no_run
/// use crowdjoin_core::{GroundTruth, Pair, ParallelLabeler, ScoredPair};
/// use crowdjoin_engine::{Engine, EngineConfig};
/// use crowdjoin_sim::PlatformConfig;
///
/// let truth = GroundTruth::from_clusters(3, &[vec![0, 1, 2]]);
/// let order = vec![ScoredPair::new(Pair::new(0, 1), 0.9)];
/// let platform = PlatformConfig::amt_like(7);
/// let config = EngineConfig { journal: Some("job.wal".into()), ..EngineConfig::default() };
/// let engine = Engine::new(3, &order, &truth, &platform, config);
/// let report = match engine.run() {
///     Ok(report) => report,                                  // journaled run
///     Err(_) => engine.resume("job.wal".as_ref()).unwrap(),  // e.g. journal exists: resume it
/// };
/// assert_eq!(report.result.num_labeled(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Engine<'a> {
    num_objects: usize,
    order: &'a [ScoredPair],
    truth: &'a GroundTruth,
    platform: &'a PlatformConfig,
    config: EngineConfig,
}

impl<'a> Engine<'a> {
    /// Bundles a job's inputs with its engine configuration.
    #[must_use]
    pub fn new(
        num_objects: usize,
        order: &'a [ScoredPair],
        truth: &'a GroundTruth,
        platform: &'a PlatformConfig,
        config: EngineConfig,
    ) -> Self {
        Self { num_objects, order, truth, platform, config }
    }

    /// Runs the job on the event loop with one deterministic simulated
    /// [`crowdjoin_sim::Platform`] per shard (seed derived from the engine
    /// seed and the shard index). The `platform` config's worker pool models
    /// the **whole crowd** and is divided evenly across shards (floored at
    /// `assignments_per_hit`), so different shard counts compare equal total
    /// crowd labor. With [`EngineConfig::journal`] set, every crowd answer is
    /// write-ahead logged so a killed process can be resumed with
    /// [`Self::resume`].
    ///
    /// # Errors
    ///
    /// [`WalError::AlreadyExists`] if the journal path holds a non-empty
    /// file (resume or delete it explicitly), [`WalError::Io`] if the
    /// journal cannot be created. Unjournaled runs never fail.
    ///
    /// # Panics
    ///
    /// Panics if a pair references an object `>= num_objects`, appears
    /// twice in `order`, or the platform configuration is invalid; or on a
    /// journal I/O failure mid-run — a write-ahead log that silently stops
    /// logging would betray the resume, so the engine is fail-stop.
    pub fn run(&self) -> Result<EngineReport, WalError> {
        self.run_with_backend(&SimFactory::new())
    }

    /// Runs the job on the event loop against the crowd backends `factory`
    /// creates — the generic entry point behind [`Self::run`]. One backend
    /// is created per shard; the event loop schedules every
    /// shard by its backend's next event time and waits on the factory's
    /// [`crowdjoin_sim::TimeSource`], so simulated (virtual-time) and
    /// external (wall-clock) backends run through the identical engine
    /// path.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    ///
    /// # Panics
    ///
    /// As [`Self::run`].
    pub fn run_with_backend<F: BackendFactory>(
        &self,
        factory: &F,
    ) -> Result<EngineReport, WalError> {
        let journal = match &self.config.journal {
            None => None,
            Some(path) => {
                let header = job_header(
                    self.num_objects,
                    self.order,
                    self.truth,
                    self.platform,
                    &self.config,
                    self.config.effective_shards(),
                );
                Some(JournalRun {
                    sink: Arc::new(Journal::create(path, &header)?),
                    plan: crowdjoin_wal::ReplayPlan::default(),
                })
            }
        };
        Ok(self.run_event_loop(factory, &self.config, journal))
    }

    /// Resumes a killed journaled job: replays the journal's paid-for
    /// answers (verifying each re-derived record bit-for-bit), asks the
    /// crowd only the questions the crashed run never paid for, and keeps
    /// appending to the same journal — so a resumed job can itself crash
    /// and be resumed again.
    ///
    /// Because every shard simulation is deterministic, the resumed report
    /// is **bit-identical** to the report of an uninterrupted run: same
    /// labels and provenance, same per-shard platform statistics, same
    /// money, same completion time. What differs is the ledger:
    /// [`EngineReport::num_replayed_answers`] counts the journaled answers
    /// that were *not* re-asked, and [`EngineReport::num_new_answers`]
    /// the ones this run actually paid for. Resuming a journal whose job
    /// already finished replays everything and asks nothing.
    ///
    /// A torn tail (crash mid-append) is truncated on open; answers after
    /// the last durable barrier replay fine — the journal is usable from
    /// any byte-level prefix.
    ///
    /// The engine's `num_shards = 0` ("one shard per CPU") is resolved
    /// from the journal header, so a journal resumes identically on a
    /// machine with a different core count.
    ///
    /// # Errors
    ///
    /// [`WalError::HeaderMismatch`] when the inputs, seeds, or flags
    /// differ from the journaled job (e.g. resuming with a different
    /// `--seed`), or when the journal was written by an older build under
    /// dynamic re-sharding or a question-ordering policy this build no
    /// longer has; [`WalError::Corrupt`] / [`WalError::NotAJournal`] /
    /// [`WalError::VersionMismatch`] for a damaged or foreign file;
    /// [`WalError::Io`] on I/O failure.
    ///
    /// # Panics
    ///
    /// Panics if the journal passes the header check but diverges from the
    /// re-derived history mid-replay — that means the journal and the job
    /// disagree in a way fingerprints could not catch, and continuing
    /// would silently fork paid-for history.
    pub fn resume(&self, path: &Path) -> Result<EngineReport, WalError> {
        self.resume_with_backend(path, &SimFactory::new())
    }

    /// Resumes a killed journaled job on the crowd backends `factory`
    /// creates — the generic entry point behind [`Self::resume`]. The
    /// replay mode follows [`BackendFactory::deterministic_replay`]:
    /// deterministic backends re-execute and verify every record
    /// bit-for-bit (see [`Self::resume`] for the guarantees); external
    /// backends get the journaled answers *fed* straight into the labelers
    /// — no journaled question is ever re-posted, only the remainder goes
    /// back out, and the journal keeps appending so the resumed run is
    /// itself crash-safe.
    ///
    /// # Errors
    ///
    /// As [`Self::resume`].
    ///
    /// # Panics
    ///
    /// As [`Self::resume`].
    pub fn resume_with_backend<F: BackendFactory>(
        &self,
        path: &Path,
        factory: &F,
    ) -> Result<EngineReport, WalError> {
        let (contents, sink) = Journal::open_resume(path)?;
        let mut config = self.config.clone();
        if config.num_shards == 0 {
            config.num_shards = contents.header.num_shards as usize;
        }
        // New records go to the journal being resumed, whatever
        // `config.journal` says.
        config.journal = Some(path.to_path_buf());
        let header = job_header(
            self.num_objects,
            self.order,
            self.truth,
            self.platform,
            &config,
            config.effective_shards(),
        );
        verify_header(&contents.header, &header)?;
        let plan = partition_replay(&contents.records);
        Ok(self.run_event_loop(factory, &config, Some(JournalRun { sink: Arc::new(sink), plan })))
    }

    fn run_event_loop<F: BackendFactory>(
        &self,
        factory: &F,
        config: &EngineConfig,
        journal: Option<JournalRun>,
    ) -> EngineReport {
        let partition =
            partition_candidates(self.num_objects, self.order, config.effective_shards());
        run_event_loop(
            partition,
            &|pair| self.truth.is_matching(pair),
            factory,
            self.platform,
            config,
            journal,
        )
    }
}

/// Runs the sharded engine against a thread-safe oracle: the event loop of
/// [`Engine::run`] over a zero-latency backend that answers each post with
/// one `answer_batch` call at virtual time zero. The report has no money,
/// HITs or completion time, and a platform run's round telemetry and
/// `engine.*` metrics. `config.journal` is ignored: the caller owns the
/// oracle's durability.
///
/// # Panics
///
/// Panics if a pair references an object `>= num_objects` or appears twice
/// in `order`.
#[must_use]
pub fn run_with_oracle<O: SharedOracle + ?Sized>(
    num_objects: usize,
    order: &[ScoredPair],
    oracle: &O,
    config: &EngineConfig,
) -> EngineReport {
    let partition = partition_candidates(num_objects, order, config.effective_shards());
    run_event_loop(
        partition,
        // The backend answers the pair each task id encodes; the tasks'
        // ground-truth bit and the platform config go unused.
        &|_| false,
        &OracleBackend { oracle, answered: Vec::new() },
        &PlatformConfig::perfect_workers(config.seed),
        config,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SharedGroundTruth;
    use crowdjoin_core::{sort_pairs, CandidateSet, Pair, SortStrategy};
    use crowdjoin_sim::VirtualTime;

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

    #[test]
    fn oracle_run_labels_everything_correctly() {
        let (cs, truth) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let oracle = SharedGroundTruth::new(&truth);
        let report =
            run_with_oracle(cs.num_objects(), &order, &oracle, &EngineConfig::with_shards(4));
        assert_eq!(report.result.num_labeled(), cs.len());
        for sp in cs.pairs() {
            assert_eq!(report.result.label_of(sp.pair), Some(truth.label_of(sp.pair)));
        }
        // One connected component: cannot shard further.
        assert_eq!(report.num_shards(), 1);
        assert_eq!(report.num_components, 1);
        assert_eq!(report.num_crowdsourced() as u64, oracle.questions_asked());
        // A zero-latency backend: no money, no time, but rounds like a
        // platform run, each publishing one labeler batch.
        assert_eq!(report.shards[0].stats, Some(Default::default()));
        assert_eq!(report.completion, VirtualTime::ZERO);
        let rounds = report.round_metrics();
        assert_eq!(rounds.len(), report.critical_path_rounds());
        assert_eq!(rounds.iter().map(|r| r.published).sum::<usize>(), report.num_crowdsourced());
    }

    /// An oracle run is the event loop over a zero-latency backend, so it
    /// reports like a platform run: the shard tasks' `engine.*` metrics, and
    /// round metrics whose `published` sum to the crowdsourced count.
    #[test]
    fn oracle_runs_report_like_platform_runs() {
        let (cs, truth) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let oracle = SharedGroundTruth::new(&truth);
        let report =
            run_with_oracle(cs.num_objects(), &order, &oracle, &EngineConfig::with_shards(2));

        // Nothing in this crate resets the registry: these counters only grow.
        use crowdjoin_obs::metrics::MetricValue;
        let snapshot = crowdjoin_obs::snapshot_metrics();
        for name in
            ["engine.scans", "engine.scan_visits", "engine.scan_decisions", "engine.answers"]
        {
            let counted =
                snapshot.iter().any(|m| m.name == name && m.value != MetricValue::Counter(0));
            assert!(counted, "oracle run metrics missing {name}");
        }

        let rounds = report.round_metrics();
        assert!(!rounds.is_empty(), "oracle run emitted no round metrics");
        assert_eq!(rounds.iter().map(|r| r.published).sum::<usize>(), report.num_crowdsourced());
    }

    #[test]
    fn platform_run_matches_oracle_run_costs() {
        let (cs, truth) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let platform = PlatformConfig::perfect_workers(7);
        let config = EngineConfig::with_shards(2);
        let report = Engine::new(cs.num_objects(), &order, &truth, &platform, config)
            .run()
            .expect("unjournaled run");
        assert_eq!(report.result.num_crowdsourced(), 6);
        assert_eq!(report.result.num_deduced(), 2);
        assert!(report.completion > VirtualTime::ZERO);
        assert!(report.total_cost_cents > 0);
        for sp in cs.pairs() {
            assert_eq!(report.result.label_of(sp.pair), Some(truth.label_of(sp.pair)));
        }
    }

    #[test]
    fn empty_workload() {
        let truth = GroundTruth::all_distinct(4);
        let oracle = SharedGroundTruth::new(&truth);
        let report = run_with_oracle(4, &[], &oracle, &EngineConfig::default());
        assert_eq!(report.num_shards(), 0);
        assert_eq!(report.result.num_labeled(), 0);
        assert_eq!(report.completion, VirtualTime::ZERO);
    }
}
