//! Mid-job pair admission for streaming ingestion.
//!
//! A batch job's candidate set is frozen before the engine starts; a
//! streaming job keeps discovering pairs while earlier pairs are already
//! being labeled. [`StreamEngine`] is the admission layer that makes this
//! sound:
//!
//! * [`StreamEngine::ingest`] admits a delta of scored pairs (from the
//!   matcher's incremental join), growing the object universe and the
//!   connected-component structure as it goes — the component bookkeeping
//!   is what the partitioner rebalances at the next reshard barrier;
//! * [`StreamEngine::step_with_oracle`] eagerly labels everything
//!   admitted so far: the current pair set is sorted with the batch
//!   engine's strategy, partitioned into shards, and each shard replays
//!   the already-paid-for answers through [`ShardLabeler::seed_known`]
//!   before asking the oracle only the questions no previous step bought.
//!   **No question is ever paid for twice across steps** — the same
//!   economy journal resume is built on, applied between ingests.
//!
//! ## What is (and is not) equal to batch
//!
//! Deduction is monotone in knowledge but batch *selection* is not: a
//! step that ran before some pair arrived may crowdsource a question the
//! full-knowledge batch run would have deduced. Eager labels are always
//! **correct** (they come from the same closure over the same answers),
//! and with a consistent oracle the final labels equal the batch run's on
//! every pair; the *crowdsourced set* — and hence money — may be a
//! superset of batch's. That is the price of answering early. A streaming
//! job that wants the batch-identical ledger runs the final canonical
//! order through the unmodified batch engine at close (which is exactly
//! what the `crowdjoin` facade's stream path does); `StreamEngine` is for
//! the *eager* regime where provisional labels are wanted mid-stream.

use crate::engine::EngineConfig;
use crate::labeler::ShardLabeler;
use crate::oracle::SharedOracle;
use crate::partition::partition_candidates;
use crate::scheduler::run_sharded;
use crowdjoin_core::{Label, LabelingResult, Pair, ScoredPair};
use crowdjoin_graph::UnionFind;
use crowdjoin_util::{FxHashMap, FxHashSet};

/// What one [`StreamEngine::ingest`] call did to the component structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Pairs admitted (first time seen).
    pub admitted: usize,
    /// Pairs dropped as duplicates of already-admitted pairs.
    pub duplicates: usize,
    /// Admitted pairs that bridged two previously-distinct components —
    /// each such merge may invalidate the current sharding, which the next
    /// barrier rebalances.
    pub components_joined: usize,
    /// Admitted pairs that opened a brand-new component (neither object
    /// was part of any earlier pair).
    pub components_opened: usize,
}

/// Result of one eager labeling step.
#[derive(Debug, Clone)]
pub struct StreamStepReport {
    /// Merged labels over every admitted pair (global ids).
    pub result: LabelingResult,
    /// Questions this step paid for (earlier steps' answers were seeded,
    /// not re-asked).
    pub new_answers: usize,
    /// Answers replayed from earlier steps.
    pub seeded_answers: usize,
    /// Shards the step ran on.
    pub num_shards: usize,
}

/// Admission state for a streaming job: the pairs admitted so far, their
/// component structure, and every crowd answer already paid for.
#[derive(Debug, Clone)]
pub struct StreamEngine {
    config: EngineConfig,
    num_objects: usize,
    admitted: Vec<ScoredPair>,
    seen: FxHashSet<Pair>,
    components: UnionFind,
    active: Vec<bool>,
    known: FxHashMap<Pair, Label>,
}

impl StreamEngine {
    /// An empty admission state (zero objects, zero pairs).
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        Self {
            config,
            num_objects: 0,
            admitted: Vec::new(),
            seen: FxHashSet::default(),
            components: UnionFind::new(0),
            active: Vec::new(),
            known: FxHashMap::default(),
        }
    }

    /// Objects in the universe so far.
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Pairs admitted so far.
    #[must_use]
    pub fn num_pairs(&self) -> usize {
        self.admitted.len()
    }

    /// Crowd answers paid for so far (across all steps).
    #[must_use]
    pub fn num_known_answers(&self) -> usize {
        self.known.len()
    }

    /// Live connected components (components containing at least one
    /// admitted pair).
    #[must_use]
    pub fn num_components(&mut self) -> usize {
        let mut roots = FxHashSet::default();
        for i in 0..self.active.len() {
            if self.active[i] {
                roots.insert(self.components.find(i as u32));
            }
        }
        roots.len()
    }

    /// Admits a delta of pairs mid-job. `num_objects` is the new universe
    /// size (monotone — a stream only grows); pairs already admitted are
    /// counted as duplicates and dropped, so re-delivering a delta is
    /// harmless.
    ///
    /// # Panics
    ///
    /// Panics if `num_objects` shrinks the universe or a pair references
    /// an object `>= num_objects`.
    pub fn ingest(&mut self, num_objects: usize, pairs: &[ScoredPair]) -> IngestReport {
        assert!(
            num_objects >= self.num_objects,
            "universe cannot shrink: {} < {}",
            num_objects,
            self.num_objects
        );
        while self.num_objects < num_objects {
            self.components.push();
            self.active.push(false);
            self.num_objects += 1;
        }
        let mut report = IngestReport::default();
        for sp in pairs {
            let (a, b) = (sp.pair.a(), sp.pair.b());
            assert!(
                (b as usize) < self.num_objects,
                "pair {} references object outside universe of {}",
                sp.pair,
                self.num_objects
            );
            if !self.seen.insert(sp.pair) {
                report.duplicates += 1;
                continue;
            }
            let a_active = self.active[a as usize];
            let b_active = self.active[b as usize];
            if !a_active && !b_active {
                report.components_opened += 1;
            } else if a_active && b_active && self.components.find(a) != self.components.find(b) {
                report.components_joined += 1;
            }
            self.components.union(a, b);
            self.active[a as usize] = true;
            self.active[b as usize] = true;
            self.admitted.push(*sp);
            report.admitted += 1;
        }
        report
    }

    /// The admitted pairs in the batch engine's labeling order (likelihood
    /// descending, admission order breaking ties) — the order
    /// [`Self::step_with_oracle`] labels in.
    #[must_use]
    pub fn labeling_order(&self) -> Vec<ScoredPair> {
        let mut order = self.admitted.clone();
        order.sort_by(|x, y| {
            y.likelihood.partial_cmp(&x.likelihood).expect("likelihoods are not NaN")
        });
        order
    }

    /// Eagerly labels everything admitted so far: partition into shards,
    /// seed each shard with the answers earlier steps paid for, ask
    /// `oracle` only the remainder. Newly bought answers are remembered,
    /// so the next step (after more ingests) seeds them instead of
    /// re-asking.
    ///
    /// # Panics
    ///
    /// Panics if a shard reports incomplete while nothing is publishable
    /// (impossible for well-formed inputs).
    pub fn step_with_oracle<O: SharedOracle + ?Sized>(&mut self, oracle: &O) -> StreamStepReport {
        let order = self.labeling_order();
        let partition =
            partition_candidates(self.num_objects, &order, self.config.effective_shards());
        let num_shards = partition.shards.len();
        let known = &self.known;
        let shard_outcomes = run_sharded(partition.shards, self.config.num_threads, |shard| {
            let mut labeler = ShardLabeler::new(shard.num_objects(), shard.pairs.clone());
            let mut seeded = 0usize;
            for sp in &shard.pairs {
                if let Some(&label) = known.get(&shard.to_global(sp.pair)) {
                    labeler.seed_known(sp.pair, label);
                    seeded += 1;
                }
            }
            let mut bought: Vec<(Pair, Label)> = Vec::new();
            while !labeler.is_complete() {
                let batch = labeler.next_batch();
                assert!(
                    !batch.is_empty(),
                    "labeler stuck: shard {} incomplete with nothing to publish",
                    shard.index
                );
                let globals: Vec<Pair> = batch.iter().map(|sp| shard.to_global(sp.pair)).collect();
                let answers = oracle.answer_batch(&globals);
                assert_eq!(answers.len(), batch.len(), "oracle must answer every question");
                for ((sp, global), answer) in batch.iter().zip(globals).zip(answers) {
                    labeler.submit_answer(sp.pair, answer);
                    bought.push((global, answer));
                }
            }
            (shard.globalize(&labeler.into_result()), bought, seeded)
        });

        let mut result = LabelingResult::new();
        let mut new_answers = 0usize;
        let mut seeded_answers = 0usize;
        for (shard_result, bought, seeded) in shard_outcomes {
            for lp in shard_result.labeled_pairs() {
                result.record(lp.pair, lp.label, lp.provenance);
            }
            for _ in 0..shard_result.num_conflicts() {
                result.record_conflict();
            }
            new_answers += bought.len();
            seeded_answers += seeded;
            for (pair, label) in bought {
                self.known.insert(pair, label);
            }
        }
        StreamStepReport { result, new_answers, seeded_answers, num_shards }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_with_oracle;
    use crate::oracle::SharedGroundTruth;
    use crowdjoin_core::{sort_pairs, CandidateSet, GroundTruth, Provenance, SortStrategy};

    fn sp(a: u32, b: u32, l: f64) -> ScoredPair {
        ScoredPair::new(Pair::new(a, b), l)
    }

    #[test]
    fn ingest_tracks_components() {
        let mut engine = StreamEngine::new(EngineConfig::with_shards(4));
        let r = engine.ingest(4, &[sp(0, 1, 0.9), sp(2, 3, 0.8)]);
        assert_eq!(r.admitted, 2);
        assert_eq!(r.components_opened, 2);
        assert_eq!(r.components_joined, 0);
        assert_eq!(engine.num_components(), 2);

        // A bridge pair joins the two components; a duplicate is dropped.
        let r = engine.ingest(4, &[sp(1, 2, 0.7), sp(0, 1, 0.9)]);
        assert_eq!(r.admitted, 1);
        assert_eq!(r.duplicates, 1);
        assert_eq!(r.components_joined, 1);
        assert_eq!(engine.num_components(), 1);
    }

    #[test]
    fn steps_never_pay_twice_and_final_labels_match_batch() {
        let truth = GroundTruth::from_clusters(6, &[vec![0, 1, 2], vec![3, 4]]);
        let all = vec![
            sp(0, 1, 0.95),
            sp(1, 2, 0.90),
            sp(0, 5, 0.85),
            sp(0, 2, 0.80),
            sp(3, 4, 0.75),
            sp(3, 5, 0.70),
            sp(1, 3, 0.65),
            sp(4, 5, 0.60),
        ];
        let config = EngineConfig::with_shards(2);

        let mut engine = StreamEngine::new(config.clone());
        let oracle = SharedGroundTruth::new(&truth);
        // Stream in three chunks, stepping after each.
        let mut total_new = 0usize;
        for chunk in all.chunks(3) {
            engine.ingest(6, chunk);
            let step = engine.step_with_oracle(&oracle);
            assert_eq!(step.result.num_labeled(), engine.num_pairs());
            total_new += step.new_answers;
        }
        assert_eq!(total_new as u64, oracle.questions_asked(), "every answer bought once");

        // Final labels equal the batch run's on every pair.
        let cs = CandidateSet::new(6, all.clone());
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let batch_oracle = SharedGroundTruth::new(&truth);
        let batch = run_with_oracle(6, &order, &batch_oracle, &config);
        let last = engine.step_with_oracle(&oracle);
        for p in all.iter().map(|s| s.pair) {
            assert_eq!(last.result.label_of(p), batch.result.label_of(p));
            assert_eq!(last.result.label_of(p), Some(truth.label_of(p)));
        }
        // The extra step bought nothing: everything was already known.
        assert_eq!(last.new_answers, 0);
        assert_eq!(last.seeded_answers, engine.num_known_answers());
    }

    #[test]
    fn seeded_answers_rederive_deductions_across_steps() {
        // 0-1-2 is one entity; once (0,1) and (1,2) are answered in step 1,
        // a later-arriving (0,2) must be deduced, not bought.
        let truth = GroundTruth::from_clusters(3, &[vec![0, 1, 2]]);
        let oracle = SharedGroundTruth::new(&truth);
        let mut engine = StreamEngine::new(EngineConfig::with_shards(1));
        engine.ingest(3, &[sp(0, 1, 0.9), sp(1, 2, 0.8)]);
        engine.step_with_oracle(&oracle);
        assert_eq!(oracle.questions_asked(), 2);

        engine.ingest(3, &[sp(0, 2, 0.7)]);
        let step = engine.step_with_oracle(&oracle);
        assert_eq!(oracle.questions_asked(), 2, "(0,2) is deducible from seeded answers");
        assert_eq!(step.new_answers, 0);
        assert_eq!(step.result.provenance_of(Pair::new(0, 2)), Some(Provenance::Deduced));
    }

    #[test]
    #[should_panic(expected = "universe cannot shrink")]
    fn shrinking_universe_rejected() {
        let mut engine = StreamEngine::new(EngineConfig::default());
        engine.ingest(5, &[]);
        engine.ingest(3, &[]);
    }
}
