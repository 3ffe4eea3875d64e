//! The engine's per-shard labeling state machine.
//!
//! Semantically equivalent to `crowdjoin_core::ParallelLabeler` (Algorithms
//! 2/3 with the instant-decision refinement) but with the post-answer
//! deduction sweep replaced by the [`IncrementalClosure`] delta: submitting
//! an answer costs O(affected pairs), not O(pending pairs). Batch selection
//! (Algorithm 3) is unchanged — it is inherently a scan because the
//! *supposed-matching* graph must be rebuilt under each round's knowledge.
//!
//! The equivalence (same labels, same crowdsourced set for consistent
//! answers) is pinned by the `engine_equivalence` integration tests.
//!
//! Besides the live path ([`ShardLabeler::next_batch`] /
//! [`ShardLabeler::submit_answer`]), the labeler exposes the **replay
//! primitive** [`ShardLabeler::seed_known`]: feed an already-paid-for
//! crowd answer without publishing, propagating its deduction delta
//! exactly as a live answer would. Replaying a shard's crowdsourced
//! answers in labeling order re-derives its deduced labels too, which is
//! what both dynamic re-sharding (rebuilding merged shards at a barrier)
//! and journal recovery (rebuilding labeler state from
//! `crowdjoin-wal` answer records) are built on.

use crate::closure::IncrementalClosure;
use crowdjoin_core::{Label, LabelingResult, Pair, Provenance, ScoredPair};
use crowdjoin_graph::ClusterGraph;
use crowdjoin_util::FxHashMap;

/// Per-pair lifecycle (mirrors the core labeler's states).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairState {
    Unlabeled,
    Published,
    /// Labeled, with the label recorded in the result.
    Labeled(Label),
}

/// Event-driven labeler over one shard's (local-id) labeling order.
#[derive(Debug, Clone)]
pub struct ShardLabeler {
    num_objects: usize,
    order: Vec<ScoredPair>,
    index_of: FxHashMap<Pair, usize>,
    state: Vec<PairState>,
    closure: IncrementalClosure,
    result: LabelingResult,
    outstanding: usize,
    scan_conflicts: usize,
}

impl ShardLabeler {
    /// Creates a labeler for `order` over a universe of `num_objects`. Pairs
    /// are published in the order given (the caller's `sort_pairs` order —
    /// likelihood-descending in production, the paper's heuristic).
    ///
    /// # Panics
    ///
    /// Panics if a pair references an object `>= num_objects` or appears
    /// twice in `order`.
    #[must_use]
    pub fn new(num_objects: usize, order: Vec<ScoredPair>) -> Self {
        let mut index_of = FxHashMap::default();
        for (i, sp) in order.iter().enumerate() {
            assert!(
                (sp.pair.b() as usize) < num_objects,
                "pair {} references object outside universe of {num_objects}",
                sp.pair
            );
            assert!(index_of.insert(sp.pair, i).is_none(), "duplicate pair {} in order", sp.pair);
        }
        let n = order.len();
        let mut closure = IncrementalClosure::new(num_objects);
        for (i, sp) in order.iter().enumerate() {
            // The graph is empty at construction: nothing is deducible yet,
            // so every pair indexes as pending.
            let already = closure.track(i, sp.pair);
            debug_assert!(already.is_none());
        }
        Self {
            num_objects,
            order,
            index_of,
            state: vec![PairState::Unlabeled; n],
            closure,
            result: LabelingResult::new(),
            outstanding: 0,
            scan_conflicts: 0,
        }
    }

    /// `true` once every pair has a label.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.result.num_labeled() == self.order.len()
    }

    /// Number of published pairs whose answers are still outstanding.
    #[must_use]
    pub fn num_outstanding(&self) -> usize {
        self.outstanding
    }

    /// Diagnostic: real labels that conflicted with the assumed-matching
    /// scan graph (stays 0 for consistent answer sources).
    #[must_use]
    pub fn num_scan_conflicts(&self) -> usize {
        self.scan_conflicts
    }

    /// Algorithm 3 with instant decision: the pairs that must be
    /// crowdsourced under current knowledge, excluding those already
    /// published. Marks returned pairs published.
    ///
    /// A single pass in index order: real labels build the scan graph,
    /// everything else is supposed matching and publishes unless deducible.
    pub fn next_batch(&mut self) -> Vec<ScoredPair> {
        let mut scan = ClusterGraph::new(self.num_objects);
        let mut batch = Vec::new();
        for i in 0..self.order.len() {
            let sp = self.order[i];
            let (a, b) = (sp.pair.a(), sp.pair.b());
            match self.state[i] {
                PairState::Labeled(label) => {
                    if scan.insert(a, b, label).is_err() {
                        self.scan_conflicts += 1;
                    }
                }
                state @ (PairState::Published | PairState::Unlabeled) => {
                    if scan.deduce(a, b).is_none() {
                        if state == PairState::Unlabeled {
                            self.state[i] = PairState::Published;
                            self.outstanding += 1;
                            batch.push(sp);
                        }
                        scan.insert(a, b, Label::Matching)
                            .expect("insert after failed deduction cannot conflict");
                    }
                }
            }
        }
        batch
    }

    /// Feeds one crowd answer, then labels exactly the pairs the answer made
    /// deducible (the incremental-closure delta).
    ///
    /// # Panics
    ///
    /// Panics if `pair` was not published or was already answered.
    pub fn submit_answer(&mut self, pair: Pair, answer: Label) {
        let &i = self
            .index_of
            .get(&pair)
            .unwrap_or_else(|| panic!("pair {pair} is not part of this labeling task"));
        assert_eq!(
            self.state[i],
            PairState::Published,
            "answer submitted for pair {pair} that is not awaiting one"
        );
        self.outstanding -= 1;

        let mut delta = Vec::new();
        let label = match self.closure.insert(pair, answer, &mut delta) {
            Ok(_) => answer,
            Err(conflict) => {
                self.result.record_conflict();
                conflict.deduced
            }
        };
        self.state[i] = PairState::Labeled(label);
        self.result.record(pair, label, Provenance::Crowdsourced);

        for (j, deduced_label) in delta {
            match self.state[j] {
                PairState::Unlabeled => {
                    self.state[j] = PairState::Labeled(deduced_label);
                    self.result.record(self.order[j].pair, deduced_label, Provenance::Deduced);
                }
                // The answered pair itself appears in its own delta (it was
                // tracked); it is already recorded as crowdsourced. A
                // published pair that became deducible stays awaiting its
                // answer — it was already paid for, and the paper counts it
                // as crowdsourced.
                PairState::Published | PairState::Labeled(_) => {}
            }
        }
    }

    /// Seeds an already-known crowd answer without publishing — the replay
    /// primitive dynamic re-sharding uses to reconstruct a merged shard's
    /// deduction state from its predecessors' crowdsourced answers.
    ///
    /// The pair is recorded as crowdsourced (it was paid for in a previous
    /// incarnation) and its deduction delta propagates exactly as a live
    /// answer would, so replaying a shard's crowdsourced answers in labeling
    /// order re-derives its deduced labels too. A pair that an earlier seed
    /// already made deducible is skipped: the closure has its label, and the
    /// money spent on the redundant answer stays accounted to the retired
    /// platform. A replayed conflict is **not** re-counted (the incarnation
    /// that first saw it already did); the deduced label wins as usual.
    ///
    /// # Panics
    ///
    /// Panics if `pair` is not part of this labeling task or is awaiting a
    /// live answer.
    pub fn seed_known(&mut self, pair: Pair, answer: Label) {
        let &i = self
            .index_of
            .get(&pair)
            .unwrap_or_else(|| panic!("pair {pair} is not part of this labeling task"));
        match self.state[i] {
            PairState::Labeled(_) => return,
            PairState::Published => {
                panic!("pair {pair} is awaiting a live answer and cannot be seeded")
            }
            PairState::Unlabeled => {}
        }
        let mut delta = Vec::new();
        let label = match self.closure.insert(pair, answer, &mut delta) {
            Ok(_) => answer,
            Err(conflict) => conflict.deduced,
        };
        self.state[i] = PairState::Labeled(label);
        self.result.record(pair, label, Provenance::Crowdsourced);
        for (j, deduced_label) in delta {
            if self.state[j] == PairState::Unlabeled {
                self.state[j] = PairState::Labeled(deduced_label);
                self.result.record(self.order[j].pair, deduced_label, Provenance::Deduced);
            }
        }
    }

    /// The labeling order this labeler runs over (local ids).
    #[must_use]
    pub fn order(&self) -> &[ScoredPair] {
        &self.order
    }

    /// Pairs with no label yet that are not awaiting a crowd answer — the
    /// still-open work dynamic re-sharding repartitions.
    #[must_use]
    pub fn unlabeled_pairs(&self) -> Vec<ScoredPair> {
        self.order
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.state[i] == PairState::Unlabeled)
            .map(|(_, sp)| *sp)
            .collect()
    }

    /// Consumes the labeler and returns the labeling result.
    ///
    /// # Panics
    ///
    /// Panics if labeling is not complete.
    #[must_use]
    pub fn into_result(self) -> LabelingResult {
        assert!(self.is_complete(), "labeling is not complete");
        self.result
    }

    /// Read access to the (partial) result while labeling is in progress.
    #[must_use]
    pub fn result(&self) -> &LabelingResult {
        &self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdjoin_core::{
        run_parallel_rounds, sort_pairs, CandidateSet, GroundTruth, GroundTruthOracle, Oracle,
        ParallelLabeler, SortStrategy,
    };

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

    /// Round-based driver for tests.
    fn run_rounds(
        num_objects: usize,
        order: Vec<ScoredPair>,
        oracle: &mut dyn Oracle,
    ) -> (LabelingResult, Vec<usize>) {
        let mut labeler = ShardLabeler::new(num_objects, order);
        let mut batch_sizes = Vec::new();
        while !labeler.is_complete() {
            let batch = labeler.next_batch();
            assert!(!batch.is_empty(), "stuck: incomplete but nothing to publish");
            batch_sizes.push(batch.len());
            for sp in batch {
                let answer = oracle.answer(sp.pair);
                labeler.submit_answer(sp.pair, answer);
            }
        }
        (labeler.into_result(), batch_sizes)
    }

    #[test]
    fn example5_matches_core_labeler() {
        let (cs, truth) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);

        let mut o1 = GroundTruthOracle::new(&truth);
        let (core_result, core_stats) =
            run_parallel_rounds(cs.num_objects(), order.clone(), &mut o1);

        let mut o2 = GroundTruthOracle::new(&truth);
        let (result, batches) = run_rounds(cs.num_objects(), order, &mut o2);

        assert_eq!(batches, core_stats.batch_sizes);
        assert_eq!(result.num_crowdsourced(), core_result.num_crowdsourced());
        assert_eq!(result.num_deduced(), core_result.num_deduced());
        for sp in cs.pairs() {
            assert_eq!(result.label_of(sp.pair), core_result.label_of(sp.pair));
            assert_eq!(result.provenance_of(sp.pair), core_result.provenance_of(sp.pair));
        }
    }

    #[test]
    fn first_batch_identical_to_core() {
        let (cs, _) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let mut core = ParallelLabeler::new(cs.num_objects(), order.clone());
        let mut ours = ShardLabeler::new(cs.num_objects(), order);
        let a: Vec<Pair> = core.next_batch().iter().map(|sp| sp.pair).collect();
        let b: Vec<Pair> = ours.next_batch().iter().map(|sp| sp.pair).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn randomized_equivalence_with_core() {
        let mut rng = crowdjoin_util::SplitMix64::new(77);
        for _ in 0..100 {
            let n = 4 + (rng.next_u64() % 12) as usize;
            let k = 1 + (rng.next_u64() % 4) as u32;
            let entities: Vec<u32> = (0..n as u32).map(|i| i % k).collect();
            let truth = GroundTruth::new(entities);
            let mut pairs = Vec::new();
            let mut seen = crowdjoin_util::FxHashSet::default();
            for _ in 0..n * 2 {
                let a = (rng.next_u64() % n as u64) as u32;
                let b = (rng.next_u64() % n as u64) as u32;
                if a != b {
                    let p = Pair::new(a, b);
                    if seen.insert(p) {
                        pairs.push(ScoredPair::new(p, rng.next_f64()));
                    }
                }
            }
            let cs = CandidateSet::new(n, pairs);
            let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);

            let mut o1 = GroundTruthOracle::new(&truth);
            let (core_result, core_stats) =
                run_parallel_rounds(cs.num_objects(), order.clone(), &mut o1);
            let mut o2 = GroundTruthOracle::new(&truth);
            let (result, batches) = run_rounds(cs.num_objects(), order, &mut o2);

            assert_eq!(batches, core_stats.batch_sizes);
            assert_eq!(result.num_crowdsourced(), core_result.num_crowdsourced());
            for sp in cs.pairs() {
                assert_eq!(result.label_of(sp.pair), core_result.label_of(sp.pair));
            }
        }
    }

    #[test]
    fn empty_order_completes_immediately() {
        let labeler = ShardLabeler::new(4, vec![]);
        assert!(labeler.is_complete());
        assert_eq!(labeler.into_result().num_labeled(), 0);
    }

    #[test]
    fn seeding_crowdsourced_answers_rederives_deductions() {
        let (cs, truth) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let mut oracle = GroundTruthOracle::new(&truth);
        let (live, _) = run_rounds(cs.num_objects(), order.clone(), &mut oracle);

        // Replay only the crowdsourced answers, in labeling order, into a
        // fresh labeler: every deduced label must re-derive.
        let mut replayed = ShardLabeler::new(cs.num_objects(), order.clone());
        for sp in &order {
            if live.provenance_of(sp.pair) == Some(Provenance::Crowdsourced) {
                replayed.seed_known(sp.pair, live.label_of(sp.pair).unwrap());
            }
        }
        assert!(replayed.is_complete());
        assert!(replayed.unlabeled_pairs().is_empty());
        let result = replayed.into_result();
        assert_eq!(result.num_labeled(), live.num_labeled());
        for sp in cs.pairs() {
            assert_eq!(result.label_of(sp.pair), live.label_of(sp.pair));
        }
    }

    #[test]
    fn seeding_partial_state_resumes_cleanly() {
        let (cs, truth) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);

        // Answer only the first published round, then rebuild and finish.
        let mut first = ShardLabeler::new(cs.num_objects(), order.clone());
        let round1 = first.next_batch();
        for sp in &round1 {
            first.submit_answer(sp.pair, truth.label_of(sp.pair));
        }
        let known: Vec<(Pair, Label)> = order
            .iter()
            .filter(|sp| first.result().provenance_of(sp.pair) == Some(Provenance::Crowdsourced))
            .map(|sp| (sp.pair, first.result().label_of(sp.pair).unwrap()))
            .collect();
        let unlabeled = first.unlabeled_pairs().len();

        let mut resumed = ShardLabeler::new(cs.num_objects(), order.clone());
        for &(pair, label) in &known {
            resumed.seed_known(pair, label);
        }
        assert_eq!(resumed.unlabeled_pairs().len(), unlabeled);
        let mut oracle = GroundTruthOracle::new(&truth);
        while !resumed.is_complete() {
            let batch = resumed.next_batch();
            assert!(!batch.is_empty());
            for sp in batch {
                resumed.submit_answer(sp.pair, oracle.answer(sp.pair));
            }
        }
        let result = resumed.into_result();
        for sp in cs.pairs() {
            assert_eq!(result.label_of(sp.pair), Some(truth.label_of(sp.pair)));
        }
    }

    #[test]
    #[should_panic(expected = "not awaiting")]
    fn double_answer_rejected() {
        let (cs, _) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let mut labeler = ShardLabeler::new(cs.num_objects(), order);
        let batch = labeler.next_batch();
        let p = batch[0].pair;
        labeler.submit_answer(p, Label::Matching);
        labeler.submit_answer(p, Label::Matching);
    }
}
