//! The engine's per-shard labeling state machine.
//!
//! Semantically equivalent to `crowdjoin_core::ParallelLabeler` (Algorithms
//! 2/3 with the instant-decision refinement) but with the post-answer
//! deduction sweep replaced by the [`IncrementalClosure`] delta: submitting
//! an answer costs O(affected pairs), not O(pending pairs). Batch selection
//! (Algorithm 3) is unchanged — it is a scan because the *supposed-matching*
//! graph must be rebuilt under each round's knowledge — but the labeler
//! keeps one scan graph for its lifetime ([`ClusterGraph::reset`] per scan,
//! one [`ClusterGraph::insert`] per position) and does not scan when the
//! scan cannot differ from the last one.
//!
//! The equivalence (same labels, same crowdsourced set for consistent
//! answers) is pinned by the `engine_equivalence` integration tests.
//!
//! # The scan graph depends on the non-matching positions only
//!
//! The scan treats a position in one of two ways. A position labeled
//! `NonMatching` adds a cluster edge unless the pair is deducible. Every
//! other position — labeled `Matching`, published, or unlabeled — unions
//! its endpoints unless the pair is deducible; whether it is *also*
//! published depends on its state, but the graph does not. So the graph
//! after each position, and with it every later position's outcome, is a
//! function of **which positions are labeled `NonMatching`**: publishing, a
//! `Matching` answer and a closure-deduced `Matching` label change nothing.
//!
//! **Skip rule.** Each scan records, per position, whether it inserted
//! (unioned). [`ShardLabeler::next_batch`] rescans only if, since the last
//! scan, some position that unioned in it has turned `NonMatching`;
//! otherwise it returns the empty batch. Proof: take the newly
//! `NonMatching` positions in order. The first one's prefix is unchanged;
//! it did not union, so it was deducible there and still is — as
//! `NonMatching` it is redundant or a conflict and leaves the graph alone,
//! exactly as before, so the next one's prefix is unchanged too. The whole
//! scan therefore repeats the last one, whose every unlabeled
//! non-deducible position is already published: the batch is empty.
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
use crowdjoin_graph::{ClusterGraph, InsertOutcome};
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
    order: Vec<ScoredPair>,
    index_of: FxHashMap<Pair, usize>,
    state: Vec<PairState>,
    closure: IncrementalClosure,
    result: LabelingResult,
    outstanding: usize,
    /// The Algorithm-3 scan graph, reset and refilled by each scan.
    scan: ClusterGraph,
    /// Per position: it inserted into `scan` (unioned) in the last scan.
    unioned: Vec<bool>,
    /// A position with `unioned` set turned `NonMatching` since the last
    /// scan (or no scan has run yet): the next scan can differ.
    dirty: bool,
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
            order,
            index_of,
            state: vec![PairState::Unlabeled; n],
            closure,
            result: LabelingResult::new(),
            outstanding: 0,
            scan: ClusterGraph::new(num_objects),
            unioned: vec![false; n],
            dirty: true,
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

    /// `true` when the next [`Self::next_batch`] call will scan; `false`
    /// when it will return the empty batch under the skip rule (module
    /// docs).
    pub(crate) fn rescan_pending(&self) -> bool {
        self.dirty
    }

    /// Algorithm 3 with instant decision: the pairs that must be
    /// crowdsourced under current knowledge, excluding those already
    /// published. Marks returned pairs published.
    ///
    /// A single pass in index order: real labels build the scan graph,
    /// everything else is supposed matching and publishes unless deducible
    /// (a real label that contradicts a *supposed* cluster is skipped, which
    /// can only cause extra publishing). Skipped altogether when no answer
    /// since the last scan can have changed its outcome (module docs).
    pub fn next_batch(&mut self) -> Vec<ScoredPair> {
        let mut batch = Vec::new();
        if !self.dirty {
            return batch;
        }
        self.dirty = false;
        self.scan.reset();
        for (i, sp) in self.order.iter().enumerate() {
            let state = self.state[i];
            let label = match state {
                PairState::Labeled(label) => label,
                PairState::Published | PairState::Unlabeled => Label::Matching,
            };
            // `Inserted` is "not deducible"; redundant or conflicting is
            // "deducible" and leaves the graph alone.
            let inserted =
                self.scan.insert(sp.pair.a(), sp.pair.b(), label) == Ok(InsertOutcome::Inserted);
            self.unioned[i] = inserted;
            if inserted && state == PairState::Unlabeled {
                self.state[i] = PairState::Published;
                self.outstanding += 1;
                batch.push(*sp);
            }
        }
        batch
    }

    /// Reference [`Self::next_batch`] for the differential tests: a fresh
    /// graph per scan, `deduce` then `insert`, no skip — Algorithm 3 as
    /// written, sharing nothing with the reused graph or the skip rule.
    #[cfg(test)]
    fn next_batch_reference(&mut self) -> Vec<ScoredPair> {
        let mut scan = ClusterGraph::new(self.scan.num_objects());
        let mut batch = Vec::new();
        for i in 0..self.order.len() {
            let sp = self.order[i];
            let (a, b) = (sp.pair.a(), sp.pair.b());
            match self.state[i] {
                PairState::Labeled(label) => {
                    let _ = scan.insert(a, b, label);
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

    /// Labels position `i`, requesting a rescan when that changes the scan
    /// graph: the position unioned in the last scan and now will not.
    fn set_label(&mut self, i: usize, label: Label) {
        self.state[i] = PairState::Labeled(label);
        self.dirty |= label == Label::NonMatching && self.unioned[i];
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
        self.set_label(i, label);
        self.result.record(pair, label, Provenance::Crowdsourced);

        for (j, deduced_label) in delta {
            match self.state[j] {
                PairState::Unlabeled => {
                    self.set_label(j, deduced_label);
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
        self.set_label(i, label);
        self.result.record(pair, label, Provenance::Crowdsourced);
        for (j, deduced_label) in delta {
            if self.state[j] == PairState::Unlabeled {
                self.set_label(j, deduced_label);
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

    /// The triangle of `task.rs`' `parks_at_round_boundary…`: all-distinct
    /// objects 0–2 plus a disjoint matching pair; round 1 publishes (0,1),
    /// (1,2), (3,4) and holds (0,2) as presumed-deducible.
    fn triangle() -> (ShardLabeler, ShardLabeler) {
        let order = vec![
            ScoredPair::new(Pair::new(0, 1), 0.9),
            ScoredPair::new(Pair::new(1, 2), 0.8),
            ScoredPair::new(Pair::new(0, 2), 0.7),
            ScoredPair::new(Pair::new(3, 4), 0.6),
        ];
        let mut fast = ShardLabeler::new(5, order.clone());
        let mut slow = ShardLabeler::new(5, order);
        let published = vec![Pair::new(0, 1), Pair::new(1, 2), Pair::new(3, 4)];
        assert_eq!(pairs_of(&fast.next_batch()), published);
        assert_eq!(pairs_of(&slow.next_batch_reference()), published);
        (fast, slow)
    }

    fn pairs_of(batch: &[ScoredPair]) -> Vec<Pair> {
        batch.iter().map(|sp| sp.pair).collect()
    }

    #[test]
    fn matching_answers_never_force_a_rescan() {
        let (mut fast, mut slow) = triangle();
        assert!(!fast.rescan_pending(), "a scan just ran");
        for pair in [Pair::new(3, 4), Pair::new(0, 1), Pair::new(1, 2)] {
            fast.submit_answer(pair, Label::Matching);
            slow.submit_answer(pair, Label::Matching);
            // (0,2) is closure-deduced Matching along the way: no rescan
            // either. The scan graph stays as round 1 left it.
            assert!(!fast.rescan_pending(), "after {pair}");
            assert!(fast.next_batch().is_empty());
            assert!(slow.next_batch_reference().is_empty());
            assert_eq!((fast.scan.matching_inserted(), fast.scan.num_clusters()), (3, 2));
        }
        assert!(fast.is_complete() && slow.is_complete());
    }

    #[test]
    fn nonmatching_answer_on_a_union_forces_the_rescan_that_finds_the_triangle_pair() {
        let (mut fast, mut slow) = triangle();
        // (0,1) unioned in round 1; refuting it changes the scan graph, but
        // (0,2) is still presumed deducible through the supposed (1,2).
        fast.submit_answer(Pair::new(0, 1), Label::NonMatching);
        slow.submit_answer(Pair::new(0, 1), Label::NonMatching);
        assert!(fast.rescan_pending());
        assert!(fast.next_batch().is_empty());
        assert!(slow.next_batch_reference().is_empty());
        // Refuting (1,2) too leaves (0,2) with two non-matching hops: the
        // forced rescan publishes it.
        fast.submit_answer(Pair::new(1, 2), Label::NonMatching);
        slow.submit_answer(Pair::new(1, 2), Label::NonMatching);
        assert!(fast.rescan_pending());
        assert_eq!(pairs_of(&fast.next_batch()), vec![Pair::new(0, 2)]);
        assert_eq!(pairs_of(&slow.next_batch_reference()), vec![Pair::new(0, 2)]);
        assert_eq!(fast.num_outstanding(), 2);
    }

    proptest::proptest! {
        /// The scan (one reused graph, one insert per position, skip rule)
        /// is the parent's scan, call for call: random universes, a crowd
        /// whose answers contradict each other (truth flipped with
        /// probability 0–30 %), a random subset seeded before the first
        /// scan, then between scans a random non-empty subset of the
        /// outstanding pairs answered in random order.
        #[test]
        fn scan_equivalence_with_reference(
            n in 4usize..=40,
            num_pairs in 1usize..=120,
            flip_pct in 0u64..=30,
            seed_pct in 0u64..=40,
            seed in proptest::any::<u64>(),
        ) {
            let mut rng = crowdjoin_util::SplitMix64::new(seed);
            let entities = 1 + rng.next_u64() % (n as u64 / 2);
            let entity: Vec<u64> = (0..n).map(|_| rng.next_u64() % entities).collect();
            let mut answer_of = FxHashMap::default();
            let mut order = Vec::new();
            for _ in 0..num_pairs {
                let a = (rng.next_u64() % n as u64) as u32;
                let b = (rng.next_u64() % n as u64) as u32;
                if a == b || answer_of.contains_key(&Pair::new(a, b)) {
                    continue;
                }
                let truth = entity[a as usize] == entity[b as usize];
                let flipped = rng.next_u64() % 100 < flip_pct;
                let answer = if truth != flipped { Label::Matching } else { Label::NonMatching };
                answer_of.insert(Pair::new(a, b), answer);
                order.push(ScoredPair::new(Pair::new(a, b), rng.next_f64()));
            }
            order.sort_by(|x, y| y.likelihood.total_cmp(&x.likelihood));

            let mut fast = ShardLabeler::new(n, order.clone());
            let mut slow = ShardLabeler::new(n, order.clone());
            for sp in &order {
                if rng.next_u64() % 100 < seed_pct {
                    fast.seed_known(sp.pair, answer_of[&sp.pair]);
                    slow.seed_known(sp.pair, answer_of[&sp.pair]);
                }
            }
            let mut outstanding: Vec<Pair> = Vec::new();
            loop {
                let batch = pairs_of(&fast.next_batch());
                proptest::prop_assert_eq!(&batch, &pairs_of(&slow.next_batch_reference()));
                proptest::prop_assert_eq!(fast.num_outstanding(), slow.num_outstanding());
                outstanding.extend(batch);
                proptest::prop_assert_eq!(fast.num_outstanding(), outstanding.len());
                if outstanding.is_empty() {
                    break;
                }
                let answered = 1 + (rng.next_u64() as usize) % outstanding.len();
                for _ in 0..answered {
                    let pick = (rng.next_u64() as usize) % outstanding.len();
                    let pair = outstanding.swap_remove(pick);
                    fast.submit_answer(pair, answer_of[&pair]);
                    slow.submit_answer(pair, answer_of[&pair]);
                }
            }
            proptest::prop_assert!(fast.is_complete() && slow.is_complete());
            let (fast, slow) = (fast.into_result(), slow.into_result());
            proptest::prop_assert_eq!(fast.num_conflicts(), slow.num_conflicts());
            proptest::prop_assert_eq!(fast.labeled_pairs(), slow.labeled_pairs());
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
