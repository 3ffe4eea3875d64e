//! The parallel labeler (Section 5): Algorithm 3 with the instant-decision
//! refinement picks the pairs to publish, Algorithm 2 deduces after every
//! answer. This is the one implementation behind every path — engine
//! shards, the oracle and platform runners, and the paper-figure programs.
//!
//! Deduction is the [`ClusterGraph::insert_deducing`] delta: the labeler
//! tracks every position in one `ClusterGraph`, whose slot-pair table holds
//! each pair of clusters' edge or pending positions, so submitting an answer
//! costs O(affected pairs), not a sweep over every pending pair. Batch
//! selection (Algorithm 3) is a scan because the *supposed-matching* graph
//! must be rebuilt under each round's knowledge, but the labeler keeps one
//! [`ScanGraph`] for its lifetime ([`ScanGraph::reset`] per scan), does not
//! scan when the scan cannot differ from the last one, and in a scan that
//! runs decides afresh only the positions that touch a cluster the scan has
//! changed — every other position replays its last decision.
//!
//! `scan_equivalence_with_reference` (below) pins all three against a
//! `#[cfg(test)]` reference that is Algorithms 2 and 3 as written: a fresh
//! graph per scan, `deduce` then `insert`, and an O(pending) sweep after
//! every answer. The two agree call for call on the batch and the
//! outstanding count, and on labels, provenance and conflicts, under
//! crowds whose answers contradict each other. Each of these planted
//! mutations fails it: dropping any one of the three dirty-marking rules of
//! the rescan (below), `set_label` never requesting a rescan, and the
//! reference without its sweep.
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
//! **Skip rule.** Each scan records, per position, its decision: the
//! [`ScanStep`] — nothing, a merge or an edge, with the roots it saw.
//! [`ParallelLabeler::next_batch`] rescans only if, since the last scan,
//! some position that merged in it has turned `NonMatching`; otherwise it
//! returns the empty batch. Proof: take the newly `NonMatching` positions
//! in order. The first one's prefix is unchanged; it did not merge, so it
//! was deducible there and still is — as `NonMatching` it is redundant or a
//! conflict and leaves the graph alone, exactly as before, so the next
//! one's prefix is unchanged too. The whole scan therefore repeats the last
//! one, whose every unlabeled non-deducible position is already published:
//! the batch is empty.
//!
//! **Replay.** A rescan marks roots *dirty* as it goes; every root starts
//! clean. A position whose two recorded roots are still roots and both
//! clean, and which has not *flipped* (a merge that has since turned
//! `NonMatching`), re-applies its recorded step with no `find` and no
//! adjacency walk. Every other position is decided afresh and marks:
//!
//! 1. both recorded roots of a flipped position whose roots are clean — it
//!    becomes an edge between the two clusters it used to merge;
//! 2. the root of any fresh merge;
//! 3. both current roots when the old decision was a merge and the new one
//!    is not.
//!
//! **Invariant**, by induction over the positions: a clean root names the
//! same object set, with the same root, as at that position of the previous
//! scan, and two clean clusters are adjacent now exactly when they were
//! then. A replayed position sees the same roots, the same adjacency and a
//! label with the same effect (a `NonMatching` label on a pair that did
//! nothing still does nothing), so it repeats its old outcome, which keeps
//! the invariant. A position decided afresh has a recorded root that is
//! gone or dirty, or it flipped. If it merges now or merged then, rules 1–3
//! leave dirty every cluster that holds one of its two objects. Otherwise
//! neither outcome changes a cluster, and each is at most an edge between
//! the clusters of its two objects, at least one of them dirty (two clean
//! ones would be the recorded roots, and the position a replay). Either
//! way neither the old outcome nor the new one touches a clean cluster or
//! the adjacency between two clean ones.
//!
//! Publishing needs a merge of an unlabeled position, and a position that
//! merged in the last scan was published by it, so **only re-decided
//! positions can publish**. The first scan decides every position.
//!
//! Besides the live path ([`ParallelLabeler::next_batch`] /
//! [`ParallelLabeler::submit_answer`]), the labeler exposes the **replay
//! primitive** [`ParallelLabeler::seed_known`]: feed an already-paid-for
//! crowd answer without publishing, propagating its deduction delta
//! exactly as a live answer would. Replaying a shard's crowdsourced
//! answers in labeling order re-derives its deduced labels too, which is
//! what a fed journal replay (rebuilding labeler state from `crowdjoin-wal`
//! answer records for a backend that cannot re-execute) is built on.

use crate::result::LabelingResult;
use crate::types::{Label, Pair, Provenance, ScoredPair};
use crowdjoin_graph::{ClusterGraph, ScanGraph, ScanStep};
use crowdjoin_util::FxHashMap;

/// Per-pair lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairState {
    Unlabeled,
    Published,
    /// Labeled, with the label recorded in the result.
    Labeled(Label),
}

/// The parallel labeler state machine (see [`crate::parallel`]) over one
/// labeling order: a whole candidate set's, or an engine shard's in local
/// ids.
#[derive(Debug, Clone)]
pub struct ParallelLabeler {
    order: Vec<ScoredPair>,
    index_of: FxHashMap<Pair, usize>,
    state: Vec<PairState>,
    /// The crowd labels so far, tracking every position not yet deduced.
    closure: ClusterGraph,
    result: LabelingResult,
    outstanding: usize,
    /// The Algorithm-3 scan graph, reset and refilled by each scan.
    scan: ScanGraph,
    /// Per position: its decision in the last scan. Before the first scan
    /// it names no object, so nothing replays.
    decisions: Vec<ScanStep>,
    /// Per object: a root the running scan has marked dirty.
    dirty: Vec<bool>,
    /// A position that merged in the last scan turned `NonMatching` since
    /// (or no scan has run yet): the next scan can differ.
    rescan: bool,
    /// Positions the last scan decided afresh rather than replayed.
    decided: usize,
}

/// The decision record of a position no scan has visited.
const UNSCANNED: ScanStep = ScanStep::Nothing(u32::MAX, u32::MAX);

impl ParallelLabeler {
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
        let mut closure = ClusterGraph::new(num_objects);
        for (i, sp) in order.iter().enumerate() {
            // The graph is empty at construction: nothing is deducible yet,
            // so every pair indexes as pending.
            let already = closure.track(i, sp.pair.a(), sp.pair.b());
            debug_assert!(already.is_none());
        }
        Self {
            order,
            index_of,
            state: vec![PairState::Unlabeled; n],
            closure,
            result: LabelingResult::new(),
            outstanding: 0,
            scan: ScanGraph::new(num_objects),
            decisions: vec![UNSCANNED; n],
            dirty: vec![false; num_objects],
            rescan: true,
            decided: 0,
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
    /// when it will return the empty batch because no position that
    /// merged in the last scan has turned `NonMatching` since (the skip
    /// rule).
    #[must_use]
    pub fn rescan_pending(&self) -> bool {
        self.rescan
    }

    /// Positions the last [`Self::next_batch`] scan decided afresh instead
    /// of replaying (0 when it skipped the scan).
    #[must_use]
    pub fn last_scan_decisions(&self) -> usize {
        self.decided
    }

    /// Algorithm 3 with instant decision: the pairs that must be
    /// crowdsourced under current knowledge, excluding those already
    /// published. Marks returned pairs published.
    ///
    /// A single pass in index order: real labels build the scan graph,
    /// everything else is supposed matching and publishes unless deducible
    /// (a real label that contradicts a *supposed* cluster is skipped, which
    /// can only cause extra publishing). Skipped altogether when no answer
    /// since the last scan can have changed its outcome
    /// ([`Self::rescan_pending`]); within a scan, a position replays its
    /// last decision unless it touches a changed cluster (module docs).
    pub fn next_batch(&mut self) -> Vec<ScoredPair> {
        let mut batch = Vec::new();
        self.decided = 0;
        if !self.rescan {
            return batch;
        }
        self.rescan = false;
        self.scan.reset();
        self.dirty.fill(false);
        for (i, sp) in self.order.iter().enumerate() {
            let state = self.state[i];
            let label = match state {
                PairState::Labeled(label) => label,
                PairState::Published | PairState::Unlabeled => Label::Matching,
            };
            let old = self.decisions[i];
            let merged = matches!(old, ScanStep::Merge { .. });
            let flipped = merged && label == Label::NonMatching;
            let (x, y) = old.roots();
            let clean = |r: u32| self.scan.is_root(r) && !self.dirty[r as usize];
            if clean(x) && clean(y) {
                if !flipped {
                    debug_assert!(!merged || state != PairState::Unlabeled, "a merge published");
                    self.scan.replay(old);
                    continue;
                }
                // The two clusters it merged last scan are unchanged, so
                // distinct and not adjacent: the flipped pair links them.
                let step = ScanStep::Edge(x, y);
                self.scan.replay(step);
                self.dirty[x as usize] = true; // rule 1
                self.dirty[y as usize] = true;
                self.decisions[i] = step;
                self.decided += 1;
                continue;
            }
            let step = self.scan.insert(sp.pair.a(), sp.pair.b(), label);
            match step {
                ScanStep::Merge { winner, .. } => {
                    self.dirty[winner as usize] = true; // rule 2
                    if state == PairState::Unlabeled {
                        self.state[i] = PairState::Published;
                        self.outstanding += 1;
                        batch.push(*sp);
                    }
                }
                ScanStep::Nothing(a, b) | ScanStep::Edge(a, b) if merged => {
                    self.dirty[a as usize] = true; // rule 3
                    self.dirty[b as usize] = true;
                }
                ScanStep::Nothing(..) | ScanStep::Edge(..) => {}
            }
            self.decisions[i] = step;
            self.decided += 1;
        }
        batch
    }

    /// Labels position `i`, requesting a rescan when that changes the scan
    /// graph: the position merged in the last scan and now will not.
    fn set_label(&mut self, i: usize, label: Label) {
        self.state[i] = PairState::Labeled(label);
        self.rescan |=
            label == Label::NonMatching && matches!(self.decisions[i], ScanStep::Merge { .. });
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
        let label = match self.closure.insert_deducing(pair.a(), pair.b(), answer, &mut delta) {
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
    /// primitive a fed journal replay (`ShardTask::feed_replay` in
    /// `crowdjoin-engine`) uses to rebuild a shard's deduction state from
    /// the journaled answers of a crashed run.
    ///
    /// The pair is recorded as crowdsourced (the crashed run paid for it)
    /// and its deduction delta propagates exactly as a live answer would, so
    /// replaying a shard's crowdsourced answers in journal order re-derives
    /// its deduced labels too. A pair an earlier seed already labeled is
    /// skipped. A replayed conflict is **not** re-counted (the crashed run
    /// already did); the deduced label wins as usual.
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
        let label = match self.closure.insert_deducing(pair.a(), pair.b(), answer, &mut delta) {
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

    /// The labeling order this labeler runs over.
    #[must_use]
    pub fn order(&self) -> &[ScoredPair] {
        &self.order
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
    use crate::oracle::{GroundTruthOracle, Oracle};
    use crate::parallel::run_parallel_rounds;
    use crate::sort::{sort_pairs, SortStrategy};
    use crate::types::LabeledPair;

    /// Algorithms 2 and 3 as written, sharing nothing with the labeler's
    /// reused scan graph, skip rule or closure: a fresh graph per scan with
    /// `deduce` then `insert` (Algorithm 3), and after every answer a sweep
    /// of the pending pairs over the crowd-label graph (Algorithm 2 lines
    /// 6–8).
    struct Reference {
        order: Vec<ScoredPair>,
        index_of: FxHashMap<Pair, usize>,
        state: Vec<PairState>,
        graph: ClusterGraph,
        result: LabelingResult,
        outstanding: usize,
    }

    impl Reference {
        fn new(num_objects: usize, order: Vec<ScoredPair>) -> Self {
            let index_of = order.iter().enumerate().map(|(i, sp)| (sp.pair, i)).collect();
            let state = vec![PairState::Unlabeled; order.len()];
            let graph = ClusterGraph::new(num_objects);
            Self { order, index_of, state, graph, result: LabelingResult::new(), outstanding: 0 }
        }

        fn next_batch(&mut self) -> Vec<ScoredPair> {
            let mut scan = ClusterGraph::new(self.graph.num_objects());
            let mut batch = Vec::new();
            for (i, sp) in self.order.iter().enumerate() {
                let (a, b) = (sp.pair.a(), sp.pair.b());
                match self.state[i] {
                    PairState::Labeled(label) => {
                        let _ = scan.insert(a, b, label);
                    }
                    state => {
                        if scan.deduce(a, b).is_none() {
                            if state == PairState::Unlabeled {
                                self.state[i] = PairState::Published;
                                self.outstanding += 1;
                                batch.push(*sp);
                            }
                            scan.insert(a, b, Label::Matching)
                                .expect("insert after failed deduction cannot conflict");
                        }
                    }
                }
            }
            batch
        }

        fn submit_answer(&mut self, pair: Pair, answer: Label) {
            assert_eq!(self.state[self.index_of[&pair]], PairState::Published);
            self.outstanding -= 1;
            self.record(pair, answer, true);
        }

        /// Records without counting a conflict, as the labeler's replay does.
        fn seed_known(&mut self, pair: Pair, answer: Label) {
            if self.state[self.index_of[&pair]] == PairState::Unlabeled {
                self.record(pair, answer, false);
            }
        }

        fn record(&mut self, pair: Pair, answer: Label, count_conflict: bool) {
            let label = match self.graph.insert(pair.a(), pair.b(), answer) {
                Ok(_) => answer,
                Err(conflict) => {
                    if count_conflict {
                        self.result.record_conflict();
                    }
                    conflict.deduced
                }
            };
            self.state[self.index_of[&pair]] = PairState::Labeled(label);
            self.result.record(pair, label, Provenance::Crowdsourced);
            for (i, sp) in self.order.iter().enumerate() {
                if self.state[i] == PairState::Unlabeled {
                    if let Some(label) = self.graph.deduce(sp.pair.a(), sp.pair.b()) {
                        self.state[i] = PairState::Labeled(label);
                        self.result.record(sp.pair, label, Provenance::Deduced);
                    }
                }
            }
        }
    }

    fn pairs_of(batch: &[ScoredPair]) -> Vec<Pair> {
        batch.iter().map(|sp| sp.pair).collect()
    }

    /// Labels and provenance as a set: the closure records deduced pairs in
    /// delta order, the sweep in position order.
    fn labels(result: &LabelingResult) -> Vec<LabeledPair> {
        let mut labels = result.labeled_pairs().to_vec();
        labels.sort_by_key(|lp| lp.pair);
        labels
    }

    /// All-distinct objects 0–2 plus a disjoint matching pair; round 1
    /// publishes (0,1), (1,2), (3,4) and holds (0,2) as presumed-deducible.
    fn triangle() -> (ParallelLabeler, Reference) {
        let order = vec![
            ScoredPair::new(Pair::new(0, 1), 0.9),
            ScoredPair::new(Pair::new(1, 2), 0.8),
            ScoredPair::new(Pair::new(0, 2), 0.7),
            ScoredPair::new(Pair::new(3, 4), 0.6),
        ];
        let mut fast = ParallelLabeler::new(5, order.clone());
        let mut slow = Reference::new(5, order);
        let published = vec![Pair::new(0, 1), Pair::new(1, 2), Pair::new(3, 4)];
        assert_eq!(pairs_of(&fast.next_batch()), published);
        assert_eq!(pairs_of(&slow.next_batch()), published);
        (fast, slow)
    }

    #[test]
    fn matching_answers_never_force_a_rescan() {
        let (mut fast, mut slow) = triangle();
        assert!(!fast.rescan_pending(), "a scan just ran");
        assert_eq!(fast.last_scan_decisions(), 4, "the first scan decides every position");
        let round1 = fast.decisions.clone();
        let merges = round1.iter().filter(|d| matches!(d, ScanStep::Merge { .. })).count();
        assert_eq!(merges, 3);
        for pair in [Pair::new(3, 4), Pair::new(0, 1), Pair::new(1, 2)] {
            fast.submit_answer(pair, Label::Matching);
            slow.submit_answer(pair, Label::Matching);
            // (0,2) is closure-deduced Matching along the way: no rescan
            // either. The decisions stay as round 1 left them.
            assert!(!fast.rescan_pending(), "after {pair}");
            assert!(fast.next_batch().is_empty());
            assert!(slow.next_batch().is_empty());
            assert_eq!(fast.last_scan_decisions(), 0);
            assert_eq!(fast.decisions, round1);
        }
        assert!(fast.is_complete());
        assert_eq!(labels(fast.result()), labels(&slow.result));
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
        assert!(slow.next_batch().is_empty());
        // The triangle is decided afresh; the disjoint (3,4) replays.
        assert_eq!(fast.last_scan_decisions(), 3);
        // Refuting (1,2) too leaves (0,2) with two non-matching hops: the
        // forced rescan publishes it.
        fast.submit_answer(Pair::new(1, 2), Label::NonMatching);
        slow.submit_answer(Pair::new(1, 2), Label::NonMatching);
        assert!(fast.rescan_pending());
        assert_eq!(pairs_of(&fast.next_batch()), vec![Pair::new(0, 2)]);
        assert_eq!(pairs_of(&slow.next_batch()), vec![Pair::new(0, 2)]);
        assert_eq!(fast.num_outstanding(), 2);
    }

    proptest::proptest! {
        /// The labeler is the reference, call for call: random universes, a
        /// crowd whose answers contradict each other (truth flipped with
        /// probability 0–30 %; the 0 % draws are the consistent crowds), a
        /// random subset seeded before the first scan, then between scans a
        /// random non-empty subset of the outstanding pairs answered in
        /// random order. Every call returns the same batch and outstanding
        /// count; after every step the labels, provenance and conflicts are
        /// the same.
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

            let mut fast = ParallelLabeler::new(n, order.clone());
            let mut slow = Reference::new(n, order.clone());
            for sp in &order {
                if rng.next_u64() % 100 < seed_pct {
                    fast.seed_known(sp.pair, answer_of[&sp.pair]);
                    slow.seed_known(sp.pair, answer_of[&sp.pair]);
                }
            }
            let mut outstanding: Vec<Pair> = Vec::new();
            loop {
                proptest::prop_assert_eq!(labels(fast.result()), labels(&slow.result));
                proptest::prop_assert_eq!(
                    fast.result().num_conflicts(),
                    slow.result.num_conflicts()
                );
                let batch = pairs_of(&fast.next_batch());
                proptest::prop_assert_eq!(&batch, &pairs_of(&slow.next_batch()));
                proptest::prop_assert_eq!(fast.num_outstanding(), slow.outstanding);
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
            proptest::prop_assert!(fast.is_complete());
        }
    }

    #[test]
    fn empty_order_completes_immediately() {
        let labeler = ParallelLabeler::new(4, vec![]);
        assert!(labeler.is_complete());
        assert_eq!(labeler.into_result().num_labeled(), 0);
    }

    #[test]
    fn seeding_crowdsourced_answers_rederives_deductions() {
        let (cs, truth) = crate::running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let mut oracle = GroundTruthOracle::new(&truth);
        let (live, _) = run_parallel_rounds(cs.num_objects(), order.clone(), &mut oracle);

        // Replay only the crowdsourced answers, in labeling order, into a
        // fresh labeler: every deduced label must re-derive.
        let mut replayed = ParallelLabeler::new(cs.num_objects(), order.clone());
        for sp in &order {
            if live.provenance_of(sp.pair) == Some(Provenance::Crowdsourced) {
                replayed.seed_known(sp.pair, live.label_of(sp.pair).unwrap());
            }
        }
        assert!(replayed.is_complete());
        let result = replayed.into_result();
        assert_eq!(result.num_labeled(), live.num_labeled());
        for sp in cs.pairs() {
            assert_eq!(result.label_of(sp.pair), live.label_of(sp.pair));
        }
    }

    #[test]
    fn seeding_partial_state_resumes_cleanly() {
        let (cs, truth) = crate::running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);

        // Answer only the first published round, then rebuild and finish.
        let mut first = ParallelLabeler::new(cs.num_objects(), order.clone());
        let round1 = first.next_batch();
        for sp in &round1 {
            first.submit_answer(sp.pair, truth.label_of(sp.pair));
        }
        let known: Vec<(Pair, Label)> = order
            .iter()
            .filter(|sp| first.result().provenance_of(sp.pair) == Some(Provenance::Crowdsourced))
            .map(|sp| (sp.pair, first.result().label_of(sp.pair).unwrap()))
            .collect();
        let labeled = first.result().num_labeled();

        let mut resumed = ParallelLabeler::new(cs.num_objects(), order.clone());
        for &(pair, label) in &known {
            resumed.seed_known(pair, label);
        }
        assert_eq!(resumed.result().num_labeled(), labeled);
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
        let (cs, _) = crate::running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let mut labeler = ParallelLabeler::new(cs.num_objects(), order);
        let batch = labeler.next_batch();
        let p = batch[0].pair;
        labeler.submit_answer(p, Label::Matching);
        labeler.submit_answer(p, Label::Matching);
    }
}
