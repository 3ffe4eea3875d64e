//! Answer sources.
//!
//! The labeling framework asks an [`Oracle`] whenever a pair must be
//! crowdsourced. Separating the framework from the answer source lets the
//! same labeler run against a perfect ground truth (the paper's Section 2.1
//! assumption, used in Figures 11–15 and Table 1), an error-injecting wrapper
//! (worker-noise sweeps), or a full crowd-platform simulation with majority
//! voting (`crowdjoin-sim`, Table 2).

use crate::truth::GroundTruth;
use crate::types::{Label, Pair};
use crowdjoin_util::SplitMix64;

/// A source of crowd answers for object pairs.
///
/// The trait itself is single-threaded and drives the sequential labelers.
/// The multi-threaded execution engine (`crowdjoin-engine`) asks its own
/// `&self`-based `SharedOracle` instead, so exotic non-`Send` oracles stay
/// usable here. Every stock oracle here is plain data and `Send` (asserted
/// below).
pub trait Oracle {
    /// Answers whether the pair is matching. Called once per crowdsourced
    /// pair; implementations may be stateful (e.g. track cost, inject noise).
    fn answer(&mut self, pair: Pair) -> Label;

    /// Number of questions answered so far.
    fn questions_asked(&self) -> u64;
}

impl<O: Oracle + ?Sized> Oracle for &mut O {
    fn answer(&mut self, pair: Pair) -> Label {
        (**self).answer(pair)
    }

    fn questions_asked(&self) -> u64 {
        (**self).questions_asked()
    }
}

// The labeling state machines and stock oracles must stay thread-portable:
// the engine moves them into worker threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<crate::ParallelLabeler>();
    assert_send::<GroundTruthOracle<'static>>();
    assert_send::<NoisyOracle<'static>>();
    assert_send::<FixedOracle>();
};

/// A perfect oracle backed by the ground truth.
#[derive(Debug, Clone)]
pub struct GroundTruthOracle<'a> {
    truth: &'a GroundTruth,
    asked: u64,
}

impl<'a> GroundTruthOracle<'a> {
    /// Wraps a ground truth as a perfect answer source.
    #[must_use]
    pub fn new(truth: &'a GroundTruth) -> Self {
        Self { truth, asked: 0 }
    }
}

impl Oracle for GroundTruthOracle<'_> {
    fn answer(&mut self, pair: Pair) -> Label {
        self.asked += 1;
        self.truth.label_of(pair)
    }

    fn questions_asked(&self) -> u64 {
        self.asked
    }
}

/// An oracle that flips the true answer with a fixed probability per
/// question, simulating worker error *after* any majority voting.
///
/// The flip decision is a deterministic function of the pair and the seed, so
/// the same pair always receives the same (possibly wrong) answer regardless
/// of the order in which labelers ask — this keeps comparisons between
/// labeling strategies apples-to-apples.
#[derive(Debug, Clone)]
pub struct NoisyOracle<'a> {
    truth: &'a GroundTruth,
    error_rate: f64,
    seed: u64,
    asked: u64,
}

impl<'a> NoisyOracle<'a> {
    /// Creates a noisy oracle with the given per-question error rate.
    ///
    /// # Panics
    ///
    /// Panics if `error_rate` is not within `[0, 1]`.
    #[must_use]
    pub fn new(truth: &'a GroundTruth, error_rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&error_rate), "error_rate must be in [0,1]");
        Self { truth, error_rate, seed, asked: 0 }
    }

    fn flips(&self, pair: Pair) -> bool {
        // Hash the pair into a deterministic uniform draw.
        let mut mix = SplitMix64::new(self.seed ^ ((pair.a() as u64) << 32 | pair.b() as u64));
        mix.next_f64() < self.error_rate
    }
}

impl Oracle for NoisyOracle<'_> {
    fn answer(&mut self, pair: Pair) -> Label {
        self.asked += 1;
        let truth = self.truth.label_of(pair);
        if self.flips(pair) {
            match truth {
                Label::Matching => Label::NonMatching,
                Label::NonMatching => Label::Matching,
            }
        } else {
            truth
        }
    }

    fn questions_asked(&self) -> u64 {
        self.asked
    }
}

/// An oracle answering from a fixed assignment, used by the expected-cost
/// machinery to replay a hypothetical world.
#[derive(Debug, Clone)]
pub struct FixedOracle {
    answers: crowdjoin_util::FxHashMap<Pair, Label>,
    asked: u64,
}

impl FixedOracle {
    /// Creates an oracle from explicit `(pair, label)` answers.
    #[must_use]
    pub fn new(answers: impl IntoIterator<Item = (Pair, Label)>) -> Self {
        Self { answers: answers.into_iter().collect(), asked: 0 }
    }
}

impl Oracle for FixedOracle {
    fn answer(&mut self, pair: Pair) -> Label {
        self.asked += 1;
        *self
            .answers
            .get(&pair)
            .unwrap_or_else(|| panic!("FixedOracle has no answer for pair {pair}"))
    }

    fn questions_asked(&self) -> u64 {
        self.asked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_truth() -> GroundTruth {
        GroundTruth::from_clusters(4, &[vec![0, 1]])
    }

    #[test]
    fn ground_truth_oracle_answers_truthfully() {
        let truth = small_truth();
        let mut o = GroundTruthOracle::new(&truth);
        assert_eq!(o.answer(Pair::new(0, 1)), Label::Matching);
        assert_eq!(o.answer(Pair::new(0, 2)), Label::NonMatching);
        assert_eq!(o.questions_asked(), 2);
    }

    #[test]
    fn noisy_oracle_zero_rate_is_perfect() {
        let truth = small_truth();
        let mut o = NoisyOracle::new(&truth, 0.0, 7);
        for a in 0..4u32 {
            for b in (a + 1)..4u32 {
                let p = Pair::new(a, b);
                assert_eq!(o.answer(p), truth.label_of(p));
            }
        }
    }

    #[test]
    fn noisy_oracle_one_rate_always_flips() {
        let truth = small_truth();
        let mut o = NoisyOracle::new(&truth, 1.0, 7);
        assert_eq!(o.answer(Pair::new(0, 1)), Label::NonMatching);
        assert_eq!(o.answer(Pair::new(0, 2)), Label::Matching);
    }

    #[test]
    fn noisy_oracle_is_stable_per_pair() {
        let truth = small_truth();
        let mut o = NoisyOracle::new(&truth, 0.5, 99);
        let p = Pair::new(1, 3);
        let first = o.answer(p);
        for _ in 0..10 {
            assert_eq!(o.answer(p), first, "same pair must always answer the same");
        }
    }

    #[test]
    fn noisy_oracle_rate_roughly_respected() {
        let truth = GroundTruth::all_distinct(200);
        let mut o = NoisyOracle::new(&truth, 0.2, 12345);
        let mut wrong = 0;
        let mut total = 0;
        for a in 0..200u32 {
            for b in (a + 1)..(a + 4).min(200) {
                let p = Pair::new(a, b);
                if o.answer(p) != truth.label_of(p) {
                    wrong += 1;
                }
                total += 1;
            }
        }
        let rate = wrong as f64 / total as f64;
        assert!((rate - 0.2).abs() < 0.05, "observed error rate {rate} too far from 0.2");
    }

    #[test]
    fn fixed_oracle_replays() {
        let p = Pair::new(2, 3);
        let mut o = FixedOracle::new([(p, Label::Matching)]);
        assert_eq!(o.answer(p), Label::Matching);
        assert_eq!(o.questions_asked(), 1);
    }

    #[test]
    #[should_panic(expected = "no answer for pair")]
    fn fixed_oracle_panics_on_unknown_pair() {
        let mut o = FixedOracle::new([]);
        let _ = o.answer(Pair::new(0, 1));
    }

    #[test]
    #[should_panic(expected = "error_rate")]
    fn noisy_oracle_validates_rate() {
        let truth = small_truth();
        let _ = NoisyOracle::new(&truth, 1.5, 0);
    }
}
