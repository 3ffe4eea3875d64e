//! The correctness oracle behind the benchmark's `failed` count.
//!
//! It shares no code with the engine: a union-find and a set of negative
//! edges written here decide whether every deduced label is implied by the
//! crowdsourced ones. The paper's contract is what it checks:
//!
//! * **coverage** — every candidate pair has a label, and nothing else has;
//! * **no double pay** — no pair is labeled (let alone crowdsourced) twice;
//! * **deduced ⇒ implied** — a deduced *matching* pair is connected by
//!   crowdsourced matches; a deduced *non-matching* pair joins two such
//!   clusters with a crowdsourced non-match between them;
//! * **resume ≡ uninterrupted** — a resumed job reproduces the labels,
//!   money and completion time, and pays only for what was not journaled;
//! * **stream ≡ batch** — a closed stream's candidates are the batch
//!   matcher's, bit for bit.
//!
//! The engine records a crowd answer that contradicts its closure under the
//! closure's label (first answer wins), so the crowdsourced rows of a result
//! are transitively consistent even under a noisy crowd, and the oracle
//! holds them to that.

use std::collections::{HashMap, HashSet};

/// One labeled pair of a job's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Labeled {
    /// Smaller record id.
    pub a: u32,
    /// Larger record id.
    pub b: u32,
    /// The label.
    pub matching: bool,
    /// Whether the crowd was paid for it (otherwise it was deduced).
    pub crowdsourced: bool,
}

/// Operations attempted and failed, with one note per kind of failure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that broke the contract.
    pub failed: u64,
    /// What failed, for the person reading the run's stderr.
    pub notes: Vec<String>,
}

impl Verdict {
    fn of(attempted: u64) -> Self {
        Self { attempted, ..Self::default() }
    }

    /// Counts `n` failed operations of one kind (nothing if `n` is 0).
    pub fn fail(&mut self, n: u64, what: &str) {
        if n > 0 {
            self.failed += n;
            self.notes.push(format!("{n} x {what}"));
        }
    }

    /// Adds another verdict's counts and notes to this one.
    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

#[derive(Debug)]
struct Clusters {
    parent: Vec<u32>,
}

impl Clusters {
    fn new(n: usize) -> Self {
        Self { parent: (0..n as u32).collect() }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let up = self.parent[x as usize];
            self.parent[x as usize] = self.parent[up as usize];
            x = up;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb) as usize] = ra.min(rb);
        }
    }
}

fn key(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

/// Checks one job's labels against its candidate pairs: coverage, no
/// double pay, and deduced ⇒ implied. One operation per candidate pair.
#[must_use]
pub fn check_labels(num_objects: usize, candidates: &[(u32, u32)], labeled: &[Labeled]) -> Verdict {
    let mut verdict = Verdict::of(candidates.len() as u64);
    let in_range = |a: u32, b: u32| (a as usize) < num_objects && (b as usize) < num_objects;
    let wanted: HashSet<(u32, u32)> = candidates.iter().map(|&(a, b)| key(a, b)).collect();

    let mut seen: HashMap<(u32, u32), bool> = HashMap::with_capacity(labeled.len());
    let (mut twice, mut paid_twice, mut stray) = (0u64, 0u64, 0u64);
    for l in labeled {
        if !in_range(l.a, l.b) || !wanted.contains(&key(l.a, l.b)) {
            stray += 1;
            continue;
        }
        match seen.insert(key(l.a, l.b), l.crowdsourced) {
            Some(before) if before && l.crowdsourced => paid_twice += 1,
            Some(_) => twice += 1,
            None => {}
        }
    }
    verdict.fail(wanted.len() as u64 - seen.len() as u64, "candidate pair without a label");
    verdict.fail(stray, "label for a pair that is not a candidate");
    verdict.fail(paid_twice, "pair crowdsourced twice");
    verdict.fail(twice, "pair labeled twice");

    // The closure of what the crowd was paid for.
    let mut clusters = Clusters::new(num_objects);
    let paid = || labeled.iter().filter(|l| l.crowdsourced && in_range(l.a, l.b));
    for l in paid().filter(|l| l.matching) {
        clusters.union(l.a, l.b);
    }
    let mut apart: HashSet<(u32, u32)> = HashSet::new();
    let mut contradictions = 0u64;
    for l in paid().filter(|l| !l.matching) {
        let (ra, rb) = (clusters.find(l.a), clusters.find(l.b));
        if ra == rb {
            contradictions += 1;
        } else {
            apart.insert(key(ra, rb));
        }
    }
    verdict.fail(contradictions, "crowdsourced non-match inside a crowdsourced cluster");

    let mut unfounded = 0u64;
    for l in labeled.iter().filter(|l| !l.crowdsourced && in_range(l.a, l.b)) {
        let (ra, rb) = (clusters.find(l.a), clusters.find(l.b));
        let implied = if l.matching { ra == rb } else { ra != rb && apart.contains(&key(ra, rb)) };
        if !implied {
            unfounded += 1;
        }
    }
    verdict.fail(unfounded, "deduced label not implied by the crowdsourced answers");
    verdict
}

/// What a finished run is compared by.
#[derive(Debug, Clone, Copy)]
pub struct RunOutcome<'a> {
    /// Every labeled pair, in the order the run resolved them.
    pub labeled: &'a [Labeled],
    /// Money spent, cents.
    pub cost_cents: u64,
    /// Completion time, virtual time units.
    pub completion: u64,
}

/// Checks a resumed run against the uninterrupted one: same labels in the
/// same order, same money, same completion time, and the journaled answers
/// plus the newly paid ones add up to the questions asked. One operation.
#[must_use]
pub fn check_resume(
    uninterrupted: &RunOutcome<'_>,
    resumed: &RunOutcome<'_>,
    replayed_answers: usize,
    new_answers: usize,
) -> Verdict {
    let mut verdict = Verdict::of(1);
    let questions = uninterrupted.labeled.iter().filter(|l| l.crowdsourced).count();
    let same = uninterrupted.labeled == resumed.labeled
        && uninterrupted.cost_cents == resumed.cost_cents
        && uninterrupted.completion == resumed.completion
        && replayed_answers + new_answers == questions;
    if !same {
        verdict.fail(
            1,
            &format!(
                "resumed run differs from the uninterrupted one (cost {} vs {}, completion {} vs \
                 {}, {replayed_answers} replayed + {new_answers} new vs {questions} questions)",
                resumed.cost_cents,
                uninterrupted.cost_cents,
                resumed.completion,
                uninterrupted.completion
            ),
        );
    }
    verdict
}

/// Checks a closed stream's candidates `(a, b, likelihood bits)` against a
/// batch join of the same records. One operation per record ingested.
#[must_use]
pub fn check_stream(
    records: usize,
    stream: &[(u32, u32, u64)],
    batch: &[(u32, u32, u64)],
) -> Verdict {
    let mut verdict = Verdict::of(records as u64);
    if stream != batch {
        let batch_set: HashSet<_> = batch.iter().collect();
        let stream_set: HashSet<_> = stream.iter().collect();
        let differing = batch_set.symmetric_difference(&stream_set).count().max(1);
        verdict.fail(
            (differing as u64).min(records as u64),
            "stream candidate differing from the batch join of the same records",
        );
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paid(a: u32, b: u32, matching: bool) -> Labeled {
        Labeled { a, b, matching, crowdsourced: true }
    }

    fn deduced(a: u32, b: u32, matching: bool) -> Labeled {
        Labeled { a, b, matching, crowdsourced: false }
    }

    /// The paper's Example 1: o1 = o2 and o2 ≠ o3 are asked, o1 ≠ o3 follows.
    const TRIANGLE: [(u32, u32); 3] = [(0, 1), (1, 2), (0, 2)];

    fn triangle_labels() -> Vec<Labeled> {
        vec![paid(0, 1, true), paid(1, 2, false), deduced(0, 2, false)]
    }

    #[test]
    fn example_1_triangle_passes() {
        let v = check_labels(3, &TRIANGLE, &triangle_labels());
        assert_eq!((v.attempted, v.failed), (3, 0), "{:?}", v.notes);
        // Positive transitivity: o1 = o2, o2 = o3 ⇒ o1 = o3.
        let v =
            check_labels(3, &TRIANGLE, &[paid(0, 1, true), paid(1, 2, true), deduced(0, 2, true)]);
        assert_eq!(v.failed, 0, "{:?}", v.notes);
    }

    #[test]
    fn missing_and_stray_labels_fail_coverage() {
        let mut labels = triangle_labels();
        labels.pop();
        let v = check_labels(3, &TRIANGLE, &labels);
        assert_eq!(v.failed, 1);
        assert!(v.notes[0].contains("without a label"), "{:?}", v.notes);

        let mut labels = triangle_labels();
        labels.push(paid(0, 3, false));
        labels.push(paid(7, 9, false));
        let v = check_labels(4, &TRIANGLE, &labels);
        assert_eq!(v.failed, 2);
        assert!(v.notes[0].contains("not a candidate"), "{:?}", v.notes);
    }

    #[test]
    fn paying_or_labeling_twice_fails() {
        let mut labels = triangle_labels();
        labels.push(paid(1, 0, true));
        let v = check_labels(3, &TRIANGLE, &labels);
        assert_eq!(v.failed, 1);
        assert!(v.notes[0].contains("crowdsourced twice"), "{:?}", v.notes);

        let mut labels = triangle_labels();
        labels.push(deduced(0, 2, false));
        let v = check_labels(3, &TRIANGLE, &labels);
        assert_eq!(v.failed, 1);
        assert!(v.notes[0].contains("labeled twice"), "{:?}", v.notes);
    }

    #[test]
    fn deductions_nothing_implies_fail() {
        // Two non-matches imply nothing about the third pair.
        for third in [true, false] {
            let labels = [paid(0, 1, false), paid(1, 2, false), deduced(0, 2, third)];
            let v = check_labels(3, &TRIANGLE, &labels);
            assert_eq!(v.failed, 1, "deduced {third}");
            assert!(v.notes[0].contains("not implied"), "{:?}", v.notes);
        }
        // A deduced non-match inside one cluster contradicts the closure.
        let labels = [paid(0, 1, true), paid(1, 2, true), deduced(0, 2, false)];
        assert_eq!(check_labels(3, &TRIANGLE, &labels).failed, 1);
        // So does a paid non-match recorded inside a paid cluster.
        let labels = [paid(0, 1, true), paid(1, 2, true), paid(0, 2, false)];
        let v = check_labels(3, &TRIANGLE, &labels);
        assert_eq!(v.failed, 1);
        assert!(v.notes[0].contains("inside a crowdsourced cluster"), "{:?}", v.notes);
    }

    #[test]
    fn resume_must_reproduce_the_uninterrupted_run() {
        let labels = triangle_labels();
        let base = RunOutcome { labeled: &labels, cost_cents: 12, completion: 700 };
        assert_eq!(check_resume(&base, &base, 1, 1).failed, 0);
        assert_eq!(check_resume(&base, &base, 2, 1).failed, 1, "a question was paid twice");
        let dearer = RunOutcome { cost_cents: 14, ..base };
        assert_eq!(check_resume(&base, &dearer, 1, 1).failed, 1);
        let later = RunOutcome { completion: 701, ..base };
        assert_eq!(check_resume(&base, &later, 1, 1).failed, 1);
        let mut relabeled = triangle_labels();
        relabeled[2].matching = true;
        let other = RunOutcome { labeled: &relabeled, ..base };
        let v = check_resume(&base, &other, 1, 1);
        assert_eq!((v.attempted, v.failed), (1, 1));
    }

    #[test]
    fn stream_must_equal_batch() {
        let batch = [(0, 1, 0.5f64.to_bits()), (1, 2, 0.25f64.to_bits())];
        assert_eq!(check_stream(3, &batch, &batch), Verdict::of(3));
        let rescored = [(0, 1, 0.5f64.to_bits()), (1, 2, 0.26f64.to_bits())];
        assert_eq!(check_stream(3, &rescored, &batch).failed, 2);
        assert_eq!(check_stream(3, &batch[..1], &batch).failed, 1);
        let reordered = [batch[1], batch[0]];
        assert_eq!(check_stream(3, &reordered, &batch).failed, 1, "order is part of the contract");
    }
}
