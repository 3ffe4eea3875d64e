//! Incremental candidate generation — the streaming counterpart of the
//! batch similarity join.
//!
//! A [`StreamMatcher`] accepts records one at a time. Inserting a record
//! re-tokenizes **only that record** ([`TokenizedCorpus::insert_record`]),
//! probes a growable posting index over the records that already arrived,
//! and emits the delta candidate pairs (new record × old corpus) that can
//! still matter. It only *discovers* pairs; every likelihood is assigned by
//! the one exact candidate path, [`generate_candidates_prepared`], when a
//! snapshot is taken.
//!
//! # Why the batch filters cannot be replayed verbatim
//!
//! The batch path's cosine prefix filter is built from tf-idf weights, and
//! idf (`ln(1 + n/df)`) drifts as the corpus grows: a prefix cut that was
//! sound at `n` records can be unsound at `n + 1`. The positional filter
//! additionally orders tokens by global document frequency, which also
//! drifts. Discovery therefore prunes only with **arrival-invariant**
//! quantities:
//!
//! * **Jaccard prune threshold.** A pair whose final blended likelihood
//!   reaches `min_likelihood` satisfies `wc·cos + wj·jac + Σᵢwᵢ·eᵢ ≥
//!   min_l·W`. Bounding `cos ≤ 1` and `eᵢ ≤ 1` gives `jac ≥ t_j =
//!   (min_l·W − wc − Σᵢwᵢ)/wj` (when `wj > 0`; always `≤ 1`). `t_j`
//!   depends only on the config, never on the corpus. With the default
//!   60/40 blend it is positive only above floor 0.6: every floor the CLI
//!   and the benchmark run at is the **unfiltered regime** `t_j ≤ 0`.
//! * **Prefix pigeonhole.** In the filtered regime (`t_j > 0`) an arrived
//!   record `b` indexes `|b| − ⌈t_j·|b|⌉ + 1` of its tokens. The pigeonhole
//!   argument of [`crate::prefix`] holds for *any* fixed subset of that
//!   size: if `jac(a, b) ≥ t_j` then `|a ∩ b| ≥ ⌈t_j·|b|⌉`, and the
//!   `⌈t_j·|b|⌉ − 1` tokens left out cannot hold all of them. The new
//!   record probes with its **full** token set, so every qualifying
//!   (new × old) pair is touched. The subset taken is the **rare end** of
//!   the id-sorted set — the highest token ids. Ids are handed out in
//!   first-seen order, so low ids are the words the corpus met first, which
//!   are its frequent ones; indexing them would make postings longest
//!   exactly where every probe scans them. Token ids of arrived records
//!   never change, so the choice is final the moment it is written.
//! * **Length filter.** `jac ≤ min(|a|,|b|)/max(|a|,|b|)` uses only the
//!   two set sizes — arrival-invariant, applied at the slacked `t_j`.
//!
//! Both thresholds carry the same float slacks as the batch filters
//! (`FILTER_SLACK`, `BOUND_SLACK`), so rounding can only keep extra pairs.
//!
//! # Deltas and exact scoring
//!
//! A touched pair is **emitted** in the insert's [`StreamDelta`] iff
//! `wc·1 + wj·jac + Σᵢwᵢ ≥ min_l·W − slack` with its exact Jaccard — an
//! arrival-invariant superset of every pair that can ever clear the floor,
//! since cosine and the extra measures are bounded by 1. In the unfiltered
//! regime every record indexes its whole token set, so the posting scan
//! meets each shared token of a (new, old) pair exactly once: a per-record
//! counter beside the probe stamp *is* `|a ∩ b|`, and the Jaccard is
//! `shared / (|a| + |b| − shared)` from those integers — the expression
//! [`crate::similarity::jaccard`] evaluates, hence the same bits, without
//! a merge intersection. Under a prefix the counts are partial (shared
//! tokens outside the indexed subset are never met), so the filtered
//! regime intersects the two sets. Which regime applies follows from the
//! config-derived `t_j` alone.
//!
//! Nothing per pair is kept: the matcher's memory is the records plus their
//! postings. Ingest still *emits* O(n²) delta pairs at low floors — there
//! every token-sharing pair can reach the floor on cosine alone, and the
//! delta contract ("every final candidate appeared in some delta") promises
//! the caller each of them at the moment its later endpoint arrives. No
//! arrival-invariant filter can shrink that set; only a weaker contract
//! (deltas that may be revised as idf settles) can.
//!
//! Final likelihoods are *not* assigned at insert time (idf keeps
//! drifting). [`StreamMatcher::candidates`] is the batch join itself:
//! tf-idf index over the incrementally built corpus — identical to the
//! batch-built one, see [`TokenizedCorpus::insert_record`] — then
//! [`generate_candidates_prepared`] with its prefix filter, positional
//! cuts, blocks and `config.threads`. The result is [`generate_candidates`]
//! over the arrived records by construction; that the deltas cover it is
//! the property pinned by `tests/stream_matcher_oracle.rs`.
//!
//! [`StreamMatcher::close_canonical`] is the same join under a caller-
//! chosen record permutation (the streaming service sorts arrivals back
//! into their external-id order), which makes the final candidate set
//! independent of arrival order, bit for bit.

use crate::candidates::{
    generate_candidates, generate_candidates_prepared, MatcherConfig, ScoredCandidate,
};
use crate::corpus::TokenizedCorpus;
use crate::prefix::{length_filtered, BOUND_SLACK, FILTER_SLACK};
use crate::similarity::jaccard;
use crate::tfidf::TfIdfIndex;
use crowdjoin_records::{Dataset, Record, Schema, Table};

/// One delta candidate discovered by an insert: the old record `a`, the
/// just-inserted record `b` (`a < b` always), and their exact Jaccard.
///
/// The Jaccard is final (token sets never change); the blended likelihood
/// is not assigned until a snapshot, because tf-idf weights drift as the
/// corpus grows. Callers that need a provisional ordering mid-stream order
/// by `jaccard`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaPair {
    /// The already-arrived endpoint.
    pub a: u32,
    /// The just-inserted endpoint.
    pub b: u32,
    /// Exact Jaccard similarity of the two token sets (arrival-invariant).
    pub jaccard: f64,
}

/// The result of one [`StreamMatcher::insert`]: the new record's id and
/// every emitted (new × old) candidate pair.
#[derive(Debug, Clone)]
pub struct StreamDelta {
    /// Id assigned to the inserted record (arrival order).
    pub record: u32,
    /// Newly discovered candidate pairs, ascending by old-record id.
    pub pairs: Vec<DeltaPair>,
}

/// The growable posting index behind [`StreamMatcher`] — the incremental
/// counterpart of the batch `PrefixIndex` (whose CSR arenas are frozen at
/// build time). Token `t`'s postings hold `(record, token-set size)` for
/// every already-arrived record that indexed `t` (module docs: its whole
/// set when unfiltered, the rare end of it otherwise).
#[derive(Debug, Default)]
struct StreamPostings {
    lists: Vec<Vec<(u32, u32)>>,
}

impl StreamPostings {
    /// Grows the token axis to cover `vocab` tokens.
    fn grow(&mut self, vocab: usize) {
        if self.lists.len() < vocab {
            self.lists.resize_with(vocab, Vec::new);
        }
    }

    /// Indexes record `id` (token-set size `len`) under `token`.
    fn insert(&mut self, token: u32, id: u32, len: u32) {
        self.lists[token as usize].push((id, len));
    }

    /// Postings of `token` (empty for tokens newer than the last grow).
    fn postings(&self, token: u32) -> &[(u32, u32)] {
        self.lists.get(token as usize).map_or(&[], Vec::as_slice)
    }
}

/// Incremental candidate generation over records that arrive one at a
/// time. See the module docs for the discovery/scoring split and the
/// identity with the batch path.
///
/// Streaming is the self-join (dedup) shape: every arrived record is
/// joinable with every other (`split = None`).
#[derive(Debug)]
pub struct StreamMatcher {
    config: MatcherConfig,
    dataset: Dataset,
    corpus: TokenizedCorpus,
    postings: StreamPostings,
    /// The arrival-invariant Jaccard prune threshold `t_j` (module docs);
    /// `≤ 0` is the unfiltered regime (every token indexed, no length
    /// filter, overlaps counted in the posting scan).
    prune: f64,
    /// Delta pairs emitted so far.
    emitted: usize,
    /// Per-record `(probe stamp, postings met in that probe)`: the stamp
    /// dedups touched records within an insert, the count is `|a ∩ b|`
    /// when unfiltered.
    seen: Vec<(u32, u32)>,
    epoch: u32,
    touched: Vec<u32>,
}

impl StreamMatcher {
    /// An empty streaming matcher over `schema`.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid for the schema's arity.
    #[must_use]
    pub fn new(schema: Schema, config: MatcherConfig) -> Self {
        let arity = schema.arity();
        config.validate(arity);
        let extras: f64 = config.extra_measures.iter().map(|em| em.weight).sum();
        let prune = if config.jaccard_weight > 0.0 {
            (config.min_likelihood * config.total_weight() - config.cosine_weight - extras)
                / config.jaccard_weight
        } else {
            0.0
        };
        let dataset = Dataset {
            table: Table::new(schema),
            entity_of: Vec::new(),
            split: None,
            name: "stream".into(),
        };
        Self {
            config,
            dataset,
            corpus: TokenizedCorpus::empty(arity),
            postings: StreamPostings::default(),
            prune,
            emitted: 0,
            seen: Vec::new(),
            epoch: 0,
            touched: Vec::new(),
        }
    }

    /// Number of records arrived so far.
    #[must_use]
    pub fn num_records(&self) -> usize {
        self.corpus.num_records()
    }

    /// Number of delta pairs emitted so far — the arrival-invariant
    /// superset of the final candidates (module docs). A running count;
    /// the pairs themselves are not kept.
    #[must_use]
    pub fn num_materialized(&self) -> usize {
        self.emitted
    }

    /// The arrived records as a dataset, in arrival order.
    #[must_use]
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The incrementally built corpus (arrival order).
    #[must_use]
    pub fn corpus(&self) -> &TokenizedCorpus {
        &self.corpus
    }

    /// The matcher configuration.
    #[must_use]
    pub fn config(&self) -> &MatcherConfig {
        &self.config
    }

    /// Inserts one record: tokenizes it, probes the existing postings for
    /// every (new × old) pair that can still clear the floor, emits those
    /// pairs, and finally indexes the new record's own tokens so later
    /// arrivals can discover it.
    ///
    /// Cost is the record's tokens plus the postings they touch. In the
    /// filtered regime that is a small slice of the corpus; in the
    /// unfiltered regime it is every older record sharing any token — on
    /// real text most of the corpus — each of which is also emitted.
    ///
    /// # Panics
    ///
    /// Panics if the record's arity differs from the schema.
    pub fn insert(&mut self, record: &Record) -> StreamDelta {
        let id = self.corpus.insert_record(record);
        let id32 = u32::try_from(id).expect("stream corpus overflow");
        self.dataset.table.push(record.clone());
        self.dataset.entity_of.push(id32);
        self.postings.grow(self.corpus.vocabulary_size());
        self.seen.push((0, 0));

        // Probe: full token set of the new record against the old records'
        // indexed tokens, with the length filter at the slacked t_j.
        self.epoch += 1;
        self.touched.clear();
        let set = self.corpus.token_set(id);
        let la = set.len();
        let t_len = self.prune - FILTER_SLACK;
        let filtered = self.prune > 0.0;
        for &token in set {
            for &(b, lb) in self.postings.postings(token) {
                if filtered && length_filtered(t_len, la, lb as usize) {
                    continue;
                }
                let slot = &mut self.seen[b as usize];
                if slot.0 != self.epoch {
                    *slot = (self.epoch, 0);
                    self.touched.push(b);
                }
                slot.1 += 1;
            }
        }
        // Postings ascend by record id, so `touched` is one ascending run
        // per probed token: the run-merging stable sort, not `sort_unstable`.
        self.touched.sort();

        // Emit: exact Jaccard, keep iff the pair can ever qualify with
        // cosine and every extra measure bounded by 1.
        let wc = self.config.cosine_weight;
        let wj = self.config.jaccard_weight;
        let extras_sum: f64 = self.config.extra_measures.iter().map(|em| em.weight).sum();
        let numer_floor = self.config.min_likelihood * self.config.total_weight() - BOUND_SLACK;
        let mut pairs = Vec::new();
        for &b in &self.touched {
            let other = self.corpus.token_set(b as usize);
            let jac = if filtered {
                jaccard(other, set)
            } else {
                // Whole sets are indexed, so the scan met every shared token
                // once: same integers, same expression as `jaccard`.
                let shared = self.seen[b as usize].1 as usize;
                shared as f64 / (la + other.len() - shared) as f64
            };
            if wc + wj * jac + extras_sum >= numer_floor {
                pairs.push(DeltaPair { a: b, b: id32, jaccard: jac });
            }
        }
        self.emitted += pairs.len();

        // Index the new record: `len − ⌈t_j·len⌉ + 1` tokens from the rare
        // (high-id) end of its id-sorted set, the whole set when t_j ≤ 0.
        let indexed = if filtered {
            let required = ((self.prune - BOUND_SLACK) * la as f64).ceil() as usize;
            la - required.saturating_sub(1)
        } else {
            la
        };
        for &token in &set[la - indexed..] {
            self.postings.insert(token, id32, la as u32);
        }
        StreamDelta { record: id32, pairs }
    }

    /// Snapshot: the exact candidate set over everything that arrived, in
    /// arrival-id space. This *is* the batch join —
    /// [`generate_candidates_prepared`] over the incrementally built corpus
    /// — so it equals [`generate_candidates`] on [`Self::dataset`] by
    /// construction.
    #[must_use]
    pub fn candidates(&self) -> Vec<ScoredCandidate> {
        let index = TfIdfIndex::from_corpus_threaded(
            &self.corpus,
            &self.config.field_weights,
            self.config.threads,
        );
        generate_candidates_prepared(&self.dataset, &self.corpus, &index, &self.config)
    }

    /// Snapshot under a caller-chosen record order: `order[r]` is the
    /// arrival id that becomes canonical id `r`. Returns the re-ordered
    /// dataset plus [`generate_candidates`] on it — independent of the
    /// order records actually arrived in.
    ///
    /// This is the close path of a streaming job: arrivals are sorted back
    /// into their external-id order so the downstream engine run is
    /// byte-identical to the batch pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the arrival ids.
    #[must_use]
    pub fn close_canonical(&self, order: &[u32]) -> (Dataset, Vec<ScoredCandidate>) {
        let n = self.num_records();
        assert_eq!(order.len(), n, "order must cover every arrived record");
        let mut placed = vec![false; n];
        let mut table = Table::new(self.dataset.table.schema().clone());
        for &a in order {
            assert!(
                !std::mem::replace(&mut placed[a as usize], true),
                "arrival id {a} appears twice in the close order"
            );
            table.push(self.dataset.table.record(a as usize).clone());
        }
        let dataset = Dataset {
            table,
            entity_of: (0..n as u32).collect(),
            split: None,
            name: self.dataset.name.clone(),
        };
        let candidates = generate_candidates(&dataset, &self.config);
        (dataset, candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{generate_candidates, generate_candidates_bruteforce};

    fn record(name: &str) -> Record {
        Record::new(vec![name])
    }

    fn schema() -> Schema {
        Schema::new(vec!["name"])
    }

    fn assert_bit_identical(got: &[ScoredCandidate], want: &[ScoredCandidate], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: candidate count");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!((g.a, g.b), (w.a, w.b), "{ctx}");
            assert_eq!(
                g.likelihood.to_bits(),
                w.likelihood.to_bits(),
                "{ctx}: likelihood drifted on ({}, {})",
                g.a,
                g.b
            );
        }
    }

    #[test]
    fn first_record_inserts_cleanly_into_an_empty_index() {
        // Regression companion to the PrefixIndex empty-corpus fix: the
        // very first insert probes an index with no postings at all.
        let mut sm = StreamMatcher::new(schema(), MatcherConfig::for_arity(1));
        let delta = sm.insert(&record("sony tv"));
        assert_eq!(delta.record, 0);
        assert!(delta.pairs.is_empty());
        assert!(sm.candidates().is_empty());
        // And with the unfiltered t ≤ 0 config (floor 0) too.
        let cfg = MatcherConfig { min_likelihood: 0.0, ..MatcherConfig::for_arity(1) };
        let mut sm = StreamMatcher::new(schema(), cfg);
        let delta = sm.insert(&record("sony tv"));
        assert!(delta.pairs.is_empty());
    }

    #[test]
    fn snapshot_matches_batch_after_every_insert() {
        let names = [
            "sony bravia tv 40",
            "sony bravia tv 40 black",
            "canon eos camera",
            "sony tv 46",
            "",
            "canon eos camera kit",
        ];
        for floor in [0.0, 0.05, 0.3, 0.6] {
            let cfg = MatcherConfig { min_likelihood: floor, ..MatcherConfig::for_arity(1) };
            let mut sm = StreamMatcher::new(schema(), cfg.clone());
            let mut table = Table::new(schema());
            for (i, name) in names.iter().enumerate() {
                sm.insert(&record(name));
                table.push(record(name));
                let prefix = Dataset {
                    table: table.clone(),
                    entity_of: (0..=i as u32).collect(),
                    split: None,
                    name: "t".into(),
                };
                let batch = generate_candidates(&prefix, &cfg);
                assert_bit_identical(&sm.candidates(), &batch, &format!("floor {floor} after {i}"));
            }
        }
    }

    #[test]
    fn deltas_cover_every_final_candidate() {
        let names =
            ["alpha beta gamma", "alpha beta delta", "gamma delta epsilon", "alpha zeta", "beta"];
        let cfg = MatcherConfig { min_likelihood: 0.05, ..MatcherConfig::for_arity(1) };
        let mut sm = StreamMatcher::new(schema(), cfg);
        let mut seen: Vec<(u32, u32)> = Vec::new();
        for name in names {
            let delta = sm.insert(&record(name));
            // Delta pairs always pair the new record with an older one.
            for p in &delta.pairs {
                assert!(p.a < p.b);
                assert_eq!(p.b, delta.record);
                seen.push((p.a, p.b));
            }
        }
        for c in sm.candidates() {
            assert!(seen.contains(&(c.a, c.b)), "candidate ({}, {}) never in a delta", c.a, c.b);
        }
    }

    #[test]
    fn close_canonical_is_arrival_order_invariant() {
        let names = [
            "sony bravia tv 40",
            "sony bravia tv 40 black",
            "canon eos camera",
            "sony tv 46",
            "canon eos camera kit",
            "alpha beta gamma",
        ];
        let cfg = MatcherConfig { min_likelihood: 0.05, ..MatcherConfig::for_arity(1) };
        // Canonical dataset in external order.
        let mut table = Table::new(schema());
        for name in names {
            table.push(record(name));
        }
        let canonical = Dataset {
            table,
            entity_of: (0..names.len() as u32).collect(),
            split: None,
            name: "stream".into(),
        };
        let batch = generate_candidates(&canonical, &cfg);
        assert!(!batch.is_empty());
        // Stream in several arrival orders; close must reproduce the batch
        // output bit for bit every time.
        for arrivals in
            [vec![0usize, 1, 2, 3, 4, 5], vec![5, 4, 3, 2, 1, 0], vec![2, 5, 0, 3, 1, 4]]
        {
            let mut sm = StreamMatcher::new(schema(), cfg.clone());
            // order[r] = arrival id of the record with external id r.
            let mut order = vec![0u32; names.len()];
            for (arrival, &external) in arrivals.iter().enumerate() {
                sm.insert(&record(names[external]));
                order[external] = arrival as u32;
            }
            let (ds, cands) = sm.close_canonical(&order);
            assert_eq!(ds.len(), names.len());
            for (i, name) in names.iter().enumerate() {
                assert_eq!(ds.table.record(i).field(0), *name, "arrivals {arrivals:?}");
            }
            assert_bit_identical(&cands, &batch, &format!("arrivals {arrivals:?}"));
        }
    }

    #[test]
    fn bruteforce_restricted_to_token_sharing_is_the_same_oracle() {
        let names = ["a b c", "a b d", "c d e", "f g", "a f"];
        let cfg = MatcherConfig { min_likelihood: 0.05, ..MatcherConfig::for_arity(1) };
        let mut sm = StreamMatcher::new(schema(), cfg.clone());
        for name in names {
            sm.insert(&record(name));
        }
        let slow = generate_candidates_bruteforce(sm.dataset(), &cfg);
        let corpus = sm.corpus();
        let shares = |a: usize, b: usize| {
            let (sa, sb) = (corpus.token_set(a), corpus.token_set(b));
            sa.iter().any(|t| sb.binary_search(t).is_ok())
        };
        let slow: Vec<ScoredCandidate> =
            slow.into_iter().filter(|c| shares(c.a as usize, c.b as usize)).collect();
        assert_bit_identical(&sm.candidates(), &slow, "bruteforce oracle");
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn close_order_must_be_a_permutation() {
        let mut sm = StreamMatcher::new(schema(), MatcherConfig::for_arity(1));
        sm.insert(&record("a"));
        sm.insert(&record("b"));
        let _ = sm.close_canonical(&[0, 0]);
    }
}
