//! Candidate generation — the "machine" half of the hybrid pipeline.
//!
//! Following CrowdER's workflow (citation 25 in the paper), the machine
//! stage computes a likelihood for record pairs and "weeds out" the
//! obviously non-matching ones; only pairs above a pruning floor survive to
//! be labeled by crowd + transitivity. Likelihood here is a weighted blend of
//! tf-idf cosine and Jaccard token overlap — both in `[0, 1]`, monotone in
//! textual closeness of the records.
//!
//! Two implementations are provided:
//!
//! * [`generate_candidates`] — the blocked, prefix-filtered similarity
//!   join: the dataset is tokenized **once** into interned `u32` tokens
//!   (shared by the tf-idf and Jaccard paths — every build stage scales
//!   with [`MatcherConfig::threads`], bit-identically to serial), each
//!   record probes arena-backed CSR posting lists one cache-sized index
//!   *block* at a time (see [`crate::prefix`] for the filter-safety
//!   argument, `crate::block` for the blocking and the adaptive
//!   positional/length filter cascade), touched pairs accumulate into a
//!   block-local dense scratch array (touched-list reset, no per-record
//!   hashing), and probing parallelizes across record ranges. Output is
//!   exactly every pair that shares ≥ 1 token and clears
//!   `min_likelihood`, deterministically sorted by `(a, b)` regardless of
//!   thread count and block size;
//! * [`generate_candidates_bruteforce`] — full pairwise scan, the
//!   correctness oracle: the filtered path returns the bit-identical
//!   candidate set above the floor (property-tested in
//!   `tests/filter_equivalence.rs`).

use crate::corpus::TokenizedCorpus;
use crate::fields::ExtraMeasure;
use crate::prefix::{length_filtered, PrefixIndex, PrefixParams, BOUND_SLACK};
use crate::similarity::jaccard;
use crate::tfidf::TfIdfIndex;
use crowdjoin_records::Dataset;

/// A machine-scored candidate pair (`a < b` in the dataset's id space).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredCandidate {
    /// First record id.
    pub a: u32,
    /// Second record id.
    pub b: u32,
    /// Blended likelihood of matching, in `[0, 1]`.
    pub likelihood: f64,
}

/// Matcher configuration.
#[derive(Debug, Clone)]
pub struct MatcherConfig {
    /// Pairs below this likelihood are pruned by the machine (the paper's
    /// experiments then sweep a *threshold* ≥ this floor).
    pub min_likelihood: f64,
    /// Weight of tf-idf cosine in the blend.
    pub cosine_weight: f64,
    /// Weight of Jaccard token overlap in the blend.
    pub jaccard_weight: f64,
    /// Per-field token weights (must match the dataset schema arity).
    pub field_weights: Vec<f64>,
    /// Additional per-field scoring terms (numeric closeness, edit
    /// distance, ...) applied to candidate pairs after token-based
    /// generation. Candidate *generation* still requires ≥1 shared token —
    /// the extra measures refine the likelihood, they don't create
    /// candidates.
    pub extra_measures: Vec<ExtraMeasure>,
    /// Worker threads for candidate generation — probing *and* every build
    /// stage (tokenization, tf-idf, prefix index): 0 = one per available
    /// core, 1 = sequential, N = at most N. Output is identical for every
    /// value.
    pub threads: usize,
    /// Index-side records per probe block (see `crate::block`): 0 = auto
    /// (unblocked up to 16k index records, cache-sized 8k blocks beyond).
    /// Any value yields the identical candidate set — the knob trades cache
    /// locality only.
    pub block_records: usize,
}

impl MatcherConfig {
    /// A sensible default for a schema of `arity` fields: equal field
    /// weights, 60/40 cosine/Jaccard blend, pruning floor 0.05, no extra
    /// measures, one generation thread per core.
    #[must_use]
    pub fn for_arity(arity: usize) -> Self {
        Self {
            min_likelihood: 0.05,
            cosine_weight: 0.6,
            jaccard_weight: 0.4,
            field_weights: vec![1.0; arity],
            extra_measures: Vec::new(),
            threads: 0,
            block_records: 0,
        }
    }

    /// Checks the configuration against a schema of `arity` fields — what
    /// [`generate_candidates`] does first, exposed so a long-running job can
    /// fail before it accepts any record.
    ///
    /// # Panics
    ///
    /// Panics on a negative blend weight, an all-zero blend, an extra
    /// measure naming a field outside the schema, or a `min_likelihood`
    /// outside `[0, 1]`.
    pub fn validate(&self, arity: usize) {
        assert!(
            self.cosine_weight >= 0.0 && self.jaccard_weight >= 0.0,
            "blend weights must be non-negative"
        );
        for em in &self.extra_measures {
            assert!(em.weight >= 0.0, "blend weights must be non-negative");
            assert!(em.field < arity, "extra measure references field {} of {arity}", em.field);
        }
        assert!(self.total_weight() > 0.0, "at least one blend weight must be positive");
        assert!((0.0..=1.0).contains(&self.min_likelihood), "min_likelihood must be in [0,1]");
    }

    pub(crate) fn total_weight(&self) -> f64 {
        self.cosine_weight
            + self.jaccard_weight
            + self.extra_measures.iter().map(|em| em.weight).sum::<f64>()
    }

    pub(crate) fn blend(&self, dataset: &Dataset, a: u32, b: u32, cosine: f64, jac: f64) -> f64 {
        let mut acc = self.cosine_weight * cosine + self.jaccard_weight * jac;
        for em in &self.extra_measures {
            let va = dataset.table.record(a as usize).field(em.field);
            let vb = dataset.table.record(b as usize).field(em.field);
            acc += em.weight * em.measure.score(va, vb);
        }
        acc / self.total_weight()
    }

    /// The blended prefilter threshold `t` of the prefix filter (see
    /// `crate::prefix`): every candidate clearing `min_likelihood` has
    /// `cosine >= t` or `jaccard >= t`. Non-positive when the blend cannot
    /// prune (extras alone can reach the floor, or the floor is 0).
    pub(crate) fn prefilter_threshold(&self) -> f64 {
        let token_weight = self.cosine_weight + self.jaccard_weight;
        if token_weight <= 0.0 {
            return 0.0;
        }
        let extras: f64 = self.extra_measures.iter().map(|em| em.weight).sum();
        (self.min_likelihood * self.total_weight() - extras) / token_weight
    }
}

/// Prefix-filtered candidate generation (see the module docs): every
/// joinable pair sharing at least one token whose blended likelihood
/// reaches `config.min_likelihood`, sorted by `(a, b)`.
///
/// Tokenization, tf-idf indexing, and probing happen internally; use
/// [`TokenizedCorpus::build`], [`TfIdfIndex::from_corpus`], and
/// [`generate_candidates_prepared`] to stage (and time) the phases
/// separately.
///
/// # Panics
///
/// Panics if `config.field_weights` does not match the schema arity.
#[must_use]
pub fn generate_candidates(dataset: &Dataset, config: &MatcherConfig) -> Vec<ScoredCandidate> {
    config.validate(dataset.table.schema().arity());
    let corpus = TokenizedCorpus::build_threaded(dataset, config.threads);
    let index = TfIdfIndex::from_corpus_threaded(&corpus, &config.field_weights, config.threads);
    generate_candidates_prepared(dataset, &corpus, &index, config)
}

/// The probing stage of [`generate_candidates`], over an already-built
/// corpus and tf-idf index.
///
/// Stage wall time lands in the always-on metrics registry as the
/// `matcher.candidates.us` counter (plus `matcher.prefix.us` for the
/// prefix-index build) — the `--timings` breakdown reads those.
///
/// # Panics
///
/// Panics if the corpus or index do not match the dataset, or if
/// `config.field_weights` does not match the schema arity.
#[must_use]
pub fn generate_candidates_prepared(
    dataset: &Dataset,
    corpus: &TokenizedCorpus,
    index: &TfIdfIndex,
    config: &MatcherConfig,
) -> Vec<ScoredCandidate> {
    config.validate(dataset.table.schema().arity());
    assert_eq!(corpus.num_records(), dataset.len(), "corpus built for a different dataset");
    assert_eq!(index.num_records(), dataset.len(), "index built for a different dataset");
    let stage_clock = std::time::Instant::now();
    let prefix = {
        let _span = crowdjoin_obs::obs_span!(
            "matcher",
            "matcher.prefix",
            crowdjoin_obs::NO_SHARD,
            records = dataset.len(),
        );
        let clock = std::time::Instant::now();
        let prefix = PrefixIndex::build(
            corpus,
            index,
            PrefixParams {
                threshold: config.prefilter_threshold(),
                cos_weight_positive: config.cosine_weight > 0.0,
                jac_weight_positive: config.jaccard_weight > 0.0,
                split: dataset.split,
                threads: config.threads,
                block_records: config.block_records,
            },
        );
        crowdjoin_obs::counter("matcher.prefix.us", crowdjoin_obs::NO_SHARD)
            .add(clock.elapsed().as_micros() as u64);
        prefix
    };
    let gen = Generator { dataset, config, corpus, index, prefix };
    let probe_count = dataset.split.unwrap_or(dataset.len());
    let out = gen.run(probe_count, config.threads);
    crowdjoin_obs::counter("matcher.candidates.us", crowdjoin_obs::NO_SHARD)
        .add(stage_clock.elapsed().as_micros() as u64);
    out
}

/// The probing kernel plus everything it scores against.
struct Generator<'a> {
    dataset: &'a Dataset,
    config: &'a MatcherConfig,
    corpus: &'a TokenizedCorpus,
    index: &'a TfIdfIndex,
    prefix: PrefixIndex,
}

/// Dense per-worker scratch, sized to one index-side *block* (see
/// `crate::block`): for a block-local slot `li = b − block_lo`,
/// `stamp[li] == epoch` marks `b` as touched by the current (probe, block)
/// visit, `acc[li]` accumulates its partial cosine, `cnt[li]` its
/// token-overlap count, and `pos[li]` the number of probe tokens consumed
/// through the last counted Jaccard match (the positional filter's
/// cursor). Reset is O(1) per visit (bump the epoch); only touched entries
/// are ever visited. Keeping the arrays block-sized — instead of
/// index-side-sized — is the whole point of blocking: at 1M records the
/// unblocked scratch alone is ~20 MB and every posting touch is a cache
/// miss; a block's scratch lives in L2.
///
/// `cos_cur` / `jac_cur` are the probe's per-token-list cursors `(next,
/// end)` into the posting arenas, aligned with the probe's vector/token
/// list; each block visit consumes every list's entries belonging to that
/// block, so a posting entry is scanned exactly once per probe, in the
/// same per-pair order as an unblocked scan.
struct Scratch {
    stamp: Vec<u32>,
    acc: Vec<f64>,
    cnt: Vec<u32>,
    pos: Vec<u32>,
    touched: Vec<u32>,
    epoch: u32,
    cos_cur: Vec<(u32, u32)>,
    jac_cur: Vec<(u32, u32)>,
}

impl Scratch {
    fn new(block_len: usize) -> Self {
        Self {
            stamp: vec![0; block_len],
            acc: vec![0.0; block_len],
            cnt: vec![0; block_len],
            pos: vec![0; block_len],
            touched: Vec::new(),
            epoch: 0,
            cos_cur: Vec::new(),
            jac_cur: Vec::new(),
        }
    }

    /// First touch of record `b` (block-local slot `li`) in this visit's
    /// epoch: zero its accumulators and put it on the touched list.
    #[inline]
    fn touch(&mut self, li: usize, b: u32, epoch: u32) {
        if self.stamp[li] != epoch {
            self.stamp[li] = epoch;
            self.acc[li] = 0.0;
            self.cnt[li] = 0;
            self.pos[li] = 0;
            self.touched.push(b);
        }
    }
}

impl Generator<'_> {
    /// Probes records `0..probe_count` on up to `threads` workers and
    /// returns the merged, `(a, b)`-sorted candidate list.
    fn run(&self, probe_count: usize, threads: usize) -> Vec<ScoredCandidate> {
        // Small enough that a few-thousand-record workload still spreads
        // over several chunks (and tests exercise the multi-worker merge),
        // large enough that queue traffic stays negligible at 100k records.
        const CHUNK: usize = 512;
        let scratch_len = self.prefix.blocks.scratch_len();
        let chunks = probe_count.div_ceil(CHUNK);
        let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let workers = (if threads == 0 { hw } else { threads }).min(chunks.max(1));
        if workers <= 1 {
            let mut span =
                crowdjoin_obs::obs_span!("matcher", "matcher.probe", crowdjoin_obs::NO_SHARD);
            let mut scratch = Scratch::new(scratch_len);
            let mut out = Vec::new();
            for a in 0..probe_count as u32 {
                self.probe(a, &mut scratch, &mut out);
            }
            span.set_field("records", probe_count);
            span.set_field("candidates", out.len());
            return out;
        }

        // The engine-scheduler pattern: workers pull the next unclaimed
        // chunk of probe records; chunk outputs are reassembled in chunk
        // order, so the merged result is identical for every worker count.
        let next = std::sync::atomic::AtomicUsize::new(0);
        let results: std::sync::Mutex<Vec<(usize, Vec<ScoredCandidate>)>> =
            std::sync::Mutex::new(Vec::with_capacity(chunks));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    // One span per probe worker thread (never per record —
                    // `probe` is the hot kernel and stays uninstrumented).
                    let mut span = crowdjoin_obs::obs_span!(
                        "matcher",
                        "matcher.probe",
                        crowdjoin_obs::NO_SHARD
                    );
                    let mut claimed = 0usize;
                    let mut found = 0usize;
                    let mut scratch = Scratch::new(scratch_len);
                    loop {
                        let chunk = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if chunk >= chunks {
                            span.set_field("chunks", claimed);
                            span.set_field("candidates", found);
                            return;
                        }
                        claimed += 1;
                        let lo = chunk * CHUNK;
                        let hi = ((chunk + 1) * CHUNK).min(probe_count);
                        let mut out = Vec::new();
                        for a in lo as u32..hi as u32 {
                            self.probe(a, &mut scratch, &mut out);
                        }
                        found += out.len();
                        results.lock().expect("results mutex poisoned").push((chunk, out));
                    }
                });
            }
        });
        let mut span =
            crowdjoin_obs::obs_span!("matcher", "matcher.merge", crowdjoin_obs::NO_SHARD);
        let mut results = results.into_inner().expect("results mutex poisoned");
        results.sort_unstable_by_key(|&(i, _)| i);
        let merged: Vec<ScoredCandidate> = results.into_iter().flat_map(|(_, out)| out).collect();
        span.set_field("candidates", merged.len());
        merged
    }

    /// Probes record `a` against the prefix postings, block by block, and
    /// emits every qualifying pair `(a, b)` with `b > a`, ascending in `b`.
    ///
    /// The probe first cuts each of its token lists to the entries it may
    /// scan (ids `> a` for a self join; everything for a cross join, whose
    /// postings hold only B-side records, all above every probe id), then
    /// consumes the lists one index-side *block* at a time: the next block
    /// is the one owning the smallest record id any cursor still points at
    /// (so runs of empty blocks are skipped in O(lists)), and a visit
    /// drains every list's entries belonging to that block into the
    /// block-local scratch before verifying the touched records. A pair's
    /// postings all live in the single block owning `b` and the lists are
    /// walked in the same order within the visit, so per pair the f64
    /// accumulation order — and hence every emitted likelihood bit — is
    /// identical to the unblocked scan; blocks are visited in ascending id
    /// order, so sorting each visit's emit range by `b` keeps the overall
    /// per-probe output ascending with no global sort.
    fn probe(&self, a: u32, s: &mut Scratch, out: &mut Vec<ScoredCandidate>) {
        let cross = self.dataset.split.is_some();
        let cos_arena = self.prefix.cos_arena();
        let jac_arena = self.prefix.jac_arena();
        let vec_a = self.index.vector(a);
        let set_a = self.corpus.token_set(a as usize);
        let la = set_a.len();

        s.cos_cur.clear();
        if self.prefix.cos_active {
            for &(token, _) in vec_a {
                let (lo, hi) = self.prefix.cos_range(token);
                let start = if cross {
                    lo
                } else {
                    lo + cos_arena[lo as usize..hi as usize].partition_point(|&(id, _)| id <= a)
                        as u32
                };
                s.cos_cur.push((start, hi));
            }
        }
        // The Jaccard walk order: global rank when any block tracks the
        // positional cursor (both sides must agree on one order for the
        // positional argument), plain set order otherwise. The overlap
        // counter is order-independent either way.
        s.jac_cur.clear();
        let probe_jac: &[u32] =
            if self.prefix.plan.any_pos { self.prefix.probe_tokens(a) } else { set_a };
        for &token in probe_jac {
            let (lo, hi) = self.prefix.jac_range(token);
            let start = if cross {
                lo
            } else {
                lo + jac_arena[lo as usize..hi as usize].partition_point(|&(id, _)| id <= a) as u32
            };
            s.jac_cur.push((start, hi));
        }

        let min_l = self.config.min_likelihood;
        // Bound checks compare blend *numerators* against this floor
        // (avoiding a division per touched pair): a real numerator below
        // `min_l·W − 1e-9` cannot round up to a blend ≥ min_l.
        let wc = self.config.cosine_weight;
        let wj = self.config.jaccard_weight;
        let extras_sum: f64 = self.config.extra_measures.iter().map(|em| em.weight).sum();
        let numer_floor = min_l * self.config.total_weight() - BOUND_SLACK;
        let t_len = self.prefix.t_len;

        loop {
            // The next non-empty block: the one owning the smallest record
            // id any cursor still points at.
            let mut next = u32::MAX;
            for &(cur, end) in &s.cos_cur {
                if cur < end {
                    next = next.min(cos_arena[cur as usize].0);
                }
            }
            for &(cur, end) in &s.jac_cur {
                if cur < end {
                    next = next.min(jac_arena[cur as usize].0);
                }
            }
            if next == u32::MAX {
                break;
            }
            let k = self.prefix.blocks.block_of(next);
            let (blo, bhi) = self.prefix.blocks.range(k);
            if s.epoch == u32::MAX {
                s.stamp.fill(0);
                s.epoch = 0;
            }
            s.epoch += 1;
            let epoch = s.epoch;
            s.touched.clear();

            // Index loop, not zip: `s.touch` needs `&mut *s` inside, which
            // an iterator over `s.cos_cur` would hold hostage.
            #[allow(clippy::needless_range_loop)]
            for i in 0..s.cos_cur.len() {
                let (mut cur, end) = s.cos_cur[i];
                let wa = vec_a[i].1;
                while cur < end {
                    let (b, wb) = cos_arena[cur as usize];
                    if b >= bhi {
                        break;
                    }
                    cur += 1;
                    let li = (b - blo) as usize;
                    s.touch(li, b, epoch);
                    s.acc[li] += wa as f64 * wb as f64;
                }
                s.cos_cur[i] = (cur, end);
            }
            // This block's cascade decisions (see `crate::block`): the
            // length filter skips entries before they ever touch scratch —
            // its predicate depends only on the two set sizes, so the
            // verifier re-derives exactly which pairs were skipped. The
            // positional cursor `pos` points just past the highest-ranked
            // counted match; everything uncounted must sit after it.
            let len_on = self.prefix.jac_filtered && self.prefix.plan.len_on[k];
            let pos_on = self.prefix.jac_filtered && self.prefix.plan.pos_on[k];
            for i in 0..s.jac_cur.len() {
                let (mut cur, end) = s.jac_cur[i];
                while cur < end {
                    let (b, lb) = jac_arena[cur as usize];
                    if b >= bhi {
                        break;
                    }
                    cur += 1;
                    if len_on && length_filtered(t_len, la, lb as usize) {
                        continue;
                    }
                    let li = (b - blo) as usize;
                    s.touch(li, b, epoch);
                    s.cnt[li] += 1;
                    if pos_on {
                        s.pos[li] = (i + 1) as u32;
                    }
                }
                s.jac_cur[i] = (cur, end);
            }

            let emit_start = out.len();
            for &b in &s.touched {
                let li = (b - blo) as usize;
                let set_b = self.corpus.token_set(b as usize);
                // Size + overlap + positional filter: jac <= shared_ub /
                // (|a|+|b|-shared_ub), where the true intersection is at
                // most the counted overlap plus the *positionally possible*
                // uncounted remainder — min(b's unindexed suffix, probe
                // tokens after the last counted match) — and never more
                // than the smaller set. Touched records share a token, so
                // neither set is empty. A length-filtered pair's counter is
                // incomplete (its postings were skipped), so it falls back
                // to the size-only bound; it can only qualify through
                // cosine anyway. In a pos-off block `pos` stays 0 and the
                // remainder degrades to `min(jac_cut, |a|)` — the plain
                // prefix bound.
                let min_len = la.min(set_b.len());
                let jac_cut = self.prefix.jac_cut[b as usize];
                let len_cut = len_on && length_filtered(t_len, la, set_b.len());
                let shared_ub = if jac_cut == u32::MAX || len_cut {
                    min_len
                } else {
                    let remaining = jac_cut.min(la as u32 - s.pos[li]);
                    ((s.cnt[li] + remaining) as usize).min(min_len)
                };
                let jac_ub = shared_ub as f64 / (la + set_b.len() - shared_ub) as f64;
                let suffix = self.prefix.cos_suffix_bound[b as usize];
                // Clamp below at 0: sublinear tf damping gives fractional
                // field weights *negative* vector components, so the
                // accumulated dot product can be negative while the true
                // cosine clamps to 0 — an unclamped bound would
                // underestimate the blend numerator.
                let cos_ub = if self.prefix.cos_active {
                    (s.acc[li] + suffix + BOUND_SLACK).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                if wc * cos_ub + wj * jac_ub + extras_sum < numer_floor {
                    continue;
                }
                // Exact cosine. When b's vector is fully indexed, the dense
                // accumulator received exactly the shared-token products in
                // ascending token-id order — the same f64 operations as the
                // merge in `TfIdfIndex::cosine` — so `acc` IS the merge
                // cosine. When a tail remains, complete the dot product
                // against b's few unindexed entries: if none is shared with
                // `a`, the merge would add nothing (adding an exact ±0.0
                // product never changes the sum's bits) and `acc` is again
                // the merge cosine verbatim; otherwise `acc + Σ shared-tail
                // products` nails the true cosine to within
                // summation-order rounding (≪ 1e-9), and the slacked bound
                // prunes almost every pair the full merge would have
                // rejected.
                let cos = if self.prefix.cos_active && suffix == 0.0 {
                    s.acc[li].clamp(0.0, 1.0)
                } else if self.prefix.cos_active {
                    let mut extra = 0.0f64;
                    let mut shared_tail = false;
                    for &(tok, wb) in self.prefix.cos_tail(b) {
                        if let Ok(j) = vec_a.binary_search_by_key(&tok, |e| e.0) {
                            shared_tail = true;
                            extra += vec_a[j].1 as f64 * wb as f64;
                        }
                    }
                    if !shared_tail {
                        s.acc[li].clamp(0.0, 1.0)
                    } else {
                        let refined = (s.acc[li] + extra + BOUND_SLACK).clamp(0.0, 1.0);
                        if wc * refined + wj * jac_ub + extras_sum < numer_floor {
                            continue;
                        }
                        self.index.cosine(a, b)
                    }
                } else {
                    self.index.cosine(a, b)
                };
                if wc * cos + wj * jac_ub + extras_sum < numer_floor {
                    continue;
                }
                // Exact Jaccard. When b's whole token set is indexed, a's
                // whole token set is walked, and the length filter did not
                // skip this pair's postings, the overlap counter is the
                // exact intersection size and the formula below is
                // `similarity::jaccard` verbatim; otherwise fall back to
                // the merge join.
                let jac = if jac_cut == 0 && !len_cut {
                    let shared = s.cnt[li] as usize;
                    shared as f64 / (la + set_b.len() - shared) as f64
                } else {
                    jaccard(set_a, set_b)
                };
                // With exact cosine and Jaccard in hand, this bound only
                // prunes when extra measures exist (it skips their
                // evaluation).
                if wc * cos + wj * jac + extras_sum < numer_floor {
                    continue;
                }
                let likelihood = self.config.blend(self.dataset, a, b, cos, jac);
                if likelihood >= min_l {
                    out.push(ScoredCandidate { a, b, likelihood });
                }
            }
            // Emit in ascending b (touched order is posting-scan order);
            // blocks are visited ascending, so the merged output needs no
            // global sort.
            out[emit_start..].sort_unstable_by_key(|c| c.b);
        }
    }
}

/// Full pairwise scan — O(n²) reference implementation and the correctness
/// oracle for the filtered path. Unlike [`generate_candidates`] it also
/// emits qualifying pairs that share **no** token (e.g. two empty records,
/// or extras-only likelihood): the filtered path's contract is exactly the
/// brute-force output restricted to token-sharing pairs.
///
/// # Panics
///
/// Panics if `config.field_weights` does not match the schema arity.
#[must_use]
pub fn generate_candidates_bruteforce(
    dataset: &Dataset,
    config: &MatcherConfig,
) -> Vec<ScoredCandidate> {
    config.validate(dataset.table.schema().arity());
    let corpus = TokenizedCorpus::build(dataset);
    let index = TfIdfIndex::from_corpus(&corpus, &config.field_weights);
    let mut out = Vec::new();
    for a in 0..dataset.len() as u32 {
        for b in (a + 1)..dataset.len() as u32 {
            if !dataset.is_joinable(a as usize, b as usize) {
                continue;
            }
            let cosine = index.cosine(a, b);
            let jac = jaccard(corpus.token_set(a as usize), corpus.token_set(b as usize));
            let likelihood = config.blend(dataset, a, b, cosine, jac);
            if likelihood >= config.min_likelihood {
                out.push(ScoredCandidate { a, b, likelihood });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdjoin_records::{Dataset, Record, Schema, Table};

    fn dataset(names: &[&str], split: Option<usize>) -> Dataset {
        let mut table = Table::new(Schema::new(vec!["name"]));
        for n in names {
            table.push(Record::new(vec![*n]));
        }
        let n = table.len();
        Dataset { table, entity_of: (0..n as u32).collect(), split, name: "t".into() }
    }

    #[test]
    fn finds_similar_pairs() {
        let ds = dataset(
            &["sony bravia tv 40", "sony bravia tv 40 black", "canon eos camera", "zzz qqq"],
            None,
        );
        let cands = generate_candidates(&ds, &MatcherConfig::for_arity(1));
        let top = cands
            .iter()
            .max_by(|x, y| x.likelihood.total_cmp(&y.likelihood))
            .expect("candidates exist");
        assert_eq!((top.a, top.b), (0, 1));
        assert!(top.likelihood > 0.6);
        // The all-different record shares no tokens with anyone.
        assert!(cands.iter().all(|c| c.a != 3 && c.b != 3));
    }

    #[test]
    fn agrees_with_bruteforce_bit_identically() {
        let ds = dataset(
            &[
                "alpha beta gamma",
                "alpha beta delta",
                "gamma delta epsilon",
                "zeta eta theta",
                "alpha zeta",
                "beta gamma delta epsilon",
            ],
            None,
        );
        let cfg = MatcherConfig { min_likelihood: 0.0, ..MatcherConfig::for_arity(1) };
        let fast = generate_candidates(&ds, &cfg);
        let mut slow = generate_candidates_bruteforce(&ds, &cfg);
        // Brute force also emits zero-likelihood disjoint pairs when the
        // floor is 0; the filtered join only emits token-sharing pairs.
        // Compare on the shared support.
        slow.retain(|c| c.likelihood > 0.0);
        let fast: Vec<_> = fast.into_iter().filter(|c| c.likelihood > 0.0).collect();
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(slow.iter()) {
            assert_eq!((f.a, f.b), (s.a, s.b));
            assert_eq!(
                f.likelihood.to_bits(),
                s.likelihood.to_bits(),
                "likelihood drifted on ({}, {})",
                f.a,
                f.b
            );
        }
    }

    #[test]
    fn filtered_path_matches_bruteforce_at_high_floors() {
        let ds = dataset(
            &[
                "sony bravia tv 40",
                "sony bravia tv 40 black",
                "sony tv 46",
                "canon eos camera kit",
                "canon eos camera",
                "alpha beta gamma delta",
                "alpha beta gamma",
            ],
            None,
        );
        for floor in [0.2, 0.4, 0.6, 0.8] {
            let cfg = MatcherConfig { min_likelihood: floor, ..MatcherConfig::for_arity(1) };
            let fast = generate_candidates(&ds, &cfg);
            let slow = generate_candidates_bruteforce(&ds, &cfg);
            assert_eq!(fast.len(), slow.len(), "floor {floor}");
            for (f, s) in fast.iter().zip(slow.iter()) {
                assert_eq!((f.a, f.b), (s.a, s.b), "floor {floor}");
                assert_eq!(f.likelihood.to_bits(), s.likelihood.to_bits(), "floor {floor}");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_output() {
        // 2500 probe records = 5 chunks of 512, so the explicit `threads:
        // 4` run genuinely spawns workers and merges multiple chunks
        // (including the final partial one) — even on a 1-core machine.
        let names: Vec<String> =
            (0..2500).map(|i| format!("rec{} tok{} x{}", i % 97, i % 53, i % 31)).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let ds = dataset(&refs, None);
        let sequential =
            generate_candidates(&ds, &MatcherConfig { threads: 1, ..MatcherConfig::for_arity(1) });
        let parallel =
            generate_candidates(&ds, &MatcherConfig { threads: 4, ..MatcherConfig::for_arity(1) });
        assert!(!sequential.is_empty());
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(parallel.iter()) {
            assert_eq!((s.a, s.b), (p.a, p.b));
            assert_eq!(s.likelihood.to_bits(), p.likelihood.to_bits());
        }
        assert!(
            sequential.windows(2).all(|w| (w[0].a, w[0].b) < (w[1].a, w[1].b)),
            "output sorted and deduplicated"
        );
    }

    #[test]
    fn cross_join_excludes_same_side_pairs() {
        let ds = dataset(&["sony tv", "sony tv black", "sony tv", "other thing"], Some(2));
        let cfg = MatcherConfig { min_likelihood: 0.0, ..MatcherConfig::for_arity(1) };
        let cands = generate_candidates(&ds, &cfg);
        for c in &cands {
            assert!(
                ds.is_joinable(c.a as usize, c.b as usize),
                "same-side pair ({}, {}) emitted",
                c.a,
                c.b
            );
        }
        // (0,1) same side — excluded even though nearly identical.
        assert!(!cands.iter().any(|c| (c.a, c.b) == (0, 1)));
        // (0,2) crosses the split.
        assert!(cands.iter().any(|c| (c.a, c.b) == (0, 2)));
    }

    #[test]
    fn pruning_floor_applies() {
        let ds = dataset(&["a b c d e f g h", "a x y z w v u t"], None);
        let loose = MatcherConfig { min_likelihood: 0.0, ..MatcherConfig::for_arity(1) };
        let strict = MatcherConfig { min_likelihood: 0.9, ..MatcherConfig::for_arity(1) };
        assert_eq!(generate_candidates(&ds, &loose).len(), 1);
        assert!(generate_candidates(&ds, &strict).is_empty());
    }

    #[test]
    fn staged_pipeline_matches_one_shot() {
        let ds = dataset(&["sony tv", "sony tv black", "canon camera", "sony camera"], None);
        let cfg = MatcherConfig { min_likelihood: 0.0, ..MatcherConfig::for_arity(1) };
        let corpus = TokenizedCorpus::build(&ds);
        let index = TfIdfIndex::from_corpus(&corpus, &cfg.field_weights);
        let staged = generate_candidates_prepared(&ds, &corpus, &index, &cfg);
        let one_shot = generate_candidates(&ds, &cfg);
        assert_eq!(staged.len(), one_shot.len());
        for (s, o) in staged.iter().zip(one_shot.iter()) {
            assert_eq!((s.a, s.b), (o.a, o.b));
            assert_eq!(s.likelihood.to_bits(), o.likelihood.to_bits());
        }
    }

    #[test]
    fn duplicates_score_above_nonduplicates_on_generated_data() {
        use crowdjoin_records::{generate_paper, ClusterSpec, PaperGenConfig, PerturbConfig};
        let cfg = PaperGenConfig {
            num_records: 60,
            clusters: ClusterSpec::Explicit(vec![(4, 5)]),
            perturb: PerturbConfig::light(),
            sibling_probability: 0.0,
            seed: 33,
        };
        let ds = generate_paper(&cfg);
        let cands = generate_candidates(
            &ds,
            &MatcherConfig { min_likelihood: 0.0, ..MatcherConfig::for_arity(5) },
        );
        let mut match_scores = vec![];
        let mut nonmatch_scores = vec![];
        for c in &cands {
            if ds.is_true_match(c.a as usize, c.b as usize) {
                match_scores.push(c.likelihood);
            } else {
                nonmatch_scores.push(c.likelihood);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&match_scores) > mean(&nonmatch_scores) + 0.2,
            "matcher signal too weak: matches {:.3} vs non {:.3}",
            mean(&match_scores),
            mean(&nonmatch_scores)
        );
    }

    #[test]
    fn numeric_price_measure_sharpens_product_scores() {
        use crate::fields::{ExtraMeasure, FieldMeasure};
        let mut table =
            crowdjoin_records::Table::new(crowdjoin_records::Schema::new(vec!["name", "price"]));
        // Same listing at two retailers (price within 2%), and a different
        // product of the same line (price 4x apart).
        table.push(crowdjoin_records::Record::new(vec!["sony kd40 tv black", "499.99"]));
        table.push(crowdjoin_records::Record::new(vec!["sony kd40 tv", "489.99"]));
        table.push(crowdjoin_records::Record::new(vec!["sony kd40 tv black", "129.99"]));
        let ds = Dataset { table, entity_of: vec![0, 0, 1], split: None, name: "t".into() };
        let plain = MatcherConfig {
            min_likelihood: 0.0,
            field_weights: vec![1.0, 0.0],
            ..MatcherConfig::for_arity(2)
        };
        let priced = MatcherConfig {
            extra_measures: vec![ExtraMeasure {
                field: 1,
                measure: FieldMeasure::NumericRatio,
                weight: 1.0,
            }],
            ..plain.clone()
        };
        let score = |cfg: &MatcherConfig, a: u32, b: u32| {
            generate_candidates(&ds, cfg)
                .into_iter()
                .find(|c| (c.a, c.b) == (a, b))
                .map(|c| c.likelihood)
                .unwrap_or(0.0)
        };
        // Name-only scoring cannot separate (0,1) from (0,2): record 2 has
        // the *identical* name. The price measure must.
        assert!(score(&plain, 0, 2) >= score(&plain, 0, 1));
        let gap = score(&priced, 0, 1) - score(&priced, 0, 2);
        assert!(gap > 0.15, "price measure should separate: gap {gap}");
    }

    #[test]
    fn negative_tfidf_components_do_not_drop_candidates() {
        // Fractional field weights give price tokens tf 0.25, and
        // 1 + ln(0.25) < 0 — negative vector components. A pair whose dot
        // product is negative (cosine clamps to 0) but whose Jaccard alone
        // clears the floor must survive the verifier's cosine bound.
        // Regression: an unclamped `acc + suffix` bound went negative and
        // dropped such pairs.
        let mut table =
            crowdjoin_records::Table::new(crowdjoin_records::Schema::new(vec!["name", "price"]));
        table.push(crowdjoin_records::Record::new(vec!["black alpha beta gamma delta", "1254.88"]));
        table.push(crowdjoin_records::Record::new(vec!["black 1254 zeta eta theta", "999.99"]));
        // Filler records make "black" common (low idf) so the shared-name
        // contribution stays small against the negative "1254" product.
        for i in 0..6 {
            table.push(crowdjoin_records::Record::new(vec![
                match i {
                    0 => "black filler one",
                    1 => "black filler two",
                    2 => "black filler three",
                    3 => "black filler four",
                    4 => "black filler five",
                    _ => "black filler six",
                },
                "10.00",
            ]));
        }
        let n = table.len();
        let ds =
            Dataset { table, entity_of: (0..n as u32).collect(), split: None, name: "t".into() };
        let cfg = MatcherConfig {
            min_likelihood: 0.05,
            field_weights: vec![1.0, 0.25],
            ..MatcherConfig::for_arity(2)
        };
        let fast = generate_candidates(&ds, &cfg);
        let slow = generate_candidates_bruteforce(&ds, &cfg);
        assert!(
            slow.iter().any(|c| (c.a, c.b) == (0, 1)),
            "test setup: the oracle must emit the negative-dot pair"
        );
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(slow.iter()) {
            assert_eq!((f.a, f.b), (s.a, s.b));
            assert_eq!(f.likelihood.to_bits(), s.likelihood.to_bits());
        }
    }

    #[test]
    fn zero_weight_field_tokens_still_generate_candidates() {
        // Two records that only share a token in a zero-weight field: the
        // pair has cosine 0 but positive Jaccard, and the Jaccard join must
        // still discover it (the brute-force oracle emits it).
        let mut table =
            crowdjoin_records::Table::new(crowdjoin_records::Schema::new(vec!["name", "price"]));
        table.push(crowdjoin_records::Record::new(vec!["alpha beta", "499"]));
        table.push(crowdjoin_records::Record::new(vec!["gamma delta", "499"]));
        let ds = Dataset { table, entity_of: vec![0, 1], split: None, name: "t".into() };
        let cfg = MatcherConfig {
            min_likelihood: 0.05,
            field_weights: vec![1.0, 0.0],
            ..MatcherConfig::for_arity(2)
        };
        let fast = generate_candidates(&ds, &cfg);
        let slow = generate_candidates_bruteforce(&ds, &cfg);
        assert_eq!(fast.len(), slow.len());
        assert_eq!(fast.len(), 1, "price token \"499\" is shared: jac 1/5 = 0.2, blend 0.08");
        assert_eq!(fast[0].likelihood.to_bits(), slow[0].likelihood.to_bits());
    }

    #[test]
    #[should_panic(expected = "references field")]
    fn extra_measure_field_out_of_range_rejected() {
        use crate::fields::{ExtraMeasure, FieldMeasure};
        let ds = dataset(&["a"], None);
        let cfg = MatcherConfig {
            extra_measures: vec![ExtraMeasure {
                field: 5,
                measure: FieldMeasure::Exact,
                weight: 1.0,
            }],
            ..MatcherConfig::for_arity(1)
        };
        let _ = generate_candidates(&ds, &cfg);
    }

    #[test]
    #[should_panic(expected = "blend weight")]
    fn zero_blend_rejected() {
        let ds = dataset(&["a"], None);
        let cfg = MatcherConfig {
            min_likelihood: 0.1,
            cosine_weight: 0.0,
            jaccard_weight: 0.0,
            field_weights: vec![1.0],
            extra_measures: Vec::new(),
            threads: 0,
            block_records: 0,
        };
        let _ = generate_candidates(&ds, &cfg);
    }

    #[test]
    fn length_skewed_records_match_bruteforce() {
        // Wide size spread stresses the PPJoin length window: the short
        // records fall outside most long records' windows at 0.3, while
        // borderline sizes sit exactly on the t·|a| boundary. Output must
        // stay bit-identical to brute force at every floor.
        let names: Vec<String> = (0..80)
            .map(|i| {
                let len = 1 + (i * 7) % 23;
                (0..len).map(|j| format!("t{}", (i + j * 3) % 31)).collect::<Vec<_>>().join(" ")
            })
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let ds = dataset(&refs, None);
        for floor in [0.05, 0.25, 1.0 / 3.0, 0.5, 0.75] {
            let cfg = MatcherConfig { min_likelihood: floor, ..MatcherConfig::for_arity(1) };
            let fast = generate_candidates(&ds, &cfg);
            let slow = generate_candidates_bruteforce(&ds, &cfg);
            assert_eq!(fast.len(), slow.len(), "floor {floor}");
            for (f, s) in fast.iter().zip(slow.iter()) {
                assert_eq!((f.a, f.b), (s.a, s.b), "floor {floor}");
                assert_eq!(f.likelihood.to_bits(), s.likelihood.to_bits(), "floor {floor}");
            }
        }
    }
}
