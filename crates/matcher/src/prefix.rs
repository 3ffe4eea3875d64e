//! AllPairs/PPJoin-style prefix, positional, and length filtering for
//! candidate generation.
//!
//! The unfiltered inverted-index join scans the **full** posting list of
//! every token a record holds — effectively quadratic on common tokens. The
//! (crate-internal) `PrefixIndex` built here indexes only a provably
//! sufficient *prefix* of each record, so a probing record discovers every
//! pair that can still clear the matcher's pruning floor while skipping the
//! bulk of the common-token cross products. All posting lists live in
//! contiguous CSR arenas (one flat entry array per join plus a per-token
//! offset table) — a probe walks cache-line-dense slices instead of chasing
//! one heap allocation per token.
//!
//! # The filter-safety argument
//!
//! The matcher emits a candidate `(a, b)` when the records share ≥ 1 token
//! and their blended likelihood clears `min_likelihood`:
//!
//! ```text
//! likelihood = (wc·cos + wj·jac + Σᵢ wiᵢ·eᵢ) / W,   W = wc + wj + Σᵢ wiᵢ
//! ```
//!
//! with `cos`, `jac`, and every extra measure `eᵢ` in `[0, 1]`. Substituting
//! `eᵢ ≤ 1`, any qualifying pair satisfies `wc·cos + wj·jac ≥ S` where
//! `S = min_likelihood·W − Σᵢ wiᵢ`. A weighted average is at most its
//! maximum, so **every qualifying pair has `cos ≥ t` or `jac ≥ t`** for the
//! blended prefilter threshold
//!
//! ```text
//! t = S / (wc + wj)      (t ≤ min_likelihood ≤ 1)
//! ```
//!
//! Candidate generation therefore runs two prefix-filtered similarity joins
//! and unions their discoveries; each is individually lossless at
//! threshold `t`:
//!
//! * **Cosine join.** Record `b` stores its unit tf-idf vector sorted by
//!   descending weight and indexes the shortest prefix whose remaining tail
//!   has L2 norm `‖tail(b)‖ < t` (the tail norm is kept as `b`'s header
//!   `tail_norm`). For any probe `a` (also a unit vector),
//!   Cauchy–Schwarz bounds the tail's possible contribution:
//!   `Σ_{shared ∩ tail(b)} a_i·b_i ≤ ‖tail(b)‖ < t`. Hence if
//!   `cos(a, b) ≥ t`, the *indexed prefix* of `b` must contribute
//!   `cos − ‖tail(b)‖ > 0` — at least one shared token is indexed, and `a`
//!   (which probes with **all** of its tokens) touches `b`.
//! * **Jaccard join.** Record `b` orders its token set by the global token
//!   rank (ascending document frequency, ties by id) and indexes only its
//!   first `|b| − ⌈t·|b|⌉ + 1` tokens. If `jac(a, b) ≥ t` the pair shares
//!   `|a ∩ b| ≥ t·|a ∪ b| ≥ ⌈t·|b|⌉` tokens; were the indexed prefix
//!   overlap-free, all shared tokens would sit in the suffix, which holds
//!   only `⌈t·|b|⌉ − 1` tokens — contradiction. So at least one shared
//!   token is indexed, and the probe (which walks **all** of its tokens,
//!   in the same global rank order) touches `b`. Restricting the probe to
//!   its own prefix is also lossless (the symmetric pigeonhole), but it
//!   loosens the positional bound below so much that verification costs
//!   dwarf the scan savings — measured, not guessed — so the probe walks
//!   its full set.
//!
//! # Length filter (PPJoin size filter)
//!
//! `jac(a, b) ≤ min(|a|,|b|) / max(|a|,|b|)`, so a pair whose set sizes
//! violate `t·|a| ≤ |b| ≤ |a|/t` can never reach `jac ≥ t`. The Jaccard
//! scan therefore skips any posting entry failing that size window (each
//! entry carries `|b|` inline, so the check costs one compare and no
//! extra cache line). Losslessness is preserved because the skipped pair
//! can only qualify through `cos ≥ t`, and the cosine join — which has no
//! length filter — still discovers it. The same size predicate is
//! re-evaluated in the verifier (it depends only on `(|a|, |b|, t)`), so
//! the verifier knows the overlap counter for a length-filtered pair is
//! incomplete and falls back to the size-only bound and the exact merge
//! join for that pair.
//!
//! # Positional filter
//!
//! Both sides order tokens by the same global rank (document frequency
//! ascending, ties by token id): `b`'s indexed prefix is its lowest-rank
//! tokens, and the probe walks its full token set in that rank order. A
//! shared token is counted exactly when it is indexed, so every
//! *uncounted* shared token lives in `b`'s suffix — at most `b`'s header
//! `jac_cut` of them. Their probe positions are also constrained: a token
//! in `b`'s suffix outranks every indexed token of `b`, including the
//! highest-ranked counted match, so in the probe's rank order it can only
//! appear *after* that match. With `pos` = number of probe tokens consumed
//! up to and including the last counted match, the intersection is
//! bounded by
//!
//! ```text
//! |a ∩ b| ≤ cnt + min(jac_cut(b), |a| − pos)
//! ```
//!
//! which tightens the plain prefix bound exactly when the shared tokens
//! sit early in the probe's rank order (the common case: rare tokens are
//! what records genuinely share).
//!
//! # Cosine tail completion
//!
//! The cosine probe accumulates only *indexed* products, so a touched
//! pair's exact cosine seems to need a full merge join of the two tf-idf
//! vectors — and at scale almost every merge is wasted on pairs that then
//! fail the blend floor. Instead the index keeps each record's **unindexed
//! tail entries** `(token, weight)`, sorted by token id, in a second CSR
//! arena, and summarises them in the record's packed `RecordHeader`: the
//! tail's L2 norm (the Cauchy–Schwarz bound above) and a 64-bit **tail
//! signature** with one hashed bit (`sig_bit`) per tail token. The probe
//! builds the same signature over its own vector, so at verification time:
//!
//! * **Signatures disjoint** — no tail token of `b` can be in `a` (a shared
//!   token would set the same bit on both sides). The accumulator already
//!   received exactly the shared-token products, in ascending token-id
//!   order: the same f64 additions, in the same order, as the merge join
//!   (the merge's unshared tokens contribute exact `±0.0` products, which
//!   never change the sum's bits). `acc` *is* the merge cosine, bit for
//!   bit, and the tail is never read. A record with no tail has signature
//!   0, so this is also the fully-indexed case.
//! * **Signatures intersect** — a bit collision or a truly shared token.
//!   A pair that survives the Cauchy–Schwarz bound `acc + ‖tail(b)‖`
//!   walks `b`'s few tail entries, looking each up in the worker's dense *probe-weight map* (one `(weight, stamp)` slot per
//!   vocabulary token, stamped per probe, so it is reset in O(1) and a
//!   lookup is one load — no binary search over the probe's vector). If no
//!   tail token is shared, `acc` is again the merge cosine verbatim;
//!   otherwise `acc + Σ shared-tail products` equals the true cosine up to
//!   summation-order rounding (≪ the `1e-9` slack), so
//!   `acc + Σ + 1e-9` is a sound refined upper bound that prunes nearly
//!   every pair the full merge would reject; only survivors pay the exact
//!   merge (which then yields the bit-identical value).
//!
//! The header also carries the record's token-set size and Jaccard cut, so
//! the verifier's first bound reads one scratch slot and one header per
//! touched pair; `b`'s token set is read only when an exact Jaccard merge
//! runs.
//!
//! At 50k records / floor 0.3 this collapses exact cosine merges from
//! ~25 M to ~80 k while keeping output bit-identical to brute force.
//!
//! One sign subtlety: sublinear tf damping (`1 + ln(tf)`) makes tokens of
//! fractionally-weighted fields carry *negative* vector components, so a
//! pair's dot product can be negative (the cosine clamps at 0). The
//! Cauchy–Schwarz tail bound is sign-free, so discovery is unaffected; the
//! verifier's accumulator-derived cosine bound clamps at 0 before it enters
//! the blend bound.
//!
//! Floating-point safety: the thresholds used to *cut* prefixes and to
//! reject lengths are slacked by `1e-7` (`t_eff = t − 1e-7`, the length
//! window uses `t − 1e-7`, and `⌈(t − 1e-9)·|b|⌉` for the integer prefix),
//! and the accumulator-based cosine bound adds `1e-9` — orders of magnitude
//! above the worst-case rounding of these O(10)-term sums, so a borderline
//! pair is always *kept* and re-scored exactly, never dropped. The
//! positional and length filters reason over exact integers on top of those
//! slacked thresholds, so they introduce no new rounding surface.
//!
//! Degenerate blends stay lossless: when `t ≤ 0` (the extra measures alone
//! can reach the floor, or `wc = wj = 0`) the Jaccard join indexes every
//! token of every record with no length or positional filtering, which
//! rediscovers exactly the classic "shares ≥ 1 token" join.

use crate::block::{BlockMap, CascadePlan};
use crate::corpus::TokenizedCorpus;
use crate::tfidf::TfIdfIndex;

/// Slack subtracted from prefix-cut (and length-window) thresholds so float
/// rounding can only ever enlarge a prefix or widen the window, never drop
/// a qualifying pair.
pub(crate) const FILTER_SLACK: f64 = 1e-7;

/// Slack added to accumulator-derived cosine upper bounds.
pub(crate) const BOUND_SLACK: f64 = 1e-9;

/// The tail-signature bit of `token`: a Fibonacci hash of the id down to
/// one of 64 bits. Two records whose signatures share no bit share no
/// token; a shared bit may be a collision, so it only means "walk the
/// tail".
#[inline]
pub(crate) fn sig_bit(token: u32) -> u64 {
    1 << (u64::from(token).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

/// One record's verify-time metadata, packed so the verifier's first bound
/// reads a single 24-byte header per touched pair (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordHeader {
    /// L2 norm of the *unindexed* cosine tail: 0 when the whole vector is
    /// indexed, in particular whenever the cosine join is inactive.
    pub tail_norm: f64,
    /// OR of [`sig_bit`] over the unindexed cosine tail's tokens (0 when
    /// there is no tail).
    pub tail_sig: u64,
    /// Token-set size `|b|`.
    pub set_len: u32,
    /// How many of the record's tokens are *not* indexed in the Jaccard
    /// postings. A probe's per-token overlap counter plus this cut is an
    /// upper bound on the true intersection size; when the cut is 0 the
    /// counter is exact and the verifier skips the merge join entirely.
    /// `u32::MAX` marks un-indexed records (their counter never bounds
    /// anything and never claims exactness).
    pub jac_cut: u32,
}

/// Whether the Jaccard length (size) filter rejects a pair with token-set
/// sizes `la`, `lb` at the slacked threshold `t_len = t − 1e-7`: `jac ≤
/// min/max < t` whenever either size falls outside `[t·other, other/t]`.
/// Pure integer/f64 comparison — the probe scan and the verifier evaluate
/// it identically, so the verifier always knows whether the overlap
/// counter for a pair is complete.
#[inline]
pub(crate) fn length_filtered(t_len: f64, la: usize, lb: usize) -> bool {
    (lb as f64) < t_len * la as f64 || (la as f64) < t_len * lb as f64
}

/// Prefix-filtered posting lists for one candidate-generation run, stored
/// as CSR arenas: per join, one flat entry array plus a `vocab + 1` offset
/// table (token `t`'s postings span `bounds[t]..bounds[t+1]`).
///
/// Only *index-side* records appear in the postings: for a cross join the B
/// side (ids `split..n`, probed by every A record), for a self join all
/// records (a probe `a` slices each list to entries with id `> a`, so every
/// unordered pair is generated exactly once, from its smaller endpoint).
#[derive(Debug)]
pub(crate) struct PrefixIndex {
    /// Whether the cosine join runs (`wc > 0` and `t > 0`).
    pub cos_active: bool,
    /// Whether the Jaccard join runs *prefix-filtered* (`t > 0` and
    /// `wj > 0`); false for the lossless `t ≤ 0` fallback (full postings,
    /// no filters) and for `wj = 0` (no Jaccard join). The length and
    /// positional filters on top of the prefix are decided **per block** by
    /// [`Self::plan`].
    pub jac_filtered: bool,
    /// The slacked length-window threshold `t − 1e-7` (only meaningful when
    /// `jac_filtered`).
    pub t_len: f64,
    /// Id-range tiling of the index side (see [`crate::block`]).
    pub blocks: BlockMap,
    /// Per-block length/positional filter decisions (all off when
    /// `jac_filtered` is false).
    pub plan: CascadePlan,
    /// Per record: the packed verify-time header (tail norm, tail
    /// signature, set size, Jaccard cut).
    pub headers: Vec<RecordHeader>,
    /// Cosine prefix entries `(record, tf-idf weight)`, token-major,
    /// ascending by record id within a token.
    cos_entries: Vec<(u32, f32)>,
    /// `cos_entries` offsets, `vocab + 1` long.
    cos_bounds: Vec<u32>,
    /// Each indexed record's *unindexed* cosine tail — the `(token,
    /// weight)` vector entries behind the prefix cut, sorted by token id —
    /// record-major. The verifier walks them only when the probe's
    /// signature meets the record's `tail_sig`: if none is shared with the
    /// probe, the accumulator already *is* the exact merge cosine, and
    /// otherwise `acc + Σ shared-tail products` bounds it tightly enough to
    /// skip almost every full merge join.
    cos_tail_entries: Vec<(u32, f32)>,
    /// `cos_tail_entries` offsets, `n + 1` long.
    cos_tail_bounds: Vec<u32>,
    /// Jaccard prefix entries `(record, token-set size)`, token-major,
    /// ascending by record id within a token. The size rides inline so the
    /// length filter never leaves the posting cache line.
    jac_entries: Vec<(u32, u32)>,
    /// `jac_entries` offsets, `vocab + 1` long.
    jac_bounds: Vec<u32>,
    /// Probe-side token sets re-ordered by global rank (df ascending, ties
    /// by id) — the order the positional filter's `pos` counts over. Built
    /// only when some block enables the positional filter
    /// (`plan.any_pos`); record `a` spans
    /// `probe_bounds[a]..probe_bounds[a+1]`.
    probe_flat: Vec<u32>,
    /// `probe_flat` offsets, `probe_count + 1` long when built.
    probe_bounds: Vec<u32>,
}

/// Build-time knobs for [`PrefixIndex::build`] beyond the corpus and index
/// themselves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrefixParams {
    /// The blended prefilter threshold `t` (see the module docs); `t ≤ 0`
    /// is the lossless unfiltered fallback.
    pub threshold: f64,
    /// Whether the cosine similarity carries blend weight.
    pub cos_weight_positive: bool,
    /// Whether the Jaccard similarity carries blend weight.
    pub jac_weight_positive: bool,
    /// Cross-join split: `Some(s)` indexes only ids `s..n`.
    pub split: Option<usize>,
    /// Worker threads for the build (0 = one per core); output is identical
    /// for every value.
    pub threads: usize,
    /// Records per index-side block (0 = auto, see [`crate::block`]).
    pub block_records: usize,
}

/// Counting-sort record-major staged `(token, entry)` pairs into a
/// token-major CSR arena. Staging order is ascending record id, and the
/// fill is stable, so each token's slice ascends by record id.
fn csr_from_staged<E: Copy + Default>(vocab: usize, staged: &[(u32, E)]) -> (Vec<u32>, Vec<E>) {
    let mut bounds = vec![0u32; vocab + 1];
    for &(token, _) in staged {
        bounds[token as usize + 1] += 1;
    }
    for t in 0..vocab {
        bounds[t + 1] += bounds[t];
    }
    let mut cursor: Vec<u32> = bounds[..vocab].to_vec();
    let mut entries = vec![E::default(); staged.len()];
    for &(token, entry) in staged {
        let c = &mut cursor[token as usize];
        entries[*c as usize] = entry;
        *c += 1;
    }
    (bounds, entries)
}

impl PrefixIndex {
    /// Builds prefix-filtered postings for `params.threshold = t` over the
    /// index-side records, on up to `params.threads` workers.
    ///
    /// `jac_weight_positive` / `cos_weight_positive` say which similarity
    /// actually carries blend weight; a zero-weight side cannot make a pair
    /// qualify on its own, so its join is skipped (unless `t ≤ 0`, where the
    /// full Jaccard join is kept as the lossless fallback).
    ///
    /// Per-record prefix cuts are computed in parallel chunks whose staged
    /// entries are concatenated in chunk order — the exact sequence a
    /// sequential pass stages — and the counting sort into token-major
    /// arenas is order-preserving, so the built index is bit-identical for
    /// every thread count.
    pub fn build(corpus: &TokenizedCorpus, index: &TfIdfIndex, params: PrefixParams) -> Self {
        let n = corpus.num_records();
        let vocab = corpus.vocabulary_size();
        let threshold = params.threshold;
        let threads = params.threads;
        let index_start = params.split.unwrap_or(0);
        let filtered = threshold > 0.0;
        let cos_active = filtered && params.cos_weight_positive;
        let jac_active = !filtered || params.jac_weight_positive;
        let jac_filtered = filtered && jac_active;
        let t_len = threshold - FILTER_SLACK;
        let blocks = BlockMap::new(index_start, n, params.block_records);
        // Index-side records per parallel work unit.
        const CHUNK: usize = 1024;
        let index_len = n - index_start;

        // Un-indexed records keep a Jaccard cut of u32::MAX: their overlap
        // counter never bounds anything and never claims exactness.
        let mut headers: Vec<RecordHeader> = (0..n)
            .map(|b| RecordHeader {
                tail_norm: 0.0,
                tail_sig: 0,
                set_len: u32::try_from(corpus.token_set(b).len()).expect("token set overflow"),
                jac_cut: u32::MAX,
            })
            .collect();
        // Entries are staged record-major (the natural build order) and
        // counting-sorted into the token-major arena afterwards.
        let mut cos_staged: Vec<(u32, (u32, f32))> = Vec::new();
        let mut cos_tail_entries: Vec<(u32, f32)> = Vec::new();
        let mut cos_tail_bounds: Vec<u32> = vec![0; n + 1];
        if cos_active {
            let t_eff = threshold - FILTER_SLACK;
            let chunks = crate::par::map_chunks(index_len, CHUNK, threads, |range| {
                let mut suffix: Vec<(f64, u64)> = Vec::with_capacity(range.len());
                let mut staged: Vec<(u32, (u32, f32))> = Vec::new();
                let mut tails_flat: Vec<(u32, f32)> = Vec::new();
                let mut tail_lens: Vec<u32> = Vec::with_capacity(range.len());
                let mut order: Vec<(u32, f32)> = Vec::new();
                let mut tails: Vec<f64> = Vec::new();
                for b in range.start + index_start..range.end + index_start {
                    order.clear();
                    order.extend_from_slice(index.vector(b as u32));
                    // Heaviest tokens first (by magnitude — sublinear tf
                    // damping can make fractionally-weighted components
                    // negative); ties broken by id for determinism.
                    order.sort_unstable_by(|x, y| {
                        y.1.abs()
                            .partial_cmp(&x.1.abs())
                            .expect("finite weights")
                            .then(x.0.cmp(&y.0))
                    });
                    tails.clear();
                    tails.resize(order.len() + 1, 0.0);
                    for i in (0..order.len()).rev() {
                        tails[i] = tails[i + 1] + order[i].1 as f64 * order[i].1 as f64;
                    }
                    let prefix =
                        (0..=order.len()).find(|&p| tails[p].sqrt() < t_eff).unwrap_or(order.len());
                    for &(token, w) in &order[..prefix] {
                        staged.push((token, (b as u32, w)));
                    }
                    // Stash the unindexed tail sorted by token id (the
                    // verifier sums shared-tail products in that order).
                    let tail_start = tails_flat.len();
                    tails_flat.extend_from_slice(&order[prefix..]);
                    tails_flat[tail_start..].sort_unstable_by_key(|e| e.0);
                    let sig = order[prefix..].iter().fold(0, |sig, e| sig | sig_bit(e.0));
                    suffix.push((tails[prefix].sqrt(), sig));
                    tail_lens.push(
                        u32::try_from(tails_flat.len() - tail_start).expect("cos tail overflow"),
                    );
                }
                (suffix, staged, tails_flat, tail_lens)
            });
            let mut b = index_start;
            for (suffix, staged, tails_flat, tail_lens) in chunks {
                for ((norm, sig), len) in suffix.into_iter().zip(tail_lens) {
                    headers[b].tail_norm = norm;
                    headers[b].tail_sig = sig;
                    cos_tail_bounds[b + 1] =
                        cos_tail_bounds[b].checked_add(len).expect("cos tail arena overflow");
                    b += 1;
                }
                cos_staged.extend_from_slice(&staged);
                cos_tail_entries.extend_from_slice(&tails_flat);
            }
            // Records before `index_start` (cross-join A side) keep empty
            // tails; the zero-initialized offsets are already monotone.
        }
        let (cos_bounds, cos_entries) = csr_from_staged(vocab, &cos_staged);
        drop(cos_staged);

        let mut jac_staged: Vec<(u32, (u32, u32))> = Vec::new();
        let df = if jac_active { corpus.set_doc_freq() } else { Vec::new() };
        if jac_active {
            let chunks = crate::par::map_chunks(index_len, CHUNK, threads, |range| {
                let mut cuts: Vec<u32> = Vec::with_capacity(range.len());
                let mut staged: Vec<(u32, (u32, u32))> = Vec::new();
                let mut order: Vec<u32> = Vec::new();
                for b in range.start + index_start..range.end + index_start {
                    let set = corpus.token_set(b);
                    if set.is_empty() {
                        cuts.push(u32::MAX);
                        continue;
                    }
                    let prefix = if filtered {
                        let required =
                            ((threshold - BOUND_SLACK) * set.len() as f64).ceil() as usize;
                        if required < 1 {
                            set.len()
                        } else {
                            set.len() - required + 1
                        }
                    } else {
                        set.len()
                    };
                    cuts.push((set.len() - prefix) as u32);
                    order.clear();
                    order.extend_from_slice(set);
                    // Global rank order: rarest first, ties by id. The
                    // prefix *size* alone carries the prefix-filter
                    // argument; the *order* is what the positional filter
                    // reasons over (the probe walks its tokens in the same
                    // rank order).
                    order.sort_unstable_by_key(|&t| (df[t as usize], t));
                    let len = set.len() as u32;
                    for &token in &order[..prefix] {
                        staged.push((token, (b as u32, len)));
                    }
                }
                (cuts, staged)
            });
            let mut b = index_start;
            for (cuts, staged) in chunks {
                for cut in cuts {
                    headers[b].jac_cut = cut;
                    b += 1;
                }
                jac_staged.extend_from_slice(&staged);
            }
        }
        let (jac_bounds, jac_entries) = csr_from_staged(vocab, &jac_staged);
        drop(jac_staged);

        // The adaptive cascade: per-block length/positional decisions from
        // df/size statistics (see `crate::block` for the cost model). All
        // off in the t ≤ 0 fallback — its postings are unfiltered.
        let probe_count = params.split.unwrap_or(n);
        let plan = if jac_filtered {
            CascadePlan::compute(&blocks, corpus, &headers, probe_count, t_len)
        } else {
            CascadePlan::all_off(blocks.num_blocks())
        };
        let len_blocks = plan.len_on.iter().filter(|&&x| x).count();
        let pos_blocks = plan.pos_on.iter().filter(|&&x| x).count();
        crowdjoin_obs::counter("matcher.blocks", crowdjoin_obs::NO_SHARD)
            .add(blocks.num_blocks() as u64);
        crowdjoin_obs::counter("matcher.blocks.len_on", crowdjoin_obs::NO_SHARD)
            .add(len_blocks as u64);
        crowdjoin_obs::counter("matcher.blocks.pos_on", crowdjoin_obs::NO_SHARD)
            .add(pos_blocks as u64);

        // Probe-side rank-ordered token lists — needed only when some block
        // tracks the positional cursor (the t ≤ 0 fallback, cosine-only
        // blends, and pos-off cascades scan sets in id order).
        let mut probe_flat: Vec<u32> = Vec::new();
        let mut probe_bounds: Vec<u32> = Vec::new();
        if plan.any_pos {
            let chunks = crate::par::map_chunks(probe_count, CHUNK, threads, |range| {
                let mut flat: Vec<u32> = Vec::new();
                let mut lens: Vec<u32> = Vec::with_capacity(range.len());
                let mut order: Vec<u32> = Vec::new();
                for a in range {
                    order.clear();
                    order.extend_from_slice(corpus.token_set(a));
                    order.sort_unstable_by_key(|&t| (df[t as usize], t));
                    flat.extend_from_slice(&order);
                    lens.push(u32::try_from(order.len()).expect("probe arena overflow"));
                }
                (flat, lens)
            });
            probe_bounds.reserve(probe_count + 1);
            probe_bounds.push(0);
            for (flat, lens) in chunks {
                probe_flat.extend_from_slice(&flat);
                for len in lens {
                    let end = probe_bounds
                        .last()
                        .expect("non-empty bounds")
                        .checked_add(len)
                        .expect("probe arena overflow");
                    probe_bounds.push(end);
                }
            }
        }

        Self {
            cos_active,
            jac_filtered,
            t_len,
            blocks,
            plan,
            headers,
            cos_entries,
            cos_bounds,
            cos_tail_entries,
            cos_tail_bounds,
            jac_entries,
            jac_bounds,
            probe_flat,
            probe_bounds,
        }
    }

    /// Record `b`'s unindexed cosine tail entries `(token, weight)`,
    /// sorted by token id. Empty when `b`'s whole vector is indexed (and
    /// for all records when the cosine join is inactive).
    #[inline]
    pub fn cos_tail(&self, b: u32) -> &[(u32, f32)] {
        let b = b as usize;
        &self.cos_tail_entries
            [self.cos_tail_bounds[b] as usize..self.cos_tail_bounds[b + 1] as usize]
    }

    /// Probe record `a`'s token set in global rank order (only built when
    /// some block enables the positional filter, `plan.any_pos`).
    #[inline]
    pub fn probe_tokens(&self, a: u32) -> &[u32] {
        let a = a as usize;
        &self.probe_flat[self.probe_bounds[a] as usize..self.probe_bounds[a + 1] as usize]
    }

    /// Arena index range `[lo, hi)` of `token`'s cosine postings — the
    /// blocked kernel keeps raw cursors into the arena so a token's list
    /// can be consumed block by block. `(0, 0)` for unknown tokens.
    #[inline]
    pub fn cos_range(&self, token: u32) -> (u32, u32) {
        let t = token as usize;
        if t + 1 >= self.cos_bounds.len() {
            return (0, 0);
        }
        (self.cos_bounds[t], self.cos_bounds[t + 1])
    }

    /// Arena index range `[lo, hi)` of `token`'s Jaccard postings; `(0, 0)`
    /// for unknown tokens.
    #[inline]
    pub fn jac_range(&self, token: u32) -> (u32, u32) {
        let t = token as usize;
        if t + 1 >= self.jac_bounds.len() {
            return (0, 0);
        }
        (self.jac_bounds[t], self.jac_bounds[t + 1])
    }

    /// The full cosine posting arena (indexed by [`Self::cos_range`]
    /// cursors).
    #[inline]
    pub fn cos_arena(&self) -> &[(u32, f32)] {
        &self.cos_entries
    }

    /// The full Jaccard posting arena (indexed by [`Self::jac_range`]
    /// cursors).
    #[inline]
    pub fn jac_arena(&self) -> &[(u32, u32)] {
        &self.jac_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdjoin_records::{Dataset, Record, Schema, Table};

    fn dataset(names: &[&str]) -> Dataset {
        let mut table = Table::new(Schema::new(vec!["name"]));
        for n in names {
            table.push(Record::new(vec![*n]));
        }
        let n = table.len();
        Dataset { table, entity_of: (0..n as u32).collect(), split: None, name: "t".into() }
    }

    fn build(
        corpus: &TokenizedCorpus,
        index: &TfIdfIndex,
        threshold: f64,
        split: Option<usize>,
    ) -> PrefixIndex {
        PrefixIndex::build(
            corpus,
            index,
            PrefixParams {
                threshold,
                cos_weight_positive: true,
                jac_weight_positive: true,
                split,
                threads: 1,
                block_records: 0,
            },
        )
    }

    fn cos_postings(pf: &PrefixIndex, token: u32) -> &[(u32, f32)] {
        let (lo, hi) = pf.cos_range(token);
        &pf.cos_arena()[lo as usize..hi as usize]
    }

    fn jac_postings(pf: &PrefixIndex, token: u32) -> &[(u32, u32)] {
        let (lo, hi) = pf.jac_range(token);
        &pf.jac_arena()[lo as usize..hi as usize]
    }

    fn jac_total(pf: &PrefixIndex, vocab: usize) -> usize {
        (0..vocab as u32).map(|t| jac_postings(pf, t).len()).sum()
    }

    fn cos_total(pf: &PrefixIndex, vocab: usize) -> usize {
        (0..vocab as u32).map(|t| cos_postings(pf, t).len()).sum()
    }

    #[test]
    fn inactive_threshold_indexes_everything_via_jaccard() {
        let ds = dataset(&["sony tv", "sony camera"]);
        let corpus = TokenizedCorpus::build(&ds);
        let index = TfIdfIndex::from_corpus(&corpus, &[1.0]);
        let pf = build(&corpus, &index, 0.0, None);
        assert!(!pf.cos_active);
        assert!(!pf.jac_filtered, "t = 0 is the unfiltered fallback");
        assert_eq!(jac_total(&pf, corpus.vocabulary_size()), 4, "every token indexed");
    }

    #[test]
    fn high_threshold_shrinks_postings() {
        let ds = dataset(&[
            "tv common alpha",
            "tv common beta",
            "tv common gamma",
            "tv common delta",
            "tv common epsilon",
        ]);
        let corpus = TokenizedCorpus::build(&ds);
        let index = TfIdfIndex::from_corpus(&corpus, &[1.0]);
        let vocab = corpus.vocabulary_size();
        let loose = build(&corpus, &index, 0.05, None);
        let tight = build(&corpus, &index, 0.9, None);
        assert!(jac_total(&tight, vocab) < jac_total(&loose, vocab));
        assert!(cos_total(&tight, vocab) < cos_total(&loose, vocab));
        // The tight index leaves a positive tail bound on at least one record.
        assert!(tight.headers.iter().any(|h| h.tail_norm > 0.0));
    }

    #[test]
    fn cos_tail_is_the_id_sorted_complement_of_the_indexed_prefix() {
        let ds = dataset(&[
            "tv common alpha",
            "tv common beta",
            "tv common gamma",
            "tv common delta",
            "tv common epsilon",
        ]);
        let corpus = TokenizedCorpus::build(&ds);
        let index = TfIdfIndex::from_corpus(&corpus, &[1.0]);
        let pf = build(&corpus, &index, 0.9, None);
        let mut any_tail = false;
        for b in 0..corpus.num_records() as u32 {
            let tail = pf.cos_tail(b);
            any_tail |= !tail.is_empty();
            assert!(tail.windows(2).all(|w| w[0].0 < w[1].0), "tail sorted by id: {tail:?}");
            let sig = tail.iter().fold(0, |sig, e| sig | sig_bit(e.0));
            assert_eq!(pf.headers[b as usize].tail_sig, sig, "record {b}: one bit per tail token");
            assert_eq!(pf.headers[b as usize].tail_norm == 0.0, tail.is_empty(), "record {b}");
            // Indexed prefix entries ∪ tail entries = the full vector.
            let mut rebuilt: Vec<(u32, f32)> = tail.to_vec();
            for t in 0..corpus.vocabulary_size() as u32 {
                for &(r, w) in cos_postings(&pf, t) {
                    if r == b {
                        rebuilt.push((t, w));
                    }
                }
            }
            rebuilt.sort_unstable_by_key(|e| e.0);
            assert_eq!(rebuilt, index.vector(b), "record {b}");
        }
        assert!(any_tail, "threshold 0.9 must cut at least one vector");
    }

    #[test]
    fn cross_join_indexes_only_the_b_side() {
        let mut table = Table::new(Schema::new(vec!["name"]));
        for n in ["left one", "left two", "right one", "right two"] {
            table.push(Record::new(vec![n]));
        }
        let ds = Dataset { table, entity_of: vec![0, 1, 2, 3], split: Some(2), name: "t".into() };
        let corpus = TokenizedCorpus::build(&ds);
        let index = TfIdfIndex::from_corpus(&corpus, &[1.0]);
        let pf = build(&corpus, &index, 0.05, Some(2));
        for t in 0..corpus.vocabulary_size() as u32 {
            assert!(jac_postings(&pf, t).iter().all(|&(r, _)| r >= 2), "A-side record indexed");
            assert!(cos_postings(&pf, t).iter().all(|&(r, _)| r >= 2));
        }
    }

    #[test]
    fn postings_ascend_by_record_id() {
        let ds = dataset(&["a b c", "a b d", "a c d", "b c d", "a b c d"]);
        let corpus = TokenizedCorpus::build(&ds);
        let index = TfIdfIndex::from_corpus(&corpus, &[1.0]);
        let pf = build(&corpus, &index, 0.3, None);
        for t in 0..corpus.vocabulary_size() as u32 {
            let jac = jac_postings(&pf, t);
            assert!(jac.windows(2).all(|w| w[0].0 < w[1].0), "{jac:?}");
            let cos = cos_postings(&pf, t);
            assert!(cos.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn jac_postings_carry_the_token_set_size() {
        let ds = dataset(&["a b c", "a b", "a"]);
        let corpus = TokenizedCorpus::build(&ds);
        let index = TfIdfIndex::from_corpus(&corpus, &[1.0]);
        let pf = build(&corpus, &index, 0.3, None);
        for t in 0..corpus.vocabulary_size() as u32 {
            for &(b, len) in jac_postings(&pf, t) {
                assert_eq!(len as usize, corpus.token_set(b as usize).len());
            }
        }
    }

    #[test]
    fn probe_order_is_a_rank_sorted_permutation() {
        // Long records so the cascade's cost model genuinely enables the
        // positional filter (mean merge length ≥ POS_MIN_MERGE_LEN) — the
        // rank-ordered probe lists are only built when some block does.
        let names: Vec<String> = (0..12)
            .map(|i| {
                (0..18).map(|j| format!("t{}", (i * 5 + j) % 40)).collect::<Vec<_>>().join(" ")
            })
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let ds = dataset(&refs);
        let corpus = TokenizedCorpus::build(&ds);
        let index = TfIdfIndex::from_corpus(&corpus, &[1.0]);
        let pf = build(&corpus, &index, 0.3, None);
        assert!(pf.jac_filtered);
        assert!(pf.plan.any_pos, "long sets must enable the positional filter");
        let df = corpus.set_doc_freq();
        for a in 0..corpus.num_records() {
            let probe = pf.probe_tokens(a as u32);
            let mut sorted = probe.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, corpus.token_set(a), "permutation of the token set");
            assert!(
                probe.windows(2).all(|w| (df[w[0] as usize], w[0]) < (df[w[1] as usize], w[1])),
                "rank order (df, id): {probe:?}"
            );
        }
    }

    #[test]
    fn empty_corpus_probe_does_not_panic() {
        // Regression: the offset tables of an empty corpus are one entry
        // long (`[0]`), so probing *any* token indexed `bounds[t + 1]` out
        // of range — the degenerate `t ≤ 0` path hit it first because it
        // indexes every token and the streaming layer probes before the
        // first record is indexed. Unknown tokens must report no postings.
        let ds = dataset(&[]);
        let corpus = TokenizedCorpus::build(&ds);
        let index = TfIdfIndex::from_corpus(&corpus, &[1.0]);
        for threshold in [0.0, -0.5, 0.3] {
            let pf = build(&corpus, &index, threshold, None);
            assert!(jac_postings(&pf, 0).is_empty(), "threshold {threshold}");
            assert!(cos_postings(&pf, 0).is_empty(), "threshold {threshold}");
            assert!(jac_postings(&pf, 17).is_empty());
            assert!(cos_postings(&pf, 17).is_empty());
        }
    }

    #[test]
    fn probe_with_tokens_beyond_the_indexed_vocabulary_sees_no_postings() {
        // A streaming probe can carry tokens interned *after* the index was
        // built; they must behave as "no postings", not panic.
        let ds = dataset(&["sony tv", "sony camera"]);
        let corpus = TokenizedCorpus::build(&ds);
        let index = TfIdfIndex::from_corpus(&corpus, &[1.0]);
        let pf = build(&corpus, &index, 0.3, None);
        let beyond = corpus.vocabulary_size() as u32 + 5;
        assert!(jac_postings(&pf, beyond).is_empty());
        assert!(cos_postings(&pf, beyond).is_empty());
    }

    #[test]
    fn threaded_build_is_bit_identical_to_serial() {
        // > 1024 index records so build chunks are genuinely crossed; mixed
        // record lengths exercise prefix cuts, tails, and the cascade.
        let names: Vec<String> = (0..2600)
            .map(|i| {
                let len = 1 + (i * 7) % 29;
                (0..len).map(|j| format!("t{}", (i + j * 3) % 211)).collect::<Vec<_>>().join(" ")
            })
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let ds = dataset(&refs);
        let corpus = TokenizedCorpus::build(&ds);
        let index = TfIdfIndex::from_corpus(&corpus, &[1.0]);
        let params = PrefixParams {
            threshold: 0.35,
            cos_weight_positive: true,
            jac_weight_positive: true,
            split: None,
            threads: 1,
            block_records: 0,
        };
        let serial = PrefixIndex::build(&corpus, &index, params);
        for threads in [2, 4] {
            let par = PrefixIndex::build(&corpus, &index, PrefixParams { threads, ..params });
            assert_eq!(par.cos_bounds, serial.cos_bounds, "threads {threads}");
            assert_eq!(par.cos_tail_bounds, serial.cos_tail_bounds);
            assert_eq!(par.jac_bounds, serial.jac_bounds);
            assert_eq!(par.headers.len(), serial.headers.len());
            for (p, s) in par.headers.iter().zip(serial.headers.iter()) {
                assert_eq!(
                    (p.tail_norm.to_bits(), p.tail_sig, p.set_len, p.jac_cut),
                    (s.tail_norm.to_bits(), s.tail_sig, s.set_len, s.jac_cut)
                );
            }
            assert_eq!(par.probe_bounds, serial.probe_bounds);
            assert_eq!(par.probe_flat, serial.probe_flat);
            assert_eq!(par.plan.len_on, serial.plan.len_on);
            assert_eq!(par.plan.pos_on, serial.plan.pos_on);
            assert_eq!(par.cos_entries.len(), serial.cos_entries.len());
            for (p, s) in par.cos_entries.iter().zip(serial.cos_entries.iter()) {
                assert_eq!((p.0, p.1.to_bits()), (s.0, s.1.to_bits()));
            }
            for (p, s) in par.cos_tail_entries.iter().zip(serial.cos_tail_entries.iter()) {
                assert_eq!((p.0, p.1.to_bits()), (s.0, s.1.to_bits()));
            }
            assert_eq!(par.jac_entries, serial.jac_entries);
        }
    }

    #[test]
    fn length_filter_window_is_slacked_and_symmetric() {
        // t = 0.5: sizes 4 and 2 sit exactly on the boundary (2 = 0.5·4);
        // the slack keeps the boundary pair, as losslessness demands.
        let t_len = 0.5 - FILTER_SLACK;
        assert!(!length_filtered(t_len, 4, 2));
        assert!(!length_filtered(t_len, 2, 4));
        assert!(length_filtered(t_len, 5, 2), "2 < 0.5·5 is out of the window");
        assert!(length_filtered(t_len, 2, 5));
        // A non-positive threshold never rejects (the t ≤ 0 fallback).
        assert!(!length_filtered(-0.1, 100, 1));
    }
}
