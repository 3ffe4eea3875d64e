//! Id-range blocking of the index side plus the adaptive filter cascade.
//!
//! # Why blocks
//!
//! The probe kernel accumulates into dense scratch arrays indexed by record
//! id. Unblocked, those arrays span the whole index side — ~20 MB at 1M
//! records — so at scale nearly every posting entry touches a cold cache
//! line (stamp + accumulator + counter), and the verify pass re-misses on
//! the per-record metadata. A [`BlockMap`] tiles the index-side id range
//! into fixed-size blocks; the kernel visits one block at a time with
//! scratch sized to the *block*, which keeps the entire working set
//! L2-resident.
//!
//! # Why id-range blocking is lossless
//!
//! Blocking here never drops pairs: the blocks partition the index-side id
//! range, every posting list is stored ascending by record id, and the
//! kernel advances a cursor per probe-token list through consecutive
//! blocks. Each posting entry is therefore scanned exactly once, in the
//! same per-pair order as the unblocked scan (a pair's postings all live in
//! the single block owning `b`, and within a block the token lists are
//! walked in the same order as before) — so the accumulated cosine, overlap
//! counter, and positional cursor are bit-identical per pair, and the
//! emitted candidates are identical. Contrast with *token* blocking (e.g.
//! canopies keyed by rare prefix tokens): that would split one pair's
//! postings across blocks and break the single-accumulation-order argument,
//! or drop pairs outright. One block spanning the whole index side is the
//! exact unblocked kernel, so both regimes share one code path.
//!
//! # The adaptive filter cascade
//!
//! PR 7's positional + length filters are *lossless but not free*: each
//! filtered posting entry pays a compare (length) or an extra store
//! (positional), and what they buy — skipped scratch touches and pruned
//! exact-Jaccard merges — depends on the workload. The 100k product
//! workload showed the positional filter as a net regression
//! (`positional_filter_speedup: 0.59`): short token sets make the exact
//! merges it prunes cheap, so the bookkeeping outweighs the savings. A
//! [`CascadePlan`] decides **per block**, from df/size statistics available
//! before any probing:
//!
//! * **Length filter** (`len_on`): on when the estimated fraction of the
//!   block's posting entries outside the PPJoin size window — computed from
//!   the probe-side size histogram × the block's entry-weighted size
//!   histogram — is at least [`LEN_MIN_SKIP`]. Skipping entries is the
//!   filter's only payoff; if (almost) nothing is skipped it only costs.
//! * **Positional filter** (`pos_on`): on when the mean probe-set size plus
//!   the block's mean (entry-weighted) set size reaches
//!   [`POS_MIN_MERGE_LEN`] — i.e. when the exact merges the tighter bound
//!   prunes are expensive enough to pay for the per-entry position store
//!   and the rank-ordered probe walk.
//!
//! Both filters are output-invariant (the verifier re-derives each block's
//! decisions exactly, and every emitted likelihood is computed by the same
//! exact formulas either way), so the cascade changes wall-clock only,
//! never the candidate set — the equivalence suite pins this across forced
//! block sizes.

use crate::corpus::TokenizedCorpus;
use crate::prefix::RecordHeader;

/// Auto block size: scratch (one 24 B slot per record) plus the block's
/// 24 B verify headers stay comfortably inside a typical L2.
pub(crate) const AUTO_BLOCK_RECORDS: usize = 8192;

/// Auto mode keeps a single block (the exact unblocked kernel) below this
/// index-side size — the whole scratch already fits in cache, and one block
/// skips the per-block cursor bookkeeping.
pub(crate) const UNBLOCKED_MAX: usize = 16384;

/// Minimum estimated skipped-entry fraction for the length filter to pay
/// for itself in a block.
pub(crate) const LEN_MIN_SKIP: f64 = 0.05;

/// Minimum mean merge length (probe mean + block mean set size) for the
/// positional filter's pruned merges to pay for its per-entry bookkeeping.
pub(crate) const POS_MIN_MERGE_LEN: f64 = 24.0;

/// Size-histogram bucket count for the length-filter estimate; set sizes
/// at or above the cap share the last bucket.
const HIST_BUCKETS: usize = 128;

/// Fixed-size tiling of the index-side record id range `[index_start,
/// index_end)`. Probe-side records (a cross join's A side) are never
/// blocked — they are walked one at a time anyway.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockMap {
    pub index_start: u32,
    pub index_end: u32,
    /// Records per block, ≥ 1.
    pub block_records: u32,
}

impl BlockMap {
    /// Builds the tiling for `requested` records per block (0 = auto: one
    /// block up to [`UNBLOCKED_MAX`] index records, [`AUTO_BLOCK_RECORDS`]
    /// beyond).
    pub fn new(index_start: usize, index_end: usize, requested: usize) -> Self {
        let len = index_end.saturating_sub(index_start);
        let block_records = match requested {
            0 if len <= UNBLOCKED_MAX => len.max(1),
            0 => AUTO_BLOCK_RECORDS,
            r => r.min(len.max(1)),
        };
        Self {
            index_start: u32::try_from(index_start).expect("index range overflow"),
            index_end: u32::try_from(index_end).expect("index range overflow"),
            block_records: u32::try_from(block_records).expect("block size overflow"),
        }
    }

    /// Number of blocks (0 for an empty index side).
    pub fn num_blocks(&self) -> usize {
        (self.index_end - self.index_start).div_ceil(self.block_records) as usize
    }

    /// The block owning index-side record `id`.
    #[inline]
    pub fn block_of(&self, id: u32) -> usize {
        debug_assert!(id >= self.index_start && id < self.index_end);
        ((id - self.index_start) / self.block_records) as usize
    }

    /// Record-id range `[lo, hi)` of block `k`.
    #[inline]
    pub fn range(&self, k: usize) -> (u32, u32) {
        let lo = self.index_start + k as u32 * self.block_records;
        (lo, (lo + self.block_records).min(self.index_end))
    }

    /// Scratch slots needed to hold any one block.
    pub fn scratch_len(&self) -> usize {
        (self.block_records as usize).min((self.index_end - self.index_start) as usize)
    }
}

/// Per-block filter decisions (see the module docs for the cost model).
#[derive(Debug)]
pub(crate) struct CascadePlan {
    /// Whether block `k`'s Jaccard scan applies the length (size-window)
    /// filter.
    pub len_on: Vec<bool>,
    /// Whether block `k`'s Jaccard scan tracks the positional cursor.
    pub pos_on: Vec<bool>,
    /// `pos_on.iter().any()` — when false, the rank-ordered probe lists are
    /// never needed and are not built.
    pub any_pos: bool,
}

impl CascadePlan {
    /// Everything off — the `t ≤ 0` unfiltered fallback (and inactive
    /// Jaccard joins).
    pub fn all_off(num_blocks: usize) -> Self {
        Self { len_on: vec![false; num_blocks], pos_on: vec![false; num_blocks], any_pos: false }
    }

    /// Cost-model decisions for a filtered Jaccard join at the slacked
    /// length threshold `t_len`, from df/size statistics only (no probing):
    /// the probe-side set-size histogram and, per block, the posting-entry-
    /// weighted set-size histogram of its indexed records (each header's
    /// `set_len − jac_cut` is the record's indexed-prefix size; a cut of
    /// `u32::MAX` marks un-indexed records, which contribute no entries).
    pub fn compute(
        blocks: &BlockMap,
        corpus: &TokenizedCorpus,
        headers: &[RecordHeader],
        probe_count: usize,
        t_len: f64,
    ) -> Self {
        let num_blocks = blocks.num_blocks();
        let bucket = |len: usize| len.min(HIST_BUCKETS - 1);
        let mut probe_hist = [0u64; HIST_BUCKETS];
        let mut probe_len_sum = 0u64;
        let mut probe_records = 0u64;
        for a in 0..probe_count {
            let la = corpus.token_set(a).len();
            if la == 0 {
                continue;
            }
            probe_hist[bucket(la)] += 1;
            probe_len_sum += la as u64;
            probe_records += 1;
        }
        let mean_probe_len =
            if probe_records == 0 { 0.0 } else { probe_len_sum as f64 / probe_records as f64 };

        let mut len_on = vec![false; num_blocks];
        let mut pos_on = vec![false; num_blocks];
        let mut block_hist = [0u64; HIST_BUCKETS];
        for k in 0..num_blocks {
            let (lo, hi) = blocks.range(k);
            block_hist.fill(0);
            let mut entry_len_sum = 0u64;
            let mut entries = 0u64;
            for h in &headers[lo as usize..hi as usize] {
                if h.jac_cut == u32::MAX {
                    continue;
                }
                let lb = h.set_len as usize;
                let prefix = u64::from(h.set_len - h.jac_cut);
                block_hist[bucket(lb)] += prefix;
                entry_len_sum += lb as u64 * prefix;
                entries += prefix;
            }
            if entries == 0 || probe_records == 0 {
                continue;
            }
            // Estimated fraction of this block's posting entries a typical
            // probe's length filter would skip: probe sizes × entry sizes,
            // both from histograms (bucket index ≈ the size itself below
            // the cap, so the window predicate is evaluated on the real
            // sizes for all but the longest records).
            let mut skipped = 0.0f64;
            let total = probe_records as f64 * entries as f64;
            for (la, &pa) in probe_hist.iter().enumerate() {
                if pa == 0 {
                    continue;
                }
                for (lb, &qb) in block_hist.iter().enumerate() {
                    if qb != 0 && crate::prefix::length_filtered(t_len, la, lb) {
                        skipped += pa as f64 * qb as f64;
                    }
                }
            }
            len_on[k] = skipped / total >= LEN_MIN_SKIP;
            let mean_block_len = entry_len_sum as f64 / entries as f64;
            pos_on[k] = mean_probe_len + mean_block_len >= POS_MIN_MERGE_LEN;
        }
        let any_pos = pos_on.iter().any(|&p| p);
        Self { len_on, pos_on, any_pos }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdjoin_records::{Dataset, Record, Schema, Table};

    #[test]
    fn auto_sizing_keeps_small_inputs_unblocked() {
        let small = BlockMap::new(0, 5000, 0);
        assert_eq!(small.num_blocks(), 1);
        assert_eq!(small.scratch_len(), 5000);
        let large = BlockMap::new(0, 100_000, 0);
        assert_eq!(large.block_records as usize, AUTO_BLOCK_RECORDS);
        assert_eq!(large.num_blocks(), 100_000usize.div_ceil(AUTO_BLOCK_RECORDS));
        assert_eq!(large.scratch_len(), AUTO_BLOCK_RECORDS);
    }

    #[test]
    fn blocks_tile_the_index_range_exactly() {
        let map = BlockMap::new(3, 50, 7);
        let mut covered = Vec::new();
        for k in 0..map.num_blocks() {
            let (lo, hi) = map.range(k);
            assert!(lo < hi);
            for id in lo..hi {
                assert_eq!(map.block_of(id), k);
                covered.push(id);
            }
        }
        assert_eq!(covered, (3u32..50).collect::<Vec<_>>());
    }

    #[test]
    fn empty_index_side_has_no_blocks() {
        let map = BlockMap::new(10, 10, 0);
        assert_eq!(map.num_blocks(), 0);
        assert_eq!(map.scratch_len(), 0);
    }

    #[test]
    fn requested_block_size_is_honored_and_clamped() {
        let map = BlockMap::new(0, 100, 1_000_000);
        assert_eq!(map.num_blocks(), 1);
        let map = BlockMap::new(0, 100, 1);
        assert_eq!(map.num_blocks(), 100);
    }

    fn corpus_of(names: &[&str]) -> TokenizedCorpus {
        let mut table = Table::new(Schema::new(vec!["name"]));
        for n in names {
            table.push(Record::new(vec![*n]));
        }
        let n = table.len();
        let ds =
            Dataset { table, entity_of: (0..n as u32).collect(), split: None, name: "t".into() };
        TokenizedCorpus::build(&ds)
    }

    /// Headers with every token indexed (cut 0), which keeps the estimates
    /// simple.
    fn fully_indexed(corpus: &TokenizedCorpus) -> Vec<RecordHeader> {
        (0..corpus.num_records())
            .map(|b| RecordHeader {
                tail_norm: 0.0,
                tail_sig: 0,
                set_len: corpus.token_set(b).len() as u32,
                jac_cut: 0,
            })
            .collect()
    }

    #[test]
    fn short_sets_disable_the_positional_filter() {
        // Mean merge length ~4 ≪ POS_MIN_MERGE_LEN: the merges the filter
        // would prune are too cheap to pay for its bookkeeping.
        let names: Vec<String> = (0..40).map(|i| format!("a{} b{}", i % 7, i % 5)).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let corpus = corpus_of(&refs);
        let blocks = BlockMap::new(0, corpus.num_records(), 0);
        let plan = CascadePlan::compute(
            &blocks,
            &corpus,
            &fully_indexed(&corpus),
            corpus.num_records(),
            0.4,
        );
        assert!(!plan.any_pos);
        assert!(plan.pos_on.iter().all(|&p| !p));
    }

    #[test]
    fn long_sets_enable_the_positional_filter() {
        let names: Vec<String> = (0..40)
            .map(|i| {
                (0..20).map(|j| format!("t{}", (i + j * 3) % 60)).collect::<Vec<_>>().join(" ")
            })
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let corpus = corpus_of(&refs);
        let blocks = BlockMap::new(0, corpus.num_records(), 0);
        let plan = CascadePlan::compute(
            &blocks,
            &corpus,
            &fully_indexed(&corpus),
            corpus.num_records(),
            0.4,
        );
        assert!(plan.any_pos);
    }

    #[test]
    fn uniform_sizes_disable_the_length_filter_and_skew_enables_it() {
        // All sets the same size: the window skips nothing.
        let uniform: Vec<String> =
            (0..40).map(|i| format!("a{} b{} c{}", i, i + 1, i + 2)).collect();
        let refs: Vec<&str> = uniform.iter().map(String::as_str).collect();
        let corpus = corpus_of(&refs);
        let blocks = BlockMap::new(0, corpus.num_records(), 0);
        let plan = CascadePlan::compute(
            &blocks,
            &corpus,
            &fully_indexed(&corpus),
            corpus.num_records(),
            0.5,
        );
        assert!(plan.len_on.iter().all(|&l| !l), "uniform sizes: nothing to skip");

        // Wide size spread at a high threshold: most cross-size pairs fall
        // outside the window.
        let skewed: Vec<String> = (0..40)
            .map(|i| {
                let len = 1 + (i * 5) % 19;
                (0..len).map(|j| format!("t{}", (i + j) % 97)).collect::<Vec<_>>().join(" ")
            })
            .collect();
        let refs: Vec<&str> = skewed.iter().map(String::as_str).collect();
        let corpus = corpus_of(&refs);
        let blocks = BlockMap::new(0, corpus.num_records(), 0);
        let plan = CascadePlan::compute(
            &blocks,
            &corpus,
            &fully_indexed(&corpus),
            corpus.num_records(),
            0.5,
        );
        assert!(plan.len_on.iter().any(|&l| l), "skewed sizes: window must skip");
    }
}
