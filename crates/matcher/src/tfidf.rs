//! Tf-idf vectors and cosine scoring over a record corpus.
//!
//! Each record becomes a sparse, L2-normalized tf-idf vector over its
//! interned word tokens (with optional per-field weights). Vectors are built
//! from a [`TokenizedCorpus`] — the dataset is tokenized exactly once and the
//! interned ids are shared with the Jaccard path. Only record pairs sharing
//! at least one token can have non-zero cosine; finding those pairs is the
//! prefix index's job ([`crate::prefix`]), which builds its (much shorter)
//! posting lists from these vectors.

use crate::corpus::TokenizedCorpus;
use crowdjoin_records::Dataset;

/// Sparse tf-idf index over a dataset's records.
///
/// The per-record vectors live in one contiguous CSR arena — a flat entry
/// array plus an offset table — so the similarity join streams
/// cache-line-dense slices instead of chasing one heap allocation per
/// record.
#[derive(Debug, Clone)]
pub struct TfIdfIndex {
    /// All records' sorted `(token_id, weight)` entries (L2 norm 1 per
    /// record), record-major. Token ids are the corpus interner's ids.
    vec_entries: Vec<(u32, f32)>,
    /// `vec_entries` offsets: record `i` spans
    /// `vec_bounds[i]..vec_bounds[i+1]`; `num_records + 1` long.
    vec_bounds: Vec<u32>,
}

impl TfIdfIndex {
    /// Builds the index over all records of `dataset` (tokenizing the
    /// dataset itself; prefer [`TfIdfIndex::from_corpus`] when a
    /// [`TokenizedCorpus`] already exists).
    ///
    /// `field_weights` scales each schema field's token counts (e.g. weigh a
    /// product name above its price); it must match the schema arity.
    ///
    /// # Panics
    ///
    /// Panics if `field_weights.len()` differs from the schema arity.
    #[must_use]
    pub fn build(dataset: &Dataset, field_weights: &[f64]) -> Self {
        Self::from_corpus(&TokenizedCorpus::build(dataset), field_weights)
    }

    /// Builds the index from an already-tokenized corpus — no re-tokenization,
    /// and the vectors share the corpus's interned token ids. Equivalent to
    /// [`TfIdfIndex::from_corpus_threaded`] with one thread.
    ///
    /// # Panics
    ///
    /// Panics if `field_weights.len()` differs from the corpus arity.
    #[must_use]
    pub fn from_corpus(corpus: &TokenizedCorpus, field_weights: &[f64]) -> Self {
        Self::from_corpus_threaded(corpus, field_weights, 1)
    }

    /// [`TfIdfIndex::from_corpus`] on up to `threads` workers (0 = one per
    /// available core).
    ///
    /// Both passes are embarrassingly parallel over records: workers emit
    /// per-chunk arenas that are concatenated in chunk order, so the
    /// record-major layout is byte-identical to the sequential build.
    /// Document frequencies are integer sums over the concatenated count
    /// arena — independent of the worker count — so the whole index is
    /// bit-identical to [`TfIdfIndex::from_corpus`] for every `threads`
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if `field_weights.len()` differs from the corpus arity.
    #[must_use]
    pub fn from_corpus_threaded(
        corpus: &TokenizedCorpus,
        field_weights: &[f64],
        threads: usize,
    ) -> Self {
        let _span = crowdjoin_obs::obs_span!(
            "matcher",
            "matcher.index",
            crowdjoin_obs::NO_SHARD,
            records = corpus.num_records(),
        );
        let clock = std::time::Instant::now();
        let arity = corpus.arity();
        assert_eq!(field_weights.len(), arity, "one weight per schema field required");
        let n = corpus.num_records();
        let vocab = corpus.vocabulary_size();
        // Records per work unit (both passes are cheap per record, so
        // chunks are bigger than the probe loop's).
        const CHUNK: usize = 4096;

        // Pass 1: per-record weighted term counts (zero-weight fields are
        // skipped entirely) and document frequencies over those counts.
        // Occurrences are sorted by token id and aggregated in one sweep —
        // O(k log k) per record with no hashing, regardless of how many
        // distinct tokens a long text field carries. Counts live in one
        // flat arena (record `i` spans `count_bounds[i]..count_bounds[i+1]`);
        // workers fill disjoint chunks of it, concatenated in chunk order.
        let counted = crate::par::map_chunks(n, CHUNK, threads, |range| {
            let mut entries: Vec<(u32, f64)> = Vec::new();
            let mut lens: Vec<u32> = Vec::with_capacity(range.len());
            let mut occurrences: Vec<(u32, f64)> = Vec::new();
            for i in range {
                occurrences.clear();
                for (f, &w) in field_weights.iter().enumerate() {
                    if w == 0.0 {
                        continue;
                    }
                    occurrences.extend(corpus.field_tokens(i, f).iter().map(|&id| (id, w)));
                }
                occurrences.sort_unstable_by_key(|&(id, _)| id);
                let start = entries.len();
                for &(id, w) in &occurrences {
                    // Merge repeats within this record only — never across
                    // the arena boundary into the previous record's last
                    // entry.
                    if entries.len() > start {
                        let last = entries.last_mut().expect("non-empty past start");
                        if last.0 == id {
                            last.1 += w;
                            continue;
                        }
                    }
                    entries.push((id, w));
                }
                lens.push(u32::try_from(entries.len() - start).expect("tf-idf arena overflow"));
            }
            (entries, lens)
        });
        let mut doc_freq: Vec<u32> = vec![0; vocab];
        let mut count_entries: Vec<(u32, f64)> = Vec::new();
        let mut count_bounds: Vec<u32> = Vec::with_capacity(n + 1);
        count_bounds.push(0);
        for (entries, lens) in counted {
            count_entries.extend_from_slice(&entries);
            for len in lens {
                let end = count_bounds.last().expect("non-empty bounds") + len;
                assert!((end as usize) <= count_entries.len(), "tf-idf arena overflow");
                count_bounds.push(end);
            }
        }
        for &(id, _) in &count_entries {
            doc_freq[id as usize] += 1;
        }

        // Pass 2: tf-idf weights, L2 normalization, record-major vector
        // arena. (Tokens that only ever appear in zero-weight fields keep
        // df 0 and an unused idf slot.)
        let idf: Vec<f64> = doc_freq
            .iter()
            .map(|&df| if df == 0 { 0.0 } else { (1.0 + n as f64 / df as f64).ln() })
            .collect();
        let weighted = crate::par::map_chunks(n, CHUNK, threads, |range| {
            let mut entries: Vec<(u32, f32)> = Vec::new();
            let mut lens: Vec<u32> = Vec::with_capacity(range.len());
            let mut scratch: Vec<(u32, f64)> = Vec::new();
            for i in range {
                let lo = count_bounds[i] as usize;
                let hi = count_bounds[i + 1] as usize;
                scratch.clear();
                scratch.extend(
                    count_entries[lo..hi]
                        .iter()
                        .map(|&(id, tf)| (id, (1.0 + tf.ln()) * idf[id as usize])),
                );
                let norm = scratch.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
                let start = entries.len();
                if norm > 0.0 {
                    // Counts were aggregated in ascending id order, so the
                    // vector is already sorted.
                    for &(id, w) in &scratch {
                        entries.push((id, (w / norm) as f32));
                    }
                }
                lens.push(u32::try_from(entries.len() - start).expect("tf-idf arena overflow"));
            }
            (entries, lens)
        });
        drop(count_entries);
        let mut vec_entries: Vec<(u32, f32)> = Vec::new();
        let mut vec_bounds: Vec<u32> = Vec::with_capacity(n + 1);
        vec_bounds.push(0);
        for (entries, lens) in weighted {
            vec_entries.extend_from_slice(&entries);
            for len in lens {
                let end = vec_bounds.last().expect("non-empty bounds") + len;
                assert!((end as usize) <= vec_entries.len(), "tf-idf arena overflow");
                vec_bounds.push(end);
            }
        }
        crowdjoin_obs::counter("matcher.index.us", crowdjoin_obs::NO_SHARD)
            .add(clock.elapsed().as_micros() as u64);
        Self { vec_entries, vec_bounds }
    }

    /// Number of indexed records.
    #[must_use]
    pub fn num_records(&self) -> usize {
        self.vec_bounds.len() - 1
    }

    /// Record `i`'s sparse unit vector: sorted `(token_id, weight)` entries.
    #[must_use]
    pub fn vector(&self, i: u32) -> &[(u32, f32)] {
        let i = i as usize;
        &self.vec_entries[self.vec_bounds[i] as usize..self.vec_bounds[i + 1] as usize]
    }

    /// Cosine similarity between two indexed records, in `[0, 1]`.
    #[must_use]
    pub fn cosine(&self, a: u32, b: u32) -> f64 {
        let (va, vb) = (self.vector(a), self.vector(b));
        let mut i = 0;
        let mut j = 0;
        let mut dot = 0.0f64;
        while i < va.len() && j < vb.len() {
            match va[i].0.cmp(&vb[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += va[i].1 as f64 * vb[j].1 as f64;
                    i += 1;
                    j += 1;
                }
            }
        }
        dot.clamp(0.0, 1.0)
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

    #[test]
    fn identical_records_cosine_one() {
        let ds = dataset(&["sony tv black", "sony tv black", "canon camera"]);
        let idx = TfIdfIndex::build(&ds, &[1.0]);
        assert!((idx.cosine(0, 1) - 1.0).abs() < 1e-6);
        assert!(idx.cosine(0, 2) < 0.2);
    }

    #[test]
    fn disjoint_records_cosine_zero() {
        let ds = dataset(&["alpha beta", "gamma delta"]);
        let idx = TfIdfIndex::build(&ds, &[1.0]);
        assert_eq!(idx.cosine(0, 1), 0.0);
    }

    #[test]
    fn rare_tokens_dominate() {
        // "zx99" is rare; "tv" appears everywhere. A pair sharing the rare
        // token must outscore a pair sharing only the common one.
        let ds = dataset(&["tv zx99", "tv zx99 extra", "tv other", "tv another", "tv more"]);
        let idx = TfIdfIndex::build(&ds, &[1.0]);
        assert!(idx.cosine(0, 1) > idx.cosine(0, 2));
    }

    #[test]
    fn field_weights_change_scores() {
        let mut table = Table::new(Schema::new(vec!["name", "price"]));
        table.push(Record::new(vec!["sony tv", "100"]));
        table.push(Record::new(vec!["sony tv", "999"]));
        let ds = Dataset { table, entity_of: vec![0, 1], split: None, name: "t".into() };
        let heavy_name = TfIdfIndex::build(&ds, &[1.0, 0.0]);
        let with_price = TfIdfIndex::build(&ds, &[1.0, 1.0]);
        assert!((heavy_name.cosine(0, 1) - 1.0).abs() < 1e-6, "identical names, price ignored");
        assert!(with_price.cosine(0, 1) < 1.0, "prices differ");
    }

    #[test]
    fn from_corpus_matches_build_and_shares_ids() {
        let ds = dataset(&["sony tv", "sony camera", "tv stand"]);
        let corpus = TokenizedCorpus::build(&ds);
        let a = TfIdfIndex::from_corpus(&corpus, &[1.0]);
        let b = TfIdfIndex::build(&ds, &[1.0]);
        for i in 0..3u32 {
            assert_eq!(a.vector(i), b.vector(i));
        }
        // Vector entries use the corpus's interned ids.
        let sony = corpus.interner().get("sony").unwrap();
        assert!(a.vector(0).iter().any(|&(id, _)| id == sony));
    }

    #[test]
    fn threaded_build_is_bit_identical_to_serial() {
        // > 4096 records so chunk boundaries are genuinely crossed.
        let names: Vec<String> =
            (0..9000).map(|i| format!("tok{} shared{} x{}", i % 311, i % 97, i % 13)).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let ds = dataset(&refs);
        let corpus = TokenizedCorpus::build(&ds);
        let serial = TfIdfIndex::from_corpus(&corpus, &[1.0]);
        for threads in [2, 4] {
            let par = TfIdfIndex::from_corpus_threaded(&corpus, &[1.0], threads);
            assert_eq!(par.vec_bounds, serial.vec_bounds, "threads {threads}");
            for (p, s) in par.vec_entries.iter().zip(serial.vec_entries.iter()) {
                assert_eq!(p.0, s.0);
                assert_eq!(p.1.to_bits(), s.1.to_bits(), "threads {threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one weight per schema field")]
    fn wrong_weight_arity_rejected() {
        let ds = dataset(&["a"]);
        let _ = TfIdfIndex::build(&ds, &[1.0, 2.0]);
    }

    #[test]
    fn empty_record_has_empty_vector() {
        let ds = dataset(&["", "something"]);
        let idx = TfIdfIndex::build(&ds, &[1.0]);
        assert_eq!(idx.cosine(0, 1), 0.0);
    }
}
