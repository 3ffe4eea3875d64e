//! One-pass tokenization of a dataset into interned integer tokens.
//!
//! The matcher used to tokenize every record twice — once for the tf-idf
//! index and once for the Jaccard token sets — and compared `String`s in
//! both. A [`TokenizedCorpus`] walks every field exactly once, interns each
//! word through a workspace-level [`Interner`], and keeps two views that the
//! whole scoring stage shares:
//!
//! * per record and field, the token ids **in text order** (tf-idf term
//!   counts need multiplicity and field attribution);
//! * per record, the sorted deduplicated token-id set over **all** fields
//!   (the set representation behind Jaccard and the prefix filter).
//!
//! Token ids are dense and assigned in first-encounter order, so everything
//! built on a corpus is deterministic for a fixed dataset.

use crate::tokenize::tokenize_words;
use crowdjoin_records::Dataset;
use crowdjoin_util::Interner;

/// A dataset tokenized once: interned per-field token lists plus sorted
/// per-record token sets.
#[derive(Debug, Clone)]
pub struct TokenizedCorpus {
    interner: Interner,
    arity: usize,
    /// All records' tokens, record-major then field-major, text order.
    flat: Vec<u32>,
    /// `flat` slice bounds: record `i`, field `f` spans
    /// `bounds[i * arity + f] .. bounds[i * arity + f + 1]`.
    bounds: Vec<u32>,
    /// All records' sorted deduplicated token sets, concatenated.
    set_flat: Vec<u32>,
    /// `set_flat` slice bounds: record `i` spans
    /// `set_bounds[i] .. set_bounds[i + 1]`.
    set_bounds: Vec<u32>,
}

/// One worker's tokenization of a contiguous record chunk: token ids are
/// *chunk-local* (dense first-encounter within the chunk); `field_lens`
/// holds one entry per record-field, in order, so the merge can rebuild the
/// bounds tables without re-tokenizing.
struct ChunkTokens {
    interner: Interner,
    flat: Vec<u32>,
    field_lens: Vec<u32>,
}

impl TokenizedCorpus {
    /// Tokenizes every field of every record exactly once, sequentially.
    /// Equivalent to [`Self::build_threaded`] with one thread.
    #[must_use]
    pub fn build(dataset: &Dataset) -> Self {
        Self::build_threaded(dataset, 1)
    }

    /// Tokenizes every field of every record exactly once, on up to
    /// `threads` workers (0 = one per available core).
    ///
    /// Workers tokenize disjoint record chunks into *chunk-local*
    /// dictionaries; the merge absorbs those dictionaries in chunk order
    /// ([`Interner::absorb`]), which reassigns every token the id a
    /// sequential pass would have given it. The result is bit-identical to
    /// [`Self::build`] for every thread count.
    #[must_use]
    pub fn build_threaded(dataset: &Dataset, threads: usize) -> Self {
        let mut span =
            crowdjoin_obs::obs_span!("matcher", "matcher.tokenize", crowdjoin_obs::NO_SHARD);
        let clock = std::time::Instant::now();
        let arity = dataset.table.schema().arity();
        let n = dataset.len();
        let mut interner = Interner::new();
        let mut flat: Vec<u32> = Vec::new();
        let mut bounds: Vec<u32> = Vec::with_capacity(n * arity + 1);
        let mut set_flat: Vec<u32> = Vec::new();
        let mut set_bounds: Vec<u32> = Vec::with_capacity(n + 1);
        let mut scratch: Vec<u32> = Vec::new();
        bounds.push(0);
        set_bounds.push(0);
        // Records per work unit: large enough that chunk-local dictionaries
        // amortize their hashing, small enough that mid-size workloads still
        // spread over several workers.
        const CHUNK: usize = 2048;
        if crate::par::resolve_workers(threads, n.div_ceil(CHUNK)) <= 1 {
            // Sequential fast path: intern straight into the global
            // dictionary, no remap pass.
            for i in 0..n {
                let record_start = flat.len();
                for f in 0..arity {
                    for token in tokenize_words(dataset.table.record(i).field(f)) {
                        flat.push(interner.intern(&token));
                    }
                    bounds.push(u32::try_from(flat.len()).expect("corpus overflow"));
                }
                scratch.clear();
                scratch.extend_from_slice(&flat[record_start..]);
                scratch.sort_unstable();
                scratch.dedup();
                set_flat.extend_from_slice(&scratch);
                set_bounds.push(u32::try_from(set_flat.len()).expect("corpus overflow"));
            }
        } else {
            let chunks = crate::par::map_chunks(n, CHUNK, threads, |range| {
                let mut local = ChunkTokens {
                    interner: Interner::new(),
                    flat: Vec::new(),
                    field_lens: Vec::with_capacity(range.len() * arity),
                };
                for i in range {
                    for f in 0..arity {
                        let before = local.flat.len();
                        for token in tokenize_words(dataset.table.record(i).field(f)) {
                            local.flat.push(local.interner.intern(&token));
                        }
                        local.field_lens.push(
                            u32::try_from(local.flat.len() - before).expect("field overflow"),
                        );
                    }
                }
                local
            });
            for chunk in &chunks {
                let remap = interner.absorb(&chunk.interner);
                let mut cursor = 0usize;
                for record_fields in chunk.field_lens.chunks(arity) {
                    let record_start = flat.len();
                    for &len in record_fields {
                        flat.extend(
                            chunk.flat[cursor..cursor + len as usize]
                                .iter()
                                .map(|&local| remap[local as usize]),
                        );
                        cursor += len as usize;
                        bounds.push(u32::try_from(flat.len()).expect("corpus overflow"));
                    }
                    scratch.clear();
                    scratch.extend_from_slice(&flat[record_start..]);
                    scratch.sort_unstable();
                    scratch.dedup();
                    set_flat.extend_from_slice(&scratch);
                    set_bounds.push(u32::try_from(set_flat.len()).expect("corpus overflow"));
                }
            }
        }
        span.set_field("records", n);
        span.set_field("vocabulary", interner.len());
        // Stage wall time for the `--timings` breakdown: one counter add
        // per corpus build, read back from the metrics registry.
        crowdjoin_obs::counter("matcher.tokenize.us", crowdjoin_obs::NO_SHARD)
            .add(clock.elapsed().as_micros() as u64);
        Self { interner, arity, flat, bounds, set_flat, set_bounds }
    }

    /// Number of records.
    #[must_use]
    pub fn num_records(&self) -> usize {
        self.set_bounds.len() - 1
    }

    /// Number of distinct tokens across the corpus (all fields).
    #[must_use]
    pub fn vocabulary_size(&self) -> usize {
        self.interner.len()
    }

    /// Schema arity the corpus was built against.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The token dictionary.
    #[must_use]
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Record `i`, field `f`: interned tokens in text order (with
    /// multiplicity).
    #[must_use]
    pub fn field_tokens(&self, i: usize, f: usize) -> &[u32] {
        assert!(f < self.arity, "field {f} out of range for arity {}", self.arity);
        let lo = self.bounds[i * self.arity + f] as usize;
        let hi = self.bounds[i * self.arity + f + 1] as usize;
        &self.flat[lo..hi]
    }

    /// Record `i`: sorted deduplicated token-id set over all fields — the
    /// integer analogue of the old per-record `Vec<String>` token set.
    #[must_use]
    pub fn token_set(&self, i: usize) -> &[u32] {
        let lo = self.set_bounds[i] as usize;
        let hi = self.set_bounds[i + 1] as usize;
        &self.set_flat[lo..hi]
    }

    /// Document frequency (over all fields' token sets) of every token:
    /// `df[id]` = number of records whose token set contains `id`.
    #[must_use]
    pub fn set_doc_freq(&self) -> Vec<u32> {
        let mut df = vec![0u32; self.vocabulary_size()];
        for &id in &self.set_flat {
            df[id as usize] += 1;
        }
        df
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdjoin_records::{Record, Schema, Table};

    fn dataset(rows: &[(&str, &str)]) -> Dataset {
        let mut table = Table::new(Schema::new(vec!["name", "price"]));
        for (name, price) in rows {
            table.push(Record::new(vec![*name, *price]));
        }
        let n = table.len();
        Dataset { table, entity_of: (0..n as u32).collect(), split: None, name: "t".into() }
    }

    #[test]
    fn fields_tokenize_in_text_order_with_multiplicity() {
        let ds = dataset(&[("Sony TV sony", "499.99"), ("", "10")]);
        let corpus = TokenizedCorpus::build(&ds);
        // "sony" repeats (case-folded), so the field list keeps both copies.
        assert_eq!(corpus.field_tokens(0, 0), &[0, 1, 0]);
        assert_eq!(corpus.field_tokens(0, 1), &[2, 3]); // "499", "99"
        assert_eq!(corpus.field_tokens(1, 0), &[] as &[u32]);
        assert_eq!(corpus.interner().resolve(0), "sony");
        assert_eq!(corpus.interner().resolve(3), "99");
    }

    #[test]
    fn token_sets_are_sorted_dedup_over_all_fields() {
        let ds = dataset(&[("b a b", "a c"), ("zz", "")]);
        let corpus = TokenizedCorpus::build(&ds);
        let resolve =
            |ids: &[u32]| ids.iter().map(|&i| corpus.interner().resolve(i)).collect::<Vec<_>>();
        let mut names = resolve(corpus.token_set(0));
        names.sort_unstable();
        assert_eq!(names, vec!["a", "b", "c"]);
        let set = corpus.token_set(0);
        assert!(set.windows(2).all(|w| w[0] < w[1]), "sorted strictly: {set:?}");
        assert_eq!(resolve(corpus.token_set(1)), vec!["zz"]);
    }

    #[test]
    fn doc_freq_counts_records_not_occurrences() {
        let ds = dataset(&[("a a a", ""), ("a b", ""), ("b", "")]);
        let corpus = TokenizedCorpus::build(&ds);
        let df = corpus.set_doc_freq();
        let a = corpus.interner().get("a").unwrap() as usize;
        let b = corpus.interner().get("b").unwrap() as usize;
        assert_eq!(df[a], 2, "'a' appears in two records");
        assert_eq!(df[b], 2);
    }

    #[test]
    fn empty_dataset() {
        let ds = dataset(&[]);
        let corpus = TokenizedCorpus::build(&ds);
        assert_eq!(corpus.num_records(), 0);
        assert_eq!(corpus.vocabulary_size(), 0);
    }

    #[test]
    fn threaded_build_is_bit_identical_to_serial() {
        // > 2048 records so the threaded path genuinely crosses chunk
        // boundaries (and token first-encounters span multiple chunks).
        let rows: Vec<(String, String)> = (0..4500)
            .map(|i| (format!("tok{} shared{} x{}", i % 311, i % 97, i % 13), format!("{i}")))
            .collect();
        let refs: Vec<(&str, &str)> = rows.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        let ds = dataset(&refs);
        let serial = TokenizedCorpus::build(&ds);
        for threads in [2, 4] {
            let par = TokenizedCorpus::build_threaded(&ds, threads);
            assert_eq!(par.vocabulary_size(), serial.vocabulary_size(), "threads {threads}");
            assert_eq!(par.flat, serial.flat, "threads {threads}");
            assert_eq!(par.bounds, serial.bounds, "threads {threads}");
            assert_eq!(par.set_flat, serial.set_flat, "threads {threads}");
            assert_eq!(par.set_bounds, serial.set_bounds, "threads {threads}");
            for id in 0..serial.vocabulary_size() as u32 {
                assert_eq!(par.interner().resolve(id), serial.interner().resolve(id));
            }
        }
    }
}
