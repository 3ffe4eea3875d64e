//! # crowdjoin-matcher — the machine half of the hybrid join
//!
//! The paper's pipeline first uses "machine-based techniques to generate a
//! candidate set of matching pairs" with a per-pair likelihood (CrowdER-style
//! similarity pruning), and only then involves the crowd. This crate is that
//! machine stage:
//!
//! * [`tokenize`] — word and q-gram tokenizers;
//! * [`corpus`] — one-pass tokenization of a dataset into interned `u32`
//!   tokens (a [`TokenizedCorpus`] is shared by the tf-idf and Jaccard
//!   paths, so nothing is ever tokenized twice);
//! * [`similarity`] — Jaccard, Dice, overlap, Levenshtein, Jaro(-Winkler);
//! * [`tfidf`] — sparse tf-idf vectors + inverted index with cosine scoring;
//! * [`candidates`] — the prefix-filtered, blocked, parallel similarity
//!   join producing [`ScoredCandidate`]s (see [`prefix`] for the
//!   AllPairs-style filter and its safety argument; the crate-internal
//!   `block` module holds the cache-sized probe blocking and the adaptive
//!   positional/length filter cascade), plus the brute-force oracle.
//!
//! There is one matcher: a streaming job (`crowdjoin::StreamJob`) keeps its
//! records until the stream closes and then calls [`generate_candidates`].
//!
//! ```
//! use crowdjoin_matcher::{generate_candidates, MatcherConfig};
//! use crowdjoin_records::{generate_paper, ClusterSpec, PaperGenConfig, PerturbConfig};
//!
//! let dataset = generate_paper(&PaperGenConfig {
//!     num_records: 40,
//!     clusters: ClusterSpec::Explicit(vec![(4, 3)]),
//!     perturb: PerturbConfig::light(),
//!     sibling_probability: 0.0,
//!     seed: 7,
//! });
//! let candidates = generate_candidates(&dataset, &MatcherConfig::for_arity(5));
//! assert!(!candidates.is_empty());
//! assert!(candidates.iter().all(|c| (0.0..=1.0).contains(&c.likelihood)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod block;
pub mod candidates;
pub mod corpus;
pub mod fields;
pub(crate) mod par;
pub mod prefix;
pub mod similarity;
pub mod tfidf;
pub mod tokenize;

pub use candidates::{
    generate_candidates, generate_candidates_bruteforce, generate_candidates_prepared,
    MatcherConfig, ScoredCandidate,
};
pub use corpus::TokenizedCorpus;
pub use fields::{ExtraMeasure, FieldMeasure};
pub use similarity::{
    dice, jaccard, jaro, jaro_winkler, levenshtein, levenshtein_similarity, overlap,
};
pub use tfidf::TfIdfIndex;
pub use tokenize::{qgrams, token_set, tokenize_words};
