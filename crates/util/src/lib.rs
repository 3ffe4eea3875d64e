//! Shared utilities for the `crowdjoin` workspace.
//!
//! This crate deliberately has a tiny, dependency-light surface:
//!
//! * [`hash`] — an Fx-style fast hasher plus [`FxHashMap`]/[`FxHashSet`]
//!   aliases. Entity-resolution workloads hash millions of small integer keys
//!   (object ids, cluster roots); SipHash dominates profiles there, so the
//!   perf-book recommendation of an Fx-style multiply hasher is implemented
//!   in-tree rather than pulling an extra dependency.
//! * [`interner`] — a dense `str -> u32` token dictionary. The matcher
//!   tokenizes every record field exactly once into interned ids and all
//!   downstream similarity machinery (tf-idf postings, Jaccard merges,
//!   prefix filters) works on sorted integer slices instead of `String`s.
//! * [`rng`] — deterministic seeding helpers. Every stochastic component in
//!   the workspace (dataset generators, the crowd simulator, random labeling
//!   orders) takes an explicit `u64` seed so experiments reproduce
//!   bit-for-bit.
//! * [`stats`] — streaming summary statistics and percentile helpers used by
//!   the benchmark harness when reporting experiment rows.
//! * [`histogram`] — small integer histograms (cluster-size distributions,
//!   per-iteration pair counts).
//! * [`json`] — the workspace's one JSON codec: string escaper, strict
//!   RFC 8259 lexer, and the small `Value` reader. Every crate that reads
//!   or writes JSON text builds on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod histogram;
pub mod interner;
pub mod json;
pub mod rng;
pub mod stats;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use histogram::Histogram;
pub use interner::Interner;
pub use rng::{derive_seed, seeded_rng, SplitMix64};
pub use stats::Summary;
