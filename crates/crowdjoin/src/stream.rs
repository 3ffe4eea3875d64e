//! The streaming job facade: records arrive over time, candidate pairs are
//! *discovered* incrementally, and closing the stream runs the batch join
//! over the canonical dataset and hands both to the **unmodified batch
//! engine**.
//!
//! ## Shape
//!
//! A [`StreamJob`] wraps the matcher's incremental discovery
//! ([`crowdjoin_matcher::StreamMatcher`], which keeps records and postings
//! but nothing per pair) and adds the service-level concerns:
//!
//! * **External identity.** Every streamed record carries a caller-assigned
//!   external id. Arrival order is an accident of the transport; external
//!   ids are the stable identity. [`StreamJob::close`] sorts by external id
//!   and calls `StreamMatcher::close_canonical`, which *is*
//!   `generate_candidates` on the re-ordered records — so the final
//!   `(Dataset, candidates)` is **the batch run's** over the same records
//!   in external-id order, whatever order they arrived in, by construction
//!   rather than by re-scoring. Everything downstream (engine, shards,
//!   money, reports) then *is* the batch path at any shard count. In a
//!   trace, `stream.close` therefore parents the batch matcher's spans
//!   (`matcher.tokenize`, `matcher.index`, `matcher.prefix`,
//!   `matcher.probe`) and feeds the `matcher.*.us` stage counters.
//! * **Mid-job component admission.** Each insert's delta pairs are
//!   union-folded into a provisional component structure
//!   ([`StreamJob::num_components`]), the statistic re-sharding rebalances
//!   on; eager mid-stream labeling lives in
//!   [`crowdjoin_engine::StreamEngine`].
//! * **Durability.** With a journal attached, every ingest batch is
//!   write-ahead logged to `FILE.stream` (see
//!   [`crowdjoin_wal::StreamJournal`]) *before* it is applied, so a killed
//!   stream resumes from the journal and re-derives the identical state.
//!   The engine's answer journal (`FILE`) is untouched by streaming — the
//!   close path feeds the canonical order to the ordinary journaled engine,
//!   whose file stays byte-identical to a batch run's.

use crowdjoin_graph::UnionFind;
use crowdjoin_matcher::{FieldMeasure, MatcherConfig, ScoredCandidate, StreamMatcher};
use crowdjoin_records::{Dataset, Record, Schema};
use crowdjoin_util::FxHashSet;
use crowdjoin_wal::{
    fnv1a64, open_resume_stream, SealRecord, StreamEntry, StreamHeader, StreamJournal, WalError,
    STREAM_FORMAT_VERSION,
};
use std::path::Path;

/// What one [`StreamJob::ingest`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamIngestReport {
    /// Records inserted.
    pub inserted: usize,
    /// Delta candidate pairs discovered (new record × existing corpus).
    pub delta_pairs: usize,
    /// Inserts that bridged two previously-distinct provisional components.
    pub components_joined: usize,
    /// Inserts that opened a brand-new provisional component.
    pub components_opened: usize,
}

/// A long-running streaming join: records in, canonical batch job out.
#[derive(Debug)]
pub struct StreamJob {
    matcher: StreamMatcher,
    /// `externals[arrival] = external id` of the record inserted as
    /// arrival-id `arrival`.
    externals: Vec<u32>,
    external_set: FxHashSet<u32>,
    /// Provisional connected components over arrival ids, grown from the
    /// matcher's delta pairs.
    components: UnionFind,
    active: Vec<bool>,
    journal: Option<StreamJournal>,
    config_hash: u64,
    seed: u64,
    sealed: bool,
}

/// Fingerprint of the streaming job's matcher configuration and schema.
/// Field-by-field (floats by exact bits), **not** a `Debug`-string hash —
/// that rendering is unstable across toolchains and would refuse to
/// resume journals of identical jobs. `threads` and `block_records` are
/// excluded (output is identical for every value).
fn stream_config_hash(schema: &Schema, config: &MatcherConfig) -> u64 {
    let mut words: Vec<u64> = vec![
        config.min_likelihood.to_bits(),
        config.cosine_weight.to_bits(),
        config.jaccard_weight.to_bits(),
        config.field_weights.len() as u64,
    ];
    words.extend(config.field_weights.iter().map(|w| w.to_bits()));
    words.push(config.extra_measures.len() as u64);
    for em in &config.extra_measures {
        words.push(em.field as u64);
        words.push(match em.measure {
            FieldMeasure::Levenshtein => 0,
            FieldMeasure::JaroWinkler => 1,
            FieldMeasure::NumericRatio => 2,
            FieldMeasure::Exact => 3,
        });
        words.push(em.weight.to_bits());
    }
    for f in schema.fields() {
        words.push(fnv1a64(f.bytes()));
    }
    fnv1a64(words.into_iter().flat_map(u64::to_le_bytes))
}

/// Fingerprint of the canonical labeling order (same recipe as the answer
/// journal's `order_hash`: pairs and likelihood bits, in order).
fn candidates_order_hash(candidates: &[ScoredCandidate]) -> u64 {
    fnv1a64(candidates.iter().flat_map(|c| {
        c.a.to_le_bytes()
            .into_iter()
            .chain(c.b.to_le_bytes())
            .chain(c.likelihood.to_bits().to_le_bytes())
    }))
}

impl StreamJob {
    /// An unjournaled streaming job (in-memory only; a crash loses the
    /// stream).
    ///
    /// # Panics
    ///
    /// Panics on an invalid matcher configuration.
    #[must_use]
    pub fn new(schema: Schema, config: MatcherConfig, seed: u64) -> Self {
        let config_hash = stream_config_hash(&schema, &config);
        Self {
            matcher: StreamMatcher::new(schema, config),
            externals: Vec::new(),
            external_set: FxHashSet::default(),
            components: UnionFind::new(0),
            active: Vec::new(),
            journal: None,
            config_hash,
            seed,
            sealed: false,
        }
    }

    /// A journaled streaming job: creates the stream journal at `path`
    /// (conventionally the engine journal's path + `.stream`) and
    /// write-ahead logs every ingest.
    ///
    /// # Errors
    ///
    /// [`WalError::AlreadyExists`] for a non-empty file (resume it
    /// instead), [`WalError::Locked`] / [`WalError::Io`] as usual.
    pub fn with_journal(
        schema: Schema,
        config: MatcherConfig,
        seed: u64,
        path: &Path,
    ) -> Result<Self, WalError> {
        let mut job = Self::new(schema, config, seed);
        let header = StreamHeader {
            version: STREAM_FORMAT_VERSION,
            arity: job.matcher.dataset().table.schema().arity() as u32,
            config_hash: job.config_hash,
            seed,
        };
        job.journal = Some(StreamJournal::create(path, &header)?);
        Ok(job)
    }

    /// Resumes a killed streaming job from its journal: verifies the
    /// header fingerprints, truncates any torn tail, replays every
    /// journaled ingest through the live insert path (re-deriving the
    /// identical matcher state), and keeps appending to the same journal.
    ///
    /// Returns the rebuilt job and the number of records replayed, so the
    /// caller can skip that prefix of its input.
    ///
    /// # Errors
    ///
    /// [`WalError::HeaderMismatch`] when the schema, matcher
    /// configuration, or seed differ from the journaled job; the decode
    /// errors of [`crowdjoin_wal::read_stream_journal`]; plus
    /// [`WalError::Locked`] / [`WalError::Io`].
    pub fn resume(
        schema: Schema,
        config: MatcherConfig,
        seed: u64,
        path: &Path,
    ) -> Result<(Self, usize), WalError> {
        let (contents, journal) = open_resume_stream(path)?;
        let mut job = Self::new(schema, config, seed);
        let header = &contents.header;
        let checks: [(&'static str, u64, u64); 3] = [
            ("arity", u64::from(header.arity), job.matcher.dataset().table.schema().arity() as u64),
            ("config_hash (matcher config/schema)", header.config_hash, job.config_hash),
            ("seed", header.seed, job.seed),
        ];
        for (field, journaled, ours) in checks {
            if journaled != ours {
                return Err(WalError::HeaderMismatch { field, journal: journaled, job: ours });
            }
        }
        let (entries, seal) = contents.replay()?;
        for entry in &entries {
            job.insert_one(entry.external, &Record::new(entry.fields.clone()));
        }
        job.sealed = seal.is_some();
        job.journal = Some(journal);
        Ok((job, entries.len()))
    }

    /// Records streamed so far.
    #[must_use]
    pub fn num_records(&self) -> usize {
        self.externals.len()
    }

    /// Delta pairs emitted so far — a running count of a superset of the
    /// final set, not a store (see [`crowdjoin_matcher::StreamMatcher`]).
    #[must_use]
    pub fn num_materialized(&self) -> usize {
        self.matcher.num_materialized()
    }

    /// `true` once the stream was closed (a resumed-from-journal job may
    /// already be sealed; it can only be closed again, not extended).
    #[must_use]
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Live provisional components (over records connected by an emitted
    /// delta pair) — the structure re-sharding rebalances
    /// at the next barrier.
    #[must_use]
    pub fn num_components(&mut self) -> usize {
        let mut roots = FxHashSet::default();
        for i in 0..self.active.len() {
            if self.active[i] {
                roots.insert(self.components.find(i as u32));
            }
        }
        roots.len()
    }

    /// Ingests a batch of `(external id, record)` arrivals: journals them
    /// durably (when a journal is attached), then inserts each into the
    /// incremental join and folds its delta pairs into the provisional
    /// components.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the journal append fails, or
    /// [`WalError::RecordTooLarge`] (naming the external id) if a record's
    /// text cannot fit one journal frame — nothing is applied in either
    /// case (log-before-apply; on resume the journal is the truth).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate external id, a record arity mismatch, or
    /// ingesting into a sealed stream.
    pub fn ingest(&mut self, records: &[(u32, Record)]) -> Result<StreamIngestReport, WalError> {
        assert!(!self.sealed, "cannot ingest into a sealed stream");
        let mut span = crowdjoin_obs::obs_span!(
            "stream",
            "stream.ingest",
            crowdjoin_obs::NO_SHARD,
            records = records.len() as u64,
        );
        let mut batch_ids = FxHashSet::default();
        for (external, _) in records {
            assert!(
                !self.external_set.contains(external) && batch_ids.insert(*external),
                "external id {external} appears twice in the stream"
            );
        }
        if let Some(journal) = &self.journal {
            let entries: Vec<StreamEntry> = records
                .iter()
                .map(|(external, record)| StreamEntry {
                    external: *external,
                    fields: record.values().to_vec(),
                })
                .collect();
            journal.append_ingest(self.externals.len() as u64, &entries)?;
        }
        let mut report = StreamIngestReport::default();
        for (external, record) in records {
            let (delta_pairs, joined, opened) = self.insert_one(*external, record);
            report.inserted += 1;
            report.delta_pairs += delta_pairs;
            report.components_joined += joined;
            report.components_opened += opened;
        }
        if crowdjoin_obs::enabled() {
            crowdjoin_obs::counter("stream.records", crowdjoin_obs::NO_SHARD)
                .add(report.inserted as u64);
            crowdjoin_obs::counter("stream.delta_pairs", crowdjoin_obs::NO_SHARD)
                .add(report.delta_pairs as u64);
        }
        span.set_field("delta_pairs", report.delta_pairs as u64);
        Ok(report)
    }

    /// Applies one arrival (no journaling — the ingest/replay callers own
    /// that). Returns `(delta pairs, components joined, components
    /// opened)`.
    fn insert_one(&mut self, external: u32, record: &Record) -> (usize, usize, usize) {
        assert!(
            self.external_set.insert(external),
            "external id {external} appears twice in the stream"
        );
        let delta = self.matcher.insert(record);
        self.externals.push(external);
        let new_id = self.components.push();
        debug_assert_eq!(new_id, delta.record);
        self.active.push(false);
        let (mut joined, mut opened) = (0usize, 0usize);
        for dp in &delta.pairs {
            let partner_active = self.active[dp.a as usize];
            let self_active = self.active[delta.record as usize];
            if !partner_active && !self_active {
                opened += 1;
            } else if partner_active
                && self_active
                && self.components.find(dp.a) != self.components.find(delta.record)
            {
                joined += 1;
            }
            self.components.union(dp.a, delta.record);
            self.active[dp.a as usize] = true;
            self.active[delta.record as usize] = true;
        }
        (delta.pairs.len(), joined, opened)
    }

    /// Closes the stream: re-orders the arrivals into **external-id
    /// order**, runs `generate_candidates` on that canonical dataset, seals the
    /// journal with the order fingerprint, and returns the canonical
    /// `(Dataset, candidates)` for the unmodified batch engine path.
    ///
    /// The dataset's record `r` is the streamed record with the `r`-th
    /// smallest external id.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the seal append fails.
    pub fn close(mut self) -> Result<(Dataset, Vec<ScoredCandidate>), WalError> {
        let _span = crowdjoin_obs::obs_span!("stream", "stream.close", crowdjoin_obs::NO_SHARD);
        let mut order: Vec<u32> = (0..self.externals.len() as u32).collect();
        order.sort_by_key(|&arrival| self.externals[arrival as usize]);
        let (dataset, candidates) = self.matcher.close_canonical(&order);
        if let Some(journal) = &self.journal {
            if !self.sealed {
                journal.append_seal(&SealRecord {
                    num_records: self.externals.len() as u64,
                    order_len: candidates.len() as u64,
                    order_hash: candidates_order_hash(&candidates),
                })?;
                self.sealed = true;
            }
        }
        Ok((dataset, candidates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdjoin_matcher::generate_candidates;
    use crowdjoin_records::{generate_paper, ClusterSpec, PaperGenConfig, PerturbConfig};

    fn dataset() -> Dataset {
        generate_paper(&PaperGenConfig {
            num_records: 30,
            clusters: ClusterSpec::Explicit(vec![(4, 3), (2, 4)]),
            perturb: PerturbConfig::light(),
            sibling_probability: 0.0,
            seed: 9,
        })
    }

    fn config() -> MatcherConfig {
        MatcherConfig { min_likelihood: 0.2, ..MatcherConfig::for_arity(5) }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("crowdjoin-streamjob-{}-{name}", std::process::id()))
    }

    /// Streams `ds` in the given arrival order (external id = original
    /// dataset index) and closes.
    fn stream_and_close(ds: &Dataset, arrivals: &[usize]) -> (Dataset, Vec<ScoredCandidate>) {
        let mut job = StreamJob::new(ds.table.schema().clone(), config(), 0);
        for &i in arrivals {
            job.ingest(&[(i as u32, ds.table.record(i).clone())]).expect("unjournaled");
        }
        job.close().expect("unjournaled close")
    }

    #[test]
    fn close_matches_batch_for_any_arrival_order() {
        let ds = dataset();
        let batch = generate_candidates(&ds, &config());
        let forward: Vec<usize> = (0..ds.len()).collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        for arrivals in [forward, reversed] {
            let (closed_ds, streamed) = stream_and_close(&ds, &arrivals);
            assert_eq!(closed_ds.len(), ds.len());
            assert_eq!(streamed.len(), batch.len());
            for (s, b) in streamed.iter().zip(&batch) {
                assert_eq!((s.a, s.b), (b.a, b.b));
                assert_eq!(s.likelihood.to_bits(), b.likelihood.to_bits());
            }
        }
    }

    #[test]
    fn journaled_stream_resumes_to_identical_close() {
        let ds = dataset();
        let path = temp_path("resume.stream");
        let _ = std::fs::remove_file(&path);

        let mut job =
            StreamJob::with_journal(ds.table.schema().clone(), config(), 7, &path).unwrap();
        let half = ds.len() / 2;
        for i in 0..half {
            job.ingest(&[(i as u32, ds.table.record(i).clone())]).unwrap();
        }
        drop(job); // "crash" mid-stream

        let (mut job, replayed) =
            StreamJob::resume(ds.table.schema().clone(), config(), 7, &path).unwrap();
        assert_eq!(replayed, half);
        assert!(!job.is_sealed());
        for i in half..ds.len() {
            job.ingest(&[(i as u32, ds.table.record(i).clone())]).unwrap();
        }
        let (_, streamed) = job.close().unwrap();

        let batch = generate_candidates(&ds, &config());
        assert_eq!(streamed.len(), batch.len());
        for (s, b) in streamed.iter().zip(&batch) {
            assert_eq!((s.a, s.b), (b.a, b.b));
            assert_eq!(s.likelihood.to_bits(), b.likelihood.to_bits());
        }

        // The journal is sealed: a further resume sees the seal.
        let (job, _) = StreamJob::resume(ds.table.schema().clone(), config(), 7, &path).unwrap();
        assert!(job.is_sealed());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_with_different_config_is_refused() {
        let ds = dataset();
        let path = temp_path("mismatch.stream");
        let _ = std::fs::remove_file(&path);
        let mut job =
            StreamJob::with_journal(ds.table.schema().clone(), config(), 7, &path).unwrap();
        job.ingest(&[(0, ds.table.record(0).clone())]).unwrap();
        drop(job);

        let other = MatcherConfig { min_likelihood: 0.4, ..config() };
        let err = StreamJob::resume(ds.table.schema().clone(), other, 7, &path).unwrap_err();
        assert!(matches!(err, WalError::HeaderMismatch { .. }), "{err}");
        let err = StreamJob::resume(ds.table.schema().clone(), config(), 8, &path).unwrap_err();
        assert!(matches!(err, WalError::HeaderMismatch { field: "seed", .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn components_track_delta_pairs() {
        let ds = dataset();
        let mut job = StreamJob::new(ds.table.schema().clone(), config(), 0);
        let mut report = StreamIngestReport::default();
        for i in 0..ds.len() {
            let r = job.ingest(&[(i as u32, ds.table.record(i).clone())]).unwrap();
            report.delta_pairs += r.delta_pairs;
            report.components_joined += r.components_joined;
            report.components_opened += r.components_opened;
        }
        assert_eq!(report.delta_pairs, job.num_materialized());
        assert!(report.components_opened >= 1);
        assert!(job.num_components() >= 1);
    }

    #[test]
    fn long_text_batch_splits_by_bytes_and_survives_kill_resume() {
        // 1,024 records of 20 KiB each are 20 MiB of text: more than one
        // 16 MiB frame holds, inside the 1,024-record count cap — the
        // batch used to panic the encoder mid-ingest.
        let schema = Schema::new(vec!["text"]);
        let cfg = MatcherConfig { min_likelihood: 0.2, ..MatcherConfig::for_arity(1) };
        let path = temp_path("longtext.stream");
        let _ = std::fs::remove_file(&path);
        let batch: Vec<(u32, Record)> = (0..1024u32)
            .map(|i| (i, Record::new(vec![format!("{}{i}", "x".repeat(20 * 1024))])))
            .collect();

        let mut job = StreamJob::with_journal(schema.clone(), cfg.clone(), 7, &path).unwrap();
        assert_eq!(job.ingest(&batch).unwrap().inserted, 1024);
        // A record no frame can carry is a typed error naming it, and
        // leaves both the journal and the job untouched.
        let unframeable = [(5000, Record::new(vec!["y".repeat(17 << 20)]))];
        let err = job.ingest(&unframeable).unwrap_err();
        assert!(matches!(err, WalError::RecordTooLarge { external: Some(5000), .. }), "{err}");
        assert!(err.to_string().contains("5000"), "{err}");
        assert_eq!(job.num_records(), 1024);
        drop(job); // "kill"

        let frames = crowdjoin_wal::read_stream_journal(&path).unwrap().records.len();
        assert!(frames >= 2, "20 MiB cannot sit in one 16 MiB frame (got {frames})");
        let (job, replayed) = StreamJob::resume(schema, cfg, 7, &path).unwrap();
        assert_eq!(replayed, 1024);
        let (dataset, _) = job.close().unwrap();
        assert_eq!(dataset.len(), 1024);
        for (i, (_, record)) in batch.iter().enumerate() {
            assert_eq!(dataset.table.record(i).values(), record.values());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_inside_one_batch_applies_and_journals_nothing() {
        let ds = dataset();
        let path = temp_path("dupbatch.stream");
        let _ = std::fs::remove_file(&path);
        let mut job =
            StreamJob::with_journal(ds.table.schema().clone(), config(), 7, &path).unwrap();
        let batch: Vec<(u32, Record)> =
            [1, 2, 1].iter().map(|&id| (id, ds.table.record(id as usize).clone())).collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.ingest(&batch)));
        assert!(outcome.is_err(), "a batch repeating external id 1 must be refused");
        assert_eq!(job.num_records(), 0);
        drop(job);
        assert!(crowdjoin_wal::read_stream_journal(&path).unwrap().records.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_external_id_rejected() {
        let ds = dataset();
        let mut job = StreamJob::new(ds.table.schema().clone(), config(), 0);
        job.ingest(&[(3, ds.table.record(0).clone())]).unwrap();
        job.ingest(&[(3, ds.table.record(1).clone())]).unwrap();
    }
}
