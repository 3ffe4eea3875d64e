//! The streaming job facade: a journaled record log. Records arrive over
//! time and are only *kept*; closing the stream runs the batch join over
//! the canonical dataset and hands both to the **unmodified batch engine**.
//!
//! Nothing is computed before close because nothing can be: a pair's
//! likelihood is a tf-idf blend over the *complete* corpus, and the
//! labeling order ω is a sort of the complete candidate set by it — both
//! are functions of records that have not arrived yet.
//!
//! ## Shape
//!
//! A [`StreamJob`] is the arrived records plus the service-level concerns:
//!
//! * **External identity.** Every streamed record carries a caller-assigned
//!   external id. Arrival order is an accident of the transport; external
//!   ids are the stable identity. [`StreamJob::close`] sorts the arrivals by
//!   external id and calls [`generate_candidates`] on them — so the final
//!   `(Dataset, candidates)` is **the batch run's** over the same records
//!   in external-id order, whatever order they arrived in, by construction.
//!   Everything downstream (engine, shards, money, reports) then *is* the
//!   batch path at any shard count. In a trace, `stream.close` therefore
//!   parents the batch matcher's spans (`matcher.tokenize`,
//!   `matcher.index`, `matcher.prefix`, `matcher.probe`) and feeds the
//!   `matcher.*.us` stage counters.
//! * **Durability.** With a journal attached, every ingest batch is
//!   write-ahead logged to `FILE.stream` (see
//!   [`crowdjoin_wal::StreamJournal`]) *before* it is applied, so a killed
//!   stream resumes from the journal with the identical records. Closing
//!   seals the journal with a fingerprint of the candidate order; closing
//!   a resumed, already-sealed journal recomputes the candidates and
//!   refuses a different fingerprint. The engine's answer journal (`FILE`)
//!   is untouched by streaming — the close path feeds the canonical order
//!   to the ordinary journaled engine, whose file stays byte-identical to
//!   a batch run's.

use crowdjoin_matcher::{generate_candidates, FieldMeasure, MatcherConfig, ScoredCandidate};
use crowdjoin_records::{Dataset, Record, Schema, Table};
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
    /// Always 0; retained for `benchmark/` until its
    /// `matcher.stream.delta_pairs` column is retired.
    pub delta_pairs: usize,
}

/// A long-running streaming join: records in, canonical batch job out.
#[derive(Debug)]
pub struct StreamJob {
    schema: Schema,
    config: MatcherConfig,
    /// `(external id, record)` of every arrival, in arrival order.
    arrivals: Vec<(u32, Record)>,
    external_set: FxHashSet<u32>,
    journal: Option<StreamJournal>,
    /// The seal replayed from a resumed journal: the stream takes no more
    /// records, and a re-close must reproduce this fingerprint.
    seal: Option<SealRecord>,
    config_hash: u64,
    seed: u64,
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
        config.validate(schema.arity());
        let config_hash = stream_config_hash(&schema, &config);
        Self {
            schema,
            config,
            arrivals: Vec::new(),
            external_set: FxHashSet::default(),
            journal: None,
            seal: None,
            config_hash,
            seed,
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
            arity: job.schema.arity() as u32,
            config_hash: job.config_hash,
            seed,
        };
        job.journal = Some(StreamJournal::create(path, &header)?);
        Ok(job)
    }

    /// Resumes a killed streaming job from its journal: verifies the
    /// header fingerprints, truncates any torn tail, replays every
    /// journaled ingest into the record log, and keeps appending to the
    /// same journal.
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
    ///
    /// # Panics
    ///
    /// Panics if the journal repeats an external id or holds a record of
    /// the wrong arity (no [`StreamJob::ingest`] journals either).
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
            ("arity", u64::from(header.arity), job.schema.arity() as u64),
            ("config_hash (matcher config/schema)", header.config_hash, job.config_hash),
            ("seed", header.seed, job.seed),
        ];
        for (field, journaled, ours) in checks {
            if journaled != ours {
                return Err(WalError::HeaderMismatch { field, journal: journaled, job: ours });
            }
        }
        let (entries, seal) = contents.replay()?;
        let records: Vec<(u32, Record)> =
            entries.into_iter().map(|e| (e.external, Record::new(e.fields))).collect();
        job.check_batch(&records);
        job.apply_batch(records);
        job.seal = seal;
        job.journal = Some(journal);
        let replayed = job.arrivals.len();
        Ok((job, replayed))
    }

    /// Records streamed so far.
    #[must_use]
    pub fn num_records(&self) -> usize {
        self.arrivals.len()
    }

    /// `true` once the stream was closed (a resumed-from-journal job may
    /// already be sealed; it can only be closed again, not extended).
    #[must_use]
    pub fn is_sealed(&self) -> bool {
        self.seal.is_some()
    }

    /// Panics unless every record fits the schema and every external id is
    /// new to the stream and to the batch. Applies nothing.
    fn check_batch(&self, records: &[(u32, Record)]) {
        let arity = self.schema.arity();
        let mut batch_ids = FxHashSet::default();
        for (external, record) in records {
            assert_eq!(
                record.values().len(),
                arity,
                "record arity {} does not match schema arity {arity}",
                record.values().len()
            );
            assert!(
                !self.external_set.contains(external) && batch_ids.insert(*external),
                "external id {external} appears twice in the stream"
            );
        }
    }

    /// Appends a checked batch to the record log.
    fn apply_batch(&mut self, records: Vec<(u32, Record)>) {
        self.external_set.extend(records.iter().map(|(external, _)| *external));
        self.arrivals.extend(records);
    }

    /// Ingests a batch of `(external id, record)` arrivals: journals them
    /// durably (when a journal is attached), then appends them to the
    /// record log. Nothing else happens before [`StreamJob::close`].
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
    /// ingesting into a sealed stream — before anything is journaled.
    pub fn ingest(&mut self, records: &[(u32, Record)]) -> Result<StreamIngestReport, WalError> {
        assert!(self.seal.is_none(), "cannot ingest into a sealed stream");
        let _span = crowdjoin_obs::obs_span!(
            "stream",
            "stream.ingest",
            crowdjoin_obs::NO_SHARD,
            records = records.len() as u64,
        );
        self.check_batch(records);
        if let Some(journal) = &self.journal {
            let entries: Vec<StreamEntry> = records
                .iter()
                .map(|(external, record)| StreamEntry {
                    external: *external,
                    fields: record.values().to_vec(),
                })
                .collect();
            journal.append_ingest(self.arrivals.len() as u64, &entries)?;
        }
        self.apply_batch(records.to_vec());
        if crowdjoin_obs::enabled() {
            crowdjoin_obs::counter("stream.records", crowdjoin_obs::NO_SHARD)
                .add(records.len() as u64);
        }
        Ok(StreamIngestReport { inserted: records.len(), delta_pairs: 0 })
    }

    /// Closes the stream: moves the arrivals into a dataset in
    /// **external-id order**, runs [`generate_candidates`] on it, seals the
    /// journal with the order fingerprint, and returns the canonical
    /// `(Dataset, candidates)` for the unmodified batch engine path.
    ///
    /// The dataset's record `r` is the streamed record with the `r`-th
    /// smallest external id.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the seal append fails;
    /// [`WalError::HeaderMismatch`] naming `seal order_len` or
    /// `seal order_hash` if the journal was already sealed and the
    /// recomputed candidates do not reproduce its fingerprint (the file is
    /// left untouched).
    pub fn close(mut self) -> Result<(Dataset, Vec<ScoredCandidate>), WalError> {
        let _span = crowdjoin_obs::obs_span!("stream", "stream.close", crowdjoin_obs::NO_SHARD);
        self.arrivals.sort_unstable_by_key(|(external, _)| *external);
        let num_records = self.arrivals.len();
        let mut table = Table::new(self.schema);
        for (_, record) in self.arrivals {
            table.push(record);
        }
        let dataset = Dataset {
            table,
            entity_of: (0..num_records as u32).collect(),
            split: None,
            name: "stream".into(),
        };
        let candidates = generate_candidates(&dataset, &self.config);
        if let Some(journal) = &self.journal {
            let ours = SealRecord {
                num_records: num_records as u64,
                order_len: candidates.len() as u64,
                order_hash: candidates_order_hash(&candidates),
            };
            match self.seal {
                None => journal.append_seal(&ours)?,
                Some(journaled) => {
                    let checks = [
                        ("seal order_len", journaled.order_len, ours.order_len),
                        ("seal order_hash", journaled.order_hash, ours.order_hash),
                    ];
                    for (field, journal, job) in checks {
                        if journal != job {
                            return Err(WalError::HeaderMismatch { field, journal, job });
                        }
                    }
                }
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
    fn sealed_journal_recloses_and_appends_nothing() {
        let ds = dataset();
        let path = temp_path("reclose.stream");
        let _ = std::fs::remove_file(&path);
        let schema = ds.table.schema().clone();
        let mut job = StreamJob::with_journal(schema.clone(), config(), 7, &path).unwrap();
        let all: Vec<(u32, Record)> =
            (0..ds.len()).map(|i| (i as u32, ds.table.record(i).clone())).collect();
        job.ingest(&all).unwrap();
        let (_, first) = job.close().unwrap();
        let sealed_bytes = std::fs::read(&path).unwrap();

        let (job, replayed) = StreamJob::resume(schema, config(), 7, &path).unwrap();
        assert_eq!(replayed, ds.len());
        assert!(job.is_sealed());
        let (_, again) = job.close().expect("the seal matches the recomputed candidates");
        assert_eq!(again, first);
        assert_eq!(std::fs::read(&path).unwrap(), sealed_bytes);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reclose_refuses_a_seal_the_candidates_do_not_reproduce() {
        let ds = dataset();
        let schema = ds.table.schema().clone();
        let entries: Vec<StreamEntry> = (0..ds.len())
            .map(|i| StreamEntry {
                external: i as u32,
                fields: ds.table.record(i).values().to_vec(),
            })
            .collect();
        let batch = generate_candidates(&ds, &config());
        let good = SealRecord {
            num_records: ds.len() as u64,
            order_len: batch.len() as u64,
            order_hash: candidates_order_hash(&batch),
        };
        let header = StreamHeader {
            version: STREAM_FORMAT_VERSION,
            arity: schema.arity() as u32,
            config_hash: stream_config_hash(&schema, &config()),
            seed: 7,
        };
        let wrong_hash = SealRecord { order_hash: good.order_hash ^ 1, ..good };
        let wrong_len = SealRecord { order_len: good.order_len + 1, ..good };
        for (name, seal, field) in [
            ("badhash.stream", wrong_hash, "seal order_hash"),
            ("badlen.stream", wrong_len, "seal order_len"),
        ] {
            let path = temp_path(name);
            let _ = std::fs::remove_file(&path);
            let journal = StreamJournal::create(&path, &header).unwrap();
            journal.append_ingest(0, &entries).unwrap();
            journal.append_seal(&seal).unwrap();
            drop(journal);
            let bytes = std::fs::read(&path).unwrap();

            let (job, _) = StreamJob::resume(schema.clone(), config(), 7, &path).unwrap();
            let err = job.close().unwrap_err();
            assert!(
                matches!(err, WalError::HeaderMismatch { field: f, .. } if f == field),
                "{name}: {err}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{name}: a refused close wrote");
            std::fs::remove_file(&path).unwrap();
        }
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

    /// Ingests `batch` into a fresh journaled job, expecting a refusal that
    /// leaves both the job and its journal empty.
    fn assert_batch_refused(name: &str, batch: &[(u32, Record)]) {
        let path = temp_path(name);
        let _ = std::fs::remove_file(&path);
        let mut job =
            StreamJob::with_journal(dataset().table.schema().clone(), config(), 7, &path).unwrap();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.ingest(batch)));
        assert!(outcome.is_err(), "{name}: the batch must be refused");
        assert_eq!(job.num_records(), 0);
        drop(job);
        assert!(crowdjoin_wal::read_stream_journal(&path).unwrap().records.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_inside_one_batch_applies_and_journals_nothing() {
        let ds = dataset();
        let batch: Vec<(u32, Record)> =
            [1, 2, 1].iter().map(|&id| (id, ds.table.record(id as usize).clone())).collect();
        assert_batch_refused("dupbatch.stream", &batch);
    }

    #[test]
    fn wrong_arity_batch_applies_and_journals_nothing() {
        // A journaled record the schema cannot hold would poison every resume.
        let ds = dataset();
        let batch = [(0, ds.table.record(0).clone()), (1, Record::new(vec!["one field"]))];
        assert_batch_refused("aritybatch.stream", &batch);
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
