//! The streaming job facade: a record log. Records arrive over time and
//! are only *kept*; closing the stream runs the batch join over the
//! canonical dataset and hands both to the **unmodified batch engine**.
//!
//! Nothing is computed before close because nothing can be: a pair's
//! likelihood is a tf-idf blend over the *complete* corpus, and the
//! labeling order ω is a sort of the complete candidate set by it — both
//! are functions of records that have not arrived yet.
//!
//! ## Shape
//!
//! A [`StreamJob`] is the arrived records plus their external identity.
//! Every streamed record carries a caller-assigned external id. Arrival
//! order is an accident of the transport; external ids are the stable
//! identity. [`StreamJob::close`] sorts the arrivals by external id and
//! calls [`generate_candidates`] on them — so the final
//! `(Dataset, candidates)` is **the batch run's** over the same records in
//! external-id order, whatever order they arrived in, by construction.
//! Everything downstream (engine, shards, money, journal, reports) then
//! *is* the batch path at any shard count. In a trace, `stream.close`
//! therefore parents the batch matcher's spans (`matcher.tokenize`,
//! `matcher.index`, `matcher.prefix`, `matcher.probe`) and feeds the
//! `matcher.*.us` stage counters.
//!
//! ## Durability
//!
//! A stream keeps no journal of its own: the records cost nothing and the
//! caller still holds them, so a killed stream is resumed by re-reading its
//! input and closing it again. Only crowd answers cost money, and those go
//! to the engine's answer journal exactly as in a batch run. That
//! journal's header fingerprints the labeling order (`order_len`,
//! `order_hash`), so a resume over a changed input is refused before a
//! single answer is replayed.

use crowdjoin_matcher::{generate_candidates, MatcherConfig, ScoredCandidate};
use crowdjoin_records::{Dataset, Record, Schema, Table};
use crowdjoin_util::FxHashSet;
use std::convert::Infallible;

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
}

impl StreamJob {
    /// An empty stream over `schema`. `_seed` is unused; it is kept for
    /// `benchmark/`, which still passes one.
    ///
    /// # Panics
    ///
    /// Panics on an invalid matcher configuration.
    #[must_use]
    pub fn new(schema: Schema, config: MatcherConfig, _seed: u64) -> Self {
        config.validate(schema.arity());
        Self { schema, config, arrivals: Vec::new(), external_set: FxHashSet::default() }
    }

    /// Records streamed so far.
    #[must_use]
    pub fn num_records(&self) -> usize {
        self.arrivals.len()
    }

    /// Ingests a batch of `(external id, record)` arrivals: appends them to
    /// the record log. Nothing else happens before [`StreamJob::close`].
    ///
    /// # Errors
    ///
    /// None: the error type is [`Infallible`]. The `Result` is kept for
    /// `benchmark/`, which still maps it.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate external id or a record arity mismatch —
    /// before any record of the batch is applied.
    pub fn ingest(&mut self, records: &[(u32, Record)]) -> Result<StreamIngestReport, Infallible> {
        let _span = crowdjoin_obs::obs_span!(
            "stream",
            "stream.ingest",
            crowdjoin_obs::NO_SHARD,
            records = records.len() as u64,
        );
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
        self.external_set.extend(batch_ids);
        self.arrivals.extend_from_slice(records);
        if crowdjoin_obs::enabled() {
            crowdjoin_obs::counter("stream.records", crowdjoin_obs::NO_SHARD)
                .add(records.len() as u64);
        }
        Ok(StreamIngestReport { inserted: records.len(), delta_pairs: 0 })
    }

    /// Closes the stream: moves the arrivals into a dataset in
    /// **external-id order**, runs [`generate_candidates`] on it, and
    /// returns the canonical `(Dataset, candidates)` for the unmodified
    /// batch engine path.
    ///
    /// The dataset's record `r` is the streamed record with the `r`-th
    /// smallest external id.
    ///
    /// # Errors
    ///
    /// None: the error type is [`Infallible`]. The `Result` is kept for
    /// `benchmark/`, which still maps it.
    pub fn close(mut self) -> Result<(Dataset, Vec<ScoredCandidate>), Infallible> {
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

    /// Streams `ds` in the given arrival order (external id = original
    /// dataset index) and closes.
    fn stream_and_close(ds: &Dataset, arrivals: &[usize]) -> (Dataset, Vec<ScoredCandidate>) {
        let mut job = StreamJob::new(ds.table.schema().clone(), config(), 0);
        for &i in arrivals {
            job.ingest(&[(i as u32, ds.table.record(i).clone())]).expect("infallible");
        }
        job.close().expect("infallible")
    }

    #[test]
    fn close_matches_batch_for_any_arrival_order() {
        let _registry =
            crate::METRICS_TEST_LOCK.read().unwrap_or_else(std::sync::PoisonError::into_inner);
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

    /// Ingests `batch` (external ids 1 and 2) into an empty job, expecting
    /// a refusal that leaves the record log empty and burns neither id.
    fn assert_batch_refused(batch: &[(u32, Record)]) {
        let ds = dataset();
        let mut job = StreamJob::new(ds.table.schema().clone(), config(), 0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.ingest(batch)));
        assert!(outcome.is_err(), "the batch must be refused");
        assert_eq!(job.num_records(), 0);
        let good: Vec<(u32, Record)> =
            (1..3).map(|id| (id, ds.table.record(id as usize).clone())).collect();
        job.ingest(&good).expect("infallible");
        assert_eq!(job.num_records(), 2);
    }

    #[test]
    fn duplicate_inside_one_batch_applies_nothing() {
        let ds = dataset();
        let batch: Vec<(u32, Record)> =
            [1, 2, 1].iter().map(|&id| (id, ds.table.record(id as usize).clone())).collect();
        assert_batch_refused(&batch);
    }

    #[test]
    fn wrong_arity_batch_applies_nothing() {
        let ds = dataset();
        let batch = [(1, ds.table.record(1).clone()), (2, Record::new(vec!["one field"]))];
        assert_batch_refused(&batch);
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
