//! One job: input files → candidates → questions → labeled CSV on disk.
//!
//! The call sequence is the `crowdjoin` CLI's (`run_join`, `run_stream`,
//! `finish_join` and `simulate_on_platform` in `crowdjoin.rs`), made through
//! the crates' public functions only. All timing is taken here, around
//! those calls.

use crate::timed_backend::TimedFactory;
use crate::trace::Tracer;
use crate::workload::{InputFiles, InputSet, Mode, Workload, NUM_SHARDS, STREAM_CHUNK};
use crowdjoin::engine::partition_candidates;
use crowdjoin::matcher::{
    generate_candidates_prepared, ScoredCandidate, TfIdfIndex, TokenizedCorpus,
};
use crowdjoin::records::{table_from_csv, table_from_jsonl, write_csv, Dataset, Record, Table};
use crowdjoin::util::FxHashMap;
use crowdjoin::wal::{self, read_journal, Journal, JournalContents};
use crowdjoin::{
    run_sharded_with_oracle, sort_pairs, to_candidate_set, Engine, EngineReport, Pair, Provenance,
    ScoredPair, SharedGroundTruth, SimFactory, SortStrategy, StreamJob,
};
use std::path::Path;
use std::time::Instant;

/// What the streaming path leaves behind for the stream ≡ batch check and
/// the `matcher.stream.*` metrics.
#[derive(Debug)]
pub struct StreamFacts {
    /// The closed stream's dataset (records in external-id order).
    pub dataset: Dataset,
    /// The closed stream's candidates.
    pub candidates: Vec<ScoredCandidate>,
    /// Wall seconds of each `StreamJob::ingest` call.
    pub chunk_s: Vec<f64>,
    /// Delta pairs the ingests emitted.
    pub delta_pairs: usize,
}

/// What the journaled path leaves behind.
#[derive(Debug)]
pub struct JournalFacts {
    /// The finished journal, as read back before it was cut.
    pub contents: JournalContents,
    /// The report of the resumed run.
    pub resumed: EngineReport,
    /// Wall seconds of `Engine::resume`.
    pub resume_s: f64,
}

/// Everything a finished job hands to the checks and the metrics.
#[derive(Debug)]
pub struct JobOutput {
    /// Input file read → labeled CSV on disk (plus `Engine::resume` on the
    /// journaled workload), seconds.
    pub wall_s: f64,
    /// Parsed table → scored candidates, seconds.
    pub match_s: f64,
    /// Records in the universe the candidates range over.
    pub num_objects: usize,
    /// Distinct tokens the matcher interned (0 on the streaming path, which
    /// does not expose its corpus).
    pub vocab: usize,
    /// The candidate pairs in labeling order.
    pub order: Vec<ScoredPair>,
    /// The engine's report.
    pub report: EngineReport,
    /// Bytes of labeled CSV written.
    pub out_bytes: usize,
    /// Streaming path only.
    pub stream: Option<StreamFacts>,
    /// Journaled path only.
    pub journal: Option<JournalFacts>,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))
}

fn load_csv(path: &Path) -> Result<Table, String> {
    table_from_csv(&read(path)?).map_err(|e| format!("{path:?}: {e}"))
}

/// A dataset as the CLI builds one from files: no known truth.
fn dataset_of(table: Table, split: Option<usize>) -> Dataset {
    let n = table.len();
    Dataset { table, entity_of: (0..n as u32).collect(), split, name: "benchmark".into() }
}

/// Runs one job of `workload` on `set`, recording spans if the tracer's
/// current job is traced.
///
/// # Errors
///
/// A message for any `Err` the program returns; the caller counts it as a
/// failed job.
pub fn run_job(workload: &Workload, set: &InputSet, tr: &mut Tracer) -> Result<JobOutput, String> {
    // A journal may hold paid-for answers, so the engine refuses to start
    // over one; the previous job on this input set left its own behind.
    let journal_path = (workload.mode == Mode::Journal).then(|| set.journal.clone());
    if let Some(path) = &journal_path {
        match std::fs::remove_file(path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("cannot remove {path:?}: {e}"))
            }
            _ => {}
        }
    }

    let job = tr.begin("job");
    let started = Instant::now();

    let span = tr.begin("records.parse");
    let table = match &set.files {
        InputFiles::Csv(path) => (load_csv(path)?, None),
        InputFiles::CsvPair(left, right) => {
            let mut table = load_csv(left)?;
            let right = load_csv(right)?;
            if table.schema() != right.schema() {
                return Err("schema mismatch between the left and right files".to_string());
            }
            let split = table.len();
            for r in right.records() {
                table.push(r.clone());
            }
            (table, Some(split))
        }
        InputFiles::Jsonl(path) => {
            (table_from_jsonl(&read(path)?).map_err(|e| format!("{path:?}: {e}"))?, None)
        }
    };
    tr.end(span);

    let (table, split) = table;
    let matcher_cfg = workload.matcher(table.schema().arity());
    let match_started = Instant::now();
    let (dataset, raw, vocab, stream) = if workload.mode == Mode::Stream {
        let mut stream = StreamJob::new(table.schema().clone(), matcher_cfg, set.seed);
        let mut chunk_s = Vec::with_capacity(table.len() / STREAM_CHUNK + 1);
        let mut delta_pairs = 0;
        let mut seen = 0usize;
        for chunk in table.records().chunks(STREAM_CHUNK) {
            let batch: Vec<(u32, Record)> =
                chunk.iter().enumerate().map(|(i, r)| ((seen + i) as u32, r.clone())).collect();
            seen += chunk.len();
            let span = tr.begin("matcher.stream.ingest");
            let t = Instant::now();
            let r = stream.ingest(&batch).map_err(|e| format!("ingest: {e}"))?;
            chunk_s.push(t.elapsed().as_secs_f64());
            tr.end(span);
            delta_pairs += r.delta_pairs;
        }
        let span = tr.begin("matcher.stream.close");
        let (dataset, raw) = stream.close().map_err(|e| format!("close: {e}"))?;
        tr.end(span);
        (dataset, raw, 0, Some((chunk_s, delta_pairs)))
    } else {
        let dataset = dataset_of(table, split);
        let span = tr.begin("matcher.tokenize");
        let corpus = TokenizedCorpus::build_threaded(&dataset, matcher_cfg.threads);
        tr.end(span);
        let span = tr.begin("matcher.index");
        let tfidf = TfIdfIndex::from_corpus_threaded(
            &corpus,
            &matcher_cfg.field_weights,
            matcher_cfg.threads,
        );
        tr.end(span);
        let span = tr.begin("matcher.probe");
        let raw = generate_candidates_prepared(&dataset, &corpus, &tfidf, &matcher_cfg);
        tr.end(span);
        let vocab = corpus.vocabulary_size();
        (dataset, raw, vocab, None)
    };
    let match_s = match_started.elapsed().as_secs_f64();

    let span = tr.begin("core.order");
    let candidates = to_candidate_set(&dataset, &raw).above_threshold(workload.floor);
    let order = sort_pairs(&candidates, SortStrategy::ExpectedLikelihood);
    tr.end(span);

    let platform = workload.platform(set);
    let engine = Engine::new(
        candidates.num_objects(),
        &order,
        &set.truth,
        &platform,
        workload.engine(set, journal_path.clone()),
    );
    let span = tr.begin("engine.run");
    let report = if tr.enabled() {
        let factory = TimedFactory::new(SimFactory::new(), tr.epoch());
        let report = engine.run_with_backend(&factory).map_err(|e| format!("engine: {e}"))?;
        for shard in factory.timings() {
            if let Some(interval) = shard.interval_ns() {
                tr.aggregate("sim.backend", span, interval, shard.busy_ns(), shard.calls());
            }
        }
        report
    } else {
        engine.run().map_err(|e| format!("engine: {e}"))?
    };
    tr.end(span);

    let span = tr.begin("records.write");
    let likelihood_of: FxHashMap<Pair, f64> =
        order.iter().map(|sp| (sp.pair, sp.likelihood)).collect();
    let mut rows = vec![["a", "b", "label", "provenance", "likelihood"].map(String::from).to_vec()];
    for lp in report.result.labeled_pairs() {
        rows.push(vec![
            lp.pair.a().to_string(),
            lp.pair.b().to_string(),
            lp.label.to_string(),
            match lp.provenance {
                Provenance::Crowdsourced => "crowdsourced".to_string(),
                Provenance::Deduced => "deduced".to_string(),
            },
            format!("{:.4}", likelihood_of.get(&lp.pair).copied().unwrap_or(0.0)),
        ]);
    }
    let csv = write_csv(&rows);
    let out_bytes = csv.len();
    std::fs::write(&set.output, csv).map_err(|e| format!("cannot write {:?}: {e}", set.output))?;
    tr.end(span);

    let mut wall_s = started.elapsed().as_secs_f64();
    tr.end(job);

    // The crash: the finished journal loses everything after the record
    // boundary nearest half its bytes, and `Engine::resume` redoes the rest.
    let journal = match &journal_path {
        None => None,
        Some(path) => {
            let span = tr.begin("wal.read");
            let contents = read_journal(path).map_err(|e| format!("journal: {e}"))?;
            tr.end(span);
            let half = contents.valid_len / 2;
            let cut_at = contents
                .offsets
                .iter()
                .copied()
                .min_by_key(|&offset| offset.abs_diff(half))
                .ok_or("the journal holds no records")?;
            std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .and_then(|f| f.set_len(cut_at))
                .map_err(|e| format!("cannot cut {path:?}: {e}"))?;
            let span = tr.begin("job.resume");
            let t = Instant::now();
            let resumed = engine.resume(path).map_err(|e| format!("resume: {e}"))?;
            let resume_s = t.elapsed().as_secs_f64();
            tr.end(span);
            wall_s += resume_s;
            Some(JournalFacts { contents, resumed, resume_s })
        }
    };

    Ok(JobOutput {
        wall_s,
        match_s,
        num_objects: candidates.num_objects(),
        vocab,
        order,
        report,
        out_bytes,
        stream: stream.map(|(chunk_s, delta_pairs)| StreamFacts {
            dataset,
            candidates: raw,
            chunk_s,
            delta_pairs,
        }),
        journal,
    })
}

/// The isolation arms of a traced job: the same labeling through the parts
/// of the program the platform path is built from, each under a span of its
/// own, after the job span has closed.
///
/// * `engine.partition` — `partition_candidates` alone;
/// * `engine.oracle_run` — `run_sharded_with_oracle` on the same order with
///   the ground truth as the oracle: labeler + closure + scheduler, no
///   platform. `engine.run − engine.oracle_run − sim.backend` is what the
///   platform path adds;
/// * `engine.run.unjournaled` (journaled workload) — the identical engine
///   run with the journal off, for `wal.overhead_s`;
/// * `wal.append` (journaled workload) — the journal's own records
///   re-appended to a fresh `Journal`, flushed per answer and fsynced per
///   barrier as the engine does.
///
/// # Errors
///
/// A message for any `Err` the program returns.
pub fn isolation_arms(
    workload: &Workload,
    set: &InputSet,
    out: &JobOutput,
    tr: &mut Tracer,
) -> Result<(), String> {
    let span = tr.begin("engine.partition");
    std::hint::black_box(partition_candidates(out.num_objects, &out.order, NUM_SHARDS));
    tr.end(span);

    let config = workload.engine(set, None);
    let span = tr.begin("engine.oracle_run");
    let oracle = SharedGroundTruth::new(&set.truth);
    std::hint::black_box(run_sharded_with_oracle(out.num_objects, &out.order, &oracle, &config));
    tr.end(span);

    let Some(journal) = &out.journal else { return Ok(()) };

    let platform = workload.platform(set);
    let engine = Engine::new(out.num_objects, &out.order, &set.truth, &platform, config);
    let span = tr.begin("engine.run.unjournaled");
    std::hint::black_box(engine.run().map_err(|e| format!("engine: {e}"))?);
    tr.end(span);

    let copy = set.journal.with_extension("copy");
    let span = tr.begin("wal.append");
    let sink = Journal::create(&copy, &journal.contents.header).map_err(|e| format!("{e}"))?;
    for record in &journal.contents.records {
        match record {
            wal::Record::Header(_) => Ok(()),
            wal::Record::Answer(_) => sink.append(record),
            _ => sink.append_durable(record),
        }
        .map_err(|e| format!("journal append: {e}"))?;
    }
    drop(sink);
    tr.end(span);
    std::fs::remove_file(&copy).map_err(|e| format!("cannot remove {copy:?}: {e}"))
}
