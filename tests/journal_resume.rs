//! Crash-safety tests for the answer journal: a multi-round AMT-platform
//! job killed after *every* round boundary (and in fact after every record,
//! and at arbitrary byte offsets) must resume to labels, money, and
//! per-shard stats **bit-identical** to an uninterrupted run, never
//! re-asking (re-paying) a journaled question — the crashed run's answers
//! plus the resumed run's new answers always total exactly the
//! uninterrupted run's.

use crowdjoin::sim::PlatformConfig;
use crowdjoin::wal::{self, WalError};
use crowdjoin::{Engine, EngineConfig, EngineReport, GroundTruth, Pair, ScoredPair};
use std::path::{Path, PathBuf};

/// 40 disjoint triangle components (120 objects). Even components are a
/// true 3-cluster, odd components all-distinct — the refuted deduction in
/// odd components forces a second publish round, so every shard crosses at
/// least one journaled round barrier.
fn workload() -> (usize, Vec<ScoredPair>, GroundTruth) {
    let num_components = 40;
    let num_objects = 3 * num_components;
    let mut entity: Vec<u32> = (0..num_objects as u32).collect();
    let mut pairs = Vec::with_capacity(3 * num_components);
    for c in 0..num_components {
        let base = (3 * c) as u32;
        if c % 2 == 0 {
            entity[base as usize + 1] = base;
            entity[base as usize + 2] = base;
        }
        let l = 0.95 - (c % 9) as f64 * 0.03;
        pairs.push(ScoredPair::new(Pair::new(base, base + 1), l));
        pairs.push(ScoredPair::new(Pair::new(base + 1, base + 2), l - 0.01));
        pairs.push(ScoredPair::new(Pair::new(base, base + 2), l - 0.02));
    }
    (num_objects, pairs, GroundTruth::new(entity))
}

fn engine_config() -> EngineConfig {
    EngineConfig { num_shards: 6, num_threads: 2, seed: 11, ..EngineConfig::default() }
}

fn platform_config() -> PlatformConfig {
    // Noisy workers: labels depend on worker RNG streams, so bit-identical
    // resume is only possible if the journal machinery reconstructs the
    // platforms exactly. The crowd is sized so every shard's even split
    // keeps at least `assignments_per_hit` qualified workers.
    PlatformConfig { num_workers: 120, ..PlatformConfig::amt_like(29) }
}

/// Unique scratch path for one test.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("crowdjoin-resume-{}-{name}", std::process::id()))
}

/// Bit-identical comparison: merged labels and provenance on every pair,
/// money, completion, and every per-shard report including platform stats.
fn assert_reports_identical(a: &EngineReport, b: &EngineReport, order: &[ScoredPair], ctx: &str) {
    assert_eq!(a.result.num_labeled(), b.result.num_labeled(), "{ctx}: labeled");
    assert_eq!(a.result.num_crowdsourced(), b.result.num_crowdsourced(), "{ctx}: crowdsourced");
    assert_eq!(a.result.num_conflicts(), b.result.num_conflicts(), "{ctx}: conflicts");
    assert_eq!(a.total_cost_cents, b.total_cost_cents, "{ctx}: money");
    assert_eq!(a.completion, b.completion, "{ctx}: completion");
    assert_eq!(a.num_crowd_answers(), b.num_crowd_answers(), "{ctx}: crowd answers");
    for sp in order {
        assert_eq!(a.result.label_of(sp.pair), b.result.label_of(sp.pair), "{ctx}: {}", sp.pair);
        assert_eq!(a.result.provenance_of(sp.pair), b.result.provenance_of(sp.pair), "{ctx}");
    }
    assert_eq!(a.shards.len(), b.shards.len(), "{ctx}: shard count");
    for (x, y) in a.shards.iter().zip(&b.shards) {
        assert_eq!(x.shard, y.shard, "{ctx}");
        assert_eq!(x.stats, y.stats, "{ctx}: shard {} platform stats", x.shard);
        assert_eq!(x.completion, y.completion, "{ctx}: shard {} completion", x.shard);
        assert_eq!(x.publish_rounds, y.publish_rounds, "{ctx}: shard {} rounds", x.shard);
    }
}

/// The journals of two runs of the same job must describe the same
/// history. Raw bytes can interleave shards differently across worker
/// threads, so compare the per-shard record streams.
fn assert_journals_equivalent(a: &Path, b: &Path, ctx: &str) {
    let ca = wal::read_journal(a).expect("journal a");
    let cb = wal::read_journal(b).expect("journal b");
    assert_eq!(ca.header, cb.header, "{ctx}: headers");
    let pa = wal::partition_replay(&ca.records);
    let pb = wal::partition_replay(&cb.records);
    assert_eq!(pa.shards, pb.shards, "{ctx}: per-shard record streams");
    assert_eq!(pa.complete, pb.complete, "{ctx}: completion records");
}

/// Runs the job uninterrupted, once plain and once journaled, returning
/// (plain report, journaled report, journal path).
fn run_journaled(name: &str) -> (EngineReport, EngineReport, PathBuf) {
    let (num_objects, order, truth) = workload();
    let platform = platform_config();
    let plain = Engine::new(num_objects, &order, &truth, &platform, engine_config())
        .run()
        .expect("plain run");

    let path = temp_path(name);
    let _ = std::fs::remove_file(&path);
    let config = EngineConfig { journal: Some(path.clone()), ..engine_config() };
    let journaled =
        Engine::new(num_objects, &order, &truth, &platform, config).run().expect("journaled run");
    (plain, journaled, path)
}

#[test]
fn journaling_does_not_perturb_the_run() {
    let (num_objects, order, _) = workload();
    let (plain, journaled, path) = run_journaled("perturb.wal");
    assert_reports_identical(&plain, &journaled, &order, "journaled vs plain");
    assert_eq!(journaled.num_replayed_answers(), 0, "fresh run replays nothing");

    let contents = wal::read_journal(&path).expect("journal readable");
    assert_eq!(contents.torn_bytes, 0);
    assert_eq!(contents.header.num_objects as usize, num_objects);
    let plan = wal::partition_replay(&contents.records);
    assert_eq!(plan.num_answers(), journaled.num_crowd_answers(), "one record per paid answer");
    let complete = plan.complete.expect("finished job has a completion record");
    assert_eq!(complete.answers as usize, journaled.num_crowd_answers());
    assert_eq!(complete.cost_cents, journaled.total_cost_cents);
    std::fs::remove_file(&path).expect("cleanup");
}

/// The headline acceptance test: kill the job after **every** journal
/// record — which includes every round barrier of every shard — and resume
/// each time. Labels, money, and per-shard stats must be bit-identical to
/// the uninterrupted run, and `journaled answers + newly asked answers`
/// must equal the uninterrupted run's crowdsourced-question count exactly:
/// no journaled question is ever re-asked.
#[test]
fn kill_at_every_record_resumes_bit_identically() {
    let (num_objects, order, truth) = workload();
    let platform = platform_config();
    let (_, full, path) = run_journaled("killer.wal");
    let contents = wal::read_journal(&path).expect("full journal");

    // Cut points: after the header only (offset of record 0), after every
    // record, and the complete file.
    let mut cuts: Vec<u64> = contents.offsets.clone();
    cuts.push(contents.valid_len);
    let cut_path = temp_path("killer-cut.wal");
    let bytes = std::fs::read(&path).expect("journal bytes");

    for (i, &cut) in cuts.iter().enumerate() {
        std::fs::write(&cut_path, &bytes[..cut as usize]).expect("write cut");
        let paid_before_crash =
            wal::partition_replay(&contents.records[..i.min(contents.records.len())]).num_answers();

        let resumed = Engine::new(num_objects, &order, &truth, &platform, engine_config())
            .resume(&cut_path)
            .unwrap_or_else(|e| panic!("resume at cut {i} failed: {e}"));

        assert_reports_identical(&full, &resumed, &order, &format!("cut {i}"));
        assert_eq!(
            resumed.num_replayed_answers(),
            paid_before_crash,
            "cut {i}: every journaled answer must be replayed, none re-asked"
        );
        assert_eq!(
            paid_before_crash + resumed.num_new_answers(),
            full.num_crowd_answers(),
            "cut {i}: crashed + resumed question count must equal the uninterrupted run's"
        );
        // The resumed journal must describe the same history as the
        // uninterrupted journal — ready for another crash and resume.
        assert_journals_equivalent(&path, &cut_path, &format!("cut {i}"));
    }
    std::fs::remove_file(&path).expect("cleanup");
    std::fs::remove_file(&cut_path).expect("cleanup");
}

/// Crashes do not respect record boundaries: resume must also work from
/// arbitrary byte-level truncations (torn tails), dropping only the torn
/// record.
#[test]
fn resume_from_torn_tails() {
    let (num_objects, order, truth) = workload();
    let platform = platform_config();
    let (_, full, path) = run_journaled("torn.wal");
    let bytes = std::fs::read(&path).expect("journal bytes");
    let cut_path = temp_path("torn-cut.wal");

    // A spread of raw byte offsets across the file, none on a boundary.
    for frac in [0.21, 0.433, 0.62, 0.871, 0.995] {
        let cut = ((bytes.len() as f64) * frac) as usize;
        std::fs::write(&cut_path, &bytes[..cut]).expect("write cut");
        let resumed = Engine::new(num_objects, &order, &truth, &platform, engine_config())
            .resume(&cut_path)
            .unwrap_or_else(|e| panic!("resume at byte {cut} failed: {e}"));
        assert_reports_identical(&full, &resumed, &order, &format!("byte cut {cut}"));
        assert_journals_equivalent(&path, &cut_path, &format!("byte cut {cut}"));
    }
    std::fs::remove_file(&path).expect("cleanup");
    std::fs::remove_file(&cut_path).expect("cleanup");
}

/// Resuming a finished job replays everything, asks nothing, and leaves
/// the journal byte-identical.
#[test]
fn resuming_a_finished_job_asks_nothing() {
    let (num_objects, order, truth) = workload();
    let platform = platform_config();
    let (_, full, path) = run_journaled("finished.wal");
    let before = std::fs::read(&path).expect("journal bytes");

    let resumed = Engine::new(num_objects, &order, &truth, &platform, engine_config())
        .resume(&path)
        .expect("resume of finished job");
    assert_reports_identical(&full, &resumed, &order, "finished resume");
    assert_eq!(resumed.num_new_answers(), 0, "a finished job asks nothing new");
    assert_eq!(resumed.num_replayed_answers(), full.num_crowd_answers());
    assert_eq!(std::fs::read(&path).expect("journal bytes"), before, "journal untouched");
    std::fs::remove_file(&path).expect("cleanup");
}

/// A journal must only resume the job that wrote it: different seeds,
/// platform, flags, or inputs are rejected at the header check, before a
/// single answer is replayed.
#[test]
fn resume_rejects_a_different_job() {
    let (num_objects, order, truth) = workload();
    let platform = platform_config();
    let (_, _, path) = run_journaled("mismatch.wal");

    let resume = |order: &[ScoredPair],
                  truth: &GroundTruth,
                  platform: &PlatformConfig,
                  config: &EngineConfig| {
        Engine::new(num_objects, order, truth, platform, config.clone()).resume(&path)
    };
    let base = engine_config();

    let cases: Vec<(&str, Result<EngineReport, WalError>)> = vec![
        (
            "engine seed",
            resume(&order, &truth, &platform, &EngineConfig { seed: 99, ..base.clone() }),
        ),
        ("platform seed", resume(&order, &truth, &PlatformConfig::amt_like(30), &base)),
        ("platform preset", resume(&order, &truth, &PlatformConfig::perfect_workers(29), &base)),
        (
            "shard count",
            resume(&order, &truth, &platform, &EngineConfig { num_shards: 5, ..base.clone() }),
        ),
        ("labeling order", resume(&order[1..], &truth, &platform, &base)),
        ("ground truth", resume(&order, &GroundTruth::all_distinct(num_objects), &platform, &base)),
    ];
    for (what, result) in cases {
        match result {
            Err(WalError::HeaderMismatch { .. }) => {}
            Ok(_) => panic!("resume with different {what} must be rejected"),
            Err(other) => panic!("resume with different {what}: wrong error {other}"),
        }
    }

    // The header's `ordering` byte is reserved (always written 0). A
    // journal started by an older build under a since-retired policy
    // (1 = exact, 2 = online) is this job in every other field, but its
    // crowdsourced set cannot be replayed here: the refusal must name the
    // field and leave the paid-for file untouched.
    let header = wal::read_journal(&path).expect("journal readable").header;
    assert_eq!(header.ordering, 0, "this build writes the reserved byte as 0");
    let retired_path = temp_path("retired-policy.wal");
    for byte in [1u8, 2] {
        let _ = std::fs::remove_file(&retired_path);
        drop(
            wal::Journal::create(&retired_path, &wal::JobHeader { ordering: byte, ..header })
                .expect("header-only journal"),
        );
        let before = std::fs::read(&retired_path).expect("journal bytes");
        match Engine::new(num_objects, &order, &truth, &platform, base.clone())
            .resume(&retired_path)
        {
            Err(e @ WalError::HeaderMismatch { .. }) => {
                let text = e.to_string();
                assert!(
                    text.contains("ordering") && text.contains("no longer has"),
                    "ordering byte {byte}: the refusal must name the retired policy field: {text}"
                );
            }
            Ok(_) => panic!("a journal with ordering byte {byte} must be refused"),
            Err(other) => panic!("ordering byte {byte}: wrong error {other}"),
        }
        assert_eq!(
            std::fs::read(&retired_path).expect("journal bytes"),
            before,
            "a refused journal must be left as it was"
        );
    }
    std::fs::remove_file(&retired_path).expect("cleanup");
    std::fs::remove_file(&path).expect("cleanup");
}

/// The header's `reshard` byte is reserved (always written 0). A journal
/// started by an older build with dynamic re-sharding is this job in every
/// other field, but its answers belong to shards this build never
/// creates: resume refuses it with a typed error naming the field and
/// leaves the paid-for file untouched.
#[test]
fn resume_refuses_a_re_sharded_journal() {
    let (num_objects, order, truth) = workload();
    let platform = platform_config();
    let (_, _, path) = run_journaled("resharded.wal");
    let header = wal::read_journal(&path).expect("journal readable").header;
    assert!(!header.reshard, "this build writes the reserved byte as 0");
    std::fs::remove_file(&path).expect("cleanup");

    let resharded = temp_path("resharded-header.wal");
    let _ = std::fs::remove_file(&resharded);
    drop(
        wal::Journal::create(&resharded, &wal::JobHeader { reshard: true, ..header })
            .expect("header-only journal"),
    );
    let before = std::fs::read(&resharded).expect("journal bytes");
    match Engine::new(num_objects, &order, &truth, &platform, engine_config()).resume(&resharded) {
        Err(e @ WalError::HeaderMismatch { .. }) => {
            let text = e.to_string();
            assert!(
                text.contains("reshard") && text.contains("no longer has"),
                "the refusal must name the retired re-sharding field: {text}"
            );
        }
        Ok(_) => panic!("a re-sharded journal must be refused"),
        Err(other) => panic!("wrong error: {other}"),
    }
    assert_eq!(
        std::fs::read(&resharded).expect("journal bytes"),
        before,
        "a refused journal must be left as it was"
    );
    std::fs::remove_file(&resharded).expect("cleanup");
}

/// A frame of the retired generation-barrier record (tag 4), as older
/// builds with dynamic re-sharding wrote it: CRC-valid, so only its tag
/// marks it.
const TAG4_FRAME: &str =
    "1d000000e4ea9ade0401000000020000000e64030000000000010000001100000000000000";

/// Tag 4 is no longer part of the format: a journal holding one is refused
/// as corrupt at that frame, by the reader and by resume alike, and the
/// paid-for file is left as it was.
#[test]
fn retired_generation_frame_is_refused_as_corrupt() {
    let (num_objects, order, truth) = workload();
    let platform = platform_config();
    let (_, _, path) = run_journaled("tag4.wal");
    let mut bytes = std::fs::read(&path).expect("journal bytes");
    let offset = bytes.len() as u64;
    bytes.extend(
        (0..TAG4_FRAME.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&TAG4_FRAME[i..i + 2], 16).expect("hex byte")),
    );
    std::fs::write(&path, &bytes).expect("append the tag-4 frame");

    let is_corrupt_at_frame =
        |r: &WalError| matches!(r, WalError::Corrupt { offset: o, .. } if *o == offset);
    match wal::read_journal(&path) {
        Err(e) => assert!(is_corrupt_at_frame(&e), "read_journal: wrong error {e}"),
        Ok(_) => panic!("read_journal must refuse a tag-4 frame"),
    }
    match Engine::new(num_objects, &order, &truth, &platform, engine_config()).resume(&path) {
        Err(e) => assert!(is_corrupt_at_frame(&e), "resume: wrong error {e}"),
        Ok(_) => panic!("resume must refuse a tag-4 frame"),
    }
    assert_eq!(
        std::fs::read(&path).expect("journal bytes"),
        bytes,
        "a refused journal was changed"
    );
    std::fs::remove_file(&path).expect("cleanup");
}

// ===== Streaming: a stream's input is its journal. A resume re-reads the =====
// ===== input; only the answers are journaled, as in a batch job.         =====

use crowdjoin::matcher::{generate_candidates, MatcherConfig, ScoredCandidate};
use crowdjoin::records::{generate_paper, ClusterSpec, Dataset, PaperGenConfig, PerturbConfig};
use crowdjoin::{sort_pairs, to_candidate_set, SortStrategy, StreamJob};

fn stream_dataset() -> Dataset {
    generate_paper(&PaperGenConfig {
        num_records: 60,
        clusters: ClusterSpec::Explicit(vec![(4, 5), (3, 6), (2, 6)]),
        perturb: PerturbConfig::light(),
        sibling_probability: 0.1,
        seed: 31,
    })
}

fn stream_matcher_config() -> MatcherConfig {
    MatcherConfig { min_likelihood: 0.2, ..MatcherConfig::for_arity(5) }
}

/// Ingest-batch size for the streaming tests.
const STREAM_BATCH: usize = 5;

/// Ingests records `from..to` of `ds` (external id = record index) in
/// [`STREAM_BATCH`]-record batches.
fn ingest_range(job: &mut StreamJob, ds: &Dataset, from: usize, to: usize) {
    let mut i = from;
    while i < to {
        let hi = (i + STREAM_BATCH).min(to);
        let batch: Vec<(u32, crowdjoin::records::Record)> =
            (i..hi).map(|r| (r as u32, ds.table.record(r).clone())).collect();
        job.ingest(&batch).expect("infallible");
        i = hi;
    }
}

fn stream_order(ds: &Dataset, candidates: &[ScoredCandidate]) -> Vec<ScoredPair> {
    let set = to_candidate_set(ds, candidates).above_threshold(0.3);
    sort_pairs(&set, SortStrategy::ExpectedLikelihood)
}

fn assert_candidates_identical(streamed: &[ScoredCandidate], batch: &[ScoredCandidate], ctx: &str) {
    assert_eq!(streamed.len(), batch.len(), "{ctx}: candidate count");
    for (s, b) in streamed.iter().zip(batch) {
        assert_eq!((s.a, s.b), (b.a, b.b), "{ctx}");
        assert_eq!(
            s.likelihood.to_bits(),
            b.likelihood.to_bits(),
            "{ctx}: likelihood bits on ({}, {})",
            s.a,
            s.b
        );
    }
}

/// The library-level acceptance test: kill the job **twice** — first
/// mid-ingest (the record log is in memory only, so nothing survives), then
/// after M crowd answers (cutting `FILE`) — and resume each time. The
/// restarted stream re-ingests its whole input and closes to the batch
/// candidates; the engine resume replays the Answer records; the final
/// report is bit-identical to an uninterrupted run and no journaled
/// question is ever re-asked.
#[test]
fn stream_killed_mid_ingest_and_mid_answers_resumes_bit_identically() {
    let ds = stream_dataset();
    let truth = GroundTruth::new(ds.entity_of.clone());
    let platform = platform_config();
    let batch = generate_candidates(&ds, &stream_matcher_config());
    let order = stream_order(&ds, &batch);
    assert!(order.len() >= 20, "workload must have enough pairs to matter");

    // Uninterrupted journaled reference run.
    let full_path = temp_path("stream-full.wal");
    let _ = std::fs::remove_file(&full_path);
    let config = EngineConfig { journal: Some(full_path.clone()), ..engine_config() };
    let full =
        Engine::new(ds.len(), &order, &truth, &platform, config).run().expect("reference run");

    // Kill N°1: mid-stream. The restart ingests the whole input again.
    let schema = ds.table.schema().clone();
    let mut job = StreamJob::new(schema.clone(), stream_matcher_config(), 11);
    ingest_range(&mut job, &ds, 0, ds.len() / 2);
    drop(job);
    let mut job = StreamJob::new(schema, stream_matcher_config(), 11);
    ingest_range(&mut job, &ds, 0, ds.len());
    let (_, streamed) = job.close().expect("infallible");
    assert_candidates_identical(&streamed, &batch, "restarted stream");

    // The engine phase over the streamed order, journaled.
    let sorder = stream_order(&ds, &streamed);
    let jpath = temp_path("stream.wal");
    let _ = std::fs::remove_file(&jpath);
    let config = EngineConfig { journal: Some(jpath.clone()), ..engine_config() };
    let run = Engine::new(ds.len(), &sorder, &truth, &platform, config).run().expect("engine run");
    assert_reports_identical(&full, &run, &order, "restarted stream");

    // Kill N°2: after M answers — cut the answer journal at record
    // boundaries and resume; bit-identical, never re-asking.
    let cut_path = temp_path("stream-cut.wal");
    for frac in [0.25, 0.6, 0.9] {
        let paid_before = cut_journal(&jpath, &cut_path, frac) as usize;
        let resumed = Engine::new(ds.len(), &sorder, &truth, &platform, engine_config())
            .resume(&cut_path)
            .unwrap_or_else(|e| panic!("resume after {paid_before} answers failed: {e}"));
        let ctx = format!("answer cut at {frac}");
        assert_reports_identical(&full, &resumed, &order, &ctx);
        assert_eq!(resumed.num_replayed_answers(), paid_before, "{ctx}: replay count");
        assert_eq!(
            paid_before + resumed.num_new_answers(),
            full.num_crowd_answers(),
            "{ctx}: crashed + resumed answers must equal the uninterrupted run's"
        );
    }
    for path in [&full_path, &jpath, &cut_path] {
        std::fs::remove_file(path).expect("cleanup");
    }
}

// ----- The same contract through the CLI: `join --stream DIR`. -----

/// A fresh directory for one CLI test.
fn cli_dir(name: &str) -> PathBuf {
    let dir = temp_path(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("chunks")).expect("create spool");
    dir
}

/// 250 Paper records: 200 for the four original chunks, 50 for the chunk
/// that arrives late.
fn cli_dataset() -> Dataset {
    generate_paper(&PaperGenConfig {
        num_records: 250,
        clusters: ClusterSpec::Explicit(vec![(6, 10), (4, 15), (2, 30)]),
        perturb: PerturbConfig::light(),
        sibling_probability: 0.1,
        seed: 43,
    })
}

/// Writes records `range` of `ds` as the JSONL chunk `dir/chunks/name`.
fn write_chunk(dir: &Path, name: &str, ds: &Dataset, range: std::ops::Range<usize>) {
    let fields = ds.table.schema().fields();
    let mut text = String::new();
    for r in range {
        let mut obj = crowdjoin::util::json::JsonObject::new();
        for (field, value) in fields.iter().zip(ds.table.record(r).values()) {
            obj.field(field, crowdjoin::util::json::js_str(value));
        }
        text.push_str(&obj.render());
        text.push('\n');
    }
    std::fs::write(dir.join("chunks").join(name), text).expect("write chunk");
}

/// The original spool: records 0..200 in `chunk-1` … `chunk-4`.
fn write_spool(dir: &Path, ds: &Dataset) {
    for c in 0..4 {
        write_chunk(dir, &format!("chunk-{}.jsonl", c + 1), ds, c * 50..(c + 1) * 50);
    }
}

/// Runs `join --stream DIR/chunks --platform perfect --shards 1` plus
/// `extra`, writing the labels to `DIR/csv`.
fn run_stream_cli(dir: &Path, csv: &str, extra: &[&str]) -> std::process::Output {
    let spool = dir.join("chunks");
    let out = dir.join(csv);
    let args = ["join", "--stream", spool.to_str().unwrap(), "--platform", "perfect"];
    let tail = ["--shards", "1", "--report", "json", "--output", out.to_str().unwrap()];
    std::process::Command::new(env!("CARGO_BIN_EXE_crowdjoin"))
        .args(args)
        .args(tail)
        .args(extra)
        .output()
        .expect("spawn crowdjoin binary")
}

fn assert_success(output: &std::process::Output, ctx: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{ctx}: crowdjoin failed: {stderr}");
}

/// The `engine.replayed_answers` field of a `--report json` document.
fn replayed_answers(output: &std::process::Output) -> u64 {
    use crowdjoin::util::json::{parse, Value};
    let doc = parse(&String::from_utf8_lossy(&output.stdout)).expect("report json");
    doc.get("engine")
        .and_then(|engine| engine.get("replayed_answers"))
        .and_then(Value::as_u64)
        .expect("engine.replayed_answers in the report")
}

/// Copies `full` to `cut` up to the start of the record at `frac` of its
/// records (a kill at that record boundary) and returns the answers paid
/// before the kill.
fn cut_journal(full: &Path, cut: &Path, frac: f64) -> u64 {
    let contents = wal::read_journal(full).expect("answer journal");
    let bytes = std::fs::read(full).expect("journal bytes");
    let idx = ((contents.offsets.len() - 1) as f64 * frac) as usize;
    std::fs::write(cut, &bytes[..contents.offsets[idx] as usize]).expect("cut");
    wal::partition_replay(&contents.records[..idx]).num_answers() as u64
}

/// (a) Killed after 25 / 60 / 90 % of its answer records, a stream resumes
/// from its re-read input plus `--resume FILE`: the journaled answers are
/// replayed, and the labels CSV and the journal end byte-identical to the
/// uninterrupted run's — so no journaled answer was asked (and appended)
/// again.
#[test]
fn cli_stream_resumes_from_its_input_bit_identically() {
    let dir = cli_dir("cli-resume");
    write_spool(&dir, &cli_dataset());
    let full = dir.join("full.wal");
    assert_success(
        &run_stream_cli(&dir, "full.csv", &["--journal", full.to_str().unwrap()]),
        "full",
    );
    let want_csv = std::fs::read(dir.join("full.csv")).expect("full csv");
    let want_journal = std::fs::read(&full).expect("full journal");
    let answers = wal::partition_replay(&wal::read_journal(&full).expect("journal").records);
    assert!(answers.num_answers() >= 20, "workload must have enough answers to matter");

    for frac in [0.25, 0.6, 0.9] {
        let cut = dir.join("cut.wal");
        let paid_before = cut_journal(&full, &cut, frac);
        let output = run_stream_cli(&dir, "cut.csv", &["--resume", cut.to_str().unwrap()]);
        let ctx = format!("cut at {frac}");
        assert_success(&output, &ctx);
        assert_eq!(std::fs::read(dir.join("cut.csv")).expect("csv"), want_csv, "{ctx}: labels");
        assert_eq!(replayed_answers(&output), paid_before, "{ctx}: replayed answers");
        assert!(std::fs::read(&cut).expect("journal") == want_journal, "{ctx}: journal bytes");
    }
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("list dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "stream"))
        .collect();
    assert!(leftovers.is_empty(), "a stream run wrote {leftovers:?}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// (b) A chunk that sorts first, added to the spool after the engine
/// started, changes the labeling order: `--resume` refuses the journal by
/// its order fingerprint and leaves it as it was.
#[test]
fn cli_stream_resume_refuses_a_changed_input() {
    let dir = cli_dir("cli-changed");
    let ds = cli_dataset();
    write_spool(&dir, &ds);
    let full = dir.join("full.wal");
    assert_success(
        &run_stream_cli(&dir, "full.csv", &["--journal", full.to_str().unwrap()]),
        "full",
    );
    let cut = dir.join("cut.wal");
    cut_journal(&full, &cut, 0.6);
    let before = std::fs::read(&cut).expect("journal bytes");

    write_chunk(&dir, "chunk-0.jsonl", &ds, 200..250);
    let output = run_stream_cli(&dir, "cut.csv", &["--resume", cut.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "a resume over a changed input must fail");
    assert!(
        stderr.contains("order_len") || stderr.contains("order_hash"),
        "the refusal must name the order fingerprint: {stderr}"
    );
    assert_eq!(
        std::fs::read(&cut).expect("journal bytes"),
        before,
        "a refused journal was changed"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// (c) Killed before the engine started, a stream has paid for nothing and
/// left no `FILE`. A chunk added meanwhile is simply part of the input:
/// `--resume FILE` starts the journal and equals a fresh run over the
/// current spool, byte for byte.
#[test]
fn cli_stream_killed_before_the_engine_runs_the_current_input() {
    let dir = cli_dir("cli-before-engine");
    let ds = cli_dataset();
    write_spool(&dir, &ds);
    write_chunk(&dir, "chunk-0.jsonl", &ds, 200..250);

    let fresh = dir.join("fresh.wal");
    let output = run_stream_cli(&dir, "fresh.csv", &["--journal", fresh.to_str().unwrap()]);
    assert_success(&output, "fresh");
    let resumed = dir.join("job.wal");
    let output = run_stream_cli(&dir, "resumed.csv", &["--resume", resumed.to_str().unwrap()]);
    assert_success(&output, "resume without a journal");
    assert_eq!(replayed_answers(&output), 0);
    assert_eq!(
        std::fs::read(dir.join("resumed.csv")).expect("csv"),
        std::fs::read(dir.join("fresh.csv")).expect("csv"),
        "labels"
    );
    assert_eq!(
        std::fs::read(&resumed).expect("journal"),
        std::fs::read(&fresh).expect("journal"),
        "journal bytes"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Starting a *new* journal over an existing non-empty file is refused —
/// it may hold paid-for answers.
#[test]
fn new_journal_refuses_to_overwrite() {
    let (num_objects, order, truth) = workload();
    let platform = platform_config();
    let (_, _, path) = run_journaled("overwrite.wal");

    let config = EngineConfig { journal: Some(path.clone()), ..engine_config() };
    match Engine::new(num_objects, &order, &truth, &platform, config).run() {
        Err(WalError::AlreadyExists(_)) => {}
        Ok(_) => panic!("running over an existing journal must be refused"),
        Err(other) => panic!("wrong error: {other}"),
    }
    std::fs::remove_file(&path).expect("cleanup");
}
