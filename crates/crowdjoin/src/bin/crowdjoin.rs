//! `crowdjoin` — command-line crowdsourced joins over CSV files.
//!
//! ```text
//! crowdjoin demo  [--seed N]
//! crowdjoin dedup --input FILE  [--threshold T] [--crowd auto|interactive]
//!                 [--auto-threshold X] [--output FILE] [--platform P [--shards N]]
//! crowdjoin join  --left FILE --right FILE  [same options]
//! crowdjoin join  --stream PATH  [--stream-chunk N] [same options]
//! ```
//!
//! * `demo` runs the paper's running example plus a generated workload and
//!   prints the savings summary — no files needed.
//! * `dedup` finds duplicate records within one CSV file (self join).
//! * `join` matches records across two CSV files with identical headers
//!   (cross join).
//! * `join --stream` is the streaming self-join: records arrive as JSONL
//!   (one file chunked by `--stream-chunk`, or a spool-style directory of
//!   `*.jsonl` chunk files processed in name order), and the closed stream
//!   feeds the ordinary labeling path — bit-identical to a batch run over
//!   the same records. With `--journal FILE` every ingest is write-ahead
//!   logged to `FILE.stream` so a killed stream resumes with
//!   `--resume FILE`.
//!
//! Crowd modes: `interactive` asks *you* to label each undeduced pair on
//! stdin (a crowd of one); `auto` (default) labels a pair matching iff its
//! machine likelihood is at least `--auto-threshold` (default 0.8) — a
//! self-labeling heuristic for pipelines without humans; deductions then
//! propagate those decisions transitively either way. Both answer at once,
//! so both run the sequential labeler, which asks the fewest questions.
//! `--platform` (or `--backend spool`) instead puts a crowd with latency
//! behind the sharded event-loop engine; `--shards` sizes that engine.
//!
//! Output is CSV with columns `a,b,label,provenance,likelihood` (record
//! indices are 0-based row numbers; for `join`, right-file indices continue
//! after the left file's).

use crowdjoin::records::{
    table_from_csv, table_from_jsonl, write_csv, Dataset, Record, Schema, Table,
};
use crowdjoin::report::{
    EngineBackend, JournalOutcome, MatcherTimings, ProgressLine, ReportFormat, Reporter,
};
use crowdjoin::{
    enforce_one_to_one, resolve_entities, sort_pairs, to_candidate_set, Label, LabelingResult,
    Oracle, Pair, Provenance, ScoredPair, SortStrategy,
};
use crowdjoin_matcher::{generate_candidates_prepared, MatcherConfig, TfIdfIndex, TokenizedCorpus};
use crowdjoin_util::FxHashMap;
use std::io::{BufRead, Write};
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Demo {
        seed: u64,
    },
    Dedup {
        input: String,
        opts: JoinOpts,
    },
    Join {
        left: String,
        right: String,
        opts: JoinOpts,
    },
    /// `join --stream PATH`: the streaming self-join.
    Stream {
        input: String,
        opts: JoinOpts,
    },
}

#[derive(Debug, Clone, PartialEq)]
struct JoinOpts {
    threshold: f64,
    crowd: CrowdMode,
    auto_threshold: f64,
    output: Option<String>,
    /// Emit resolved entity clusters instead of pair labels.
    resolve: bool,
    /// Enforce a one-to-one constraint on the matches (cross joins of
    /// internally deduplicated tables).
    one_to_one: bool,
    /// Platform mode: shard count of the execution engine (`None` = 1,
    /// 0 = one shard per CPU, N = N shards).
    shards: Option<usize>,
    /// Simulated-crowd mode: drive the event-loop engine against a
    /// deterministic platform and report cost/latency Table-1 style.
    platform: Option<PlatformPreset>,
    /// Which crowd backend answers the published HITs.
    backend: BackendKind,
    /// Spool directory of the spool backend (`--backend spool`).
    spool: Option<String>,
    /// Seed for the simulated platform.
    seed: u64,
    /// Write-ahead journal every crowd answer to this file (platform mode
    /// only); a killed run resumes with `--resume`.
    journal: Option<String>,
    /// Resume a killed journaled run from this file (platform mode only).
    resume: Option<String>,
    /// Platform override: pairs per HIT.
    batch_size: Option<usize>,
    /// Platform override: workers in the simulated crowd.
    crowd_size: Option<usize>,
    /// Platform override: cents per completed assignment.
    price: Option<u32>,
    /// Print a per-phase wall-clock breakdown (tokenize / index /
    /// candidates / join) to stderr.
    timings: bool,
    /// Final-report format: progressive stderr lines, or one JSON document
    /// on stdout.
    report: ReportFormat,
    /// Write a JSONL trace of engine/matcher/backend events to this file
    /// (plus a Chrome-trace twin at `FILE.chrome.json` for Perfetto).
    trace: Option<String>,
    /// Write the final metrics-registry snapshot (JSON) to this file.
    metrics: Option<String>,
    /// Repaint a live stderr progress line while a spool-backed job waits
    /// on its external crowd.
    progress: bool,
    /// `join --stream` only: records per ingest batch when the stream
    /// input is a single JSONL file (`None` = the 512 default; a
    /// directory input ingests one chunk per file regardless).
    stream_chunk: Option<usize>,
}

/// Default ingest-batch size for a single-file `--stream` input.
const DEFAULT_STREAM_CHUNK: usize = 512;

impl Default for JoinOpts {
    fn default() -> Self {
        Self {
            threshold: 0.3,
            crowd: CrowdMode::Auto,
            auto_threshold: 0.8,
            output: None,
            resolve: false,
            one_to_one: false,
            shards: None,
            platform: None,
            backend: BackendKind::Sim,
            spool: None,
            seed: 42,
            journal: None,
            resume: None,
            batch_size: None,
            crowd_size: None,
            price: None,
            timings: false,
            report: ReportFormat::Human,
            trace: None,
            metrics: None,
            progress: false,
            stream_chunk: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrowdMode {
    Auto,
    Interactive,
}

/// Who answers the engine's published HITs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackendKind {
    /// The in-process discrete-event simulator (default).
    Sim,
    /// The spool-directory backend: HITs out as JSON files, answers read
    /// back from an external process or human.
    Spool,
}

/// Worker-pool profile of the simulated platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlatformPreset {
    /// The paper's Table 1 setting: AMT latency model, perfectly accurate
    /// workers.
    Perfect,
    /// The Table 2 setting: 25% spammers, qualification test, majority vote.
    Amt,
}

const USAGE: &str = "usage:
  crowdjoin demo  [--seed N]
  crowdjoin dedup --input FILE  [options]
  crowdjoin join  --left FILE --right FILE  [options]
  crowdjoin join  --stream PATH  [options]

options:
  --stream PATH         join only: streaming self-join. Arrivals come from
                        PATH instead of --left/--right: a JSONL file (one
                        object per line, ingested in --stream-chunk
                        batches) or a spool-style directory of *.jsonl
                        chunk files (processed in name order, one ingest
                        batch per file). The closed stream is bit-identical
                        to a batch run over the same records.
                        With --journal FILE each ingest is write-ahead
                        logged to FILE.stream before it is applied, so a
                        killed stream resumes with --resume FILE (re-pass
                        the same input and flags)
  --stream-chunk N      records per ingest batch for a single-file --stream
                        input (default 512)
  --threshold T         machine-likelihood threshold for candidates (default 0.3)
  --crowd MODE          auto | interactive (default auto)
  --auto-threshold X    auto crowd answers matching iff likelihood >= X (default 0.8)
  --output FILE         write CSV here instead of stdout
  --resolve yes         output entity clusters instead of pair labels
  --one-to-one yes      keep at most one match per record (join only)
  --shards N            platform mode: partition the job into N engine
                        shards, one platform each (0 = one per CPU;
                        default 1). Refused without --platform: a crowd
                        that answers at once runs the sequential labeler
  --platform PRESET     simulate the crowd on the event-loop engine and
                        report cost/completion Table-1 style:
                        perfect (accurate workers) | amt (25% spammers,
                        majority vote). Labels come from the simulated run;
                        ground truth is the auto-threshold clustering.
  --backend KIND        who answers the published HITs: sim (the in-process
                        simulator, default) | spool (publish HITs as JSON
                        files into --spool DIR/hits and poll DIR/answers —
                        an external process or human answers them; implies
                        --platform perfect for batch/price defaults)
  --spool DIR           spool directory of --backend spool
  --seed N              seed for the simulated platform (default 42)
  --journal FILE        platform mode: append every crowd answer to a
                        crash-safe write-ahead journal; a killed run
                        resumes with --resume without re-paying the crowd
  --resume FILE         platform mode: resume a killed journaled run —
                        replays the journaled answers, asks only the rest,
                        and keeps appending to FILE (pass the same input
                        and flags as the original run)
  --batch-size N        platform mode: pairs per HIT (default 20)
  --crowd-size N        platform mode: size of the simulated worker pool
                        (default 40; split evenly across shards). This is
                        THE platform-capacity knob; the separate --crowd
                        flag picks the answering mode, not a size.
  --price CENTS         platform mode: cents per completed assignment
                        (default 2)
  --timings yes         print a per-phase wall-clock breakdown (tokenize /
                        tf-idf index / prefix index / candidate generation /
                        join) plus the probe-block filter-cascade decisions
                        to stderr — see where time goes on large inputs
  --report FORMAT       human (progressive stderr lines, default) | json
                        (one machine-readable report document on stdout at
                        the end; the labels CSV then only appears with
                        --output FILE)
  --trace FILE          record a structured event trace of the run: JSONL
                        at FILE plus a Chrome-trace twin at
                        FILE.chrome.json (open in Perfetto / about:tracing)
  --metrics FILE        write the final counters/gauges/histograms snapshot
                        (JSON) to FILE
  --progress yes        spool backend only: repaint a live stderr line
                        (answers so far, pairs awaiting the crowd) while
                        the job waits on its external answerer";

/// Parses argv (without the program name). Pure for testability.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let sub = it.next().ok_or_else(|| USAGE.to_string())?;
    let mut flags: FxHashMap<String, String> = FxHashMap::default();
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {:?}\n{USAGE}", rest[i]))?;
        let value =
            rest.get(i + 1).ok_or_else(|| format!("flag --{key} needs a value\n{USAGE}"))?;
        if flags.insert(key.to_string(), value.to_string()).is_some() {
            return Err(format!("duplicate flag --{key}"));
        }
        i += 2;
    }
    let mut take = |name: &str| flags.remove(name);
    let parse_opts = |flags: &mut dyn FnMut(&str) -> Option<String>| -> Result<JoinOpts, String> {
        let mut opts = JoinOpts::default();
        if let Some(t) = flags("threshold") {
            opts.threshold = t.parse().map_err(|_| format!("--threshold: not a number: {t:?}"))?;
            // The matcher runs at this floor, which must be a likelihood.
            if !(0.0..=1.0).contains(&opts.threshold) {
                return Err(format!("--threshold must be in [0, 1], got {t}"));
            }
        }
        if let Some(c) = flags("crowd") {
            opts.crowd = match c.as_str() {
                "auto" => CrowdMode::Auto,
                "interactive" => CrowdMode::Interactive,
                other if other.parse::<usize>().is_ok() => {
                    return Err(format!(
                        "--crowd picks the answering mode (auto|interactive), not a size; \
                         did you mean --crowd-size {other} (simulated worker-pool size)?"
                    ))
                }
                other => return Err(format!("--crowd must be auto|interactive, got {other:?}")),
            };
        }
        if let Some(x) = flags("auto-threshold") {
            opts.auto_threshold =
                x.parse().map_err(|_| format!("--auto-threshold: not a number: {x:?}"))?;
        }
        let parse_bool = |name: &str, v: String| match v.as_str() {
            "yes" | "true" | "1" => Ok(true),
            "no" | "false" | "0" => Ok(false),
            other => Err(format!("--{name} must be yes|no, got {other:?}")),
        };
        if let Some(v) = flags("resolve") {
            opts.resolve = parse_bool("resolve", v)?;
        }
        if let Some(v) = flags("one-to-one") {
            opts.one_to_one = parse_bool("one-to-one", v)?;
        }
        if let Some(v) = flags("timings") {
            opts.timings = parse_bool("timings", v)?;
        }
        if let Some(r) = flags("report") {
            opts.report = match r.as_str() {
                "human" => ReportFormat::Human,
                "json" => ReportFormat::Json,
                other => return Err(format!("--report must be human|json, got {other:?}")),
            };
        }
        opts.trace = flags("trace");
        opts.metrics = flags("metrics");
        if let Some(v) = flags("progress") {
            opts.progress = parse_bool("progress", v)?;
        }
        if let Some(c) = flags("stream-chunk") {
            let n: usize = c.parse().map_err(|_| format!("--stream-chunk: not a number: {c:?}"))?;
            if n == 0 {
                return Err("--stream-chunk must be at least 1 record per batch".to_string());
            }
            opts.stream_chunk = Some(n);
        }
        if let Some(s) = flags("shards") {
            opts.shards = Some(s.parse().map_err(|_| format!("--shards: not a number: {s:?}"))?);
        }
        if let Some(p) = flags("platform") {
            opts.platform = Some(match p.as_str() {
                "perfect" => PlatformPreset::Perfect,
                "amt" => PlatformPreset::Amt,
                other => return Err(format!("--platform must be perfect|amt, got {other:?}")),
            });
        }
        if let Some(s) = flags("seed") {
            opts.seed = s.parse().map_err(|_| format!("--seed: not a number: {s:?}"))?;
        }
        if let Some(b) = flags("batch-size") {
            let n = b.parse().map_err(|_| format!("--batch-size: not a number: {b:?}"))?;
            if n == 0 {
                return Err("--batch-size must be at least 1 pair per HIT".to_string());
            }
            opts.batch_size = Some(n);
        }
        if let Some(c) = flags("crowd-size") {
            if matches!(c.as_str(), "auto" | "interactive") {
                return Err(format!(
                    "--crowd-size is the simulated worker-pool size (a number); for the \
                     answering mode use --crowd {c}"
                ));
            }
            let n: usize = c.parse().map_err(|_| format!("--crowd-size: not a number: {c:?}"))?;
            // Every HIT needs `assignments_per_hit` (3 in both presets)
            // distinct workers to resolve.
            if n < 3 {
                return Err(format!(
                    "--crowd-size must be at least 3 (each HIT needs 3 distinct workers for \
                     its majority vote), got {n}"
                ));
            }
            opts.crowd_size = Some(n);
        }
        if let Some(p) = flags("price") {
            opts.price = Some(p.parse().map_err(|_| format!("--price: not a number: {p:?}"))?);
        }
        opts.journal = flags("journal");
        opts.resume = flags("resume");
        if opts.journal.is_some() && opts.resume.is_some() {
            return Err("--journal starts a new journal and --resume continues an existing \
                        one; pass exactly one"
                .to_string());
        }
        let backend_given = flags("backend");
        if let Some(b) = &backend_given {
            opts.backend = match b.as_str() {
                "sim" => BackendKind::Sim,
                "spool" => BackendKind::Spool,
                other => return Err(format!("--backend must be sim|spool, got {other:?}")),
            };
        }
        opts.spool = flags("spool");
        if opts.spool.is_some() && opts.backend != BackendKind::Spool {
            return Err("--spool only applies to --backend spool".to_string());
        }
        match opts.backend {
            BackendKind::Spool => {
                if opts.spool.is_none() {
                    return Err("--backend spool requires --spool DIR (where HITs are \
                                published and answers are read back)"
                        .to_string());
                }
                // The preset only supplies batch-size/price defaults for an
                // external crowd; imply one so `--backend spool` works
                // standalone.
                if opts.platform.is_none() {
                    opts.platform = Some(PlatformPreset::Perfect);
                }
            }
            BackendKind::Sim => {
                if backend_given.is_some() && opts.platform.is_none() {
                    return Err(
                        "--backend sim requires --platform perfect|amt (the backend answers \
                         the simulated platform run)"
                            .to_string(),
                    );
                }
            }
        }
        if opts.progress && opts.backend != BackendKind::Spool {
            return Err("--progress tracks a wall-clock crowd; it requires --backend spool \
                        (simulated runs finish in virtual time)"
                .to_string());
        }
        let platform_only: [(&str, bool); 6] = [
            ("--shards", opts.shards.is_some()),
            ("--journal", opts.journal.is_some()),
            ("--resume", opts.resume.is_some()),
            ("--batch-size", opts.batch_size.is_some()),
            ("--crowd-size", opts.crowd_size.is_some()),
            ("--price", opts.price.is_some()),
        ];
        if opts.platform.is_none() {
            if let Some((flag, _)) = platform_only.iter().find(|(_, set)| *set) {
                return Err(format!("{flag} requires --platform perfect|amt"));
            }
        }
        opts.output = flags("output");
        Ok(opts)
    };

    let cmd = match sub.as_str() {
        "demo" => {
            let seed = match take("seed") {
                Some(s) => s.parse().map_err(|_| format!("--seed: not a number: {s:?}"))?,
                None => 42,
            };
            Command::Demo { seed }
        }
        "dedup" => {
            if take("stream").is_some() {
                return Err("--stream belongs to the join command (a streaming self-join): \
                            crowdjoin join --stream PATH"
                    .to_string());
            }
            let input = take("input").ok_or("dedup requires --input FILE")?;
            let opts = parse_opts(&mut take)?;
            if opts.stream_chunk.is_some() {
                return Err("--stream-chunk requires --stream".to_string());
            }
            Command::Dedup { input, opts }
        }
        "join" => match take("stream") {
            Some(input) => {
                if take("left").is_some() || take("right").is_some() {
                    return Err("--stream reads arrivals from its own file/directory (a \
                                streaming self-join); drop --left/--right"
                        .to_string());
                }
                Command::Stream { input, opts: parse_opts(&mut take)? }
            }
            None => {
                let left = take("left")
                    .ok_or("join requires --left FILE (or --stream PATH for streaming)")?;
                let right = take("right").ok_or("join requires --right FILE")?;
                let opts = parse_opts(&mut take)?;
                if opts.stream_chunk.is_some() {
                    return Err("--stream-chunk requires --stream".to_string());
                }
                Command::Join { left, right, opts }
            }
        },
        other => return Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    if let Some(stray) = flags.keys().next() {
        return Err(format!("unknown flag --{stray}\n{USAGE}"));
    }
    Ok(cmd)
}

/// Oracle that auto-answers from the machine likelihood.
struct AutoOracle {
    likelihoods: FxHashMap<Pair, f64>,
    cutoff: f64,
    asked: u64,
}

impl Oracle for AutoOracle {
    fn answer(&mut self, pair: Pair) -> Label {
        self.asked += 1;
        let l = self.likelihoods.get(&pair).copied().unwrap_or(0.0);
        if l >= self.cutoff {
            Label::Matching
        } else {
            Label::NonMatching
        }
    }

    fn questions_asked(&self) -> u64 {
        self.asked
    }
}

/// Oracle that asks the human on stdin.
struct InteractiveOracle<'a> {
    dataset: &'a Dataset,
    asked: u64,
}

impl Oracle for InteractiveOracle<'_> {
    fn answer(&mut self, pair: Pair) -> Label {
        self.asked += 1;
        let schema = self.dataset.table.schema();
        eprintln!("\n--- pair {} of record #{} vs #{} ---", self.asked, pair.a(), pair.b());
        for (i, field) in schema.fields().iter().enumerate() {
            eprintln!(
                "  {field:>12}: {:40}  |  {}",
                self.dataset.table.record(pair.a() as usize).field(i),
                self.dataset.table.record(pair.b() as usize).field(i),
            );
        }
        loop {
            eprint!("same entity? [y/n] ");
            let _ = std::io::stderr().flush();
            let mut line = String::new();
            if std::io::stdin().lock().read_line(&mut line).unwrap_or(0) == 0 {
                eprintln!("(stdin closed — answering 'n')");
                return Label::NonMatching;
            }
            match line.trim().to_lowercase().as_str() {
                "y" | "yes" => return Label::Matching,
                "n" | "no" => return Label::NonMatching,
                _ => eprintln!("please answer y or n"),
            }
        }
    }

    fn questions_asked(&self) -> u64 {
        self.asked
    }
}

fn load_table(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    table_from_csv(&text).map_err(|e| format!("{path}: {e}"))
}

/// Runs `job` on the backends `factory` creates, or resumes it from the
/// journal at `resume`.
fn run_or_resume<F: crowdjoin::BackendFactory>(
    job: &crowdjoin::Engine<'_>,
    factory: &F,
    resume: Option<&str>,
) -> Result<crowdjoin::EngineReport, String> {
    match resume {
        Some(path) => job
            .resume_with_backend(std::path::Path::new(path), factory)
            .map_err(|e| format!("--resume {path}: {e}")),
        None => job.run_with_backend(factory).map_err(|e| format!("--journal: {e}")),
    }
}

/// `--platform` mode: run the whole crowdsourced job on the event-loop
/// engine — one crowd backend per shard, thousands of shards on a bounded
/// worker pool — and report money/latency the way the paper's Table 1
/// does. With the default sim backend, deterministic simulated workers
/// answer according to the auto-threshold clustering (likelihood ≥ cutoff,
/// made transitively consistent), so the run predicts what a real crowd
/// posting would cost before any money is spent; with `--backend spool`
/// the same clustering is only the *expected* answer written into the HIT
/// files, and whoever watches the spool directory decides.
fn simulate_on_platform(
    num_objects: usize,
    order: &[ScoredPair],
    opts: &JoinOpts,
    preset: PlatformPreset,
    reporter: &mut Reporter,
) -> Result<LabelingResult, String> {
    use crowdjoin::graph::UnionFind;
    use crowdjoin::sim::PlatformConfig;

    let mut uf = UnionFind::new(num_objects);
    for sp in order {
        if sp.likelihood >= opts.auto_threshold {
            uf.union(sp.pair.a(), sp.pair.b());
        }
    }
    let truth = crowdjoin::GroundTruth::new(uf.component_ids());
    let mut platform = match preset {
        PlatformPreset::Perfect => PlatformConfig::perfect_workers(opts.seed),
        PlatformPreset::Amt => PlatformConfig::amt_like(opts.seed),
    };
    if let Some(batch_size) = opts.batch_size {
        platform.batch_size = batch_size;
    }
    if let Some(crowd_size) = opts.crowd_size {
        platform.num_workers = crowd_size;
    }
    if let Some(price) = opts.price {
        platform.price_per_assignment_cents = price;
    }
    let engine = crowdjoin::EngineConfig {
        num_shards: opts.shards.unwrap_or(1),
        seed: opts.seed,
        journal: opts.journal.clone().map(std::path::PathBuf::from),
        ..crowdjoin::EngineConfig::default()
    };
    let progress = if opts.progress { Some(ProgressLine::start()) } else { None };
    let job = crowdjoin::Engine::new(num_objects, order, &truth, &platform, engine);
    let resume = opts.resume.as_deref();
    let report = match opts.backend {
        BackendKind::Spool => {
            let dir = opts.spool.as_deref().expect("--backend spool always carries --spool");
            let factory = crowdjoin::backend_spool::SpoolFactory::new(
                crowdjoin::backend_spool::SpoolConfig::new(dir),
            )
            .map_err(|e| format!("--spool {dir}: {e}"))?;
            reporter.note(&format!(
                "spool backend: publishing HITs into {dir}/hits/, waiting on {dir}/answers/ \
                 (any process — or human — may answer; see the README's \"Bring your own \
                 crowd\" walkthrough)"
            ));
            run_or_resume(&job, &factory, resume)?
        }
        BackendKind::Sim => run_or_resume(&job, &crowdjoin::SimFactory::new(), resume)?,
    };
    if let Some(line) = progress {
        line.finish();
    }

    let backend = match opts.backend {
        BackendKind::Sim => EngineBackend::Sim,
        BackendKind::Spool => EngineBackend::Spool,
    };
    let journal = if let Some(path) = &opts.resume {
        JournalOutcome::Resumed(path)
    } else if let Some(path) = &opts.journal {
        JournalOutcome::Journaled(path)
    } else {
        JournalOutcome::None
    };
    reporter.platform_summary(&report, backend, journal);
    Ok(report.result)
}

/// Installs the `--trace` sinks and resets the metrics registry. Must run
/// before any matcher/stream stage so their spans land in the trace and
/// the registry starts clean for this job.
fn setup_observability(opts: &JoinOpts) -> Result<(), String> {
    if let Some(path) = &opts.trace {
        let jsonl = crowdjoin::obs::JsonlSink::create(std::path::Path::new(path))
            .map_err(|e| format!("--trace {path}: {e}"))?;
        let chrome_path = format!("{path}.chrome.json");
        let chrome = crowdjoin::obs::ChromeTraceSink::create(std::path::Path::new(&chrome_path))
            .map_err(|e| format!("--trace {chrome_path}: {e}"))?;
        crowdjoin::obs::install_sink(Box::new(jsonl));
        crowdjoin::obs::install_sink(Box::new(chrome));
    }
    crowdjoin::obs::reset_metrics();
    Ok(())
}

fn run_join(dataset: &Dataset, opts: &JoinOpts) -> Result<(), String> {
    setup_observability(opts)?;
    let reporter = Reporter::new(opts.report);

    let arity = dataset.table.schema().arity();
    // The matcher stage runs in explicit phases; each library stage
    // publishes its own wall time into the metrics registry
    // (`matcher.*.us` counters), which `--timings` reads back at the end —
    // no CLI-side stopwatches for the matcher phases.
    let matcher_cfg =
        MatcherConfig { min_likelihood: opts.threshold, ..MatcherConfig::for_arity(arity) };
    let corpus = TokenizedCorpus::build_threaded(dataset, matcher_cfg.threads);
    let tfidf =
        TfIdfIndex::from_corpus_threaded(&corpus, &matcher_cfg.field_weights, matcher_cfg.threads);
    let candidates_raw = generate_candidates_prepared(dataset, &corpus, &tfidf, &matcher_cfg);
    finish_join(dataset, &candidates_raw, opts, reporter)
}

/// Everything downstream of candidate generation — thresholding, labeling
/// (sequential, or the engine on a platform), constraint cleanup, CSV
/// output, and report/trace/metrics flushing. Shared verbatim by the batch path
/// ([`run_join`]) and the streaming path ([`run_stream`]), which is what
/// makes a closed stream's labels/money/reports equal to batch by
/// construction.
fn finish_join(
    dataset: &Dataset,
    candidates_raw: &[crowdjoin_matcher::ScoredCandidate],
    opts: &JoinOpts,
    mut reporter: Reporter,
) -> Result<(), String> {
    let candidates = to_candidate_set(dataset, candidates_raw).above_threshold(opts.threshold);
    reporter.candidates(dataset.len(), candidates.len(), opts.threshold);
    let clock = std::time::Instant::now();

    let order: Vec<ScoredPair> = sort_pairs(&candidates, SortStrategy::ExpectedLikelihood);
    // Without a platform the crowd answers at once: the sequential labeler
    // asks it the provably minimal question sequence, while batch
    // publishing would ask strictly more (a batch is chosen before any of
    // its answers arrive) and buy nothing back.
    let result: LabelingResult = if let Some(preset) = opts.platform {
        if opts.crowd == CrowdMode::Interactive {
            return Err(
                "--platform simulates a crowd; it cannot be combined with --crowd interactive"
                    .to_string(),
            );
        }
        simulate_on_platform(candidates.num_objects(), &order, opts, preset, &mut reporter)?
    } else {
        let mut oracle: Box<dyn Oracle + '_> = match opts.crowd {
            CrowdMode::Auto => Box::new(AutoOracle {
                likelihoods: order.iter().map(|sp| (sp.pair, sp.likelihood)).collect(),
                cutoff: opts.auto_threshold,
                asked: 0,
            }),
            CrowdMode::Interactive => Box::new(InteractiveOracle { dataset, asked: 0 }),
        };
        crowdjoin::label_sequential(candidates.num_objects(), &order, oracle.as_mut())
    };
    // The labeling stage is the CLI's own phase (the library stages above
    // publish theirs); same registry, same read-back path.
    crowdjoin::obs::counter("join.label.us", crowdjoin::obs::NO_SHARD)
        .add(clock.elapsed().as_micros() as u64);
    reporter.labeled(&result);
    if opts.timings {
        reporter.timings(&MatcherTimings::from_metrics());
    }

    let likelihood_of: FxHashMap<Pair, f64> =
        order.iter().map(|sp| (sp.pair, sp.likelihood)).collect();

    // Optional one-to-one cleanup: demote conflicting matches.
    let mut demoted: crowdjoin_util::FxHashSet<Pair> = Default::default();
    if opts.one_to_one {
        let matches: Vec<ScoredPair> = order
            .iter()
            .copied()
            .filter(|sp| result.label_of(sp.pair) == Some(Label::Matching))
            .collect();
        let outcome = enforce_one_to_one(&matches);
        demoted = outcome.demoted.iter().map(|sp| sp.pair).collect();
        if !demoted.is_empty() {
            reporter.note(&format!("one-to-one constraint demoted {} match(es)", demoted.len()));
        }
    }
    let effective_label = |pair: Pair, label: Label| {
        if demoted.contains(&pair) {
            Label::NonMatching
        } else {
            label
        }
    };

    let csv = if opts.resolve {
        // Entity clusters: rebuild a result view with demotions applied.
        let mut adjusted = LabelingResult::new();
        for lp in result.labeled_pairs() {
            adjusted.record(lp.pair, effective_label(lp.pair, lp.label), lp.provenance);
        }
        let resolution = resolve_entities(dataset.len(), &adjusted);
        if !resolution.is_consistent() {
            reporter.note(&format!(
                "warning: {} non-matching label(s) inside clusters (inconsistent answers)",
                resolution.intra_cluster_nonmatches.len()
            ));
        }
        let mut rows = vec![vec!["entity".to_string(), "record".to_string()]];
        for (entity, cluster) in resolution.clusters.iter().enumerate() {
            for &record in cluster {
                rows.push(vec![entity.to_string(), record.to_string()]);
            }
        }
        write_csv(&rows)
    } else {
        let mut rows = vec![vec![
            "a".to_string(),
            "b".to_string(),
            "label".to_string(),
            "provenance".to_string(),
            "likelihood".to_string(),
        ]];
        for lp in result.labeled_pairs() {
            rows.push(vec![
                lp.pair.a().to_string(),
                lp.pair.b().to_string(),
                effective_label(lp.pair, lp.label).to_string(),
                match lp.provenance {
                    Provenance::Crowdsourced => "crowdsourced".to_string(),
                    Provenance::Deduced => "deduced".to_string(),
                },
                format!("{:.4}", likelihood_of.get(&lp.pair).copied().unwrap_or(0.0)),
            ]);
        }
        write_csv(&rows)
    };
    match &opts.output {
        Some(path) => {
            std::fs::write(path, csv).map_err(|e| format!("cannot write {path:?}: {e}"))?
        }
        // In JSON-report mode stdout carries exactly one document; the
        // labels CSV is only emitted when routed to a file.
        None if opts.report == ReportFormat::Json => {}
        None => print!("{csv}"),
    }

    // Flush the trace before declaring success: a truncated trace file is
    // an error the user should see, not silently keep.
    crowdjoin::obs::finish_sinks().map_err(|e| format!("--trace: {e}"))?;
    if let Some(path) = &opts.metrics {
        std::fs::write(path, crowdjoin::obs::metrics_json())
            .map_err(|e| format!("--metrics {path}: {e}"))?;
    }
    if let Some(doc) = reporter.finish() {
        print!("{doc}");
    }
    Ok(())
}

/// Loads the `--stream` input as ingest batches plus the common schema.
///
/// * A file is one JSONL stream, split into `chunk`-record batches.
/// * A directory is a spool: every `*.jsonl` file in it, in name order, is
///   one batch — the shape an external producer drops chunks in. A resumed
///   run re-reads the same spool (the journal replay skips the prefix
///   already ingested), so later-sorting files dropped after a kill are
///   picked up.
fn load_stream_chunks(input: &str, chunk: usize) -> Result<(Schema, Vec<Vec<Record>>), String> {
    let path = std::path::Path::new(input);
    if path.is_dir() {
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("--stream {input}: {e}"))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("--stream {input}: no *.jsonl chunk files in directory"));
        }
        let mut schema: Option<Schema> = None;
        let mut chunks = Vec::with_capacity(files.len());
        for file in &files {
            let name = file.display();
            let text = std::fs::read_to_string(file).map_err(|e| format!("{name}: {e}"))?;
            let table = table_from_jsonl(&text).map_err(|e| format!("{name}: {e}"))?;
            match &schema {
                None => schema = Some(table.schema().clone()),
                Some(s) if s != table.schema() => {
                    return Err(format!(
                        "schema mismatch: {name} has fields {:?}, earlier chunks have {:?}",
                        table.schema().fields(),
                        s.fields()
                    ));
                }
                Some(_) => {}
            }
            chunks.push(table.records().to_vec());
        }
        Ok((schema.expect("at least one chunk file"), chunks))
    } else {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {input:?}: {e}"))?;
        let table = table_from_jsonl(&text).map_err(|e| format!("{input}: {e}"))?;
        let schema = table.schema().clone();
        let chunks = table.records().chunks(chunk).map(<[Record]>::to_vec).collect();
        Ok((schema, chunks))
    }
}

/// The engine journal at `path` gets a `.stream` sibling for ingest frames
/// (two-file scheme: answers in `path`, arrivals in `path.stream`, each
/// file byte-identical to what a pure batch/stream run would write).
fn stream_journal_path(path: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(format!("{path}.stream"))
}

/// `join --stream PATH`: the streaming self-join. Ingests arrivals into
/// the record log (journaling each batch first when `--journal` is set),
/// closes the stream into the canonical batch-identical
/// `(dataset, candidates)`, and hands off to the ordinary labeling tail.
fn run_stream(input: &str, opts: &JoinOpts) -> Result<(), String> {
    setup_observability(opts)?;
    let reporter = Reporter::new(opts.report);

    let chunk_size = opts.stream_chunk.unwrap_or(DEFAULT_STREAM_CHUNK);
    let (schema, chunks) = load_stream_chunks(input, chunk_size)?;
    let total: usize = chunks.iter().map(Vec::len).sum();
    let matcher_cfg = MatcherConfig {
        min_likelihood: opts.threshold,
        ..MatcherConfig::for_arity(schema.arity())
    };

    // Resume may precede the engine run that creates the answer journal: a
    // stream killed before close leaves only `FILE.stream` behind. The
    // stream side still resumes; the engine side then *starts* a journal
    // at FILE instead of resuming one.
    let mut opts = opts.clone();
    let (mut job, replayed) = match (&opts.journal, &opts.resume) {
        (Some(path), None) => {
            let spath = stream_journal_path(path);
            let job = crowdjoin::StreamJob::with_journal(schema, matcher_cfg, opts.seed, &spath)
                .map_err(|e| format!("--journal {}: {e}", spath.display()))?;
            (job, 0)
        }
        (None, Some(path)) => {
            let spath = stream_journal_path(path);
            let (job, replayed) =
                crowdjoin::StreamJob::resume(schema, matcher_cfg, opts.seed, &spath)
                    .map_err(|e| format!("--resume {}: {e}", spath.display()))?;
            if !std::path::Path::new(path).exists() {
                opts.journal = opts.resume.take();
            }
            (job, replayed)
        }
        _ => (crowdjoin::StreamJob::new(schema, matcher_cfg, opts.seed), 0),
    };
    if replayed > total {
        return Err(format!(
            "--resume: the stream journal holds {replayed} records but {input} supplies only \
             {total}; pass the same input as the original run"
        ));
    }
    if job.is_sealed() && replayed < total {
        return Err(format!(
            "--resume: the stream journal is sealed after {replayed} records; it cannot ingest \
             the {} further record(s) in {input}",
            total - replayed
        ));
    }

    let mut seen = 0usize;
    for chunk in &chunks {
        let batch: Vec<(u32, Record)> = chunk
            .iter()
            .enumerate()
            .map(|(i, record)| ((seen + i) as u32, record.clone()))
            .filter(|(external, _)| (*external as usize) >= replayed)
            .collect();
        seen += chunk.len();
        if batch.is_empty() {
            continue;
        }
        job.ingest(&batch).map_err(|e| format!("--journal: {e}"))?;
    }
    reporter.note(&format!(
        "stream: {total} record(s) in {} batch(es) ({replayed} replayed from the journal)",
        chunks.len(),
    ));

    let (dataset, candidates_raw) = job.close().map_err(|e| format!("--journal: {e}"))?;
    finish_join(&dataset, &candidates_raw, &opts, reporter)
}

fn run_demo(seed: u64) -> Result<(), String> {
    use crowdjoin::records::{generate_paper, ClusterSpec, PaperGenConfig, PerturbConfig};
    use crowdjoin::{build_task, GroundTruthOracle};
    let dataset = generate_paper(&PaperGenConfig {
        num_records: 200,
        clusters: ClusterSpec::PowerLaw { alpha: 1.9, max_size: 30, force_max: true },
        perturb: PerturbConfig::heavy(),
        sibling_probability: 0.3,
        seed,
    });
    let (task, truth) = build_task(&dataset, &MatcherConfig::for_arity(5), 0.3);
    let mut oracle = GroundTruthOracle::new(&truth);
    let result = task.run_sequential(SortStrategy::ExpectedLikelihood, &mut oracle);
    println!(
        "demo: {} records, {} candidate pairs, {} crowd answers, {} deduced ({:.0}% saved)",
        dataset.len(),
        task.candidates().len(),
        result.num_crowdsourced(),
        result.num_deduced(),
        result.savings_ratio() * 100.0
    );
    Ok(())
}

fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Demo { seed } => run_demo(seed),
        Command::Dedup { input, opts } => {
            let table = load_table(&input)?;
            let n = table.len();
            let dataset = Dataset {
                table,
                entity_of: (0..n as u32).collect(), // unknown truth: unused
                split: None,
                name: input,
            };
            run_join(&dataset, &opts)
        }
        Command::Join { left, right, opts } => {
            let lt = load_table(&left)?;
            let rt = load_table(&right)?;
            if lt.schema() != rt.schema() {
                return Err(format!(
                    "schema mismatch: {left} has {:?}, {right} has {:?}",
                    lt.schema().fields(),
                    rt.schema().fields()
                ));
            }
            let split = lt.len();
            let mut table = lt;
            for r in rt.records() {
                table.push(r.clone());
            }
            let n = table.len();
            let dataset = Dataset {
                table,
                entity_of: (0..n as u32).collect(), // unknown truth: unused
                split: Some(split),
                name: format!("{left}⋈{right}"),
            };
            run_join(&dataset, &opts)
        }
        Command::Stream { input, opts } => run_stream(&input, &opts),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_demo() {
        assert_eq!(parse_args(&args("demo")), Ok(Command::Demo { seed: 42 }));
        assert_eq!(parse_args(&args("demo --seed 7")), Ok(Command::Demo { seed: 7 }));
    }

    #[test]
    fn parses_dedup_with_options() {
        let cmd = parse_args(&args(
            "dedup --input recs.csv --threshold 0.2 --crowd interactive --output out.csv",
        ))
        .unwrap();
        match cmd {
            Command::Dedup { input, opts } => {
                assert_eq!(input, "recs.csv");
                assert_eq!(opts.threshold, 0.2);
                assert_eq!(opts.crowd, CrowdMode::Interactive);
                assert_eq!(opts.output.as_deref(), Some("out.csv"));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_resolve_and_one_to_one() {
        let cmd =
            parse_args(&args("join --left a --right b --resolve yes --one-to-one yes")).unwrap();
        match cmd {
            Command::Join { opts, .. } => {
                assert!(opts.resolve);
                assert!(opts.one_to_one);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&args("dedup --input a --resolve maybe")).is_err());
    }

    #[test]
    fn parses_timings() {
        match parse_args(&args("dedup --input a.csv --timings yes")).unwrap() {
            Command::Dedup { opts, .. } => assert!(opts.timings),
            other => panic!("wrong command {other:?}"),
        }
        match parse_args(&args("dedup --input a.csv")).unwrap() {
            Command::Dedup { opts, .. } => assert!(!opts.timings),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&args("dedup --input a.csv --timings sometimes")).is_err());
    }

    #[test]
    fn parses_join() {
        let cmd = parse_args(&args("join --left a.csv --right b.csv")).unwrap();
        assert!(matches!(cmd, Command::Join { .. }));
    }

    #[test]
    fn parses_shards() {
        match parse_args(&args("dedup --input a.csv --platform amt --shards 8")).unwrap() {
            Command::Dedup { opts, .. } => assert_eq!(opts.shards, Some(8)),
            other => panic!("wrong command {other:?}"),
        }
        match parse_args(&args("dedup --input a.csv --backend spool --spool s --shards 4")).unwrap()
        {
            Command::Dedup { opts, .. } => assert_eq!(opts.shards, Some(4)),
            other => panic!("wrong command {other:?}"),
        }
        match parse_args(&args("dedup --input a.csv")).unwrap() {
            Command::Dedup { opts, .. } => assert_eq!(opts.shards, None),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&args("dedup --input a.csv --platform amt --shards many")).is_err());
    }

    #[test]
    fn shards_without_a_platform_are_refused() {
        // A crowd that answers at once runs the sequential labeler; shards
        // only partition a platform run.
        for line in [
            "dedup --input a.csv --shards 4",
            "dedup --input a.csv --shards 1",
            "join --left a --right b --shards 0",
            "dedup --input a.csv --crowd interactive --shards 4",
            "join --stream s.jsonl --shards 4",
        ] {
            let err = parse_args(&args(line)).unwrap_err();
            assert_eq!(err, "--shards requires --platform perfect|amt", "{line}");
        }
    }

    #[test]
    fn threshold_must_be_a_likelihood() {
        for bad in ["1.5", "-0.1", "NaN", "inf"] {
            let err =
                parse_args(&args(&format!("dedup --input a.csv --threshold {bad}"))).unwrap_err();
            assert!(err.contains("--threshold must be in [0, 1]"), "{bad}: {err:?}");
        }
        for good in ["0", "0.02", "1"] {
            assert!(parse_args(&args(&format!("dedup --input a.csv --threshold {good}"))).is_ok());
        }
    }

    #[test]
    fn parses_platform_mode() {
        match parse_args(&args("dedup --input a.csv --platform perfect --shards 0 --seed 9"))
            .unwrap()
        {
            Command::Dedup { opts, .. } => {
                assert_eq!(opts.platform, Some(PlatformPreset::Perfect));
                assert_eq!(opts.shards, Some(0));
                assert_eq!(opts.seed, 9);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse_args(&args("join --left a --right b --platform amt")).unwrap() {
            Command::Join { opts, .. } => assert_eq!(opts.platform, Some(PlatformPreset::Amt)),
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: platform off, seed 42.
        match parse_args(&args("dedup --input a.csv")).unwrap() {
            Command::Dedup { opts, .. } => {
                assert_eq!(opts.platform, None);
                assert_eq!(opts.seed, 42);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&args("dedup --input a.csv --platform mturk")).is_err());
        assert!(parse_args(&args("dedup --input a.csv --seed soon")).is_err());
    }

    #[test]
    fn parses_journal_and_resume() {
        match parse_args(&args("dedup --input a.csv --platform amt --journal j.wal")).unwrap() {
            Command::Dedup { opts, .. } => {
                assert_eq!(opts.journal.as_deref(), Some("j.wal"));
                assert_eq!(opts.resume, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse_args(&args("dedup --input a.csv --platform amt --resume j.wal")).unwrap() {
            Command::Dedup { opts, .. } => {
                assert_eq!(opts.resume.as_deref(), Some("j.wal"));
                assert_eq!(opts.journal, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Mutually exclusive, and platform-mode only.
        assert!(parse_args(&args(
            "dedup --input a.csv --platform amt --journal j.wal --resume j.wal"
        ))
        .is_err());
        assert!(parse_args(&args("dedup --input a.csv --journal j.wal")).is_err());
        assert!(parse_args(&args("dedup --input a.csv --resume j.wal")).is_err());
    }

    #[test]
    fn parses_platform_knobs() {
        match parse_args(&args(
            "dedup --input a.csv --platform perfect --batch-size 10 --crowd-size 80 --price 3",
        ))
        .unwrap()
        {
            Command::Dedup { opts, .. } => {
                assert_eq!(opts.batch_size, Some(10));
                assert_eq!(opts.crowd_size, Some(80));
                assert_eq!(opts.price, Some(3));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Degenerate values are rejected at parse time, not deep in the
        // simulator.
        assert!(parse_args(&args("dedup --input a --platform amt --batch-size 0")).is_err());
        assert!(parse_args(&args("dedup --input a --platform amt --crowd-size 0")).is_err());
        assert!(parse_args(&args("dedup --input a --platform amt --crowd-size 2")).is_err());
        // Platform-mode only, and values must be numeric.
        assert!(parse_args(&args("dedup --input a.csv --batch-size 10")).is_err());
        assert!(parse_args(&args("dedup --input a.csv --crowd-size 80")).is_err());
        assert!(parse_args(&args("dedup --input a.csv --price 3")).is_err());
        assert!(parse_args(&args("dedup --input a --platform amt --batch-size many")).is_err());
        assert!(parse_args(&args("dedup --input a --platform amt --price free")).is_err());
    }

    #[test]
    fn parses_backend_and_spool() {
        // Default backend is sim.
        match parse_args(&args("dedup --input a.csv --platform amt")).unwrap() {
            Command::Dedup { opts, .. } => {
                assert_eq!(opts.backend, BackendKind::Sim);
                assert_eq!(opts.spool, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Spool backend implies platform mode (perfect preset for
        // batch/price defaults) and allows platform-only knobs.
        match parse_args(&args(
            "dedup --input a.csv --backend spool --spool /tmp/s --journal j.wal --price 3",
        ))
        .unwrap()
        {
            Command::Dedup { opts, .. } => {
                assert_eq!(opts.backend, BackendKind::Spool);
                assert_eq!(opts.spool.as_deref(), Some("/tmp/s"));
                assert_eq!(opts.platform, Some(PlatformPreset::Perfect));
                assert_eq!(opts.journal.as_deref(), Some("j.wal"));
                assert_eq!(opts.price, Some(3));
            }
            other => panic!("wrong command {other:?}"),
        }
        // An explicit preset survives the implication.
        match parse_args(&args("dedup --input a.csv --backend spool --spool s --platform amt"))
            .unwrap()
        {
            Command::Dedup { opts, .. } => assert_eq!(opts.platform, Some(PlatformPreset::Amt)),
            other => panic!("wrong command {other:?}"),
        }
        // Validation: each half of the pair requires the other; unknown
        // kinds are refused.
        let spool_needs_dir = parse_args(&args("dedup --input a.csv --backend spool"));
        assert!(spool_needs_dir.unwrap_err().contains("--spool DIR"));
        let dir_needs_spool = parse_args(&args("dedup --input a.csv --spool s --platform amt"));
        assert!(dir_needs_spool.unwrap_err().contains("--backend spool"));
        assert!(parse_args(&args("dedup --input a.csv --backend mturk --spool s")).is_err());
        // Explicit `--backend sim` outside platform mode is an error, with
        // the fix in the message.
        let sim_needs_platform = parse_args(&args("dedup --input a.csv --backend sim"));
        assert!(sim_needs_platform.unwrap_err().contains("--platform"));
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        for (flag, value) in [("order", "online"), ("reshard", "yes"), ("frobnicate", "1")] {
            let line = format!("dedup --input a.csv --platform amt --shards 4 --{flag} {value}");
            let err = parse_args(&args(&line)).unwrap_err();
            assert!(err.contains(&format!("unknown flag --{flag}")), "{err:?}");
        }
    }

    #[test]
    fn crowd_flag_clash_gets_a_hint() {
        // A number given to --crowd: almost certainly meant --crowd-size.
        let err = parse_args(&args("dedup --input a.csv --platform amt --crowd 40")).unwrap_err();
        assert!(err.contains("--crowd-size 40"), "hint missing from {err:?}");
        // A mode given to --crowd-size: almost certainly meant --crowd.
        let err = parse_args(&args("dedup --input a.csv --platform amt --crowd-size interactive"))
            .unwrap_err();
        assert!(err.contains("--crowd interactive"), "hint missing from {err:?}");
        let err =
            parse_args(&args("dedup --input a.csv --platform amt --crowd-size auto")).unwrap_err();
        assert!(err.contains("--crowd auto"), "hint missing from {err:?}");
        // The legitimate uses stay untouched.
        assert!(parse_args(&args("dedup --input a.csv --crowd interactive")).is_ok());
        assert!(parse_args(&args("dedup --input a.csv --platform amt --crowd-size 40")).is_ok());
    }

    #[test]
    fn parses_observability_flags() {
        match parse_args(&args(
            "dedup --input a.csv --platform amt --report json --trace t.jsonl --metrics m.json",
        ))
        .unwrap()
        {
            Command::Dedup { opts, .. } => {
                assert_eq!(opts.report, ReportFormat::Json);
                assert_eq!(opts.trace.as_deref(), Some("t.jsonl"));
                assert_eq!(opts.metrics.as_deref(), Some("m.json"));
                assert!(!opts.progress);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: human report, no trace/metrics, no progress line.
        match parse_args(&args("dedup --input a.csv")).unwrap() {
            Command::Dedup { opts, .. } => {
                assert_eq!(opts.report, ReportFormat::Human);
                assert_eq!(opts.trace, None);
                assert_eq!(opts.metrics, None);
                assert!(!opts.progress);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&args("dedup --input a.csv --report xml")).is_err());
    }

    #[test]
    fn progress_requires_spool_backend() {
        match parse_args(&args("dedup --input a.csv --backend spool --spool /tmp/s --progress yes"))
            .unwrap()
        {
            Command::Dedup { opts, .. } => assert!(opts.progress),
            other => panic!("wrong command {other:?}"),
        }
        let err =
            parse_args(&args("dedup --input a.csv --platform amt --progress yes")).unwrap_err();
        assert!(err.contains("--backend spool"), "hint missing from {err:?}");
        assert!(parse_args(&args("dedup --input a.csv --progress sometimes")).is_err());
    }

    #[test]
    fn parses_stream() {
        match parse_args(&args("join --stream arrivals.jsonl")).unwrap() {
            Command::Stream { input, opts } => {
                assert_eq!(input, "arrivals.jsonl");
                assert_eq!(opts.stream_chunk, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse_args(&args("join --stream spool/ --stream-chunk 100")).unwrap() {
            Command::Stream { opts, .. } => assert_eq!(opts.stream_chunk, Some(100)),
            other => panic!("wrong command {other:?}"),
        }
        // The streaming run carries the full option set — platform mode,
        // journaling, backends.
        match parse_args(&args(
            "join --stream s.jsonl --platform perfect --journal j.wal --shards 4",
        ))
        .unwrap()
        {
            Command::Stream { opts, .. } => {
                assert_eq!(opts.platform, Some(PlatformPreset::Perfect));
                assert_eq!(opts.journal.as_deref(), Some("j.wal"));
                assert_eq!(opts.shards, Some(4));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn stream_flag_validation() {
        // --stream replaces the positional inputs.
        let err = parse_args(&args("join --stream s.jsonl --left a.csv --right b.csv"));
        assert!(err.unwrap_err().contains("drop --left/--right"));
        // --stream-chunk is meaningless without --stream…
        let err = parse_args(&args("join --left a --right b --stream-chunk 64")).unwrap_err();
        assert!(err.contains("requires --stream"), "{err:?}");
        let err = parse_args(&args("dedup --input a.csv --stream-chunk 64")).unwrap_err();
        assert!(err.contains("requires --stream"), "{err:?}");
        // …and must be a positive count.
        assert!(parse_args(&args("join --stream s --stream-chunk 0")).is_err());
        assert!(parse_args(&args("join --stream s --stream-chunk many")).is_err());
        // dedup points at the join command.
        let err = parse_args(&args("dedup --input a.csv --stream s.jsonl")).unwrap_err();
        assert!(err.contains("join --stream"), "{err:?}");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&args("frobnicate")).is_err());
        assert!(parse_args(&args("dedup")).is_err(), "missing --input");
        assert!(parse_args(&args("join --left a.csv")).is_err(), "missing --right");
        assert!(parse_args(&args("demo --seed nope")).is_err());
        assert!(parse_args(&args("dedup --input a --crowd psychic")).is_err());
        assert!(parse_args(&args("demo --bogus 1")).is_err());
        assert!(parse_args(&args("demo --seed 1 --seed 2")).is_err(), "duplicate flag");
    }

    #[test]
    fn low_threshold_keeps_pairs_under_the_default_matcher_floor() {
        // Two records sharing one token score 0.0465, under the matcher's
        // default 0.05 floor: kept only because the matcher runs at T.
        let dir = std::env::temp_dir().join(format!("crowdjoin-floor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let (input, output) = (dir.join("in.csv"), dir.join("out.csv"));
        let records = "alpha bravo charlie delta echo foxtrot golf hotel common,100\n\
                       india juliet kilo lima mike november oscar papa common,137\n";
        std::fs::write(&input, format!("name,price\n{records}")).expect("write input");
        let line = format!(
            "dedup --input {} --threshold 0.02 --output {}",
            input.display(),
            output.display()
        );
        run(parse_args(&args(&line)).unwrap()).expect("dedup run");
        let csv = std::fs::read_to_string(&output).expect("output csv");
        let _ = std::fs::remove_dir_all(&dir);
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows.len(), 1, "{csv}");
        let likelihood: f64 = rows[0].rsplit(',').next().unwrap().parse().unwrap();
        assert!((0.02..0.05).contains(&likelihood), "{csv}");
    }

    #[test]
    fn auto_oracle_uses_cutoff() {
        let p_hi = Pair::new(0, 1);
        let p_lo = Pair::new(1, 2);
        let mut o = AutoOracle {
            likelihoods: [(p_hi, 0.9), (p_lo, 0.4)].into_iter().collect(),
            cutoff: 0.8,
            asked: 0,
        };
        assert_eq!(o.answer(p_hi), Label::Matching);
        assert_eq!(o.answer(p_lo), Label::NonMatching);
        assert_eq!(o.answer(Pair::new(5, 6)), Label::NonMatching, "unknown pair");
        assert_eq!(o.questions_asked(), 3);
    }
}
