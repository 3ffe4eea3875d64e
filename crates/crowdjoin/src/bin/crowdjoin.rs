//! `crowdjoin` — command-line crowdsourced joins over CSV files.
//!
//! * `demo` runs the paper's running example plus a generated workload and
//!   prints the savings summary — no files needed.
//! * `dedup` finds duplicate records within one CSV file (self join).
//! * `join` matches records across two CSV files with identical headers
//!   (cross join).
//! * `join --stream` is the streaming self-join: records arrive as JSONL
//!   and the closed stream feeds the ordinary labeling path —
//!   bit-identical to a batch run over the same records.
//!
//! Every option is one row of [`FLAGS`]: its name, value placeholder,
//! scope, parser and help text. The usage text and the unknown-flag,
//! duplicate-flag and wrong-scope refusals are all derived from it.
//!
//! Crowd modes: `interactive` asks *you* about each undeduced pair on
//! stdin; `auto` (default) answers matching iff the machine likelihood is
//! at least `--auto-threshold`. Both answer at once, so both run the
//! sequential labeler, which asks the fewest questions. `--platform` (or
//! `--backend spool`) instead puts a crowd with latency behind the sharded
//! event-loop engine; `--shards` sizes that engine.
//!
//! Output is CSV with columns `a,b,label,provenance,likelihood` (record
//! indices are 0-based row numbers; for `join`, right-file indices continue
//! after the left file's).

use crowdjoin::records::{
    generate_paper, table_from_csv, table_from_jsonl, write_csv, ClusterSpec, Dataset,
    PaperGenConfig, PerturbConfig, Record, Schema, Table,
};
use crowdjoin::report::{
    EngineBackend as BackendKind, JournalOutcome, MatcherTimings, ProgressLine, ReportFormat,
    Reporter,
};
use crowdjoin::{
    build_task, enforce_one_to_one, resolve_entities, sort_pairs, to_candidate_set,
    GroundTruthOracle, Label, LabelingResult, Oracle, Pair, Provenance, ScoredPair, SortStrategy,
};
use crowdjoin_matcher::{generate_candidates, MatcherConfig};
use crowdjoin_util::FxHashMap;
use std::io::{BufRead, Write};
use std::process::ExitCode;

/// Parsed command line; `Stream` is `join --stream PATH`, the streaming
/// self-join.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Demo { seed: u64 },
    Dedup { input: String, opts: JoinOpts },
    Join { left: String, right: String, opts: JoinOpts },
    Stream { input: String, opts: JoinOpts },
}

/// The options of a join job: one field per row of [`FLAGS`], whose help
/// text documents it. An unset `Option` means the default. `Default` is
/// every flag unset and every number 0: [`parse_args`] starts from it with
/// the three numeric defaults the help text states.
#[derive(Debug, Clone, PartialEq, Default)]
struct JoinOpts {
    threshold: f64,
    crowd: CrowdMode,
    auto_threshold: f64,
    output: Option<String>,
    resolve: bool,
    one_to_one: bool,
    shards: Option<usize>,
    platform: Option<PlatformPreset>,
    backend: BackendKind,
    spool: Option<String>,
    seed: u64,
    journal: Option<String>,
    resume: Option<String>,
    batch_size: Option<usize>,
    crowd_size: Option<usize>,
    price: Option<u32>,
    timings: bool,
    report: ReportFormat,
    trace: Option<String>,
    metrics: Option<String>,
    progress: bool,
    stream_chunk: Option<usize>,
}

/// Default ingest-batch size for a single-file `--stream` input.
const DEFAULT_STREAM_CHUNK: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum CrowdMode {
    #[default]
    Auto,
    Interactive,
}

/// Worker-pool profile of the simulated platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlatformPreset {
    /// The paper's Table 1 setting: AMT latency model, accurate workers.
    Perfect,
    /// The Table 2 setting: 25% spammers, qualification test, majority vote.
    Amt,
}

/// The command-line shapes of the usage synopsis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Demo,
    Dedup,
    Join,
    Stream,
}

/// The synopsis lines of the usage text: command, then its operands.
const SYNOPSIS: [(&str, &str); 4] = [
    ("demo", "[--seed N]"),
    ("dedup", "--input FILE  [options]"),
    ("join", "--left FILE --right FILE  [options]"),
    ("join", "--stream PATH  [options]"),
];

/// Where a flag may appear. Outside its scope it is refused: on `demo`
/// as an unknown flag, elsewhere with the scope's reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// Every command, `demo` included.
    Any,
    /// Every join job: `dedup`, `join` and `join --stream`.
    Job,
    /// `join --stream` only; the text is the refusal elsewhere.
    Stream(&'static str),
    /// A job in platform mode: `--platform`, or `--backend spool`.
    Platform,
    /// A job on the spool backend; the text is the refusal elsewhere.
    Spool(&'static str),
}

/// Parses a flag's value into the options.
type Setter = fn(&mut JoinOpts, &Arg<'_>) -> Result<(), String>;

/// One command-line option.
struct Flag {
    /// `name VALUE`, as the usage text shows it after `--`.
    head: &'static str,
    scope: Scope,
    set: Setter,
    /// The usage help, one `\n`-separated line per usage line.
    help: &'static str,
}

const fn flag(head: &'static str, scope: Scope, set: Setter, help: &'static str) -> Flag {
    Flag { head, scope, set, help }
}

/// Every option, in usage order.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("stream PATH", Scope::Stream("--stream belongs to the join command (a streaming \
                                       self-join): crowdjoin join --stream PATH"),
        // `join` reads the path itself: the flag picks the command.
        |_, _| Ok(()),
        "join only: streaming self-join. Arrivals come from\n\
         PATH instead of --left/--right: a JSONL file (one\n\
         object per line, ingested in --stream-chunk\n\
         batches) or a spool-style directory of *.jsonl\n\
         chunk files (processed in name order, one ingest\n\
         batch per file). The closed stream is bit-identical\n\
         to a batch run over the same records.\n\
         With --journal FILE each ingest is write-ahead\n\
         logged to FILE.stream before it is applied, so a\n\
         killed stream resumes with --resume FILE (re-pass\n\
         the same input and flags)"),
    flag("stream-chunk N", Scope::Stream("--stream-chunk requires --stream"),
        |o, a| a.positive("record per batch").map(|n| o.stream_chunk = Some(n)),
        "records per ingest batch for a single-file --stream\n\
         input (default 512)"),
    // The matcher runs at this floor, which must be a likelihood.
    flag("threshold T", Scope::Job, |o, a| a.likelihood().map(|x| o.threshold = x),
        "machine-likelihood threshold for candidates (default 0.3)"),
    flag("crowd MODE", Scope::Job, |o, a| crowd_mode(a).map(|c| o.crowd = c),
        "auto | interactive (default auto)"),
    flag("auto-threshold X", Scope::Job, |o, a| a.likelihood().map(|x| o.auto_threshold = x),
        "auto crowd answers matching iff likelihood >= X (default 0.8)"),
    flag("output FILE", Scope::Job, |o, a| a.path().map(|p| o.output = p),
        "write CSV here instead of stdout"),
    flag("resolve yes", Scope::Job, |o, a| a.yes_no().map(|b| o.resolve = b),
        "output entity clusters instead of pair labels"),
    flag("one-to-one yes", Scope::Job, |o, a| a.yes_no().map(|b| o.one_to_one = b),
        "keep at most one match per record (join only)"),
    flag("shards N", Scope::Platform, |o, a| a.num().map(|n| o.shards = Some(n)),
        "platform mode: partition the job into N engine\n\
         shards, one platform each (0 = one per CPU;\n\
         default 1). Refused without --platform: a crowd\n\
         that answers at once runs the sequential labeler"),
    flag("platform PRESET", Scope::Job,
        |o, a| {
            let presets = [("perfect", PlatformPreset::Perfect), ("amt", PlatformPreset::Amt)];
            a.choice(&presets).map(|p| o.platform = Some(p))
        },
        "simulate the crowd on the event-loop engine and\n\
         report cost/completion Table-1 style:\n\
         perfect (accurate workers) | amt (25% spammers,\n\
         majority vote). Labels come from the simulated run;\n\
         ground truth is the auto-threshold clustering."),
    flag("backend KIND", Scope::Job,
        |o, a| a.choice(&[("sim", BackendKind::Sim), ("spool", BackendKind::Spool)])
            .map(|b| o.backend = b),
        "who answers the published HITs: sim (the in-process\n\
         simulator, default) | spool (publish HITs as JSON\n\
         files into --spool DIR/hits and poll DIR/answers —\n\
         an external process or human answers them; implies\n\
         --platform perfect for batch/price defaults)"),
    flag("spool DIR", Scope::Spool("--spool only applies to --backend spool"),
        |o, a| a.path().map(|p| o.spool = p),
        "spool directory of --backend spool"),
    flag("seed N", Scope::Any, |o, a| a.num().map(|n| o.seed = n),
        "seed for the simulated platform (default 42)"),
    flag("journal FILE", Scope::Platform, |o, a| a.path().map(|p| o.journal = p),
        "platform mode: append every crowd answer to a\n\
         crash-safe write-ahead journal; a killed run\n\
         resumes with --resume without re-paying the crowd"),
    flag("resume FILE", Scope::Platform, |o, a| a.path().map(|p| o.resume = p),
        "platform mode: resume a killed journaled run —\n\
         replays the journaled answers, asks only the rest,\n\
         and keeps appending to FILE (pass the same input\n\
         and flags as the original run)"),
    flag("batch-size N", Scope::Platform,
        |o, a| a.positive("pair per HIT").map(|n| o.batch_size = Some(n)),
        "platform mode: pairs per HIT (default 20)"),
    flag("crowd-size N", Scope::Platform, |o, a| crowd_size(a).map(|n| o.crowd_size = Some(n)),
        "platform mode: size of the simulated worker pool\n\
         (default 40; split evenly across shards). This is\n\
         THE platform-capacity knob; the separate --crowd\n\
         flag picks the answering mode, not a size."),
    flag("price CENTS", Scope::Platform, |o, a| a.num().map(|n| o.price = Some(n)),
        "platform mode: cents per completed assignment\n\
         (default 2)"),
    flag("timings yes", Scope::Job, |o, a| a.yes_no().map(|b| o.timings = b),
        "print a per-phase wall-clock breakdown (tokenize /\n\
         tf-idf index / prefix index / candidate generation /\n\
         join) plus the probe-block filter-cascade decisions\n\
         to stderr — see where time goes on large inputs"),
    flag("report FORMAT", Scope::Job,
        |o, a| a.choice(&[("human", ReportFormat::Human), ("json", ReportFormat::Json)])
            .map(|r| o.report = r),
        "human (progressive stderr lines, default) | json\n\
         (one machine-readable report document on stdout at\n\
         the end; the labels CSV then only appears with\n\
         --output FILE)"),
    flag("trace FILE", Scope::Job, |o, a| a.path().map(|p| o.trace = p),
        "record a structured event trace of the run: JSONL\n\
         at FILE plus a Chrome-trace twin at\n\
         FILE.chrome.json (open in Perfetto / about:tracing)"),
    flag("metrics FILE", Scope::Job, |o, a| a.path().map(|p| o.metrics = p),
        "write the final counters/gauges/histograms snapshot\n\
         (JSON) to FILE"),
    flag("progress yes", Scope::Spool("--progress tracks a wall-clock crowd; it requires \
                                       --backend spool (simulated runs finish in virtual time)"),
        |o, a| a.yes_no().map(|b| o.progress = b),
        "spool backend only: repaint a live stderr line\n\
         (answers so far, pairs awaiting the crowd) while\n\
         the job waits on its external answerer"),
];

/// A flag's value, with the parsers every flag shares (one error format).
struct Arg<'a> {
    name: &'a str,
    value: &'a str,
}

impl Arg<'_> {
    fn num<T: std::str::FromStr>(&self) -> Result<T, String> {
        self.value.parse().map_err(|_| format!("--{}: not a number: {:?}", self.name, self.value))
    }

    /// A count of at least one `unit`.
    fn positive(&self, unit: &str) -> Result<usize, String> {
        let n = self.num()?;
        (n > 0).then_some(n).ok_or_else(|| format!("--{} must be at least 1 {unit}", self.name))
    }

    fn likelihood(&self) -> Result<f64, String> {
        let x: f64 = self.num()?;
        let refusal = || format!("--{} must be in [0, 1], got {}", self.name, self.value);
        (0.0..=1.0).contains(&x).then_some(x).ok_or_else(refusal)
    }

    fn choice<T: Copy>(&self, choices: &[(&str, T)]) -> Result<T, String> {
        let names: Vec<&str> = choices.iter().map(|&(name, _)| name).collect();
        let refusal =
            || format!("--{} must be {}, got {:?}", self.name, names.join("|"), self.value);
        choices.iter().find(|&&(name, _)| name == self.value).map(|&(_, v)| v).ok_or_else(refusal)
    }

    fn yes_no(&self) -> Result<bool, String> {
        match self.value {
            "true" | "1" => Ok(true),
            "false" | "0" => Ok(false),
            _ => self.choice(&[("yes", true), ("no", false)]),
        }
    }

    fn path(&self) -> Result<Option<String>, String> {
        Ok(Some(self.value.to_string()))
    }
}

/// `--crowd`, which a number most likely meant for `--crowd-size`.
fn crowd_mode(a: &Arg<'_>) -> Result<CrowdMode, String> {
    if a.value.parse::<usize>().is_ok() {
        return Err(format!(
            "--crowd picks the answering mode (auto|interactive), not a size; did you mean \
             --crowd-size {} (simulated worker-pool size)?",
            a.value
        ));
    }
    a.choice(&[("auto", CrowdMode::Auto), ("interactive", CrowdMode::Interactive)])
}

/// `--crowd-size`, which an answering mode most likely meant for `--crowd`.
fn crowd_size(a: &Arg<'_>) -> Result<usize, String> {
    if matches!(a.value, "auto" | "interactive") {
        return Err(format!(
            "--crowd-size is the simulated worker-pool size (a number); for the answering mode \
             use --crowd {}",
            a.value
        ));
    }
    // Every HIT needs `assignments_per_hit` (3 in both presets) distinct
    // workers to resolve.
    match a.num()? {
        n if n < 3 => Err(format!(
            "--crowd-size must be at least 3 (each HIT needs 3 distinct workers for its majority \
             vote), got {n}"
        )),
        n => Ok(n),
    }
}

/// The usage text, rendered from [`SYNOPSIS`] and [`FLAGS`].
fn usage() -> String {
    let mut out = String::from("usage:");
    for (command, operands) in SYNOPSIS {
        out += &format!("\n  crowdjoin {command:<5} {operands}");
    }
    out += "\n\noptions:";
    for flag in FLAGS {
        for (i, line) in flag.help.lines().enumerate() {
            let head = if i == 0 { format!("--{}", flag.head) } else { String::new() };
            out += &format!("\n  {head:<22}{line}");
        }
    }
    out
}

/// Parses argv (without the program name). Pure for testability.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let (sub, rest) = args.split_first().ok_or_else(usage)?;
    let mut given: Vec<(&str, &str)> = Vec::new();
    for pair in rest.chunks(2) {
        let name = pair[0]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {:?}\n{}", pair[0], usage()))?;
        let value =
            pair.get(1).ok_or_else(|| format!("flag --{name} needs a value\n{}", usage()))?;
        if given.iter().any(|&(seen, _)| seen == name) {
            return Err(format!("duplicate flag --{name}"));
        }
        given.push((name, value));
    }
    let value_of =
        |name: &str| given.iter().find(|&&(seen, _)| seen == name).map(|&(_, v)| v.to_string());
    // The mode, and the operands its command reads (or refuses) itself.
    let (mode, operands): (Mode, &[&str]) = match sub.as_str() {
        "demo" => (Mode::Demo, &[]),
        "dedup" => (Mode::Dedup, &["input"]),
        "join" if value_of("stream").is_some() => (Mode::Stream, &["left", "right"]),
        "join" => (Mode::Join, &["left", "right"]),
        other => return Err(format!("unknown subcommand {other:?}\n{}", usage())),
    };

    let mut opts = JoinOpts { threshold: 0.3, auto_threshold: 0.8, seed: 42, ..Default::default() };
    // The flags that changed an option: one left at its default
    // (`--progress no`) needs no crowd mode.
    let mut effective = Vec::new();
    for &(name, value) in given.iter().filter(|(name, _)| !operands.contains(name)) {
        let unknown = || format!("unknown flag --{name}\n{}", usage());
        let flag = FLAGS.iter().find(|f| f.head.split(' ').next() == Some(name));
        let flag = flag.ok_or_else(unknown)?;
        match (flag.scope, mode) {
            (Scope::Any, _) | (Scope::Stream(_), Mode::Stream) => {}
            (_, Mode::Demo) => return Err(unknown()),
            (Scope::Stream(why), _) => return Err(why.to_string()),
            _ => {}
        }
        let before = opts.clone();
        (flag.set)(&mut opts, &Arg { name, value })?;
        if opts != before {
            effective.push((name, flag.scope));
        }
    }

    if opts.backend == BackendKind::Spool {
        // The preset only supplies batch-size/price defaults for an
        // external crowd; imply one so `--backend spool` works standalone.
        opts.platform.get_or_insert(PlatformPreset::Perfect);
    }
    // The rules that tie flags together, each with its refusal.
    #[rustfmt::skip]
    let rules = [
        (mode == Mode::Stream && (value_of("left").is_some() || value_of("right").is_some()),
         "--stream reads arrivals from its own file/directory (a streaming self-join); drop \
          --left/--right"),
        (opts.journal.is_some() && opts.resume.is_some(),
         "--journal starts a new journal and --resume continues an existing one; pass exactly one"),
        (opts.backend == BackendKind::Spool && opts.spool.is_none(),
         "--backend spool requires --spool DIR (where HITs are published and answers are read \
          back)"),
        (value_of("backend").is_some() && opts.platform.is_none(),
         "--backend sim requires --platform perfect|amt (the backend answers the simulated \
          platform run)"),
        (opts.platform.is_some() && opts.crowd == CrowdMode::Interactive,
         "--platform simulates a crowd; it cannot be combined with --crowd interactive"),
    ];
    if let Some((_, refusal)) = rules.iter().find(|(broken, _)| *broken) {
        return Err(refusal.to_string());
    }
    for (name, scope) in effective {
        match scope {
            Scope::Platform if opts.platform.is_none() => {
                return Err(format!("--{name} requires --platform perfect|amt"));
            }
            Scope::Spool(why) if opts.backend != BackendKind::Spool => return Err(why.to_string()),
            _ => {}
        }
    }

    Ok(match mode {
        Mode::Demo => Command::Demo { seed: opts.seed },
        Mode::Dedup => {
            Command::Dedup { input: value_of("input").ok_or("dedup requires --input FILE")?, opts }
        }
        Mode::Join => Command::Join {
            left: value_of("left")
                .ok_or("join requires --left FILE (or --stream PATH for streaming)")?,
            right: value_of("right").ok_or("join requires --right FILE")?,
            opts,
        },
        Mode::Stream => Command::Stream { input: value_of("stream").unwrap_or_default(), opts },
    })
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

/// A dataset over `table` whose true entities are unknown (and unused).
fn unlabeled(table: Table, split: Option<usize>, name: String) -> Dataset {
    let n = table.len() as u32;
    Dataset { table, entity_of: (0..n).collect(), split, name }
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
    let mut uf = crowdjoin::graph::UnionFind::new(num_objects);
    for sp in order.iter().filter(|sp| sp.likelihood >= opts.auto_threshold) {
        uf.union(sp.pair.a(), sp.pair.b());
    }
    let truth = crowdjoin::GroundTruth::new(uf.component_ids());
    let mut platform = match preset {
        PlatformPreset::Perfect => crowdjoin::sim::PlatformConfig::perfect_workers(opts.seed),
        PlatformPreset::Amt => crowdjoin::sim::PlatformConfig::amt_like(opts.seed),
    };
    platform.batch_size = opts.batch_size.unwrap_or(platform.batch_size);
    platform.num_workers = opts.crowd_size.unwrap_or(platform.num_workers);
    platform.price_per_assignment_cents = opts.price.unwrap_or(platform.price_per_assignment_cents);
    let engine = crowdjoin::EngineConfig {
        num_shards: opts.shards.unwrap_or(1),
        seed: opts.seed,
        journal: opts.journal.clone().map(std::path::PathBuf::from),
        ..crowdjoin::EngineConfig::default()
    };
    let progress = opts.progress.then(ProgressLine::start);
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

    let journal = match (&opts.resume, &opts.journal) {
        (Some(path), _) => JournalOutcome::Resumed(path),
        (None, Some(path)) => JournalOutcome::Journaled(path),
        (None, None) => JournalOutcome::None,
    };
    reporter.platform_summary(&report, opts.backend, journal);
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
    // Each matcher stage publishes its own wall time into the metrics
    // registry (`matcher.*.us` counters), which `--timings` reads back.
    let matcher_cfg =
        MatcherConfig { min_likelihood: opts.threshold, ..MatcherConfig::for_arity(arity) };
    finish_join(dataset, &generate_candidates(dataset, &matcher_cfg), opts, reporter)
}

/// Everything downstream of candidate generation — thresholding, labeling
/// (sequential, or the engine on a platform), constraint cleanup, CSV
/// output, and report/trace/metrics flushing. Shared verbatim by the batch
/// path ([`run_join`]) and the streaming path ([`run_stream`]), which makes
/// a closed stream's labels/money/reports equal to batch by construction.
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
    let effective_label =
        |pair: Pair, label| if demoted.contains(&pair) { Label::NonMatching } else { label };

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
        let mut rows =
            vec![["a", "b", "label", "provenance", "likelihood"].map(String::from).to_vec()];
        for lp in result.labeled_pairs() {
            rows.push(vec![
                lp.pair.a().to_string(),
                lp.pair.b().to_string(),
                effective_label(lp.pair, lp.label).to_string(),
                if lp.provenance == Provenance::Deduced { "deduced" } else { "crowdsourced" }
                    .to_string(),
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
            let first = schema.get_or_insert_with(|| table.schema().clone());
            if first != table.schema() {
                return Err(format!(
                    "schema mismatch: {name} has fields {:?}, earlier chunks have {:?}",
                    table.schema().fields(),
                    first.fields()
                ));
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

    // The engine journal FILE gets a `FILE.stream` sibling for ingest
    // frames (answers in one file, arrivals in the other, each
    // byte-identical to what a pure batch/stream run would write).
    // Resume may precede the engine run that creates the answer journal: a
    // stream killed before close leaves only `FILE.stream` behind. The
    // stream side still resumes; the engine side then *starts* a journal
    // at FILE instead of resuming one.
    let stream_journal = |path: &str| std::path::PathBuf::from(format!("{path}.stream"));
    let mut opts = opts.clone();
    let (mut job, replayed) = match (&opts.journal, &opts.resume) {
        (Some(path), None) => {
            let spath = stream_journal(path);
            let job = crowdjoin::StreamJob::with_journal(schema, matcher_cfg, opts.seed, &spath)
                .map_err(|e| format!("--journal {}: {e}", spath.display()))?;
            (job, 0)
        }
        (None, Some(path)) => {
            let spath = stream_journal(path);
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
            run_join(&unlabeled(load_table(&input)?, None, input), &opts)
        }
        Command::Join { left, right, opts } => {
            let (mut table, right_table) = (load_table(&left)?, load_table(&right)?);
            if table.schema() != right_table.schema() {
                return Err(format!(
                    "schema mismatch: {left} has {:?}, {right} has {:?}",
                    table.schema().fields(),
                    right_table.schema().fields()
                ));
            }
            let split = table.len();
            for r in right_table.records() {
                table.push(r.clone());
            }
            run_join(&unlabeled(table, Some(split), format!("{left}⋈{right}")), &opts)
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

    /// Every single-fault command line the parser refuses, with its exact
    /// refusal; `true` marks the refusals followed by the usage text.
    #[test]
    fn every_refusal_keeps_its_text() {
        assert_eq!(parse_args(&[]), Err(usage()));
        for (line, refusal, then_usage) in [
            ("frobnicate", "unknown subcommand \"frobnicate\"", true),
            ("dedup input.csv", "unexpected argument \"input.csv\"", true),
            ("dedup --input", "flag --input needs a value", true),
            ("demo --seed 1 --seed 2", "duplicate flag --seed", false),
            ("demo --seed nope", "--seed: not a number: \"nope\"", false),
            ("demo --bogus 1", "unknown flag --bogus", true),
            ("demo --threshold 0.3", "unknown flag --threshold", true),
            ("demo --stream s.jsonl", "unknown flag --stream", true),
            ("demo --progress no", "unknown flag --progress", true),
            ("dedup", "dedup requires --input FILE", false),
            ("dedup --input a.csv --left b.csv", "unknown flag --left", true),
            ("dedup --input a.csv --frobnicate 1", "unknown flag --frobnicate", true),
            ("dedup --input a.csv --stream s.jsonl", "--stream belongs to the join command (a streaming self-join): crowdjoin join --stream PATH", false),
            ("dedup --input a.csv --stream-chunk 64", "--stream-chunk requires --stream", false),
            ("join --left a.csv --right b.csv --stream-chunk 64", "--stream-chunk requires --stream", false),
            ("join --right b.csv", "join requires --left FILE (or --stream PATH for streaming)", false),
            ("join --left a.csv", "join requires --right FILE", false),
            ("join --left a.csv --right b.csv --input c.csv", "unknown flag --input", true),
            ("join --stream s.jsonl --left a.csv", "--stream reads arrivals from its own file/directory (a streaming self-join); drop --left/--right", false),
            ("join --stream s.jsonl --input c.csv", "unknown flag --input", true),
            ("join --stream s.jsonl --stream-chunk 0", "--stream-chunk must be at least 1 record per batch", false),
            ("join --stream s.jsonl --stream-chunk many", "--stream-chunk: not a number: \"many\"", false),
            ("dedup --input a.csv --threshold high", "--threshold: not a number: \"high\"", false),
            ("dedup --input a.csv --threshold 1.5", "--threshold must be in [0, 1], got 1.5", false),
            ("dedup --input a.csv --crowd 40", "--crowd picks the answering mode (auto|interactive), not a size; did you mean --crowd-size 40 (simulated worker-pool size)?", false),
            ("dedup --input a.csv --crowd psychic", "--crowd must be auto|interactive, got \"psychic\"", false),
            ("dedup --input a.csv --auto-threshold high", "--auto-threshold: not a number: \"high\"", false),
            ("dedup --input a.csv --resolve maybe", "--resolve must be yes|no, got \"maybe\"", false),
            ("dedup --input a.csv --one-to-one maybe", "--one-to-one must be yes|no, got \"maybe\"", false),
            ("dedup --input a.csv --timings sometimes", "--timings must be yes|no, got \"sometimes\"", false),
            ("dedup --input a.csv --progress sometimes", "--progress must be yes|no, got \"sometimes\"", false),
            ("dedup --input a.csv --report xml", "--report must be human|json, got \"xml\"", false),
            ("dedup --input a.csv --platform amt --shards many", "--shards: not a number: \"many\"", false),
            ("dedup --input a.csv --platform mturk", "--platform must be perfect|amt, got \"mturk\"", false),
            ("dedup --input a.csv --seed soon", "--seed: not a number: \"soon\"", false),
            ("dedup --input a.csv --platform amt --batch-size many", "--batch-size: not a number: \"many\"", false),
            ("dedup --input a.csv --platform amt --batch-size 0", "--batch-size must be at least 1 pair per HIT", false),
            ("dedup --input a.csv --platform amt --crowd-size interactive", "--crowd-size is the simulated worker-pool size (a number); for the answering mode use --crowd interactive", false),
            ("dedup --input a.csv --platform amt --crowd-size auto", "--crowd-size is the simulated worker-pool size (a number); for the answering mode use --crowd auto", false),
            ("dedup --input a.csv --platform amt --crowd-size many", "--crowd-size: not a number: \"many\"", false),
            ("dedup --input a.csv --platform amt --crowd-size 2", "--crowd-size must be at least 3 (each HIT needs 3 distinct workers for its majority vote), got 2", false),
            ("dedup --input a.csv --platform amt --price free", "--price: not a number: \"free\"", false),
            ("dedup --input a.csv --platform amt --journal j.wal --resume j.wal", "--journal starts a new journal and --resume continues an existing one; pass exactly one", false),
            ("dedup --input a.csv --platform amt --backend mturk", "--backend must be sim|spool, got \"mturk\"", false),
            ("dedup --input a.csv --platform amt --spool s", "--spool only applies to --backend spool", false),
            ("dedup --input a.csv --backend spool", "--backend spool requires --spool DIR (where HITs are published and answers are read back)", false),
            ("dedup --input a.csv --backend sim", "--backend sim requires --platform perfect|amt (the backend answers the simulated platform run)", false),
            ("dedup --input a.csv --platform amt --progress yes", "--progress tracks a wall-clock crowd; it requires --backend spool (simulated runs finish in virtual time)", false),
            ("dedup --input a.csv --journal j.wal", "--journal requires --platform perfect|amt", false),
            ("dedup --input a.csv --resume j.wal", "--resume requires --platform perfect|amt", false),
            ("dedup --input a.csv --batch-size 10", "--batch-size requires --platform perfect|amt", false),
            ("dedup --input a.csv --crowd-size 80", "--crowd-size requires --platform perfect|amt", false),
            ("dedup --input a.csv --price 3", "--price requires --platform perfect|amt", false),
        ] {
            let want = if then_usage { format!("{refusal}\n{}", usage()) } else { refusal.to_string() };
            assert_eq!(parse_args(&args(line)), Err(want), "{line}");
        }
        // Left at its default, a spool-only flag needs no spool.
        assert!(parse_args(&args("dedup --input a.csv --progress no")).is_ok());
    }

    /// The usage text rendered from the flag table, byte for byte.
    #[test]
    fn usage_text_is_pinned() {
        let want = "usage:
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
        assert_eq!(usage(), want);
    }

    #[test]
    fn auto_threshold_must_be_a_likelihood() {
        // With NaN every auto answer would silently be non-matching.
        for bad in ["1.5", "-0.1", "NaN", "inf"] {
            let line = format!("dedup --input a.csv --auto-threshold {bad}");
            let want = format!("--auto-threshold must be in [0, 1], got {bad}");
            assert_eq!(parse_args(&args(&line)), Err(want));
        }
        for good in ["0", "0.5", "1"] {
            let line = format!("dedup --input a.csv --auto-threshold {good}");
            assert!(parse_args(&args(&line)).is_ok(), "{good}");
        }
    }

    #[test]
    fn interactive_crowd_on_a_platform_is_refused_before_any_work() {
        let want = "--platform simulates a crowd; it cannot be combined with --crowd interactive";
        for line in [
            "dedup --input a.csv --platform amt --crowd interactive",
            "dedup --input a.csv --backend spool --spool s --crowd interactive",
            "join --stream s.jsonl --platform perfect --crowd interactive --trace t.jsonl",
        ] {
            assert_eq!(parse_args(&args(line)), Err(want.to_string()), "{line}");
        }
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
