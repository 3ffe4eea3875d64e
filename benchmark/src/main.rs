//! The repo's end-to-end benchmark: records in → candidates → questions →
//! labels out, on five workloads, with per-layer attribution.
//!
//! ```text
//! crowdjoin-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! crowdjoin-benchmark run [--seed N] [--seconds S] [--runs K]
//! crowdjoin-benchmark compare A.json B.json
//! ```
//!
//! The first form is one run of one workload and ends its standard output
//! with one JSON object (`BENCHMARK.json` at the repo root describes it). The
//! second runs every workload, untraced then traced, each in a process of
//! its own, and writes the collected results under `benchmark/out/`. The
//! third applies each end-to-end metric's bound to two such result files.
//! `README.md` beside this package is the reference.

mod check;
mod compare;
mod job;
mod metrics;
mod run;
mod suite;
mod timed_backend;
mod trace;
mod workload;

use std::process::ExitCode;

const USAGE: &str = "usage:
  crowdjoin-benchmark --workload NAME --seed N --seconds S --trace 0|1
  crowdjoin-benchmark run [--seed N] [--seconds S] [--runs K]
  crowdjoin-benchmark compare A.json B.json";

/// Seed of the suite when none is given: 2013-06-22, the first day of the
/// conference the paper appeared at.
const DEFAULT_SEED: u64 = 20_130_622;

/// Seconds one run measures for when none is given; `BENCHMARK.json` says the
/// same under `run_seconds`.
const DEFAULT_SECONDS: u64 = 20;

/// `--flag value` pairs, each flag at most once.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Self, String> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown argument {flag:?}"));
            }
            if pairs.iter().any(|(f, _)| f == flag) {
                return Err(format!("{flag} given twice"));
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Self(pairs))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0.iter().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn number(&self, flag: &str) -> Result<Option<u64>, String> {
        self.get(flag)
            .map(|v| v.parse::<u64>().map_err(|_| format!("{flag} {v:?} is not a whole number")))
            .transpose()
    }

    fn required(&self, flag: &str) -> Result<u64, String> {
        self.number(flag)?.ok_or_else(|| format!("{flag} is required"))
    }
}

fn one_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let workload = workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {}", names.join(", "))
    })?;
    let traced = match flags.required("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other} is neither 0 nor 1")),
    };
    let result =
        run::run(workload, flags.required("--seed")?, flags.required("--seconds")?, traced)?;
    println!("{}", result.to_json());
    Ok(ExitCode::SUCCESS)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let flags = Flags::parse(&args[1..], &["--seed", "--seconds", "--runs"])?;
            suite::run(
                flags.number("--seed")?.unwrap_or(DEFAULT_SEED),
                flags.number("--seconds")?.unwrap_or(DEFAULT_SECONDS),
                flags.number("--runs")?.unwrap_or(1).max(1),
            )
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("compare takes exactly two result files".to_string()),
        },
        Some(flag) if flag.starts_with("--") => one_run(args),
        _ => Err("no command given".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("crowdjoin-benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
