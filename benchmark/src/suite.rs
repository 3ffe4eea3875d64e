//! The whole benchmark in one command: every workload, untraced then traced,
//! one process per run so that peak memory and allocator state are each
//! run's own; every metric printed by name with its unit; the collected
//! results written as one JSON document `compare` reads.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::OUT_DIR;
use crate::workload::{self, NUM_SHARDS, WORKLOADS};
use crowdjoin::backend_spool::json::{parse, Value};
use crowdjoin::obs::json::{js_str, JsonObject};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// `bench.unattributed_frac` above this means the spans no longer sum to the
/// job, and the per-layer breakdown is not to be trusted.
const MAX_UNATTRIBUTED_FRAC: f64 = 0.05;

/// Runs one workload once in a child process and returns the JSON object it
/// printed last.
fn child_run(workload: &str, seed: u64, seconds: u64, trace: u8) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {workload} run ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last =
        stdout.lines().last().ok_or_else(|| format!("the {workload} run printed nothing"))?;
    parse(last).map_err(|e| format!("the {workload} run's result does not parse: {e}"))
}

fn metric_of(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs the suite `runs` times, on seeds `seed`, `seed + 1`, ...
///
/// # Errors
///
/// A message when a run cannot be started, ends abnormally, or the result
/// file cannot be written.
pub fn run(seed: u64, seconds: u64, runs: u64) -> Result<ExitCode, String> {
    let mut records = Vec::new();
    let mut broken = Vec::new();
    for seed in seed..seed + runs {
        for w in &WORKLOADS {
            for (trace, defs) in [(0u8, &END_TO_END[..]), (1, &PER_LAYER[..])] {
                let result = child_run(w.name, seed, seconds, trace)?;
                let failed = result.get("failed").and_then(Value::as_u64).unwrap_or(u64::MAX);
                let attempted = result.get("attempted").and_then(Value::as_u64).unwrap_or(0);
                println!(
                    "# {} seed {seed} trace {trace}: {failed} of {attempted} operations failed",
                    w.name
                );
                let mut metrics = JsonObject::new();
                for def in defs {
                    let value = metric_of(&result, def.name)
                        .ok_or_else(|| format!("the {} run reports no {}", w.name, def.name))?;
                    println!("{:<12} {:<40} {value:>16.6} {}", w.name, def.name, def.unit);
                    metrics.field(def.name, format!("{value}"));
                }
                if failed > 0 {
                    broken.push(format!("{} seed {seed}: {failed} operations failed", w.name));
                }
                let unattributed = metric_of(&result, "bench.unattributed_frac").unwrap_or(0.0);
                if unattributed > MAX_UNATTRIBUTED_FRAC {
                    broken.push(format!(
                        "{} seed {seed}: {:.1} % of the job is outside every span",
                        w.name,
                        unattributed * 100.0
                    ));
                }
                let mut record = JsonObject::new();
                record.field("workload", js_str(w.name));
                record.field("seed", seed.to_string());
                record.field("trace", trace.to_string());
                record.field("attempted", attempted.to_string());
                record.field("failed", failed.to_string());
                record.field("metrics", metrics.render());
                records.push(record.render());
            }
        }
    }

    let path = Path::new(OUT_DIR).join(format!("suite-{seed}.json"));
    let doc = format!(
        "{{\"schema\": \"crowdjoin-benchmark/1\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"nproc\": {}, \"threads\": {}, \"shards\": {NUM_SHARDS}, \"runs\": [\n{}\n]}}\n",
        workload::nproc(),
        workload::threads(),
        records.join(",\n")
    );
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    println!("# results in {}", path.display());
    for line in &broken {
        eprintln!("FAILED {line}");
    }
    Ok(if broken.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
