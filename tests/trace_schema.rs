//! Golden-schema test for the CLI's observability outputs, driven through
//! the real `crowdjoin` binary: `--trace` must yield a JSONL stream whose
//! every line parses with the workspace's own JSON reader and carries the
//! `ts` / `kind` / `shard` contract, plus a Chrome-trace twin that is one
//! valid `traceEvents` document (what Perfetto loads); `--metrics` and
//! `--report json` must each yield one parseable tagged document; and the
//! labels CSV must be byte-identical with and without the sinks attached.

use crowdjoin::backend_spool::json::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("crowdjoin-trace-schema-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A small dedup workload with real near-duplicates: enough pairs for a
/// few publish rounds on two shards.
fn write_input(dir: &Path) -> PathBuf {
    let names = [
        "sony bravia tv 40in",
        "canon eos camera 5d",
        "apple iphone 12 black",
        "dell xps laptop 13",
        "hp pavilion desktop pc",
        "nike air shoes red",
        "adidas runner shoes blue",
        "samsung galaxy phone s10",
    ];
    let mut csv = String::from("name,price\n");
    for (i, name) in names.iter().enumerate() {
        csv.push_str(&format!("{name},{}\n", 100 + i));
        csv.push_str(&format!("{name} new,{}\n", 100 + i));
        csv.push_str(&format!("{name} boxed,{}\n", 100 + i));
    }
    let path = dir.join("recs.csv");
    std::fs::write(&path, csv).expect("write input");
    path
}

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_crowdjoin"))
        .args(args)
        .output()
        .expect("spawn crowdjoin binary")
}

#[test]
fn trace_jsonl_and_chrome_follow_the_schema() {
    let dir = temp_dir("golden");
    let input = write_input(&dir);
    let trace = dir.join("t.jsonl");
    let metrics = dir.join("m.json");
    let out = dir.join("out.csv");
    let output = run_cli(&[
        "dedup",
        "--input",
        input.to_str().unwrap(),
        "--platform",
        "perfect",
        "--shards",
        "2",
        "--trace",
        trace.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
        "--report",
        "json",
        "--output",
        out.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "cli failed: {}", String::from_utf8_lossy(&output.stderr));

    // Every JSONL line parses and carries the ts/kind/shard contract.
    let jsonl = std::fs::read_to_string(&trace).expect("trace file");
    let mut kinds = std::collections::BTreeSet::new();
    let mut lines = 0usize;
    for line in jsonl.lines() {
        let v = parse(line).unwrap_or_else(|e| panic!("unparseable trace line {line:?}: {e}"));
        assert!(v.get("ts").and_then(Value::as_u64).is_some(), "no ts in {line}");
        assert!(v.get("shard").and_then(Value::as_u64).is_some(), "no shard in {line}");
        let kind =
            v.get("kind").and_then(Value::as_str).unwrap_or_else(|| panic!("no kind in {line}"));
        kinds.insert(kind.to_string());
        lines += 1;
    }
    assert!(lines > 0, "trace is empty");
    // The acceptance coverage: matcher stages, shard-task state
    // transitions, and backend post/poll spans all present.
    for required in [
        "matcher.tokenize",
        "matcher.index",
        "matcher.probe",
        "task.state",
        "backend.post",
        "backend.poll",
    ] {
        assert!(kinds.contains(required), "trace missing {required}; saw {kinds:?}");
    }

    // The Chrome twin is one valid document Perfetto can load.
    let chrome_path = format!("{}.chrome.json", trace.to_str().unwrap());
    let chrome = std::fs::read_to_string(&chrome_path).expect("chrome trace file");
    let doc = parse(&chrome).expect("chrome trace parses");
    let events = doc.get("traceEvents").and_then(Value::as_arr).expect("traceEvents array");
    assert!(!events.is_empty(), "chrome trace has no events");
    for ev in events {
        assert!(ev.get("ph").and_then(Value::as_str).is_some(), "event without phase");
        assert!(ev.get("pid").and_then(Value::as_u64).is_some(), "event without pid");
    }
    // Complete ("X") events carry durations; at least the matcher spans do.
    assert!(
        events.iter().any(|ev| ev.get("ph").and_then(Value::as_str) == Some("X")
            && ev.get("dur").and_then(Value::as_u64).is_some()),
        "no complete events with durations"
    );

    // Metrics snapshot: tagged document with per-shard rows.
    let m =
        parse(&std::fs::read_to_string(&metrics).expect("metrics file")).expect("metrics parse");
    assert_eq!(m.get("schema").and_then(Value::as_str), Some("crowdjoin-metrics/1"));
    let rows = m.get("metrics").and_then(Value::as_arr).expect("metrics array");
    for name in [
        "engine.answers",
        "engine.scans",
        "engine.scans_skipped",
        "engine.scan_visits",
        "engine.scan_decisions",
    ] {
        assert!(
            rows.iter().any(|r| r.get("name").and_then(Value::as_str) == Some(name)),
            "metrics missing {name}"
        );
    }
    // Every scan visits each position and decides only those it does not
    // replay; the first scan decides them all.
    let total = |name: &str| -> u64 {
        rows.iter()
            .filter(|r| r.get("name").and_then(Value::as_str) == Some(name))
            .map(|r| r.get("value").and_then(Value::as_u64).expect("counter value"))
            .sum()
    };
    let decisions = total("engine.scan_decisions");
    assert!(0 < decisions && decisions <= total("engine.scan_visits"), "decisions {decisions}");

    // The stdout report: one tagged document with the engine rollups.
    let report = parse(&String::from_utf8_lossy(&output.stdout)).expect("report parses");
    assert_eq!(report.get("schema").and_then(Value::as_str), Some("crowdjoin-report/1"));
    let engine = report.get("engine").expect("engine section");
    assert!(engine.get("shard_metrics").and_then(Value::as_arr).is_some(), "shard_metrics");
    assert!(engine.get("round_metrics").and_then(Value::as_arr).is_some(), "round_metrics");
    assert!(report.get("labeled").is_some(), "labeled section");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn csv_output_is_byte_identical_with_and_without_sinks() {
    let dir = temp_dir("identical");
    let input = write_input(&dir);
    let out_plain = dir.join("plain.csv");
    let out_traced = dir.join("traced.csv");
    let trace = dir.join("t.jsonl");
    let base =
        ["dedup", "--input", input.to_str().unwrap(), "--platform", "perfect", "--shards", "4"];

    let mut plain_args: Vec<&str> = base.to_vec();
    plain_args.extend_from_slice(&["--output", out_plain.to_str().unwrap()]);
    let plain = run_cli(&plain_args);
    assert!(plain.status.success(), "plain run failed: {}", String::from_utf8_lossy(&plain.stderr));

    let mut traced_args: Vec<&str> = base.to_vec();
    traced_args.extend_from_slice(&[
        "--output",
        out_traced.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    let traced = run_cli(&traced_args);
    assert!(
        traced.status.success(),
        "traced run failed: {}",
        String::from_utf8_lossy(&traced.stderr)
    );

    let plain_csv = std::fs::read(&out_plain).expect("plain csv");
    let traced_csv = std::fs::read(&out_traced).expect("traced csv");
    assert!(!plain_csv.is_empty());
    assert_eq!(plain_csv, traced_csv, "labels CSV diverged under tracing");
    // And the human summaries (stderr) agree too.
    assert_eq!(
        String::from_utf8_lossy(&plain.stderr),
        String::from_utf8_lossy(&traced.stderr),
        "human report diverged under tracing"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
