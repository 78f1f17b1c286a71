//! `compare OLD NEW [--bench BENCHMARK.json]`
//!
//! OLD and NEW are each a directory of run records (as written under
//! `.perfbench_out/runs/`) or a file with one record or result JSON per
//! line. Prints one JSON object with a row per workload × metric: both
//! sides' medians and quartiles, the share of seed-paired runs the new side
//! won, and a verdict (improved / unchanged / worse / unresolved). Exits 1
//! when any metric got worse.

use perfbench::compare::{declarations, rows, RunRecord, Verdict};
use perfbench::report::{obj, text};
use serde::Value;
use std::path::Path;
use std::process::ExitCode;

fn load(path: &Path) -> Result<Vec<RunRecord>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{path:?}: {e}"))? {
            let p = entry.map_err(|e| format!("{path:?}: {e}"))?.path();
            if p.extension().is_some_and(|e| e == "json" || e == "jsonl") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut runs = Vec::new();
    for f in files {
        let body = std::fs::read_to_string(&f).map_err(|e| format!("{f:?}: {e}"))?;
        for line in body.lines().filter(|l| l.trim_start().starts_with('{')) {
            runs.push(RunRecord::parse(line).map_err(|e| format!("{f:?}: {e}"))?);
        }
    }
    Ok(runs)
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench = "BENCHMARK.json".to_string();
    let mut sides = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = it.next().ok_or("--bench needs a path")?.clone();
        } else {
            sides.push(a.clone());
        }
    }
    let [old, new] = sides.as_slice() else {
        return Err("usage: compare OLD NEW [--bench BENCHMARK.json]".into());
    };
    let bench_text = std::fs::read_to_string(&bench).map_err(|e| format!("{bench}: {e}"))?;
    let decl =
        declarations(&serde_json::from_str(&bench_text).map_err(|e| format!("{bench}: {e}"))?);
    let (old_runs, new_runs) = (load(Path::new(old))?, load(Path::new(new))?);
    let rows = rows(&old_runs, &new_runs, &decl);
    let mut any_worse = false;
    let out: Vec<Value> = rows
        .iter()
        .map(|((workload, metric), row)| {
            let verdict = row.verdict();
            any_worse |= verdict == Verdict::Worse;
            eprintln!("{workload:<8} {metric:<28} {}", verdict.name());
            let Value::Object(mut fields) = row.to_json() else {
                unreachable!("rows render as objects")
            };
            fields.insert(0, ("metric".to_string(), text(metric)));
            fields.insert(0, ("workload".to_string(), text(workload)));
            Value::Object(fields)
        })
        .collect();
    let report = obj(vec![
        ("old", text(old)),
        ("new", text(new)),
        ("rows", Value::Array(out)),
    ]);
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("a value tree always renders")
    );
    Ok(!any_worse)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
