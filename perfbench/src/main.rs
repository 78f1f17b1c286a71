//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets up three times (reporting the median as `setup_s`), runs the
//! workload's timed phase on the last set-up, checks every answer, and
//! prints the metrics by name and unit. The last stdout line is the result
//! JSON; the full record (host, sample counts, spans summary) is the line
//! before it and is also written under `.perfbench_out/runs/`. Exits
//! non-zero when a correctness gate fails.

use perfbench::report::{self, num, obj, text, END_TO_END, PER_LAYER};
use perfbench::sets::Decisions;
use perfbench::setup::{Inputs, Setup};
use perfbench::stats::median;
use perfbench::trace::{self, Span};
use perfbench::workloads::{histogram_p50_us, Env, Outcome, Workload, NAMES};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Everything the benchmark writes goes under this directory of the
/// working directory.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if NAMES.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?} (one of {NAMES:?})")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let result = parse_args().and_then(|args| run(&args, started));
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: correctness gate failed (see failed ops above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn p50_us(o: &Outcome) -> Result<f64, String> {
    Ok(o.phase.p50_ns().map_err(|e| format!("latency p50: {e}"))? / 1e3)
}

fn p99_us(o: &Outcome) -> Result<f64, String> {
    let ns = o.phase.latency.quantile(0.99);
    Ok(ns.map_err(|e| format!("latency p99: {e}"))? / 1e3)
}

fn run(args: &Args, started: Instant) -> Result<bool, String> {
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out.join("runs")).map_err(|e| format!("creating {out:?}: {e}"))?;
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take()); // one set-up alive at a time
        let t0 = if rep == 0 { started } else { Instant::now() };
        let inputs = Inputs::generate(args.seed);
        let dir = out.join(format!("hub-{}-{rep}", std::process::id()));
        let setup = Setup::build(&inputs, dir)?;
        let (plan, jobs) = (Decisions::plan(&inputs), Decisions::onboard(&inputs));
        let env = Env {
            inputs: &inputs,
            setup: &setup,
            plan: &plan,
            jobs: &jobs,
        };
        let work = Workload::prepare(&args.workload, &env)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some((inputs, setup, plan, jobs, work));
    }
    let (inputs, setup, plan, jobs, work) = kept.expect("at least one set-up");
    let env = Env {
        inputs: &inputs,
        setup: &setup,
        plan: &plan,
        jobs: &jobs,
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let mut samples: Vec<(&str, Value)> = vec![("setup_reps", num(SETUP_REPS as f64))];
    let mut extra: Vec<(&str, Value)> = Vec::new();
    let outcomes = if args.trace {
        let untraced = work.phase(&env, args.seconds / 2.0, false, 0);
        let traced = work.phase(&env, args.seconds / 2.0, true, 1);
        values.extend(traced.layers.iter().copied());
        values.insert("trace.overhead_us", p50_us(&traced)? - p50_us(&untraced)?);
        values.insert("train.pretrain_s", median(&setup.pretrain_s));
        values.insert("train.step_us", histogram_p50_us(&setup.train_steps));
        samples.push(("traced_ops", num(traced.phase.attempted as f64)));
        samples.push(("untraced_ops", num(untraced.phase.attempted as f64)));
        samples.push(("spans", num(traced.phase.spans.len() as f64)));
        samples.push(("train_steps", num(setup.train_steps.count() as f64)));
        let spans_path = out.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        trace::write_tsv(&spans_path, &traced.phase.spans)
            .map_err(|e| format!("writing {spans_path:?}: {e}"))?;
        println!("# spans written to {}", spans_path.display());
        extra.push(("spans", span_summary(&traced.phase.spans)));
        vec![untraced, traced]
    } else {
        let o = work.phase(&env, args.seconds, false, 0);
        values.insert("ops_per_s", o.phase.ops_per_s());
        values.insert("latency_p50_us", p50_us(&o)?);
        values.insert("latency_p99_us", p99_us(&o)?);
        values.insert("setup_s", median(&setup_s));
        // Quality, outside the timed path: exact functions of the seed.
        let evaluation = Decisions::evaluation(&inputs);
        values.insert("success_rate", evaluation.replayed_success_rate(&setup));
        values.insert("mre", jobs.mean_mre(&setup));
        values.insert("peak_rss_mb", report::peak_rss_mb()?);
        samples.push(("latency_ops", num(o.phase.latency.count() as f64)));
        samples.push((
            "latency_beyond_p99",
            num(o.phase.latency.beyond(0.99) as f64),
        ));
        samples.push((
            "success_rate_decisions",
            num(evaluation.decisions.len() as f64),
        ));
        samples.push(("mre_jobs", num(jobs.contexts.len() as f64)));
        extra.push((
            "setup_s_each",
            Value::Array(setup_s.iter().map(|&s| num(s)).collect()),
        ));
        vec![o]
    };

    let attempted: u64 = outcomes.iter().map(|o| o.phase.attempted).sum();
    let gate_failed: u64 = outcomes.iter().map(|o| o.phase.failed).sum();
    let counted: u64 = outcomes.iter().map(|o| o.counted_failures).sum();
    let failed = (gate_failed + counted).min(attempted);
    let correct = failed == 0;
    let decl = if args.trace { PER_LAYER } else { END_TO_END };
    for d in decl {
        let v = values.get(d.name).copied().unwrap_or(0.0);
        let note = if values.contains_key(d.name) {
            ""
        } else {
            "  (layer not exercised)"
        };
        println!("{:<28} {v:>16.4} {}{note}", d.name, d.unit);
    }
    println!("attempted {attempted} failed {failed} (gate {gate_failed}, counted by the program {counted})");

    let metrics = report::metrics_json(decl, &values);
    let mut fields = vec![
        ("workload", text(&args.workload)),
        ("seed", num(args.seed as f64)),
        ("trace", num(args.trace as u8)),
        ("seconds", num(args.seconds)),
        ("host", report::host_json()),
        ("correct", Value::Bool(correct)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("samples", obj(samples)),
        ("metrics", metrics.clone()),
    ];
    fields.extend(extra);
    let record = serde_json::to_string(&obj(fields)).expect("a value tree always renders");
    let record_path: PathBuf = out.join("runs").join(format!(
        "{}-seed{}-trace{}-{}.json",
        args.workload,
        args.seed,
        args.trace as u8,
        std::process::id()
    ));
    std::fs::write(&record_path, format!("{record}\n"))
        .map_err(|e| format!("writing {record_path:?}: {e}"))?;
    println!("{record}");
    println!(
        "{}",
        report::result_line(correct, attempted, failed, metrics)
    );
    Ok(correct)
}

/// Per span name: count, median duration and median self time (µs).
fn span_summary(spans: &[Span]) -> Value {
    let selfs = trace::self_times(spans);
    let mut by_name: BTreeMap<&str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.duration_ns());
        e.1.push(self_ns);
    }
    Value::Object(
        by_name
            .into_iter()
            .map(|(name, (mut d, mut sf))| {
                d.sort_unstable();
                sf.sort_unstable();
                let med = |v: &[u64]| bellamy_telemetry::nearest_rank(v, 0.5) as f64 / 1e3;
                println!(
                    "span {name:<28} n={:<8} p50_us={:<10.3} self_p50_us={:.3}",
                    d.len(),
                    med(&d),
                    med(&sf)
                );
                (
                    name.to_string(),
                    obj(vec![
                        ("n", num(d.len() as f64)),
                        ("p50_us", num(med(&d))),
                        ("self_p50_us", num(med(&sf))),
                    ]),
                )
            })
            .collect(),
    )
}
