//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload and prints its metrics by name and unit; the last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the run also records spans,
//! writes them under `.bench_out/`, and reports the per-layer metrics.

use std::path::Path;
use std::process::{Command, ExitCode};

use perfbench::host::{knobs_set, HostFacts, Records, OUT_DIR};
use perfbench::run::{self, Metrics, RunResult};
use perfbench::spans::{json_num, self_times_by_name, Tracer};
use perfbench::stats::median;
use perfbench::workload::{Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// Set-up samples taken in fresh child processes, on top of the run's own:
/// the planner's calibration is cached per process, so only a fresh
/// process measures a cold set-up.
const SETUP_CHILDREN: usize = 4;

const USAGE: &str = "usage: perfbench --workload <chat|long_prefix|overload|offline_2d> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_only) =
        (None, DEFAULT_SEED, 20.0, false, false);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

/// Cold set-up times measured in child processes.
fn setup_samples(w: Workload) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..SETUP_CHILDREN)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--setup-only"])
                .output()
                .map_err(|e| format!("cannot start set-up sample: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            text.lines()
                .find_map(|l| l.strip_prefix("setup_s ")?.trim().parse().ok())
                .filter(|_| out.status.success())
                .ok_or_else(|| {
                    format!(
                        "set-up sample failed: {}",
                        String::from_utf8_lossy(&out.stderr)
                    )
                })
        })
        .collect()
}

fn print_metrics(title: &str, m: &Metrics) {
    println!("{title}:");
    for (name, v, unit) in &m.0 {
        println!("  {name:<38} {v:>14.6} {unit}");
    }
}

fn json_line(res: &RunResult, metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .0
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.failed == 0 && res.attempted > 0,
        res.attempted.max(1),
        res.failed,
        fields.join(", ")
    )
}

/// Flags planner decisions that differ from the first run of the same
/// commit recorded for the same shape, instead of letting runs with
/// different plans average.
fn planner_check(rec: &Records, w: Workload, plan: &[String]) {
    let name = format!("planner-{}", w.name());
    let mut diverged = Vec::new();
    for d in plan {
        let Some((shape, mode)) = d.split_once('=') else {
            continue;
        };
        match rec.remember(&name, shape, mode) {
            Ok(Some(prior)) if prior != mode => {
                diverged.push(format!("{shape}: {prior} -> {mode}"))
            }
            Ok(_) => {}
            Err(e) => eprintln!("perfbench: cannot keep planner records: {e}"),
        }
    }
    println!("planner decisions: {}", plan.join(" "));
    if !diverged.is_empty() {
        println!(
            "PLANNER DIVERGED from earlier runs of {}: {}",
            w.name(),
            diverged.join(", ")
        );
    }
}

/// The record key of a run's end-to-end metrics: its inputs and length.
fn e2e_key(args: &Args) -> String {
    format!("{}/{}", args.seed, args.seconds)
}

/// Writes the spans and prints each layer's self time and the tracing
/// overhead against the latest untraced run of the same commit, workload,
/// seed and length.
fn trace_report(root: &Path, rec: &Records, args: &Args, tr: &Tracer, e2e: &Metrics) {
    let path =
        root.join(OUT_DIR)
            .join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
    match std::fs::create_dir_all(root.join(OUT_DIR))
        .and_then(|()| std::fs::write(&path, tr.to_json()))
    {
        Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
    }
    println!("self time by span:");
    for (name, secs, count) in self_times_by_name(tr.spans()) {
        println!("  {name:<38} {secs:>12.6} s over {count} spans");
    }
    match rec.recall(&format!("e2e-{}", args.workload.name()), &e2e_key(args)) {
        Some(line) => {
            println!("tracing overhead (traced vs untraced run, same seed):");
            for kv in line.split(',') {
                let Some((n, v)) = kv.split_once('=') else {
                    continue;
                };
                let (Ok(base), Some(traced)) = (v.parse::<f64>(), e2e.get(n)) else {
                    continue;
                };
                if base != 0.0 {
                    println!("  {n:<38} {:>+10.2}%", (traced - base) / base * 100.0);
                }
            }
        }
        None => {
            println!("tracing overhead: no untraced run of this commit, workload, seed and length recorded yet")
        }
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = knobs_set(|k| std::env::var(k).ok());
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: each silently changes the measured program",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let w = args.workload;
    if args.setup_only {
        return match run::setup_only(w) {
            Ok(s) => {
                println!("setup_s {s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let root = match std::env::current_dir() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host = HostFacts::probe(&root);
    let rec = Records::new(&root, &host.commit);
    let chips = w.layout().mesh.n_chips();
    println!(
        "perfbench {} seed {} ({} default, {} held out) seconds {} trace {}",
        w.name(),
        args.seed,
        DEFAULT_SEED,
        HELD_OUT_SEED,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc {} chips {chips} chips_per_core {:.2}{} avx2 {} simd_active {} commit {}",
        host.nproc,
        chips as f64 / host.nproc as f64,
        if chips > host.nproc {
            " (oversubscribed)"
        } else {
            ""
        },
        host.avx2,
        host.simd_active,
        host.commit
    );
    let samples = match setup_samples(w) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut tr = Tracer::new(args.trace);
    let res = match run::run(&rec, w, args.seed, args.seconds, &mut tr, samples.clone()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "setup samples (s): {:?}, median {:.6}",
        samples,
        median(&samples).unwrap_or(0.0)
    );
    planner_check(&rec, w, &res.plan);
    print_metrics("end-to-end", &res.e2e);
    println!(
        "operations: {} attempted, {} failed",
        res.attempted, res.failed
    );
    if args.trace {
        print_metrics("per-layer", &res.layers);
        trace_report(&root, &rec, &args, &tr, &res.e2e);
        println!("{}", json_line(&res, &res.layers));
    } else {
        let line: Vec<String> = res
            .e2e
            .0
            .iter()
            .map(|(n, v, _)| format!("{n}={v}"))
            .collect();
        if let Err(e) = rec.store(
            &format!("e2e-{}", w.name()),
            &e2e_key(&args),
            &line.join(","),
        ) {
            eprintln!("perfbench: cannot keep run records: {e}");
        }
        println!("{}", json_line(&res, &res.e2e));
    }
    ExitCode::SUCCESS
}
