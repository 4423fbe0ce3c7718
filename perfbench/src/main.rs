//! Benchmark entry point. Usage:
//!
//! ```text
//! dynamast-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    [--work-dir <dir>]
//! ```
//!
//! Prints a human-readable table, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Exits
//! non-zero if a correctness check fails.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use dynamast_perfbench::{result_json, run, RunOptions, Size, WorkloadKind, GATED_END_TO_END};

const USAGE: &str = "usage: dynamast-perfbench --workload <smallbank_hotspot|ycsb_scan_uniform|\
ycsb_partial_durable> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]";

/// Warm-up of each round: long enough for the first placements of the hot
/// set to settle.
const WARMUP: Duration = Duration::from_secs(2);

fn parse_args() -> Result<RunOptions, String> {
    let mut work_dir = PathBuf::from(".bench_out");
    let (mut workload, mut seed, mut window, mut trace) = (None, None, None, None);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed =
                    Some(value.parse().map_err(|_| {
                        format!("--seed: expected an unsigned integer, got {value}")
                    })?)
            }
            "--seconds" => {
                window = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 120.0)
                        .map(Duration::from_secs_f64)
                        .ok_or_else(|| format!("--seconds: expected (0, 120], got {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: WorkloadKind = workload.ok_or("--workload is required")?;
    Ok(RunOptions {
        workload,
        seed: seed.ok_or("--seed is required")?,
        window: window.ok_or("--seconds is required")?,
        warmup: WARMUP,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
        rounds: workload.rounds(),
        work_dir,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            return ExitCode::from(1);
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# {} seed={} measured={:?} in {} rounds, warmup={:?} per round, trace={} cpus={threads}",
        opts.workload.name(),
        opts.seed,
        opts.window,
        opts.rounds,
        opts.warmup,
        opts.trace
    );
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        println!("{:<42} {:>14.3} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    if let Some(path) = &report.span_file {
        println!("# spans written to {}", path.display());
    }
    for f in &report.failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    let metrics: Vec<_> = if opts.trace {
        report.per_layer.clone()
    } else {
        report
            .end_to_end
            .iter()
            .filter(|m| GATED_END_TO_END.contains(&m.name.as_str()))
            .cloned()
            .collect()
    };
    println!("{}", result_json(&report, &metrics));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
