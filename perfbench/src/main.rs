//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload querylog|drift|tcp|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a human-readable report, a host stamp line, and, last, one JSON
//! result line per workload. Exits non-zero when an output check fails.

use perfbench::{host_json, result_json, run, Opts, Scale, Workload, END_TO_END, PER_LAYER};
use std::time::Duration;

fn parse_args() -> Result<(Vec<Workload>, Opts), String> {
    let mut workloads = Workload::ALL.to_vec();
    let mut opts = Opts {
        seed: 1,
        duration: Duration::from_secs(20),
        trace: false,
        scale: Scale::Full,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Workload::ALL.to_vec(),
            "--workload" => {
                workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?]
            }
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_owned());
                }
                opts.duration = Duration::from_secs_f64(seconds);
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok((workloads, opts))
}

fn main() {
    let (workloads, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut all_correct = true;
    let mut results = Vec::new();
    for workload in workloads {
        let outcome = run(workload, &opts);
        println!(
            "== {} (seed {}, trace {})",
            workload.name(),
            opts.seed,
            opts.trace
        );
        for note in &outcome.notes {
            println!("  {note}");
        }
        for (name, unit) in table {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            println!("  {name:<30} {value:>16.6} {unit}");
        }
        for failure in &outcome.check_failures {
            println!("  CHECK FAILED: {failure}");
        }
        println!(
            "  attempted {} failed {} correct {}",
            outcome.attempted,
            outcome.failed,
            outcome.correct()
        );
        println!("{}", host_json(workload.name(), &opts));
        all_correct &= outcome.correct();
        results.push(result_json(&outcome, opts.trace));
    }
    for line in results {
        println!("{line}");
    }
    if !all_correct {
        std::process::exit(1);
    }
}
