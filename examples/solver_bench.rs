//! Solver engineering benchmark: multi-start BCD without and with EMA
//! aborts, and the warm-started re-solve, on exp2-like (frequency-only) and
//! exp3-like (feature-active) training workloads.
//!
//! ```text
//! cargo run --release --example solver_bench -- \
//!     [--n 3000] [--buckets 32] [--restarts 4] [--seed 17] [--smoke] \
//!     [--out BENCH_solver.json]
//! ```
//!
//! For each workload the run reports wall time, sweeps, candidate moves
//! evaluated, and EMA abort counts for the three training paths, writing the
//! performance trajectory to `BENCH_solver.json`. `--smoke` shrinks the
//! instances so CI can exercise the full path in seconds.
//!
//! Invariant asserted on every run: warm-started re-solves carry the
//! warm-start flag.

use opthash_bench::reporting::{JsonFields, PerfReport};
use opthash_repro::prelude::*;
use std::time::Instant;

struct Args {
    n: usize,
    buckets: usize,
    restarts: usize,
    seed: u64,
    smoke: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        n: 3_000,
        buckets: 32,
        restarts: 4,
        seed: 17,
        smoke: false,
        out: "BENCH_solver.json".to_owned(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--n" => args.n = value("--n")?.parse().map_err(|e| format!("{e}"))?,
            "--buckets" => {
                args.buckets = value("--buckets")?.parse().map_err(|e| format!("{e}"))?
            }
            "--restarts" => {
                args.restarts = value("--restarts")?.parse().map_err(|e| format!("{e}"))?
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--smoke" => args.smoke = true,
            "--out" => args.out = value("--out")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.smoke {
        args.n = args.n.min(400);
        args.restarts = args.restarts.min(2);
    }
    Ok(args)
}

/// Deterministic heavy-tailed frequencies (xorshift; same family as the
/// criterion benches).
fn frequencies(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let r = (state % 1000) as f64 / 1000.0;
            (1.0 / (r + 0.01)).min(500.0)
        })
        .collect()
}

fn features(n: usize, seed: u64) -> Vec<Features> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Features::new(vec![
                (state % 100) as f64 / 10.0,
                (state % 73) as f64 / 10.0,
            ])
        })
        .collect()
}

/// Drifted copy of `freqs` (±5%), modelling the between-retrain drift the
/// warm-started re-solve faces.
fn perturb(freqs: &[f64]) -> Vec<f64> {
    freqs
        .iter()
        .enumerate()
        .map(|(i, &f)| (f * (0.95 + ((i * 13) % 11) as f64 / 100.0)).max(0.5))
        .collect()
}

fn stats_fields(prefix: &str, stats: &SolverStats, fields: JsonFields) -> JsonFields {
    fields
        .float(
            &format!("{prefix}_ms"),
            stats.elapsed.as_secs_f64() * 1e3,
            3,
        )
        .int(&format!("{prefix}_sweeps"), stats.iterations as i64)
        .int(
            &format!("{prefix}_moves_evaluated"),
            stats.moves_evaluated as i128,
        )
        .int(
            &format!("{prefix}_restarts_aborted"),
            stats.restarts_aborted as i64,
        )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().map_err(|e| {
        eprintln!("solver_bench: {e}");
        e
    })?;

    let config = BcdConfig {
        restarts: args.restarts,
        seed: args.seed,
        ..BcdConfig::default()
    };
    // No-abort reference: every restart descends to convergence. This is the
    // baseline the EMA-abort speedup is measured against.
    let full_solver = BcdSolver::new(config.without_aborts());
    let cold_solver = BcdSolver::new(config);
    let warm_solver = BcdSolver::new(config.with_warm_start());

    let exp3_n = (args.n * 2) / 5; // feature workloads carry an O(n²·d) term
    let workloads = [
        (
            "exp2_frequency_only",
            HashingProblem::frequency_only(frequencies(args.n, args.seed), args.buckets),
            HashingProblem::frequency_only(perturb(&frequencies(args.n, args.seed)), args.buckets),
        ),
        (
            "exp3_features_lambda0.5",
            HashingProblem::new(
                frequencies(exp3_n, args.seed + 1),
                features(exp3_n, args.seed + 2),
                args.buckets / 2,
                0.5,
            ),
            HashingProblem::new(
                perturb(&frequencies(exp3_n, args.seed + 1)),
                features(exp3_n, args.seed + 2),
                args.buckets / 2,
                0.5,
            ),
        ),
    ];

    let mut report = PerfReport::new("solver_bench");
    let start = Instant::now();

    for (name, problem, drifted) in &workloads {
        let full = full_solver.solve(problem);
        let cold = cold_solver.solve(problem);
        // Re-solve the drifted instance warm-started from the incumbent —
        // the online retrainer's steady-state path.
        let warm = warm_solver.solve_warm(drifted, &cold);

        assert!(warm.stats.warm_started, "warm path must record its seed");

        let speedup_abort = full.stats.elapsed.as_secs_f64() / cold.stats.elapsed.as_secs_f64();
        let speedup_warm = cold.stats.elapsed.as_secs_f64() / warm.stats.elapsed.as_secs_f64();
        println!(
            "{name}: no-abort {:.1} ms | cold {:.1} ms ({} sweeps, {} moves, \
             {} aborts, {:.2}x) | warm {:.1} ms ({:.2}x vs cold)",
            full.stats.elapsed.as_secs_f64() * 1e3,
            cold.stats.elapsed.as_secs_f64() * 1e3,
            cold.stats.iterations,
            cold.stats.moves_evaluated,
            cold.stats.restarts_aborted,
            speedup_abort,
            warm.stats.elapsed.as_secs_f64() * 1e3,
            speedup_warm,
        );

        let mut fields = JsonFields::new()
            .text("workload", name)
            .int("n", problem.len() as i64)
            .int("buckets", problem.buckets as i64)
            .float("lambda", problem.lambda, 2)
            .float("no_abort_objective", full.objective, 3)
            .float("cold_objective", cold.objective, 3)
            .float("warm_objective", warm.objective, 3);
        fields = stats_fields("no_abort", &full.stats, fields);
        fields = stats_fields("cold", &cold.stats, fields);
        fields = stats_fields("warm", &warm.stats, fields);
        report.push(
            "workloads",
            fields
                .flag("warm_started", warm.stats.warm_started)
                .float("speedup_aborts_vs_no_abort", speedup_abort, 2)
                .float("speedup_warm_vs_cold", speedup_warm, 2),
        );
    }

    report.set(
        JsonFields::new()
            .int("n", args.n as i64)
            .int("buckets", args.buckets as i64)
            .int("restarts", args.restarts as i64)
            .int("seed", args.seed as i64)
            .flag("smoke", args.smoke)
            .int(
                "threads_available",
                std::thread::available_parallelism().map_or(1, |p| p.get()) as i64,
            )
            .float("total_seconds", start.elapsed().as_secs_f64(), 2),
    );
    report.write(&args.out)?;
    println!("wrote {}", args.out);
    Ok(())
}
