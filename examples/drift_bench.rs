//! Drift benchmark: error-vs-drift for the online-retraining engine against
//! a statically trained `OptHash` and a plain Count-Min sketch, on the
//! rotating-Zipf drifting workload of `opthash_datagen::drift`.
//!
//! ```text
//! cargo run --release --example drift_bench -- \
//!     [--universe 2000] [--epoch-len 20000] [--epochs 4] [--rotation 500] \
//!     [--buckets 64] [--window 8000] [--interval 3000] [--seed 42] \
//!     [--out BENCH_drift.json]
//! ```
//!
//! All three estimators ingest the identical arrival sequence. After each
//! epoch every estimator is probed over the distinct elements of the last
//! `window` arrivals and scored by mean absolute error against the *exact
//! sliding-window counts* — the quantity a drift-aware monitor wants. The
//! static schemes accumulate forever, so once the hot set rotates away from
//! their training distribution their window error grows; the retraining
//! engine re-solves on its window (BCD warm-started from the incumbent
//! assignment) and hot-swaps the fresh scheme in without stalling ingest.
//!
//! The run asserts the headline claim recorded in `BENCH_drift.json`: from
//! the first post-drift epoch on, the retraining engine's error is at least
//! 25% below the static `OptHash`'s, and every hot-swap conserves mass.

use opthash_bench::reporting::{JsonFields, PerfReport};
use opthash_repro::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

struct Args {
    universe: usize,
    epoch_len: usize,
    epochs: usize,
    rotation: usize,
    buckets: usize,
    window: usize,
    interval: usize,
    seed: u64,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        universe: 2_000,
        epoch_len: 20_000,
        epochs: 4,
        rotation: 500,
        buckets: 64,
        window: 8_000,
        interval: 3_000,
        seed: 42,
        out: "BENCH_drift.json".to_owned(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} expects a value"));
        let parsed = |v: String| v.parse::<usize>().map_err(|e| format!("{e}"));
        match flag.as_str() {
            "--universe" => args.universe = parsed(value("--universe")?)?,
            "--epoch-len" => args.epoch_len = parsed(value("--epoch-len")?)?,
            "--epochs" => args.epochs = parsed(value("--epochs")?)?,
            "--rotation" => args.rotation = parsed(value("--rotation")?)?,
            "--buckets" => args.buckets = parsed(value("--buckets")?)?,
            "--window" => args.window = parsed(value("--window")?)?,
            "--interval" => args.interval = parsed(value("--interval")?)?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--out" => args.out = value("--out")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Mean absolute error of `estimate` against the exact counts of the window
/// held in `tail`, probed at every distinct element of that window.
fn window_mae(
    tail: &VecDeque<StreamElement>,
    mut estimate: impl FnMut(&StreamElement) -> f64,
) -> f64 {
    let mut truth: HashMap<ElementId, (u64, &StreamElement)> = HashMap::new();
    for element in tail {
        truth
            .entry(element.id)
            .and_modify(|entry| entry.0 += 1)
            .or_insert((1, element));
    }
    let total: f64 = truth
        .values()
        .map(|&(count, element)| (estimate(element) - count as f64).abs())
        .sum();
    total / truth.len().max(1) as f64
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().map_err(|e| {
        eprintln!("drift_bench: {e}");
        e
    })?;

    let workload = DriftingWorkload::new(DriftConfig {
        universe: args.universe,
        exponent: 1.1,
        epoch_len: args.epoch_len,
        epochs: args.epochs,
        rotation: args.rotation,
        seed: args.seed,
    });

    let bcd = BcdConfig::default().with_warm_start();
    let solver = SolverKind::Bcd(bcd);

    // Bootstrap: all three learned-or-static competitors meet epoch 0 first.
    let epoch0 = workload.epoch_arrivals(0);
    let boot = &epoch0[..args.window.min(epoch0.len())];
    let boot_prefix = StreamPrefix::from_stream(Stream::from_arrivals(boot.to_vec()));

    let initial = OptHashBuilder::new(args.buckets)
        .lambda(1.0)
        .solver(solver)
        .train(&boot_prefix);
    let cold_boot_stats = initial.solution().stats.clone();

    let mut retrainer = Retrainer::new(
        initial.clone(),
        EngineConfig::with_shards(4),
        RetrainConfig {
            window: args.window,
            retrain_interval: args.interval,
            min_distinct: 32,
            background: false, // deterministic: retrain inline on schedule
        },
    );
    let mut static_opthash = initial;
    // Space-comparable baseline: same order of counters as the learned
    // scheme's bucket array.
    let mut count_min = CountMinSketch::new(args.buckets.next_power_of_two(), 4, args.seed);

    let mut report = PerfReport::new("drift_bench");
    let start = Instant::now();
    let mut tail: VecDeque<StreamElement> = VecDeque::with_capacity(args.window + 1);
    let mut improvements = Vec::new();

    for epoch in 0..args.epochs {
        let arrivals = if epoch == 0 {
            epoch0.clone()
        } else {
            workload.epoch_arrivals(epoch)
        };
        for element in &arrivals {
            retrainer.ingest(element)?;
            static_opthash.add(element, 1);
            count_min.add(element.id, 1);
            if tail.len() == args.window {
                tail.pop_front();
            }
            tail.push_back(element.clone());
        }

        let mae_retrain = {
            let r = &mut retrainer;
            window_mae(&tail, |e| r.query(e).expect("query"))
        };
        let mae_static = window_mae(&tail, |e| FrequencyEstimator::estimate(&static_opthash, e));
        let mae_cms = window_mae(&tail, |e| count_min.query(e.id) as f64);

        let improvement = if mae_static > 0.0 {
            1.0 - mae_retrain / mae_static
        } else {
            0.0
        };
        if epoch >= 1 {
            improvements.push(improvement);
        }
        let engine = retrainer.engine_stats();
        assert_eq!(
            engine.unaccounted_mass(),
            0,
            "hot-swaps must conserve mass (epoch {epoch})"
        );

        println!(
            "epoch {epoch}: retrain mae={mae_retrain:.2} static={mae_static:.2} \
             cms={mae_cms:.2} improvement={:.1}% scheme=v{}",
            improvement * 100.0,
            retrainer.scheme_version()
        );
        report.push(
            "per_epoch",
            JsonFields::new()
                .int("epoch", epoch as i64)
                .float("mae_retraining_engine", mae_retrain, 3)
                .float("mae_static_opthash", mae_static, 3)
                .float("mae_count_min", mae_cms, 3)
                .float("improvement_vs_static_pct", improvement * 100.0, 1)
                .int("scheme_version", retrainer.scheme_version() as i64)
                .int("unaccounted_mass", engine.unaccounted_mass()),
        );
    }

    let elapsed = start.elapsed();
    let scheme = retrainer.scheme();
    let warm_stats = scheme.solver_stats().clone();
    let rstats = retrainer.retrain_stats();

    // Post-drift claim: the retraining engine must beat the static scheme
    // by ≥ 25% in every epoch after the first rotation.
    let worst = improvements.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        worst >= 0.25,
        "retraining engine must cut window error ≥ 25% vs static OptHash \
         after the first drift epoch (worst epoch improvement: {:.1}%)",
        worst * 100.0
    );
    assert!(rstats.swaps >= 1, "the schedule must have hot-swapped");
    // A window with no more distinct counts than buckets is solved exactly
    // by the equal-count shortcut, which has no descent to warm-start.
    assert!(
        warm_stats.warm_started || warm_stats.proven_optimal,
        "scheduled re-solves must warm-start from the incumbent or be proven optimal"
    );

    report.set(
        JsonFields::new()
            .int("universe", args.universe as i64)
            .int("epoch_len", args.epoch_len as i64)
            .int("epochs", args.epochs as i64)
            .int("rotation", args.rotation as i64)
            .int("buckets", args.buckets as i64)
            .int("window", args.window as i64)
            .int("retrain_interval", args.interval as i64)
            .int("seed", args.seed as i64)
            .float("total_seconds", elapsed.as_secs_f64(), 2)
            .int("retrains", rstats.retrains as i64)
            .int("swaps", rstats.swaps as i64)
            .int("failed_retrains", rstats.failed as i64)
            .int("final_scheme_version", retrainer.scheme_version() as i64)
            .float(
                "worst_post_drift_improvement_pct",
                if worst.is_finite() {
                    worst * 100.0
                } else {
                    0.0
                },
                1,
            )
            .float(
                "cold_boot_solve_ms",
                cold_boot_stats.elapsed.as_secs_f64() * 1_000.0,
                3,
            )
            .int("cold_boot_iterations", cold_boot_stats.iterations as i64)
            .float(
                "warm_resolve_ms",
                warm_stats.elapsed.as_secs_f64() * 1_000.0,
                3,
            )
            .int("warm_resolve_iterations", warm_stats.iterations as i64)
            .flag("warm_started", warm_stats.warm_started)
            .flag("proven_optimal", warm_stats.proven_optimal),
    );
    report.write(&args.out)?;
    println!("wrote {}", args.out);

    retrainer.finish()?;
    Ok(())
}
