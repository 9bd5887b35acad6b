//! `drift`: the online `Retrainer`, with its default `RetrainConfig`
//! (background solves raced through the portfolio), under an open-loop
//! rotating-Zipf stream paced in fixed slices. Window error is probed through
//! `Retrainer::query` at a fixed arrival cadence, over every distinct ID of
//! the last `window` arrivals.

use crate::stats::{self, chunked_percentile, percentile, secs, sorted, Tracer};
use crate::{
    precise_timers, repeated_setup, replica_seed, timed, wait_until, Opts, Outcome, Scale,
    INPUT_REPLICAS,
};
use opthash_repro::prelude::*;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups per input replica; `setup_s` is the median over all replicas.
const SETUP_REPS: usize = 3;

struct Params {
    universe: usize,
    rotation: usize,
    epoch_len: usize,
    arrivals_per_s: f64,
    slice: usize,
    buckets: usize,
    probe_every: usize,
    config: RetrainConfig,
}

impl Params {
    fn of(scale: Scale) -> Params {
        match scale {
            Scale::Full => Params {
                universe: 20_000,
                rotation: 5_000,
                epoch_len: 100_000,
                arrivals_per_s: 100_000.0,
                slice: 100,
                buckets: 256,
                probe_every: 10_000,
                config: RetrainConfig::default(),
            },
            Scale::Smoke => Params {
                universe: 2_000,
                rotation: 500,
                epoch_len: 10_000,
                arrivals_per_s: 20_000.0,
                slice: 100,
                buckets: 32,
                probe_every: 2_000,
                config: RetrainConfig {
                    window: 4_096,
                    retrain_interval: 2_048,
                    ..RetrainConfig::default()
                },
            },
        }
    }
}

/// Generated inputs; never timed.
struct Inputs {
    arrivals: Vec<StreamElement>,
    /// Per probe: arrival position and the window's exact `(id, count)`s.
    probes: Vec<(usize, Vec<(u64, u64)>)>,
}

impl Inputs {
    fn generate(p: &Params, opts: &Opts) -> Inputs {
        let slices = (p.arrivals_per_s * opts.duration.as_secs_f64() / p.slice as f64).ceil();
        let total = (slices as usize).max(1) * p.slice;
        let mut arrivals = drifting(p, opts.seed, total.div_ceil(p.epoch_len)).arrivals();
        arrivals.truncate(total);
        let window = p.config.window;
        let probes = (1..=total / p.probe_every)
            .map(|k| {
                let end = k * p.probe_every;
                let mut counts: HashMap<u64, u64> = HashMap::new();
                for element in &arrivals[end.saturating_sub(window)..end] {
                    *counts.entry(element.id.raw()).or_insert(0) += 1;
                }
                let mut counts: Vec<(u64, u64)> = counts.into_iter().collect();
                counts.sort_unstable();
                (end, counts)
            })
            .collect();
        Inputs { arrivals, probes }
    }

    /// The first window of the stream, which the scheme is bootstrapped on.
    fn boot(&self, p: &Params) -> &[StreamElement] {
        &self.arrivals[..p.config.window.min(self.arrivals.len())]
    }
}

fn drifting(p: &Params, seed: u64, epochs: usize) -> DriftingWorkload {
    DriftingWorkload::new(DriftConfig {
        universe: p.universe,
        exponent: 1.1,
        epoch_len: p.epoch_len,
        epochs,
        rotation: p.rotation,
        seed,
    })
}

/// The timed set-up: bootstrap-train on `boot`, build the retrainer.
fn setup(p: &Params, boot: &[StreamElement], nproc: usize, tracer: &mut Tracer) -> Retrainer {
    let prefix = tracer.span("stream.prefix_build", || {
        StreamPrefix::from_stream(Stream::from_arrivals(boot.to_vec()))
    });
    let initial = OptHashBuilder::new(p.buckets)
        .lambda(1.0)
        .solver(SolverKind::Bcd(BcdConfig::default().with_warm_start()))
        .train(&prefix);
    tracer.record("core.estimator_solver", initial.stats().solver_time);
    tracer.record("core.estimator_classifier", initial.stats().classifier_time);
    tracer.span("engine.build", || {
        Retrainer::new(initial, EngineConfig::with_shards(nproc), p.config)
    })
}

/// What one measured phase observed.
#[derive(Default)]
struct Phase {
    /// Per slice: completion minus due time, ms.
    slice_ms: Vec<f64>,
    /// Per slice: start minus due time, us.
    late_us: Vec<f64>,
    /// Per probe: its time divided by the IDs it read, us.
    query_us: Vec<f64>,
    probe_avg: Vec<f64>,
    probe_expected: Vec<f64>,
    ingest_per_s: f64,
    /// Wall time of the stream, the part spent waiting for the schedule,
    /// and the part spent probing.
    wall_s: f64,
    waited_s: f64,
    probe_s: f64,
    solve_ms: Vec<f64>,
    moves: u64,
    aborted: u64,
    stats: RetrainStats,
    engine: EngineStats,
}

fn measure(
    p: &Params,
    inputs: &Inputs,
    mut retrainer: Retrainer,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase::default();
    let interval = Duration::from_secs_f64(p.slice as f64 / p.arrivals_per_s);
    let mut probes = inputs.probes.iter().peekable();
    let mut version = retrainer.scheme_version();
    let mut arrived = 0usize;
    let start = Instant::now();
    let mut last_done = start;
    precise_timers();
    for (k, slice) in inputs.arrivals.chunks(p.slice).enumerate() {
        let due = start + interval * k as u32;
        let wait_start = Instant::now();
        wait_until(due);
        let issued = Instant::now();
        phase.waited_s += secs(issued - wait_start);
        for element in slice {
            let call = tracer.enabled().then(Instant::now);
            let result = retrainer.ingest(element);
            let swapped = retrainer.scheme_version() != version;
            if let Some(call) = call {
                let name = if swapped {
                    "retrain.swap_call"
                } else {
                    "retrain.ingest_call"
                };
                tracer.record(name, call.elapsed());
            }
            out.attempted += 1;
            if result.is_err() {
                out.failed += 1;
            }
            if swapped {
                version = retrainer.scheme_version();
                let scheme = retrainer.scheme();
                let solver = scheme.solver_stats();
                phase.solve_ms.push(secs(solver.elapsed) * 1e3);
                phase.moves += solver.moves_evaluated;
                phase.aborted += solver.restarts_aborted as u64;
            }
        }
        arrived += slice.len();
        let done = Instant::now();
        phase.slice_ms.push(secs(done - due) * 1e3);
        phase.late_us.push(secs(issued - due) * 1e6);
        last_done = done;
        if probes.peek().is_some_and(|(at, _)| *at == arrived) {
            let (_, window) = probes.next().expect("peeked");
            let probe_start = Instant::now();
            let mut errors = ErrorMetrics::new();
            for &(id, count) in window {
                let element = StreamElement::without_features(id);
                out.attempted += 1;
                match retrainer.query(black_box(&element)) {
                    Ok(estimate) => errors.observe(count as f64, estimate),
                    Err(_) => out.failed += 1,
                }
            }
            let probe = probe_start.elapsed();
            tracer.record("retrain.probe", probe);
            phase.probe_s += secs(probe);
            phase
                .query_us
                .push(secs(probe) * 1e6 / window.len().max(1) as f64);
            phase.probe_avg.push(errors.average_absolute_error());
            phase.probe_expected.push(errors.expected_absolute_error());
            last_done = Instant::now();
        }
    }
    phase.wall_s = secs(last_done - start);
    // Arrivals per second of ingest time: the stream's own schedule and the
    // probes are left out, so this is the retrainer's capacity.
    phase.ingest_per_s = arrived as f64 / (phase.wall_s - phase.waited_s - phase.probe_s);
    phase.stats = retrainer.retrain_stats();
    phase.engine = retrainer.engine_stats();
    out.check(
        phase.engine.unaccounted_mass() == 0,
        format!(
            "drift: unaccounted mass {} after the run",
            phase.engine.unaccounted_mass()
        ),
    );
    out.check(
        phase.stats.swaps >= 1,
        "drift: no retrained scheme was swapped in",
    );
    out.check(
        !phase.probe_avg.is_empty(),
        "drift: the run was too short to probe the window error",
    );
    out.check(
        retrainer.finish().is_ok(),
        "drift: finishing the retrainer failed",
    );
    phase
}

/// Runs the workload: see the module docs.
pub(crate) fn run(opts: &Opts) -> Outcome {
    let p = Params::of(opts.scale);
    let inputs = Inputs::generate(&p, opts);
    let mut out = Outcome::default();
    let mut untraced = Tracer::new(false);
    let finish = |r: Retrainer| drop(r.finish());
    // Set up on the other replicas' first windows too, so `setup_s` does
    // not hang on one input draw; the run's own set-up comes last.
    let mut setup_times = Vec::new();
    for r in 1..INPUT_REPLICAS {
        let mut boot = drifting(&p, replica_seed(opts.seed, r), 1).epoch_arrivals(0);
        boot.truncate(p.config.window);
        let (times, retrainer) = repeated_setup(
            SETUP_REPS,
            || timed(|| setup(&p, &boot, opts.nproc, &mut untraced)),
            finish,
        );
        finish(retrainer);
        setup_times.extend(times);
    }
    let (times, retrainer) = repeated_setup(
        SETUP_REPS,
        || timed(|| setup(&p, inputs.boot(&p), opts.nproc, &mut untraced)),
        finish,
    );
    setup_times.extend(times);
    let phase = measure(&p, &inputs, retrainer, &mut untraced, &mut out);
    let lag = chunked_percentile(&phase.slice_ms, 0.99);
    let q50 = percentile(&sorted(phase.query_us.clone()), 0.5);
    let q90 = chunked_percentile(&phase.query_us, 0.9);
    out.set("setup_s", stats::median(&setup_times));
    out.set("ingest_per_s", phase.ingest_per_s);
    out.set("tail.ingest_ms", lag.value);
    out.set("query_p50_us", q50.value);
    out.set("tail.query_us", q90.value);
    out.set("avg_abs_error", stats::mean(&phase.probe_avg));
    out.set("expected_abs_error", stats::mean(&phase.probe_expected));
    let scheduled = inputs.arrivals.len() / p.config.retrain_interval;
    out.note(format!(
        "drift: {} arrivals in {} slices, {} probes; retrains {} of {scheduled} scheduled, \
         swaps {}, skipped {}, failed {}; slice lag p99 {:.3} ms ({} beyond per chunk); \
         generator lateness p99 {:.1} us",
        inputs.arrivals.len(),
        phase.slice_ms.len(),
        phase.probe_avg.len(),
        phase.stats.retrains,
        phase.stats.swaps,
        phase.stats.skipped,
        phase.stats.failed,
        lag.value,
        lag.beyond,
        percentile(&sorted(phase.late_us.clone()), 0.99).value,
    ));
    if !lag.supported() || !q90.supported() {
        out.note("drift: WARNING a reported tail has fewer than 10 samples beyond it");
    }
    if opts.trace {
        trace(&p, &inputs, opts, lag.value, &mut out);
    }
    out
}

/// The traced run: a second measured phase with a span around every
/// `Retrainer::ingest` call and every probe.
fn trace(p: &Params, inputs: &Inputs, opts: &Opts, untraced_lag_ms: f64, out: &mut Outcome) {
    let mut tracer = Tracer::new(true);
    let setup_start = Instant::now();
    let retrainer = setup(p, inputs.boot(p), opts.nproc, &mut tracer);
    let setup_s = secs(setup_start.elapsed());
    let mut scratch = Outcome::default();
    let phase = measure(p, inputs, retrainer, &mut tracer, &mut scratch);
    out.check_failures.extend(scratch.check_failures);

    let layer_setup = ["stream.prefix_build", "core.estimator_solver"]
        .iter()
        .chain(&["core.estimator_classifier", "engine.build"])
        .map(|name| tracer.get(name).total_s())
        .sum::<f64>();
    out.set("trace.setup_coverage", layer_setup / setup_s);
    out.set(
        "stream.prefix_build_s",
        tracer.get("stream.prefix_build").total_s(),
    );
    out.set("engine.build_s", tracer.get("engine.build").total_s());
    out.set(
        "core.estimator_solver_s",
        tracer.get("core.estimator_solver").total_s(),
    );
    out.set(
        "core.estimator_classifier_s",
        tracer.get("core.estimator_classifier").total_s(),
    );

    out.set("solver.solve_ms", stats::median(&phase.solve_ms));
    out.set(
        "solver.solve_max_ms",
        phase.solve_ms.iter().copied().fold(0.0, f64::max),
    );
    out.set("solver.moves_evaluated", phase.moves as f64);
    out.set("solver.restarts_aborted", phase.aborted as f64);
    out.set("retrain.retrains", phase.stats.retrains as f64);
    out.set("retrain.swaps", phase.stats.swaps as f64);
    out.set("retrain.skipped", phase.stats.skipped as f64);
    out.set("retrain.failed", phase.stats.failed as f64);
    let swaps = tracer.get("retrain.swap_call");
    let calls = tracer.get("retrain.ingest_call");
    let probes = tracer.get("retrain.probe");
    out.set("retrain.swap_call_ms", swaps.median_s() * 1e3);
    out.set("retrain.ingest_call_ns", calls.median_s() * 1e9);
    out.set("retrain.probe_ms", probes.median_s() * 1e3);
    out.set(
        "engine.aggregation_factor",
        phase.engine.aggregation_factor(),
    );
    out.set(
        "engine.applied_updates",
        phase.engine.applied_updates as f64,
    );
    out.set("engine.flushes", phase.engine.flushes as f64);
    out.set(
        "gen.lateness_p99_us",
        percentile(&sorted(phase.late_us.clone()), 0.99).value,
    );
    let busy = phase.wall_s - phase.waited_s;
    out.set(
        "trace.run_coverage",
        (swaps.total_s() + calls.total_s() + probes.total_s()) / busy,
    );
    let traced_lag = chunked_percentile(&phase.slice_ms, 0.99).value;
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_lag - untraced_lag_ms) / untraced_lag_ms,
    );
    out.note(format!(
        "drift traced: {} swap calls (max {:.2} ms), probe max {:.2} ms, stream busy {:.3} s \
         of {:.3} s wall",
        swaps.count(),
        swaps.max_s() * 1e3,
        probes.max_s() * 1e3,
        busy,
        phase.wall_s,
    ));
}
