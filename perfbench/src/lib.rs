//! The repository benchmark: three workloads driven through the workspace's
//! public API, each checking its outputs and reporting the end-to-end metrics
//! (untraced) or the per-layer metrics (traced) named in `BENCHMARK.json`.
//!
//! * `querylog` — the paper's Section 7 pipeline: a learned `OptHash`
//!   trained on day 0 of the synthetic query log, fed the remaining days
//!   through the sharded ingest engine while an open-loop reader queries it.
//! * `drift` — the online `Retrainer` with its default configuration under
//!   an open-loop drifting stream.
//! * `tcp` — the multi-tenant registry served over a loopback socket.

mod drift;
mod querylog;
mod stats;
mod tcp;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Independent input replicas, the run's own seed included. The error
/// metrics (which depend on the inputs alone) and `setup_s` (whose work
/// depends on them) are medians over the replicas, since one input draw
/// varies too much from seed to seed to compare runs by.
pub(crate) const INPUT_REPLICAS: u64 = 7;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("avg_abs_error", "count"),
    ("expected_abs_error", "count"),
];

/// Per-layer metrics of the traced run. A layer a workload does not run
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ml.featurize_s", "s"),
    ("stream.prefix_build_s", "s"),
    ("solver.solve_ms", "ms"),
    ("solver.solve_max_ms", "ms"),
    ("solver.moves_evaluated", "count"),
    ("solver.restarts_aborted", "count"),
    ("ml.classifier_fit_s", "s"),
    ("core.estimator_solver_s", "s"),
    ("core.estimator_classifier_s", "s"),
    ("engine.build_s", "s"),
    ("core.add_ns", "ns"),
    ("engine.ingest_call_s", "s"),
    ("engine.flush_s", "s"),
    ("engine.aggregation_factor", "ratio"),
    ("engine.applied_updates", "count"),
    ("engine.flushes", "count"),
    ("core.estimate_stored_ns", "ns"),
    ("ml.predict_ns", "ns"),
    ("engine.snapshot_query_ns", "ns"),
    ("engine.snapshot_assembly_ns", "ns"),
    ("retrain.retrains", "count"),
    ("retrain.swaps", "count"),
    ("retrain.skipped", "count"),
    ("retrain.failed", "count"),
    ("retrain.swap_call_ms", "ms"),
    ("retrain.ingest_call_ns", "ns"),
    ("retrain.probe_ms", "ms"),
    ("registry.create_s", "s"),
    ("registry.parse_ns", "ns"),
    ("registry.execute_add_ns", "ns"),
    ("registry.execute_query_ns", "ns"),
    ("registry.govern_ms", "ms"),
    ("registry.folds", "count"),
    ("registry.governor_passes", "count"),
    ("server.socket_self_us", "us"),
    ("gen.lateness_p99_us", "us"),
    ("tail.ingest_ms", "ms"),
    ("tail.query_us", "us"),
    ("trace.setup_coverage", "ratio"),
    ("trace.run_coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Coverage outside `1 ± COVERAGE_BAND` is flagged in the traced report.
pub(crate) const COVERAGE_BAND: f64 = 0.15;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's query-log pipeline through the engine.
    Querylog,
    /// Online retraining under an open-loop drifting stream.
    Drift,
    /// The registry over a loopback socket.
    Tcp,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Querylog, Workload::Drift, Workload::Tcp];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Querylog => "querylog",
            Workload::Drift => "drift",
            Workload::Tcp => "tcp",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big a run is. `Full` is what `BENCHMARK.json` measures; `Smoke`
/// shrinks the inputs so the test suite can run every workload quickly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's real inputs.
    Full,
    /// Small inputs for tests.
    Smoke,
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub duration: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Input scale.
    pub scale: Scale,
    /// Threads and shards: the host's available parallelism.
    pub nproc: usize,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (engine errors, `ERR` lines, I/O failures).
    pub failed: u64,
    /// Output checks that failed, with a reason each.
    pub check_failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a check; a false condition fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_failures.push(what.into());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }
}

/// The seed of error replica `replica` of a run seeded `seed` (replica 0 is
/// the run's own inputs). The seed is hashed, not offset: the generators
/// seed a splitmix64 stream, so seeds a multiple of its increment apart
/// would draw overlapping, correlated inputs.
pub(crate) fn replica_seed(seed: u64, replica: u64) -> u64 {
    if replica == 0 {
        return seed;
    }
    mix64(seed ^ replica.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// The splitmix64 output function: a bijective 64-bit mix.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `f` and returns its wall time in seconds with its result.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// Runs a set-up `reps` times and returns the times it reports and the
/// last result; earlier results go to `discard`. `f` returns its own timed
/// seconds, so it can leave untimed work out.
pub(crate) fn repeated_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> (f64, T),
    mut discard: impl FnMut(T),
) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (seconds, value) = f();
        times.push(seconds);
        if let Some(previous) = last.replace(value) {
            discard(previous);
        }
    }
    (times, last.expect("at least one repetition"))
}

/// Runs one workload. With `opts.trace` the workload first runs untraced,
/// then traced, so the traced report can state tracing overhead.
pub fn run(workload: Workload, opts: &Opts) -> Outcome {
    let mut outcome = match workload {
        Workload::Querylog => querylog::run(opts),
        Workload::Drift => drift::run(opts),
        Workload::Tcp => tcp::run(opts),
    };
    let wanted = if opts.trace { PER_LAYER } else { END_TO_END };
    if opts.trace {
        for (name, _) in PER_LAYER {
            outcome.metrics.entry(name).or_insert(0.0);
        }
        for name in ["trace.setup_coverage", "trace.run_coverage"] {
            let coverage = outcome.metrics[name];
            let flag = if (coverage - 1.0).abs() > COVERAGE_BAND {
                "  FLAGGED: outside 1 ± 0.15"
            } else {
                ""
            };
            outcome.note(format!("{name} = {coverage:.3}{flag}"));
        }
    }
    for (name, _) in wanted {
        match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => {}
            Some(v) => outcome
                .check_failures
                .push(format!("metric {name} is not finite ({v})")),
            None => outcome
                .check_failures
                .push(format!("metric {name} was not measured")),
        }
    }
    outcome
        .metrics
        .retain(|name, _| wanted.iter().any(|(n, _)| n == name));
    outcome
}

/// The result line the benchmark prints last.
pub fn result_json(outcome: &Outcome, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Host facts stamped on every result: cores, compiler, revision, profile.
pub fn host_json(workload: &str, opts: &Opts) -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"host\": {{\"nproc\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"profile\": \"{profile}\", \
         \"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        opts.nproc,
        rustc.replace('"', "'"),
        git_rev(),
        opts.seed,
        opts.duration.as_secs_f64(),
        opts.trace
    )
}

/// The checked-out revision, read from `.git` in the working directory
/// (never from a parent), or `none` outside a git checkout.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "none".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|rev| rev.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "none".to_owned())
}

/// Sleeps until `due`. Call [`precise_timers`] first on the sleeping
/// thread, or the sleep overshoots by the OS timer slack.
pub(crate) fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Cuts the calling thread's timer slack to 1 ns, so an open-loop generator
/// wakes when its next operation is due instead of up to 50 us later.
pub(crate) fn precise_timers() {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes the calling thread's timer slack; no memory is passed.
    let status = unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) };
    if status != 0 {
        eprintln!("perfbench: could not set the timer slack; schedules may run late");
    }
}
