//! Engine performance harness: pushes a 1M-arrival Zipf stream through a
//! Count-Min backend three ways — the plain single-threaded update loop,
//! the worker engine with one shard, and the worker engine with `--shards`
//! shards — verifies the three agree exactly, and records the measurements
//! in `BENCH_engine.json` (ingest throughput, p50/p99 query latency,
//! aggregation factor) so the repository keeps a perf trajectory across
//! PRs. The one-shard row isolates what pre-aggregation wins on its own;
//! the gap from it to the sharded row is what parallelism adds.
//!
//! A final *saturation* phase drives sustained ingest while a
//! separate reader thread issues wait-free snapshot queries the whole time,
//! recording the snapshot-query latency distribution under full ingest
//! pressure — the number the epoch-stamped read path exists to bound.
//!
//! Run with: `cargo run --release --example engine_throughput`
//! (optionally `-- [--arrivals N] [--universe N] [--shards N] [--smoke]
//! [--out PATH]`; the defaults reproduce the historical fixed
//! configuration, so trajectory numbers stay comparable across PRs.
//! `--smoke` shrinks the workload for CI; pair it with `--out` so the
//! checked-in trajectory file is not overwritten with smoke numbers).

use opthash_bench::reporting::{JsonFields, PerfReport};
use opthash_repro::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const EXPONENT: f64 = 1.3;
const BATCH: usize = 16_384;
const QUERY_PROBES: usize = 20_000;
/// Ingest passes per configuration; the best is reported, so one-off
/// machine noise (compiles, page faults on first touch) doesn't end up in
/// the trajectory file.
const TRIALS: usize = 3;
/// Snapshot queries must stay interactive even while ingest saturates every
/// shard; anything slower than this is a wait-free-read regression, not
/// noise.
const SATURATION_P99_CEILING: Duration = Duration::from_millis(50);
/// Batch capacity for the saturation engine. The measurement loops over the
/// same arrival slice, so with the full-size buffer every id would stay
/// resident in the shard batch buffers after the first pass and nothing
/// would ever dispatch — the workers (and their epoch publications) would
/// sit idle. A buffer smaller than the per-shard distinct-id count keeps
/// batches flowing to the shard queues for the whole window.
const SATURATION_BATCH: usize = 2_048;

/// Workload knobs, overridable from the command line.
#[derive(Clone)]
struct Args {
    arrivals: usize,
    universe: usize,
    shards: usize,
    smoke: bool,
    out: String,
}

impl Default for Args {
    fn default() -> Self {
        // The historical constants: 1M Zipf(1.3) arrivals over a 100k
        // universe through 4 shards.
        Args {
            arrivals: 1_000_000,
            universe: 100_000,
            shards: 4,
            smoke: false,
            out: "BENCH_engine.json".to_owned(),
        }
    }
}

impl Args {
    fn trials(&self) -> usize {
        if self.smoke {
            1
        } else {
            TRIALS
        }
    }

    fn saturation_window(&self) -> Duration {
        if self.smoke {
            Duration::from_millis(250)
        } else {
            Duration::from_secs(1)
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            argv.next().ok_or_else(|| format!("{flag} expects a value"))
        };
        let parse = |flag: &str, raw: String| -> Result<usize, String> {
            raw.parse().map_err(|e| format!("{flag}: {e}"))
        };
        match flag.as_str() {
            "--arrivals" => args.arrivals = parse("--arrivals", value("--arrivals")?)?.max(1),
            "--universe" => args.universe = parse("--universe", value("--universe")?)?.max(1),
            "--shards" => args.shards = parse("--shards", value("--shards")?)?.max(1),
            "--smoke" => {
                args.smoke = true;
                args.arrivals = args.arrivals.min(200_000);
            }
            "--out" => args.out = value("--out")?,
            "--help" | "-h" => {
                println!(
                    "usage: engine_throughput [--arrivals N] [--universe N] [--shards N] \
                     [--smoke] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn zipf_elements(universe: usize, n: usize, seed: u64) -> Vec<StreamElement> {
    let sampler = opthash_repro::datagen::ZipfSampler::new(universe, EXPONENT);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| StreamElement::without_features(sampler.sample(&mut rng) as u64))
        .collect()
}

/// One measured configuration, ready for JSON serialization.
struct Measurement {
    name: &'static str,
    ingest_melem_per_s: f64,
    speedup_vs_single_thread: f64,
    query_p50_ns: u64,
    query_p99_ns: u64,
    aggregation_factor: f64,
}

/// p50/p99 of an unsorted latency sample, in nanoseconds.
fn percentiles(mut latencies: Vec<u64>) -> (u64, u64) {
    assert!(!latencies.is_empty(), "latency sample must not be empty");
    latencies.sort_unstable();
    let pick = |q: f64| latencies[((latencies.len() - 1) as f64 * q) as usize];
    (pick(0.50), pick(0.99))
}

/// p50/p99 of per-call latencies for point queries against `f`.
fn query_percentiles(
    probes: &[StreamElement],
    mut f: impl FnMut(&StreamElement) -> f64,
) -> (u64, u64) {
    percentiles(
        probes
            .iter()
            .map(|probe| {
                let start = Instant::now();
                std::hint::black_box(f(probe));
                start.elapsed().as_nanos() as u64
            })
            .collect(),
    )
}

fn engine_measurement(
    name: &'static str,
    shards: usize,
    args: &Args,
    elements: &[StreamElement],
    probes: &[StreamElement],
    sequential: &CountMinSketch,
    baseline_secs: f64,
) -> Measurement {
    let mut ingest_secs = f64::INFINITY;
    let mut engine = None;
    for _ in 0..args.trials() {
        let start = Instant::now();
        let mut trial = IngestEngine::new(
            CountMinSketch::new(8_192, 4, 1),
            EngineConfig::with_shards(shards).batch_capacity(BATCH),
        );
        trial.ingest_batch(elements).expect("ingest");
        trial.flush().expect("flush");
        ingest_secs = ingest_secs.min(start.elapsed().as_secs_f64());
        engine = Some(trial);
    }
    let mut engine = engine.expect("at least one trial ran");
    let stats = engine.stats();
    assert_eq!(stats.unaccounted_mass(), 0, "{name}: mass unaccounted");

    // Exactness check against the sequential baseline before timing queries
    // (the first query pays the merge; percentiles measure the steady state).
    // Both read paths must agree after a flush: the barrier-synced query and
    // the wait-free snapshot query see the same fully-applied state.
    for id in 0..1_000u64 {
        let probe = StreamElement::without_features(id);
        let expected = SketchBackend::query(sequential, &probe);
        assert_eq!(
            engine.query_synced(&probe).expect("query"),
            expected,
            "{name}: sharded result diverged for element {id}"
        );
        assert_eq!(
            engine.query(&probe).estimate,
            expected,
            "{name}: snapshot result diverged for element {id}"
        );
    }
    let (p50, p99) = query_percentiles(probes, |probe| engine.query_synced(probe).expect("query"));
    Measurement {
        name,
        ingest_melem_per_s: args.arrivals as f64 / ingest_secs / 1e6,
        speedup_vs_single_thread: baseline_secs / ingest_secs,
        query_p50_ns: p50,
        query_p99_ns: p99,
        aggregation_factor: stats.aggregation_factor(),
    }
}

/// What the saturation phase measured: ingest rate while a concurrent reader
/// issued snapshot queries, and the reader's latency distribution.
struct Saturation {
    window_secs: f64,
    ingest_melem_per_s: f64,
    queries: u64,
    query_p50_ns: u64,
    query_p99_ns: u64,
    epoch_advances: u64,
}

/// Drives ingest flat-out for a fixed window while one reader
/// thread issues wait-free snapshot queries back-to-back. The reader records
/// per-query latency and counts epoch advances (proof it observed the
/// workers publishing, not one frozen snapshot).
fn saturation_measurement(
    args: &Args,
    elements: &[StreamElement],
    probes: &[StreamElement],
) -> Saturation {
    let mut engine = IngestEngine::new(
        CountMinSketch::new(8_192, 4, 1),
        EngineConfig::with_shards(args.shards).batch_capacity(SATURATION_BATCH),
    );
    let reader = engine.snapshot_reader();
    let stop = Arc::new(AtomicBool::new(false));
    let reader_probes: Vec<StreamElement> = probes.iter().take(1_024).cloned().collect();
    let reader_stop = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let mut latencies: Vec<u64> = Vec::with_capacity(1 << 16);
        let mut epoch_advances = 0u64;
        let mut last_epochs: Option<Vec<u64>> = None;
        let mut i = 0usize;
        while !reader_stop.load(Ordering::Relaxed) {
            let probe = &reader_probes[i % reader_probes.len()];
            i += 1;
            let start = Instant::now();
            let answer = std::hint::black_box(reader.query(probe));
            latencies.push(start.elapsed().as_nanos() as u64);
            let epochs = answer.stamp.epoch_per_shard.to_vec();
            if let Some(previous) = &last_epochs {
                if previous != &epochs {
                    epoch_advances += 1;
                }
            }
            last_epochs = Some(epochs);
            // On a single hardware thread, back-to-back queries would
            // otherwise time-slice against the ingest they are supposed to
            // run *alongside*; yielding keeps the measurement about
            // interference, not scheduler starvation.
            std::thread::yield_now();
        }
        (latencies, epoch_advances)
    });

    let window = args.saturation_window();
    let start = Instant::now();
    let mut ingested = 0u64;
    while start.elapsed() < window {
        engine.ingest_batch(elements).expect("saturation ingest");
        ingested += elements.len() as u64;
    }
    let elapsed = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let (latencies, epoch_advances) = handle.join().expect("reader thread panicked");
    engine.flush().expect("flush after saturation");
    let stats = engine.stats();
    assert_eq!(stats.unaccounted_mass(), 0, "saturation: mass unaccounted");

    let queries = latencies.len() as u64;
    let (p50, p99) = percentiles(latencies);
    assert!(
        Duration::from_nanos(p99) < SATURATION_P99_CEILING,
        "snapshot query p99 {}ns breached the {:?} wait-free ceiling",
        p99,
        SATURATION_P99_CEILING
    );
    assert!(
        epoch_advances > 0,
        "the reader never observed a worker publication — the saturation \
         loop is not actually driving the workers"
    );
    Saturation {
        window_secs: elapsed,
        ingest_melem_per_s: ingested as f64 / elapsed / 1e6,
        queries,
        query_p50_ns: p50,
        query_p99_ns: p99,
        epoch_advances,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    println!(
        "generating {} Zipf({EXPONENT}) arrivals over {} elements...",
        args.arrivals, args.universe
    );
    let elements = zipf_elements(args.universe, args.arrivals, 7);
    let probes = zipf_elements(args.universe, QUERY_PROBES, 8);

    // --- single-threaded update loop (the pre-engine baseline) -----------
    let mut baseline_secs = f64::INFINITY;
    let mut sequential = CountMinSketch::new(8_192, 4, 1);
    for _ in 0..args.trials() {
        let start = Instant::now();
        let mut trial = CountMinSketch::new(8_192, 4, 1);
        for element in &elements {
            trial.update(element);
        }
        baseline_secs = baseline_secs.min(start.elapsed().as_secs_f64());
        sequential = trial;
    }
    let (base_p50, base_p99) =
        query_percentiles(&probes, |probe| SketchBackend::query(&sequential, probe));
    let mut measurements = vec![Measurement {
        name: "single_thread",
        ingest_melem_per_s: args.arrivals as f64 / baseline_secs / 1e6,
        speedup_vs_single_thread: 1.0,
        query_p50_ns: base_p50,
        query_p99_ns: base_p99,
        aggregation_factor: 1.0,
    }];

    // --- the engine on one shard (aggregation alone) and on all shards ---
    measurements.push(engine_measurement(
        "worker_engine_1_shard",
        1,
        &args,
        &elements,
        &probes,
        &sequential,
        baseline_secs,
    ));
    measurements.push(engine_measurement(
        "worker_engine",
        args.shards,
        &args,
        &elements,
        &probes,
        &sequential,
        baseline_secs,
    ));

    for m in &measurements {
        println!(
            "{:24} {:7.2} Melem/s ingest ({:4.2}x)   query p50 {:5} ns  p99 {:5} ns   \
             aggregation {:4.1}x",
            m.name,
            m.ingest_melem_per_s,
            m.speedup_vs_single_thread,
            m.query_p50_ns,
            m.query_p99_ns,
            m.aggregation_factor
        );
    }

    // --- saturated ingest with a concurrent snapshot reader ----------------
    let saturation = saturation_measurement(&args, &elements, &probes);
    println!(
        "saturation ({:.2}s)       {:7.2} Melem/s ingest   snapshot p50 {:5} ns  p99 {:5} ns   \
         {} queries, {} epoch advances",
        saturation.window_secs,
        saturation.ingest_melem_per_s,
        saturation.query_p50_ns,
        saturation.query_p99_ns,
        saturation.queries,
        saturation.epoch_advances
    );

    let mut report = PerfReport::new("engine_throughput");
    report.set(
        JsonFields::new()
            .int("arrivals", args.arrivals as i64)
            .int("universe", args.universe as i64)
            .float("zipf_exponent", EXPONENT, 1)
            .text("backend", "count-min 8192x4")
            .int("shards", args.shards as i64)
            .int("batch_capacity", BATCH as i64),
    );
    for m in &measurements {
        report.push(
            "configs",
            JsonFields::new()
                .text("name", m.name)
                .float("ingest_melem_per_s", m.ingest_melem_per_s, 3)
                .float("speedup_vs_single_thread", m.speedup_vs_single_thread, 3)
                .int("query_p50_ns", m.query_p50_ns as i64)
                .int("query_p99_ns", m.query_p99_ns as i64)
                .float("aggregation_factor", m.aggregation_factor, 3),
        );
    }
    report.push(
        "saturation",
        JsonFields::new()
            .text("name", "workers_with_snapshot_reader")
            .int("batch_capacity", SATURATION_BATCH as i64)
            .float("window_secs", saturation.window_secs, 3)
            .float("ingest_melem_per_s", saturation.ingest_melem_per_s, 3)
            .int("snapshot_queries", saturation.queries as i64)
            .int("snapshot_p50_ns", saturation.query_p50_ns as i64)
            .int("snapshot_p99_ns", saturation.query_p99_ns as i64)
            .int("epoch_advances", saturation.epoch_advances as i64),
    );
    report.write(&args.out).expect("write perf report");
    println!("\nwrote {}", args.out);
}
