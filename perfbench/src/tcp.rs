//! `tcp`: a `SketchServer` on a loopback port over the `tenant_load` fleet.
//!
//! A writer connection pipelines windows of `ADD` lines and a reader
//! connection sends one `QUERY` at a time, both in closed loops for the
//! whole run. The fleet is preloaded in-process before the run, and the
//! estimation error is read over the socket at that fixed load, so it does
//! not move with throughput.

use crate::stats::{self, chunked_percentile, percentile, secs, sorted, Tracer};
use crate::{repeated_setup, replica_seed, Opts, Outcome, Scale, INPUT_REPLICAS};
use opthash_repro::datagen::{MixedTenantConfig, MixedTenantWorkload, TenantClass};
use opthash_repro::prelude::*;
use opthash_repro::registry::Command;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Lines per pipelined `ADD` window.
const WINDOW: usize = 32;
/// Explicit governor cadence of the in-process replay, matching the
/// server's `govern_interval`.
const GOVERN_EVERY: u64 = 4_096;
/// Set-ups on the run's own inputs; `setup_s` is the median of these and
/// of one set-up per other input replica.
const SETUP_REPS: usize = 9;
/// A client gives up on a response after this long.
const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// Cap on the command lines the traced run replays in-process.
const REPLAY_CAP: usize = 1 << 21;

struct Params {
    tenants: usize,
    budget_kb: f64,
    preload: usize,
    ring: usize,
    probes_per_tenant: usize,
}

impl Params {
    fn of(scale: Scale) -> Params {
        match scale {
            Scale::Full => Params {
                tenants: 1_000,
                budget_kb: 3_000.0,
                preload: 200_000,
                ring: 1 << 18,
                probes_per_tenant: 4,
            },
            Scale::Smoke => Params {
                tenants: 30,
                budget_kb: 90.0,
                preload: 6_000,
                ring: 1 << 12,
                probes_per_tenant: 4,
            },
        }
    }
}

/// `tenant_load`'s full-width backend per tenant class.
fn spec_for(class: TenantClass) -> BackendSpec {
    match class {
        TenantClass::Telemetry => BackendSpec::CountMin {
            width: 1024,
            depth: 4,
        },
        TenantClass::Search => BackendSpec::CountSketch {
            width: 512,
            depth: 4,
        },
        TenantClass::Groups => BackendSpec::CountMin {
            width: 512,
            depth: 4,
        },
    }
}

/// Generated inputs; never timed.
struct Inputs {
    names: Vec<String>,
    specs: Vec<BackendSpec>,
    preload: Vec<(usize, u64)>,
    /// `(tenant, id, true count)` of the hottest preloaded IDs per tenant.
    probes: Vec<(usize, u64, u64)>,
    /// The writer's `ADD` lines, cycled for the whole run.
    add_lines: Vec<String>,
    /// The reader's `QUERY` lines, cycled for the whole run.
    query_lines: Vec<String>,
}

impl Inputs {
    fn generate(p: &Params, seed: u64) -> Inputs {
        let workload = MixedTenantWorkload::new(MixedTenantConfig {
            tenants: p.tenants,
            seed,
            ..MixedTenantConfig::default()
        });
        let names: Vec<String> = (0..p.tenants).map(|i| workload.tenant_name(i)).collect();
        let specs = (0..p.tenants)
            .map(|i| spec_for(workload.class_of(i)))
            .collect();
        let preload: Vec<(usize, u64)> = workload
            .arrivals_from(p.preload, seed ^ 0x9E37_79B9)
            .map(|a| (a.tenant, a.element.id.raw()))
            .collect();
        let mut truth: HashMap<(usize, u64), u64> = HashMap::new();
        for &key in &preload {
            *truth.entry(key).or_insert(0) += 1;
        }
        let mut hottest: Vec<((usize, u64), u64)> = truth.into_iter().collect();
        hottest
            .sort_unstable_by(|a, b| a.0 .0.cmp(&b.0 .0).then(b.1.cmp(&a.1)).then(a.0.cmp(&b.0)));
        let mut probes = Vec::new();
        for chunk in hottest.chunk_by(|a, b| a.0 .0 == b.0 .0) {
            for &((tenant, id), count) in chunk.iter().take(p.probes_per_tenant) {
                probes.push((tenant, id, count));
            }
        }
        let live: Vec<(usize, u64)> = workload
            .arrivals_from(p.ring, seed ^ 0x7F4A_7C15)
            .map(|a| (a.tenant, a.element.id.raw()))
            .collect();
        let add_lines = live
            .iter()
            .map(|&(t, id)| format!("ADD {} {id}\n", names[t]))
            .collect();
        let query_lines = live
            .iter()
            .rev()
            .map(|&(t, id)| format!("QUERY {} {id}\n", names[t]))
            .collect();
        Inputs {
            names,
            specs,
            preload,
            probes,
            add_lines,
            query_lines,
        }
    }
}

fn registry_config(p: &Params, seed: u64) -> RegistryConfig {
    RegistryConfig::default()
        .budget(SpaceBudget::from_kb(p.budget_kb))
        .min_width(64)
        .govern_interval(GOVERN_EVERY)
        .default_seed(seed)
}

fn create_fleet(config: RegistryConfig, inputs: &Inputs, tracer: &mut Tracer) -> SketchRegistry {
    let mut registry = SketchRegistry::new(config);
    for (name, spec) in inputs.names.iter().zip(&inputs.specs) {
        tracer.span("registry.create", || {
            registry
                .create(name, *spec)
                .expect("tenant names are unique")
        });
    }
    registry
}

/// Set-up: create the fleet and bind the server (timed), with the
/// in-process preload between the two (not timed). Returns the timed part.
fn setup(
    p: &Params,
    inputs: &Inputs,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (f64, SketchServer) {
    let create_start = Instant::now();
    let mut registry = create_fleet(registry_config(p, seed), inputs, tracer);
    let create_s = secs(create_start.elapsed());
    for &(tenant, id) in &inputs.preload {
        let ok = registry
            .ingest(&inputs.names[tenant], &StreamElement::without_features(id))
            .is_ok();
        out.check(ok, "tcp: preload ingest failed");
    }
    let bind_start = Instant::now();
    let server = tracer.span("server.bind", || {
        SketchServer::bind("127.0.0.1:0", registry).expect("binding a loopback port")
    });
    (create_s + secs(bind_start.elapsed()), server)
}

/// A client connection speaking the line protocol.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(server: &SketchServer) -> std::io::Result<Client> {
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Reads one response line; `Ok(None)` on a closed connection.
    fn response(&mut self) -> std::io::Result<Option<&str>> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Ok(None);
        }
        Ok(Some(self.line.trim_end()))
    }

    /// Sends `request` and reads `responses` lines, counting the `OK` ones;
    /// `None` on an I/O failure.
    fn round_trip(&mut self, request: &[u8], responses: usize) -> Option<usize> {
        self.writer.write_all(request).ok()?;
        let mut ok = 0;
        for _ in 0..responses {
            if self.response().ok()??.starts_with("OK") {
                ok += 1;
            }
        }
        Some(ok)
    }
}

/// What one measured phase observed.
#[derive(Default)]
struct Phase {
    add_window_ms: Vec<f64>,
    query_us: Vec<f64>,
    adds_ok: u64,
    adds_sent: usize,
    queries_sent: usize,
    writer_s: f64,
    stats: HashMap<String, u64>,
}

/// The writer and reader connections run closed loops until `duration`.
fn measure(inputs: &Inputs, server: &SketchServer, duration: Duration, out: &mut Outcome) -> Phase {
    let start = Instant::now();
    let deadline = start + duration;
    let (writer, reader) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut windows = Vec::new();
            let (mut sent, mut ok, mut failed) = (0usize, 0u64, 0u64);
            let mut client = match Client::connect(server) {
                Ok(client) => client,
                Err(_) => return (windows, sent, ok, failed + 1, 0.0),
            };
            let mut request = Vec::new();
            let mut cursor = 0usize;
            while Instant::now() < deadline {
                request.clear();
                for _ in 0..WINDOW {
                    request.extend_from_slice(inputs.add_lines[cursor].as_bytes());
                    cursor = (cursor + 1) % inputs.add_lines.len();
                }
                let window_start = Instant::now();
                let acked = client.round_trip(&request, WINDOW);
                windows.push(secs(window_start.elapsed()) * 1e3);
                sent += WINDOW;
                match acked {
                    Some(n) => {
                        ok += n as u64;
                        failed += (WINDOW - n) as u64;
                    }
                    None => {
                        failed += WINDOW as u64;
                        break;
                    }
                }
            }
            (windows, sent, ok, failed, secs(start.elapsed()))
        });
        let reader = s.spawn(|| {
            let mut rtts = Vec::new();
            let (mut sent, mut failed) = (0usize, 0u64);
            let mut client = match Client::connect(server) {
                Ok(client) => client,
                Err(_) => return (rtts, sent, failed + 1),
            };
            while Instant::now() < deadline {
                let line = &inputs.query_lines[sent % inputs.query_lines.len()];
                let rtt_start = Instant::now();
                let acked = client.round_trip(line.as_bytes(), 1);
                rtts.push(secs(rtt_start.elapsed()) * 1e6);
                sent += 1;
                match acked {
                    Some(1) => {}
                    Some(_) => failed += 1,
                    None => {
                        failed += 1;
                        break;
                    }
                }
            }
            (rtts, sent, failed)
        });
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let (add_window_ms, adds_sent, adds_ok, add_failed, writer_s) = writer;
    let (query_us, queries_sent, query_failed) = reader;
    out.attempted += (adds_sent + queries_sent) as u64;
    out.failed += add_failed + query_failed;
    let stats = remote_stats(server, out);
    let live = stats.get("live_bytes").copied();
    let budget = stats.get("budget_bytes").copied();
    out.check(
        stats.get("unaccounted") == Some(&0),
        format!(
            "tcp: STATS reports unaccounted={:?}",
            stats.get("unaccounted")
        ),
    );
    out.check(
        matches!((live, budget), (Some(l), Some(b)) if l <= b),
        format!("tcp: STATS reports live_bytes={live:?} over budget_bytes={budget:?}"),
    );
    Phase {
        add_window_ms,
        query_us,
        adds_ok,
        adds_sent,
        queries_sent,
        writer_s,
        stats,
    }
}

/// `STATS` over the socket, parsed into its `k=v` counters. The `unaccounted`
/// field is signed; a negative value is kept out of the map, failing checks.
fn remote_stats(server: &SketchServer, out: &mut Outcome) -> HashMap<String, u64> {
    out.attempted += 1;
    let response = Client::connect(server).ok().and_then(|mut client| {
        client.writer.write_all(b"STATS\n").ok()?;
        client.response().ok().flatten().map(str::to_owned)
    });
    let Some(line) = response.filter(|l| l.starts_with("OK ")) else {
        out.failed += 1;
        return HashMap::new();
    };
    line[3..]
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .filter_map(|(k, v)| v.parse().ok().map(|v| (k.to_owned(), v)))
        .collect()
}

/// Reads every probe over the socket (one pipelined burst), scores it
/// against the preload's true counts, and checks each answer equals the
/// in-process registry's.
fn probe_errors(inputs: &Inputs, server: &SketchServer, out: &mut Outcome) -> ErrorMetrics {
    let mut errors = ErrorMetrics::new();
    let request: String = inputs
        .probes
        .iter()
        .map(|&(t, id, _)| format!("QUERY {} {id}\n", inputs.names[t]))
        .collect();
    out.attempted += inputs.probes.len() as u64;
    let Ok(mut client) = Client::connect(server) else {
        out.failed += inputs.probes.len() as u64;
        return errors;
    };
    let answers: Vec<Option<f64>> = std::thread::scope(|s| {
        let mut writer = client.writer.try_clone().expect("cloning a socket");
        let send = s.spawn(move || writer.write_all(request.as_bytes()).is_ok());
        let answers = (0..inputs.probes.len())
            .map(|_| {
                let line = client.response().ok().flatten()?;
                line.strip_prefix("OK ")?.parse::<f64>().ok()
            })
            .collect();
        out.check(
            send.join().expect("probe writer panicked"),
            "tcp: sending probes failed",
        );
        answers
    });
    let registry = server.registry();
    let mut registry = registry.lock().expect("registry mutex poisoned");
    for (&(tenant, id, count), answer) in inputs.probes.iter().zip(answers) {
        let Some(estimate) = answer else {
            out.failed += 1;
            continue;
        };
        errors.observe(count as f64, estimate);
        let local = registry.query(&inputs.names[tenant], &StreamElement::without_features(id));
        out.check(
            local.is_ok_and(|l| l.to_bits() == estimate.to_bits()),
            format!(
                "tcp: socket answer for {} {id} differs from the registry",
                inputs.names[tenant]
            ),
        );
    }
    errors
}

/// Runs the workload: see the module docs.
pub(crate) fn run(opts: &Opts) -> Outcome {
    let p = Params::of(opts.scale);
    let inputs = Inputs::generate(&p, opts.seed);
    let mut out = Outcome::default();
    let mut untraced = Tracer::new(false);
    let (mut setup_times, server) = repeated_setup(
        SETUP_REPS,
        || setup(&p, &inputs, opts.seed, &mut untraced, &mut out),
        SketchServer::shutdown,
    );
    let errors = probe_errors(&inputs, &server, &mut out);
    let mut avg = vec![errors.average_absolute_error()];
    let mut expected = vec![errors.expected_absolute_error()];
    for r in 1..INPUT_REPLICAS {
        let seed = replica_seed(opts.seed, r);
        let inputs = Inputs::generate(&p, seed);
        let (setup_s, server) = setup(&p, &inputs, seed, &mut Tracer::new(false), &mut out);
        setup_times.push(setup_s);
        let errors = probe_errors(&inputs, &server, &mut out);
        server.shutdown();
        avg.push(errors.average_absolute_error());
        expected.push(errors.expected_absolute_error());
    }
    let phase = measure(&inputs, &server, opts.duration, &mut out);
    server.shutdown();
    let windows = chunked_percentile(&phase.add_window_ms, 0.9);
    let q50 = percentile(&sorted(phase.query_us.clone()), 0.5);
    let q90 = chunked_percentile(&phase.query_us, 0.9);
    out.set("setup_s", stats::median(&setup_times));
    out.set("ingest_per_s", phase.adds_ok as f64 / phase.writer_s);
    out.set("tail.ingest_ms", windows.value);
    out.set("query_p50_us", q50.value);
    out.set("tail.query_us", q90.value);
    out.set("avg_abs_error", stats::median(&avg));
    out.set("expected_abs_error", stats::median(&expected));
    out.note(format!(
        "tcp: {} ADD lines in {} windows ({} OK), {} QUERY round trips; window p90 {} beyond \
         per chunk, query p90 {} beyond per chunk; {} probes; folds {:?}, governor passes {:?}",
        phase.adds_sent,
        phase.add_window_ms.len(),
        phase.adds_ok,
        phase.queries_sent,
        windows.beyond,
        q90.beyond,
        inputs.probes.len(),
        phase.stats.get("folds"),
        phase.stats.get("passes"),
    ));
    if !windows.supported() || !q90.supported() {
        out.note("tcp: WARNING a reported p90 has fewer than 10 samples beyond it");
    }
    if opts.trace {
        trace(&p, &inputs, opts, q50.value, &mut out);
    }
    out
}

/// The traced run: a second socket phase, then the same command lines
/// replayed in-process with each layer call timed.
fn trace(p: &Params, inputs: &Inputs, opts: &Opts, untraced_p50_us: f64, out: &mut Outcome) {
    let mut tracer = Tracer::new(true);
    let mut scratch = Outcome::default();
    let (setup_s, server) = setup(p, inputs, opts.seed, &mut tracer, &mut scratch);
    let phase = measure(inputs, &server, opts.duration, &mut scratch);
    server.shutdown();
    out.check_failures.extend(scratch.check_failures);
    let creates = tracer.get("registry.create");
    out.set("registry.create_s", creates.total_s());
    out.set(
        "trace.setup_coverage",
        (creates.total_s() + tracer.get("server.bind").total_s()) / setup_s,
    );
    let stat = |k: &str| phase.stats.get(k).copied().unwrap_or(0) as f64;
    out.set("registry.folds", stat("folds"));
    out.set("registry.governor_passes", stat("passes"));

    // Replay the lines the connections sent, in the same proportion, into
    // an in-process registry that governs only when told to.
    let mut registry = create_fleet(
        registry_config(p, opts.seed).govern_interval(u64::MAX),
        inputs,
        &mut Tracer::new(false),
    );
    let mut ops = 0u64;
    let mut govern = |registry: &mut SketchRegistry, tracer: &mut Tracer| {
        ops += 1;
        if ops.is_multiple_of(GOVERN_EVERY) {
            tracer.span("registry.govern", || registry.govern());
        }
    };
    for &(tenant, id) in &inputs.preload {
        let ok = registry
            .ingest(&inputs.names[tenant], &StreamElement::without_features(id))
            .is_ok();
        out.check(ok, "tcp: replay preload ingest failed");
        govern(&mut registry, &mut tracer);
    }
    let adds = phase.adds_sent.min(REPLAY_CAP);
    let queries = phase.queries_sent.min(REPLAY_CAP);
    let mut replayed_queries = 0usize;
    for a in 0..adds {
        replay(
            &inputs.add_lines[a % inputs.add_lines.len()],
            "registry.execute_add",
            &mut registry,
            &mut tracer,
            out,
        );
        govern(&mut registry, &mut tracer);
        while replayed_queries * adds < (a + 1) * queries {
            let line = &inputs.query_lines[replayed_queries % inputs.query_lines.len()];
            replay(
                line,
                "registry.execute_query",
                &mut registry,
                &mut tracer,
                out,
            );
            replayed_queries += 1;
        }
    }
    let parse_ns = tracer.get("registry.parse").median_s() * 1e9;
    let add_ns = tracer.get("registry.execute_add").median_s() * 1e9;
    let query_ns = tracer.get("registry.execute_query").median_s() * 1e9;
    out.set("registry.parse_ns", parse_ns);
    out.set("registry.execute_add_ns", add_ns);
    out.set("registry.execute_query_ns", query_ns);
    out.set(
        "registry.govern_ms",
        tracer.get("registry.govern").median_s() * 1e3,
    );
    let rtt_us = percentile(&sorted(phase.query_us.clone()), 0.5).value;
    let in_process_us = (parse_ns + query_ns) / 1e3;
    out.set("server.socket_self_us", rtt_us - in_process_us);
    out.set("trace.run_coverage", in_process_us / rtt_us);
    out.set(
        "trace.overhead_pct",
        100.0 * (rtt_us - untraced_p50_us) / untraced_p50_us,
    );
    out.note(format!(
        "tcp traced: replayed {adds} ADD and {replayed_queries} QUERY lines in-process; \
         query round trip p50 {rtt_us:.1} us of which parse + execute {in_process_us:.3} us"
    ));
}

/// Parses and executes one command line in-process, timing each layer.
fn replay(
    line: &str,
    execute_span: &'static str,
    registry: &mut SketchRegistry,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let command = tracer.span("registry.parse", || Command::parse(line));
    let Ok(command) = command else {
        out.check(false, format!("tcp: replay line does not parse: {line}"));
        return;
    };
    let response = tracer.span(execute_span, || command.execute(registry));
    out.check(
        response.starts_with("OK"),
        format!("tcp: replayed {} answered {response}", line.trim_end()),
    );
}
