//! Mixed-tenant registry load generator: drives a fleet of telemetry-,
//! search-, and group-structured tenants through a budget-governed
//! [`SketchRegistry`], verifies the governor's conservation guarantees, and
//! records aggregate QPS, query latency percentiles, and per-tenant error
//! in `BENCH_registry.json` so the repository keeps a serving-layer perf
//! trajectory across PRs.
//!
//! ```text
//! cargo run --release --example tenant_load -- \
//!     [--tenants 1000] [--arrivals 500000] [--budget-kb 3000] \
//!     [--probes-per-tenant 16] [--seed 42] [--out BENCH_registry.json]
//! ```
//!
//! The default budget (3 MB) is roughly a quarter of the fleet's full-width
//! footprint, so the governor must fold cold tenants to fit — the run
//! asserts that it did, and that not one unit of counted mass went missing
//! while it happened.

use opthash_bench::reporting::{JsonFields, PerfReport};
use opthash_repro::datagen::{MixedTenantConfig, MixedTenantWorkload, TenantClass};
use opthash_repro::prelude::*;
use std::collections::HashMap;
use std::time::Instant;

struct Args {
    tenants: usize,
    arrivals: usize,
    budget_kb: f64,
    probes_per_tenant: usize,
    seed: u64,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tenants: 1_000,
        arrivals: 500_000,
        budget_kb: 3_000.0,
        probes_per_tenant: 16,
        seed: 42,
        out: "BENCH_registry.json".to_owned(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--tenants" => {
                args.tenants = value("--tenants")?.parse().map_err(|e| format!("{e}"))?
            }
            "--arrivals" => {
                args.arrivals = value("--arrivals")?.parse().map_err(|e| format!("{e}"))?
            }
            "--budget-kb" => {
                args.budget_kb = value("--budget-kb")?.parse().map_err(|e| format!("{e}"))?
            }
            "--probes-per-tenant" => {
                args.probes_per_tenant = value("--probes-per-tenant")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--out" => args.out = value("--out")?,
            "--help" | "-h" => {
                println!(
                    "usage: tenant_load [--tenants N] [--arrivals N] [--budget-kb KB] \
                     [--probes-per-tenant N] [--seed S] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

/// Full-width backend for each tenant class.
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

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

#[derive(Default)]
struct ClassAgg {
    tenants: usize,
    arrivals: u64,
    mass: u64,
    probes: u64,
    abs_err_sum: f64,
    rel_err_sum: f64,
    latencies_ns: Vec<u64>,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    let budget = SpaceBudget::from_kb(args.budget_kb);
    let workload = MixedTenantWorkload::new(MixedTenantConfig {
        tenants: args.tenants,
        seed: args.seed,
        ..MixedTenantConfig::default()
    });
    let mut registry = SketchRegistry::new(
        RegistryConfig::default()
            .budget(budget)
            .min_width(64)
            .govern_interval(4_096)
            .default_seed(args.seed),
    );

    // --- create the fleet -------------------------------------------------
    let full_bytes: usize = (0..args.tenants)
        .map(|i| spec_for(workload.class_of(i)).grid_bytes())
        .sum();
    println!(
        "creating {} tenants (full-width footprint {:.1} KB, budget {:.1} KB)...",
        args.tenants,
        full_bytes as f64 / 1000.0,
        budget.kb()
    );
    let create_start = Instant::now();
    for i in 0..args.tenants {
        registry
            .create(&workload.tenant_name(i), spec_for(workload.class_of(i)))
            .expect("tenant names are unique");
    }
    println!(
        "created in {:.2}s; live bytes after admission control: {:.1} KB",
        create_start.elapsed().as_secs_f64(),
        registry.live_bytes() as f64 / 1000.0
    );

    // --- routed ingest ----------------------------------------------------
    let mut truth: HashMap<(usize, u64), u64> = HashMap::new();
    let mut routed: u64 = 0;
    let mut lost_to_eviction: u64 = 0;
    let ingest_start = Instant::now();
    for arrival in workload.arrivals(args.arrivals) {
        let name = workload.tenant_name(arrival.tenant);
        match registry.ingest(&name, &arrival.element) {
            Ok(()) => {
                routed += 1;
                *truth
                    .entry((arrival.tenant, arrival.element.id.raw()))
                    .or_insert(0) += 1;
            }
            Err(RegistryError::UnknownTenant { .. }) => lost_to_eviction += 1,
            Err(err) => panic!("unexpected ingest error: {err}"),
        }
    }
    let ingest_secs = ingest_start.elapsed().as_secs_f64();
    let ingest_qps = routed as f64 / ingest_secs;
    println!(
        "ingested {routed} arrivals in {ingest_secs:.2}s ({:.2} Melem/s aggregate); \
         {lost_to_eviction} arrivals hit evicted tenants",
        ingest_qps / 1e6
    );

    // --- per-tenant probes: hottest ids by true count ---------------------
    let mut per_tenant: Vec<Vec<(u64, u64)>> = vec![Vec::new(); args.tenants];
    for (&(tenant, id), &count) in &truth {
        per_tenant[tenant].push((id, count));
    }
    let mut classes: HashMap<&'static str, ClassAgg> = HashMap::new();
    for i in 0..args.tenants {
        classes
            .entry(workload.class_of(i).name())
            .or_default()
            .tenants += 1;
    }
    let query_start = Instant::now();
    let mut all_latencies: Vec<u64> = Vec::new();
    let mut queries: u64 = 0;
    for (tenant, ids) in per_tenant.iter_mut().enumerate() {
        ids.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let name = workload.tenant_name(tenant);
        let agg = classes.entry(workload.class_of(tenant).name()).or_default();
        agg.arrivals += ids.iter().map(|&(_, c)| c).sum::<u64>();
        if !registry.contains(&name) {
            continue; // evicted under pressure; its error is not measurable
        }
        for &(id, true_count) in ids.iter().take(args.probes_per_tenant) {
            let element = StreamElement::without_features(id);
            let start = Instant::now();
            let estimate =
                std::hint::black_box(registry.query(&name, &element).expect("tenant is live"));
            let nanos = start.elapsed().as_nanos() as u64;
            queries += 1;
            all_latencies.push(nanos);
            agg.latencies_ns.push(nanos);
            agg.probes += 1;
            agg.mass += true_count;
            let err = (estimate - true_count as f64).abs();
            agg.abs_err_sum += err;
            agg.rel_err_sum += err / true_count as f64;
        }
    }
    let query_secs = query_start.elapsed().as_secs_f64();
    let query_qps = queries as f64 / query_secs;
    all_latencies.sort_unstable();
    let p50 = percentile(&all_latencies, 0.50);
    let p99 = percentile(&all_latencies, 0.99);
    println!(
        "{queries} point queries in {query_secs:.2}s ({:.0} qps), p50 {p50} ns, p99 {p99} ns",
        query_qps
    );

    // --- governor & conservation audit ------------------------------------
    let stats = registry.stats();
    println!(
        "governor: {} folds, {} evictions over {} passes",
        stats.folds, stats.evictions, stats.governor_passes
    );
    println!(
        "footprint: {:.1} KB live of {:.1} KB budget; mass held {} / ingested {}",
        stats.live_bytes as f64 / 1000.0,
        budget.kb(),
        stats.held_mass,
        stats.ingested_mass
    );
    assert!(
        stats.folds >= 1,
        "the budget was sized to force at least one fold"
    );
    assert_eq!(
        stats.unaccounted_mass(),
        0,
        "every admitted count must be held, dropped, or evicted"
    );
    assert!(
        stats.live_bytes <= budget.bytes() as u64,
        "the fleet must fit its budget after governing"
    );
    let bytes_per_element = stats.live_bytes as f64 / truth.len().max(1) as f64;

    // --- report -----------------------------------------------------------
    let mut report = PerfReport::new("tenant_load");
    report.set(
        JsonFields::new()
            .int("tenants", args.tenants as i64)
            .int("arrivals", args.arrivals as i64)
            .float("budget_kb", args.budget_kb, 1)
            .int("seed", args.seed as i64)
            .float("full_width_footprint_kb", full_bytes as f64 / 1000.0, 1)
            .float("ingest_qps", ingest_qps, 0)
            .float("query_qps", query_qps, 0)
            .int("query_p50_ns", p50 as i64)
            .int("query_p99_ns", p99 as i64)
            .int("live_tenants", stats.live_tenants as i64)
            .int("live_bytes", stats.live_bytes as i64)
            .int("budget_bytes", stats.budget_bytes as i64)
            .float("bytes_per_tracked_element", bytes_per_element, 2)
            .int("folds", stats.folds as i64)
            .int("evictions", stats.evictions as i64)
            .int("governor_passes", stats.governor_passes as i64)
            .int("arrivals_lost_to_eviction", lost_to_eviction as i64)
            .int("unaccounted_mass", stats.unaccounted_mass()),
    );
    let mut class_names: Vec<&&str> = classes.keys().collect();
    class_names.sort_unstable();
    for &&name in &class_names {
        let agg = &classes[name];
        let mut latencies = agg.latencies_ns.clone();
        latencies.sort_unstable();
        report.push(
            "classes",
            JsonFields::new()
                .text("class", name)
                .int("tenants", agg.tenants as i64)
                .int("arrivals", agg.arrivals as i64)
                .int("probes", agg.probes as i64)
                .float(
                    "mean_abs_error",
                    agg.abs_err_sum / agg.probes.max(1) as f64,
                    3,
                )
                .float(
                    "mean_rel_error",
                    agg.rel_err_sum / agg.probes.max(1) as f64,
                    4,
                )
                .int("query_p50_ns", percentile(&latencies, 0.50) as i64)
                .int("query_p99_ns", percentile(&latencies, 0.99) as i64),
        );
        println!(
            "class {name:10} tenants {:4}  arrivals {:8}  mean rel err {:.4}",
            agg.tenants,
            agg.arrivals,
            agg.rel_err_sum / agg.probes.max(1) as f64
        );
    }
    report.write(&args.out).expect("write report");
    println!("\nwrote {}", args.out);
}
