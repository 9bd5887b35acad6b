//! The benchmark's own contract: `BENCHMARK.json` names exactly the metrics
//! the benchmark emits, and every workload passes its output checks.

use perfbench::{result_json, run, Opts, Scale, Workload, END_TO_END, PER_LAYER};
use std::time::Duration;

/// `(name, unit)` pairs of one metric array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("metric array ends")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("metric field") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("field value") + 1;
        let close = rest[open..].find('"').expect("field value ends") + open;
        rest[open..close].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn pairs(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_names_every_emitted_metric() {
    assert_eq!(declared("end_to_end"), pairs(END_TO_END));
    assert_eq!(declared("per_layer"), pairs(PER_LAYER));
}

fn smoke(workload: Workload, trace: bool) {
    let opts = Opts {
        seed: 3,
        duration: Duration::from_millis(1_500),
        trace,
        scale: Scale::Smoke,
        nproc: 2,
    };
    let outcome = run(workload, &opts);
    assert!(
        outcome.correct(),
        "{} failed its checks: {:?} (failed ops {})",
        workload.name(),
        outcome.check_failures,
        outcome.failed
    );
    assert!(outcome.attempted > 0);
    let line = result_json(&outcome, trace);
    let table = if trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in table {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from {line}"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        assert!(outcome.metrics[name].is_finite());
    }
    if !trace {
        for (name, _) in END_TO_END {
            assert!(
                outcome.metrics[name] > 0.0,
                "{}: end-to-end metric {name} is 0",
                workload.name()
            );
        }
    }
}

#[test]
fn querylog_smoke_run_passes_its_checks() {
    smoke(Workload::Querylog, false);
}

#[test]
fn drift_smoke_run_passes_its_checks() {
    smoke(Workload::Drift, false);
}

#[test]
fn tcp_smoke_run_passes_its_checks() {
    smoke(Workload::Tcp, false);
}

#[test]
fn traced_smoke_runs_emit_every_per_layer_metric() {
    for workload in Workload::ALL {
        smoke(workload, true);
    }
}
