//! Network-traffic monitoring: per-flow packet counting in small memory.
//!
//! The paper's introduction motivates frequency estimation with network
//! monitoring (NetFlow-style measurement, heavy-hitter detection for DoS
//! alerts). This example simulates a packet stream over source/destination
//! flows whose features are derived from the addresses, learns an `opt-hash`
//! scheme from the first measurement window, and then uses it to (a) estimate
//! per-flow packet counts and (b) rank candidate heavy hitters, comparing
//! against a Count-Min Sketch at equal memory.
//!
//! Run with:
//! ```text
//! cargo run --release --example network_monitoring
//! ```

use opthash_repro::opthash::{OptHashBuilder, SolverKind};
use opthash_repro::prelude::*;
use opthash_solver::BcdConfig;
use opthash_stream::StreamElement;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A simulated flow: a (source, destination) pair with a traffic intensity.
struct Flow {
    id: u64,
    src_subnet: u8,
    dst_port_class: u8,
    weight: f64,
}

/// Features of a flow the way a monitoring pipeline would compute them:
/// subnet and port-class indicators — attributes that correlate with traffic
/// volume (e.g. a handful of subnets host the busy services).
fn flow_features(flow: &Flow) -> Vec<f64> {
    vec![
        flow.src_subnet as f64,
        flow.dst_port_class as f64,
        (flow.src_subnet % 4) as f64,
    ]
}

fn main() {
    let mut rng = StdRng::seed_from_u64(11);

    // 1. Build a universe of flows: a few busy subnets generate most packets.
    let num_flows = 4_000u64;
    let flows: Vec<Flow> = (0..num_flows)
        .map(|id| {
            let src_subnet = (id % 16) as u8;
            let dst_port_class = (id % 8) as u8;
            // subnets 0 and 1 host the heavy services
            let base = match src_subnet {
                0 => 200.0,
                1 => 60.0,
                2..=4 => 5.0,
                _ => 1.0,
            };
            Flow {
                id,
                src_subnet,
                dst_port_class,
                weight: base * rng.gen_range(0.5..1.5),
            }
        })
        .collect();
    let total_weight: f64 = flows.iter().map(|f| f.weight).sum();

    let sample_flow = |rng: &mut StdRng| -> &Flow {
        let mut u = rng.gen_range(0.0..total_weight);
        for flow in &flows {
            if u < flow.weight {
                return flow;
            }
            u -= flow.weight;
        }
        flows.last().unwrap()
    };

    // 2. First measurement window = observed prefix.
    let prefix_packets = 40_000;
    let prefix_stream: Stream = (0..prefix_packets)
        .map(|_| {
            let flow = sample_flow(&mut rng);
            StreamElement::new(flow.id, flow_features(flow))
        })
        .collect();
    let prefix = StreamPrefix::from_stream(prefix_stream.clone());
    println!(
        "prefix window: {} packets over {} distinct flows",
        prefix.arrival_len(),
        prefix.distinct_len()
    );

    // 3. Learn the hashing scheme at a 2 KB budget.
    let budget = SpaceBudget::from_kb(2.0);
    let (stored, buckets) = budget.opt_hash_split(0.3);
    let mut opt_hash = OptHashBuilder::new(buckets)
        .lambda(0.8)
        .solver(SolverKind::Bcd(BcdConfig::default()))
        .classifier(ClassifierKind::Cart)
        .max_stored_elements(stored)
        .train(&prefix);
    let mut count_min = CountMinSketch::with_total_buckets(budget.total_buckets(), 4, 3);
    count_min.update_stream(&prefix_stream);

    // 4. Live monitoring window.
    let live_packets = 200_000;
    let live_stream: Stream = (0..live_packets)
        .map(|_| {
            let flow = sample_flow(&mut rng);
            StreamElement::new(flow.id, flow_features(flow))
        })
        .collect();
    for packet in live_stream.iter() {
        opt_hash.update(packet);
        count_min.update(packet);
    }

    // 5. Per-flow estimation error.
    let mut truth = prefix_stream.frequencies();
    truth.merge(&live_stream.frequencies());
    let mut opt_metrics = ErrorMetrics::new();
    let mut cms_metrics = ErrorMetrics::new();
    for (id, f) in truth.iter() {
        let flow = &flows[id.raw() as usize];
        let element = StreamElement::new(flow.id, flow_features(flow));
        opt_metrics.observe(f as f64, opt_hash.estimate(&element));
        cms_metrics.observe(f as f64, count_min.estimate(&element));
    }
    println!(
        "\nper-flow packet-count estimation at {} bytes:",
        budget.bytes()
    );
    println!(
        "  opt-hash : avg |err| = {:>8.2}, expected |err| = {:>8.2}",
        opt_metrics.average_absolute_error(),
        opt_metrics.expected_absolute_error()
    );
    println!(
        "  count-min: avg |err| = {:>8.2}, expected |err| = {:>8.2}",
        cms_metrics.average_absolute_error(),
        cms_metrics.expected_absolute_error()
    );

    // 6. Heavy-hitter report: top flows by estimated count.
    let mut estimated: Vec<(u64, f64)> = flows
        .iter()
        .map(|flow| {
            let element = StreamElement::new(flow.id, flow_features(flow));
            (flow.id, opt_hash.estimate(&element))
        })
        .collect();
    estimated.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let true_top: Vec<u64> = {
        let mut v: Vec<(u64, u64)> = truth.iter().map(|(id, f)| (id.raw(), f)).collect();
        v.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        v.into_iter().take(20).map(|(id, _)| id).collect()
    };
    let reported: Vec<u64> = estimated.iter().take(20).map(|(id, _)| *id).collect();
    let recall = reported.iter().filter(|id| true_top.contains(id)).count();
    println!("\nheavy-hitter screening: {recall}/20 of the true top-20 flows appear in the opt-hash top-20");
}
