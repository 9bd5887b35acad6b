//! Property-based tests of the multi-tenant registry: routing stability
//! under interleaved create/drop churn, and mass conservation when the
//! memory-budget governor is forced to degrade tenants mid-stream.

use opthash_repro::prelude::*;
use proptest::prelude::*;

/// Churn operations applied around a pinned tenant.
#[derive(Debug, Clone)]
enum ChurnOp {
    /// Create (or re-create) side tenant `n`.
    CreateSide(u8),
    /// Drop side tenant `n` if it exists.
    DropSide(u8),
    /// Ingest element `id` into the pinned tenant.
    IngestPinned(u8),
}

/// The vendored proptest has no tuple/oneof strategies, so an op is drawn
/// from one flat integer range and decoded: 0..12 create, 12..24 drop,
/// 24..56 ingest.
fn churn_ops(max_len: usize) -> impl Strategy<Value = Vec<ChurnOp>> {
    prop::collection::vec(
        (0u8..56).prop_map(|v| match v {
            0..=11 => ChurnOp::CreateSide(v),
            12..=23 => ChurnOp::DropSide(v - 12),
            _ => ChurnOp::IngestPinned(v - 24),
        }),
        1..max_len,
    )
}

proptest! {
    /// Routing stability: a tenant's handle and accumulated counts survive
    /// arbitrary interleaved creation and destruction of *other* tenants —
    /// the registry never silently re-routes a name to a different
    /// estimator.
    #[test]
    fn routing_is_stable_under_churn(ops in churn_ops(120)) {
        let mut registry = SketchRegistry::unbounded();
        let pinned_id = registry
            .create("pinned", BackendSpec::CountMin { width: 1024, depth: 4 })
            .expect("create pinned tenant");
        let mut truth = [0u64; 32];
        for op in &ops {
            match op {
                ChurnOp::CreateSide(n) => {
                    // Duplicate creates must fail without disturbing routing.
                    let _ = registry.create(
                        &format!("side-{n}"),
                        BackendSpec::MisraGries { capacity: 16 },
                    );
                }
                ChurnOp::DropSide(n) => {
                    let _ = registry.drop_tenant(&format!("side-{n}"));
                }
                ChurnOp::IngestPinned(id) => {
                    registry
                        .ingest("pinned", &StreamElement::without_features(u64::from(*id)))
                        .expect("pinned tenant always exists");
                    truth[*id as usize] += 1;
                }
            }
            // The handle is stable after every single operation.
            prop_assert_eq!(registry.tenant_id("pinned"), Some(pinned_id));
        }
        let total: u64 = truth.iter().sum();
        let report = registry.tenant_report("pinned").expect("pinned is live");
        prop_assert_eq!(report.id, pinned_id);
        prop_assert_eq!(report.mass, total);
        // The counts are the pinned tenant's own: estimates bracket the
        // truth (Count-Min never under-counts; over-counts only from the
        // tenant's own mass, never from side-tenant traffic).
        for (id, &count) in truth.iter().enumerate() {
            let estimate = registry
                .query("pinned", &StreamElement::without_features(id as u64))
                .expect("pinned is live");
            prop_assert!(estimate >= count as f64);
            prop_assert!(estimate <= total as f64);
        }
        prop_assert_eq!(registry.stats().unaccounted_mass(), 0);
    }

    /// Conservation under pressure: with a budget sized so the fleet cannot
    /// fit at full width, the governor must degrade — and afterwards every
    /// unit of admitted mass is still held by a live tenant or attributed
    /// to an eviction, and surviving Count-Min tenants never under-count.
    #[test]
    fn governor_degradation_conserves_mass(
        // One flat draw per update, decoded as (tenant 0..4, id 0..24,
        // weight 1..=3): again because the vendored proptest has no tuple
        // strategies.
        updates in prop::collection::vec(
            (0u64..4 * 24 * 3).prop_map(|v| {
                ((v / 72) as u8, ((v / 3) % 24) as u8, v % 3 + 1)
            }),
            32..400,
        ),
    ) {
        // Four tenants at 512x4 (8 KB each) under a 1.5-grid budget: the
        // second creation already exceeds it, so degradation is guaranteed
        // before any update flows.
        let mut registry = SketchRegistry::new(
            RegistryConfig::default()
                .budget(SpaceBudget::from_bytes(12 * 1024))
                .min_width(64)
                .govern_interval(16),
        );
        let spec = BackendSpec::CountMin { width: 512, depth: 4 };
        for t in 0..4 {
            registry.create(&format!("t{t}"), spec).expect("create tenant");
        }
        let mut truth = [[0u64; 24]; 4];
        let mut expected_mass = 0u64;
        for &(tenant, id, weight) in &updates {
            let name = format!("t{tenant}");
            let element = StreamElement::without_features(u64::from(id));
            match registry.ingest_weighted(&name, &element, weight) {
                Ok(()) => {
                    truth[tenant as usize][id as usize] += weight;
                    expected_mass += weight;
                }
                // The governor may have evicted this tenant; the arrival
                // bounces, which must not disturb the ledger.
                Err(RegistryError::UnknownTenant { .. }) => {}
                Err(other) => prop_assert!(false, "unexpected error: {other}"),
            }
        }
        let stats = registry.stats();
        prop_assert!(
            stats.folds >= 1,
            "a 12 KB budget cannot hold four 8 KB tenants at full width"
        );
        prop_assert_eq!(stats.ingested_mass, expected_mass);
        prop_assert_eq!(
            stats.unaccounted_mass(),
            0,
            "degradation folds must conserve every counted unit"
        );
        // Surviving tenants answer with Count-Min's one-sided guarantee
        // intact, folds notwithstanding.
        for (tenant, counts) in truth.iter().enumerate() {
            let name = format!("t{tenant}");
            if !registry.contains(&name) {
                continue;
            }
            let tenant_total: u64 = counts.iter().sum();
            for (id, &count) in counts.iter().enumerate() {
                let estimate = registry
                    .query(&name, &StreamElement::without_features(id as u64))
                    .expect("tenant is live");
                prop_assert!(
                    estimate >= count as f64,
                    "folded tenant under-counted: {} < {}",
                    estimate,
                    count
                );
                prop_assert!(estimate <= tenant_total as f64);
            }
        }
    }
}
