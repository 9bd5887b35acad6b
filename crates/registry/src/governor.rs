//! The memory-budget governor: keeps the fleet's accounted bytes under the
//! registry's global [`SpaceBudget`](opthash_stream::SpaceBudget) with two
//! rungs, fold then evict.
//!
//! A pass sheds bytes until the fleet fits, one step at a time:
//!
//! 1. **Fold** the *coldest* tenant (fewest recent touches, least recently
//!    used as tie-break) whose grid can still halve without dropping below
//!    [`RegistryConfig::min_width`]. The fold goes through
//!    [`CountMinSketch::fold_to_width`](opthash_sketch::CountMinSketch::fold_to_width):
//!    counters congruent modulo the new width are summed and the hash
//!    functions restricted, producing *exactly* the sketch the same stream
//!    would have built at the smaller width. Counted mass is conserved;
//!    only the error bound degrades (`ε ∝ 1/width` doubles per fold).
//! 2. **Evict** the coldest tenant outright, only when no tenant can fold
//!    (every grid is at the floor, or the rest host non-foldable backends
//!    such as Misra–Gries). Its mass moves to the `evicted` ledger bucket,
//!    so the registry's conservation audit still balances.
//!
//! Every pass then halves each tenant's activity score, so coldness tracks
//! current traffic.
//!
//! [`RegistryConfig::min_width`]: crate::RegistryConfig::min_width

use crate::registry::SketchRegistry;

/// What one governor pass did, returned by [`SketchRegistry::govern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GovernorOutcome {
    /// Half-width grid folds applied.
    pub folds: u64,
    /// Tenants evicted outright.
    pub evictions: u64,
    /// Accounted bytes when the pass started.
    pub live_bytes_before: u64,
    /// Accounted bytes when the pass finished.
    pub live_bytes_after: u64,
}

impl GovernorOutcome {
    /// Total actions (folds + evictions).
    pub fn actions(&self) -> u64 {
        self.folds + self.evictions
    }
}

/// Runs one governor pass over `reg`. See the module docs for the policy.
pub(crate) fn govern_pass(reg: &mut SketchRegistry) -> GovernorOutcome {
    reg.ops_since_govern = 0;
    reg.counters.governor_passes += 1;
    // Re-derive the fleet total from the per-tenant caches: structural
    // changes maintain it incrementally, but the governor is the component
    // whose decisions depend on it, so it never trusts stale arithmetic.
    reg.live_bytes = reg
        .tenants
        .values()
        .fold(0u64, |acc, t| acc.saturating_add(t.bytes as u64));
    let mut outcome = GovernorOutcome {
        live_bytes_before: reg.live_bytes,
        ..GovernorOutcome::default()
    };

    if let Some(budget) = reg.config.budget {
        shed(reg, budget.bytes() as u64, &mut outcome);
    }

    // Exponential decay of activity scores: yesterday's hot tenant goes
    // cold within a few passes unless traffic keeps arriving.
    for tenant in reg.tenants.values_mut() {
        tenant.touches /= 2;
    }
    outcome.live_bytes_after = reg.live_bytes;
    outcome
}

/// Folds (or, when nothing can fold, evicts) cold tenants until the fleet
/// fits.
///
/// Terminates because every fold strictly reduces the victim's accounted
/// bytes and its width, and every eviction strictly shrinks the tenant
/// set; an empty registry has zero accounted bytes, which fits any budget.
fn shed(reg: &mut SketchRegistry, budget: u64, outcome: &mut GovernorOutcome) {
    while reg.live_bytes > budget && !reg.tenants.is_empty() {
        if let Some(name) = coldest(reg, true) {
            fold(reg, &name, outcome);
        } else if let Some(name) = coldest(reg, false) {
            evict(reg, &name, outcome);
        } else {
            unreachable!("a non-empty registry always has a coldest tenant");
        }
    }
}

/// The coldest tenant by `(touches, last_touch)`, with the name as a final
/// deterministic tie-break; optionally restricted to tenants that can still
/// fold.
fn coldest(reg: &SketchRegistry, foldable_only: bool) -> Option<String> {
    let min_width = reg.config.min_width;
    reg.tenants
        .iter()
        .filter(|(_, t)| !foldable_only || t.sketch.can_fold(min_width))
        .min_by(|(a_name, a), (b_name, b)| {
            (a.touches, a.last_touch, a_name.as_str()).cmp(&(
                b.touches,
                b.last_touch,
                b_name.as_str(),
            ))
        })
        .map(|(name, _)| name.clone())
}

/// Folds `name`'s grid to half width and re-accounts its bytes.
fn fold(reg: &mut SketchRegistry, name: &str, outcome: &mut GovernorOutcome) {
    let min_width = reg.config.min_width;
    let tenant = reg
        .tenants
        .get_mut(name)
        .expect("victim chosen from live tenant set");
    let old_bytes = tenant.bytes;
    let folded = tenant.sketch.fold_half(min_width);
    debug_assert!(folded, "victim was chosen for having a fold available");
    tenant.fold_steps += 1;
    tenant.refresh_bytes();
    reg.live_bytes = reg
        .live_bytes
        .saturating_sub(old_bytes as u64)
        .saturating_add(tenant.bytes as u64);
    reg.counters.folds += 1;
    outcome.folds += 1;
}

/// Removes `name` entirely, moving its mass to the evicted ledger bucket.
fn evict(reg: &mut SketchRegistry, name: &str, outcome: &mut GovernorOutcome) {
    let tenant = reg
        .tenants
        .remove(name)
        .expect("victim chosen from live tenant set");
    reg.live_bytes = reg.live_bytes.saturating_sub(tenant.bytes as u64);
    reg.counters.evicted_mass += tenant.mass;
    reg.counters.evictions += 1;
    outcome.evictions += 1;
}

#[cfg(test)]
mod tests {
    use crate::{BackendSpec, RegistryConfig, SketchRegistry};
    use opthash_stream::{SpaceBudget, StreamElement};

    fn element(id: u64) -> StreamElement {
        StreamElement::without_features(id)
    }

    /// A grid: width × depth × 4 bytes.
    fn grid_bytes(width: usize, depth: usize) -> usize {
        width * depth * 4
    }

    #[test]
    fn cold_tenants_fold_before_anyone_is_evicted() {
        // Budget fits two full 256x4 grids but not three.
        let budget = SpaceBudget::from_bytes(grid_bytes(256, 4) * 2 + grid_bytes(64, 4));
        let mut registry = SketchRegistry::new(
            RegistryConfig::default()
                .budget(budget)
                .min_width(32)
                .govern_interval(u64::MAX),
        );
        let spec = BackendSpec::CountMin {
            width: 256,
            depth: 4,
        };
        registry.create("hot-a", spec).unwrap();
        registry.create("hot-b", spec).unwrap();
        // Heat up the first two tenants.
        for i in 0..64 {
            registry.ingest("hot-a", &element(i)).unwrap();
            registry.ingest("hot-b", &element(i)).unwrap();
        }
        // The third tenant blows the budget at creation time; the governor
        // must fold *it* (the cold one), not the hot tenants.
        registry.create("cold", spec).unwrap();
        let stats = registry.stats();
        assert!(stats.folds >= 1, "governor must have acted");
        assert_eq!(stats.evictions, 0, "folding suffices for this budget");
        assert!(!stats.over_budget(), "fleet must fit after the pass");
        let cold = registry.tenant_report("cold").unwrap();
        assert!(cold.fold_steps >= 1);
        let hot = registry.tenant_report("hot-a").unwrap();
        assert_eq!(hot.fold_steps, 0, "hot tenants keep full width");
        assert_eq!(stats.unaccounted_mass(), 0);
    }

    #[test]
    fn folding_conserves_mass_and_never_undercounts() {
        let spec = BackendSpec::CountMin {
            width: 1024,
            depth: 4,
        };
        // Budget below even one full grid: the tenant is folded repeatedly
        // down toward the floor while its counts keep arriving.
        let budget = SpaceBudget::from_bytes(grid_bytes(256, 4));
        let mut registry = SketchRegistry::new(
            RegistryConfig::default()
                .budget(budget)
                .min_width(64)
                .govern_interval(128),
        );
        registry.create("only", spec).unwrap();
        let mut truth = [0u64; 32];
        let mut state = 7u64;
        for _ in 0..2_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let id = state % 32;
            truth[id as usize] += 1;
            registry.ingest("only", &element(id)).unwrap();
        }
        let stats = registry.stats();
        assert!(stats.folds >= 2, "1024 -> 256 needs two folds");
        assert_eq!(stats.unaccounted_mass(), 0);
        assert_eq!(stats.held_mass, 2_000);
        for (id, &count) in truth.iter().enumerate() {
            let estimate = registry.query("only", &element(id as u64)).unwrap();
            assert!(
                estimate >= count as f64,
                "folded Count-Min must not under-count ({estimate} < {count})"
            );
        }
    }

    #[test]
    fn at_the_floor_the_coldest_tenant_is_evicted() {
        let spec = BackendSpec::CountMin {
            width: 64,
            depth: 4,
        };
        // min_width == width: no folds available, eviction is the only rung.
        let budget = SpaceBudget::from_bytes(grid_bytes(64, 4) * 2);
        let mut registry = SketchRegistry::new(
            RegistryConfig::default()
                .budget(budget)
                .min_width(64)
                .govern_interval(u64::MAX),
        );
        registry.create("keep-a", spec).unwrap();
        registry.create("keep-b", spec).unwrap();
        registry.ingest_weighted("keep-a", &element(1), 10).unwrap();
        registry.ingest_weighted("keep-b", &element(1), 10).unwrap();
        registry.create("victim", spec).unwrap();
        let stats = registry.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(registry.len(), 2);
        assert!(!registry.contains("victim"), "untouched tenant is coldest");
        assert_eq!(stats.unaccounted_mass(), 0, "evicted mass is ledgered");
    }

    #[test]
    fn eviction_accounts_the_lost_mass() {
        let spec = BackendSpec::MisraGries { capacity: 64 };
        let mg_bytes = spec.grid_bytes();
        let mut registry = SketchRegistry::new(
            RegistryConfig::default()
                .budget(SpaceBudget::from_bytes(mg_bytes * 2))
                .govern_interval(u64::MAX),
        );
        registry.create("a", spec).unwrap();
        registry.create("b", spec).unwrap();
        registry.ingest_weighted("a", &element(1), 100).unwrap();
        registry.ingest_weighted("b", &element(2), 50).unwrap();
        // A manual pass decays both activity scores to zero, then only `a`
        // is touched again: `b` is now colder than even a fresh tenant
        // (same zero score, older last use).
        registry.govern();
        registry.ingest_weighted("a", &element(3), 7).unwrap();
        // Misra-Gries cannot fold: creating a third tenant forces one
        // eviction, and the coldest (`b`) must be the one to go.
        registry.create("c", spec).unwrap();
        assert!(!registry.contains("b"));
        let stats = registry.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.evicted_mass, 50);
        assert_eq!(stats.unaccounted_mass(), 0);
    }

    #[test]
    fn a_hot_foldable_tenant_folds_before_a_cold_one_is_evicted() {
        let mg = BackendSpec::MisraGries { capacity: 64 };
        let floor = BackendSpec::parse("count-min:64x4").unwrap();
        // Room for `cm` folded once beside `mg`, or for two floor-width
        // grids, but not for `cm` at full width beside `mg`.
        let budget = grid_bytes(128, 4).max(grid_bytes(64, 4) + mg.grid_bytes());
        let mut registry = SketchRegistry::new(
            RegistryConfig::default()
                .budget(SpaceBudget::from_bytes(budget))
                .min_width(64)
                .govern_interval(u64::MAX),
        );
        let cm = BackendSpec::parse("count-min:128x4").unwrap();
        registry.create("cm", cm).unwrap();
        for i in 0..100 {
            registry.ingest("cm", &element(i % 10)).unwrap();
        }
        // The cold newcomer goes over budget. Fold comes before evict, so
        // the hot Count-Min tenant folds and nobody is evicted.
        registry.create("mg", mg).unwrap();
        let stats = registry.stats();
        assert_eq!((stats.folds, stats.evictions), (1, 0));
        assert!(!stats.over_budget() && registry.contains("mg"));
        assert_eq!(registry.tenant_report("cm").unwrap().fold_steps, 1);

        registry.ingest_weighted("mg", &element(5), 9).unwrap();
        // A pass within budget only decays activity: `mg` cools to zero.
        assert_eq!(registry.govern().actions(), 0);
        // With `cm` at the floor nothing can fold, so the next over-budget
        // pass evicts the coldest tenant: `mg`, older than the newcomer.
        registry.create("late", floor).unwrap();
        let stats = registry.stats();
        assert_eq!((stats.folds, stats.evictions), (1, 1));
        assert!(!registry.contains("mg") && registry.contains("late"));
        assert_eq!(stats.evicted_mass, 9);
        assert!(!stats.over_budget());
        assert_eq!(stats.unaccounted_mass(), 0);
        assert_eq!(registry.query("cm", &element(3)).unwrap(), 10.0);
    }

    #[test]
    fn ungoverned_registries_never_degrade() {
        let mut registry = SketchRegistry::unbounded();
        for i in 0..50 {
            registry
                .create(
                    &format!("t{i}"),
                    BackendSpec::CountMin {
                        width: 1024,
                        depth: 4,
                    },
                )
                .unwrap();
        }
        let outcome = registry.govern();
        assert_eq!(outcome.actions(), 0);
        let stats = registry.stats();
        assert_eq!(stats.folds, 0);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.budget_bytes, 0);
    }
}
