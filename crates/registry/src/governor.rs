//! The memory-budget governor: keeps the fleet's accounted bytes under the
//! registry's global [`SpaceBudget`](opthash_stream::SpaceBudget) by
//! degrading cold tenants and promoting hot ones.
//!
//! # The degradation ladder
//!
//! A pass sheds bytes by repeatedly picking the *coldest* tenant (fewest
//! recent touches, least recently used as tie-break) that still has a cheap
//! step available, and applying the first rung that fits:
//!
//! 1. **Demote** a sharded tenant to a bare estimator — reclaims the
//!    engine's counter replicas (`2 × shards + 3` copies down to one) and
//!    its worker threads without losing a single count.
//! 2. **Collapse** a promoted tenant — folds its full-width live sketch
//!    down onto its narrow frozen history and merges the two, reclaiming
//!    the full-width grid.
//! 3. **Fold** a bare grid to half its width via
//!    [`CountMinSketch::fold_to_width`](opthash_sketch::CountMinSketch::fold_to_width):
//!    counters congruent modulo the new width are summed and the hash
//!    functions restricted, producing *exactly* the sketch the same stream
//!    would have built at the smaller width. Counted mass is conserved;
//!    only the error bound degrades (`ε ∝ 1/width` doubles per fold).
//!
//! Only when a tenant is already at the [`RegistryConfig::min_width`]
//! floor (or hosts a non-foldable backend such as Misra–Gries) is it
//! **evicted** outright, with its mass moved to the `evicted` ledger bucket
//! so the registry's conservation audit still balances.
//!
//! # Promotion
//!
//! When the fleet is comfortably under budget (below
//! [`RegistryConfig::promote_headroom`] × budget — deliberately lower than
//! the shedding threshold, so promote/degrade cannot oscillate), the pass
//! promotes the *hottest* folded tenant: its narrow sketch is frozen as
//! history and a fresh full-width sketch (same per-tenant seed, hence
//! mergeable back later) takes new arrivals. Queries sum the frozen and
//! live estimates, which for Count-Min keeps the never-under-count
//! guarantee.
//!
//! [`RegistryConfig::min_width`]: crate::RegistryConfig::min_width
//! [`RegistryConfig::promote_headroom`]: crate::RegistryConfig::promote_headroom

use crate::registry::{SketchRegistry, TenantState};
use opthash_engine::SketchBackend;

/// What one governor pass did, returned by [`SketchRegistry::govern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GovernorOutcome {
    /// Half-width grid folds applied.
    pub folds: u64,
    /// Promoted tenants collapsed back onto their frozen history.
    pub collapses: u64,
    /// Sharded tenants demoted to bare estimators.
    pub demotions: u64,
    /// Tenants evicted outright.
    pub evictions: u64,
    /// Tenants promoted back to full width.
    pub promotions: u64,
    /// Accounted bytes when the pass started.
    pub live_bytes_before: u64,
    /// Accounted bytes when the pass finished.
    pub live_bytes_after: u64,
}

impl GovernorOutcome {
    /// Degradation steps of any kind taken by this pass.
    pub fn degradations(&self) -> u64 {
        self.folds + self.collapses + self.demotions
    }

    /// Total actions (degradations + evictions + promotions).
    pub fn actions(&self) -> u64 {
        self.degradations() + self.evictions + self.promotions
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
        let budget = budget.bytes() as u64;
        shed(reg, budget, &mut outcome);
        promote(reg, budget, &mut outcome);
    }

    // Exponential decay of activity scores: yesterday's hot tenant goes
    // cold within a few passes unless traffic keeps arriving.
    for tenant in reg.tenants.values_mut() {
        tenant.touches /= 2;
    }
    outcome.live_bytes_after = reg.live_bytes;
    outcome
}

/// Degrades (or, at the floor, evicts) cold tenants until the fleet fits.
///
/// Terminates because every ladder rung strictly reduces the victim's
/// accounted bytes, and the eviction fallback strictly shrinks the tenant
/// set; an empty registry has zero accounted bytes, which fits any budget.
fn shed(reg: &mut SketchRegistry, budget: u64, outcome: &mut GovernorOutcome) {
    while reg.live_bytes > budget && !reg.tenants.is_empty() {
        if let Some(name) = coldest(reg, true) {
            degrade_step(reg, &name, outcome);
        } else if let Some(name) = coldest(reg, false) {
            evict(reg, &name, outcome);
        } else {
            unreachable!("a non-empty registry always has a coldest tenant");
        }
    }
}

/// The coldest tenant by `(touches, last_touch)`, with the name as a final
/// deterministic tie-break; optionally restricted to tenants that still
/// have a degradation rung available.
fn coldest(reg: &SketchRegistry, degradable_only: bool) -> Option<String> {
    let min_width = reg.config.min_width;
    reg.tenants
        .iter()
        .filter(|(_, t)| !degradable_only || has_degrade_step(t, min_width))
        .min_by(|(a_name, a), (b_name, b)| {
            (a.touches, a.last_touch, a_name.as_str()).cmp(&(
                b.touches,
                b.last_touch,
                b_name.as_str(),
            ))
        })
        .map(|(name, _)| name.clone())
}

fn has_degrade_step(tenant: &crate::registry::Tenant, min_width: usize) -> bool {
    if tenant.is_sharded() || tenant.frozen.is_some() {
        return true;
    }
    match &tenant.state {
        TenantState::Direct(sketch) => sketch.can_fold(min_width),
        TenantState::Sharded(_) => true,
        TenantState::Retired => false,
    }
}

/// Applies the first available ladder rung to `name` and re-accounts bytes.
fn degrade_step(reg: &mut SketchRegistry, name: &str, outcome: &mut GovernorOutcome) {
    let min_width = reg.config.min_width;
    let tenant = reg
        .tenants
        .get_mut(name)
        .expect("victim chosen from live tenant set");
    let old_bytes = tenant.bytes;

    if tenant.is_sharded() {
        // Rung 1: demote. `finish` consumes the engine, merging every
        // shard's counters back into one estimator — mass-exact.
        let state = std::mem::replace(&mut tenant.state, TenantState::Retired);
        let TenantState::Sharded(engine) = state else {
            unreachable!("is_sharded checked above");
        };
        match engine.finish() {
            Ok(sketch) => {
                tenant.state = TenantState::Direct(sketch);
                reg.counters.demotions += 1;
                outcome.demotions += 1;
            }
            Err(_) => {
                // A poisoned engine cannot produce a trustworthy merged
                // view; the tenant is unrecoverable, so account it as an
                // eviction rather than serve corrupt counts.
                evict(reg, name, outcome);
                return;
            }
        }
    } else if let Some(frozen) = tenant.frozen.take() {
        // Rung 2: collapse a promoted tenant. The live sketch shares the
        // frozen one's seed, so folding it to the frozen width restores
        // identical hash functions and the merge is legal.
        let target = frozen
            .width()
            .expect("only foldable backends are ever promoted");
        let TenantState::Direct(live) = &mut tenant.state else {
            unreachable!("promoted tenants are always direct");
        };
        live.fold_to(target);
        live.merge(&frozen);
        reg.counters.collapses += 1;
        outcome.collapses += 1;
    } else {
        // Rung 3: fold the grid to half width.
        let TenantState::Direct(sketch) = &mut tenant.state else {
            unreachable!("non-sharded tenants are direct");
        };
        let folded = sketch.fold_half(min_width);
        debug_assert!(folded, "victim was chosen for having a fold available");
        tenant.fold_steps += 1;
        reg.counters.folds += 1;
        outcome.folds += 1;
    }

    tenant.refresh_bytes();
    let new_bytes = tenant.bytes;
    reg.live_bytes = reg
        .live_bytes
        .saturating_sub(old_bytes as u64)
        .saturating_add(new_bytes as u64);
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

/// Promotes the hottest folded tenant back to full width, if the fleet has
/// headroom for the extra grid. At most one promotion per pass: promotion
/// is speculative spending, and one grid per pass keeps it reversible
/// before the next budget check.
fn promote(reg: &mut SketchRegistry, budget: u64, outcome: &mut GovernorOutcome) {
    let headroom = (budget as f64 * reg.config.promote_headroom) as u64;
    if reg.live_bytes >= headroom {
        return;
    }
    let candidate = reg
        .tenants
        .iter()
        .filter(|(_, t)| t.fold_steps > 0 && t.frozen.is_none() && !t.is_sharded() && t.touches > 0)
        .max_by(|(a_name, a), (b_name, b)| {
            // Hottest: most touches, most recently used, name tie-break.
            (a.touches, a.last_touch, a_name.as_str()).cmp(&(
                b.touches,
                b.last_touch,
                b_name.as_str(),
            ))
        })
        .map(|(name, _)| name.clone());
    let Some(name) = candidate else {
        return;
    };
    let tenant = reg
        .tenants
        .get_mut(&name)
        .expect("candidate chosen from live tenant set");
    let extra = tenant.spec.grid_bytes() as u64;
    if reg.live_bytes.saturating_add(extra) > headroom {
        return;
    }
    let state = std::mem::replace(&mut tenant.state, TenantState::Retired);
    let TenantState::Direct(old) = state else {
        unreachable!("candidate filter keeps only direct tenants");
    };
    tenant.frozen = Some(old);
    tenant.state = TenantState::Direct(tenant.spec.build(tenant.seed));
    tenant.refresh_bytes();
    reg.live_bytes = reg.live_bytes.saturating_add(extra);
    reg.counters.promotions += 1;
    outcome.promotions += 1;
}

#[cfg(test)]
mod tests {
    use crate::{BackendSpec, RegistryConfig, SketchRegistry};
    use opthash_engine::SketchBackend;
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
        assert!(stats.degradations >= 1, "governor must have acted");
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
    fn sharded_tenants_are_demoted_before_grids_are_folded() {
        let spec = BackendSpec::CountMin {
            width: 256,
            depth: 4,
        };
        // 2 shards => sharded tenant costs 2 × 2 + 3 = 7 grids. Budget: 2.
        let budget = SpaceBudget::from_bytes(grid_bytes(256, 4) * 2);
        let mut registry = SketchRegistry::new(
            RegistryConfig::default()
                .budget(budget)
                .min_width(32)
                .govern_interval(u64::MAX),
        );
        registry.create_sharded("fat", spec, 2).unwrap();
        let stats = registry.stats();
        assert_eq!(stats.demotions, 1, "demotion reclaims the shard replicas");
        assert_eq!(stats.folds, 0, "one grid fits: no fold needed");
        assert!(!stats.over_budget());
        let report = registry.tenant_report("fat").unwrap();
        assert!(!report.sharded);
    }

    #[test]
    fn demotion_preserves_counts_exactly() {
        let spec = BackendSpec::CountMin {
            width: 128,
            depth: 4,
        };
        let mut registry = SketchRegistry::new(
            RegistryConfig::default()
                .budget(SpaceBudget::from_bytes(grid_bytes(128, 4) * 11))
                .govern_interval(u64::MAX),
        );
        registry.create_sharded("t", spec, 4).unwrap();
        let mut reference = spec.build(registry.tenants["t"].seed);
        for i in 0..500u64 {
            registry.ingest("t", &element(i % 40)).unwrap();
            reference.ingest(&element(i % 40), 1);
        }
        let assert_exact = |registry: &mut SketchRegistry, when: &str| {
            for i in 0..48u64 {
                let estimate = registry.query("t", &element(i)).unwrap();
                let expected = reference.query(&element(i));
                assert_eq!(
                    estimate.to_bits(),
                    expected.to_bits(),
                    "{when} demotion: id {i} diverged from the sequential sketch"
                );
            }
        };
        assert_exact(&mut registry, "before");
        assert_eq!(registry.stats().demotions, 0, "4 shards fit 11 grids");
        // 2 × 4 + 3 = 11 accounted grids fit exactly; an extra tenant
        // forces the demote.
        registry
            .create(
                "pusher",
                BackendSpec::CountMin {
                    width: 128,
                    depth: 4,
                },
            )
            .unwrap();
        assert!(registry.stats().demotions >= 1);
        assert!(!registry.tenant_report("t").unwrap().sharded);
        assert_exact(&mut registry, "after");
        assert_eq!(registry.stats().unaccounted_mass(), 0);
    }

    #[test]
    fn hot_folded_tenants_are_promoted_when_headroom_returns() {
        let spec = BackendSpec::CountMin {
            width: 512,
            depth: 4,
        };
        let full = grid_bytes(512, 4);
        // 3.5 grids: three full tenants fit, a fourth forces one fold.
        let mut registry = SketchRegistry::new(
            RegistryConfig::default()
                .budget(SpaceBudget::from_bytes(full * 7 / 2))
                .min_width(64)
                .promote_headroom(0.9)
                .govern_interval(u64::MAX),
        );
        // Fill the budget so the newcomer gets folded...
        registry.create("a", spec).unwrap();
        registry.create("b", spec).unwrap();
        registry.create("c", spec).unwrap();
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            registry
                .ingest_weighted(name, &element(i as u64), 5)
                .unwrap();
        }
        registry.create("riser", spec).unwrap();
        assert!(registry.tenant_report("riser").unwrap().fold_steps >= 1);
        let mass_before = registry.tenant_report("riser").unwrap().mass;
        assert_eq!(mass_before, 0);

        // ... then free two grids and make the folded tenant the hottest.
        registry.drop_tenant("a").unwrap();
        registry.drop_tenant("b").unwrap();
        for i in 0..200u64 {
            registry.ingest("riser", &element(i % 16)).unwrap();
        }
        let outcome = registry.govern();
        assert_eq!(
            outcome.promotions, 1,
            "hot folded tenant gets its width back"
        );
        let report = registry.tenant_report("riser").unwrap();
        assert!(report.promoted);
        // Mass survives the promotion (frozen history + live sketch).
        let stats = registry.stats();
        assert_eq!(stats.unaccounted_mass(), 0);
        // Counts from before and after the promotion both answer.
        for i in 0..16u64 {
            registry.ingest("riser", &element(i)).unwrap();
            let estimate = registry.query("riser", &element(i)).unwrap();
            assert!(estimate >= 13.0, "frozen + live must cover all arrivals");
        }
    }

    #[test]
    fn promoted_tenants_collapse_back_under_pressure() {
        let spec = BackendSpec::CountMin {
            width: 512,
            depth: 4,
        };
        // Filler tenants are created *at* the fold floor, so once `t` is
        // promoted it is the only degradable tenant and must be the one
        // the governor collapses — no dependence on activity ordering.
        let floor = BackendSpec::CountMin {
            width: 64,
            depth: 4,
        };
        let full = grid_bytes(512, 4);
        let small = grid_bytes(64, 4);
        let mut registry = SketchRegistry::new(
            RegistryConfig::default()
                .budget(SpaceBudget::from_bytes(full * 2))
                .min_width(64)
                .promote_headroom(1.0)
                .govern_interval(u64::MAX),
        );
        // Fold `t` once via ballast pressure, then clear the ballast.
        registry.create("t", spec).unwrap();
        registry.create("ballast", spec).unwrap();
        registry.create("nudge", floor).unwrap(); // 2 grids + 1: over budget
        assert_eq!(registry.tenant_report("t").unwrap().fold_steps, 1);
        registry.drop_tenant("ballast").unwrap();
        registry.drop_tenant("nudge").unwrap();

        // Make `t` hot and promote it: frozen half-width history plus a
        // fresh full-width live grid.
        for i in 0..200u64 {
            registry.ingest("t", &element(i % 8)).unwrap();
        }
        let outcome = registry.govern();
        assert_eq!(outcome.promotions, 1);
        assert!(registry.tenant_report("t").unwrap().promoted);
        for i in 0..80u64 {
            registry.ingest("t", &element(i % 8)).unwrap();
        }
        let mass = registry.tenant_report("t").unwrap().mass;

        // Squeeze with floor-width tenants until the budget trips: `t` is
        // the only tenant with a degradation rung left, so the governor
        // must collapse its promoted pair rather than evict anyone.
        let mut squeezed = 0usize;
        while registry.live_bytes() + small as u64 <= (full * 2) as u64 {
            registry.create(&format!("s{squeezed}"), floor).unwrap();
            squeezed += 1;
        }
        registry.create("tipping-point", floor).unwrap();
        let stats = registry.stats();
        assert!(stats.collapses >= 1, "promoted pair must collapse");
        assert_eq!(stats.evictions, 0, "collapse spared every tenant");
        let report = registry.tenant_report("t").unwrap();
        assert!(!report.promoted, "frozen history was merged away");
        assert_eq!(report.mass, mass);
        assert_eq!(stats.unaccounted_mass(), 0);
        // Pre- and post-promotion counts both survive the collapse.
        for i in 0..8u64 {
            let estimate = registry.query("t", &element(i)).unwrap();
            assert!(estimate >= 35.0, "280 arrivals over 8 ids: >= 35 each");
        }
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
        assert_eq!(stats.degradations, 0);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.budget_bytes, 0);
    }
}
