//! The multi-tenant [`SketchRegistry`]: create, route, query, and retire
//! thousands of named estimators under one global memory budget.

use crate::governor::GovernorOutcome;
use opthash_sketch::{CountMinSketch, CountSketch, MisraGries};
use opthash_stream::{ElementId, FrequencyEstimator, SpaceBudget, SpaceReport, StreamElement};
use std::collections::HashMap;
use std::fmt;

/// Opaque handle to a tenant: unique for the lifetime of a registry and
/// never reused, so a handle taken before an interleaved create/drop of
/// *other* tenants still names the same estimator afterwards (routing
/// stability — asserted by the repository's property tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Which estimator a tenant is built on, with its sizing.
///
/// The textual form used by the line protocol (and [`BackendSpec::parse`])
/// is `<kind>[:<dims>]`:
///
/// * `count-min:1024x4` — Count-Min grid, `width x depth`;
/// * `count-sketch:512x5` — Count Sketch grid, `width x depth`;
/// * `misra-gries:256` — Misra–Gries summary with 256 counters.
///
/// A bare kind (`count-min`) uses the defaults below. A grid of more than
/// [`BackendSpec::MAX_COUNTERS`] counters (`width × depth`), or a larger
/// Misra–Gries capacity, is refused, so one spec cannot ask for more
/// memory than the process can allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSpec {
    /// Count-Min Sketch (`width × depth` counters, standard updates).
    CountMin {
        /// Buckets per level.
        width: usize,
        /// Number of levels.
        depth: usize,
    },
    /// Count Sketch (`width × depth` signed counters).
    CountSketch {
        /// Buckets per level.
        width: usize,
        /// Number of levels.
        depth: usize,
    },
    /// Misra–Gries summary with a fixed number of tracked counters.
    MisraGries {
        /// Maximum number of tracked counters.
        capacity: usize,
    },
}

impl BackendSpec {
    /// Default Count-Min sizing (`1024x4`) used by a bare `count-min` spec.
    pub const DEFAULT_GRID: (usize, usize) = (1024, 4);
    /// Default Misra–Gries capacity used by a bare `misra-gries` spec.
    pub const DEFAULT_CAPACITY: usize = 256;
    /// Most counters one spec may ask for: the grid's `width × depth`, or
    /// the Misra–Gries capacity.
    pub const MAX_COUNTERS: usize = 1 << 20;

    /// Parses the textual spec grammar documented on the type.
    pub fn parse(spec: &str) -> Result<Self, RegistryError> {
        let invalid = |reason| RegistryError::InvalidSpec {
            spec: spec.to_owned(),
            reason,
        };
        let (kind, dims) = match spec.split_once(':') {
            Some((kind, dims)) => (kind, Some(dims)),
            None => (spec, None),
        };
        let grid = |dims: Option<&str>| -> Result<(usize, usize), RegistryError> {
            let Some(dims) = dims else {
                return Ok(Self::DEFAULT_GRID);
            };
            let (w, d) = dims
                .split_once('x')
                .ok_or_else(|| invalid("grid dims must be <width>x<depth>"))?;
            let width: usize = w.parse().map_err(|_| invalid("width must be an integer"))?;
            let depth: usize = d.parse().map_err(|_| invalid("depth must be an integer"))?;
            if width == 0 || depth == 0 {
                return Err(invalid("width and depth must be positive"));
            }
            match width.checked_mul(depth) {
                Some(cells) if cells <= Self::MAX_COUNTERS => Ok((width, depth)),
                _ => Err(invalid("grid holds more than MAX_COUNTERS counters")),
            }
        };
        match kind {
            "count-min" => {
                let (width, depth) = grid(dims)?;
                Ok(BackendSpec::CountMin { width, depth })
            }
            "count-sketch" => {
                let (width, depth) = grid(dims)?;
                Ok(BackendSpec::CountSketch { width, depth })
            }
            "misra-gries" => {
                let capacity = match dims {
                    None => Self::DEFAULT_CAPACITY,
                    Some(c) => {
                        let capacity: usize = c
                            .parse()
                            .map_err(|_| invalid("capacity must be an integer"))?;
                        if capacity == 0 {
                            return Err(invalid("capacity must be positive"));
                        }
                        if capacity > Self::MAX_COUNTERS {
                            return Err(invalid("capacity exceeds MAX_COUNTERS"));
                        }
                        capacity
                    }
                };
                Ok(BackendSpec::MisraGries { capacity })
            }
            _ => Err(invalid(
                "unknown backend kind (count-min, count-sketch, misra-gries)",
            )),
        }
    }

    /// Builds a fresh, empty estimator for this spec, seeded per tenant.
    pub fn build(&self, seed: u64) -> TenantSketch {
        match *self {
            BackendSpec::CountMin { width, depth } => {
                TenantSketch::CountMin(CountMinSketch::new(width, depth, seed))
            }
            BackendSpec::CountSketch { width, depth } => {
                TenantSketch::CountSketch(CountSketch::new(width, depth, seed))
            }
            BackendSpec::MisraGries { capacity } => {
                TenantSketch::MisraGries(MisraGries::new(capacity))
            }
        }
    }

    /// Short backend name used in reports and protocol responses.
    pub fn name(&self) -> &'static str {
        match self {
            BackendSpec::CountMin { .. } => "count-min",
            BackendSpec::CountSketch { .. } => "count-sketch",
            BackendSpec::MisraGries { .. } => "misra-gries",
        }
    }

    /// Bytes of a freshly built estimator of this spec.
    pub fn grid_bytes(&self) -> usize {
        self.build(0).space_report().total_bytes()
    }
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendSpec::CountMin { width, depth } => write!(f, "count-min:{width}x{depth}"),
            BackendSpec::CountSketch { width, depth } => {
                write!(f, "count-sketch:{width}x{depth}")
            }
            BackendSpec::MisraGries { capacity } => write!(f, "misra-gries:{capacity}"),
        }
    }
}

/// A concrete per-tenant estimator: the closed set of backends the registry
/// can host behind one type, so tenants of different kinds coexist in one
/// map.
#[derive(Debug, Clone)]
pub enum TenantSketch {
    /// Count-Min Sketch.
    CountMin(CountMinSketch),
    /// Count Sketch.
    CountSketch(CountSketch),
    /// Misra–Gries summary.
    MisraGries(MisraGries),
}

impl TenantSketch {
    /// Total count mass this estimator has absorbed (`‖f‖₁` offered to it).
    pub fn total_mass(&self) -> u64 {
        match self {
            TenantSketch::CountMin(s) => s.total_updates(),
            TenantSketch::CountSketch(s) => s.total_updates(),
            TenantSketch::MisraGries(s) => s.total_updates(),
        }
    }

    /// Whether one more half-width fold is possible without dropping below
    /// `min_width`.
    pub fn can_fold(&self, min_width: usize) -> bool {
        let width = match self {
            TenantSketch::CountMin(s) => s.width(),
            TenantSketch::CountSketch(s) => s.width(),
            TenantSketch::MisraGries(_) => return false,
        };
        width % 2 == 0 && width / 2 >= min_width
    }

    /// Folds the grid to half its width (the governor's fold rung).
    /// Returns `false` — and does nothing — for non-foldable backends or
    /// when the fold would drop below `min_width`. Never loses counted mass
    /// (see [`CountMinSketch::fold_to_width`]), only precision.
    pub fn fold_half(&mut self, min_width: usize) -> bool {
        if !self.can_fold(min_width) {
            return false;
        }
        match self {
            TenantSketch::CountMin(s) => s.fold_to_width(s.width() / 2),
            TenantSketch::CountSketch(s) => s.fold_to_width(s.width() / 2),
            TenantSketch::MisraGries(_) => return false,
        }
        true
    }

    /// Adds `count` arrivals of `element`.
    pub fn add(&mut self, element: &StreamElement, count: u64) {
        match self {
            TenantSketch::CountMin(s) => s.add(element.id, count),
            TenantSketch::CountSketch(s) => s.add(element.id, count),
            TenantSketch::MisraGries(s) => s.add(element.id, count),
        }
    }

    /// Estimated frequency of `element`, never negative (a Count Sketch's
    /// signed median is clamped at 0).
    pub fn estimate(&self, element: &StreamElement) -> f64 {
        match self {
            TenantSketch::CountMin(s) => s.estimate(element),
            TenantSketch::CountSketch(s) => s.estimate(element),
            TenantSketch::MisraGries(s) => s.estimate(element),
        }
    }

    /// Itemized memory usage of the estimator.
    pub fn space_report(&self) -> SpaceReport {
        match self {
            TenantSketch::CountMin(s) => s.space_report(),
            TenantSketch::CountSketch(s) => s.space_report(),
            TenantSketch::MisraGries(s) => s.space_report(),
        }
    }
}

/// Errors surfaced by the fallible [`SketchRegistry`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RegistryError {
    /// No tenant with this name exists (never created, dropped, or evicted
    /// by the governor).
    UnknownTenant {
        /// The name that failed to resolve.
        name: String,
    },
    /// A tenant with this name already exists.
    DuplicateTenant {
        /// The conflicting name.
        name: String,
    },
    /// A backend spec string failed to parse.
    InvalidSpec {
        /// The offending spec string.
        spec: String,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// An update carried weight 0: it would count nothing, so it is
    /// refused rather than silently dropped (counted in
    /// [`RegistryStats::zero_weight_rejections`]).
    ZeroWeight {
        /// ID of the element whose update carried weight 0.
        id: ElementId,
    },
    /// Admitting the update would take the fleet's admitted mass past
    /// [`SketchRegistry::MAX_MASS`], the most a Count Sketch counter holds.
    MassOverflow {
        /// The refused weight.
        weight: u64,
        /// Mass admitted across the fleet before this update.
        admitted: u64,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownTenant { name } => write!(f, "unknown tenant '{name}'"),
            RegistryError::DuplicateTenant { name } => {
                write!(f, "tenant '{name}' already exists")
            }
            RegistryError::InvalidSpec { spec, reason } => {
                write!(f, "invalid backend spec '{spec}': {reason}")
            }
            RegistryError::ZeroWeight { id } => {
                write!(f, "zero-weight update for element {id} rejected")
            }
            RegistryError::MassOverflow { weight, admitted } => write!(
                f,
                "weight {weight} would take the admitted mass {admitted} past {}",
                SketchRegistry::MAX_MASS
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Configuration of a [`SketchRegistry`] and its memory-budget governor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegistryConfig {
    /// Global byte budget across all tenants (`None` = ungoverned).
    pub budget: Option<SpaceBudget>,
    /// Narrowest width the governor may fold a grid down to; once no
    /// tenant can fold further, the coldest is evicted.
    pub min_width: usize,
    /// Registry operations between automatic governor passes.
    pub govern_interval: u64,
    /// Base seed for tenant hash functions; each tenant derives its own
    /// distinct seed from it, so tenants never share collision patterns.
    pub default_seed: u64,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            budget: None,
            min_width: 64,
            govern_interval: 1024,
            default_seed: 0x5EED,
        }
    }
}

impl RegistryConfig {
    /// Sets the global byte budget.
    pub fn budget(mut self, budget: SpaceBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the fold width floor.
    pub fn min_width(mut self, min_width: usize) -> Self {
        self.min_width = min_width.max(1);
        self
    }

    /// Sets the number of operations between automatic governor passes.
    pub fn govern_interval(mut self, ops: u64) -> Self {
        self.govern_interval = ops.max(1);
        self
    }

    /// Sets the base hash seed.
    pub fn default_seed(mut self, seed: u64) -> Self {
        self.default_seed = seed;
        self
    }

    /// The hash seed of tenant `id`: distinct per tenant, and derived
    /// deterministically so a registry rebuilt from the same config and
    /// creation order reproduces identical estimators.
    pub(crate) fn tenant_seed(&self, id: TenantId) -> u64 {
        self.default_seed
            .wrapping_add(id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// One registered tenant: a bare estimator and its ledger.
pub(crate) struct Tenant {
    pub(crate) id: TenantId,
    pub(crate) spec: BackendSpec,
    pub(crate) sketch: TenantSketch,
    /// Count mass admitted for this tenant (registry-side ledger).
    pub(crate) mass: u64,
    /// Arrivals admitted for this tenant.
    pub(crate) elements: u64,
    /// Recent-activity score; halved by every governor pass (exponential
    /// decay), so coldness reflects *current* traffic, not lifetime totals.
    pub(crate) touches: u64,
    /// Registry logical clock at this tenant's last operation.
    pub(crate) last_touch: u64,
    /// Cached accounted bytes, refreshed on every fold (all hosted
    /// backends have ingest-invariant footprints).
    pub(crate) bytes: usize,
    /// Half-width folds applied by the governor since creation.
    pub(crate) fold_steps: u32,
}

impl Tenant {
    pub(crate) fn refresh_bytes(&mut self) {
        self.bytes = self.sketch.space_report().total_bytes();
    }
}

/// Per-tenant description returned by [`SketchRegistry::tenant_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantReport {
    /// Stable tenant handle.
    pub id: TenantId,
    /// Backend kind name.
    pub backend: &'static str,
    /// Accounted bytes (cached).
    pub bytes: usize,
    /// Count mass admitted for this tenant.
    pub mass: u64,
    /// Arrivals admitted for this tenant.
    pub elements: u64,
    /// Governor half-width folds since creation.
    pub fold_steps: u32,
}

/// Counters describing what a [`SketchRegistry`] has done so far: a
/// consistent snapshot assembled by [`SketchRegistry::stats`], carrying the
/// registry's conservation invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Tenants ever created.
    pub tenants_created: u64,
    /// Tenants removed via [`SketchRegistry::drop_tenant`].
    pub tenants_dropped: u64,
    /// Tenants currently registered.
    pub live_tenants: u64,
    /// Arrivals admitted across all tenants.
    pub ingested_elements: u64,
    /// Count mass admitted across all tenants.
    pub ingested_mass: u64,
    /// Count mass currently held in live tenant estimators (audited from
    /// the sketches themselves, not the intake ledger).
    pub held_mass: u64,
    /// Count mass removed with explicitly dropped tenants.
    pub dropped_mass: u64,
    /// Count mass removed with governor-evicted tenants.
    pub evicted_mass: u64,
    /// Weight-0 updates rejected at the API boundary.
    pub zero_weight_rejections: u64,
    /// Point queries answered.
    pub queries: u64,
    /// Queries that resolved to a live tenant.
    pub query_hits: u64,
    /// Queries (and ingests) that named an unknown tenant.
    pub query_misses: u64,
    /// Half-width grid folds applied to cold tenants.
    pub folds: u64,
    /// Cold tenants evicted outright (no tenant could fold further).
    pub evictions: u64,
    /// Governor passes executed.
    pub governor_passes: u64,
    /// Accounted bytes across all live tenants.
    pub live_bytes: u64,
    /// Global byte budget (0 = ungoverned).
    pub budget_bytes: u64,
}

impl RegistryStats {
    /// Admitted mass not locatable in the registry: admitted − (held in
    /// live tenants + dropped + evicted). Zero for a healthy registry at
    /// all times — governor folds merge counters but never lose mass.
    pub fn unaccounted_mass(&self) -> i128 {
        self.ingested_mass as i128
            - self.held_mass as i128
            - self.dropped_mass as i128
            - self.evicted_mass as i128
    }

    /// Fraction of queries that resolved to a live tenant.
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            1.0
        } else {
            self.query_hits as f64 / self.queries as f64
        }
    }

    /// Whether the live footprint currently exceeds the budget (transiently
    /// true between an admission and the next governor pass).
    pub fn over_budget(&self) -> bool {
        self.budget_bytes > 0 && self.live_bytes > self.budget_bytes
    }
}

/// A registry of named frequency estimators sharing one machine and one
/// memory budget.
///
/// Tenants are created from a [`BackendSpec`], routed by name, and queried
/// through the registry; a built-in governor (see [`SketchRegistry::govern`]
/// and the [`crate::governor`] module) keeps the fleet's total accounted
/// bytes under the configured [`SpaceBudget`] by folding cold tenants' grids
/// to half width — losing precision but never counted mass — and evicting
/// the coldest tenant only when nothing can fold.
///
/// See the crate-level docs for a quickstart.
pub struct SketchRegistry {
    pub(crate) tenants: HashMap<String, Tenant>,
    pub(crate) config: RegistryConfig,
    /// Running totals bumped on every operation; the fields `stats()`
    /// computes from the live fleet stay zero here.
    pub(crate) counters: RegistryStats,
    pub(crate) next_id: u64,
    pub(crate) clock: u64,
    pub(crate) ops_since_govern: u64,
    pub(crate) live_bytes: u64,
}

impl SketchRegistry {
    /// The most count mass the fleet admits over its lifetime: `i64::MAX`,
    /// the most a Count Sketch counter holds. Below it no tenant counter
    /// can overflow, since every counter's magnitude is at most the mass
    /// admitted.
    pub const MAX_MASS: u64 = i64::MAX as u64;

    /// Creates a registry with the given configuration.
    pub fn new(config: RegistryConfig) -> Self {
        SketchRegistry {
            tenants: HashMap::new(),
            config,
            counters: RegistryStats::default(),
            next_id: 0,
            clock: 0,
            ops_since_govern: 0,
            live_bytes: 0,
        }
    }

    /// Creates a registry governed by `budget` with default tuning.
    pub fn with_budget(budget: SpaceBudget) -> Self {
        Self::new(RegistryConfig::default().budget(budget))
    }

    /// Creates an ungoverned registry (no byte budget).
    pub fn unbounded() -> Self {
        Self::new(RegistryConfig::default())
    }

    /// The registry's configuration.
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    /// Number of live tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Returns `true` if no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Returns `true` if a tenant named `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.tenants.contains_key(name)
    }

    /// The stable handle of the tenant named `name`, if registered.
    pub fn tenant_id(&self, name: &str) -> Option<TenantId> {
        self.tenants.get(name).map(|t| t.id)
    }

    /// Live tenant names, sorted (stable output for reports and tests).
    pub fn tenant_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tenants.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Registers a new tenant backed by a bare estimator built from `spec`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::DuplicateTenant`] if the name is taken.
    pub fn create(&mut self, name: &str, spec: BackendSpec) -> Result<TenantId, RegistryError> {
        if self.tenants.contains_key(name) {
            return Err(RegistryError::DuplicateTenant {
                name: name.to_owned(),
            });
        }
        let id = TenantId(self.next_id);
        self.next_id += 1;
        self.clock += 1;
        let mut tenant = Tenant {
            id,
            spec,
            sketch: spec.build(self.config.tenant_seed(id)),
            mass: 0,
            elements: 0,
            touches: 0,
            last_touch: self.clock,
            bytes: 0,
            fold_steps: 0,
        };
        tenant.refresh_bytes();
        self.live_bytes = self.live_bytes.saturating_add(tenant.bytes as u64);
        self.tenants.insert(name.to_owned(), tenant);
        self.counters.tenants_created += 1;
        // A creation is the one operation that can blow the budget in a
        // single step, so it always gets an immediate governor pass.
        if self.over_budget() {
            self.govern();
        }
        Ok(id)
    }

    /// Removes the tenant named `name`, returning its handle. The tenant's
    /// mass moves to the `dropped` ledger bucket (still accounted).
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownTenant`] if no such tenant exists.
    pub fn drop_tenant(&mut self, name: &str) -> Result<TenantId, RegistryError> {
        match self.tenants.remove(name) {
            Some(tenant) => {
                self.counters.tenants_dropped += 1;
                self.counters.dropped_mass += tenant.mass;
                self.live_bytes = self.live_bytes.saturating_sub(tenant.bytes as u64);
                Ok(tenant.id)
            }
            None => Err(RegistryError::UnknownTenant {
                name: name.to_owned(),
            }),
        }
    }

    /// Routes one arrival to the tenant named `name`.
    pub fn ingest(&mut self, name: &str, element: &StreamElement) -> Result<(), RegistryError> {
        self.ingest_weighted(name, element, 1)
    }

    /// Routes `count` arrivals of `element` to the tenant named `name`.
    ///
    /// The fleet admits at most [`SketchRegistry::MAX_MASS`] (`i64::MAX`)
    /// count mass over its lifetime, dropped and evicted tenants included:
    /// an update that would cross it is refused before any tenant or
    /// counter changes.
    ///
    /// # Errors
    ///
    /// * [`RegistryError::ZeroWeight`] — `count == 0` (counted in
    ///   [`RegistryStats::zero_weight_rejections`]).
    /// * [`RegistryError::MassOverflow`] — `count` would take the admitted
    ///   mass past [`SketchRegistry::MAX_MASS`].
    /// * [`RegistryError::UnknownTenant`] — no such tenant (it may have been
    ///   evicted by the governor; check [`RegistryStats::evictions`]).
    pub fn ingest_weighted(
        &mut self,
        name: &str,
        element: &StreamElement,
        count: u64,
    ) -> Result<(), RegistryError> {
        if count == 0 {
            self.counters.zero_weight_rejections += 1;
            return Err(RegistryError::ZeroWeight { id: element.id });
        }
        let admitted = self.counters.ingested_mass;
        if count > Self::MAX_MASS - admitted {
            return Err(RegistryError::MassOverflow {
                weight: count,
                admitted,
            });
        }
        self.clock += 1;
        let clock = self.clock;
        let Some(tenant) = self.tenants.get_mut(name) else {
            self.counters.query_misses += 1;
            return Err(RegistryError::UnknownTenant {
                name: name.to_owned(),
            });
        };
        tenant.sketch.add(element, count);
        tenant.mass += count;
        tenant.elements += 1;
        tenant.touches += 1;
        tenant.last_touch = clock;
        self.counters.ingested_mass += count;
        self.counters.ingested_elements += 1;
        self.ops_since_govern += 1;
        if self.config.budget.is_some() && self.ops_since_govern >= self.config.govern_interval {
            self.govern();
        }
        Ok(())
    }

    /// Returns the estimated frequency of `element` for the tenant named
    /// `name`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownTenant`] if no such tenant exists.
    pub fn query(&mut self, name: &str, element: &StreamElement) -> Result<f64, RegistryError> {
        self.counters.queries += 1;
        self.clock += 1;
        let clock = self.clock;
        let Some(tenant) = self.tenants.get_mut(name) else {
            self.counters.query_misses += 1;
            return Err(RegistryError::UnknownTenant {
                name: name.to_owned(),
            });
        };
        let estimate = tenant.sketch.estimate(element);
        tenant.touches += 1;
        tenant.last_touch = clock;
        self.counters.query_hits += 1;
        Ok(estimate)
    }

    /// Per-tenant description, or `None` for an unknown name.
    pub fn tenant_report(&self, name: &str) -> Option<TenantReport> {
        self.tenants.get(name).map(|t| TenantReport {
            id: t.id,
            backend: t.spec.name(),
            bytes: t.bytes,
            mass: t.mass,
            elements: t.elements,
            fold_steps: t.fold_steps,
        })
    }

    /// Fleet-wide itemized memory usage: the saturating sum of every
    /// tenant's accounted report.
    pub fn space_report(&self) -> SpaceReport {
        self.tenants
            .values()
            .fold(SpaceReport::new(), |acc, tenant| {
                acc.saturating_add(&tenant.sketch.space_report())
            })
    }

    /// A consistent snapshot of the registry's counters, including the
    /// audited conservation fields.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            live_tenants: self.tenants.len() as u64,
            held_mass: self.tenants.values().map(|t| t.sketch.total_mass()).sum(),
            live_bytes: self.live_bytes,
            budget_bytes: self.config.budget.map_or(0, |b| b.bytes() as u64),
            ..self.counters
        }
    }

    /// Accounted bytes across all live tenants (maintained incrementally;
    /// re-derived from the per-tenant caches on every governor pass).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    pub(crate) fn over_budget(&self) -> bool {
        self.config
            .budget
            .is_some_and(|budget| self.live_bytes > budget.bytes() as u64)
    }

    /// Runs one governor pass now (also triggered automatically every
    /// [`RegistryConfig::govern_interval`] operations and on any creation
    /// that exceeds the budget). Returns what the pass did; the pass itself
    /// lives in [`crate::governor`].
    pub fn govern(&mut self) -> GovernorOutcome {
        crate::governor::govern_pass(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn element(id: u64) -> StreamElement {
        StreamElement::without_features(id)
    }

    #[test]
    fn create_route_query_drop_lifecycle() {
        let mut registry = SketchRegistry::unbounded();
        let a = registry
            .create("alpha", BackendSpec::parse("count-min:256x4").unwrap())
            .unwrap();
        let b = registry
            .create("beta", BackendSpec::parse("misra-gries:64").unwrap())
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(registry.tenant_id("alpha"), Some(a));
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.tenant_names(), vec!["alpha", "beta"]);

        for _ in 0..5 {
            registry.ingest("alpha", &element(7)).unwrap();
        }
        registry.ingest_weighted("beta", &element(7), 3).unwrap();
        assert_eq!(registry.query("alpha", &element(7)).unwrap(), 5.0);
        assert_eq!(registry.query("beta", &element(7)).unwrap(), 3.0);
        // Tenants are isolated: beta's arrivals do not leak into alpha.
        assert_eq!(registry.query("alpha", &element(99)).unwrap(), 0.0);

        let dropped = registry.drop_tenant("alpha").unwrap();
        assert_eq!(dropped, a);
        assert!(matches!(
            registry.query("alpha", &element(7)),
            Err(RegistryError::UnknownTenant { .. })
        ));
        let stats = registry.stats();
        assert_eq!(stats.tenants_created, 2);
        assert_eq!(stats.tenants_dropped, 1);
        assert_eq!(stats.live_tenants, 1);
        assert_eq!(stats.dropped_mass, 5);
        assert_eq!(stats.unaccounted_mass(), 0);
    }

    #[test]
    fn duplicate_and_unknown_tenants_are_typed_errors() {
        let mut registry = SketchRegistry::unbounded();
        registry
            .create(
                "x",
                BackendSpec::CountMin {
                    width: 64,
                    depth: 2,
                },
            )
            .unwrap();
        assert!(matches!(
            registry.create("x", BackendSpec::MisraGries { capacity: 8 }),
            Err(RegistryError::DuplicateTenant { .. })
        ));
        assert!(matches!(
            registry.ingest("nope", &element(1)),
            Err(RegistryError::UnknownTenant { .. })
        ));
        assert!(matches!(
            registry.drop_tenant("nope"),
            Err(RegistryError::UnknownTenant { .. })
        ));
        let err = registry.ingest_weighted("x", &element(1), 0).unwrap_err();
        assert_eq!(err, RegistryError::ZeroWeight { id: ElementId(1) });
        assert_eq!(registry.stats().zero_weight_rejections, 1);
    }

    #[test]
    fn spec_parsing_round_trips_and_rejects_garbage() {
        let cases = [
            ("count-min:1024x4", "count-min"),
            ("count-sketch:512x5", "count-sketch"),
            ("misra-gries:256", "misra-gries"),
            ("count-min", "count-min"),
            ("misra-gries", "misra-gries"),
        ];
        for (text, name) in cases {
            let spec = BackendSpec::parse(text).unwrap();
            assert_eq!(spec.name(), name);
            // Display form re-parses to the same spec.
            assert_eq!(BackendSpec::parse(&spec.to_string()).unwrap(), spec);
        }
        assert_eq!(
            BackendSpec::parse("count-min").unwrap(),
            BackendSpec::CountMin {
                width: BackendSpec::DEFAULT_GRID.0,
                depth: BackendSpec::DEFAULT_GRID.1
            }
        );
        // A spec of exactly MAX_COUNTERS counters parses (not built here).
        let max = BackendSpec::MAX_COUNTERS;
        assert_eq!(
            BackendSpec::parse(&format!("count-min:{}x4", max / 4)).unwrap(),
            BackendSpec::CountMin {
                width: max / 4,
                depth: 4
            }
        );
        assert_eq!(
            BackendSpec::parse(&format!("misra-gries:{max}")).unwrap(),
            BackendSpec::MisraGries { capacity: max }
        );
        let oversized = [
            format!("count-min:{}x1", max + 1),
            format!("count-sketch:1x{}", max + 1),
            format!("misra-gries:{}", max + 1),
        ];
        for bad in [
            "bloom:64",
            "count-min:0x4",
            "count-min:64",
            "count-min:ax4",
            "misra-gries:0",
            "misra-gries:many",
            // Too large to allocate.
            "count-min:1000000000000x1",
            "misra-gries:1000000000000000",
            // width × depth wraps to 0.
            "count-min:9223372036854775808x2",
            "count-sketch:9223372036854775808x2",
        ]
        .into_iter()
        .chain(oversized.iter().map(String::as_str))
        {
            assert!(
                matches!(
                    BackendSpec::parse(bad),
                    Err(RegistryError::InvalidSpec { .. })
                ),
                "{bad} should not parse"
            );
        }
    }

    #[test]
    fn each_tenant_matches_a_sketch_built_from_its_own_seed() {
        let mut registry = SketchRegistry::unbounded();
        let spec = BackendSpec::CountMin {
            width: 256,
            depth: 4,
        };
        let names = ["first", "second"];
        let mut references: Vec<CountMinSketch> = names
            .iter()
            .map(|name| {
                let id = registry.create(name, spec).unwrap();
                CountMinSketch::new(256, 4, registry.config.tenant_seed(id))
            })
            .collect();
        let mut state = 3u64;
        for _ in 0..5_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let e = element(state % 300);
            for (name, reference) in names.iter().zip(&mut references) {
                registry.ingest(name, &e).unwrap();
                reference.add(e.id, 1);
            }
        }
        let mut answers = |name: &str| -> Vec<u64> {
            (0..320u64)
                .map(|id| registry.query(name, &element(id)).unwrap().to_bits())
                .collect()
        };
        let answers: Vec<Vec<u64>> = names.iter().map(|name| answers(name)).collect();
        for ((name, answers), reference) in names.iter().zip(&answers).zip(&references) {
            let expected: Vec<u64> = (0..320u64)
                .map(|id| (reference.query(ElementId(id)) as f64).to_bits())
                .collect();
            assert_eq!(answers, &expected, "{name} diverged from its reference");
        }
        // Distinct seeds give distinct collision patterns.
        assert_ne!(answers[0], answers[1], "both tenants hashed with one seed");
        assert_eq!(registry.stats().unaccounted_mass(), 0);
    }

    #[test]
    fn stats_track_queries_and_misses() {
        let mut registry = SketchRegistry::unbounded();
        registry
            .create(
                "t",
                BackendSpec::CountMin {
                    width: 64,
                    depth: 2,
                },
            )
            .unwrap();
        registry.ingest("t", &element(1)).unwrap();
        let _ = registry.query("t", &element(1)).unwrap();
        let _ = registry.query("ghost", &element(1));
        let stats = registry.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.query_hits, 1);
        assert_eq!(stats.query_misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }
}
