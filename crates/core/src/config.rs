//! Configuration and builder for the `opt-hash` estimator.

use crate::adaptive::AdaptiveOptHash;
use crate::estimator::OptHash;
use opthash_ml::ClassifierKind;
use opthash_solver::{BcdConfig, ExactConfig};
use opthash_stream::{SpaceBudget, Stream, StreamPrefix};

/// Which optimization algorithm learns the hashing scheme (Section 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolverKind {
    /// Block coordinate descent (Algorithm 1) — the default and the paper's
    /// choice for medium and large instances.
    ///
    /// Whatever the kind, a frequency-only problem with no more distinct
    /// prefix counts than buckets is solved exactly by
    /// [`opthash_solver::kmedian::solve_equal_counts`] instead.
    Bcd(BcdConfig),
    /// Exact dynamic programming; only valid for `λ = 1` (features ignored).
    Dp,
    /// Exact branch-and-bound (the paper's `milp`); practical for small
    /// instances only.
    Exact(ExactConfig),
}

impl Default for SolverKind {
    fn default() -> Self {
        SolverKind::Bcd(BcdConfig::default())
    }
}

impl SolverKind {
    /// Short name used in experiment output (`bcd`, `dp`, `milp`).
    pub fn name(&self) -> &'static str {
        match self {
            SolverKind::Bcd(_) => "bcd",
            SolverKind::Dp => "dp",
            SolverKind::Exact(_) => "milp",
        }
    }
}

/// Full configuration of the `opt-hash` estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptHashConfig {
    /// Number of buckets `b` of the learned hashing scheme.
    pub buckets: usize,
    /// Trade-off weight `λ` between estimation error (frequency similarity)
    /// and similarity error (feature similarity). Section 4.1.
    pub lambda: f64,
    /// Solver used for the prefix assignment.
    pub solver: SolverKind,
    /// Classifier family used for unseen elements (Section 5.2).
    pub classifier: ClassifierKind,
    /// Cap on the number of distinct prefix elements whose IDs are stored;
    /// when the prefix has more, it is down-sampled with probability
    /// proportional to observed frequency (Section 7.3). `None` keeps all.
    pub max_stored_elements: Option<usize>,
    /// Whether the prefix frequencies are folded into the bucket counters so
    /// estimates cover the whole stream including the prefix period (the
    /// real-world experiments aggregate from day 0).
    pub include_prefix_counts: bool,
    /// RNG seed (classifier training, prefix sampling).
    pub seed: u64,
}

impl Default for OptHashConfig {
    fn default() -> Self {
        OptHashConfig {
            buckets: 16,
            lambda: 1.0,
            solver: SolverKind::default(),
            classifier: ClassifierKind::Cart,
            max_stored_elements: None,
            include_prefix_counts: true,
            seed: 0,
        }
    }
}

impl OptHashConfig {
    /// Derives a configuration from a total memory budget and the
    /// bucket-to-stored-ID ratio `c` of Section 7.3: `n = b_total/(1+c)` IDs
    /// are stored and `b = b_total − n` buckets are allocated.
    pub fn from_budget(budget: SpaceBudget, ratio_c: f64) -> Self {
        let (stored, buckets) = budget.opt_hash_split(ratio_c);
        OptHashConfig {
            buckets: buckets.max(1),
            max_stored_elements: Some(stored.max(1)),
            ..OptHashConfig::default()
        }
    }

    /// Validates the configuration, panicking on inconsistencies. Called by
    /// the training entry points.
    pub fn validate(&self) {
        assert!(self.buckets > 0, "need at least one bucket");
        assert!(
            (0.0..=1.0).contains(&self.lambda),
            "lambda must lie in [0, 1]"
        );
        if let SolverKind::Dp = self.solver {
            assert!(
                (self.lambda - 1.0).abs() < f64::EPSILON,
                "the dp solver only handles lambda = 1 (estimation error only)"
            );
        }
    }
}

/// Fluent builder for [`OptHash`] / [`AdaptiveOptHash`].
///
/// ```
/// use opthash::{OptHashBuilder, SolverKind};
/// use opthash_stream::Stream;
///
/// let prefix = Stream::from_ids([1u64, 1, 2, 3, 3, 3]);
/// let estimator = OptHashBuilder::new(2)
///     .lambda(1.0)
///     .solver(SolverKind::Dp)
///     .train_on_stream(&prefix);
/// assert_eq!(estimator.config().buckets, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OptHashBuilder {
    config: OptHashConfig,
}

impl OptHashBuilder {
    /// Starts a builder with `buckets` buckets and default settings.
    pub fn new(buckets: usize) -> Self {
        OptHashBuilder {
            config: OptHashConfig {
                buckets,
                ..OptHashConfig::default()
            },
        }
    }

    /// Starts a builder from a memory budget and bucket-to-ID ratio `c`.
    pub fn from_budget(budget: SpaceBudget, ratio_c: f64) -> Self {
        OptHashBuilder {
            config: OptHashConfig::from_budget(budget, ratio_c),
        }
    }

    /// Sets the estimation/similarity trade-off `λ`.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.config.lambda = lambda;
        self
    }

    /// Sets the solver.
    pub fn solver(mut self, solver: SolverKind) -> Self {
        self.config.solver = solver;
        self
    }

    /// Sets the classifier family for unseen elements.
    pub fn classifier(mut self, classifier: ClassifierKind) -> Self {
        self.config.classifier = classifier;
        self
    }

    /// Caps the number of stored prefix-element IDs.
    pub fn max_stored_elements(mut self, max: usize) -> Self {
        self.config.max_stored_elements = Some(max);
        self
    }

    /// Controls whether prefix frequencies seed the bucket counters.
    pub fn include_prefix_counts(mut self, include: bool) -> Self {
        self.config.include_prefix_counts = include;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// The configuration built so far.
    pub fn config(&self) -> &OptHashConfig {
        &self.config
    }

    /// Trains a static [`OptHash`] estimator on an already-aggregated prefix.
    pub fn train(self, prefix: &StreamPrefix) -> OptHash {
        OptHash::train(self.config, prefix)
    }

    /// Trains a static [`OptHash`] estimator on a raw prefix stream.
    pub fn train_on_stream(self, prefix: &Stream) -> OptHash {
        OptHash::train(self.config, &StreamPrefix::from_stream(prefix.clone()))
    }

    /// Trains an [`AdaptiveOptHash`] estimator (Bloom-filter extension) on an
    /// already-aggregated prefix. `bloom_bits` controls the filter size.
    pub fn train_adaptive(self, prefix: &StreamPrefix, bloom_bits: usize) -> AdaptiveOptHash {
        AdaptiveOptHash::train(self.config, prefix, bloom_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let c = OptHashConfig::default();
        assert_eq!(c.buckets, 16);
        assert_eq!(c.lambda, 1.0);
        assert_eq!(c.solver.name(), "bcd");
        assert!(c.include_prefix_counts);
        c.validate();
    }

    #[test]
    fn from_budget_follows_ratio_split() {
        let budget = SpaceBudget::from_kb(4.0); // 1000 slots
        let c = OptHashConfig::from_budget(budget, 0.3);
        assert_eq!(c.buckets + c.max_stored_elements.unwrap(), 1000);
        assert!(c.buckets >= 200 && c.buckets <= 300);
    }

    #[test]
    fn builder_sets_every_field() {
        let b = OptHashBuilder::new(7)
            .lambda(0.5)
            .classifier(ClassifierKind::RandomForest)
            .max_stored_elements(123)
            .include_prefix_counts(false)
            .seed(9);
        let c = b.config();
        assert_eq!(c.buckets, 7);
        assert_eq!(c.lambda, 0.5);
        assert_eq!(c.classifier, ClassifierKind::RandomForest);
        assert_eq!(c.max_stored_elements, Some(123));
        assert!(!c.include_prefix_counts);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn solver_names() {
        assert_eq!(SolverKind::Dp.name(), "dp");
        assert_eq!(SolverKind::Bcd(BcdConfig::default()).name(), "bcd");
        assert_eq!(SolverKind::Exact(ExactConfig::default()).name(), "milp");
    }

    #[test]
    #[should_panic(expected = "lambda = 1")]
    fn dp_with_lambda_below_one_is_rejected() {
        let c = OptHashConfig {
            lambda: 0.5,
            solver: SolverKind::Dp,
            ..OptHashConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let c = OptHashConfig {
            buckets: 0,
            ..OptHashConfig::default()
        };
        c.validate();
    }
}
