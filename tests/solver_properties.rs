//! Property-based tests of the optimization layer: the relationships between
//! the dp / bcd / exact solvers that the paper relies on (optimality of the
//! DP for λ = 1, the equal-count shortcut reproducing the DP, BCD never
//! worse than its initialization, the exact solver matching brute force)
//! must hold on arbitrary inputs, not just the hand-picked examples of the
//! unit tests.
//!
//! `PROPTEST_SEED=<u64>` draws a different set of cases and
//! `PROPTEST_CASES=<n>` changes how many; a failure prints the seed.

use opthash_solver::kmedian;
use opthash_solver::{
    brute_force, BcdConfig, BcdSolver, ExactConfig, ExactSolver, HashingProblem,
    IncrementalObjective,
};
use opthash_stream::{assignment_errors, Features};
use proptest::prelude::*;

/// Strategy for small frequency vectors with positive entries.
fn frequencies(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1u32..500u32, 2..max_len)
        .prop_map(|v| v.into_iter().map(f64::from).collect())
}

/// Deterministic 2-D features derived from the frequencies, so similarity
/// structure exists without needing a second random input.
fn features_for(freqs: &[f64]) -> Vec<Features> {
    freqs
        .iter()
        .enumerate()
        .map(|(i, &f)| Features::new(vec![(f % 37.0) - 18.0, ((i * 7) % 23) as f64 - 11.0]))
        .collect()
}

/// A drifted copy of `freqs`: every entry scaled by a deterministic ±5%,
/// modelling the between-retrain drift the online engine re-solves under.
fn perturb(freqs: &[f64]) -> Vec<f64> {
    freqs
        .iter()
        .enumerate()
        .map(|(i, &f)| (f * (0.95 + ((i * 13) % 11) as f64 / 100.0)).max(0.5))
        .collect()
}

/// Regression: on a drifted two-cluster instance, warm-starting from the
/// incumbent must reach a cost no worse than a cold solve **in strictly
/// fewer sweeps**, visible through the repaired [`opthash_solver::SolverStats`]
/// (before this fix `BcdSolver::solve` left `iterations`/`restarts`
/// unpopulated, so this speedup was unobservable).
#[test]
fn warm_start_beats_cold_start_on_drifted_instance() {
    let freqs: Vec<f64> = (0..24)
        .map(|i| {
            if i % 2 == 0 {
                400.0 + i as f64
            } else {
                10.0 + i as f64
            }
        })
        .collect();
    let buckets = 4;
    let solver = BcdSolver::new(BcdConfig {
        restarts: 1,
        seed: 7,
        ..BcdConfig::default()
    });
    // The incumbent comes from a thorough multi-restart bootstrap solve —
    // exactly what the online retrainer starts from.
    let incumbent = BcdSolver::new(BcdConfig {
        restarts: 6,
        seed: 7,
        ..BcdConfig::default()
    })
    .solve(&HashingProblem::frequency_only(freqs.clone(), buckets));
    let drifted = HashingProblem::frequency_only(perturb(&freqs), buckets);

    let cold = solver.solve(&drifted);
    let warm = solver.solve_warm(&drifted, &incumbent);

    assert!(warm.stats.warm_started && !cold.stats.warm_started);
    assert!(
        warm.objective <= cold.objective + 1e-9,
        "warm {} must not lose to cold {}",
        warm.objective,
        cold.objective
    );
    assert!(
        warm.stats.iterations < cold.stats.iterations,
        "warm start must converge in strictly fewer sweeps ({} vs {})",
        warm.stats.iterations,
        cold.stats.iterations
    );
    assert_eq!(warm.stats.restarts, 1);
    assert_eq!(
        warm.stats.cost_trajectory.len(),
        warm.stats.iterations + 1,
        "trajectory records the start plus one entry per sweep"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The λ = 1 DP is optimal over contiguous partitions of the sorted
    /// frequencies: in particular it can never lose to splitting the sorted
    /// elements into equal chunks (which is contiguous), and a BCD run
    /// warm-started from the DP solution can only keep or improve the
    /// objective (the descent property of Algorithm 1).
    #[test]
    fn dp_dominates_sorted_split_and_warm_started_bcd_descends(
        freqs in frequencies(24),
        buckets in 1usize..6,
        seed in 0u64..100,
    ) {
        let problem = HashingProblem::frequency_only(freqs.clone(), buckets);
        let dp = kmedian::solve_frequency_only(&problem);

        // Sorted split: `buckets` equal contiguous chunks of the
        // frequency-sorted elements.
        let n = freqs.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&x, &y| freqs[x].partial_cmp(&freqs[y]).unwrap());
        let chunk = n.div_ceil(buckets);
        let mut sorted_split = vec![0usize; n];
        for (rank, &i) in order.iter().enumerate() {
            sorted_split[i] = (rank / chunk).min(buckets - 1);
        }
        let sorted_split_error =
            assignment_errors(&freqs, &[], &sorted_split, buckets, 1.0).estimation_error;
        prop_assert!(dp.estimation_error <= sorted_split_error + 1e-6,
            "dp {} should not exceed the contiguous sorted split {}",
            dp.estimation_error, sorted_split_error);

        // Warm-starting BCD from the DP solution never degrades it.
        let warm = BcdSolver::new(BcdConfig {
            seed,
            ..BcdConfig::default()
        })
        .solve_from(&problem, &dp.assignment);
        prop_assert!(warm.objective <= dp.objective + 1e-6,
            "warm-started bcd {} should not exceed dp {}", warm.objective, dp.objective);
    }

    /// Every solver returns a complete, in-range assignment whose recomputed
    /// objective matches the one it reports.
    #[test]
    fn solvers_report_consistent_objectives(
        freqs in frequencies(16),
        buckets in 1usize..5,
        lambda_percent in 0u8..=100,
    ) {
        let lambda = f64::from(lambda_percent) / 100.0;
        let n = freqs.len();
        let problem = HashingProblem::new(freqs.clone(), Vec::new(), buckets, lambda);
        let bcd = BcdSolver::with_defaults().solve(&problem);
        prop_assert_eq!(bcd.assignment.len(), n);
        prop_assert!(bcd.assignment.iter().all(|&j| j < buckets));
        let recomputed = assignment_errors(&freqs, &[], &bcd.assignment, buckets, lambda);
        prop_assert!((recomputed.overall_error() - bcd.objective).abs() < 1e-6);
    }

    /// On tiny instances the branch-and-bound solver matches brute force for
    /// any λ, which is exactly the "solves Problem (2) to optimality" claim.
    #[test]
    fn exact_matches_brute_force(
        freqs in frequencies(7),
        lambda_percent in prop::sample::select(vec![0u8, 25, 50, 75, 100]),
        seed in 0u64..20,
    ) {
        let lambda = f64::from(lambda_percent) / 100.0;
        let features = features_for(&freqs);
        let problem = HashingProblem::new(freqs, features, 3, lambda);
        let exact = ExactSolver::new(ExactConfig { seed, ..ExactConfig::default() }).solve(&problem);
        let brute = brute_force(&problem);
        prop_assert!((exact.objective - brute.objective).abs() < 1e-6,
            "exact {} vs brute {}", exact.objective, brute.objective);
        prop_assert!(exact.stats.proven_optimal);
    }

    /// λ = 1 DP invariants: cost is non-negative, non-increasing in the
    /// number of clusters, and zero when every element gets its own cluster.
    #[test]
    fn kmedian_cost_is_monotone_in_cluster_count(values in frequencies(20)) {
        let n = values.len();
        let mut previous = f64::INFINITY;
        for k in 1..=n {
            let result = kmedian::kmedian_dp(&values, k);
            prop_assert!(result.cost >= -1e-9);
            prop_assert!(result.cost <= previous + 1e-9,
                "cost increased from {previous} to {} at k={k}", result.cost);
            previous = result.cost;
        }
        prop_assert!(kmedian::kmedian_dp(&values, n).cost.abs() < 1e-9);
    }

    /// Warm-starting BCD from an incumbent solved on a *perturbed* problem
    /// is still a descent: the result never costs more than the incumbent
    /// assignment re-costed on the new instance, and [`SolverStats`] records
    /// the provenance (warm flag, initial objective, non-increasing cost
    /// trajectory, one trajectory entry per sweep).
    #[test]
    fn warm_started_bcd_descends_from_the_incumbent_on_perturbed_problems(
        freqs in frequencies(20),
        buckets in 2usize..5,
        seed in 0u64..50,
    ) {
        let solver = BcdSolver::new(BcdConfig { restarts: 1, seed, ..BcdConfig::default() });
        let incumbent = solver.solve(&HashingProblem::frequency_only(freqs.clone(), buckets));
        prop_assert!(!incumbent.stats.warm_started);

        let drifted = perturb(&freqs);
        let warm = solver.solve_warm(
            &HashingProblem::frequency_only(drifted.clone(), buckets),
            &incumbent,
        );
        prop_assert!(warm.stats.warm_started);

        // The trajectory starts exactly at the incumbent assignment's cost
        // on the drifted instance and never rises.
        let start =
            assignment_errors(&drifted, &[], &incumbent.assignment, buckets, 1.0).estimation_error;
        prop_assert!((warm.stats.initial_objective - start).abs() < 1e-6,
            "initial objective {} must be the incumbent re-costed {}",
            warm.stats.initial_objective, start);
        prop_assert!(warm.objective <= start + 1e-6,
            "warm descent went uphill: {} from {}", warm.objective, start);
        let trajectory = &warm.stats.cost_trajectory;
        prop_assert_eq!(trajectory.len(), warm.stats.iterations + 1,
            "one trajectory entry per sweep plus the start");
        prop_assert!(trajectory.windows(2).all(|w| w[1] <= w[0] + 1e-9),
            "cost trajectory must be non-increasing: {:?}", trajectory);
        prop_assert!((trajectory[trajectory.len() - 1] - warm.objective).abs() < 1e-9);
    }

    /// The incrementally maintained objective of the BCD descent's
    /// sufficient statistics equals a from-scratch recompute after an
    /// arbitrary sequence of committed moves — the invariant the whole
    /// incremental-cost rewrite stands on.
    #[test]
    fn incremental_objective_matches_recompute_after_arbitrary_moves(
        freqs in frequencies(20),
        buckets in 2usize..5,
        lambda_percent in prop::sample::select(vec![0u8, 30, 100]),
        moves in prop::collection::vec(0usize..10_000, 1..60),
    ) {
        let lambda = f64::from(lambda_percent) / 100.0;
        let n = freqs.len();
        let features = if lambda < 1.0 { features_for(&freqs) } else { Vec::new() };
        let problem = HashingProblem::new(freqs, features, buckets, lambda);
        let mut inc = IncrementalObjective::new(&problem, vec![0; n]);
        for &packed in &moves {
            // Each generated integer encodes one (element, bucket) move.
            let (i, j) = (packed % n, (packed / n) % buckets);
            let before = inc.objective();
            let predicted = inc.eval_move(i, j);
            inc.commit(i, j);
            let actual = inc.objective() - before;
            prop_assert!((predicted - actual).abs() < 1e-6,
                "move {i}->{j}: predicted delta {predicted} vs actual {actual}");
            let truth = inc.recomputed_objective();
            prop_assert!((inc.objective() - truth).abs() < 1e-6 * truth.abs().max(1.0),
                "maintained {} drifted from recompute {truth}", inc.objective());
        }
    }

    /// BCD is deterministic: the same seed produces the same assignment,
    /// objective, and sweep count run-over-run (hot-swap reproducibility of
    /// the online engine depends on this).
    #[test]
    fn bcd_is_deterministic_given_a_seed(
        freqs in frequencies(16),
        buckets in 2usize..5,
        seed in 0u64..50,
    ) {
        let problem = HashingProblem::frequency_only(freqs, buckets);
        let solver = BcdSolver::new(BcdConfig { restarts: 3, seed, ..BcdConfig::default() });
        let a = solver.solve(&problem);
        let b = solver.solve(&problem);
        prop_assert_eq!(a.assignment, b.assignment);
        prop_assert_eq!(a.objective, b.objective);
        prop_assert_eq!(a.stats.iterations, b.stats.iterations);
        prop_assert_eq!(a.stats.moves_evaluated, b.stats.moves_evaluated);
        prop_assert_eq!(a.stats.restarts_aborted, b.stats.restarts_aborted);
    }

    /// The similarity term never goes negative and vanishes when λ = 1.
    #[test]
    fn objective_terms_are_non_negative(
        freqs in frequencies(12),
        lambda_percent in 0u8..=100,
        buckets in 1usize..4,
    ) {
        let lambda = f64::from(lambda_percent) / 100.0;
        let features = features_for(&freqs);
        let problem = HashingProblem::new(freqs, features, buckets, lambda);
        let solution = BcdSolver::with_defaults().solve(&problem);
        prop_assert!(solution.estimation_error >= 0.0);
        prop_assert!(solution.similarity_error >= 0.0);
        prop_assert!(solution.objective >= 0.0);
        if (lambda - 1.0).abs() < f64::EPSILON {
            prop_assert!((solution.objective - solution.estimation_error).abs() < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The equal-count shortcut returns exactly the λ = 1 DP's assignment,
    /// at objective 0, whenever the prefix holds `d ≤ b` distinct counts,
    /// and declines when `d > b`. Counts come from a small range, so ties,
    /// `d ≤ b` and `b > n` are all common.
    #[test]
    fn equal_counts_shortcut_matches_the_dp_or_declines(
        freqs in prop::collection::vec(1u32..8, 1..24)
            .prop_map(|v| v.into_iter().map(f64::from).collect::<Vec<f64>>()),
        buckets in 1usize..30,
    ) {
        let mut values = freqs.clone();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        values.dedup();
        let distinct = values.len();
        let problem = HashingProblem::frequency_only(freqs.clone(), buckets);
        match kmedian::solve_equal_counts(&problem) {
            Some(shortcut) => {
                prop_assert!(distinct <= buckets,
                    "shortcut answered with d = {} > b = {}", distinct, buckets);
                let dp = kmedian::kmedian_dp(&freqs, buckets);
                prop_assert_eq!(&shortcut.assignment, &dp.assignment);
                prop_assert_eq!(shortcut.objective, 0.0);
                prop_assert!(shortcut.stats.proven_optimal);
                prop_assert_eq!(shortcut.used_buckets(), buckets.min(freqs.len()));
            }
            None => prop_assert!(distinct > buckets,
                "shortcut declined with d = {} <= b = {}", distinct, buckets),
        }
    }
}
