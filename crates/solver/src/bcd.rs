//! Block coordinate descent (Algorithm 1 of the paper).
//!
//! Each sweep visits the elements in a fresh random permutation; for every
//! element it evaluates the objective change of moving it into each bucket
//! against the incrementally maintained bucket statistics of
//! [`crate::incremental::IncrementalObjective`] (`O(log |I_j|)` per
//! candidate instead of a from-scratch recompute) and greedily commits the
//! best strictly-improving move. Sweeps repeat until the objective
//! improvement drops below a tolerance or an iteration cap is reached, and
//! the whole process can be restarted from multiple uniformly random initial
//! assignments (Section 4.3).
//!
//! Multi-start runs are managed SAT-solver style: a calibrated fast/slow EMA
//! pair ([`crate::progress::Ema2`]) tracks how fast the per-sweep improvement
//! of each descent is decaying (its geometric decay ratio), and restarts
//! that have no realistic chance of catching the
//! incumbent — their projected remaining improvement cannot close the gap —
//! are aborted early. The sweep budget they free is reallocated to the
//! incumbent (its descent continues if it had run out of budget before
//! converging), and every abort decision is recorded in
//! [`SolverStats::restarts_aborted`]. Restart 0 never aborts, so a
//! multi-start solve is never worse than the single-start solve with the
//! same seed.

use crate::incremental::{IncrementalObjective, PairwiseDistances, PAIR_CACHE_LIMIT};
use crate::problem::{HashingProblem, HashingSolution, SolverStats};
use crate::progress::Ema2;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Fast EMA window (sweeps) for the stagnation check.
const EMA_FAST_WINDOW: usize = 3;
/// Slow EMA window (sweeps) for the stagnation check.
const EMA_SLOW_WINDOW: usize = 12;

/// Configuration of the block coordinate descent solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BcdConfig {
    /// Maximum number of full sweeps over the elements per restart.
    pub max_iterations: usize,
    /// Terminate a restart once the objective improves by less than this.
    pub tolerance: f64,
    /// Number of independent restarts; the best solution is returned.
    pub restarts: usize,
    /// RNG seed (restart `r` uses `seed + r`).
    pub seed: u64,
    /// Request warm-starting from an incumbent assignment where one is
    /// available: callers that hold a previous [`HashingSolution`] (the
    /// online re-trainer in `opthash-engine`) route through
    /// [`BcdSolver::solve_warm`] when this is set, seeding restart 0 with the
    /// incumbent instead of a random assignment. Plain
    /// [`BcdSolver::solve`] ignores the flag (it has no incumbent).
    pub warm_start: bool,
    /// Minimum number of sweeps a restart must run before the EMA stagnation
    /// check may abort it. Restart 0 (no incumbent to compare against) never
    /// aborts; `usize::MAX` disables early aborts entirely.
    pub abort_after: usize,
}

impl Default for BcdConfig {
    fn default() -> Self {
        BcdConfig {
            max_iterations: 50,
            tolerance: 1e-6,
            restarts: 1,
            seed: 0,
            warm_start: false,
            abort_after: 3,
        }
    }
}

impl BcdConfig {
    /// Returns the configuration with [`BcdConfig::warm_start`] enabled.
    pub fn with_warm_start(mut self) -> Self {
        self.warm_start = true;
        self
    }

    /// Returns the configuration with EMA early-aborts disabled.
    pub fn without_aborts(mut self) -> Self {
        self.abort_after = usize::MAX;
        self
    }
}

/// Block coordinate descent solver for [`HashingProblem`].
#[derive(Debug, Clone)]
pub struct BcdSolver {
    config: BcdConfig,
}

/// Per-descent control knobs (internal).
struct DescendControl<'c> {
    /// Sweep budget of this descent.
    max_sweeps: usize,
    /// Objective of the incumbent this descent must plausibly beat;
    /// `None` disables the stagnation abort.
    abort_against: Option<f64>,
    /// Minimum sweeps before the abort check may fire.
    abort_after: usize,
    /// Pairwise feature distances shared across the restarts of one solve
    /// (`None` for frequency-only problems or very large `n`).
    pairs: Option<&'c PairwiseDistances>,
}

/// Result of one descent run (internal).
struct DescentResult {
    assignment: Vec<usize>,
    objective: f64,
    /// Entry 0 is the initial objective, entry `s` the objective after
    /// sweep `s`.
    trajectory: Vec<f64>,
    moves_evaluated: u64,
    sweeps: usize,
    /// Ended because the improvement dropped below the tolerance.
    converged: bool,
    /// Ended because the EMA stagnation check fired.
    aborted: bool,
}

struct BestState {
    assignment: Vec<usize>,
    objective: f64,
    trajectory: Vec<f64>,
    converged: bool,
}

impl BcdSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: BcdConfig) -> Self {
        BcdSolver { config }
    }

    /// Creates a solver with the default configuration.
    pub fn with_defaults() -> Self {
        Self::new(BcdConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> &BcdConfig {
        &self.config
    }

    /// Runs block coordinate descent and returns the best solution across
    /// restarts.
    pub fn solve(&self, problem: &HashingProblem) -> HashingSolution {
        self.solve_inner(problem, None)
    }

    /// Runs block coordinate descent warm-started from `initial`: restart 0
    /// descends from the given assignment (bucket indices are clamped into
    /// the problem's range, so an incumbent solved for more buckets still
    /// seeds legally) and any further restarts start from random
    /// assignments as usual. `initial` must have one entry per problem
    /// element — callers re-solving after the element set changed map their
    /// incumbent onto the new universe first.
    pub fn solve_from(&self, problem: &HashingProblem, initial: &[usize]) -> HashingSolution {
        self.solve_inner(problem, Some(Self::clamp_warm(problem, initial)))
    }

    /// Runs block coordinate descent warm-started from an incumbent
    /// [`HashingSolution`] over the same element set (the re-training path:
    /// frequencies drifted, the universe did not).
    pub fn solve_warm(
        &self,
        problem: &HashingProblem,
        incumbent: &HashingSolution,
    ) -> HashingSolution {
        self.solve_from(problem, &incumbent.assignment)
    }

    fn clamp_warm(problem: &HashingProblem, initial: &[usize]) -> Vec<usize> {
        assert_eq!(
            initial.len(),
            problem.len(),
            "warm-start assignment must cover every element"
        );
        initial
            .iter()
            .map(|&j| j.min(problem.buckets - 1))
            .collect()
    }

    /// Runs the configured restarts (restart `r` seeds its RNG with
    /// `seed + r`); `warm` seeds restart 0. Restarts after the first may be
    /// EMA-aborted, and their leftover budget continues the incumbent's
    /// descent.
    fn solve_inner(
        &self,
        problem: &HashingProblem,
        mut warm: Option<Vec<usize>>,
    ) -> HashingSolution {
        assert!(!problem.is_empty(), "cannot solve an empty problem");
        let start = Instant::now();
        let warm_started = warm.is_some();
        let restarts = self.config.restarts.max(1);
        let mut best: Option<BestState> = None;
        let mut total_sweeps = 0usize;
        let mut moves_evaluated = 0u64;
        let mut restarts_aborted = 0usize;
        let mut budget_pool = 0usize;
        let mut time_to_best = Duration::ZERO;
        // Pairwise feature distances are assignment-independent: build them
        // once and share them across every restart of this solve.
        let pairs = (problem.uses_features() && problem.len() <= PAIR_CACHE_LIMIT)
            .then(|| PairwiseDistances::new(problem));

        for restart in 0..restarts {
            let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(restart as u64));
            let assignment = match warm.take() {
                // Restart 0 descends from the incumbent.
                Some(initial) => initial,
                None => random_assignment(problem, &mut rng),
            };
            let result = self.descend(
                problem,
                assignment,
                &mut rng,
                DescendControl {
                    max_sweeps: self.config.max_iterations,
                    abort_against: best.as_ref().map(|b| b.objective),
                    abort_after: self.config.abort_after,
                    pairs: pairs.as_ref(),
                },
            );
            total_sweeps += result.sweeps;
            moves_evaluated += result.moves_evaluated;
            if result.aborted {
                restarts_aborted += 1;
                budget_pool += self.config.max_iterations.saturating_sub(result.sweeps);
            }
            if best.as_ref().is_none_or(|b| result.objective < b.objective) {
                time_to_best = start.elapsed();
                best = Some(BestState {
                    assignment: result.assignment,
                    objective: result.objective,
                    trajectory: result.trajectory,
                    converged: result.converged,
                });
            }
        }

        // Reallocate the budget freed by aborted restarts to the incumbent:
        // if its descent ran out of sweeps before converging, let it continue.
        if budget_pool > 0 {
            if let Some(incumbent) = best.take() {
                if incumbent.converged {
                    best = Some(incumbent);
                } else {
                    let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x9e37_79b9_7f4a_7c15);
                    let result = self.descend(
                        problem,
                        incumbent.assignment,
                        &mut rng,
                        DescendControl {
                            max_sweeps: budget_pool,
                            abort_against: None,
                            abort_after: usize::MAX,
                            pairs: pairs.as_ref(),
                        },
                    );
                    total_sweeps += result.sweeps;
                    moves_evaluated += result.moves_evaluated;
                    let mut trajectory = incumbent.trajectory;
                    trajectory.extend_from_slice(&result.trajectory[1..]);
                    if result.objective < incumbent.objective {
                        time_to_best = start.elapsed();
                    }
                    best = Some(BestState {
                        assignment: result.assignment,
                        objective: result.objective,
                        trajectory,
                        converged: result.converged,
                    });
                }
            }
        }

        let best = best.expect("at least one restart runs");
        let stats = SolverStats {
            elapsed: start.elapsed(),
            iterations: total_sweeps,
            proven_optimal: false,
            restarts,
            initial_objective: best.trajectory.first().copied().unwrap_or(0.0),
            cost_trajectory: best.trajectory,
            warm_started,
            moves_evaluated,
            restarts_aborted,
            time_to_best,
        };
        problem.solution_from_assignment(best.assignment, stats)
    }

    /// One descent run from a given initial assignment.
    fn descend(
        &self,
        problem: &HashingProblem,
        assignment: Vec<usize>,
        rng: &mut StdRng,
        control: DescendControl<'_>,
    ) -> DescentResult {
        let n = problem.len();
        let mut inc = IncrementalObjective::with_pair_distances(problem, assignment, control.pairs);
        let mut objective = inc.objective();
        let mut trajectory = vec![objective];
        let mut order: Vec<usize> = (0..n).collect();
        let mut ema = Ema2::new(EMA_FAST_WINDOW, EMA_SLOW_WINDOW);
        let mut prev_improvement: Option<f64> = None;
        let mut sweeps = 0usize;
        let mut converged = false;
        let mut aborted = false;

        for sweep in 0..control.max_sweeps {
            order.shuffle(rng);
            for &i in &order {
                let (bucket, _delta) = inc.best_move(i);
                // Commit whenever the cheapest re-insertion bucket differs
                // from the current one — including zero-delta plateau moves,
                // which keep the sweep order's tie-breaking identical to the
                // classic remove-then-reinsert descent.
                if bucket != inc.assignment()[i] {
                    inc.commit(i, bucket);
                }
            }
            inc.debug_assert_consistent();
            let new_objective = inc.objective();
            let improvement = objective - new_objective;
            objective = new_objective;
            trajectory.push(objective);
            sweeps = sweep + 1;
            if improvement < self.config.tolerance {
                converged = true;
                break;
            }
            // Feed the EMA the sweep-over-sweep improvement decay ratio, not
            // the raw improvement: BCD improvements shrink roughly
            // geometrically, and a ratio EMA is responsive from the second
            // sweep while an absolute EMA stays poisoned by the huge first
            // sweep until long after the descent has converged.
            if let Some(prev) = prev_improvement {
                if prev > 0.0 {
                    ema.update((improvement / prev).clamp(0.0, 1.0));
                }
            }
            prev_improvement = Some(improvement);
            if let Some(best_known) = control.abort_against {
                // Predictive stagnation check: model the remaining descent as
                // a geometric series with the EMA-estimated decay ratio and
                // abort once even that projection cannot close the gap to the
                // incumbent. Requires at least one ratio sample (sweep ≥ 2).
                let ratio = ema.get();
                if sweeps >= control.abort_after.max(2) && ratio < 1.0 {
                    let projected = improvement * ratio / (1.0 - ratio);
                    if objective - best_known > projected {
                        aborted = true;
                        break;
                    }
                }
            }
        }

        DescentResult {
            moves_evaluated: inc.moves_evaluated(),
            assignment: inc.into_assignment(),
            objective,
            trajectory,
            sweeps,
            converged,
            aborted,
        }
    }
}

/// A uniformly random bucket for every element: the start of each restart
/// that has no incumbent.
fn random_assignment(problem: &HashingProblem, rng: &mut StdRng) -> Vec<usize> {
    (0..problem.len())
        .map(|_| rng.gen_range(0..problem.buckets))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmedian::solve_frequency_only;
    use opthash_stream::Features;

    fn clustered_problem(lambda: f64) -> HashingProblem {
        // Two frequency groups and two feature groups that coincide.
        let frequencies = vec![1.0, 2.0, 1.5, 100.0, 101.0, 99.0];
        let features = vec![
            Features::new(vec![0.0, 0.0]),
            Features::new(vec![0.2, 0.1]),
            Features::new(vec![0.1, 0.3]),
            Features::new(vec![10.0, 10.0]),
            Features::new(vec![10.2, 9.9]),
            Features::new(vec![9.8, 10.1]),
        ];
        HashingProblem::new(frequencies, features, 2, lambda)
    }

    #[test]
    fn recovers_obvious_two_cluster_structure() {
        for &lambda in &[0.0, 0.5, 1.0] {
            let p = clustered_problem(lambda);
            let sol = BcdSolver::with_defaults().solve(&p);
            assert_eq!(sol.assignment[0], sol.assignment[1]);
            assert_eq!(sol.assignment[1], sol.assignment[2]);
            assert_eq!(sol.assignment[3], sol.assignment[4]);
            assert_eq!(sol.assignment[4], sol.assignment[5]);
            assert_ne!(sol.assignment[0], sol.assignment[3], "lambda={lambda}");
        }
    }

    #[test]
    fn objective_never_worse_than_initial_assignment() {
        let p = clustered_problem(0.5);
        let solver = BcdSolver::with_defaults();
        // Restart 0 seeds its RNG with `seed + 0` and starts from this draw.
        let mut rng = StdRng::seed_from_u64(solver.config().seed);
        let init = random_assignment(&p, &mut rng);
        let init_obj = p.objective(&init);
        let sol = solver.solve(&p);
        assert!((sol.stats.initial_objective - init_obj).abs() < 1e-9);
        assert!(
            sol.objective <= init_obj + 1e-9,
            "bcd {} worse than init {init_obj}",
            sol.objective
        );
    }

    #[test]
    fn lambda_one_is_close_to_dp_optimum() {
        let frequencies: Vec<f64> = vec![
            1.0, 2.0, 3.0, 2.0, 1.0, 50.0, 52.0, 49.0, 51.0, 100.0, 101.0, 99.0, 10.0, 11.0, 9.0,
        ];
        let p = HashingProblem::frequency_only(frequencies, 4);
        let dp = solve_frequency_only(&p);
        let bcd = BcdSolver::new(BcdConfig {
            restarts: 5,
            ..BcdConfig::default()
        })
        .solve(&p);
        assert!(
            bcd.estimation_error <= dp.estimation_error * 1.10 + 1e-9,
            "bcd {} far above dp optimum {}",
            bcd.estimation_error,
            dp.estimation_error
        );
        assert!(bcd.estimation_error + 1e-9 >= dp.estimation_error * 0.9);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = clustered_problem(0.5);
        let cfg = BcdConfig {
            seed: 99,
            ..BcdConfig::default()
        };
        let a = BcdSolver::new(cfg).solve(&p);
        let b = BcdSolver::new(cfg).solve(&p);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.objective, b.objective);
    }

    #[test]
    fn multiple_restarts_never_hurt() {
        let p = clustered_problem(0.5);
        let single = BcdSolver::new(BcdConfig {
            restarts: 1,
            seed: 7,
            ..BcdConfig::default()
        })
        .solve(&p);
        let multi = BcdSolver::new(BcdConfig {
            restarts: 5,
            seed: 7,
            ..BcdConfig::default()
        })
        .solve(&p);
        assert!(multi.objective <= single.objective + 1e-9);
        assert_eq!(multi.stats.restarts, 5);
    }

    #[test]
    fn single_bucket_puts_everything_together() {
        let p = HashingProblem::frequency_only(vec![1.0, 5.0, 9.0], 1);
        let sol = BcdSolver::with_defaults().solve(&p);
        assert_eq!(sol.assignment, vec![0, 0, 0]);
        // est error = |1-5|+|5-5|+|9-5| = 8
        assert!((sol.estimation_error - 8.0).abs() < 1e-9);
    }

    #[test]
    fn solve_populates_trajectory_stats() {
        let p = clustered_problem(0.5);
        let sol = BcdSolver::with_defaults().solve(&p);
        assert!(!sol.stats.warm_started);
        // restarts = 1, so the winning trajectory accounts for every sweep.
        assert_eq!(sol.stats.cost_trajectory.len(), sol.stats.iterations + 1);
        assert_eq!(sol.stats.initial_objective, sol.stats.cost_trajectory[0]);
        assert!(sol.stats.moves_evaluated > 0);
        assert!(sol.stats.time_to_best <= sol.stats.elapsed);
        let last = *sol.stats.cost_trajectory.last().unwrap();
        assert!(
            (last - sol.objective).abs() < 1e-6,
            "trajectory end {last} vs objective {}",
            sol.objective
        );
        for pair in sol.stats.cost_trajectory.windows(2) {
            assert!(
                pair[1] <= pair[0] + 1e-9,
                "descent must not increase the objective"
            );
        }
    }

    #[test]
    fn solve_from_clamps_out_of_range_buckets() {
        let p = clustered_problem(0.5);
        let incumbent = vec![7usize; p.len()]; // solved for more buckets than p has
        let sol = BcdSolver::with_defaults().solve_from(&p, &incumbent);
        assert!(sol.stats.warm_started);
        assert!(sol.assignment.iter().all(|&j| j < p.buckets));
    }

    #[test]
    fn warm_start_from_optimum_converges_in_one_sweep() {
        let p = clustered_problem(1.0);
        let cold = BcdSolver::new(BcdConfig {
            restarts: 4,
            ..BcdConfig::default()
        })
        .solve(&p);
        let warm = BcdSolver::with_defaults().solve_warm(&p, &cold);
        assert!(warm.stats.warm_started);
        assert_eq!(warm.stats.iterations, 1, "no move should survive one sweep");
        assert!(warm.objective <= cold.objective + 1e-9);
        assert_eq!(warm.stats.initial_objective, cold.objective);
    }

    #[test]
    #[should_panic(expected = "cover every element")]
    fn solve_from_rejects_wrong_length() {
        let p = clustered_problem(0.5);
        let _ = BcdSolver::with_defaults().solve_from(&p, &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "empty problem")]
    fn empty_problem_panics() {
        let p = HashingProblem::frequency_only(vec![], 2);
        let _ = BcdSolver::with_defaults().solve(&p);
    }

    #[test]
    fn more_buckets_never_increase_optimal_objective() {
        let frequencies: Vec<f64> = vec![3.0, 8.0, 1.0, 9.0, 4.0, 7.0, 2.0, 6.0];
        let mut last = f64::INFINITY;
        for b in 1..=4 {
            let p = HashingProblem::frequency_only(frequencies.clone(), b);
            let sol = BcdSolver::new(BcdConfig {
                restarts: 8,
                ..BcdConfig::default()
            })
            .solve(&p);
            assert!(
                sol.objective <= last + 1e-9,
                "objective should not grow with more buckets"
            );
            last = sol.objective;
        }
    }

    /// A larger random instance where stragglers exist, so the EMA abort has
    /// something to cut.
    fn noisy_problem(n: usize, b: usize, seed: u64) -> HashingProblem {
        let mut state = seed.max(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64
        };
        HashingProblem::frequency_only((0..n).map(|_| next()).collect(), b)
    }

    /// Like [`noisy_problem`] but with a similarity term. Feature distances
    /// are continuous, so descents improve in long shrinking tails — exactly
    /// the regime the predictive abort is designed to cut short (pure
    /// frequency instances converge too abruptly to ever look hopeless).
    fn noisy_feature_problem(n: usize, b: usize, lambda: f64, seed: u64) -> HashingProblem {
        let mut state = seed.max(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64
        };
        let frequencies: Vec<f64> = (0..n).map(|_| next()).collect();
        let features: Vec<Features> = (0..n)
            .map(|_| Features::new(vec![next() / 50.0, next() / 50.0]))
            .collect();
        HashingProblem::new(frequencies, features, b, lambda)
    }

    #[test]
    fn ema_abort_is_recorded_and_never_hurts_the_incumbent() {
        let p = noisy_feature_problem(150, 8, 0.5, 11);
        let eager = BcdSolver::new(BcdConfig {
            restarts: 8,
            abort_after: 1,
            seed: 3,
            ..BcdConfig::default()
        })
        .solve(&p);
        let patient = BcdSolver::new(BcdConfig {
            restarts: 1,
            seed: 3,
            ..BcdConfig::default()
        })
        .solve(&p);
        // Restart 0 never aborts, so the multi-start run keeps its result.
        assert!(eager.objective <= patient.objective + 1e-9);
        assert!(
            eager.stats.restarts_aborted > 0,
            "abort_after=1 on 8 restarts should cut at least one straggler"
        );
        // Aborted restarts must free budget: fewer sweeps than the full run.
        let full = BcdSolver::new(BcdConfig {
            restarts: 8,
            seed: 3,
            abort_after: usize::MAX,
            ..BcdConfig::default()
        })
        .solve(&p);
        assert_eq!(full.stats.restarts_aborted, 0);
        assert!(eager.stats.iterations <= full.stats.iterations);
    }

    #[test]
    fn disabled_aborts_run_every_restart_to_convergence() {
        let p = noisy_problem(80, 4, 5);
        let sol = BcdSolver::new(BcdConfig {
            restarts: 6,
            ..BcdConfig::default().without_aborts()
        })
        .solve(&p);
        assert_eq!(sol.stats.restarts_aborted, 0);
    }
}
