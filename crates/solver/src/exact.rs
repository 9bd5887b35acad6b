//! Exact solver for the general `λ` case (the paper's `milp`).
//!
//! The paper solves Problem (1) to optimality by linearizing it into the
//! mixed-integer linear program of Theorem 1 and handing it to Gurobi. This
//! workspace has no commercial MILP solver, so we solve the *same* problem
//! exactly with a specialized branch-and-bound over element→bucket
//! assignments:
//!
//! * elements are branched on in decreasing order of observed frequency,
//! * a canonical-labeling rule (an element may only open the first unused
//!   bucket) removes bucket-relabeling symmetry, which is the main reason the
//!   naive formulation explodes,
//! * the incumbent is initialized with a multi-start run of the block
//!   coordinate descent heuristic (exactly the warm start the paper suggests
//!   feeding Gurobi),
//! * partial assignments are pruned with the bound
//!   `λ·Σ_j meddev(I_j) + (1−λ)·Σ_j pairdist(I_j)`, where `meddev` is the
//!   absolute deviation from the bucket *median*. Both terms can only grow as
//!   elements are added (the median minimizes absolute deviation, and adding
//!   an element never removes existing pairs), and the final mean-based
//!   estimation error dominates the median-based one, so the bound is valid.
//!
//! Because the returned assignment minimizes the identical objective, it
//! coincides with what the MILP would return (up to ties); the experiments
//! that compare `milp` against `bcd`/`dp` (Figure 2) exercise this solver.

use crate::bcd::{BcdConfig, BcdSolver};
use crate::problem::{HashingProblem, HashingSolution, SolverStats};
use opthash_stream::Features;
use std::time::{Duration, Instant};

/// Configuration of the exact branch-and-bound solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactConfig {
    /// Hard cap on the number of search nodes explored; the best incumbent is
    /// returned (flagged as not proven optimal) if the cap is hit.
    pub max_nodes: usize,
    /// Wall-clock limit; same fallback behaviour as `max_nodes`.
    pub time_limit: Duration,
    /// Number of BCD restarts used to build the initial incumbent.
    pub warm_start_restarts: usize,
    /// RNG seed for the warm start.
    pub seed: u64,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            max_nodes: 5_000_000,
            time_limit: Duration::from_secs(60),
            warm_start_restarts: 3,
            seed: 0,
        }
    }
}

/// Exact branch-and-bound solver.
#[derive(Debug, Clone, Default)]
pub struct ExactSolver {
    config: ExactConfig,
}

/// Mutable search state for one bucket.
#[derive(Debug, Clone)]
struct BucketState {
    /// Member element indices.
    members: Vec<usize>,
    /// Member frequencies kept sorted ascending (for the median bound).
    sorted_freqs: Vec<f64>,
    /// Σ pairwise distances over ordered pairs of members.
    similarity: f64,
    /// Median absolute deviation bound of the current members.
    median_dev: f64,
}

impl BucketState {
    fn new() -> Self {
        BucketState {
            members: Vec::new(),
            sorted_freqs: Vec::new(),
            similarity: 0.0,
            median_dev: 0.0,
        }
    }

    fn median_deviation(sorted: &[f64]) -> f64 {
        if sorted.len() < 2 {
            return 0.0;
        }
        let median = sorted[(sorted.len() - 1) / 2];
        sorted.iter().map(|v| (v - median).abs()).sum()
    }

    /// Pushes element `i`, returning the data needed to undo the push.
    fn push(&mut self, i: usize, freq: f64, dist_to_members: f64) -> f64 {
        let old_median_dev = self.median_dev;
        self.members.push(i);
        let pos = self.sorted_freqs.partition_point(|&v| v <= freq);
        self.sorted_freqs.insert(pos, freq);
        self.similarity += 2.0 * dist_to_members;
        self.median_dev = Self::median_deviation(&self.sorted_freqs);
        old_median_dev
    }

    fn pop(&mut self, freq: f64, dist_to_members: f64, old_median_dev: f64) {
        self.members.pop();
        let pos = self.sorted_freqs.partition_point(|&v| v < freq);
        // `pos` points at the first entry == freq (all entries are >= freq
        // from here); remove one occurrence.
        debug_assert!((self.sorted_freqs[pos] - freq).abs() < 1e-12);
        self.sorted_freqs.remove(pos);
        self.similarity -= 2.0 * dist_to_members;
        if self.similarity < 0.0 {
            self.similarity = 0.0;
        }
        self.median_dev = old_median_dev;
    }
}

impl ExactSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: ExactConfig) -> Self {
        ExactSolver { config }
    }

    /// Creates a solver with default limits.
    pub fn with_defaults() -> Self {
        Self::new(ExactConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> &ExactConfig {
        &self.config
    }

    /// Solves the problem to optimality (or returns the best incumbent if a
    /// limit is hit; check `stats.proven_optimal`).
    pub fn solve(&self, problem: &HashingProblem) -> HashingSolution {
        assert!(!problem.is_empty(), "cannot solve an empty problem");
        let start = Instant::now();
        let n = problem.len();
        let b = problem.buckets.min(n);
        let lambda = problem.lambda;
        let features: &[Features] = if problem.uses_features() {
            &problem.features
        } else {
            &[]
        };

        // Warm start: multi-start BCD gives the initial incumbent.
        let warm = BcdSolver::new(BcdConfig {
            restarts: self.config.warm_start_restarts.max(1),
            seed: self.config.seed,
            ..BcdConfig::default()
        })
        .solve(problem);
        let mut incumbent_assignment = warm.assignment.clone();
        let mut incumbent_objective = warm.objective;
        let warm_moves = warm.stats.moves_evaluated;
        let mut time_to_best = start.elapsed();

        // Branch on elements in decreasing frequency order: heavy elements
        // constrain the buckets the most, so deciding them early prunes best.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&x, &y| {
            problem.frequencies[y]
                .partial_cmp(&problem.frequencies[x])
                .unwrap()
        });

        let mut buckets: Vec<BucketState> = (0..b).map(|_| BucketState::new()).collect();
        let mut partial = vec![usize::MAX; n];
        let mut nodes = 0usize;
        let mut exhausted = true;

        // Iterative DFS with an explicit stack of (depth, next bucket to try).
        // depth d means elements order[0..d] are assigned.
        struct Frame {
            /// Next bucket index to try at this depth.
            next_bucket: usize,
            /// Number of buckets opened before this depth.
            used_before: usize,
            /// Undo information for the currently applied choice, if any.
            applied: Option<(usize, f64, f64)>, // (bucket, dist, old_median_dev)
        }
        let mut stack: Vec<Frame> = vec![Frame {
            next_bucket: 0,
            used_before: 0,
            applied: None,
        }];

        'search: while let Some(top) = stack.len().checked_sub(1) {
            if nodes >= self.config.max_nodes || start.elapsed() >= self.config.time_limit {
                exhausted = false;
                // Undo everything still applied before leaving.
                while let Some(frame) = stack.pop() {
                    if let Some((j, dist, old_dev)) = frame.applied {
                        let depth = stack.len();
                        let element = order[depth];
                        buckets[j].pop(problem.frequencies[element], dist, old_dev);
                        partial[element] = usize::MAX;
                    }
                }
                break 'search;
            }

            let depth = top;
            let element = order[depth];
            let freq = problem.frequencies[element];

            // Undo the previously applied choice at this depth, if any.
            if let Some((j, dist, old_dev)) = stack[top].applied.take() {
                buckets[j].pop(freq, dist, old_dev);
                partial[element] = usize::MAX;
            }

            // Find the next admissible bucket at this depth.
            let used = stack[top].used_before;
            let allowed_limit = used.min(b - 1); // buckets 0..=used (first unused) are admissible
            let mut chosen: Option<usize> = None;
            while stack[top].next_bucket <= allowed_limit {
                let j = stack[top].next_bucket;
                stack[top].next_bucket += 1;
                // Tentatively compute the bound with `element` in bucket j.
                let dist = if features.is_empty() {
                    0.0
                } else {
                    buckets[j]
                        .members
                        .iter()
                        .map(|&m| features[element].l2_distance(&features[m]))
                        .sum()
                };
                let old_dev = buckets[j].push(element, freq, dist);
                nodes += 1;
                let bound: f64 = buckets
                    .iter()
                    .map(|bk| lambda * bk.median_dev + (1.0 - lambda) * bk.similarity)
                    .sum();
                if bound < incumbent_objective - 1e-9 {
                    chosen = Some(j);
                    stack[top].applied = Some((j, dist, old_dev));
                    partial[element] = j;
                    break;
                }
                // Prune: undo and try the next bucket.
                buckets[j].pop(freq, dist, old_dev);
            }

            match chosen {
                None => {
                    // No admissible bucket left at this depth: backtrack.
                    stack.pop();
                    continue 'search;
                }
                Some(j) => {
                    if depth + 1 == n {
                        // Complete assignment: evaluate the true (mean-based)
                        // objective and update the incumbent.
                        let objective = problem.objective(&partial);
                        if objective < incumbent_objective {
                            incumbent_objective = objective;
                            incumbent_assignment.clone_from(&partial);
                            time_to_best = start.elapsed();
                        }
                        // Stay at this depth; the loop will undo and try the
                        // next bucket for this element.
                        continue 'search;
                    }
                    let used_after = stack[top].used_before.max(j + 1);
                    stack.push(Frame {
                        next_bucket: 0,
                        used_before: used_after,
                        applied: None,
                    });
                }
            }
        }

        let stats = SolverStats {
            elapsed: start.elapsed(),
            iterations: nodes,
            proven_optimal: exhausted,
            restarts: self.config.warm_start_restarts,
            moves_evaluated: warm_moves + nodes as u64,
            time_to_best,
            ..SolverStats::default()
        };
        problem.solution_from_assignment(incumbent_assignment, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force;
    use opthash_stream::Features;

    fn random_problem(n: usize, b: usize, lambda: f64, seed: u64) -> HashingProblem {
        let mut state = seed.max(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 100) as f64
        };
        let frequencies: Vec<f64> = (0..n).map(|_| next()).collect();
        let features: Vec<Features> = (0..n)
            .map(|_| Features::new(vec![next() / 10.0, next() / 10.0]))
            .collect();
        HashingProblem::new(frequencies, features, b, lambda)
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        for seed in 0..6u64 {
            for &lambda in &[0.0, 0.5, 1.0] {
                let p = random_problem(7, 3, lambda, seed + 1);
                let exact = ExactSolver::with_defaults().solve(&p);
                let brute = brute_force(&p);
                assert!(
                    (exact.objective - brute.objective).abs() < 1e-6,
                    "seed {seed} lambda {lambda}: exact {} vs brute {}",
                    exact.objective,
                    brute.objective
                );
                assert!(exact.stats.proven_optimal);
            }
        }
    }

    #[test]
    fn never_worse_than_bcd_warm_start() {
        let p = random_problem(20, 4, 0.6, 9);
        let exact = ExactSolver::new(ExactConfig {
            max_nodes: 200_000,
            ..ExactConfig::default()
        })
        .solve(&p);
        let bcd = BcdSolver::new(BcdConfig {
            restarts: 3,
            seed: 0,
            ..BcdConfig::default()
        })
        .solve(&p);
        assert!(exact.objective <= bcd.objective + 1e-9);
    }

    #[test]
    fn separates_obvious_clusters_optimally() {
        let p = HashingProblem::frequency_only(vec![1.0, 1.0, 2.0, 100.0, 101.0, 100.0], 2);
        let sol = ExactSolver::with_defaults().solve(&p);
        assert_eq!(sol.assignment[0], sol.assignment[1]);
        assert_eq!(sol.assignment[0], sol.assignment[2]);
        assert_eq!(sol.assignment[3], sol.assignment[5]);
        assert_ne!(sol.assignment[0], sol.assignment[3]);
        assert!(sol.stats.proven_optimal);
    }

    #[test]
    fn node_limit_returns_incumbent_without_optimality_claim() {
        let p = random_problem(30, 5, 0.5, 4);
        let sol = ExactSolver::new(ExactConfig {
            max_nodes: 50,
            warm_start_restarts: 1,
            ..ExactConfig::default()
        })
        .solve(&p);
        assert!(!sol.stats.proven_optimal);
        assert_eq!(sol.assignment.len(), 30);
        // still a valid assignment
        assert!(sol.assignment.iter().all(|&j| j < 5));
    }

    #[test]
    fn single_bucket_trivial() {
        let p = HashingProblem::frequency_only(vec![3.0, 9.0], 1);
        let sol = ExactSolver::with_defaults().solve(&p);
        assert_eq!(sol.assignment, vec![0, 0]);
        assert!(sol.stats.proven_optimal);
    }

    #[test]
    fn respects_lambda_zero_feature_clustering() {
        let p = HashingProblem::new(
            vec![7.0, 7.0, 7.0, 7.0],
            vec![
                Features::new(vec![0.0]),
                Features::new(vec![5.0]),
                Features::new(vec![0.2]),
                Features::new(vec![5.2]),
            ],
            2,
            0.0,
        );
        let sol = ExactSolver::with_defaults().solve(&p);
        assert_eq!(sol.assignment[0], sol.assignment[2]);
        assert_eq!(sol.assignment[1], sol.assignment[3]);
        assert_ne!(sol.assignment[0], sol.assignment[1]);
    }

    #[test]
    #[should_panic(expected = "empty problem")]
    fn empty_problem_panics() {
        let p = HashingProblem::frequency_only(vec![], 2);
        let _ = ExactSolver::with_defaults().solve(&p);
    }
}
