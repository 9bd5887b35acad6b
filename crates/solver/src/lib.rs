//! # opthash-solver
//!
//! Optimization algorithms that learn the optimal hashing scheme of
//! Section 4 of the paper. Given the observed prefix frequencies `f⁰`, the
//! element features `x`, a bucket count `b` and the trade-off weight `λ`,
//! these solvers produce an assignment of the `n` prefix elements to the `b`
//! buckets minimizing
//!
//! ```text
//! λ · Σ_j Σ_{i∈I_j} |f⁰_i − μ_j|                (estimation error)
//! + (1−λ) · Σ_j Σ_{(i,k)∈I_j×I_j} ‖x_i − x_k‖₂  (similarity error)
//! ```
//!
//! The solvers mirror the paper's `milp` / `bcd` / `dp`:
//!
//! * [`kmedian`] — exact dynamic programming for the `λ = 1` special case
//!   (Problem (3)): a pruned `O(n²b)` table over the sorted frequencies that
//!   minimizes each bucket's absolute deviation from its mean, plus the
//!   exact shortcut [`kmedian::solve_equal_counts`]: when the prefix holds
//!   no more distinct frequencies than buckets, equal counts share a bucket,
//!   the optimum is 0, and one sort replaces the table,
//! * [`bcd`] — the block coordinate descent heuristic of Algorithm 1 with
//!   incremental bucket statistics and random restarts,
//! * [`exact`] — an exact branch-and-bound solver for the general `λ` case,
//!   the workspace's substitute for solving the MILP reformulation
//!   (Problem (2)) with Gurobi; it returns the same optimal assignment for
//!   the instance sizes the paper uses the MILP on,
//! * [`brute`] — exhaustive enumeration for very small instances, used to
//!   validate the other solvers in tests.
//!
//! Supporting modules: [`incremental`] maintains the Problem (1) objective
//! under single-element moves with O(log m) evaluation, and [`progress`]
//! provides the calibrated exponential moving averages the BCD solver uses
//! to abort stagnating restarts early.
//!
//! ```
//! use opthash_solver::kmedian::kmedian_dp;
//!
//! // Two obvious frequency groups: the DP isolates them exactly.
//! let frequencies = [100.0, 1.0, 101.0, 2.0];
//! let result = kmedian_dp(&frequencies, 2);
//! assert_eq!(result.assignment[0], result.assignment[2]);
//! assert_eq!(result.assignment[1], result.assignment[3]);
//! assert_ne!(result.assignment[0], result.assignment[1]);
//! assert!((result.cost - 2.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bcd;
pub mod brute;
pub mod exact;
pub mod incremental;
pub mod kmedian;
pub mod problem;
pub mod progress;

pub use bcd::{BcdConfig, BcdSolver};
pub use brute::brute_force;
pub use exact::{ExactConfig, ExactSolver};
pub use incremental::{IncrementalObjective, PairwiseDistances};
pub use kmedian::{kmedian_dp, KMedianResult};
pub use problem::{HashingProblem, HashingSolution, SolverStats};
pub use progress::{Ema, Ema2};
