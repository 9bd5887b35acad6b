//! Exact dynamic programming for the `λ = 1` case (Problem (3)).
//!
//! With `λ = 1` the hashing objective reduces to partitioning the observed
//! frequencies into `b` groups so that the within-group absolute deviation
//! from the group's **mean** — the estimation-error term of Problem (1) — is
//! minimized, a one-dimensional clustering problem (Section 4.4). The DP
//! runs over sorted prefixes, so it is exact over partitions that are
//! contiguous in sorted order (ties may still split between groups).
//!
//! [`kmedian_dp`] is the `O(n²·b)` table, pruned by the monotonicity of the
//! prefix costs. [`solve_equal_counts`] is the exact case that needs no
//! table: when there are no more distinct values than clusters, equal values
//! share a cluster at zero cost, and one stable sort reproduces the DP's
//! assignment.

use crate::problem::{HashingProblem, HashingSolution, SolverStats};
use std::time::Instant;

/// Result of the clustering DP.
#[derive(Debug, Clone)]
pub struct KMedianResult {
    /// Cluster index of each input value, in the original input order.
    /// Clusters are numbered by increasing value range.
    pub assignment: Vec<usize>,
    /// Optimal total within-cluster deviation from the cluster means.
    pub cost: f64,
    /// Number of clusters used: always `min(k, n)`, since every cluster of
    /// the DP holds at least one value.
    pub clusters_used: usize,
    /// DP cells evaluated (candidate `(split, prefix)` pairs scored). The
    /// monotonicity pruning shows up directly in this counter.
    pub cells_evaluated: u64,
}

/// Precomputed prefix sums over the sorted values, giving range costs in
/// `O(log n)`.
struct RangeCost<'a> {
    sorted: &'a [f64],
    prefix: Vec<f64>,
}

impl<'a> RangeCost<'a> {
    fn new(sorted: &'a [f64]) -> Self {
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        prefix.push(0.0);
        for &v in sorted {
            prefix.push(prefix.last().unwrap() + v);
        }
        RangeCost { sorted, prefix }
    }

    #[inline]
    fn range_sum(&self, l: usize, r: usize) -> f64 {
        // inclusive l..=r
        self.prefix[r + 1] - self.prefix[l]
    }

    /// Total absolute deviation of the sorted slice `l..=r` from its mean.
    fn range_cost(&self, l: usize, r: usize) -> f64 {
        if l >= r {
            return 0.0;
        }
        let count = (r - l + 1) as f64;
        let mean = self.range_sum(l, r) / count;
        // Values are sorted: find the first index > mean by binary search
        // within [l, r].
        let slice = &self.sorted[l..=r];
        let split = slice.partition_point(|&v| v <= mean);
        let below = split as f64;
        let above = count - below;
        let below_sum = if split == 0 {
            0.0
        } else {
            self.range_sum(l, l + split - 1)
        };
        let above_sum = self.range_sum(l, r) - below_sum;
        (mean * below - below_sum) + (above_sum - mean * above)
    }
}

/// Partitions `values` into `min(k, n)` clusters, contiguous in sorted
/// order, minimizing the total absolute deviation from the cluster means.
///
/// `values` may be in any order; the returned assignment is reported in the
/// same order. `k` is clamped to `values.len()`; `k = 0` is rejected.
pub fn kmedian_dp(values: &[f64], k: usize) -> KMedianResult {
    assert!(k > 0, "k must be positive");
    assert!(
        values.iter().all(|v| v.is_finite()),
        "values must be finite"
    );
    let n = values.len();
    if n == 0 {
        return KMedianResult {
            assignment: Vec::new(),
            cost: 0.0,
            clusters_used: 0,
            cells_evaluated: 0,
        };
    }
    let k = k.min(n);

    // Sort, remembering the original positions.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).unwrap());
    let sorted: Vec<f64> = order.iter().map(|&i| values[i]).collect();
    let rc = RangeCost::new(&sorted);

    // dp[i] = optimal cost of clustering sorted[0..=i] with the current
    // number of clusters; split[j·n + i] = last cluster's start for
    // backtracking (one flat allocation instead of a Vec per cluster row).
    let mut dp_prev: Vec<f64> = (0..n).map(|i| rc.range_cost(0, i)).collect();
    let mut dp_cur = vec![0.0f64; n];
    let mut split = vec![0usize; k * n];
    let mut cells = n as u64;

    for j in 1..k {
        let split_row = &mut split[j * n..(j + 1) * n];
        for i in 0..n {
            if i < j {
                // fewer points than clusters: zero cost, each its own
                dp_cur[i] = 0.0;
                split_row[i] = i;
                continue;
            }
            let mut best = f64::INFINITY;
            let mut best_m = j;
            // dp_prev is non-decreasing in the prefix length (adding the
            // largest element of a sorted prefix never lowers the optimal
            // cost), so once dp_prev[m−1] alone reaches the best candidate
            // no later split can win.
            for m in j..=i {
                if dp_prev[m - 1] >= best {
                    break;
                }
                cells += 1;
                let c = dp_prev[m - 1] + rc.range_cost(m, i);
                if c < best {
                    best = c;
                    best_m = m;
                }
            }
            dp_cur[i] = best;
            split_row[i] = best_m;
        }
        std::mem::swap(&mut dp_prev, &mut dp_cur);
    }

    // Backtrack cluster boundaries from split[k-1][n-1].
    let mut boundaries = Vec::with_capacity(k);
    let mut end = n - 1;
    let mut j = k - 1;
    loop {
        let start = split[j * n + end].min(end);
        boundaries.push((start, end));
        if j == 0 || start == 0 {
            break;
        }
        end = start - 1;
        j -= 1;
    }
    boundaries.reverse();

    // Map sorted positions to cluster indices, then back to input order.
    let mut cluster_of_sorted = vec![0usize; n];
    for (cluster, &(s, e)) in boundaries.iter().enumerate() {
        cluster_of_sorted[s..=e].fill(cluster);
    }
    let mut assignment = vec![0usize; n];
    for (pos, &orig) in order.iter().enumerate() {
        assignment[orig] = cluster_of_sorted[pos];
    }

    KMedianResult {
        assignment,
        cost: dp_prev[n - 1],
        clusters_used: boundaries.len(),
        cells_evaluated: cells,
    }
}

/// Solves a [`HashingProblem`] with `λ = 1` (or ignoring features) using the
/// DP and wraps the result as a [`HashingSolution`], the form the rest of the
/// workspace consumes. This is the paper's `dp` solver.
///
/// [`kmedian_dp`] minimizes exactly the estimation-error term of
/// Problem (1) over contiguous partitions of the sorted frequencies.
/// Instances with no more distinct frequencies than buckets skip the table:
/// [`solve_equal_counts`] returns the same assignment after one sort.
pub fn solve_frequency_only(problem: &HashingProblem) -> HashingSolution {
    if let Some(solution) = solve_equal_counts(problem) {
        return solution;
    }
    let start = Instant::now();
    let result = kmedian_dp(&problem.frequencies, problem.buckets);
    let stats = SolverStats {
        elapsed: start.elapsed(),
        iterations: result.cells_evaluated as usize,
        proven_optimal: true,
        restarts: 0,
        moves_evaluated: result.cells_evaluated,
        time_to_best: start.elapsed(),
        ..SolverStats::default()
    };
    problem.solution_from_assignment(result.assignment, stats)
}

/// Exact shortcut for frequency-only problems whose prefix holds `d ≤ b`
/// distinct frequencies: equal counts share a bucket at zero estimation
/// error, so the optimum is 0 and costs one stable sort instead of a DP
/// table.
///
/// Returns `None` when the similarity term is active
/// ([`HashingProblem::uses_features`]) or when `d > b`. Grouping equal counts
/// is not exact there: the mean-deviation optimum may split a tie (see the
/// `mean_abs_optimum_can_split_ties` test), so those instances need the DP.
///
/// The assignment is the one [`kmedian_dp`] returns on integer counts, bit
/// for bit. That DP keeps the first minimizing split, so it uses all `k = min(b, n)` buckets and peels
/// singletons off the lowest counts. In stable frequency order, with `p` the
/// smallest cut such that `p` plus the number of distinct values among
/// positions `p..n` reaches `k`:
///
/// * positions `0..p` get singleton buckets `0..p`;
/// * the remaining positions get one bucket per value, numbered upward from
///   `p`.
///
/// ```
/// use opthash_solver::kmedian::solve_equal_counts;
/// use opthash_solver::HashingProblem;
///
/// // Two distinct counts, three buckets: one 1 is peeled off as a singleton.
/// let problem = HashingProblem::frequency_only(vec![5.0, 1.0, 1.0, 5.0, 1.0], 3);
/// let solution = solve_equal_counts(&problem).expect("d = 2 <= b = 3");
/// assert_eq!(solution.assignment, vec![2, 0, 1, 2, 1]);
/// assert_eq!(solution.objective, 0.0);
/// assert!(solution.stats.proven_optimal);
///
/// // Three distinct counts do not fit two buckets.
/// let tight = HashingProblem::frequency_only(vec![1.0, 2.0, 3.0], 2);
/// assert!(solve_equal_counts(&tight).is_none());
/// ```
pub fn solve_equal_counts(problem: &HashingProblem) -> Option<HashingSolution> {
    if problem.uses_features() {
        return None;
    }
    let start = Instant::now();
    let values = &problem.frequencies;
    let n = values.len();
    // The same stable order the DP sorts into, so ties break identically.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .expect("frequencies are finite")
    });
    let last_of_value = |pos: usize| pos + 1 == n || values[order[pos + 1]] != values[order[pos]];
    let distinct = (0..n).filter(|&pos| last_of_value(pos)).count();
    if distinct > problem.buckets {
        return None;
    }

    let k = problem.buckets.min(n);
    let mut assignment = vec![0usize; n];
    let mut bucket = 0usize;
    // Distinct values among sorted positions `pos..n`.
    let mut remaining = distinct;
    for (pos, &i) in order.iter().enumerate() {
        assignment[i] = bucket;
        // A bucket closes at the last position of its value, and at every
        // position before the cut `p`. `pos + remaining` grows by at most one
        // per position, so it first reaches `k` exactly at `p`.
        if last_of_value(pos) {
            remaining -= 1;
            bucket += 1;
        } else if pos + remaining < k {
            bucket += 1;
        }
    }
    debug_assert_eq!(bucket, k, "every one of the min(b, n) buckets is used");

    let stats = SolverStats {
        elapsed: start.elapsed(),
        proven_optimal: true,
        time_to_best: start.elapsed(),
        ..SolverStats::default()
    };
    Some(problem.solution_from_assignment(assignment, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use opthash_stream::Features;

    /// Brute-force optimal contiguous partition cost for validation.
    fn brute_contiguous(values: &[f64], k: usize) -> f64 {
        let n = values.len();
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rc = RangeCost::new(&sorted);
        // enumerate all ways to place k-1 boundaries
        fn rec(rc: &RangeCost<'_>, start: usize, n: usize, clusters_left: usize) -> f64 {
            if start == n {
                return 0.0;
            }
            if clusters_left == 1 {
                return rc.range_cost(start, n - 1);
            }
            let mut best = f64::INFINITY;
            for end in start..n {
                let c = rc.range_cost(start, end) + rec(rc, end + 1, n, clusters_left - 1);
                if c < best {
                    best = c;
                }
            }
            best
        }
        rec(&rc, 0, n, k.min(n))
    }

    fn eval_assignment(values: &[f64], assignment: &[usize], k: usize) -> f64 {
        let mut total = 0.0;
        for j in 0..k {
            let members: Vec<f64> = assignment
                .iter()
                .zip(values)
                .filter(|(&a, _)| a == j)
                .map(|(_, &v)| v)
                .collect();
            if members.is_empty() {
                continue;
            }
            let mean = members.iter().sum::<f64>() / members.len() as f64;
            total += members.iter().map(|v| (v - mean).abs()).sum::<f64>();
        }
        total
    }

    #[test]
    fn trivial_cases() {
        let r = kmedian_dp(&[], 3);
        assert!(r.assignment.is_empty());
        assert_eq!(r.cost, 0.0);

        let r = kmedian_dp(&[5.0], 3);
        assert_eq!(r.assignment, vec![0]);
        assert_eq!(r.cost, 0.0);

        // k >= n: every element its own cluster, zero cost
        let r = kmedian_dp(&[3.0, 1.0, 2.0], 5);
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.clusters_used, 3);
    }

    #[test]
    fn two_well_separated_groups() {
        let values = [1.0, 2.0, 1.5, 100.0, 101.0, 99.5];
        let r = kmedian_dp(&values, 2);
        // elements 0,1,2 together and 3,4,5 together
        assert_eq!(r.assignment[0], r.assignment[1]);
        assert_eq!(r.assignment[1], r.assignment[2]);
        assert_eq!(r.assignment[3], r.assignment[4]);
        assert_eq!(r.assignment[4], r.assignment[5]);
        assert_ne!(r.assignment[0], r.assignment[3]);
        // means 1.5 and 100 + 1/6: cost = (0.5 + 0.5 + 0) + (1/6 + 5/6 + 2/3)
        assert!((r.cost - (1.0 + 5.0 / 3.0)).abs() < 1e-9, "cost {}", r.cost);
    }

    #[test]
    fn dp_matches_brute_force_contiguous_mean() {
        let cases: Vec<(Vec<f64>, usize)> = vec![
            (vec![1.0, 7.0, 3.0, 9.0, 2.0, 8.0], 2),
            (vec![4.0, 4.5, 100.0, 101.0, 5.0], 2),
            (vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3),
            (vec![1.0, 7.0, 3.0, 9.0, 2.0, 8.0, 2.5], 3),
            (vec![10.0, 10.0, 10.0, 1.0], 2),
            (vec![5.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0], 4),
            (vec![0.0, 0.0, 0.0, 0.0], 2),
            (
                vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0],
                5,
            ),
        ];
        for (values, k) in cases {
            let expected = brute_contiguous(&values, k);
            let r = kmedian_dp(&values, k);
            assert!(
                (r.cost - expected).abs() < 1e-9,
                "cost {} vs brute {expected} on {values:?} k={k}",
                r.cost
            );
            // reported cost must equal the cost of the reported assignment
            let eval = eval_assignment(&values, &r.assignment, k);
            assert!((eval - r.cost).abs() < 1e-9, "assignment cost mismatch");
        }
    }

    #[test]
    fn clusters_are_contiguous_in_value_order() {
        let values = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0];
        let r = kmedian_dp(&values, 3);
        // For each pair of clusters, the max of the lower-indexed cluster must
        // be <= the min of the higher (clusters numbered by value range).
        for a in 0..3 {
            for b in (a + 1)..3 {
                let max_a = values
                    .iter()
                    .zip(&r.assignment)
                    .filter(|(_, &c)| c == a)
                    .map(|(&v, _)| v)
                    .fold(f64::NEG_INFINITY, f64::max);
                let min_b = values
                    .iter()
                    .zip(&r.assignment)
                    .filter(|(_, &c)| c == b)
                    .map(|(&v, _)| v)
                    .fold(f64::INFINITY, f64::min);
                assert!(max_a <= min_b, "clusters {a} and {b} overlap");
            }
        }
    }

    #[test]
    fn solve_frequency_only_wraps_into_solution() {
        let p = HashingProblem::frequency_only(vec![1.0, 1.0, 50.0, 52.0], 2);
        let sol = solve_frequency_only(&p);
        assert!(sol.stats.proven_optimal);
        assert_eq!(sol.assignment[0], sol.assignment[1]);
        assert_eq!(sol.assignment[2], sol.assignment[3]);
        assert_ne!(sol.assignment[0], sol.assignment[2]);
        assert!((sol.estimation_error - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = kmedian_dp(&[1.0], 0);
    }

    #[test]
    fn handles_duplicate_heavy_values() {
        let values = vec![100.0; 50];
        let r = kmedian_dp(&values, 10);
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn pruned_quadratic_stays_exact_and_skips_cells() {
        let mut state = 7u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 10_000) as f64 / 100.0
        };
        for trial in 0..15 {
            let n = 20 + (trial % 40);
            let values: Vec<f64> = (0..n).map(|_| next()).collect();
            let k = 2 + (trial % 6);
            let r = kmedian_dp(&values, k);
            let expected = brute_contiguous(&values, k);
            assert!(
                (r.cost - expected).abs() < 1e-9,
                "trial {trial}: pruned {} vs brute {expected}",
                r.cost
            );
            // The monotonicity break must never evaluate more cells than the
            // unpruned quadratic table holds.
            let unpruned = (n as u64) * (n as u64) * (k as u64);
            assert!(r.cells_evaluated > 0);
            assert!(
                r.cells_evaluated <= unpruned,
                "evaluated {} cells, unpruned bound {unpruned}",
                r.cells_evaluated
            );
        }
    }

    #[test]
    fn solve_frequency_only_takes_the_shortcut_only_when_it_applies() {
        // d = 3 <= b = 6: one sort, no DP cell scored, the DP's assignment.
        let values = vec![4.0, 4.0, 1.0, 9.0, 1.0, 4.0, 9.0, 9.0];
        let fits = HashingProblem::frequency_only(values.clone(), 6);
        let solved = solve_frequency_only(&fits);
        let dp = kmedian_dp(&values, 6);
        assert_eq!(solved.assignment, dp.assignment);
        assert_eq!(solved.stats.moves_evaluated, 0);
        assert!(solved.stats.proven_optimal);

        // d = 3 > b = 2: the DP runs.
        let crowded = HashingProblem::frequency_only(vec![1.0, 2.0, 3.0, 3.0], 2);
        assert!(solve_equal_counts(&crowded).is_none());
        assert!(solve_frequency_only(&crowded).stats.moves_evaluated > 0);

        // An active similarity term: the shortcut declines whatever d is.
        let features = vec![Features::new(vec![0.0]), Features::new(vec![1.0])];
        let with_features = HashingProblem::new(vec![1.0, 1.0], features, 2, 0.5);
        assert!(solve_equal_counts(&with_features).is_none());
    }

    /// Why the shortcut stops at `d ≤ b`: with more distinct values than
    /// clusters, the mean-deviation optimum can split a tie, so grouping
    /// equal counts before the DP would not be exact.
    #[test]
    fn mean_abs_optimum_can_split_ties() {
        let values = [1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0, 24.0];
        let dp = kmedian_dp(&values, 3);
        assert!((dp.cost - 4.0).abs() < 1e-9, "dp cost {}", dp.cost);
        assert_ne!(dp.assignment[4], dp.assignment[5], "the two 3s are split");

        // Best 3-partition that cuts only between distinct values.
        let rc = RangeCost::new(&values);
        let n = values.len();
        let cuts: Vec<usize> = (1..n).filter(|&i| values[i] != values[i - 1]).collect();
        let mut grouped = f64::INFINITY;
        for (x, &a) in cuts.iter().enumerate() {
            for &c in &cuts[x + 1..] {
                let cost =
                    rc.range_cost(0, a - 1) + rc.range_cost(a, c - 1) + rc.range_cost(c, n - 1);
                grouped = grouped.min(cost);
            }
        }
        assert!(
            (grouped - 14.0 / 3.0).abs() < 1e-9,
            "grouped cost {grouped}"
        );
    }
}
