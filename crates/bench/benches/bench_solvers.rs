//! Criterion benchmarks for the optimization layer: scaling of the `dp`,
//! `bcd` and exact (`milp`) solvers with the number of elements and buckets.
//!
//! After the criterion groups, `speedup_gate` re-measures the solver
//! engineering pass end-to-end: an in-bench copy of the pre-pass BCD descent
//! (`legacy` module — from-scratch bucket recomputation per candidate move)
//! is timed against today's incremental-cost [`BcdSolver`] on exp2-like
//! (frequency-only, n = 3000, b = 32) and exp3-like (features, n = 1200,
//! b = 16, λ = 0.5) training workloads, and the run asserts the ≥ 10×
//! acceptance target on both.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use opthash_solver::kmedian::kmedian_dp;
use opthash_solver::{BcdConfig, BcdSolver, ExactConfig, ExactSolver, HashingProblem};
use opthash_stream::Features;
use std::time::Instant;

/// Deterministic pseudo-random frequencies with a heavy tail.
fn frequencies(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let r = (state % 1000) as f64 / 1000.0;
            (1.0 / (r + 0.01)).min(500.0)
        })
        .collect()
}

fn features(n: usize, seed: u64) -> Vec<Features> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Features::new(vec![
                (state % 100) as f64 / 10.0,
                (state % 73) as f64 / 10.0,
            ])
        })
        .collect()
}

fn bench_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmedian_dp");
    group.sample_size(20);
    // The exact mean-deviation DP (the paper's estimation-error objective)
    // is quadratic; benchmark it at sizes that path can afford.
    for &n in &[500usize, 2_000] {
        let values = frequencies(n, 3);
        group.bench_with_input(BenchmarkId::new("mean_abs_exact", n), &n, |b, _| {
            b.iter(|| black_box(kmedian_dp(&values, 32)));
        });
    }
    group.finish();
}

fn bench_bcd(c: &mut Criterion) {
    let mut group = c.benchmark_group("bcd");
    group.sample_size(10);
    for &n in &[200usize, 800] {
        let problem = HashingProblem::new(frequencies(n, 5), features(n, 7), 10, 0.5);
        group.bench_with_input(BenchmarkId::new("lambda_0.5", n), &n, |b, _| {
            let solver = BcdSolver::new(BcdConfig {
                max_iterations: 10,
                ..BcdConfig::default()
            });
            b.iter(|| black_box(solver.solve(&problem)));
        });
        let freq_only = HashingProblem::frequency_only(frequencies(n, 5), 10);
        group.bench_with_input(BenchmarkId::new("lambda_1.0", n), &n, |b, _| {
            let solver = BcdSolver::new(BcdConfig {
                max_iterations: 10,
                ..BcdConfig::default()
            });
            b.iter(|| black_box(solver.solve(&freq_only)));
        });
    }
    group.finish();
}

fn bench_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_branch_and_bound");
    group.sample_size(10);
    for &n in &[8usize, 12] {
        let problem = HashingProblem::new(frequencies(n, 9), features(n, 11), 3, 0.5);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let solver = ExactSolver::new(ExactConfig::default());
            b.iter(|| black_box(solver.solve(&problem)));
        });
    }
    group.finish();
}

/// Faithful in-bench copy of the BCD descent as it stood before the solver
/// engineering pass: per-bucket member lists with from-scratch estimation
/// error recomputes (`O(|I_j|)` per candidate) and per-candidate member
/// distance sums (`O(|I_j|·d)` when features are active). This is the
/// baseline the ≥ 10× acceptance gate measures against; it is kept here, not
/// in the library, so the shipped solver carries no dead code.
mod legacy {
    use opthash_solver::HashingProblem;
    use opthash_stream::Features;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    struct Bucket {
        members: Vec<usize>,
        sum_frequency: f64,
        estimation_error: f64,
        similarity_error: f64,
    }

    impl Bucket {
        fn new() -> Self {
            Bucket {
                members: Vec::new(),
                sum_frequency: 0.0,
                estimation_error: 0.0,
                similarity_error: 0.0,
            }
        }

        fn mean(&self) -> f64 {
            if self.members.is_empty() {
                0.0
            } else {
                self.sum_frequency / self.members.len() as f64
            }
        }

        fn recompute_estimation_error(&mut self, frequencies: &[f64]) {
            let mean = self.mean();
            self.estimation_error = self
                .members
                .iter()
                .map(|&i| (frequencies[i] - mean).abs())
                .sum();
        }

        fn estimation_error_with(&self, candidate: usize, frequencies: &[f64]) -> f64 {
            let count = self.members.len() as f64 + 1.0;
            let mean = (self.sum_frequency + frequencies[candidate]) / count;
            let mut err = (frequencies[candidate] - mean).abs();
            for &i in &self.members {
                err += (frequencies[i] - mean).abs();
            }
            err
        }

        fn distance_to_members(&self, candidate: usize, features: &[Features]) -> f64 {
            if features.is_empty() {
                return 0.0;
            }
            self.members
                .iter()
                .map(|&i| features[candidate].l2_distance(&features[i]))
                .sum()
        }

        fn insert(&mut self, element: usize, frequencies: &[f64], dist_sum: f64) {
            self.members.push(element);
            self.sum_frequency += frequencies[element];
            self.similarity_error += 2.0 * dist_sum;
            self.recompute_estimation_error(frequencies);
        }

        fn remove(&mut self, element: usize, frequencies: &[f64], dist_sum: f64) {
            let pos = self
                .members
                .iter()
                .position(|&i| i == element)
                .expect("member");
            self.members.swap_remove(pos);
            self.sum_frequency -= frequencies[element];
            self.similarity_error -= 2.0 * dist_sum;
            if self.similarity_error < 0.0 {
                self.similarity_error = 0.0;
            }
            self.recompute_estimation_error(frequencies);
        }

        fn objective(&self, lambda: f64) -> f64 {
            lambda * self.estimation_error + (1.0 - lambda) * self.similarity_error
        }
    }

    /// Pre-pass multi-start BCD: random init per restart, full descents, no
    /// incremental statistics, no early aborts, no racing. Returns the best
    /// objective found.
    pub fn solve(
        problem: &HashingProblem,
        restarts: usize,
        seed: u64,
        max_iterations: usize,
        tolerance: f64,
    ) -> f64 {
        let mut best = f64::INFINITY;
        for restart in 0..restarts.max(1) {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(restart as u64));
            let assignment: Vec<usize> = (0..problem.len())
                .map(|_| rng.gen_range(0..problem.buckets))
                .collect();
            let objective = descend(problem, assignment, &mut rng, max_iterations, tolerance);
            best = best.min(objective);
        }
        best
    }

    fn descend(
        problem: &HashingProblem,
        mut assignment: Vec<usize>,
        rng: &mut StdRng,
        max_iterations: usize,
        tolerance: f64,
    ) -> f64 {
        let n = problem.len();
        let b = problem.buckets;
        let lambda = problem.lambda;
        let frequencies = &problem.frequencies;
        let features: &[Features] = if problem.uses_features() {
            &problem.features
        } else {
            &[]
        };

        let mut buckets: Vec<Bucket> = (0..b).map(|_| Bucket::new()).collect();
        for (i, &j) in assignment.iter().enumerate() {
            let dist = buckets[j].distance_to_members(i, features);
            buckets[j].insert(i, frequencies, dist);
        }
        let mut objective: f64 = buckets.iter().map(|bk| bk.objective(lambda)).sum();

        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..max_iterations {
            order.shuffle(rng);
            for &i in &order {
                let current = assignment[i];
                let dist_current = buckets[current].distance_to_members(i, features);
                buckets[current].remove(i, frequencies, dist_current);

                let mut best_bucket = current;
                let mut best_delta = f64::INFINITY;
                for (j, bucket) in buckets.iter().enumerate() {
                    let est_with = bucket.estimation_error_with(i, frequencies);
                    let est_delta = est_with - bucket.estimation_error;
                    let dist = bucket.distance_to_members(i, features);
                    let sim_delta = 2.0 * dist;
                    let delta = lambda * est_delta + (1.0 - lambda) * sim_delta;
                    if delta < best_delta {
                        best_delta = delta;
                        best_bucket = j;
                    }
                }

                let dist_best = buckets[best_bucket].distance_to_members(i, features);
                buckets[best_bucket].insert(i, frequencies, dist_best);
                assignment[i] = best_bucket;
            }
            let new_objective: f64 = buckets.iter().map(|bk| bk.objective(lambda)).sum();
            let improvement = objective - new_objective;
            objective = new_objective;
            if improvement < tolerance {
                break;
            }
        }
        objective
    }
}

/// End-to-end acceptance gate of the solver engineering pass: on exp2-like
/// and exp3-like training workloads, incremental BCD must train ≥ 10× faster
/// than the pre-pass descent, measured interleaved (best of `TRIALS`
/// alternating passes so machine noise hits both sides equally).
fn speedup_gate(_c: &mut Criterion) {
    const TRIALS: usize = 3;
    const RESTARTS: usize = 4;

    let exp2 = HashingProblem::frequency_only(frequencies(3_000, 21), 32);
    let exp3 = HashingProblem::new(frequencies(1_200, 23), features(1_200, 25), 16, 0.5);
    let config = BcdConfig {
        restarts: RESTARTS,
        ..BcdConfig::default()
    };
    let bcd = BcdSolver::new(config);

    println!();
    for (name, problem) in [
        ("exp2_frequency_only_n3000_b32", &exp2),
        ("exp3_features_n1200_b16_lambda0.5", &exp3),
    ] {
        // Warm-up (page in the problem).
        black_box(bcd.solve(problem));

        let mut legacy_best = f64::INFINITY;
        let mut bcd_best = f64::INFINITY;
        let mut legacy_obj = f64::INFINITY;
        let mut new_obj = f64::INFINITY;
        for _ in 0..TRIALS {
            let start = Instant::now();
            legacy_obj = legacy_obj.min(black_box(legacy::solve(
                problem,
                RESTARTS,
                config.seed,
                config.max_iterations,
                config.tolerance,
            )));
            legacy_best = legacy_best.min(start.elapsed().as_secs_f64());

            let start = Instant::now();
            new_obj = new_obj.min(black_box(bcd.solve(problem)).objective);
            bcd_best = bcd_best.min(start.elapsed().as_secs_f64());
        }

        let speedup = legacy_best / bcd_best;
        println!(
            "{name}: legacy {:.1} ms | incremental bcd {:.1} ms ({speedup:.1}x) | \
             objective {:.1} -> {:.1}",
            legacy_best * 1e3,
            bcd_best * 1e3,
            legacy_obj,
            new_obj,
        );
        assert!(
            speedup >= 10.0,
            "acceptance: solver pass must train >= 10x faster than the \
             pre-pass BCD on {name}, measured {speedup:.2}x"
        );
        assert!(
            new_obj <= legacy_obj * 1.05 + 1e-9,
            "speed must not cost quality on {name}: objective {new_obj} vs \
             legacy {legacy_obj}"
        );
    }
    println!("acceptance: solver engineering pass >= 10x on both workloads — ok\n");
}

criterion_group!(benches, bench_dp, bench_bcd, bench_exact, speedup_gate);
criterion_main!(benches);
