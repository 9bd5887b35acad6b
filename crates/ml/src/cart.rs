//! CART decision-tree classifier (`cart`).
//!
//! A binary classification tree grown by recursively choosing the
//! axis-aligned split that maximizes the Gini impurity decrease. Growth stops
//! at a maximum depth, a minimum number of samples per split, or when the
//! best split's impurity decrease falls below a threshold — the two
//! hyper-parameters the paper tunes for this model (Section 6.2).
//!
//! # Split search
//!
//! Trees grow from a column-major copy of the training features
//! (`Columns`) that also lists, per feature, the rows whose value is not
//! `0.0`. A random forest builds the copy once and grows every tree on it,
//! each tree weighting the rows by their bootstrap multiplicity.
//!
//! For each sampled feature a node gathers only its non-zero values: from
//! the feature's non-zero rows when that list is shorter than the node,
//! otherwise from the node's own rows. A feature that is zero on every
//! sample of the node is skipped. The gathered values are sorted and
//! scanned in three parts: the negative values one at a time, every zero
//! (`0.0` or `-0.0`) as one block, then the positive values one at a time.
//! The zero block's class counts are the node's counts minus the non-zero
//! counts. The scan evaluates exactly the boundaries a full sort of the
//! node's samples does (between distinct values, in ascending order), with
//! the same left and right class counts, so it picks the same splits bit
//! for bit. The tests keep that row-major search as the reference.

use crate::classifier::Classifier;
use crate::dataset::Dataset;

/// Hyper-parameters of [`DecisionTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CartConfig {
    /// Maximum tree depth (root has depth 0).
    pub max_depth: usize,
    /// Minimum number of examples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum weighted Gini impurity decrease required to accept a split.
    pub min_impurity_decrease: f64,
    /// Optional cap on the number of features examined per split
    /// (`None` = all features). Random forests set this to √d.
    pub max_features: Option<usize>,
    /// Seed for the feature subsampling (only used when `max_features` is
    /// set).
    pub seed: u64,
}

impl Default for CartConfig {
    fn default() -> Self {
        CartConfig {
            max_depth: 12,
            min_samples_split: 2,
            min_impurity_decrease: 0.0,
            max_features: None,
            seed: 0,
        }
    }
}

/// One node of the tree, stored in a flat arena.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Arena index of the subtree for `row[feature] <= threshold`.
        left: usize,
        /// Arena index of the subtree for `row[feature] > threshold`.
        right: usize,
    },
}

/// A trained CART decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    num_classes: usize,
    depth: usize,
}

/// Gini impurity of a label multiset given per-class counts and the total.
fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

fn majority(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(c, _)| c)
        .unwrap_or(0)
}

impl DecisionTree {
    /// Trains a tree on a dataset.
    ///
    /// # Panics
    /// Panics if a feature value is NaN.
    pub fn fit(data: &Dataset, config: &CartConfig) -> Self {
        let num_classes = data.num_classes().max(1);
        if data.is_empty() || data.num_features() == 0 {
            // Nothing to split: the root is the majority leaf (class 0
            // without data).
            return DecisionTree {
                nodes: vec![Node::Leaf {
                    class: data.majority_class(),
                }],
                num_classes,
                depth: 0,
            };
        }
        let columns = Columns::new(data);
        let weights = vec![1; data.len()];
        DecisionTree::grow(&columns, data.labels(), &weights, num_classes, config)
    }

    /// Grows a tree on the rows of `columns` with positive `weights`, row
    /// `r` counting as `weights[r]` samples labelled `labels[r]`.
    pub(crate) fn grow(
        columns: &Columns,
        labels: &[usize],
        weights: &[usize],
        num_classes: usize,
        config: &CartConfig,
    ) -> Self {
        let rows: Vec<usize> = (0..columns.rows).filter(|&r| weights[r] > 0).collect();
        let end = rows.len();
        let mut grower = Grower {
            columns,
            labels,
            weights,
            config,
            // Simple xorshift for feature subsampling, seeded per tree.
            rng_state: config.seed.wrapping_mul(0x9E3779B97F4A7C15) | 1,
            tree: DecisionTree {
                nodes: Vec::new(),
                num_classes,
                depth: 0,
            },
            in_node: vec![false; columns.rows],
            features: (0..columns.num_features()).collect(),
            swaps: Vec::new(),
            gathered: Vec::new(),
            left: vec![0; num_classes],
            right: vec![0; num_classes],
            spill: Vec::new(),
            rows,
        };
        grower.build(0, end, 0);
        grower.tree
    }

    /// Predicts the class of one feature row.
    pub fn predict(&self, row: &[f64]) -> usize {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let value = row.get(*feature).copied().unwrap_or(0.0);
                    node = if value <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the deepest node.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Model-family name.
    pub fn name(&self) -> &'static str {
        "cart"
    }
}

/// Training features stored column by column, shared by every tree grown
/// on one dataset.
pub(crate) struct Columns {
    /// Feature `f` of row `r` is `values[f * rows + r]`.
    values: Vec<f64>,
    /// Per feature, the ascending rows whose value is not `0.0` (`-0.0`
    /// counts as zero).
    nonzero: Vec<Vec<usize>>,
    rows: usize,
}

impl Columns {
    /// Copies the features of `data`.
    ///
    /// # Panics
    /// Panics if a feature value is NaN: the split search orders values.
    pub(crate) fn new(data: &Dataset) -> Self {
        let rows = data.len();
        let mut values = vec![0.0; rows * data.num_features()];
        let mut nonzero = vec![Vec::new(); data.num_features()];
        for (r, row) in data.rows().iter().enumerate() {
            for (f, &v) in row.iter().enumerate() {
                assert!(!v.is_nan(), "feature values must not be NaN");
                values[f * rows + r] = v;
                if v != 0.0 {
                    nonzero[f].push(r);
                }
            }
        }
        Columns {
            values,
            nonzero,
            rows,
        }
    }

    fn num_features(&self) -> usize {
        self.nonzero.len()
    }

    fn column(&self, feature: usize) -> &[f64] {
        &self.values[feature * self.rows..(feature + 1) * self.rows]
    }
}

/// The state of growing one tree: the sample, the tree so far, and buffers
/// reused by every node.
struct Grower<'a> {
    columns: &'a Columns,
    labels: &'a [usize],
    /// Samples each row stands for (its bootstrap multiplicity); rows
    /// weighted 0 are not in the sample.
    weights: &'a [usize],
    config: &'a CartConfig,
    rng_state: u64,
    tree: DecisionTree,
    /// The sampled rows. Each node owns a contiguous range, split in place
    /// into its children's ranges.
    rows: Vec<usize>,
    /// Marks the rows of the node whose split is being searched.
    in_node: Vec<bool>,
    /// The identity permutation of the features between nodes; a node's
    /// partial Fisher-Yates sampling is undone through `swaps`.
    features: Vec<usize>,
    swaps: Vec<usize>,
    /// `(value, label, weight)` of one feature's non-zero values at a node.
    gathered: Vec<(f64, usize, usize)>,
    /// Class counts left and right of a scanned boundary.
    left: Vec<usize>,
    right: Vec<usize>,
    /// The right-hand rows during a partition.
    spill: Vec<usize>,
}

impl Grower<'_> {
    /// Grows the subtree of the rows in `lo..hi`, returning its arena index.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        self.tree.depth = self.tree.depth.max(depth);
        let mut counts = vec![0usize; self.tree.num_classes];
        let mut n = 0;
        for &r in &self.rows[lo..hi] {
            counts[self.labels[r]] += self.weights[r];
            n += self.weights[r];
        }
        let node_impurity = gini(&counts, n);
        let leaf_class = majority(&counts);

        let stop = depth >= self.config.max_depth
            || n < self.config.min_samples_split
            || node_impurity == 0.0;
        let split = if stop {
            None
        } else {
            self.best_split(lo, hi, &counts, n, node_impurity)
        };
        let Some((feature, threshold)) = split else {
            return self.push_leaf(leaf_class);
        };
        let mid = self.partition(lo, hi, feature, threshold);
        // Guard against degenerate splits (shouldn't happen given the
        // threshold is a midpoint of two distinct values).
        if mid == lo || mid == hi {
            return self.push_leaf(leaf_class);
        }
        // Reserve this node's slot before recursing so the arena index is
        // stable.
        let my_index = self.push_leaf(leaf_class);
        let left = self.build(lo, mid, depth + 1);
        let right = self.build(mid, hi, depth + 1);
        self.tree.nodes[my_index] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        my_index
    }

    fn push_leaf(&mut self, class: usize) -> usize {
        self.tree.nodes.push(Node::Leaf { class });
        self.tree.nodes.len() - 1
    }

    /// Finds the best `(feature, threshold)` split of the rows in `lo..hi`,
    /// or `None` if no split clears `min_impurity_decrease`.
    fn best_split(
        &mut self,
        lo: usize,
        hi: usize,
        parent_counts: &[usize],
        n: usize,
        parent_impurity: f64,
    ) -> Option<(usize, f64)> {
        let num_features = self.features.len();
        // Choose which features to examine.
        let k = match self.config.max_features {
            Some(k) if k < num_features => {
                // Partial Fisher-Yates using the xorshift state.
                for pos in 0..k {
                    self.rng_state ^= self.rng_state << 13;
                    self.rng_state ^= self.rng_state >> 7;
                    self.rng_state ^= self.rng_state << 17;
                    let swap = pos + (self.rng_state as usize) % (num_features - pos);
                    self.features.swap(pos, swap);
                    self.swaps.push(swap);
                }
                k
            }
            _ => num_features,
        };

        for &r in &self.rows[lo..hi] {
            self.in_node[r] = true;
        }
        let mut best: Option<(usize, f64, f64)> = None;
        for i in 0..k {
            let feature = self.features[i];
            let found = self.scan(feature, lo, hi, parent_counts, n, parent_impurity);
            if let Some((threshold, decrease)) = found {
                if best.is_none_or(|(_, _, d)| decrease > d) {
                    best = Some((feature, threshold, decrease));
                }
            }
        }
        for &r in &self.rows[lo..hi] {
            self.in_node[r] = false;
        }
        while let Some(swap) = self.swaps.pop() {
            self.features.swap(self.swaps.len(), swap);
        }
        best.map(|(feature, threshold, _decrease)| (feature, threshold))
    }

    /// The best boundary of `feature` at the node of the rows in `lo..hi`,
    /// as `(threshold, decrease)`: the first one, in ascending order, with
    /// the largest impurity decrease of at least `min_impurity_decrease`.
    fn scan(
        &mut self,
        feature: usize,
        lo: usize,
        hi: usize,
        parent_counts: &[usize],
        n: usize,
        parent_impurity: f64,
    ) -> Option<(f64, f64)> {
        let column = self.columns.column(feature);
        let nonzero = &self.columns.nonzero[feature];
        let gathered = &mut self.gathered;
        gathered.clear();
        if nonzero.len() <= hi - lo {
            for &r in nonzero {
                if self.in_node[r] {
                    gathered.push((column[r], self.labels[r], self.weights[r]));
                }
            }
        } else {
            for &r in &self.rows[lo..hi] {
                if column[r] != 0.0 {
                    gathered.push((column[r], self.labels[r], self.weights[r]));
                }
            }
        }
        if gathered.is_empty() {
            return None; // zero on every sample: no boundary
        }
        gathered.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let negatives = gathered.partition_point(|&(v, _, _)| v < 0.0);
        let zeros = n - gathered.iter().map(|&(_, _, w)| w).sum::<usize>();

        let min_decrease = self.config.min_impurity_decrease;
        let n_f = n as f64;
        let mut best: Option<(f64, f64)> = None;
        let mut consider = |left: &[usize], right: &[usize], left_n: usize, v: f64, next: f64| {
            if v == next {
                return; // cannot split between equal values
            }
            let right_n = n - left_n;
            let weighted = (left_n as f64 / n_f) * gini(left, left_n)
                + (right_n as f64 / n_f) * gini(right, right_n);
            let decrease = parent_impurity - weighted;
            if decrease >= min_decrease && best.is_none_or(|(_, d)| decrease > d) {
                best = Some((0.5 * (v + next), decrease));
            }
        };
        let (left, right) = (&mut self.left, &mut self.right);
        left.fill(0);
        right.copy_from_slice(parent_counts);
        let mut left_n = 0;
        for i in 0..gathered.len() {
            if i == negatives && zeros > 0 {
                // Move the zero block left: the right side keeps exactly
                // the positive values.
                right.fill(0);
                for &(_, label, w) in &gathered[negatives..] {
                    right[label] += w;
                }
                for ((l, &p), &r) in left.iter_mut().zip(parent_counts).zip(right.iter()) {
                    *l = p - r;
                }
                left_n += zeros;
                consider(left, right, left_n, 0.0, gathered[i].0);
            }
            let (v, label, w) = gathered[i];
            left[label] += w;
            right[label] -= w;
            left_n += w;
            let next = if i + 1 == negatives && zeros > 0 {
                Some(0.0)
            } else {
                gathered.get(i + 1).map(|&(next, _, _)| next)
            };
            if let Some(next) = next {
                consider(left, right, left_n, v, next);
            }
        }
        best
    }

    /// Moves the rows of `lo..hi` whose `feature` value is at most
    /// `threshold` to the front of the range, keeping both sides in order,
    /// and returns where the right side starts.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f64) -> usize {
        let column = self.columns.column(feature);
        self.spill.clear();
        let mut mid = lo;
        for i in lo..hi {
            let r = self.rows[i];
            if column[r] <= threshold {
                self.rows[mid] = r;
                mid += 1;
            } else {
                self.spill.push(r);
            }
        }
        self.rows[mid..hi].copy_from_slice(&self.spill);
        mid
    }
}

/// The row-major split search the columnar one reproduces: every node sorts
/// all its samples by each sampled feature and scans them one at a time.
/// Kept as the reference the property tests compare against.
#[cfg(test)]
impl DecisionTree {
    /// Trains a tree with the row-major reference search.
    pub(crate) fn fit_row_major(data: &Dataset, config: &CartConfig) -> Self {
        let num_classes = data.num_classes().max(1);
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            num_classes,
            depth: 0,
        };
        if data.is_empty() {
            tree.nodes.push(Node::Leaf { class: 0 });
            return tree;
        }
        let indices: Vec<usize> = (0..data.len()).collect();
        // Simple xorshift for feature subsampling, seeded per tree.
        let mut rng_state = config.seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        tree.build_row_major(data, indices, 0, config, &mut rng_state);
        tree
    }

    fn build_row_major(
        &mut self,
        data: &Dataset,
        indices: Vec<usize>,
        depth: usize,
        config: &CartConfig,
        rng_state: &mut u64,
    ) -> usize {
        self.depth = self.depth.max(depth);
        let mut counts = vec![0usize; self.num_classes];
        for &i in &indices {
            counts[data.labels()[i]] += 1;
        }
        let node_impurity = gini(&counts, indices.len());
        let leaf_class = majority(&counts);

        let stop = depth >= config.max_depth
            || indices.len() < config.min_samples_split
            || node_impurity == 0.0;
        if stop {
            self.nodes.push(Node::Leaf { class: leaf_class });
            return self.nodes.len() - 1;
        }

        let best =
            self.best_split_row_major(data, &indices, &counts, node_impurity, config, rng_state);
        match best {
            None => {
                self.nodes.push(Node::Leaf { class: leaf_class });
                self.nodes.len() - 1
            }
            Some((feature, threshold, _decrease)) => {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                    .into_iter()
                    .partition(|&i| data.rows()[i][feature] <= threshold);
                // Guard against degenerate splits (shouldn't happen given the
                // threshold is a midpoint of two distinct values).
                if left_idx.is_empty() || right_idx.is_empty() {
                    self.nodes.push(Node::Leaf { class: leaf_class });
                    return self.nodes.len() - 1;
                }
                // Reserve this node's slot before recursing so the arena
                // index is stable.
                let my_index = self.nodes.len();
                self.nodes.push(Node::Leaf { class: leaf_class });
                let left = self.build_row_major(data, left_idx, depth + 1, config, rng_state);
                let right = self.build_row_major(data, right_idx, depth + 1, config, rng_state);
                self.nodes[my_index] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                my_index
            }
        }
    }

    /// Finds the best (feature, threshold) split, returning the impurity
    /// decrease, or `None` if no split clears `min_impurity_decrease`.
    fn best_split_row_major(
        &self,
        data: &Dataset,
        indices: &[usize],
        parent_counts: &[usize],
        parent_impurity: f64,
        config: &CartConfig,
        rng_state: &mut u64,
    ) -> Option<(usize, f64, f64)> {
        let num_features = data.num_features();
        let n = indices.len() as f64;

        // Choose which features to examine.
        let features: Vec<usize> = match config.max_features {
            None => (0..num_features).collect(),
            Some(k) if k >= num_features => (0..num_features).collect(),
            Some(k) => {
                // Partial Fisher-Yates using the xorshift state.
                let mut all: Vec<usize> = (0..num_features).collect();
                for pos in 0..k {
                    *rng_state ^= *rng_state << 13;
                    *rng_state ^= *rng_state >> 7;
                    *rng_state ^= *rng_state << 17;
                    let swap = pos + (*rng_state as usize) % (num_features - pos);
                    all.swap(pos, swap);
                }
                all.truncate(k);
                all
            }
        };

        let mut best: Option<(usize, f64, f64)> = None;
        for &feature in &features {
            // Sort the node's examples by this feature value.
            let mut order: Vec<usize> = indices.to_vec();
            order.sort_by(|&a, &b| {
                data.rows()[a][feature]
                    .partial_cmp(&data.rows()[b][feature])
                    .unwrap()
            });
            let mut left_counts = vec![0usize; self.num_classes];
            let mut right_counts = parent_counts.to_vec();
            for w in 0..order.len() - 1 {
                let i = order[w];
                let label = data.labels()[i];
                left_counts[label] += 1;
                right_counts[label] -= 1;
                let v = data.rows()[i][feature];
                let v_next = data.rows()[order[w + 1]][feature];
                if v == v_next {
                    continue; // cannot split between equal values
                }
                let left_n = w + 1;
                let right_n = order.len() - left_n;
                let weighted = (left_n as f64 / n) * gini(&left_counts, left_n)
                    + (right_n as f64 / n) * gini(&right_counts, right_n);
                let decrease = parent_impurity - weighted;
                if decrease >= config.min_impurity_decrease
                    && best.is_none_or(|(_, _, d)| decrease > d)
                {
                    best = Some((feature, 0.5 * (v + v_next), decrease));
                }
            }
        }
        best
    }
}

/// A small dataset for comparing the split searches. Each column draws its
/// values from one of five kinds, chosen per column: sparse counts (mostly
/// zero), dense values with ties, non-positive values (`-0.0` among them),
/// a mix of both zeros with both signs, and continuous values of both
/// signs.
#[cfg(test)]
pub(crate) fn mixed_dataset(seed: u64, rows: usize, features: usize, classes: usize) -> Dataset {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(seed);
    let kinds: Vec<u8> = (0..features).map(|_| rng.gen_range(0..5)).collect();
    let mut data = Dataset::new(features, classes);
    for _ in 0..rows {
        let row = kinds
            .iter()
            .map(|&kind| match kind {
                0 if rng.gen_bool(0.75) => 0.0,
                0 => rng.gen_range(1..4) as f64,
                1 => rng.gen_range(1..8) as f64 * 0.25,
                2 => -(rng.gen_range(0..4) as f64),
                3 => [-2.5, -1.0, -0.0, 0.0, 0.0, 0.5, 3.0][rng.gen_range(0..7usize)],
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect();
        data.push(row, rng.gen_range(0..classes));
    }
    data
}

impl Classifier for DecisionTree {
    fn predict(&self, row: &[f64]) -> usize {
        DecisionTree::predict(self, row)
    }

    fn name(&self) -> &'static str {
        DecisionTree::name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fit_matches_the_row_major_search(
            seed in 0u64..u64::MAX,
            rows in 1usize..40,
            features in 0usize..6,
            classes in 1usize..5,
            max_features in 0usize..8,
            min_impurity_decrease in prop::sample::select(vec![0.0, 0.01, 0.05]),
            max_depth in 0usize..6,
            min_samples_split in 0usize..5,
            tree_seed in 0u64..1_000,
        ) {
            let data = mixed_dataset(seed, rows, features, classes);
            let config = CartConfig {
                max_depth,
                min_samples_split,
                min_impurity_decrease,
                max_features: max_features.checked_sub(1),
                seed: tree_seed,
            };
            let tree = DecisionTree::fit(&data, &config);
            let reference = DecisionTree::fit_row_major(&data, &config);
            // `Debug` prints every threshold so that it round-trips exactly.
            prop_assert_eq!(format!("{tree:?}"), format!("{reference:?}"));
        }
    }

    #[test]
    fn zero_feature_dataset_is_one_majority_leaf() {
        for (labels, majority) in [(vec![2, 0, 2, 1, 2], 2), (vec![1, 0, 1, 0], 0)] {
            let data = Dataset::from_rows(vec![Vec::new(); labels.len()], labels);
            let tree = DecisionTree::fit(&data, &CartConfig::default());
            assert_eq!(tree.node_count(), 1);
            assert_eq!(tree.depth(), 0);
            assert_eq!(tree.predict(&[]), majority);
        }
    }

    fn xor_dataset() -> Dataset {
        // Nonlinear problem a linear model cannot solve but a depth-2 tree can.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            let jitter = i as f64 * 0.01;
            rows.push(vec![0.0 + jitter, 0.0 + jitter]);
            labels.push(0);
            rows.push(vec![1.0 + jitter, 1.0 + jitter]);
            labels.push(0);
            rows.push(vec![0.0 + jitter, 1.0 + jitter]);
            labels.push(1);
            rows.push(vec![1.0 + jitter, 0.0 + jitter]);
            labels.push(1);
        }
        Dataset::from_rows(rows, labels)
    }

    #[test]
    fn learns_xor_perfectly() {
        let data = xor_dataset();
        let tree = DecisionTree::fit(&data, &CartConfig::default());
        assert_eq!(tree.accuracy(&data), 1.0);
    }

    #[test]
    fn depth_limit_is_respected() {
        let data = xor_dataset();
        let stump = DecisionTree::fit(
            &data,
            &CartConfig {
                max_depth: 1,
                ..CartConfig::default()
            },
        );
        assert!(stump.depth() <= 1);
        // A depth-1 stump cannot solve XOR
        assert!(stump.accuracy(&data) < 0.8);
    }

    #[test]
    fn pure_node_becomes_leaf_immediately() {
        let data = Dataset::from_rows(vec![vec![1.0], vec![2.0], vec![3.0]], vec![1, 1, 1]);
        let tree = DecisionTree::fit(&data, &CartConfig::default());
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[42.0]), 1);
    }

    #[test]
    fn min_impurity_decrease_prunes_marginal_splits() {
        // Nearly pure data: one lone minority example.
        let mut rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let mut labels = vec![0usize; 50];
        rows.push(vec![25.5]);
        labels.push(1);
        let data = Dataset::from_rows(rows, labels);
        let aggressive = DecisionTree::fit(
            &data,
            &CartConfig {
                min_impurity_decrease: 0.2,
                ..CartConfig::default()
            },
        );
        assert_eq!(aggressive.node_count(), 1, "should collapse to a leaf");
        let lenient = DecisionTree::fit(&data, &CartConfig::default());
        assert!(lenient.node_count() > 1);
    }

    #[test]
    fn multiclass_separable_is_learned() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..6usize {
            for i in 0..15 {
                rows.push(vec![c as f64 * 5.0 + (i as f64) * 0.05, (i % 3) as f64]);
                labels.push(c);
            }
        }
        let data = Dataset::from_rows(rows, labels);
        let tree = DecisionTree::fit(&data, &CartConfig::default());
        assert!(tree.accuracy(&data) > 0.98);
    }

    #[test]
    fn empty_dataset_yields_single_leaf() {
        let data = Dataset::new(3, 2);
        let tree = DecisionTree::fit(&data, &CartConfig::default());
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[0.0, 0.0, 0.0]), 0);
    }

    #[test]
    fn identical_rows_with_conflicting_labels_fall_back_to_majority() {
        let data = Dataset::from_rows(vec![vec![1.0, 1.0]; 5], vec![0, 1, 1, 1, 0]);
        let tree = DecisionTree::fit(&data, &CartConfig::default());
        assert_eq!(tree.predict(&[1.0, 1.0]), 1);
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn feature_subsampling_still_learns_reasonably() {
        let data = xor_dataset();
        let tree = DecisionTree::fit(
            &data,
            &CartConfig {
                max_features: Some(1),
                seed: 5,
                ..CartConfig::default()
            },
        );
        // With only one of two features per split it may need extra depth but
        // should still fit training data well.
        assert!(tree.accuracy(&data) > 0.9);
    }

    #[test]
    fn predictions_with_short_rows_use_zero_padding() {
        let data = xor_dataset();
        let tree = DecisionTree::fit(&data, &CartConfig::default());
        let p = tree.predict(&[0.0]);
        assert!(p < 2);
    }

    #[test]
    fn gini_helper_values() {
        assert_eq!(gini(&[0, 0], 0), 0.0);
        assert_eq!(gini(&[5, 0], 5), 0.0);
        assert!((gini(&[5, 5], 10) - 0.5).abs() < 1e-12);
        assert!((gini(&[1, 1, 1, 1], 4) - 0.75).abs() < 1e-12);
    }
}
