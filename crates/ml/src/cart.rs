//! CART decision-tree classifier (`cart`).
//!
//! A binary classification tree grown by recursively choosing the
//! axis-aligned split that maximizes the Gini impurity decrease. Growth stops
//! at a maximum depth, a minimum number of samples per split, or when the
//! best split's impurity decrease falls below a threshold — the two
//! hyper-parameters the paper tunes for this model (Section 6.2).

use crate::classifier::Classifier;
use crate::dataset::Dataset;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of [`DecisionTree`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    pub fn fit(data: &Dataset, config: &CartConfig) -> Self {
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
        tree.build(data, indices, 0, config, &mut rng_state);
        tree
    }

    fn build(
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

        let best = self.best_split(data, &indices, &counts, node_impurity, config, rng_state);
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
                let left = self.build(data, left_idx, depth + 1, config, rng_state);
                let right = self.build(data, right_idx, depth + 1, config, rng_state);
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
    fn best_split(
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
