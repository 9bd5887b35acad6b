//! Classification evaluation metrics.
//!
//! The bucket classifier's quality directly controls how well unseen
//! elements are estimated (Section 5.2). [`ConfusionMatrix`] breaks a
//! model's accuracy down by bucket: per-class precision and recall, and the
//! macro-averaged F1 score. Nothing in the workspace calls it yet; the
//! estimator records only the classifier's training accuracy.

use crate::classifier::Classifier;
use crate::dataset::Dataset;

/// A confusion matrix over `num_classes` classes.
///
/// Entry `(true_class, predicted_class)` counts the examples of
/// `true_class` that the model predicted as `predicted_class`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
    num_classes: usize,
}

impl ConfusionMatrix {
    /// Creates an empty matrix.
    pub fn new(num_classes: usize) -> Self {
        assert!(num_classes > 0, "need at least one class");
        ConfusionMatrix {
            counts: vec![vec![0; num_classes]; num_classes],
            num_classes,
        }
    }

    /// Evaluates a trained classifier on a dataset.
    pub fn evaluate<C: Classifier>(model: &C, data: &Dataset) -> Self {
        let mut matrix = ConfusionMatrix::new(data.num_classes().max(1));
        for (row, &label) in data.rows().iter().zip(data.labels()) {
            let predicted = model.predict(row).min(matrix.num_classes - 1);
            matrix.record(label, predicted);
        }
        matrix
    }

    /// Records one `(true, predicted)` observation.
    pub fn record(&mut self, true_class: usize, predicted_class: usize) {
        assert!(true_class < self.num_classes, "true class out of range");
        assert!(
            predicted_class < self.num_classes,
            "predicted class out of range"
        );
        self.counts[true_class][predicted_class] += 1;
    }

    /// Number of classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Count of examples with the given true and predicted classes.
    pub fn count(&self, true_class: usize, predicted_class: usize) -> usize {
        self.counts[true_class][predicted_class]
    }

    /// Total number of recorded examples.
    pub fn total(&self) -> usize {
        self.counts
            .iter()
            .map(|row| row.iter().sum::<usize>())
            .sum()
    }

    /// Overall accuracy (diagonal mass over total); 0 for an empty matrix.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = (0..self.num_classes).map(|c| self.counts[c][c]).sum();
        correct as f64 / total as f64
    }

    /// Precision of one class: `TP / (TP + FP)`; 0 when the class is never
    /// predicted.
    pub fn precision(&self, class: usize) -> f64 {
        let tp = self.counts[class][class];
        let predicted: usize = (0..self.num_classes).map(|t| self.counts[t][class]).sum();
        if predicted == 0 {
            0.0
        } else {
            tp as f64 / predicted as f64
        }
    }

    /// Recall of one class: `TP / (TP + FN)`; 0 when the class never occurs.
    pub fn recall(&self, class: usize) -> f64 {
        let tp = self.counts[class][class];
        let actual: usize = self.counts[class].iter().sum();
        if actual == 0 {
            0.0
        } else {
            tp as f64 / actual as f64
        }
    }

    /// F1 score of one class (harmonic mean of precision and recall).
    pub fn f1(&self, class: usize) -> f64 {
        let p = self.precision(class);
        let r = self.recall(class);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Macro-averaged F1 over the classes that actually occur in the data.
    pub fn macro_f1(&self) -> f64 {
        let present: Vec<usize> = (0..self.num_classes)
            .filter(|&c| self.counts[c].iter().sum::<usize>() > 0)
            .collect();
        if present.is_empty() {
            return 0.0;
        }
        present.iter().map(|&c| self.f1(c)).sum::<f64>() / present.len() as f64
    }

    /// Classes ranked by how often they are confused (off-diagonal mass),
    /// useful for inspecting which buckets the classifier mixes up.
    pub fn most_confused_pairs(&self, top: usize) -> Vec<(usize, usize, usize)> {
        let mut pairs = Vec::new();
        for t in 0..self.num_classes {
            for p in 0..self.num_classes {
                if t != p && self.counts[t][p] > 0 {
                    pairs.push((t, p, self.counts[t][p]));
                }
            }
        }
        pairs.sort_by_key(|&(_, _, count)| std::cmp::Reverse(count));
        pairs.truncate(top);
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cart::{CartConfig, DecisionTree};

    fn matrix_from(pairs: &[(usize, usize)], classes: usize) -> ConfusionMatrix {
        let mut m = ConfusionMatrix::new(classes);
        for &(t, p) in pairs {
            m.record(t, p);
        }
        m
    }

    #[test]
    fn accuracy_precision_recall_hand_checked() {
        // true 0 predicted 0 ×3, true 0 predicted 1 ×1, true 1 predicted 1 ×2
        let m = matrix_from(&[(0, 0), (0, 0), (0, 0), (0, 1), (1, 1), (1, 1)], 2);
        assert_eq!(m.total(), 6);
        assert!((m.accuracy() - 5.0 / 6.0).abs() < 1e-12);
        assert!((m.precision(0) - 1.0).abs() < 1e-12);
        assert!((m.recall(0) - 0.75).abs() < 1e-12);
        assert!((m.precision(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.recall(1) - 1.0).abs() < 1e-12);
        let f1_0 = 2.0 * 1.0 * 0.75 / 1.75;
        assert!((m.f1(0) - f1_0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_absent_classes_are_zero_not_nan() {
        let m = ConfusionMatrix::new(3);
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.precision(2), 0.0);
        assert_eq!(m.recall(2), 0.0);
        assert_eq!(m.f1(2), 0.0);
        assert_eq!(m.macro_f1(), 0.0);
    }

    #[test]
    fn macro_f1_ignores_classes_with_no_examples() {
        // class 2 never occurs; macro-F1 averages classes 0 and 1 only
        let m = matrix_from(&[(0, 0), (1, 1)], 3);
        assert!((m.macro_f1() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn most_confused_pairs_are_sorted() {
        let m = matrix_from(&[(0, 1), (0, 1), (1, 2), (2, 0), (2, 0), (2, 0)], 3);
        let pairs = m.most_confused_pairs(2);
        assert_eq!(pairs[0], (2, 0, 3));
        assert_eq!(pairs[1], (0, 1, 2));
    }

    #[test]
    fn evaluate_wires_up_a_real_classifier() {
        let data = Dataset::from_rows(
            vec![vec![0.0], vec![0.1], vec![5.0], vec![5.1]],
            vec![0, 0, 1, 1],
        );
        let tree = DecisionTree::fit(&data, &CartConfig::default());
        let matrix = ConfusionMatrix::evaluate(&tree, &data);
        assert_eq!(matrix.total(), 4);
        assert!((matrix.accuracy() - 1.0).abs() < 1e-12);
        assert_eq!(matrix.count(0, 0), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn recording_out_of_range_class_panics() {
        let mut m = ConfusionMatrix::new(2);
        m.record(0, 5);
    }
}
