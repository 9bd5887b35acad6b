//! Ridge-regularized multinomial logistic regression (`logreg`).
//!
//! A linear softmax classifier trained by full-batch gradient descent on the
//! cross-entropy loss with an L2 ("ridge") penalty on the weights — the
//! hyper-parameter the paper tunes for this model (Section 6.2). Features are
//! standardized internally so the fixed learning rate behaves across the very
//! different feature scales produced by the synthetic generator and the text
//! featurizer.

use crate::classifier::Classifier;
use crate::dataset::Dataset;

/// Hyper-parameters of [`LogisticRegression`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogRegConfig {
    /// Weight of the ridge (L2) penalty.
    pub l2: f64,
    /// Gradient-descent learning rate.
    pub learning_rate: f64,
    /// Number of full-batch gradient steps.
    pub iterations: usize,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        LogRegConfig {
            l2: 1e-3,
            learning_rate: 0.5,
            iterations: 300,
        }
    }
}

/// A trained multinomial logistic regression model.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// `num_classes × num_features` weight matrix (row-major).
    weights: Vec<f64>,
    /// Per-class bias terms.
    biases: Vec<f64>,
    /// Per-feature means used for standardization.
    feature_means: Vec<f64>,
    /// Per-feature standard deviations used for standardization.
    feature_stds: Vec<f64>,
    num_classes: usize,
    num_features: usize,
    /// Fallback class for degenerate inputs.
    majority_class: usize,
}

impl LogisticRegression {
    /// Trains the model on a dataset.
    pub fn fit(data: &Dataset, config: &LogRegConfig) -> Self {
        let num_classes = data.num_classes().max(1);
        let num_features = data.num_features();
        let majority_class = data.majority_class();
        let n = data.len();
        if n == 0 || num_features == 0 {
            return LogisticRegression {
                weights: vec![0.0; num_classes * num_features],
                biases: vec![0.0; num_classes],
                feature_means: vec![0.0; num_features],
                feature_stds: vec![1.0; num_features],
                num_classes,
                num_features,
                majority_class,
            };
        }

        // Standardize features.
        let mut means = vec![0.0f64; num_features];
        for row in data.rows() {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n as f64;
        }
        let mut stds = vec![0.0f64; num_features];
        for row in data.rows() {
            for ((s, &v), &m) in stds.iter_mut().zip(row).zip(&means) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n as f64).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        let standardized: Vec<Vec<f64>> = data
            .rows()
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&means)
                    .zip(&stds)
                    .map(|((&v, &m), &s)| (v - m) / s)
                    .collect()
            })
            .collect();

        let mut weights = vec![0.0f64; num_classes * num_features];
        let mut biases = vec![0.0f64; num_classes];
        let mut probs = vec![0.0f64; num_classes];
        let inv_n = 1.0 / n as f64;

        for _ in 0..config.iterations {
            let mut grad_w = vec![0.0f64; num_classes * num_features];
            let mut grad_b = vec![0.0f64; num_classes];
            for (row, &label) in standardized.iter().zip(data.labels()) {
                // softmax logits
                let mut max_logit = f64::NEG_INFINITY;
                for c in 0..num_classes {
                    let mut z = biases[c];
                    let w = &weights[c * num_features..(c + 1) * num_features];
                    for (wi, xi) in w.iter().zip(row) {
                        z += wi * xi;
                    }
                    probs[c] = z;
                    if z > max_logit {
                        max_logit = z;
                    }
                }
                let mut sum = 0.0;
                for p in probs.iter_mut() {
                    *p = (*p - max_logit).exp();
                    sum += *p;
                }
                for (c, p) in probs.iter_mut().enumerate() {
                    *p /= sum;
                    let err = *p - if c == label { 1.0 } else { 0.0 };
                    grad_b[c] += err * inv_n;
                    let gw = &mut grad_w[c * num_features..(c + 1) * num_features];
                    for (g, xi) in gw.iter_mut().zip(row) {
                        *g += err * xi * inv_n;
                    }
                }
            }
            // Ridge update with the decay factor clamped at zero so very
            // large penalties cannot make the step overshoot and diverge.
            let decay = (1.0 - config.learning_rate * config.l2).max(0.0);
            for (w, g) in weights.iter_mut().zip(&grad_w) {
                *w = *w * decay - config.learning_rate * g;
            }
            for (b, g) in biases.iter_mut().zip(&grad_b) {
                *b -= config.learning_rate * g;
            }
        }

        LogisticRegression {
            weights,
            biases,
            feature_means: means,
            feature_stds: stds,
            num_classes,
            num_features,
            majority_class,
        }
    }

    /// Per-class scores (unnormalized logits) of a feature row.
    pub fn decision_function(&self, row: &[f64]) -> Vec<f64> {
        (0..self.num_classes)
            .map(|c| {
                let w = &self.weights[c * self.num_features..(c + 1) * self.num_features];
                let mut z = self.biases[c];
                for (i, &weight) in w.iter().enumerate() {
                    let x = row.get(i).copied().unwrap_or(0.0);
                    let standardized = (x - self.feature_means[i]) / self.feature_stds[i];
                    z += weight * standardized;
                }
                z
            })
            .collect()
    }

    /// Class-probability estimates (softmax of the decision function).
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let logits = self.decision_function(row);
        let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|z| (z - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    /// Predicts the most likely class.
    pub fn predict(&self, row: &[f64]) -> usize {
        if self.num_features == 0 {
            return self.majority_class;
        }
        // Argmax with ties broken toward the smallest class index so
        // degenerate inputs (e.g. an untrained model) behave deterministically.
        let scores = self.decision_function(row);
        let mut best = self.majority_class.min(scores.len().saturating_sub(1));
        let mut best_score = f64::NEG_INFINITY;
        for (c, &s) in scores.iter().enumerate() {
            if s > best_score {
                best_score = s;
                best = c;
            }
        }
        best
    }

    /// Model-family name.
    pub fn name(&self) -> &'static str {
        "logreg"
    }
}

impl Classifier for LogisticRegression {
    fn predict(&self, row: &[f64]) -> usize {
        LogisticRegression::predict(self, row)
    }

    fn name(&self) -> &'static str {
        LogisticRegression::name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linearly_separable(num_classes: usize, per_class: usize) -> Dataset {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..num_classes {
            let center = (c as f64) * 10.0;
            for i in 0..per_class {
                let jitter = (i as f64 % 7.0) * 0.1;
                rows.push(vec![center + jitter, center - jitter]);
                labels.push(c);
            }
        }
        Dataset::from_rows(rows, labels)
    }

    #[test]
    fn fits_binary_separable_data() {
        let data = linearly_separable(2, 30);
        let model = LogisticRegression::fit(&data, &LogRegConfig::default());
        assert!(model.accuracy(&data) > 0.98);
    }

    #[test]
    fn fits_multiclass_separable_data() {
        let data = linearly_separable(5, 20);
        let model = LogisticRegression::fit(&data, &LogRegConfig::default());
        assert!(model.accuracy(&data) > 0.95);
    }

    #[test]
    fn probabilities_sum_to_one_and_favor_true_class() {
        let data = linearly_separable(3, 20);
        let model = LogisticRegression::fit(&data, &LogRegConfig::default());
        let probs = model.predict_proba(&[0.0, 0.0]);
        assert_eq!(probs.len(), 3);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(probs[0] > probs[1] && probs[0] > probs[2]);
    }

    #[test]
    fn strong_regularization_shrinks_weights() {
        let data = linearly_separable(2, 30);
        let loose = LogisticRegression::fit(
            &data,
            &LogRegConfig {
                l2: 1e-6,
                ..LogRegConfig::default()
            },
        );
        let tight = LogisticRegression::fit(
            &data,
            &LogRegConfig {
                l2: 10.0,
                ..LogRegConfig::default()
            },
        );
        let norm = |m: &LogisticRegression| m.weights.iter().map(|w| w * w).sum::<f64>();
        assert!(norm(&tight) < norm(&loose));
    }

    #[test]
    fn handles_constant_features_without_nan() {
        let data = Dataset::from_rows(
            vec![vec![1.0, 5.0], vec![1.0, 5.0], vec![1.0, 5.0]],
            vec![0, 0, 1],
        );
        let model = LogisticRegression::fit(&data, &LogRegConfig::default());
        let probs = model.predict_proba(&[1.0, 5.0]);
        assert!(probs.iter().all(|p| p.is_finite()));
        // ambiguous input: prediction still valid class
        assert!(model.predict(&[1.0, 5.0]) < 2);
    }

    #[test]
    fn empty_dataset_predicts_majority_class_zero() {
        let data = Dataset::new(3, 4);
        let model = LogisticRegression::fit(&data, &LogRegConfig::default());
        assert_eq!(model.predict(&[1.0, 2.0, 3.0]), 0);
    }

    #[test]
    fn short_rows_are_padded_with_zeros_at_prediction_time() {
        let data = linearly_separable(2, 10);
        let model = LogisticRegression::fit(&data, &LogRegConfig::default());
        // prediction with a 1-D row: missing feature treated as 0
        let p = model.predict(&[0.0]);
        assert!(p < 2);
    }
}
