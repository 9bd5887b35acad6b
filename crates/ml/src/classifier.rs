//! The common classifier interface and the model-family selector.

use crate::cart::{CartConfig, DecisionTree};
use crate::dataset::Dataset;
use crate::forest::{ForestConfig, RandomForest};
use crate::logreg::{LogRegConfig, LogisticRegression};

/// A trained multi-class classifier mapping dense feature rows to class
/// labels (buckets).
pub trait Classifier {
    /// Predicts the class of one feature row.
    fn predict(&self, row: &[f64]) -> usize;

    /// Predicts the classes of many rows.
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        rows.iter().map(|r| self.predict(r)).collect()
    }

    /// Fraction of correctly classified examples of a dataset.
    fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data
            .rows()
            .iter()
            .zip(data.labels())
            .filter(|(row, &label)| self.predict(row) == label)
            .count();
        correct as f64 / data.len() as f64
    }

    /// Human-readable model-family name (`logreg`, `cart`, `rf`).
    fn name(&self) -> &'static str;
}

/// Which model family to train — the axis Experiment 5 of the paper varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClassifierKind {
    /// Multinomial logistic regression (`logreg`).
    LogisticRegression,
    /// CART decision tree (`cart`) — the paper's default for synthetic data.
    #[default]
    Cart,
    /// Random forest (`rf`) — the paper's choice for the query-log study.
    RandomForest,
}

impl ClassifierKind {
    /// All supported kinds, in the order the paper lists them.
    pub fn all() -> [ClassifierKind; 3] {
        [
            ClassifierKind::LogisticRegression,
            ClassifierKind::Cart,
            ClassifierKind::RandomForest,
        ]
    }

    /// The short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            ClassifierKind::LogisticRegression => "logreg",
            ClassifierKind::Cart => "cart",
            ClassifierKind::RandomForest => "rf",
        }
    }

    /// Trains a classifier of this kind with its default hyper-parameters.
    pub fn fit(&self, data: &Dataset, seed: u64) -> TrainedClassifier {
        match self {
            ClassifierKind::LogisticRegression => {
                TrainedClassifier::LogReg(LogisticRegression::fit(data, &LogRegConfig::default()))
            }
            ClassifierKind::Cart => {
                TrainedClassifier::Cart(DecisionTree::fit(data, &CartConfig::default()))
            }
            ClassifierKind::RandomForest => TrainedClassifier::Forest(RandomForest::fit(
                data,
                &ForestConfig {
                    seed,
                    ..ForestConfig::default()
                },
            )),
        }
    }
}

impl std::fmt::Display for ClassifierKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A trained classifier of any supported family, usable behind one type so
/// the `opt-hash` estimator does not need generics over the model family.
#[derive(Debug, Clone)]
pub enum TrainedClassifier {
    /// A trained multinomial logistic regression.
    LogReg(LogisticRegression),
    /// A trained CART decision tree.
    Cart(DecisionTree),
    /// A trained random forest.
    Forest(RandomForest),
}

impl Classifier for TrainedClassifier {
    fn predict(&self, row: &[f64]) -> usize {
        match self {
            TrainedClassifier::LogReg(m) => m.predict(row),
            TrainedClassifier::Cart(m) => m.predict(row),
            TrainedClassifier::Forest(m) => m.predict(row),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            TrainedClassifier::LogReg(m) => m.name(),
            TrainedClassifier::Cart(m) => m.name(),
            TrainedClassifier::Forest(m) => m.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> Dataset {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let x = i as f64 * 0.05;
            rows.push(vec![x, x]);
            labels.push(0);
            rows.push(vec![x + 10.0, x + 10.0]);
            labels.push(1);
        }
        Dataset::from_rows(rows, labels)
    }

    #[test]
    fn every_kind_learns_a_separable_problem() {
        let data = separable();
        for kind in ClassifierKind::all() {
            let model = kind.fit(&data, 7);
            let acc = model.accuracy(&data);
            assert!(acc > 0.95, "{kind} accuracy {acc}");
            assert_eq!(model.name(), kind.name());
        }
    }

    #[test]
    fn predict_batch_matches_predict() {
        let data = separable();
        let model = ClassifierKind::Cart.fit(&data, 1);
        let batch = model.predict_batch(data.rows());
        for (i, &p) in batch.iter().enumerate() {
            assert_eq!(p, model.predict(&data.rows()[i]));
        }
    }

    #[test]
    fn accuracy_of_empty_dataset_is_zero() {
        let data = separable();
        let model = ClassifierKind::Cart.fit(&data, 1);
        let empty = Dataset::new(2, 2);
        assert_eq!(model.accuracy(&empty), 0.0);
    }

    #[test]
    fn kind_names_and_display() {
        assert_eq!(ClassifierKind::LogisticRegression.name(), "logreg");
        assert_eq!(ClassifierKind::Cart.to_string(), "cart");
        assert_eq!(ClassifierKind::RandomForest.to_string(), "rf");
        assert_eq!(ClassifierKind::all().len(), 3);
    }
}
