//! Dense training-set representation and splitting utilities.

use opthash_stream::Features;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A supervised multi-class dataset: one dense feature row and one integer
/// label per example.
///
/// In the `opt-hash` pipeline the rows are element features and the labels
/// are the buckets the solver assigned them to, so `num_classes` equals the
/// number of buckets `b`.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    rows: Vec<Vec<f64>>,
    labels: Vec<usize>,
    num_classes: usize,
    num_features: usize,
}

impl Dataset {
    /// Creates an empty dataset expecting `num_features`-dimensional rows and
    /// labels in `[0, num_classes)`.
    pub fn new(num_features: usize, num_classes: usize) -> Self {
        Dataset {
            rows: Vec::new(),
            labels: Vec::new(),
            num_classes,
            num_features,
        }
    }

    /// Builds a dataset from parallel slices of feature vectors and labels.
    ///
    /// `num_classes` is inferred as `max(label) + 1` unless a larger value is
    /// given explicitly via [`Dataset::with_num_classes`].
    pub fn from_rows(rows: Vec<Vec<f64>>, labels: Vec<usize>) -> Self {
        assert_eq!(rows.len(), labels.len(), "rows and labels must align");
        let num_features = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|r| r.len() == num_features),
            "all rows must have the same dimension"
        );
        let num_classes = labels.iter().copied().max().map_or(0, |m| m + 1);
        Dataset {
            rows,
            labels,
            num_classes,
            num_features,
        }
    }

    /// Builds a dataset from [`Features`] values (the representation used by
    /// the stream crate) and labels.
    pub fn from_features(features: &[Features], labels: &[usize]) -> Self {
        assert_eq!(
            features.len(),
            labels.len(),
            "features and labels must align"
        );
        let dim = features.iter().map(Features::dim).max().unwrap_or(0);
        let rows = features
            .iter()
            .map(|f| {
                let mut row = f.as_slice().to_vec();
                row.resize(dim, 0.0);
                row
            })
            .collect();
        Self::from_rows(rows, labels.to_vec())
    }

    /// Overrides the number of classes (useful when some buckets received no
    /// training example but must remain valid predictions).
    pub fn with_num_classes(mut self, num_classes: usize) -> Self {
        assert!(
            num_classes >= self.num_classes,
            "cannot shrink the class count below the observed labels"
        );
        self.num_classes = num_classes;
        self
    }

    /// Appends one example.
    pub fn push(&mut self, row: Vec<f64>, label: usize) {
        if self.rows.is_empty() && self.num_features == 0 {
            self.num_features = row.len();
        }
        assert_eq!(row.len(), self.num_features, "row dimension mismatch");
        self.rows.push(row);
        self.labels.push(label);
        if label >= self.num_classes {
            self.num_classes = label + 1;
        }
    }

    /// Number of examples.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the dataset has no examples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Feature dimensionality.
    #[inline]
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of classes (at least `max(label) + 1`).
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The feature rows.
    #[inline]
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// The labels.
    #[inline]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// One example.
    pub fn example(&self, i: usize) -> (&[f64], usize) {
        (&self.rows[i], self.labels[i])
    }

    /// Builds a new dataset from a subset of example indices (with
    /// repetition allowed, supporting bootstrap sampling).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let rows = indices.iter().map(|&i| self.rows[i].clone()).collect();
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        Dataset {
            rows,
            labels,
            num_classes: self.num_classes,
            num_features: self.num_features,
        }
    }

    /// Splits into `(train, test)` with the given `test_fraction`, shuffling
    /// deterministically with `seed`.
    pub fn train_test_split(&self, test_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            (0.0..1.0).contains(&test_fraction),
            "test fraction must lie in [0, 1)"
        );
        let mut indices: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        indices.shuffle(&mut rng);
        let test_len = (self.len() as f64 * test_fraction).round() as usize;
        let (test_idx, train_idx) = indices.split_at(test_len);
        (self.subset(train_idx), self.subset(test_idx))
    }

    /// Per-class example counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// The most frequent class (ties broken by the smaller label), or 0 for
    /// an empty dataset. Used as the fallback prediction.
    pub fn majority_class(&self) -> usize {
        self.class_counts()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(label, _)| label)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::from_rows(
            vec![
                vec![0.0, 0.0],
                vec![0.1, 0.2],
                vec![5.0, 5.0],
                vec![5.1, 4.9],
                vec![5.2, 5.1],
            ],
            vec![0, 0, 1, 1, 1],
        )
    }

    #[test]
    fn from_rows_infers_shape() {
        let d = toy();
        assert_eq!(d.len(), 5);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.example(2), (&[5.0, 5.0][..], 1));
        assert!(!d.is_empty());
    }

    #[test]
    fn from_features_pads_to_common_dimension() {
        let feats = vec![Features::new(vec![1.0]), Features::new(vec![2.0, 3.0])];
        let d = Dataset::from_features(&feats, &[0, 1]);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.rows()[0], vec![1.0, 0.0]);
    }

    #[test]
    fn push_grows_class_count() {
        let mut d = Dataset::new(2, 1);
        d.push(vec![1.0, 2.0], 0);
        d.push(vec![2.0, 3.0], 4);
        assert_eq!(d.num_classes(), 5);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn with_num_classes_extends_but_never_shrinks() {
        let d = toy().with_num_classes(7);
        assert_eq!(d.num_classes(), 7);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn with_num_classes_rejects_shrinking() {
        let _ = toy().with_num_classes(1);
    }

    #[test]
    fn subset_supports_bootstrap_repetition() {
        let d = toy();
        let s = d.subset(&[0, 0, 4]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.labels(), &[0, 0, 1]);
        assert_eq!(s.num_classes(), 2);
    }

    #[test]
    fn train_test_split_partitions_every_example() {
        let d = toy();
        let (train, test) = d.train_test_split(0.4, 3);
        assert_eq!(train.len() + test.len(), d.len());
        assert_eq!(test.len(), 2);
    }

    #[test]
    fn class_counts_and_majority() {
        let d = toy();
        assert_eq!(d.class_counts(), vec![2, 3]);
        assert_eq!(d.majority_class(), 1);
        assert_eq!(Dataset::new(2, 3).majority_class(), 0);
    }

    #[test]
    #[should_panic(expected = "rows and labels must align")]
    fn mismatched_lengths_panic() {
        let _ = Dataset::from_rows(vec![vec![1.0]], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "same dimension")]
    fn ragged_rows_panic() {
        let _ = Dataset::from_rows(vec![vec![1.0], vec![1.0, 2.0]], vec![0, 1]);
    }
}
