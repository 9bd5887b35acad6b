//! Stream elements: unique IDs and feature vectors.
//!
//! The paper models every element of the universe as `u = (k, x)` where `k`
//! is a unique ID and `x ∈ X` is a feature vector (Section 2). Features are
//! what allow the learned hashing scheme to place *unseen* elements into a
//! bucket of similar elements (Section 5.2).

use std::fmt;

/// Unique identifier of an element of the universe `U`.
///
/// IDs are dense `u64`s; generators in `opthash-datagen` assign them
/// contiguously, but nothing in the workspace relies on density. For
/// text-keyed universes (search queries) the ID is a stable hash of the key
/// maintained by the dataset, so equality of IDs coincides with equality of
/// keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementId(pub u64);

impl ElementId {
    /// Returns the raw `u64` value of the ID.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl From<u64> for ElementId {
    fn from(v: u64) -> Self {
        ElementId(v)
    }
}

impl From<usize> for ElementId {
    fn from(v: usize) -> Self {
        ElementId(v as u64)
    }
}

impl fmt::Display for ElementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Dense feature vector `x ∈ X` associated with an element.
///
/// Both the similarity term of the hashing objective (Section 4.1) and the
/// bucket classifier for unseen elements (Section 5.2) consume features
/// through this type. Features are plain `f64`s; text features produced by
/// `opthash-ml::features` (bag-of-words counts plus character statistics) are
/// flattened into the same representation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Features(pub Vec<f64>);

impl Features {
    /// Creates a feature vector from raw values.
    pub fn new(values: Vec<f64>) -> Self {
        Features(values)
    }

    /// Creates an empty (zero-dimensional) feature vector.
    ///
    /// Useful for the `λ = 1` regime where features are ignored entirely.
    pub fn empty() -> Self {
        Features(Vec::new())
    }

    /// Number of dimensions.
    #[inline]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the vector has no dimensions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Immutable view of the raw values.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Euclidean (L2) distance to another feature vector.
    ///
    /// This is the `‖x_i − x_k‖₂` term of the similarity error in
    /// Problem (1). If the two vectors have different dimensionality the
    /// missing coordinates are treated as zero, which lets callers mix
    /// elements whose sparse text features were truncated differently.
    pub fn l2_distance(&self, other: &Features) -> f64 {
        let (a, b) = (&self.0, &other.0);
        let n = a.len().max(b.len());
        let mut acc = 0.0;
        for i in 0..n {
            let x = a.get(i).copied().unwrap_or(0.0);
            let y = b.get(i).copied().unwrap_or(0.0);
            let d = x - y;
            acc += d * d;
        }
        acc.sqrt()
    }

    /// Squared Euclidean distance (avoids the square root when only ordering
    /// matters, e.g. nearest-centroid assignment inside the solver).
    pub fn l2_distance_sq(&self, other: &Features) -> f64 {
        let (a, b) = (&self.0, &other.0);
        let n = a.len().max(b.len());
        let mut acc = 0.0;
        for i in 0..n {
            let x = a.get(i).copied().unwrap_or(0.0);
            let y = b.get(i).copied().unwrap_or(0.0);
            let d = x - y;
            acc += d * d;
        }
        acc
    }
}

impl From<Vec<f64>> for Features {
    fn from(v: Vec<f64>) -> Self {
        Features(v)
    }
}

impl std::ops::Index<usize> for Features {
    type Output = f64;
    fn index(&self, idx: usize) -> &f64 {
        &self.0[idx]
    }
}

/// An element of the universe: a unique ID plus its feature vector.
///
/// `StreamElement` is the unit carried by a [`crate::Stream`]. The same
/// element (same ID) typically appears many times in a stream; its features
/// are identical across appearances.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamElement {
    /// Unique ID `k` of the element.
    pub id: ElementId,
    /// Feature vector `x` of the element.
    pub features: Features,
}

impl StreamElement {
    /// Creates a new element.
    pub fn new(id: impl Into<ElementId>, features: impl Into<Features>) -> Self {
        StreamElement {
            id: id.into(),
            features: features.into(),
        }
    }

    /// Creates an element with no features (used in `λ = 1` workloads).
    pub fn without_features(id: impl Into<ElementId>) -> Self {
        StreamElement {
            id: id.into(),
            features: Features::empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_id_display_and_conversions() {
        let id: ElementId = 42u64.into();
        assert_eq!(id.raw(), 42);
        assert_eq!(id.to_string(), "e42");
        let id2: ElementId = 7usize.into();
        assert_eq!(id2, ElementId(7));
        assert!(id2 < id);
    }

    #[test]
    fn l2_distance_matches_hand_computation() {
        let a = Features::new(vec![0.0, 3.0]);
        let b = Features::new(vec![4.0, 0.0]);
        assert!((a.l2_distance(&b) - 5.0).abs() < 1e-12);
        assert!((a.l2_distance_sq(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn l2_distance_is_symmetric_and_zero_on_self() {
        let a = Features::new(vec![1.5, -2.0, 0.25]);
        let b = Features::new(vec![0.5, 1.0, -3.0]);
        assert_eq!(a.l2_distance(&b), b.l2_distance(&a));
        assert_eq!(a.l2_distance(&a), 0.0);
    }

    #[test]
    fn l2_distance_pads_shorter_vector_with_zeros() {
        let a = Features::new(vec![3.0]);
        let b = Features::new(vec![3.0, 4.0]);
        assert!((a.l2_distance(&b) - 4.0).abs() < 1e-12);
        // symmetric in argument order too
        assert!((b.l2_distance(&a) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn features_indexing_and_dim() {
        let f = Features::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(f.dim(), 3);
        assert_eq!(f[1], 2.0);
        assert!(!f.is_empty());
        assert!(Features::empty().is_empty());
    }

    #[test]
    fn stream_element_constructors() {
        let e = StreamElement::new(3u64, vec![1.0, 2.0]);
        assert_eq!(e.id, ElementId(3));
        assert_eq!(e.features.dim(), 2);
        let bare = StreamElement::without_features(9u64);
        assert!(bare.features.is_empty());
    }
}
