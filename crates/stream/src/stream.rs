//! Finite streams of element arrivals and prefix handling.
//!
//! A [`Stream`] is the ordered sequence `S = (u_1, …, u_|S|)` of Section 2.
//! The paper's approach always splits a stream into an observed prefix `S0`
//! used for learning the hashing scheme and the remaining suffix processed
//! online; [`Stream::split_prefix`] and [`StreamPrefix`] model that split.

use crate::element::{ElementId, Features, StreamElement};
use crate::frequency::FrequencyVector;
use std::collections::HashMap;

/// A finite, ordered stream of element arrivals.
///
/// Elements are stored by value; repeated arrivals of the same element repeat
/// its ID (and, for memory economy in large synthetic workloads, generators
/// may attach the features only to a side universe table and leave the
/// per-arrival features empty — both layouts are supported by the estimators,
/// which only need features at *training* time).
#[derive(Debug, Clone, Default)]
pub struct Stream {
    arrivals: Vec<StreamElement>,
}

impl Stream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Stream {
            arrivals: Vec::new(),
        }
    }

    /// Creates a stream from a vector of arrivals, preserving order.
    pub fn from_arrivals(arrivals: Vec<StreamElement>) -> Self {
        Stream { arrivals }
    }

    /// Creates a stream of bare IDs (no features), mainly for tests and
    /// `λ = 1` workloads.
    pub fn from_ids<I>(ids: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<ElementId>,
    {
        Stream {
            arrivals: ids
                .into_iter()
                .map(|id| StreamElement::without_features(id.into()))
                .collect(),
        }
    }

    /// Appends one arrival at the end of the stream.
    pub fn push(&mut self, element: StreamElement) {
        self.arrivals.push(element);
    }

    /// Number of arrivals `|S|` (with multiplicity).
    #[inline]
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Returns `true` if the stream has no arrivals.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Iterates over arrivals in order.
    pub fn iter(&self) -> impl Iterator<Item = &StreamElement> {
        self.arrivals.iter()
    }

    /// Immutable view of the underlying arrivals.
    pub fn as_slice(&self) -> &[StreamElement] {
        &self.arrivals
    }

    /// Exact frequency distribution of the whole stream.
    pub fn frequencies(&self) -> FrequencyVector {
        FrequencyVector::from_stream(self)
    }

    /// Splits the stream into an observed prefix of `prefix_len` arrivals and
    /// the remaining suffix. If `prefix_len >= len()` the suffix is empty.
    pub fn split_prefix(&self, prefix_len: usize) -> (StreamPrefix, Stream) {
        let cut = prefix_len.min(self.arrivals.len());
        let prefix = Stream {
            arrivals: self.arrivals[..cut].to_vec(),
        };
        let suffix = Stream {
            arrivals: self.arrivals[cut..].to_vec(),
        };
        (StreamPrefix::from_stream(prefix), suffix)
    }

    /// Summary statistics of the stream (length, distinct count, max
    /// frequency). Useful for sizing estimators and reporting experiments.
    pub fn stats(&self) -> StreamStats {
        let freqs = self.frequencies();
        StreamStats {
            arrivals: self.len(),
            distinct: freqs.support_size(),
            max_frequency: freqs.max_frequency(),
            total: freqs.total(),
        }
    }
}

impl FromIterator<StreamElement> for Stream {
    fn from_iter<T: IntoIterator<Item = StreamElement>>(iter: T) -> Self {
        Stream {
            arrivals: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Stream {
    type Item = StreamElement;
    type IntoIter = std::vec::IntoIter<StreamElement>;
    fn into_iter(self) -> Self::IntoIter {
        self.arrivals.into_iter()
    }
}

/// Summary statistics of a [`Stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Total number of arrivals `|S|`.
    pub arrivals: usize,
    /// Number of distinct elements observed.
    pub distinct: usize,
    /// Largest single-element frequency.
    pub max_frequency: u64,
    /// Sum of all frequencies (equals `arrivals` for exact counting).
    pub total: u64,
}

/// The observed stream prefix `S0` together with the derived quantities the
/// learning phase needs: the set `U0` of distinct elements, their empirical
/// frequencies `f⁰`, and one representative feature vector per element.
///
/// The prefix is the *training set* of the whole approach: the solver
/// consumes `(f⁰_i, x_i)` pairs and the classifier is trained on
/// `(x_i, bucket_i)` pairs (Sections 4 and 5).
#[derive(Debug, Clone)]
pub struct StreamPrefix {
    /// Number of arrivals `|S0|`: the sum of [`Self::frequencies`].
    arrivals: usize,
    /// Distinct elements of the prefix in first-appearance order.
    elements: Vec<StreamElement>,
    /// Empirical frequency of each distinct element, aligned with `elements`.
    frequencies: Vec<u64>,
    /// Map from element ID to its dense index in `elements` / `frequencies`.
    index: HashMap<ElementId, usize>,
}

impl StreamPrefix {
    /// Builds a prefix view from a stream (consuming it as the prefix).
    pub fn from_stream(stream: Stream) -> Self {
        let mut elements: Vec<StreamElement> = Vec::new();
        let mut frequencies: Vec<u64> = Vec::new();
        let mut index: HashMap<ElementId, usize> = HashMap::new();
        for arrival in stream.iter() {
            match index.get(&arrival.id) {
                Some(&i) => {
                    frequencies[i] += 1;
                    // Prefer a non-empty feature vector if the first arrival
                    // carried none (generators may attach features lazily).
                    if elements[i].features.is_empty() && !arrival.features.is_empty() {
                        elements[i].features = arrival.features.clone();
                    }
                }
                None => {
                    index.insert(arrival.id, elements.len());
                    elements.push(arrival.clone());
                    frequencies.push(1);
                }
            }
        }
        StreamPrefix {
            arrivals: stream.len(),
            elements,
            frequencies,
            index,
        }
    }

    /// Builds a prefix directly from `(element, frequency)` pairs, e.g. when a
    /// dataset already aggregates day-0 counts (Section 7.3 uses the first
    /// day's aggregated query counts).
    pub fn from_counts(pairs: Vec<(StreamElement, u64)>) -> Self {
        let mut elements = Vec::with_capacity(pairs.len());
        let mut frequencies = Vec::with_capacity(pairs.len());
        let mut index = HashMap::with_capacity(pairs.len());
        let mut arrivals = 0usize;
        for (element, count) in pairs {
            if count == 0 {
                continue;
            }
            arrivals += usize::try_from(count).expect("prefix arrival count fits in usize");
            if let Some(&i) = index.get(&element.id) {
                let i: usize = i;
                frequencies[i] += count;
                continue;
            }
            index.insert(element.id, elements.len());
            elements.push(element);
            frequencies.push(count);
        }
        StreamPrefix {
            arrivals,
            elements,
            frequencies,
            index,
        }
    }

    /// Number of distinct elements `n = |U0|`.
    #[inline]
    pub fn distinct_len(&self) -> usize {
        self.elements.len()
    }

    /// Total number of arrivals in the prefix `|S0|`.
    #[inline]
    pub fn arrival_len(&self) -> usize {
        self.arrivals
    }

    /// Distinct elements in first-appearance order.
    pub fn elements(&self) -> &[StreamElement] {
        &self.elements
    }

    /// Empirical frequencies `f⁰`, aligned with [`Self::elements`].
    pub fn frequencies(&self) -> &[u64] {
        &self.frequencies
    }

    /// Empirical frequencies as `f64`, the representation the solver uses.
    pub fn frequencies_f64(&self) -> Vec<f64> {
        self.frequencies.iter().map(|&f| f as f64).collect()
    }

    /// Feature vectors aligned with [`Self::elements`].
    pub fn features(&self) -> Vec<Features> {
        self.elements.iter().map(|e| e.features.clone()).collect()
    }

    /// Dense index of an element ID inside the prefix, if it appeared.
    pub fn index_of(&self, id: ElementId) -> Option<usize> {
        self.index.get(&id).copied()
    }

    /// Returns `true` if the element appeared in the prefix.
    pub fn contains(&self, id: ElementId) -> bool {
        self.index.contains_key(&id)
    }

    /// Empirical frequency of an element (0 if it did not appear).
    pub fn frequency_of(&self, id: ElementId) -> u64 {
        self.index_of(id).map(|i| self.frequencies[i]).unwrap_or(0)
    }

    /// Down-samples the prefix to at most `max_elements` distinct elements,
    /// sampling *without replacement with probability proportional to the
    /// observed frequency*, as done for the real-world experiments where the
    /// first day alone has hundreds of thousands of unique queries
    /// (Section 7.3). Deterministic given the same `seed`.
    pub fn sample_by_frequency(&self, max_elements: usize, seed: u64) -> StreamPrefix {
        if self.distinct_len() <= max_elements {
            return self.clone();
        }
        // Weighted sampling without replacement via the exponential-sort
        // (Efraimidis–Spirakis) trick with a deterministic xorshift RNG so the
        // crate does not need a `rand` dependency.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        let mut next_uniform = || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let bits = state.wrapping_mul(0x2545F4914F6CDD1D);
            ((bits >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let mut keyed: Vec<(f64, usize)> = self
            .frequencies
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let u: f64 = next_uniform().max(f64::MIN_POSITIVE);
                // key = u^(1/w); larger keys are kept
                let key = u.powf(1.0 / (f as f64));
                (key, i)
            })
            .collect();
        keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        keyed.truncate(max_elements);
        let mut picked: Vec<usize> = keyed.into_iter().map(|(_, i)| i).collect();
        picked.sort_unstable();
        let pairs: Vec<(StreamElement, u64)> = picked
            .into_iter()
            .map(|i| (self.elements[i].clone(), self.frequencies[i]))
            .collect();
        StreamPrefix::from_counts(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc_stream() -> Stream {
        // a a b a c b
        Stream::from_ids([1u64, 1, 2, 1, 3, 2])
    }

    #[test]
    fn stream_len_and_stats() {
        let s = abc_stream();
        assert_eq!(s.len(), 6);
        let stats = s.stats();
        assert_eq!(stats.arrivals, 6);
        assert_eq!(stats.distinct, 3);
        assert_eq!(stats.max_frequency, 3);
        assert_eq!(stats.total, 6);
    }

    #[test]
    fn split_prefix_partitions_arrivals() {
        let s = abc_stream();
        let (prefix, suffix) = s.split_prefix(4);
        assert_eq!(prefix.arrival_len(), 4);
        assert_eq!(suffix.len(), 2);
        // prefix saw a(x3), b(x1)
        assert_eq!(prefix.distinct_len(), 2);
        assert_eq!(prefix.frequency_of(ElementId(1)), 3);
        assert_eq!(prefix.frequency_of(ElementId(2)), 1);
        assert_eq!(prefix.frequency_of(ElementId(3)), 0);
        assert!(!prefix.contains(ElementId(3)));
    }

    #[test]
    fn split_prefix_longer_than_stream_gives_empty_suffix() {
        let s = abc_stream();
        let (prefix, suffix) = s.split_prefix(100);
        assert_eq!(prefix.arrival_len(), 6);
        assert!(suffix.is_empty());
    }

    #[test]
    fn prefix_from_counts_aggregates_duplicates() {
        let pairs = vec![
            (StreamElement::without_features(1u64), 5),
            (StreamElement::without_features(2u64), 3),
            (StreamElement::without_features(1u64), 2),
            (StreamElement::without_features(4u64), 0),
        ];
        let p = StreamPrefix::from_counts(pairs);
        assert_eq!(p.distinct_len(), 2);
        assert_eq!(p.frequency_of(ElementId(1)), 7);
        assert_eq!(p.frequency_of(ElementId(2)), 3);
        assert_eq!(p.frequency_of(ElementId(4)), 0);
    }

    #[test]
    fn prefix_from_counts_arrival_len_sums_the_counts() {
        let p = StreamPrefix::from_counts(vec![
            (StreamElement::without_features(1u64), 5),
            (StreamElement::without_features(2u64), 3),
            (StreamElement::without_features(1u64), 2),
        ]);
        assert_eq!(p.arrival_len(), 10);
        assert_eq!(p.arrival_len() as u64, p.frequencies().iter().sum::<u64>());
        let sampled = p.sample_by_frequency(1, 3);
        assert_eq!(sampled.arrival_len() as u64, sampled.frequencies()[0]);
    }

    #[test]
    fn prefix_keeps_first_appearance_order_and_index() {
        let s = Stream::from_ids([5u64, 9, 5, 7]);
        let (p, _) = s.split_prefix(4);
        let ids: Vec<u64> = p.elements().iter().map(|e| e.id.raw()).collect();
        assert_eq!(ids, vec![5, 9, 7]);
        assert_eq!(p.index_of(ElementId(9)), Some(1));
        assert_eq!(p.index_of(ElementId(42)), None);
    }

    #[test]
    fn prefix_prefers_non_empty_features() {
        let mut s = Stream::new();
        s.push(StreamElement::without_features(1u64));
        s.push(StreamElement::new(1u64, vec![2.0, 3.0]));
        let p = StreamPrefix::from_stream(s);
        assert_eq!(p.elements()[0].features.dim(), 2);
    }

    #[test]
    fn sample_by_frequency_is_deterministic_and_bounded() {
        let pairs: Vec<(StreamElement, u64)> = (0..100u64)
            .map(|i| (StreamElement::without_features(i), i + 1))
            .collect();
        let p = StreamPrefix::from_counts(pairs);
        let s1 = p.sample_by_frequency(10, 7);
        let s2 = p.sample_by_frequency(10, 7);
        assert_eq!(s1.distinct_len(), 10);
        let ids1: Vec<u64> = s1.elements().iter().map(|e| e.id.raw()).collect();
        let ids2: Vec<u64> = s2.elements().iter().map(|e| e.id.raw()).collect();
        assert_eq!(ids1, ids2);
        // sampling proportional to frequency should prefer the heavy tail end
        let mean_id: f64 = ids1.iter().map(|&i| i as f64).sum::<f64>() / ids1.len() as f64;
        assert!(mean_id > 50.0, "expected heavy elements, mean id {mean_id}");
    }

    #[test]
    fn sample_by_frequency_noop_when_small() {
        let p = StreamPrefix::from_counts(vec![(StreamElement::without_features(1u64), 2)]);
        let s = p.sample_by_frequency(10, 1);
        assert_eq!(s.distinct_len(), 1);
    }

    #[test]
    fn stream_from_iterator_round_trips() {
        let elems = vec![
            StreamElement::new(1u64, vec![0.0]),
            StreamElement::new(2u64, vec![1.0]),
        ];
        let s: Stream = elems.clone().into_iter().collect();
        assert_eq!(s.as_slice(), elems.as_slice());
        let back: Vec<StreamElement> = s.into_iter().collect();
        assert_eq!(back, elems);
    }
}
