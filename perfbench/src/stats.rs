//! Order statistics and the in-memory span recorder used by every workload.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile of a sample, and whether the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at the percentile (0 for an empty sample).
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// A percentile is reportable only with at least [`MIN_BEYOND`] samples
    /// beyond it.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile `q` (in `0..=1`) of `sorted`, ascending.
pub fn percentile(sorted: &[f64], q: f64) -> Percentile {
    if sorted.is_empty() {
        return Percentile {
            value: 0.0,
            beyond: 0,
        };
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Percentile {
        value: sorted[rank - 1],
        beyond: n - rank,
    }
}

/// A tail percentile that one bad stretch of a run cannot dominate: the
/// samples, in arrival order, are cut into up to ten consecutive chunks that
/// each keep [`MIN_BEYOND`] samples beyond `q`, and the median of the
/// chunks' percentiles is returned. `beyond` is the smallest chunk's
/// support; with too few samples for two chunks this is the plain
/// percentile.
pub fn chunked_percentile(in_order: &[f64], q: f64) -> Percentile {
    let n = in_order.len();
    let chunks = ((n as f64 * (1.0 - q)) / MIN_BEYOND as f64).floor() as usize;
    let chunks = chunks.clamp(1, 10);
    let size = n / chunks;
    if chunks == 1 || size == 0 {
        return percentile(&sorted(in_order.to_vec()), q);
    }
    let per_chunk: Vec<Percentile> = in_order
        .chunks(size)
        .take(chunks)
        .map(|chunk| percentile(&sorted(chunk.to_vec()), q))
        .collect();
    let values: Vec<f64> = per_chunk.iter().map(|p| p.value).collect();
    Percentile {
        value: median(&values),
        beyond: per_chunk.iter().map(|p| p.beyond).min().unwrap_or(0),
    }
}

/// Sorts a sample in place and returns it, for the helpers above.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample (the mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values.to_vec());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean of a sample (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Seconds as a float.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Spans recorded around calls into one layer: every span's duration, kept
/// in memory until the run ends.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    durations: Vec<f64>,
}

impl Spans {
    /// Number of spans recorded.
    pub fn count(&self) -> usize {
        self.durations.len()
    }

    /// Sum of all span durations, in seconds.
    pub fn total_s(&self) -> f64 {
        self.durations.iter().sum()
    }

    /// Median span duration, in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.durations)
    }

    /// Longest span, in seconds.
    pub fn max_s(&self) -> f64 {
        self.durations.iter().copied().fold(0.0, f64::max)
    }
}

/// The traced run's span store, keyed by layer span name. Recording is a
/// no-op when tracing is off, so untraced runs pay one branch per call.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: BTreeMap<&'static str, Spans>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            spans: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, recording its duration under `name` when tracing.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed());
        out
    }

    /// Records an externally timed span.
    pub fn record(&mut self, name: &'static str, d: Duration) {
        if self.enabled {
            self.spans
                .entry(name)
                .or_default()
                .durations
                .push(d.as_secs_f64());
        }
    }

    /// The spans recorded under `name` (empty if none).
    pub fn get(&self, name: &str) -> Spans {
        self.spans.get(name).cloned().unwrap_or_default()
    }
}

/// Times `iters` calls of `f` as one span and returns seconds per call; for
/// calls too short to time one by one without the clock dominating.
pub fn per_call_s(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_secs_f64() / iters.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5).value, 50.0);
        assert_eq!(percentile(&s, 0.9).value, 90.0);
        assert_eq!(percentile(&s, 0.99).value, 99.0);
        assert_eq!(percentile(&s, 1.0).value, 100.0);
        assert_eq!(percentile(&s, 0.0).value, 1.0);
        assert_eq!(percentile(&[], 0.5).value, 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples leaves exactly 10 beyond: reportable.
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        let p90 = percentile(&s, 0.9);
        assert_eq!(p90.beyond, 10);
        assert!(p90.supported());
        // p99 of the same sample leaves 1: not reportable.
        assert!(!percentile(&s, 0.99).supported());
        // p99 needs at least 1,000 samples.
        let big: Vec<f64> = (0..1_000).map(f64::from).collect();
        assert!(percentile(&big, 0.99).supported());
        assert!(!percentile(&big[..999], 0.99).supported());
    }

    #[test]
    fn chunked_tails_resist_one_bad_stretch() {
        // 10,000 samples of 1.0 with one stretch of 200 slow samples: the
        // plain p99 lands in the stretch, the chunked p99 does not.
        let mut s = vec![1.0; 10_000];
        for v in &mut s[3_000..3_200] {
            *v = 100.0;
        }
        assert_eq!(percentile(&sorted(s.clone()), 0.99).value, 100.0);
        let chunked = chunked_percentile(&s, 0.99);
        assert_eq!(chunked.value, 1.0);
        assert!(chunked.supported());
        // Too few samples for two chunks: the plain percentile.
        let small: Vec<f64> = (0..150).map(f64::from).collect();
        assert_eq!(chunked_percentile(&small, 0.9), percentile(&small, 0.9));
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn tracer_records_only_when_enabled() {
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", || 7), 7);
        assert_eq!(off.get("x").count(), 0);
        let mut on = Tracer::new(true);
        on.span("x", || ());
        on.record("x", Duration::from_millis(2));
        let spans = on.get("x");
        assert_eq!(spans.count(), 2);
        assert!(spans.total_s() >= 0.002);
        assert!(spans.max_s() >= 0.002);
    }
}
