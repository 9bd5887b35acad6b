//! Criterion micro-benchmarks for the sketch substrate: update and query
//! throughput of the Count-Min Sketch, the Count Sketch, the Learned
//! Count-Min and the Bloom filter. These support the paper's constant-time
//! update/query claims (Section 1).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use opthash_sketch::{BloomFilter, CountMinSketch, CountSketch, LearnedCountMin};
use opthash_stream::ElementId;

fn ids(n: usize) -> Vec<ElementId> {
    (0..n as u64)
        .map(|i| ElementId(i * 2_654_435_761 % 100_000))
        .collect()
}

fn bench_count_min(c: &mut Criterion) {
    let mut group = c.benchmark_group("count_min");
    let keys = ids(10_000);
    for &width in &[256usize, 4096] {
        group.bench_with_input(BenchmarkId::new("update", width), &width, |b, &w| {
            let mut cms = CountMinSketch::new(w, 4, 1);
            let mut i = 0;
            b.iter(|| {
                cms.add(keys[i % keys.len()], 1);
                i += 1;
            });
        });
        group.bench_with_input(BenchmarkId::new("query", width), &width, |b, &w| {
            let mut cms = CountMinSketch::new(w, 4, 1);
            for &k in &keys {
                cms.add(k, 1);
            }
            let mut i = 0;
            b.iter(|| {
                black_box(cms.query(keys[i % keys.len()]));
                i += 1;
            });
        });
    }
    group.finish();
}

fn bench_count_sketch(c: &mut Criterion) {
    let keys = ids(10_000);
    let mut group = c.benchmark_group("count_sketch");
    group.bench_function("update", |b| {
        let mut cs = CountSketch::new(1024, 5, 1);
        let mut i = 0;
        b.iter(|| {
            cs.add(keys[i % keys.len()], 1);
            i += 1;
        });
    });
    group.bench_function("query", |b| {
        let mut cs = CountSketch::new(1024, 5, 1);
        for &k in &keys {
            cs.add(k, 1);
        }
        let mut i = 0;
        b.iter(|| {
            black_box(cs.query_signed(keys[i % keys.len()]));
            i += 1;
        });
    });
    group.finish();
}

fn bench_learned_cms(c: &mut Criterion) {
    let keys = ids(10_000);
    let heavy: Vec<ElementId> = keys.iter().take(100).copied().collect();
    let mut group = c.benchmark_group("learned_cms");
    group.bench_function("update", |b| {
        let mut lcms = LearnedCountMin::new(heavy.clone(), 1024, 2, 1);
        let mut i = 0;
        b.iter(|| {
            lcms.add(keys[i % keys.len()], 1);
            i += 1;
        });
    });
    group.bench_function("query", |b| {
        let mut lcms = LearnedCountMin::new(heavy.clone(), 1024, 2, 1);
        for &k in &keys {
            lcms.add(k, 1);
        }
        let mut i = 0;
        b.iter(|| {
            black_box(lcms.query(keys[i % keys.len()]));
            i += 1;
        });
    });
    group.finish();
}

fn bench_bloom(c: &mut Criterion) {
    let keys = ids(10_000);
    let mut group = c.benchmark_group("bloom");
    group.bench_function("insert", |b| {
        let mut bloom = BloomFilter::new(1 << 16, 4, 1);
        let mut i = 0;
        b.iter(|| {
            bloom.insert(keys[i % keys.len()]);
            i += 1;
        });
    });
    group.bench_function("contains", |b| {
        let mut bloom = BloomFilter::new(1 << 16, 4, 1);
        for &k in &keys {
            bloom.insert(k);
        }
        let mut i = 0;
        b.iter(|| {
            black_box(bloom.contains(keys[i % keys.len()]));
            i += 1;
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_count_min,
    bench_count_sketch,
    bench_learned_cms,
    bench_bloom
);
criterion_main!(benches);
