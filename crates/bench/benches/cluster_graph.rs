//! Microbenchmarks of the deduction substrate: incremental `ClusterGraph`
//! insert/deduce at three sizes, and query throughput on a built graph.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowdjoin_graph::{ClusterGraph, EdgeLabel};
use crowdjoin_util::SplitMix64;
use std::hint::black_box;

/// A consistent random label sequence over `n` objects (half-size entity
/// universe, ~4n candidate edges).
fn sequence(n: u32, seed: u64) -> Vec<(u32, u32, EdgeLabel)> {
    let mut rng = SplitMix64::new(seed);
    let entity: Vec<u32> =
        (0..n).map(|_| (rng.next_u64() % (n as u64 / 2).max(1)) as u32).collect();
    let mut out = Vec::new();
    for _ in 0..n * 4 {
        let a = (rng.next_u64() % n as u64) as u32;
        let b = (rng.next_u64() % n as u64) as u32;
        if a != b {
            let label = if entity[a as usize] == entity[b as usize] {
                EdgeLabel::Matching
            } else {
                EdgeLabel::NonMatching
            };
            out.push((a, b, label));
        }
    }
    out
}

fn bench_insert_deduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_graph/insert_deduce");
    for &n in &[100u32, 1_000, 10_000] {
        let seq = sequence(n, 42);
        group.bench_with_input(BenchmarkId::new("cluster_graph", n), &seq, |b, seq| {
            b.iter(|| {
                let mut g = ClusterGraph::new(n as usize);
                let mut deduced = 0u32;
                for &(a, b_, label) in seq {
                    match g.deduce(a, b_) {
                        Some(_) => deduced += 1,
                        None => {
                            g.insert(a, b_, label).expect("consistent");
                        }
                    }
                }
                black_box(deduced)
            });
        });
    }
    group.finish();
}

fn bench_deduce_only(c: &mut Criterion) {
    // Query throughput on a fully built graph.
    let n = 10_000u32;
    let seq = sequence(n, 7);
    let mut g = ClusterGraph::new(n as usize);
    for &(a, b, label) in &seq {
        if g.deduce(a, b).is_none() {
            g.insert(a, b, label).expect("consistent");
        }
    }
    let mut rng = SplitMix64::new(11);
    let queries: Vec<(u32, u32)> = (0..10_000)
        .map(|_| ((rng.next_u64() % n as u64) as u32, (rng.next_u64() % n as u64) as u32))
        .filter(|&(a, b)| a != b)
        .collect();
    c.bench_function("cluster_graph/deduce_10k_queries", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for &(x, y) in &queries {
                if g.deduce(x, y).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
}

criterion_group!(benches, bench_insert_deduce, bench_deduce_only);
criterion_main!(benches);
