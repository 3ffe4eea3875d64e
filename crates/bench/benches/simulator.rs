//! Discrete-event simulator throughput: events processed per second for
//! full publish-to-resolution runs, across platform sizes and policies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowdjoin_sim::{AssignmentPolicy, Platform, PlatformConfig, TaskSpec, VirtualTime};
use std::hint::black_box;

fn tasks(n: u64) -> Vec<TaskSpec> {
    (0..n)
        .map(|id| TaskSpec { id, truth: id % 3 != 0, priority: (id % 100) as f64 / 100.0 })
        .collect()
}

/// Polls with no time bound until no event remains; returns the number of
/// resolution batches.
fn drain(p: &mut Platform) -> usize {
    std::iter::from_fn(|| p.poll_completions(VirtualTime::MAX)).count()
}

fn bench_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/drain");
    group.sample_size(10);
    for &n in &[200u64, 2_000, 10_000] {
        group.bench_with_input(BenchmarkId::new("perfect_workers", n), &n, |b, &n| {
            b.iter(|| {
                let mut p = Platform::new(PlatformConfig::perfect_workers(1));
                p.publish(tasks(n));
                black_box(drain(&mut p))
            });
        });
    }
    group.bench_function("noisy_workers_2000", |b| {
        b.iter(|| {
            let mut p = Platform::new(PlatformConfig::amt_like(1));
            p.publish(tasks(2_000));
            black_box(drain(&mut p))
        });
    });
    group.bench_function("nonmatching_first_2000", |b| {
        b.iter(|| {
            let cfg = PlatformConfig {
                assignment_policy: AssignmentPolicy::NonMatchingFirst,
                ..PlatformConfig::perfect_workers(1)
            };
            let mut p = Platform::new(cfg);
            p.publish(tasks(2_000));
            black_box(drain(&mut p))
        });
    });
    group.finish();
}

fn bench_incremental_publish(c: &mut Criterion) {
    // The instant-decision pattern: many small publishes interleaved with
    // unbounded polls.
    c.bench_function("simulator/incremental_publish_100x20", |b| {
        b.iter(|| {
            let mut p = Platform::new(PlatformConfig::perfect_workers(2));
            let mut resolved = 0usize;
            for round in 0..100u64 {
                p.publish(
                    tasks(20)
                        .into_iter()
                        .map(|mut t| {
                            t.id += round * 1_000;
                            t
                        })
                        .collect(),
                );
                let mut remaining = 20usize;
                while remaining > 0 {
                    let (_, batch) = p.poll_completions(VirtualTime::MAX).expect("resolves");
                    remaining -= batch.len();
                    resolved += batch.len();
                }
            }
            black_box(resolved)
        });
    });
}

criterion_group!(benches, bench_drain, bench_incremental_publish);
criterion_main!(benches);
