//! Microbenchmarks of the logical-clock substrate.

use causal_clocks::{MatrixClock, ProcessId, VectorClock};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_vector_clock(c: &mut Criterion) {
    let mut group = c.benchmark_group("vector_clock");
    for width in [4usize, 16, 64] {
        let mut a = VectorClock::new(width);
        let mut b = VectorClock::new(width);
        for i in 0..width {
            let p = ProcessId::new(i as u32);
            if i % 2 == 0 {
                a.increment(p);
            } else {
                b.increment(p);
            }
        }
        group.bench_with_input(BenchmarkId::new("increment", width), &width, |bench, _| {
            let mut clock = a.clone();
            bench.iter(|| black_box(clock.increment(ProcessId::new(0))));
        });
        group.bench_with_input(BenchmarkId::new("merge", width), &width, |bench, _| {
            bench.iter(|| {
                let mut m = a.clone();
                m.merge(black_box(&b));
                black_box(m)
            });
        });
        group.bench_with_input(BenchmarkId::new("compare", width), &width, |bench, _| {
            bench.iter(|| black_box(a.compare(black_box(&b))));
        });
        group.bench_with_input(
            BenchmarkId::new("delivery_check", width),
            &width,
            |bench, _| {
                let local = VectorClock::new(width);
                let mut msg = VectorClock::new(width);
                msg.increment(ProcessId::new(0));
                bench.iter(|| black_box(local.delivery_check(&msg, ProcessId::new(0))));
            },
        );
    }
    group.finish();
}

fn bench_matrix_clock(c: &mut Criterion) {
    let mut group = c.benchmark_group("matrix_clock");
    for width in [4usize, 16, 64] {
        // Rows raise one column in turn, as members' prefixes advance: every
        // `width`-th raise lifts the column's last minimal row and rescans.
        group.bench_with_input(
            BenchmarkId::new("raise_round_robin", width),
            &width,
            |bench, _| {
                let mut m = MatrixClock::new(width);
                let n = width as u64;
                let mut k = 0u64;
                bench.iter(|| {
                    let row = ProcessId::new((k % n) as u32);
                    k += 1;
                    black_box(m.raise(row, ProcessId::new(0), k.div_ceil(n)))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_vector_clock, bench_matrix_clock);
criterion_main!(benches);
