//! Bench: Figure 4 ((n−k)-set agreement from σ_2k) — cost vs (n, k).
//!
//! Regenerates the E4 series: more active processes (larger k) means more
//! coordination before deciding; non-actives decide in one step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sih::model::{FailurePattern, ProcessId, ProcessSet};
use sih::pipeline::{Algorithm, RunPool, RunSpec};
use std::hint::black_box;

fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_nk_set_agreement");
    group.sample_size(10);
    for (n, k) in [(6usize, 1usize), (6, 2), (6, 3), (10, 2), (10, 4), (12, 3)] {
        let id = format!("n{n}_k{k}");
        group.bench_with_input(BenchmarkId::new("failure_free", id), &(n, k), |b, &(n, k)| {
            let f = FailurePattern::all_correct(n);
            let active: ProcessSet = (0..2 * k as u32).map(ProcessId).collect();
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(
                    RunPool::new()
                        .run(&RunSpec::new(Algorithm::Fig4 { active }, f.clone(), seed, 400_000))
                        .1,
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
