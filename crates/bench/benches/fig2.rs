//! Bench: Figure 2 (set agreement from σ) — decision cost vs system size.
//!
//! Regenerates the E1 series of EXPERIMENTS.md: steps-to-all-decided as a
//! function of `n`, failure-free and with only the actives correct.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sih::model::{FailurePattern, ProcessId, ProcessSet};
use sih::pipeline::{Algorithm, RunPool, RunSpec};
use std::hint::black_box;

fn bench_fig2(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_set_agreement");
    group.sample_size(10);
    for n in [3usize, 5, 8, 12] {
        group.bench_with_input(BenchmarkId::new("failure_free", n), &n, |b, &n| {
            let f = FailurePattern::all_correct(n);
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(
                    RunPool::new()
                        .run(&RunSpec::new(
                            Algorithm::Fig2 { a0: ProcessId(0), a1: ProcessId(1) },
                            f.clone(),
                            seed,
                            400_000,
                        ))
                        .1,
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("only_actives_correct", n), &n, |b, &n| {
            let crashed: ProcessSet = (2..n as u32).map(ProcessId).collect();
            let f = FailurePattern::crashed_from_start(n, crashed);
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(
                    RunPool::new()
                        .run(&RunSpec::new(
                            Algorithm::Fig2 { a0: ProcessId(0), a1: ProcessId(1) },
                            f.clone(),
                            seed,
                            400_000,
                        ))
                        .1,
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
