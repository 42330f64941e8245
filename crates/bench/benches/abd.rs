//! Bench: ABD register emulation — operation cost vs system size and
//! sharer count (the E11 series).
//!
//! Expected shape: cost per operation grows with `n` (quorums get
//! bigger) and with `|S|` (more concurrent clients contending), and a
//! register op is *never* cheaper than a set-agreement decision at the
//! same `n` — sharing is harder than agreeing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sih::model::{FailurePattern, ProcessId, ProcessSet};
use sih::pipeline::{Algorithm, RunPool, RunSpec};
use sih::registers::WorkloadSpec;
use std::hint::black_box;

fn bench_abd(c: &mut Criterion) {
    let mut group = c.benchmark_group("abd_register");
    group.sample_size(10);
    for n in [3usize, 5, 8] {
        for s_size in [2usize, 3] {
            let s: ProcessSet = (0..s_size as u32).map(ProcessId).collect();
            let id = format!("n{n}_s{s_size}");
            group.bench_with_input(BenchmarkId::new("workload", id), &n, |b, &n| {
                let f = FailurePattern::all_correct(n);
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let scripts =
                        WorkloadSpec { ops_per_process: 4, read_ratio: 0.5, seed }.scripts(s);
                    let spec =
                        RunSpec::new(Algorithm::Abd { s, scripts }, f.clone(), seed, 600_000);
                    black_box(RunPool::new().run(&spec).1)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_abd);
criterion_main!(benches);
