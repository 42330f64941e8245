//! Bench: the linearizability checker — cost vs history length and
//! contention (the E11 verification-side series).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sih::model::{FailurePattern, ProcessId, ProcessSet};
use sih::pipeline::{Algorithm, RunPool, RunSpec};
use sih::registers::{check_linearizable, WorkloadSpec};
use std::hint::black_box;

fn bench_checker(c: &mut Criterion) {
    let mut group = c.benchmark_group("linearizability_checker");
    group.sample_size(10);
    for ops_per in [2usize, 4, 8] {
        // Pre-generate one history per size, then bench only the checker.
        let s: ProcessSet = (0..3u32).map(ProcessId).collect();
        let f = FailurePattern::all_correct(4);
        let scripts =
            WorkloadSpec { ops_per_process: ops_per, read_ratio: 0.5, seed: 5 }.scripts(s);
        let spec = RunSpec::new(Algorithm::Abd { s, scripts }, f, 5, 800_000);
        let ops = RunPool::new().run(&spec).0.op_records();
        let total = ops.len();
        group.bench_with_input(BenchmarkId::new("check", total), &ops, |b, ops| {
            b.iter(|| black_box(check_linearizable(ops, None)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_checker);
criterion_main!(benches);
