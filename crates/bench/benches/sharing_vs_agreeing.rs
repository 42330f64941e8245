//! Bench: **sharing vs agreeing** — the title of the paper as a
//! head-to-head cost comparison at identical system sizes.
//!
//! Three tasks on the same failure-free `n`-process system:
//!
//! * *agree weakly*: one `(n−1)`-set agreement instance (Figure 2, σ);
//! * *agree strongly*: one consensus instance (Paxos, Ω + majority);
//! * *share*: one write + one read on an ABD-emulated atomic register.
//!
//! Expected shape (EXPERIMENTS.md, headline series): weak agreement is
//! the cheapest; consensus costs more (quorum phases + leader
//! round-trips); register operations sit at consensus-like cost *per
//! operation* and never get cheaper as the agreement task weakens — the
//! failure information they need (`Σ`) is qualitatively stronger than
//! `σ`, which is the paper's point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sih::model::{FailurePattern, OpKind, ProcessId, ProcessSet, Value};
use sih::pipeline::{Algorithm, RunPool, RunSpec};
use std::hint::black_box;

fn bench_sharing_vs_agreeing(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharing_vs_agreeing");
    group.sample_size(10);
    for n in [3usize, 5, 8] {
        group.bench_with_input(BenchmarkId::new("agree_weak_fig2", n), &n, |b, &n| {
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
        group.bench_with_input(BenchmarkId::new("agree_strong_paxos", n), &n, |b, &n| {
            let f = FailurePattern::all_correct(n);
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(
                    RunPool::new().run(&RunSpec::new(Algorithm::Paxos, f.clone(), seed, 600_000)).1,
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("share_register_wr", n), &n, |b, &n| {
            let f = FailurePattern::all_correct(n);
            let s = ProcessSet::from_iter([0, 1].map(ProcessId));
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let scripts = vec![vec![OpKind::Write(Value(1))], vec![OpKind::Read]];
                let spec = RunSpec::new(Algorithm::Abd { s, scripts }, f.clone(), seed, 600_000);
                black_box(RunPool::new().run(&spec).1)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sharing_vs_agreeing);
criterion_main!(benches);
