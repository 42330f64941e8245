//! Bench: the reduction layers (Figures 3, 5, 6) and the adversary
//! constructions (Lemmas 7, 15) — the E2/E3/E5/E8/E9 series.
//!
//! Expected shape: the Figure 3/5 emulations are message-free and cost a
//! constant per step; Figure 6's reliable broadcast costs O(n²) messages
//! once; the adversary constructions are dominated by the candidate's
//! completeness latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sih::model::{FailurePattern, ProcessId, ProcessSet, Value};
use sih::pipeline::{Algorithm, RunPool, RunSpec};
use sih::reductions::{
    lemma15_defeat, lemma7_defeat, theorem13_demo, AntiOmegaAgreementCandidate, GossipPairCandidate,
};
use std::hint::black_box;

fn bench_emulations(c: &mut Criterion) {
    let mut group = c.benchmark_group("emulation_layers");
    group.sample_size(10);
    for n in [4usize, 8] {
        group.bench_with_input(BenchmarkId::new("fig3_sigma", n), &n, |b, &n| {
            let f = FailurePattern::all_correct(n);
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(
                    RunPool::new()
                        .run(&RunSpec::new(
                            Algorithm::Fig3 { p: ProcessId(0), q: ProcessId(1) },
                            f.clone(),
                            seed,
                            3_000,
                        ))
                        .1,
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("fig5_sigma_k", n), &n, |b, &n| {
            let f = FailurePattern::all_correct(n);
            let x: ProcessSet = (0..4u32).map(ProcessId).collect();
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(
                    RunPool::new()
                        .run(&RunSpec::new(Algorithm::Fig5 { x }, f.clone(), seed, 3_000))
                        .1,
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("fig6_anti_omega", n), &n, |b, &n| {
            let f = FailurePattern::all_correct(n);
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(
                    RunPool::new()
                        .run(&RunSpec::new(
                            Algorithm::Fig6 { a0: ProcessId(0), a1: ProcessId(1) },
                            f.clone(),
                            seed,
                            12_000,
                        ))
                        .1,
                )
            });
        });
    }
    group.finish();
}

fn bench_adversaries(c: &mut Criterion) {
    let mut group = c.benchmark_group("adversary_constructions");
    group.sample_size(10);
    group.bench_function("lemma7_vs_gossip_n4", |b| {
        let (p, q, a) = (ProcessId(0), ProcessId(1), ProcessId(2));
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(lemma7_defeat(
                &|| (0..4).map(|_| GossipPairCandidate::new(p, q, 16)).collect::<Vec<_>>(),
                4,
                p,
                q,
                a,
                seed,
                60_000,
            ))
        });
    });
    group.bench_function("lemma15_chain_n5", |b| {
        let mut patience = 4u64;
        b.iter(|| {
            patience += 1;
            black_box(lemma15_defeat(
                &|props: &[Value]| AntiOmegaAgreementCandidate::processes(props, patience),
                5,
                20_000,
            ))
        });
    });
    group.bench_function("theorem13_demo_k2", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(theorem13_demo(2, seed))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_emulations, bench_adversaries);
criterion_main!(benches);
