//! Cross-crate integration: the full positive pipelines of the paper and
//! the claims/lab machinery, exercised through the public API only.

use sih::claims::{check_claim, Claim, ClaimConfig};
use sih::model::{FailurePattern, ProcessId, ProcessSet};
use sih::pipeline::{Algorithm, RunPool, RunSpec};
use sih::prelude::*;
use sih_lab::{run_experiment, LabConfig};

#[test]
fn theorem2_positive_direction_end_to_end() {
    // Σ_{p,q} → (Figure 3) → σ → (Figure 2) → set agreement, stacked in
    // one run per pattern.
    let (p, q) = (ProcessId(0), ProcessId(1));
    for pattern in [
        FailurePattern::all_correct(5),
        FailurePattern::crashed_from_start(5, ProcessSet::from_iter([2, 3, 4].map(ProcessId))),
        FailurePattern::builder(5).crash_at(ProcessId(1), Time(30)).build(),
    ] {
        for seed in 0..3 {
            let mut pool = RunPool::new();
            let (tr, _) = pool.run(&RunSpec::new(
                Algorithm::StackFig3Fig2 { p, q },
                pattern.clone(),
                seed,
                250_000,
            ));
            check_k_set_agreement(tr, &pattern, &distinct_proposals(5), 4)
                .unwrap_or_else(|e| panic!("{pattern:?} seed {seed}: {e}"));
            check_sigma(tr.emulated_history(), &pattern, ProcessSet::from_iter([p, q]))
                .unwrap_or_else(|e| panic!("{pattern:?} seed {seed}: emulated σ: {e}"));
        }
    }
}

#[test]
fn theorem8_positive_direction_end_to_end() {
    let x = ProcessSet::from_iter([0, 1, 2, 3].map(ProcessId));
    for pattern in [
        FailurePattern::all_correct(6),
        FailurePattern::crashed_from_start(6, ProcessSet::from_iter([2, 3, 4, 5].map(ProcessId))),
    ] {
        for seed in 0..3 {
            let mut pool = RunPool::new();
            let (tr, _) = pool.run(&RunSpec::new(
                Algorithm::StackFig5Fig4 { x },
                pattern.clone(),
                seed,
                400_000,
            ));
            check_k_set_agreement(tr, &pattern, &distinct_proposals(6), 4)
                .unwrap_or_else(|e| panic!("{pattern:?} seed {seed}: {e}"));
        }
    }
}

#[test]
fn figure1_all_claims_confirm() {
    let cfg = ClaimConfig { n: 4, k: 1, seeds: 1, max_steps: 150_000, ..ClaimConfig::default() };
    for claim in Claim::ALL {
        let outcome = check_claim(claim, &cfg);
        assert!(outcome.verdict.confirmed(), "{claim}: {:?}", outcome.verdict);
    }
}

#[test]
fn lab_experiments_smoke() {
    let cfg = LabConfig { n: 4, k: 1, seeds: 1, max_steps: 150_000, ..LabConfig::default() };
    for id in ["e1", "e3", "e7", "e10", "e11"] {
        let report = run_experiment(id, &cfg);
        assert!(report.ok, "{id}: {report}");
    }
}

#[test]
fn register_and_agreement_coexist_in_one_system() {
    // The two abstractions side by side on identical patterns: the
    // registry workload linearizes AND the agreement run decides — the
    // setting of the paper's comparison.
    let pattern = FailurePattern::builder(5).crash_at(ProcessId(4), Time(50)).build();
    let s = ProcessSet::from_iter([0, 1].map(ProcessId));
    let scripts = WorkloadSpec { ops_per_process: 3, read_ratio: 0.4, seed: 9 }.scripts(s);
    let mut pool = RunPool::new();
    let abd = RunSpec::new(Algorithm::Abd { s, scripts }, pattern.clone(), 9, 400_000);
    check_linearizable(&pool.run(&abd).0.op_records(), None).unwrap();

    let (tr, _) = pool.run(&RunSpec::new(
        Algorithm::Fig2 { a0: ProcessId(0), a1: ProcessId(1) },
        pattern.clone(),
        9,
        200_000,
    ));
    check_k_set_agreement(tr, &pattern, &distinct_proposals(5), 4).unwrap();
}

#[test]
fn paxos_baseline_beats_the_weak_agreement_bound() {
    // Consensus decides ONE value where Figure 2 is allowed n−1: the
    // baseline really is stronger.
    let pattern = FailurePattern::all_correct(5);
    let mut pool = RunPool::new();
    let (tr, _) = pool.run(&RunSpec::new(Algorithm::Paxos, pattern.clone(), 3, 400_000));
    assert_eq!(tr.distinct_decisions().len(), 1);
    check_k_set_agreement(tr, &pattern, &distinct_proposals(5), 1).unwrap();
}
