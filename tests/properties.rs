//! Property-based tests (proptest) over the public API: randomized
//! patterns, seeds and workloads must never violate the paper's safety
//! properties or the detector specifications.

use proptest::prelude::*;
use sih::agreement::{check_k_agreement_safety, check_k_set_agreement, distinct_proposals};
use sih::detectors::{
    check_anti_omega, check_sigma, check_sigma_k, check_sigma_s, sample_history, AntiOmega, Sigma,
    SigmaK, SigmaMode, SigmaS,
};
use sih::model::{FailureDetector, FailurePattern, ProcessId, ProcessSet, Time};
use sih::pipeline::{Algorithm, RunPool, RunSpec};
use sih::registers::{check_linearizable, WorkloadSpec};

/// A random failure pattern with at least one correct process.
fn arb_pattern(n: usize) -> impl Strategy<Value = FailurePattern> {
    proptest::collection::vec(proptest::option::of(0u64..100), n).prop_filter_map(
        "at least one correct process",
        move |crashes| {
            if crashes.iter().all(Option::is_some) {
                return None;
            }
            let mut b = FailurePattern::builder(n);
            for (i, c) in crashes.iter().enumerate() {
                if let Some(t) = c {
                    b = if *t == 0 {
                        b.crash_from_start(ProcessId(i as u32))
                    } else {
                        b.crash_at(ProcessId(i as u32), Time(*t))
                    };
                }
            }
            Some(b.build())
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn fig2_always_satisfies_set_agreement(
        pattern in arb_pattern(5),
        seed in 0u64..1_000,
    ) {
        let n = pattern.n();
        let mut pool = RunPool::new();
        let (tr, _) = pool.run(&RunSpec::new(Algorithm::Fig2 { a0: ProcessId(0), a1: ProcessId(1) }, pattern.clone(), seed, 150_000));
        check_k_set_agreement(tr, &pattern, &distinct_proposals(n), n - 1)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    #[test]
    fn fig4_always_satisfies_nk_agreement(
        pattern in arb_pattern(6),
        seed in 0u64..1_000,
        k in 1usize..=3,
    ) {
        let n = pattern.n();
        let active: ProcessSet = (0..2 * k as u32).map(ProcessId).collect();
        let mut pool = RunPool::new();
        let (tr, _) = pool.run(&RunSpec::new(Algorithm::Fig4 { active }, pattern.clone(), seed, 200_000));
        check_k_set_agreement(tr, &pattern, &distinct_proposals(n), n - k)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    #[test]
    fn sigma_oracle_histories_always_legal(
        pattern in arb_pattern(5),
        seed in 0u64..1_000,
        generous in any::<bool>(),
    ) {
        let mode = if generous { SigmaMode::Generous } else { SigmaMode::Reticent };
        let d = Sigma::new(ProcessId(0), ProcessId(1), &pattern, seed).with_mode(mode);
        let h = sample_history(&d, pattern.n(), d.stabilization_time() + 40);
        check_sigma(&h, &pattern, d.active())
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    #[test]
    fn sigma_k_oracle_histories_always_legal(
        pattern in arb_pattern(6),
        seed in 0u64..1_000,
        k in 1usize..=3,
    ) {
        let active: ProcessSet = (0..2 * k as u32).map(ProcessId).collect();
        let d = SigmaK::new(active, &pattern, seed);
        let h = sample_history(&d, pattern.n(), d.stabilization_time() + 40);
        check_sigma_k(&h, &pattern, active)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    #[test]
    fn sigma_s_oracle_histories_always_legal(
        pattern in arb_pattern(5),
        seed in 0u64..1_000,
    ) {
        let s = ProcessSet::full(pattern.n());
        let d = SigmaS::new(s, &pattern, seed);
        let h = sample_history(&d, pattern.n(), d.stabilization_time() + 40);
        check_sigma_s(&h, &pattern, s)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    #[test]
    fn anti_omega_oracle_histories_always_legal(
        pattern in arb_pattern(4),
        seed in 0u64..1_000,
    ) {
        let d = AntiOmega::new(&pattern, seed);
        let h = sample_history(&d, pattern.n(), d.stabilization_time() + 40);
        check_anti_omega(&h, &pattern)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    #[test]
    fn abd_histories_always_linearizable(
        seed in 0u64..1_000,
        read_ratio in 0.0f64..=1.0,
    ) {
        // Failure-free keeps run lengths predictable; crash cases are
        // covered by unit and integration tests.
        let pattern = FailurePattern::all_correct(4);
        let s: ProcessSet = (0..2u32).map(ProcessId).collect();
        let scripts = WorkloadSpec { ops_per_process: 3, read_ratio, seed }.scripts(s);
        let spec = RunSpec::new(Algorithm::Abd { s, scripts }, pattern, seed, 300_000);
        check_linearizable(&RunPool::new().run(&spec).0.op_records(), None)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    #[test]
    fn fig6_emulations_always_legal_anti_omega(
        pattern in arb_pattern(4),
        seed in 0u64..1_000,
    ) {
        let mut pool = RunPool::new();
        let (tr, _) = pool.run(&RunSpec::new(Algorithm::Fig6 { a0: ProcessId(0), a1: ProcessId(1) }, pattern.clone(), seed, 25_000));
        check_anti_omega(tr.emulated_history(), &pattern)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    #[test]
    fn fig2_safety_holds_even_mid_run(
        seed in 0u64..1_000,
        budget in 10u64..600,
    ) {
        // Agreement/validity are safety properties: they must hold at
        // every prefix, not only at termination.
        let pattern = FailurePattern::all_correct(4);
        let proposals = distinct_proposals(4);
        let mut pool = RunPool::new();
        let (tr, _) = pool.run(&RunSpec::new(Algorithm::Fig2 { a0: ProcessId(0), a1: ProcessId(1) }, pattern.clone(), seed, budget));
        check_k_agreement_safety(tr, &proposals, 3)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
    }
}
