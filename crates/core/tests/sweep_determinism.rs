//! The sweep engine's determinism contract, asserted end to end on real
//! simulator workloads: aggregates *and per-run traces* are bitwise
//! identical for every thread count (ISSUE: thread counts 1, 2 and N).

use sih::claims::{check_claim, Claim, ClaimConfig};
use sih::patterns::pattern_suite;
use sih::pipeline::{Algorithm, RunPool, RunSpec};
use sih_model::{FailurePattern, ProcessId, ProcessSet};
use sih_runtime::sweep::{with_seeds, Sweep};
use sih_runtime::{Event, TraceLevel};

/// One run's full observable output: the exact event log plus the
/// aggregate counters a report would fold.
#[derive(Clone, PartialEq, Debug)]
struct RunRecord {
    events: Vec<Event>,
    steps: u64,
    messages: u64,
    decisions: Vec<Option<sih_model::Value>>,
}

fn e1_shaped_sweep(threads: usize) -> Vec<RunRecord> {
    let (p, q) = (ProcessId(0), ProcessId(1));
    let focus = ProcessSet::from_iter([p, q]);
    let grid = with_seeds(&pattern_suite(4, focus, 3, 101), 3);
    Sweep::new(threads).run(grid, || {
        let mut pool = RunPool::new();
        move |_idx, (pattern, seed): (FailurePattern, u64)| {
            let spec =
                RunSpec::new(Algorithm::Fig2 { a0: p, a1: q }, pattern.clone(), seed, 60_000);
            let (tr, _) = pool.run(&spec);
            RunRecord {
                events: tr.events().to_vec(),
                steps: tr.total_steps(),
                messages: tr.messages_sent(),
                decisions: (0..pattern.n() as u32).map(|i| tr.decision_of(ProcessId(i))).collect(),
            }
        }
    })
}

#[test]
fn per_run_traces_identical_across_thread_counts() {
    let reference = e1_shaped_sweep(1);
    assert!(!reference.is_empty());
    // Full traces recorded: the serial reference must carry step events.
    assert!(reference.iter().any(|r| r.events.iter().any(|e| matches!(e, Event::Step { .. }))));
    let hw = std::thread::available_parallelism().map_or(4, usize::from).max(3);
    for threads in [2, hw] {
        let runs = e1_shaped_sweep(threads);
        assert_eq!(runs, reference, "threads = {threads}");
    }
}

#[test]
fn light_level_aggregates_identical_across_thread_counts() {
    let (p, q) = (ProcessId(0), ProcessId(1));
    let focus = ProcessSet::from_iter([p, q]);
    let sweep_at = |threads: usize| -> Vec<(u64, u64, usize)> {
        let grid = with_seeds(&pattern_suite(4, focus, 2, 113), 2);
        Sweep::new(threads).run(grid, || {
            let mut pool = RunPool::with_trace_level(TraceLevel::Light);
            move |_idx, (pattern, seed): (FailurePattern, u64)| {
                let spec =
                    RunSpec::new(Algorithm::Fig2 { a0: p, a1: q }, pattern.clone(), seed, 60_000);
                let (tr, _) = pool.run(&spec);
                (tr.total_steps(), tr.messages_sent(), tr.distinct_decisions().len())
            }
        })
    };
    let reference = sweep_at(1);
    for threads in [2, 5] {
        assert_eq!(sweep_at(threads), reference, "threads = {threads}");
    }
}

#[test]
fn claim_verdicts_identical_across_thread_counts() {
    let outcome_at = |threads: usize| {
        let cfg = ClaimConfig { n: 4, k: 1, seeds: 2, threads, ..ClaimConfig::default() };
        format!("{:?}", check_claim(Claim::SigmaImplementsSetAgreement, &cfg))
    };
    let reference = outcome_at(1);
    assert!(reference.contains("Holds"));
    assert_eq!(outcome_at(2), reference);
    assert_eq!(outcome_at(0), reference);
}
