//! Scale sanity: the simulator and the paper's algorithms at larger `n`
//! (the `ProcessSet` bitset caps the system at 64 processes — exercise
//! that boundary too).

use sih::agreement::{check_k_set_agreement, distinct_proposals};
use sih::model::{FailurePattern, NoDetector, ProcessId, ProcessSet, Value};
use sih::pipeline::{Algorithm, RunPool, RunSpec};
use sih::runtime::{Automaton, Effects, FairScheduler, Simulation, StepInput};

#[test]
fn fig2_at_n_32() {
    for seed in 0..2 {
        let pattern = FailurePattern::all_correct(32);
        let mut pool = RunPool::new();
        let (tr, _) = pool.run(&RunSpec::new(
            Algorithm::Fig2 { a0: ProcessId(0), a1: ProcessId(1) },
            pattern.clone(),
            seed,
            400_000,
        ));
        check_k_set_agreement(tr, &pattern, &distinct_proposals(32), 31).unwrap();
    }
}

#[test]
fn fig4_at_n_24_k_8() {
    let active: ProcessSet = (0..16u32).map(ProcessId).collect();
    let pattern = FailurePattern::all_correct(24);
    let mut pool = RunPool::new();
    let (tr, _) = pool.run(&RunSpec::new(Algorithm::Fig4 { active }, pattern.clone(), 1, 600_000));
    check_k_set_agreement(tr, &pattern, &distinct_proposals(24), 16).unwrap();
}

#[test]
fn simulator_at_the_64_process_boundary() {
    #[derive(Clone, Debug, Default)]
    struct CountAndDecide {
        steps: u32,
    }
    impl Automaton for CountAndDecide {
        type Msg = u8;
        fn step(&mut self, input: StepInput<u8>, eff: &mut Effects<u8>) {
            self.steps += 1;
            if self.steps == 1 {
                // Everyone floods once: 64 × 64 messages.
                eff.send_all(input.n, 1);
            }
            if self.steps == 3 {
                eff.decide(Value::of_process(input.me));
                eff.halt();
            }
        }
        fn halted(&self) -> bool {
            self.steps >= 3
        }
    }
    let n = 64;
    let pattern = FailurePattern::all_correct(n);
    assert_eq!(pattern.all(), ProcessSet::full(64));
    let mut sim = Simulation::new(vec![CountAndDecide::default(); n], pattern.clone());
    let outcome = sim.run(&mut FairScheduler::new(3), &NoDetector, 2_000);
    assert!(sim.all_correct_halted(), "{outcome:?}");
    assert_eq!(sim.trace().decided().len(), 64);
    assert_eq!(sim.trace().messages_sent(), 64 * 64);
}

#[test]
fn quorum_sigma_at_n_20() {
    use sih::detectors::{check_sigma_s, QuorumSigma};
    let n = 20;
    let pattern = FailurePattern::all_correct(n);
    let procs = (0..n).map(|_| QuorumSigma::full(n)).collect();
    let mut sim = Simulation::new(procs, pattern.clone());
    let mut sched = FairScheduler::new(5);
    sim.run(&mut sched, &NoDetector, 20_000);
    check_sigma_s(sim.trace().emulated_history(), &pattern, ProcessSet::full(n)).unwrap();
}
