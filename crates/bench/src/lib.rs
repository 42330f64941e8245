//! Shared helpers for the Criterion benches.
//!
//! The paper has no quantitative evaluation (it is a theory paper), so
//! the benches chart this reproduction's own landscape — with the
//! *shape* expectations documented in EXPERIMENTS.md:
//!
//! * agreeing gets cheaper as the abstraction weakens (consensus >
//!   `(n−k)`-set agreement > `(n−1)`-set agreement in steps/messages);
//! * sharing stays expensive: one atomic register operation costs two
//!   quorum round trips regardless of how weak the agreement task is —
//!   the quantitative echo of "sharing is harder than agreeing";
//! * emulation layers (Figures 3/5/6) are cheap relative to the
//!   abstractions they unlock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sih::model::{FailurePattern, ProcessId, ProcessSet};
use sih::pipeline::{Algorithm, RunPool, RunSpec};

/// Steps and messages of one failure-free, seeded run of `algorithm`.
fn cost(algorithm: Algorithm, n: usize, seed: u64, max_steps: u64) -> (u64, u64) {
    let spec = RunSpec::new(algorithm, FailurePattern::all_correct(n), seed, max_steps);
    let mut pool = RunPool::new();
    let (tr, _) = pool.run(&spec);
    (tr.total_steps(), tr.messages_sent())
}

/// Steps and messages of one Figure 2 run (failure-free, seeded).
pub fn fig2_cost(n: usize, seed: u64) -> (u64, u64) {
    cost(Algorithm::Fig2 { a0: ProcessId(0), a1: ProcessId(1) }, n, seed, 400_000)
}

/// Steps and messages of one Figure 4 run.
pub fn fig4_cost(n: usize, k: usize, seed: u64) -> (u64, u64) {
    let active: ProcessSet = (0..2 * k as u32).map(ProcessId).collect();
    cost(Algorithm::Fig4 { active }, n, seed, 400_000)
}

/// Steps and messages of one Paxos consensus run.
pub fn paxos_cost(n: usize, seed: u64) -> (u64, u64) {
    cost(Algorithm::Paxos, n, seed, 600_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_helpers_terminate() {
        let (s, m) = fig2_cost(4, 1);
        assert!(s > 0 && m > 0);
        let (s, m) = fig4_cost(4, 1, 1);
        assert!(s > 0 && m > 0);
        let (s, m) = paxos_cost(3, 1);
        assert!(s > 0 && m > 0);
    }
}
