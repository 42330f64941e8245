//! The three matrix workloads — Figure 2, Figure 4 and the ABD register —
//! shared by `lab faults` (× its link-fault scenarios) and `lab byzantine`
//! (× its attacks), with each workload's scripted attack and the corpus
//! witnesses of its sub-armor safety violations.

use sih::pipeline::{Algorithm, RunSpec};
use sih_agreement::{check_k_set_agreement_degraded, distinct_proposals};
use sih_model::{AttackClass, AttackKind, MutationKind, OpKind, ProcessId, ProcessSet, Value};
use sih_registers::check_linearizable_degraded;
use sih_runtime::{LivenessVerdict, RunOutcome, Trace};
use std::fmt;

/// A Byzantine attack: a network-level message mutation or a scripted
/// protocol attack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attack {
    /// The mutation on every directed link, unbounded.
    Mutation(MutationKind),
    /// A wrapper automaton lying on the protocol's behalf.
    Scripted(AttackKind),
}

impl Attack {
    /// The attack's stable name (a mutation kind or scripted attack name).
    pub fn name(self) -> &'static str {
        match self {
            Attack::Mutation(kind) => kind.name(),
            Attack::Scripted(kind) => kind.name(),
        }
    }

    /// The attack class (decides which armor rung provably defeats it).
    pub fn class(self) -> AttackClass {
        match self {
            Attack::Mutation(kind) => kind.class(),
            Attack::Scripted(kind) => kind.class(),
        }
    }
}

impl fmt::Display for Attack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// One matrix workload.
pub(crate) struct MatrixWorkload {
    /// The workload's name in the reports.
    pub name: &'static str,
    /// The algorithm it runs.
    pub algorithm: fn() -> Algorithm,
    /// Whether its messages carry quorum acks — the only workload
    /// `forge-ack` can touch.
    pub acks: bool,
    /// Its scripted protocol attack, if it has one.
    pub scripted: Option<AttackKind>,
    /// The repro workloads whose shrunk corpus schedules witness its
    /// sub-armor safety violations, per attack. An attack without its own
    /// entry shares the witness of its class: `flip` and `perturb` are
    /// both tampering.
    pub witnesses: &'static [(Attack, &'static str)],
}

impl MatrixWorkload {
    /// The repro workload witnessing `attack`'s sub-armor violations on
    /// this workload (`None`: its degradation is reported but not
    /// separately witnessed).
    pub fn witness(&self, attack: Attack) -> Option<&'static str> {
        let find = |hit: &dyn Fn(Attack) -> bool| {
            self.witnesses.iter().find(|(a, _)| hit(*a)).map(|(_, name)| *name)
        };
        find(&|a| a == attack).or_else(|| find(&|a| a.class() == attack.class()))
    }
}

const PERTURB: Attack = Attack::Mutation(MutationKind::Perturb);

/// The matrix workloads, in report order.
pub(crate) const MATRIX: &[MatrixWorkload] = &[
    MatrixWorkload {
        name: "fig2",
        algorithm: || Algorithm::Fig2 { a0: ProcessId(0), a1: ProcessId(1) },
        acks: false,
        scripted: Some(AttackKind::Equivocate),
        witnesses: &[
            (PERTURB, "fig2-byz-perturb"),
            (Attack::Scripted(AttackKind::Equivocate), "fig2-byz-equivocate"),
        ],
    },
    MatrixWorkload {
        name: "fig4",
        algorithm: || Algorithm::Fig4 { active: ProcessSet::from_iter([0, 1].map(ProcessId)) },
        acks: false,
        scripted: None,
        witnesses: &[(PERTURB, "fig4-byz-perturb")],
    },
    MatrixWorkload {
        name: "abd",
        algorithm: || Algorithm::Abd {
            s: ProcessSet::from_iter([0, 1].map(ProcessId)),
            scripts: vec![
                vec![OpKind::Write(Value(1)), OpKind::Read],
                vec![OpKind::Read, OpKind::Write(Value(2)), OpKind::Read],
            ],
        },
        acks: true,
        scripted: Some(AttackKind::SplitAck),
        witnesses: &[
            (PERTURB, "abd-byz-perturb"),
            (Attack::Mutation(MutationKind::ForgeAck), "abd-byz-forge-ack"),
            (Attack::Scripted(AttackKind::SplitAck), "abd-byz-split-ack"),
        ],
    },
];

/// A matrix run's degraded verdict: `(n−1)`-set agreement for the
/// agreement workloads, linearizability for ABD.
pub(crate) fn degraded_verdict(
    spec: &RunSpec,
    tr: &Trace,
    outcome: &RunOutcome,
) -> Result<LivenessVerdict, String> {
    let (pattern, n, reason) = (&spec.pattern, spec.pattern.n(), outcome.reason);
    match spec.algorithm {
        Algorithm::Abd { .. } => {
            check_linearizable_degraded(&tr.op_records(), None, pattern, reason)
                .map_err(|e| e.to_string())
        }
        _ => check_k_set_agreement_degraded(tr, pattern, &distinct_proposals(n), n - 1, reason)
            .map_err(|e| e.to_string()),
    }
}
