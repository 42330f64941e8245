//! One run of a paper algorithm (or a stacked reduction) with everything
//! wired up: a [`RunSpec`] says what to run, [`RunPool::run`] runs it.
//!
//! These are the building blocks the claims API, the `lab` harness, the
//! benches and the examples all share. A [`RunPool`] keeps one recycled
//! [`SimPool`] per automaton type, so network queues, the trace log and
//! scratch buffers survive from run to run — sweeps hold one pool per
//! worker, and the hot loop stops re-allocating per run.
//!
//! The spec is read once per run: [`RunPool::run`] picks the automata,
//! detector and stop rule, then hands a concrete `Simulation<A>` to the
//! engine, so the step loop stays monomorphized per automaton type.
//!
//! ```
//! use sih::pipeline::{Algorithm, RunPool, RunSpec};
//! use sih_model::{FailurePattern, LinkFaultPlan, ProcessId, Time};
//!
//! let fig2 = Algorithm::Fig2 { a0: ProcessId(0), a1: ProcessId(1) };
//! let mut pool = RunPool::new();
//! let spec = RunSpec::new(fig2, FailurePattern::all_correct(4), 7, 100_000);
//! let (trace, _) = pool.run(&spec);
//! assert!(trace.distinct_decisions().len() <= 3);
//!
//! // The same run over links that black out until t = 50, with the
//! // stubborn retransmission layer keeping it live.
//! let plan = LinkFaultPlan::builder(4).blackout(Time::ZERO, Some(Time(50))).build();
//! let (_, outcome) = pool.run(&spec.with_faults(plan, true));
//! assert!(outcome.dropped > 0);
//! ```

use sih_agreement::{
    distinct_proposals, fig2_processes, fig4_processes, paxos_processes, Equivocator,
};
use sih_detectors::{Omega, Sigma, SigmaK, SigmaS};
use sih_model::{
    AdversaryPlan, Armor, AttackKind, AttackSpec, FailureDetector, FailurePattern, FdOutput,
    LinkFaultPlan, OpKind, ProcessId, ProcessSet,
};
use sih_reductions::{fig3_processes, fig5_processes, fig6_processes};
use sih_registers::{abd_processes, ScriptedClient, SplitAckForger};
use sih_runtime::{
    stubborn_processes, Automaton, Corruptible, FairScheduler, RunOutcome, SimPool, Simulation,
    Stacked, Stubborn, Trace, TraceLevel,
};
use std::any::Any;

/// The algorithm a [`RunSpec`] runs, with its parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Figure 2: `(n−1)`-set agreement from `σ` with active pair `a0, a1`.
    Fig2 {
        /// First active process of `σ`.
        a0: ProcessId,
        /// Second active process of `σ`.
        a1: ProcessId,
    },
    /// Figure 3: emulating `σ` from `Σ_{p,q}`; the trace's emulated
    /// history is the produced `σ` history.
    Fig3 {
        /// First register owner.
        p: ProcessId,
        /// Second register owner.
        q: ProcessId,
    },
    /// Figure 4: `(n−k)`-set agreement from `σ_2k` over `active`.
    Fig4 {
        /// The `2k` active processes.
        active: ProcessSet,
    },
    /// Figure 5: emulating `σ_|X|` from `Σ_X`.
    Fig5 {
        /// The register owners `X`.
        x: ProcessSet,
    },
    /// Figure 6: emulating anti-`Ω` from `σ` with active pair `a0, a1`.
    Fig6 {
        /// First active process of `σ`.
        a0: ProcessId,
        /// Second active process of `σ`.
        a1: ProcessId,
    },
    /// Theorem 2's positive pipeline: Figure 2 on the `σ` that Figure 3
    /// emulates live from `Σ_{p,q}`. The trace carries both the
    /// decisions and the emulated `σ` stream.
    StackFig3Fig2 {
        /// First register owner.
        p: ProcessId,
        /// Second register owner.
        q: ProcessId,
    },
    /// Theorem 8's positive pipeline: Figure 4 on the `σ_2k` that
    /// Figure 5 emulates from `Σ_X`.
    StackFig5Fig4 {
        /// The register owners `X`.
        x: ProcessSet,
    },
    /// An ABD `S`-register workload; call [`Trace::op_records`] on the
    /// run's trace for the operation records.
    Abd {
        /// The register's process set `S` (its clients).
        s: ProcessSet,
        /// One operation script per client, in `S` order.
        scripts: Vec<Vec<OpKind>>,
    },
    /// The Paxos consensus baseline (`Ω` + majority).
    Paxos,
}

/// Everything that determines one run. The system size `n` is the
/// pattern's; the trace level is the [`RunPool`]'s.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// What runs.
    pub algorithm: Algorithm,
    /// The crash pattern.
    pub pattern: FailurePattern,
    /// The link-fault plan the network injects (`None`: reliable links).
    pub faults: Option<LinkFaultPlan>,
    /// Wrap every process in a [`Stubborn`] retransmission layer.
    pub stubborn: bool,
    /// The Byzantine tier: `Some` swaps in the attack-capable automata
    /// (Figure 2's [`Equivocator`], ABD's [`SplitAckForger`]) and the
    /// plan mutates in-flight messages unless it is honest.
    pub adversary: Option<AdversaryPlan>,
    /// The scripted protocol attack, if any: Figure 2 equivocates at
    /// `a0`, ABD forges split acks at the last replica.
    pub attack: Option<AttackSpec>,
    /// Which attack classes the honest side validates away.
    pub armor: Armor,
    /// Scheduler and detector seed.
    pub seed: u64,
    /// Step budget.
    pub max_steps: u64,
}

impl RunSpec {
    /// A fault-free, honest run of `algorithm` under `pattern`.
    pub fn new(algorithm: Algorithm, pattern: FailurePattern, seed: u64, max_steps: u64) -> Self {
        RunSpec {
            algorithm,
            pattern,
            faults: None,
            stubborn: false,
            adversary: None,
            attack: None,
            armor: Armor::NONE,
            seed,
            max_steps,
        }
    }

    /// The same run over links faulted by `plan`, with or without the
    /// [`Stubborn`] layer. Without it, a partition that never heals is
    /// the canonical starvation witness: the run stops
    /// [`Starved`](sih_runtime::StopReason::Starved) in O(n) steps.
    #[must_use]
    pub fn with_faults(mut self, plan: LinkFaultPlan, stubborn: bool) -> Self {
        self.faults = Some(plan);
        self.stubborn = stubborn;
        self
    }

    /// The same run under a Byzantine adversary: network-level `plan`,
    /// optional scripted `attack`, and `armor` rung.
    #[must_use]
    pub fn with_adversary(
        mut self,
        plan: AdversaryPlan,
        attack: Option<AttackSpec>,
        armor: Armor,
    ) -> Self {
        self.adversary = Some(plan);
        self.attack = attack;
        self.armor = armor;
        self
    }

    /// Whether the scripted attack is of `kind`, and its parameter
    /// (whatever the kind, as the attack wrappers expect).
    fn scripted(&self, kind: AttackKind) -> (bool, u64) {
        (self.attack.is_some_and(|a| a.kind == kind), self.attack.map_or(0, |a| a.x))
    }
}

/// Reusable simulation slots for [`RunSpec`] runs, one per automaton
/// type, all recording at one [`TraceLevel`]. One pool per sweep worker.
#[derive(Debug)]
pub struct RunPool {
    level: TraceLevel,
    slots: Vec<Box<dyn Any + Send>>,
}

impl Default for RunPool {
    fn default() -> Self {
        RunPool::new()
    }
}

fn never<A: Automaton>(_: &Simulation<A>) -> bool {
    false
}

fn all_correct_decided<A: Automaton>(s: &Simulation<A>) -> bool {
    s.pattern().correct().is_subset(s.trace().decided())
}

impl RunPool {
    /// An empty pool recording at [`TraceLevel::Full`].
    pub fn new() -> Self {
        RunPool::with_trace_level(TraceLevel::Full)
    }

    /// An empty pool recording at `level`.
    pub fn with_trace_level(level: TraceLevel) -> Self {
        RunPool { level, slots: Vec::new() }
    }

    /// Runs `spec`; returns the run's trace, borrowed from the pool, and
    /// its [`RunOutcome`] (stop reason and network counters).
    ///
    /// Stop rules: plain Figure 2/4 runs, the emulations and Paxos run
    /// until every correct process halted; the stacks, and Figure 2/4
    /// runs with faults or an adversary, stop once every correct process
    /// decided; ABD stops once every correct process (under an
    /// adversary: every client in `S`) finished its script.
    ///
    /// # Panics
    ///
    /// Panics if a plan's or a script list's size does not match the
    /// pattern's.
    pub fn run(&mut self, spec: &RunSpec) -> (&Trace, RunOutcome) {
        let (pattern, seed) = (&spec.pattern, spec.seed);
        let n = pattern.n();
        let proposals = distinct_proposals(n);
        let plain = spec.faults.is_none() && spec.adversary.is_none() && !spec.stubborn;
        match &spec.algorithm {
            Algorithm::Fig2 { a0, a1 } => {
                let fd = Sigma::new(*a0, *a1, pattern, seed);
                let procs = fig2_processes(&proposals);
                if spec.adversary.is_none() {
                    return self.go(spec, procs, &fd, !plain);
                }
                let (on, x) = spec.scripted(AttackKind::Equivocate);
                let procs = procs
                    .into_iter()
                    .enumerate()
                    .map(|(i, p)| Equivocator::new(p, on && i == a0.index(), x, spec.armor))
                    .collect();
                self.go(spec, procs, &fd, true)
            }
            Algorithm::Fig3 { p, q } => {
                let fd = SigmaS::new(ProcessSet::from_iter([*p, *q]), pattern, seed);
                self.go(spec, fig3_processes(n, *p, *q), &fd, false)
            }
            Algorithm::Fig4 { active } => {
                let fd = SigmaK::new(*active, pattern, seed);
                self.go(spec, fig4_processes(&proposals), &fd, !plain)
            }
            Algorithm::Fig5 { x } => {
                self.go(spec, fig5_processes(n, *x), &SigmaS::new(*x, pattern, seed), false)
            }
            Algorithm::Fig6 { a0, a1 } => {
                self.go(spec, fig6_processes(n), &Sigma::new(*a0, *a1, pattern, seed), false)
            }
            Algorithm::StackFig3Fig2 { p, q } => {
                let fd = SigmaS::new(ProcessSet::from_iter([*p, *q]), pattern, seed);
                self.go(
                    spec,
                    stack(fig3_processes(n, *p, *q), fig2_processes(&proposals)),
                    &fd,
                    true,
                )
            }
            Algorithm::StackFig5Fig4 { x } => {
                let fd = SigmaS::new(*x, pattern, seed);
                self.go(spec, stack(fig5_processes(n, *x), fig4_processes(&proposals)), &fd, true)
            }
            Algorithm::Abd { s, scripts } => {
                let fd = SigmaS::new(*s, pattern, seed);
                let procs = abd_processes(*s, n, scripts.clone());
                if spec.adversary.is_none() {
                    return self.register(spec, procs, &fd, pattern.correct());
                }
                let (on, x) = spec.scripted(AttackKind::SplitAck);
                let procs = procs
                    .into_iter()
                    .enumerate()
                    .map(|(i, p)| SplitAckForger::new(p, on && i == n - 1, x, spec.armor))
                    .collect();
                self.register(spec, procs, &fd, *s)
            }
            Algorithm::Paxos => {
                self.go(spec, paxos_processes(&proposals), &Omega::new(pattern, seed), false)
            }
        }
    }

    /// Runs `procs` (stubborn-wrapped if the spec asks) until every
    /// correct process halted, or — with `until_decided` — decided.
    fn go<A, D>(
        &mut self,
        spec: &RunSpec,
        procs: Vec<A>,
        fd: &D,
        until_decided: bool,
    ) -> (&Trace, RunOutcome)
    where
        A: Automaton + Send + 'static,
        A::Msg: Corruptible,
        D: FailureDetector,
    {
        match (spec.stubborn, until_decided) {
            (false, false) => self.launch(spec, procs, fd, never),
            (false, true) => self.launch(spec, procs, fd, all_correct_decided),
            (true, false) => self.launch(spec, stubborn_processes(procs), fd, never),
            (true, true) => self.launch(spec, stubborn_processes(procs), fd, all_correct_decided),
        }
    }

    /// Runs register `procs` (stubborn-wrapped if the spec asks) until
    /// every process of `clients` finished its script.
    fn register<A, D>(
        &mut self,
        spec: &RunSpec,
        procs: Vec<A>,
        fd: &D,
        clients: ProcessSet,
    ) -> (&Trace, RunOutcome)
    where
        A: Automaton + ScriptedClient + Send + 'static,
        A::Msg: Corruptible,
        D: FailureDetector,
    {
        if spec.stubborn {
            let procs = stubborn_processes(procs);
            return self.launch(spec, procs, fd, move |sim: &Simulation<Stubborn<A>>| {
                clients.iter().all(|p| sim.process(p).script_finished())
            });
        }
        self.launch(spec, procs, fd, move |sim: &Simulation<A>| {
            clients.iter().all(|p| sim.process(p).script_finished())
        })
    }

    /// Acquires `A`'s slot, installs the spec's link faults and (unless
    /// honest) its adversary, and runs under the fair scheduler.
    fn launch<A, D>(
        &mut self,
        spec: &RunSpec,
        procs: Vec<A>,
        fd: &D,
        done: impl FnMut(&Simulation<A>) -> bool,
    ) -> (&Trace, RunOutcome)
    where
        A: Automaton + Send + 'static,
        A::Msg: Corruptible,
        D: FailureDetector,
    {
        let level = self.level;
        let i = match self.slots.iter().position(|s| s.is::<SimPool<A>>()) {
            Some(i) => i,
            None => {
                self.slots.push(Box::new(SimPool::<A>::with_trace_level(level)));
                self.slots.len() - 1
            }
        };
        let pool: &mut SimPool<A> =
            self.slots[i].downcast_mut().expect("invariant: slot i holds a SimPool<A>");
        let sim = pool.acquire(procs, &spec.pattern);
        if let Some(plan) = &spec.faults {
            sim.set_link_faults(plan.clone());
        }
        if let Some(plan) = spec.adversary.as_ref().filter(|p| !p.is_honest()) {
            sim.set_adversary(plan.clone(), spec.armor);
        }
        let mut sched = FairScheduler::new(spec.seed);
        let outcome = sim.run_until(&mut sched, fd, spec.max_steps, done);
        (sim.trace(), outcome)
    }
}

/// Stacks each upper-layer automaton on its lower-layer emulation.
fn stack<L: Automaton, U: Automaton>(lower: Vec<L>, upper: Vec<U>) -> Vec<Stacked<L, U>> {
    lower.into_iter().zip(upper).map(|(l, u)| Stacked::new(l, u, FdOutput::Bot)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sih_agreement::{check_k_set_agreement, check_k_set_agreement_degraded};
    use sih_detectors::{check_anti_omega, check_sigma, check_sigma_k};
    use sih_model::{Time, Value};
    use sih_registers::{check_linearizable, check_linearizable_degraded};
    use sih_runtime::{LivenessVerdict, StopReason};

    /// A plan applying `fault` to every directed link over `[from, until)`.
    fn all_links_plan(n: usize, duplicate: bool, until: Time) -> LinkFaultPlan {
        let mut b = LinkFaultPlan::builder(n);
        for src in 0..n as u32 {
            for dst in 0..n as u32 {
                b = if duplicate {
                    b.duplicate_every(ProcessId(src), ProcessId(dst), 2, 1, Time::ZERO, Some(until))
                } else {
                    b.drop_every(ProcessId(src), ProcessId(dst), 2, 0, Time::ZERO, Some(until))
                };
            }
        }
        b.build()
    }

    fn fig2(f: &FailurePattern, seed: u64, max_steps: u64) -> RunSpec {
        RunSpec::new(
            Algorithm::Fig2 { a0: ProcessId(0), a1: ProcessId(1) },
            f.clone(),
            seed,
            max_steps,
        )
    }

    fn two_client_scripts() -> Vec<Vec<OpKind>> {
        vec![
            vec![OpKind::Write(Value(1)), OpKind::Read],
            vec![OpKind::Read, OpKind::Write(Value(2)), OpKind::Read],
        ]
    }

    #[test]
    fn stack_fig3_fig2_solves_set_agreement_end_to_end() {
        // Theorem 2's positive direction as a single executable pipeline:
        // a {p,q}-register's detector (Σ_{p,q}) emulates σ (Figure 3),
        // which solves set agreement (Figure 2).
        let mut pool = RunPool::new();
        for seed in 0..6 {
            let f = FailurePattern::all_correct(5);
            let alg = Algorithm::StackFig3Fig2 { p: ProcessId(0), q: ProcessId(1) };
            let (tr, _) = pool.run(&RunSpec::new(alg, f.clone(), seed, 200_000));
            check_k_set_agreement(tr, &f, &distinct_proposals(5), 4).unwrap();
            // And the lower layer's emulated history is a legal σ history.
            check_sigma(tr.emulated_history(), &f, ProcessSet::from_iter([0, 1].map(ProcessId)))
                .unwrap();
        }
    }

    #[test]
    fn stack_fig3_fig2_with_only_pair_correct() {
        let mut pool = RunPool::new();
        for seed in 0..6 {
            let f = FailurePattern::crashed_from_start(
                5,
                ProcessSet::from_iter([2, 3, 4].map(ProcessId)),
            );
            let alg = Algorithm::StackFig3Fig2 { p: ProcessId(0), q: ProcessId(1) };
            let (tr, _) = pool.run(&RunSpec::new(alg, f.clone(), seed, 200_000));
            check_k_set_agreement(tr, &f, &distinct_proposals(5), 4).unwrap();
        }
    }

    #[test]
    fn stack_fig5_fig4_solves_n_minus_k_agreement_end_to_end() {
        let x = ProcessSet::from_iter([0, 1, 2, 3].map(ProcessId));
        let mut pool = RunPool::new();
        for seed in 0..6 {
            let f = FailurePattern::all_correct(6);
            let spec = RunSpec::new(Algorithm::StackFig5Fig4 { x }, f.clone(), seed, 300_000);
            let (tr, _) = pool.run(&spec);
            check_k_set_agreement(tr, &f, &distinct_proposals(6), 4).unwrap();
            check_sigma_k(tr.emulated_history(), &f, x).unwrap();
        }
    }

    #[test]
    fn fig6_pipeline_produces_legal_anti_omega() {
        let mut pool = RunPool::new();
        for seed in 0..6 {
            let f = FailurePattern::all_correct(4);
            let alg = Algorithm::Fig6 { a0: ProcessId(0), a1: ProcessId(1) };
            let (tr, _) = pool.run(&RunSpec::new(alg, f.clone(), seed, 10_000));
            check_anti_omega(tr.emulated_history(), &f).unwrap();
        }
    }

    #[test]
    fn register_pipeline_is_linearizable() {
        let s = ProcessSet::from_iter([0, 1].map(ProcessId));
        let f = FailurePattern::all_correct(4);
        let alg = Algorithm::Abd { s, scripts: two_client_scripts() };
        let mut pool = RunPool::new();
        let ops = pool.run(&RunSpec::new(alg, f, 3, 200_000)).0.op_records();
        assert_eq!(ops.iter().filter(|o| o.is_complete()).count(), 5);
        check_linearizable(&ops, None).unwrap();
    }

    #[test]
    fn faulty_fig2_is_safe_and_live_once_the_losses_quiesce() {
        let n = 4;
        let f = FailurePattern::all_correct(n);
        let plan = all_links_plan(n, false, Time(400));
        let mut pool = RunPool::new();
        for seed in 0..3 {
            let (tr, outcome) = pool.run(&fig2(&f, seed, 400_000).with_faults(plan.clone(), true));
            let verdict = check_k_set_agreement_degraded(
                tr,
                &f,
                &distinct_proposals(n),
                n - 1,
                outcome.reason,
            )
            .unwrap();
            assert_eq!(verdict, LivenessVerdict::Live, "seed {seed}");
            assert!(outcome.dropped > 0, "the lossy window saw traffic");
            assert_eq!(outcome.sent, outcome.delivered + outcome.dropped + outcome.in_flight);
        }
    }

    #[test]
    fn faulty_fig4_is_safe_and_live_under_duplication() {
        let n = 4;
        let f = FailurePattern::all_correct(n);
        let plan = all_links_plan(n, true, Time(300));
        let active = ProcessSet::from_iter([0, 1].map(ProcessId));
        let spec =
            RunSpec::new(Algorithm::Fig4 { active }, f.clone(), 7, 400_000).with_faults(plan, true);
        let mut pool = RunPool::new();
        let (tr, outcome) = pool.run(&spec);
        let verdict =
            check_k_set_agreement_degraded(tr, &f, &distinct_proposals(n), n - 1, outcome.reason)
                .unwrap();
        assert_eq!(verdict, LivenessVerdict::Live);
        assert!(outcome.duplicated > 0, "the duplicate window saw traffic");
    }

    #[test]
    fn faulty_register_workload_is_linearizable_and_live() {
        let s = ProcessSet::from_iter([0, 1].map(ProcessId));
        let f = FailurePattern::all_correct(4);
        let plan = all_links_plan(4, true, Time(300));
        let alg = Algorithm::Abd { s, scripts: two_client_scripts() };
        let spec = RunSpec::new(alg, f.clone(), 3, 400_000).with_faults(plan, true);
        let mut pool = RunPool::new();
        let (tr, outcome) = pool.run(&spec);
        let verdict =
            check_linearizable_degraded(&tr.op_records(), None, &f, outcome.reason).unwrap();
        assert_eq!(verdict, LivenessVerdict::Live);
        assert!(outcome.duplicated > 0);
    }

    #[test]
    fn raw_register_under_permanent_blackout_starves_safely() {
        let s = ProcessSet::from_iter([0, 1].map(ProcessId));
        let f = FailurePattern::all_correct(3);
        let plan = LinkFaultPlan::builder(3).blackout(Time::ZERO, None).build();
        let scripts = vec![vec![OpKind::Write(Value(1))], vec![OpKind::Read]];
        let spec = RunSpec::new(Algorithm::Abd { s, scripts }, f.clone(), 1, 1_000_000)
            .with_faults(plan, false);
        let mut pool = RunPool::new();
        let (tr, outcome) = pool.run(&spec);
        // The quorum protocol cannot make progress, and the engine proves
        // it long before the million-step budget.
        assert_eq!(outcome.reason, StopReason::Starved);
        assert!(outcome.steps < 100, "stopped after {} steps", outcome.steps);
        let verdict =
            check_linearizable_degraded(&tr.op_records(), None, &f, outcome.reason).unwrap();
        assert_eq!(verdict, LivenessVerdict::SafeButNotLive);
    }

    #[test]
    fn paxos_pipeline_reaches_consensus() {
        let f = FailurePattern::all_correct(4);
        let mut pool = RunPool::new();
        let (tr, _) = pool.run(&RunSpec::new(Algorithm::Paxos, f.clone(), 2, 200_000));
        check_k_set_agreement(tr, &f, &distinct_proposals(4), 1).unwrap();
    }

    /// A recycled slot is observationally identical to a fresh pool:
    /// same decisions, counters, end time and emulated history, run
    /// after run, even while other algorithms share the pool.
    #[test]
    fn pooled_runs_match_fresh_pool_runs() {
        let mut pool = RunPool::new();
        for seed in 0..8 {
            let f = if seed % 2 == 0 {
                FailurePattern::all_correct(4)
            } else {
                FailurePattern::crashed_from_start(4, ProcessSet::singleton(ProcessId(3)))
            };
            pool.run(&RunSpec::new(Algorithm::Paxos, f.clone(), seed, 100_000));
            let mut fresh_pool = RunPool::new();
            let (fresh, fresh_outcome) = fresh_pool.run(&fig2(&f, seed, 100_000));
            let (pooled, pooled_outcome) = pool.run(&fig2(&f, seed, 100_000));
            assert_eq!(pooled.events(), fresh.events(), "seed {seed}");
            assert_eq!(pooled.total_steps(), fresh.total_steps());
            assert_eq!(pooled.messages_sent(), fresh.messages_sent());
            assert_eq!(pooled.end_time(), fresh.end_time());
            assert_eq!(pooled.distinct_decisions(), fresh.distinct_decisions());
            assert_eq!(format!("{pooled_outcome:?}"), format!("{fresh_outcome:?}"));
        }
    }

    /// A light-level pooled sweep still feeds the checkers correctly.
    #[test]
    fn light_trace_pooled_sweep_checks_clean() {
        let mut pool = RunPool::with_trace_level(TraceLevel::Light);
        for seed in 0..4 {
            let f = FailurePattern::all_correct(4);
            let (tr, _) = pool.run(&fig2(&f, seed, 100_000));
            assert!(tr.events().iter().all(|e| !matches!(
                e,
                sih_runtime::Event::Step { .. } | sih_runtime::Event::Send { .. }
            )));
            check_k_set_agreement(tr, &f, &distinct_proposals(4), 3).unwrap();
        }
    }
}
