//! Counterexample harness: record, shrink, replay (`lab repro`).
//!
//! This module binds the serializable [`Schedule`] artifact of
//! `sih_runtime::repro` to concrete **workloads** — named, fully
//! reconstructible configurations of one algorithm + one detector + one
//! checker. A schedule names its workload (`checker:` line), so replaying
//! it needs nothing but the schedule file: the registry rebuilds the
//! automata and detector from `n`, `k` and `seed`, installs the recorded
//! crash pattern and link-fault plan, and re-executes the exact choice
//! sequence through a strict [`ScriptedScheduler`].
//!
//! Workloads come in sound/weakened pairs: the sound detector satisfies
//! its specification and the run verdict is `ok`; the weakened twin (from
//! `sih_detectors::weak`) disables exactly the intersection/quorum
//! hypothesis, and the resulting safety violation — recorded, shrunk and
//! committed under `tests/corpus/` — is a *negative witness* for the
//! paper's R1/R4/R10 hypotheses.
//!
//! Replays run in two modes. **Strict** (corpus verification): the script
//! must execute exactly — exhaustion is a typed stop, an illegal choice
//! is an engine panic, and the verdict plus the executed script must both
//! match the schedule. **Lenient** (shrink candidates): scripted choices
//! that are illegal in the mutated run are *skipped*; because skipping
//! executes nothing, the surviving legal subsequence is itself a valid
//! schedule that replays identically — the canonical form the shrinker
//! keeps. Panics (e.g. Fig. 2's validity `expect` under a broken σ) are
//! caught and mapped to the stable verdict token `panic`, making
//! panic-witnessing schedules first-class shrinkable artifacts.

use sih_agreement::{
    check_k_agreement_safety, distinct_proposals, fig2_processes, fig4_processes, Equivocator,
    Fig2SetAgreement, Fig4SetAgreement,
};
use sih_detectors::{check_anti_omega, Sigma, SigmaK, SigmaS, WeakSigma, WeakSigmaK, WeakSigmaS};
use sih_model::{
    AdversaryPlan, Armor, AttackKind, AttackSpec, FailureDetector, FailurePattern, FdOutput,
    LinkFaultPlan, OpKind, ProcessId, ProcessSet, Time, Value,
};
use sih_reductions::Fig6WithoutChange;
use sih_registers::{
    abd_processes, check_linearizable, AbdRegister, LinearizabilityViolation, ScriptedClient,
    SplitAckForger,
};
use sih_runtime::sweep::Sweep;
use sih_runtime::{
    shrink_schedule, Automaton, Choice, Corruptible, FairScheduler, Schedule, ScriptedScheduler,
    ShrinkOptions, ShrinkReport, Simulation,
};
use std::fmt;
use std::sync::LazyLock;

/// The verdict token of a run that tripped an engine or automaton panic.
pub const PANIC_VERDICT: &str = "panic";

/// One registered workload: a named, reconstructible configuration the
/// schedule format can reference.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Registry name (the `checker:` line of schedules).
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Whether a fresh fair-scheduler run is expected to end `ok`
    /// (sound detector) or to witness a violation (weakened twin).
    pub expect_ok: bool,
    /// What a fresh `record` run uses.
    pub defaults: Defaults,
    /// The smallest `n` the workload's claim still covers at `k` — the
    /// shrinker's `n`-reduction floor.
    pub min_n: fn(usize) -> usize,
    /// Builds the detector, automata, stop rule and verdict for a
    /// schedule, and drives the run.
    run: fn(&Schedule, Mode) -> Result<RunResult, ReproError>,
}

/// The configuration of a fresh `record` run of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Defaults {
    /// System size.
    pub n: usize,
    /// Step bound.
    pub steps: u64,
    /// The crash pattern at system size `n`.
    pub pattern: fn(usize) -> FailurePattern,
    /// The link-fault plan at system size `n`.
    pub faults: fn(usize) -> LinkFaultPlan,
    /// The adversary configuration — mutation plan, scripted attack,
    /// armor — at system size `n`. `None` marks an honest workload,
    /// whose reconstruction rejects a non-default adversary plan, attack
    /// or armor rung instead of silently ignoring it.
    pub adversary: Option<fn(usize) -> AdversaryConfig>,
    /// Whether the schedule fuzzer seeds its corpus with fresh recordings
    /// of the workload: the weakened twins, whose planted soundness holes
    /// give mutants something to find, and one byzantine workload, whose
    /// adversary fields exercise the gated v2 operators.
    pub fuzz: bool,
}

/// A mutation plan, scripted attack and armor rung.
pub type AdversaryConfig = (AdversaryPlan, Option<AttackSpec>, Armor);

/// An honest workload's record defaults at `n = 3`: no crashes, reliable
/// links, no adversary.
const HONEST: Defaults = Defaults {
    n: 3,
    steps: 4_000,
    pattern: FailurePattern::all_correct,
    faults: LinkFaultPlan::reliable,
    adversary: None,
    fuzz: false,
};

/// The register workloads' record defaults.
const ABD: Defaults = Defaults { n: 4, steps: 6_000, ..HONEST };

const P0: ProcessId = ProcessId(0);
const P1: ProcessId = ProcessId(1);

/// The workload registry: its names are the only valid `checker:`
/// values. `sih-analysis` reads them from this table's `name` lines to
/// validate the committed corpus.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fig2-sigma",
        summary: "Fig. 2 (n-1)-set agreement from sound σ (R1, holds)",
        expect_ok: true,
        defaults: HONEST,
        min_n: |_| 2,
        run: |s, m| {
            let fd = Sigma::new(P0, P1, &s.pattern, s.seed);
            drive(s, m, fig2(s), &fd, |_| false, agreement(s.n, s.n - 1))
        },
    },
    Workload {
        name: "fig2-weak-sigma",
        summary: "Fig. 2 under σ with intersection disabled (R1 negative witness)",
        expect_ok: false,
        defaults: Defaults { fuzz: true, ..HONEST },
        min_n: |_| 2,
        run: |s, m| {
            let fd = WeakSigma::new(P0, P1);
            drive(s, m, fig2(s), &fd, |_| false, agreement(s.n, s.n - 1))
        },
    },
    Workload {
        name: "fig4-sigma-k",
        summary: "Fig. 4 (n-k)-set agreement from sound σ_2k (R4, holds)",
        expect_ok: true,
        defaults: Defaults { n: 4, ..HONEST },
        min_n: |k| (2 * k).max(2),
        run: |s, m| {
            let (procs, active) = fig4(s)?;
            let fd = SigmaK::new(active, &s.pattern, s.seed);
            drive(s, m, procs, &fd, |_| false, agreement(s.n, s.n - s.k))
        },
    },
    Workload {
        name: "fig4-weak-sigma-k",
        summary: "Fig. 4 under σ_2k with intersection disabled (R4 negative witness)",
        expect_ok: false,
        defaults: Defaults { n: 4, fuzz: true, ..HONEST },
        min_n: |k| (2 * k).max(2),
        run: |s, m| {
            let (procs, active) = fig4(s)?;
            let fd = WeakSigmaK::new(active);
            drive(s, m, procs, &fd, |_| false, agreement(s.n, s.n - s.k))
        },
    },
    Workload {
        name: "abd-sigma-s",
        summary: "ABD register in S from sound Σ_S (Prop. 1 route, holds)",
        expect_ok: true,
        defaults: ABD,
        min_n: |_| 2,
        run: |s, m| {
            let fd = SigmaS::new(clients(), &s.pattern, s.seed);
            drive(s, m, abd(s, one_writer()), &fd, clients_done, linearizability)
        },
    },
    Workload {
        name: "abd-weak-quorum",
        summary: "ABD register with quorum intersection disabled (stale read)",
        expect_ok: false,
        // The planted quorum violation: p0's writeback traffic never
        // reaches the other replicas, so a singleton-quorum read at p1
        // is guaranteed stale (with sound Σ_S the write could not have
        // completed without a real quorum, so this plan is harmless to
        // the sound twin).
        defaults: Defaults {
            faults: |n| {
                let mut b = LinkFaultPlan::builder(n);
                for q in 1..n as u32 {
                    b = b.drop_link(P0, ProcessId(q), Time::ZERO, None);
                }
                b.build()
            },
            fuzz: true,
            ..ABD
        },
        min_n: |_| 2,
        run: |s, m| {
            let fd = WeakSigmaS::new(clients());
            drive(s, m, abd(s, one_writer()), &fd, clients_done, linearizability)
        },
    },
    Workload {
        name: "fig6-without-change",
        summary: "Fig. 6 minus the CHANGE handshake: anti-Ω breaks (R10 witness)",
        expect_ok: false,
        // Fig. 6's crossed pair needs the non-actives to announce and
        // crash; σ then stabilizes to {p0} at p0.
        defaults: Defaults {
            n: 4,
            steps: 60_000,
            pattern: |n| match n {
                0..=3 => FailurePattern::all_correct(n),
                _ => FailurePattern::builder(n)
                    .crash_at(ProcessId(2), Time(40))
                    .crash_at(ProcessId(3), Time(40))
                    .build(),
            },
            ..HONEST
        },
        min_n: |_| 2,
        run: |s, m| {
            let procs = (0..s.n).map(|_| Fig6WithoutChange::new(s.n)).collect();
            let fd = Sigma::new(P0, P1, &s.pattern, s.seed);
            // Recording stops once the crossed leader pair has formed —
            // the stable state that violates anti-Ω's finiteness.
            let crossed = |sim: &Simulation<Fig6WithoutChange>| {
                let h = sim.trace().emulated_history();
                h.timeline(P0).final_output() == FdOutput::Leader(P1)
                    && h.timeline(P1).final_output() == FdOutput::Leader(P0)
            };
            let verdict = |sim: &Simulation<Fig6WithoutChange>| match check_anti_omega(
                sim.trace().emulated_history(),
                &s.pattern,
            ) {
                Ok(()) => "ok".to_string(),
                Err(v) => format!("violation:{}", v.property),
            };
            drive(s, m, procs, &fd, crossed, verdict)
        },
    },
    Workload {
        name: "fig2-byz-perturb",
        summary: "Fig. 2 under a value-perturbing network adversary (validity attack)",
        expect_ok: false,
        // Perturbing p0's traffic to p1 injects a never-proposed value
        // into the decision flood: a validity violation at p1.
        defaults: Defaults { adversary: Some(perturb_p0_p1), fuzz: true, ..HONEST },
        min_n: |_| 2,
        run: |s, m| {
            let fd = Sigma::new(P0, P1, &s.pattern, s.seed);
            drive(s, m, equivocators(s), &fd, |_| false, agreement(s.n, s.n - 1))
        },
    },
    Workload {
        name: "fig2-byz-equivocate",
        summary: "Fig. 2 with p0 equivocating per recipient (agreement/validity attack)",
        expect_ok: false,
        // p0 tells odd peers the story `x = 99`: a decision flood with a
        // value nobody proposed.
        defaults: Defaults {
            adversary: Some(|n| {
                let attack = AttackSpec { kind: AttackKind::Equivocate, x: 99 };
                (AdversaryPlan::honest(n), Some(attack), Armor::NONE)
            }),
            ..HONEST
        },
        min_n: |_| 2,
        run: |s, m| {
            let fd = Sigma::new(P0, P1, &s.pattern, s.seed);
            drive(s, m, equivocators(s), &fd, |_| false, agreement(s.n, s.n - 1))
        },
    },
    Workload {
        name: "fig4-byz-perturb",
        summary: "Fig. 4 under a value-perturbing network adversary (validity attack)",
        expect_ok: false,
        defaults: Defaults { n: 4, adversary: Some(perturb_p0_p1), ..HONEST },
        min_n: |_| 2,
        run: |s, m| {
            let (procs, active) = fig4(s)?;
            let fd = SigmaK::new(active, &s.pattern, s.seed);
            drive(s, m, procs, &fd, |_| false, agreement(s.n, s.n - s.k))
        },
    },
    Workload {
        name: "abd-byz-perturb",
        summary: "ABD under timestamp-perturbing links (write order scrambled)",
        expect_ok: false,
        // Timestamp perturbation on every link scrambles the apparent
        // order of the two writes; some seed's read observes the flip.
        defaults: Defaults {
            adversary: Some(|n| {
                let mut b = AdversaryPlan::builder(n);
                for src in 0..n as u32 {
                    for dst in (0..n as u32).filter(|&dst| dst != src) {
                        b = b.perturb(ProcessId(src), ProcessId(dst), 100, Time::ZERO, None);
                    }
                }
                (b.build(), None, Armor::NONE)
            }),
            ..ABD
        },
        min_n: |_| 2,
        run: |s, m| {
            // Two writers: perturbed timestamps can flip the apparent
            // write order, which a single-writer script never exposes.
            let scripts = vec![
                vec![OpKind::Write(Value(1)), OpKind::Read],
                vec![OpKind::Read, OpKind::Write(Value(2)), OpKind::Read],
            ];
            let fd = SigmaS::new(clients(), &s.pattern, s.seed);
            drive(s, m, forgers(s, scripts), &fd, clients_done, linearizability)
        },
    },
    Workload {
        name: "abd-byz-forge-ack",
        summary: "ABD under fabricated quorum acks in flight (stale-future read)",
        expect_ok: false,
        // A fabricated quorum ack from the last replica to the reader
        // carries a future timestamp; its value wins the read's max.
        defaults: Defaults {
            adversary: Some(|n| {
                let last = ProcessId(n as u32 - 1);
                let plan = AdversaryPlan::builder(n).forge_ack(last, P1, 77, Time::ZERO, None);
                (plan.build(), None, Armor::NONE)
            }),
            ..ABD
        },
        min_n: |_| 2,
        run: |s, m| {
            let fd = SigmaS::new(clients(), &s.pattern, s.seed);
            drive(s, m, forgers(s, one_writer()), &fd, clients_done, linearizability)
        },
    },
    Workload {
        name: "abd-byz-split-ack",
        summary: "ABD with one replica forging split acks per client (atomicity attack)",
        expect_ok: false,
        // The last replica answers odd clients with an invented view.
        defaults: Defaults {
            adversary: Some(|n| {
                let attack = AttackSpec { kind: AttackKind::SplitAck, x: 55 };
                (AdversaryPlan::honest(n), Some(attack), Armor::NONE)
            }),
            ..ABD
        },
        min_n: |_| 2,
        run: |s, m| {
            let fd = SigmaS::new(clients(), &s.pattern, s.seed);
            drive(s, m, forgers(s, one_writer()), &fd, clients_done, linearizability)
        },
    },
];

/// The workloads whose reconstruction honors the schedule's adversary
/// fields (those with a default adversary configuration).
pub static BYZ_WORKLOADS: LazyLock<Vec<&'static str>> = LazyLock::new(|| {
    WORKLOADS.iter().filter(|w| w.defaults.adversary.is_some()).map(|w| w.name).collect()
});

/// Looks up a workload by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Errors of the repro harness (schedule *parse* errors are
/// [`sih_runtime::ScheduleError`]; these are semantic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReproError {
    /// The schedule names a checker absent from [`WORKLOADS`].
    UnknownWorkload(String),
    /// Parameters outside the workload's constructible range.
    BadParams(String),
}

impl fmt::Display for ReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReproError::UnknownWorkload(name) => {
                write!(f, "unknown workload `{name}` (known: ")?;
                for (i, w) in WORKLOADS.iter().enumerate() {
                    write!(f, "{}{}", if i > 0 { ", " } else { "" }, w.name)?;
                }
                write!(f, ")")
            }
            ReproError::BadParams(detail) => write!(f, "bad parameters: {detail}"),
        }
    }
}

impl std::error::Error for ReproError {}

/// How a workload run is driven through the schedule's choices.
#[derive(Clone, Copy, Debug)]
enum Mode {
    /// A fresh recording run under [`FairScheduler`] (the schedule's
    /// `seed` and `max_steps`; its choices are ignored).
    Fair,
    /// Strict (exact) or lenient (skip illegal choices) replay.
    Replay(ReplayMode),
    /// Replay that additionally records the per-step state fingerprint
    /// after every executed step — the schedule fuzzer's coverage probe.
    Coverage(ReplayMode),
}

/// What a driven run produced.
struct RunResult {
    verdict: String,
    executed: Vec<Choice>,
    /// Per-step state fingerprints (only [`Mode::Coverage`] fills this;
    /// empty otherwise).
    fingerprints: Vec<u64>,
}

// ---- quiet panic capture ------------------------------------------------

thread_local! {
    static SILENCED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}
static INSTALL_HOOK: std::sync::Once = std::sync::Once::new();

/// Runs `f`, catching panics without letting the default hook spam
/// stderr. The replacement hook is installed once and delegates to the
/// previous hook for every thread that is not inside `quiet_catch`, so
/// unrelated panics keep their backtraces.
pub(crate) fn quiet_catch<T>(f: impl FnOnce() -> T) -> Result<T, ()> {
    INSTALL_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SILENCED.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
    SILENCED.with(|s| s.set(true));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    SILENCED.with(|s| s.set(false));
    r.map_err(|_| ())
}

// ---- the driver ---------------------------------------------------------

/// Builds the simulation, installs the schedule's link faults and (unless
/// honest) its adversary, drives it per `mode`, and computes the verdict.
/// Panics anywhere in the stepped region (illegal strict choice,
/// automaton `expect`, checker assertion) become [`PANIC_VERDICT`]; the
/// executed script is still meaningful because the engine records each
/// choice *before* stepping the automaton.
fn drive<A, D>(
    s: &Schedule,
    mode: Mode,
    procs: Vec<A>,
    fd: &D,
    mut done: impl FnMut(&Simulation<A>) -> bool,
    verdict: impl FnOnce(&Simulation<A>) -> String,
) -> Result<RunResult, ReproError>
where
    A: Automaton + fmt::Debug,
    A::Msg: Corruptible,
    D: FailureDetector,
{
    let mut sim = Simulation::new(procs, s.pattern.clone());
    if !s.faults.is_reliable() {
        sim.set_link_faults(s.faults.clone());
    }
    if !s.adversary.is_honest() {
        sim.set_adversary(s.adversary.clone(), s.armor);
    }
    let choices = &s.choices;
    let mut fps: Vec<u64> = Vec::new();
    let stepped = quiet_catch(std::panic::AssertUnwindSafe(|| {
        match mode {
            Mode::Fair => {
                let mut sched = FairScheduler::new(s.seed);
                sim.run_until(&mut sched, fd, s.max_steps, |s| done(s));
            }
            Mode::Replay(ReplayMode::Strict) => {
                let mut sched = ScriptedScheduler::new(choices.iter().copied()).strict();
                sim.run(&mut sched, fd, choices.len() as u64);
            }
            Mode::Replay(ReplayMode::Lenient) => {
                for &c in choices {
                    let legal = sim.schedulable_set().contains(c.p)
                        && c.deliver.is_none_or(|i| i < sim.network().pending_count(c.p));
                    if legal {
                        sim.step(c, fd);
                    }
                }
            }
            Mode::Coverage(ReplayMode::Strict) => {
                // Exactly the strict trajectory, one engine-checked step
                // at a time: each `run` call re-evaluates the
                // halt/starvation stops before stepping, so the
                // fingerprint stream follows the same path (and panics in
                // the same places) as strict replay.
                let mut sched = ScriptedScheduler::new(choices.iter().copied()).strict();
                loop {
                    let before = sim.now();
                    sim.run(&mut sched, fd, 1);
                    if sim.now() == before {
                        break; // no step taken: halted, starved or exhausted
                    }
                    fps.push(sim.fingerprint());
                }
            }
            Mode::Coverage(ReplayMode::Lenient) => {
                // Lenient legality, but with the engine's halt and
                // starvation stops mirrored: plain lenient replay happily
                // executes legal no-op steps past the point where every
                // strict runner would have stopped, and such trailing
                // steps make the executed script non-strict-replayable.
                // Cutting at the same stops keeps the canonical form
                // (executed script + observed verdict) a strict-replaying
                // schedule.
                for &c in choices {
                    if sim.all_correct_halted() || sim.sched_state().starved() {
                        break;
                    }
                    let legal = sim.schedulable_set().contains(c.p)
                        && c.deliver.is_none_or(|i| i < sim.network().pending_count(c.p));
                    if legal {
                        sim.step(c, fd);
                        fps.push(sim.fingerprint());
                    }
                }
            }
        };
    }));
    let verdict = match stepped {
        Ok(()) => verdict(&sim),
        Err(()) => PANIC_VERDICT.to_string(),
    };
    Ok(RunResult { verdict, executed: sim.script().to_vec(), fingerprints: fps })
}

/// The `k`-agreement safety verdict over `n` distinct proposals.
fn agreement<A: Automaton>(n: usize, k: usize) -> impl FnOnce(&Simulation<A>) -> String {
    move |sim| match check_k_agreement_safety(sim.trace(), &distinct_proposals(n), k) {
        Ok(()) => "ok".to_string(),
        Err(v) => format!("violation:{}", v.property),
    }
}

fn linearizability<A: Automaton>(sim: &Simulation<A>) -> String {
    match check_linearizable(&sim.trace().op_records(), None) {
        Ok(()) => "ok".to_string(),
        Err(LinearizabilityViolation::NotLinearizable { .. }) => {
            "violation:not-linearizable".to_string()
        }
        Err(LinearizabilityViolation::HistoryTooLarge { .. }) => {
            "violation:history-too-large".to_string()
        }
        Err(LinearizabilityViolation::Incomplete { .. }) => "violation:incomplete".to_string(),
    }
}

fn fig2(s: &Schedule) -> Vec<Fig2SetAgreement> {
    fig2_processes(&distinct_proposals(s.n))
}

/// Figure 4's automata and its `2k` active processes.
fn fig4(s: &Schedule) -> Result<(Vec<Fig4SetAgreement>, ProcessSet), ReproError> {
    if s.k < 1 || 2 * s.k > s.n {
        return Err(ReproError::BadParams(format!(
            "fig4 needs 1 <= k and 2k <= n, got k={}, n={}",
            s.k, s.n
        )));
    }
    Ok((fig4_processes(&distinct_proposals(s.n)), (0..2 * s.k as u32).map(ProcessId).collect()))
}

/// Figure 2 with every process wrapped so the system type is uniform;
/// p0 is the equivocator iff the schedule carries the attack (the
/// shrinker may have dropped it).
fn equivocators(s: &Schedule) -> Vec<Equivocator<Fig2SetAgreement>> {
    let on = matches!(s.attack, Some(AttackSpec { kind: AttackKind::Equivocate, .. }));
    let x = s.attack.map_or(0, |a| a.x);
    fig2(s)
        .into_iter()
        .enumerate()
        .map(|(i, p)| Equivocator::new(p, on && i == 0, x, s.armor))
        .collect()
}

/// The register's clients `S = {p0, p1}`.
fn clients() -> ProcessSet {
    ProcessSet::from_iter([P0, P1])
}

/// The fixed register workload: `p0` writes once, `p1` reads repeatedly
/// (long enough that late reads start after the write returned).
fn one_writer() -> Vec<Vec<OpKind>> {
    vec![vec![OpKind::Write(Value(7))], vec![OpKind::Read; 6]]
}

fn abd(s: &Schedule, scripts: Vec<Vec<OpKind>>) -> Vec<AbdRegister> {
    abd_processes(clients(), s.n, scripts)
}

/// ABD with every replica wrapped; the last one (never a client) forges
/// split acks iff the schedule carries the attack.
fn forgers(s: &Schedule, scripts: Vec<Vec<OpKind>>) -> Vec<SplitAckForger> {
    let on = matches!(s.attack, Some(AttackSpec { kind: AttackKind::SplitAck, .. }));
    let x = s.attack.map_or(0, |a| a.x);
    abd(s, scripts)
        .into_iter()
        .enumerate()
        .map(|(i, p)| SplitAckForger::new(p, on && i == s.n - 1, x, s.armor))
        .collect()
}

/// A register emulation never halts; a recording run is done once both
/// clients drained their scripts.
fn clients_done<A: Automaton + ScriptedClient>(sim: &Simulation<A>) -> bool {
    clients().iter().all(|p| sim.process(p).script_finished())
}

/// Perturbing p0's traffic to p1 by `x = 100`.
fn perturb_p0_p1(n: usize) -> AdversaryConfig {
    let plan = AdversaryPlan::builder(n).perturb(P0, P1, 100, Time::ZERO, None).build();
    (plan, None, Armor::NONE)
}

/// Reconstructs the schedule's workload and drives it. Everything a
/// schedule records — `n`, `k`, `seed`, pattern, faults, adversary plan,
/// attack, armor — plus the mode fully determines the run.
fn run_workload(s: &Schedule, mode: Mode) -> Result<RunResult, ReproError> {
    let w = workload(&s.checker).ok_or_else(|| ReproError::UnknownWorkload(s.checker.clone()))?;
    if s.pattern.n() != s.n || s.faults.n() != s.n || s.adversary.n() != s.n {
        return Err(ReproError::BadParams(format!(
            "n mismatch: n={}, pattern over {}, faults over {}, adversary over {}",
            s.n,
            s.pattern.n(),
            s.faults.n(),
            s.adversary.n()
        )));
    }
    if s.n < 2 {
        return Err(ReproError::BadParams(format!("{} needs n >= 2, got {}", w.name, s.n)));
    }
    if w.defaults.adversary.is_none()
        && (!s.adversary.is_honest() || s.attack.is_some() || s.armor != Armor::NONE)
    {
        return Err(ReproError::BadParams(format!(
            "workload `{}` does not honor adversary fields; only {:?} do",
            w.name, *BYZ_WORKLOADS
        )));
    }
    (w.run)(s, mode)
}

/// Parameters of a fresh recording run.
#[derive(Clone, Debug)]
pub struct RecordRequest {
    /// Workload name.
    pub workload: String,
    /// System size (`None` = workload default).
    pub n: Option<usize>,
    /// Workload parameter `k`.
    pub k: usize,
    /// Scheduler + detector seed.
    pub seed: u64,
    /// Step bound (`None` = workload default).
    pub max_steps: Option<u64>,
}

impl RecordRequest {
    /// A request for `workload` with every other knob at its default.
    pub fn new(workload: &str) -> Self {
        RecordRequest { workload: workload.to_string(), n: None, k: 1, seed: 0, max_steps: None }
    }
}

/// Runs the workload once under the fair scheduler and **captures** a
/// [`Schedule`] iff the checker failed (or the run panicked); `Ok(None)`
/// means the run was clean — nothing to reproduce.
pub fn record(req: &RecordRequest) -> Result<Option<Schedule>, ReproError> {
    record_any(req).map(|s| (s.verdict != "ok").then_some(s))
}

/// Like [`record`] but captures the schedule **unconditionally** — an
/// `ok` run is returned too (with `verdict: "ok"`). The schedule fuzzer
/// seeds its corpus from these: a clean fair-scheduler trajectory is a
/// legal, strict-replayable starting point for mutation even when the
/// workload has no violation to witness at that seed.
pub fn record_any(req: &RecordRequest) -> Result<Schedule, ReproError> {
    let w =
        workload(&req.workload).ok_or_else(|| ReproError::UnknownWorkload(req.workload.clone()))?;
    let d = w.defaults;
    let n = req.n.unwrap_or(d.n);
    if n < 2 {
        return Err(ReproError::BadParams(format!("{} needs n >= 2, got {n}", w.name)));
    }
    let (adversary, attack, armor) =
        d.adversary.map_or((AdversaryPlan::honest(n), None, Armor::NONE), |f| f(n));
    let mut s = Schedule {
        checker: w.name.to_string(),
        n,
        k: req.k,
        seed: req.seed,
        max_steps: req.max_steps.unwrap_or(d.steps),
        pattern: (d.pattern)(n),
        faults: (d.faults)(n),
        adversary,
        attack,
        armor,
        choices: Vec::new(),
        verdict: String::new(),
    };
    let rr = run_workload(&s, Mode::Fair)?;
    (s.choices, s.verdict) = (rr.executed, rr.verdict);
    Ok(s)
}

/// [`record`] over seeds `0..seed_tries`, returning the first capture.
/// Deterministic: the ascending seed scan means the same violation is
/// found every time.
pub fn record_first_violation(
    name: &str,
    k: usize,
    seed_tries: u64,
) -> Result<Option<Schedule>, ReproError> {
    let mut req = RecordRequest::new(name);
    req.k = k;
    for seed in 0..seed_tries {
        req.seed = seed;
        if let Some(s) = record(&req)? {
            return Ok(Some(s));
        }
    }
    Ok(None)
}

/// Captures a schedule from an explicit script — the bridge from the
/// exhaustive explorer: feed the violating script of an `ExploreResult`
/// here (with the same pattern/faults the explorer ran under) and the
/// verdict is computed by a strict replay.
pub fn capture_from_script(
    name: &str,
    n: usize,
    k: usize,
    seed: u64,
    pattern: FailurePattern,
    faults: LinkFaultPlan,
    script: Vec<Choice>,
) -> Result<Schedule, ReproError> {
    // The exhaustive explorer runs adversary-free; captures from it are
    // honest-plan schedules by construction.
    let mut s = Schedule {
        checker: name.to_string(),
        n,
        k,
        seed,
        max_steps: 0,
        pattern,
        faults,
        adversary: AdversaryPlan::honest(n),
        attack: None,
        armor: Armor::NONE,
        choices: script,
        verdict: String::new(),
    };
    let rr = run_workload(&s, Mode::Replay(ReplayMode::Strict))?;
    s.max_steps = rr.executed.len() as u64;
    (s.choices, s.verdict) = (rr.executed, rr.verdict);
    Ok(s)
}

/// Replay fidelity mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplayMode {
    /// The script must execute exactly (corpus verification).
    Strict,
    /// Skip choices that are illegal in the mutated run (shrinking).
    Lenient,
}

/// The outcome of replaying a schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayReport {
    /// Verdict the replay produced.
    pub verdict: String,
    /// Choices actually executed.
    pub executed: Vec<Choice>,
    /// Whether the replay reproduced the schedule: same verdict, and (in
    /// strict mode) the exact same executed script.
    pub matches: bool,
}

/// Replays a schedule through its registered workload.
pub fn replay(s: &Schedule, mode: ReplayMode) -> Result<ReplayReport, ReproError> {
    let rr = run_workload(s, Mode::Replay(mode))?;
    let matches =
        rr.verdict == s.verdict && (mode == ReplayMode::Lenient || rr.executed == s.choices);
    Ok(ReplayReport { verdict: rr.verdict, executed: rr.executed, matches })
}

/// The outcome of a coverage replay: a [`ReplayReport`]'s data plus the
/// per-step state fingerprint stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FingerprintReplay {
    /// Verdict the replay produced.
    pub verdict: String,
    /// Choices actually executed.
    pub executed: Vec<Choice>,
    /// The state fingerprint after each executed step, in step order
    /// (a panicking run keeps the prefix up to the panicking step).
    pub fingerprints: Vec<u64>,
}

/// Replays a schedule and records the state fingerprint after every
/// executed step — the schedule fuzzer's evaluation probe. `Strict`
/// follows exactly the [`ReplayMode::Strict`] trajectory. `Lenient`
/// follows the [`ReplayMode::Lenient`] one but additionally stops at
/// the engine's halt/starvation stops, so the executed script is always
/// a strict-replayable canonical form (plain lenient replay may tack on
/// legal no-op steps a strict runner would never reach).
pub fn replay_with_fingerprints(
    s: &Schedule,
    mode: ReplayMode,
) -> Result<FingerprintReplay, ReproError> {
    let rr = run_workload(s, Mode::Coverage(mode))?;
    Ok(FingerprintReplay {
        verdict: rr.verdict,
        executed: rr.executed,
        fingerprints: rr.fingerprints,
    })
}

/// Shrinks a failing schedule with the delta-debugging engine, using a
/// lenient replay of the *same* workload checker as the reproduction
/// oracle. The accepted canonical form after every mutation is the
/// actually-executed choice sequence, so the final schedule strict-replays
/// exactly. Serial and deterministic — thread count never enters.
pub fn shrink(s: &Schedule) -> Result<(Schedule, ShrinkReport), ReproError> {
    let w = workload(&s.checker).ok_or_else(|| ReproError::UnknownWorkload(s.checker.clone()))?;
    let opts = ShrinkOptions { min_n: (w.min_n)(s.k), ..ShrinkOptions::default() };
    let target = s.verdict.clone();
    let mut eval = |cand: &Schedule| -> Option<Schedule> {
        let rep = replay(cand, ReplayMode::Lenient).ok()?;
        (rep.verdict == target).then(|| Schedule { choices: rep.executed, ..cand.clone() })
    };
    Ok(shrink_schedule(s, &opts, &mut eval))
}

/// One corpus entry's verification outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusEntry {
    /// File name (not path) of the entry.
    pub file: String,
    /// Whether the entry reproduced exactly.
    pub ok: bool,
    /// The verdict replayed, or what went wrong.
    pub detail: String,
}

impl fmt::Display for CorpusEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", if self.ok { "PASS" } else { "FAIL" }, self.file, self.detail)
    }
}

fn verify_one(file: &str, text: &str) -> CorpusEntry {
    let s = match Schedule::parse(text) {
        Ok(s) => s,
        Err(e) => {
            return CorpusEntry { file: file.to_string(), ok: false, detail: format!("parse: {e}") }
        }
    };
    match replay(&s, ReplayMode::Strict) {
        Ok(rep) if rep.matches => CorpusEntry {
            file: file.to_string(),
            ok: true,
            detail: format!("reproduced `{}` in {} steps", s.verdict, s.choices.len()),
        },
        Ok(rep) => CorpusEntry {
            file: file.to_string(),
            ok: false,
            detail: if rep.verdict != s.verdict {
                format!("stale: recorded `{}`, replayed `{}`", s.verdict, rep.verdict)
            } else {
                format!(
                    "stale: replay executed {} of {} scripted choices",
                    rep.executed.len(),
                    s.choices.len()
                )
            },
        },
        Err(e) => CorpusEntry { file: file.to_string(), ok: false, detail: e.to_string() },
    }
}

/// Verifies `(file name, file text)` corpus entries, fanning the strict
/// replays over the deterministic [`Sweep`] engine: the report is
/// bitwise identical for every `threads` value (including 0 = all cores).
pub fn verify_corpus(entries: &[(String, String)], threads: usize) -> Vec<CorpusEntry> {
    Sweep::new(threads).run(entries.to_vec(), || {
        |_idx: usize, (file, text): (String, String)| verify_one(&file, &text)
    })
}

/// Every `*.schedule` file under `dir` as `(file name, text)`, sorted by
/// name.
pub(crate) fn read_schedule_dir(dir: &std::path::Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "schedule"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let name = path
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            Ok((name, std::fs::read_to_string(&path)?))
        })
        .collect()
}

/// Reads every `*.schedule` file under `dir` (sorted by name) and
/// verifies the lot.
pub fn verify_corpus_dir(
    dir: &std::path::Path,
    threads: usize,
) -> std::io::Result<Vec<CorpusEntry>> {
    Ok(verify_corpus(&read_schedule_dir(dir)?, threads))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sound_workloads_record_nothing() {
        for name in ["fig2-sigma", "fig4-sigma-k", "abd-sigma-s"] {
            let captured = record(&RecordRequest::new(name)).unwrap();
            assert!(captured.is_none(), "{name} captured {captured:?}");
        }
    }

    #[test]
    fn weak_workloads_capture_and_replay_bit_identically() {
        for name in ["fig2-weak-sigma", "fig4-weak-sigma-k", "abd-weak-quorum"] {
            let s = record_first_violation(name, 1, 64)
                .unwrap()
                .unwrap_or_else(|| panic!("{name}: no violation in 64 seeds"));
            assert!(s.verdict.starts_with("violation:") || s.verdict == PANIC_VERDICT, "{name}");
            let rep = replay(&s, ReplayMode::Strict).unwrap();
            assert!(rep.matches, "{name}: {} vs {}", rep.verdict, s.verdict);
            assert_eq!(rep.executed, s.choices, "{name}");
        }
    }

    #[test]
    fn fig6_without_change_captures_the_finiteness_violation() {
        let s = record_first_violation("fig6-without-change", 1, 8).unwrap().unwrap();
        assert_eq!(s.verdict, "violation:finiteness");
        assert!(replay(&s, ReplayMode::Strict).unwrap().matches);
    }

    #[test]
    fn shrunk_schedules_keep_their_verdict_and_get_small() {
        let s = record_first_violation("abd-weak-quorum", 1, 16).unwrap().unwrap();
        let (min, rep) = shrink(&s).unwrap();
        assert_eq!(min.verdict, s.verdict);
        assert!(rep.final_len <= rep.original_len / 4, "{rep:?}");
        assert!(replay(&min, ReplayMode::Strict).unwrap().matches);
    }

    #[test]
    fn unknown_workloads_and_bad_params_are_typed() {
        assert!(matches!(record(&RecordRequest::new("nope")), Err(ReproError::UnknownWorkload(_))));
        let mut req = RecordRequest::new("fig4-weak-sigma-k");
        req.k = 5; // 2k > default n
        assert!(matches!(record(&req), Err(ReproError::BadParams(_))));
    }

    #[test]
    fn corpus_verifier_flags_tampered_entries() {
        let s = record_first_violation("fig2-weak-sigma", 1, 16).unwrap().unwrap();
        let good = ("good.schedule".to_string(), s.to_text());
        let mut tampered = s.clone();
        tampered.verdict = "ok".to_string();
        let bad = ("bad.schedule".to_string(), tampered.to_text());
        let junk = ("junk.schedule".to_string(), "not a schedule".to_string());
        let report = verify_corpus(&[good, bad, junk], 1);
        assert!(report[0].ok, "{}", report[0]);
        assert!(!report[1].ok && report[1].detail.contains("stale"), "{}", report[1]);
        assert!(!report[2].ok && report[2].detail.contains("parse"), "{}", report[2]);
    }

    #[test]
    fn corpus_verification_is_thread_count_independent() {
        let s = record_first_violation("fig2-weak-sigma", 1, 16).unwrap().unwrap();
        let entries: Vec<(String, String)> =
            (0..6).map(|i| (format!("e{i}.schedule"), s.to_text())).collect();
        let one = verify_corpus(&entries, 1);
        let two = verify_corpus(&entries, 2);
        let eight = verify_corpus(&entries, 8);
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }
}
