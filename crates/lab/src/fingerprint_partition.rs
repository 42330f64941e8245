//! The cached state fingerprint must induce the same equivalence on
//! states as a full re-rendering of every section.
//!
//! [`reference_fingerprint`] re-renders the whole checker-visible
//! projection from the live state on every call, through public
//! accessors only, with no caches. Its hash values differ from
//! [`Simulation::fingerprint`]'s (which hashes cached per-section
//! digests); what must agree is the *partition*: two states share a
//! reference value exactly when they share a fingerprint. The tests
//! check this over every state of a Figure 2 source-DPOR exploration and
//! every step of lenient coverage replays of the committed corpus and
//! one mutant of each entry.

use crate::repro::{read_schedule_dir, run_workload, Mode, ReplayMode, BYZ_WORKLOADS};
use sih_agreement::{check_k_agreement_safety, distinct_proposals, fig2_processes};
use sih_detectors::{Sigma, SigmaS};
use sih_model::{FailureDetector, FailurePattern, OpKind, ProcessId, ProcessSet, Value};
use sih_registers::{abd_processes, check_linearizable};
use sih_runtime::fuzz::{mutate, FuzzRng, MutOp, MutatorConfig};
use sih_runtime::{explore_with, Automaton, Event, ExploreConfig, Fnv64, Schedule, Simulation};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;

/// The full-rendering fingerprint: every automaton, the emulated
/// history, every op event and the fault and adversary plans are
/// `Debug`-streamed on each call.
pub(crate) fn reference_fingerprint<A: Automaton + fmt::Debug>(sim: &Simulation<A>) -> u64 {
    let n = sim.n();
    let pids = || (0..n as u32).map(ProcessId);
    let mut h = Fnv64::new();
    h.write_u64(sim.now().0);
    for p in pids() {
        h.write_u8(u8::from(sim.is_halted(p)));
        h.write_u64(sim.pattern().crash_time(p).map_or(u64::MAX, |t| t.0));
    }
    for p in pids() {
        h.write_u8(b'P');
        h.write_debug(sim.process(p));
    }
    let net = sim.network();
    for p in pids() {
        // Each queue as a multiset of (sender, payload).
        let sum = net.pending(p).fold(0u64, |acc, e| {
            let mut eh = Fnv64::new();
            eh.write_u64(u64::from(e.from.0));
            eh.write_debug(e.payload);
            acc.wrapping_add(eh.finish())
        });
        h.write_usize(net.pending_count(p));
        h.write_u64(sum);
    }
    for c in [
        net.sent_count(),
        net.delivered_count(),
        net.dropped_count(),
        net.duplicated_count(),
        net.mutated_count(),
        net.forged_count(),
        net.armored_count(),
    ] {
        h.write_u64(c);
    }
    if net.link_fault_plan().is_some() || net.adversary_plan().is_some() {
        // The per-link counters and the replay stash have no accessor;
        // the `Debug` rendering of the fault and adversary sections (plans,
        // counters, stash) is their only public view.
        let text = format!("{net:?}");
        let start = text.find(", faults: ").expect("Network's Debug names its faults field");
        let end = text.rfind(", woken: ").expect("Network's Debug names its woken field");
        h.write(&text.as_bytes()[start..end]);
    }
    let trace = sim.trace();
    for p in pids() {
        h.write_debug(&(trace.decision_of(p), trace.decision_time_of(p), trace.steps_of(p)));
    }
    h.write_debug(trace.emulated_history());
    for ev in trace.events() {
        if matches!(ev, Event::OpInvoke { .. } | Event::OpReturn { .. }) {
            h.write_debug(ev);
        }
    }
    h.write_u64(trace.messages_sent());
    h.finish()
}

thread_local! {
    /// Reference values of the states the coverage replay on this thread
    /// fingerprinted, in order (see [`observe`]).
    static OBSERVED: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Called by the coverage replay next to every `Simulation::fingerprint`.
pub(crate) fn observe<A: Automaton + fmt::Debug>(sim: &Simulation<A>) {
    OBSERVED.with(|o| o.borrow_mut().push(reference_fingerprint(sim)));
}

/// Asserts that `pairs` of (reference, fingerprint) keys induce one
/// partition: each key of either side maps to a single key of the other.
/// Returns the number of distinct classes.
fn assert_same_partition<K: Ord + Copy + fmt::Debug>(pairs: &[(K, K)]) -> usize {
    let mut by_ref: BTreeMap<K, K> = BTreeMap::new();
    let mut by_new: BTreeMap<K, K> = BTreeMap::new();
    for &(r, f) in pairs {
        let fr = *by_ref.entry(r).or_insert(f);
        assert_eq!(fr, f, "reference-equal states got different fingerprints");
        let rf = *by_new.entry(f).or_insert(r);
        assert_eq!(rf, r, "fingerprint-equal states differ under the reference");
    }
    by_ref.len()
}

/// (reference, fingerprint) of every non-root state of a source-DPOR
/// exploration to `depth`. Dedup is off, so every state of the reduced
/// tree reaches the check, including those a merge would have skipped.
/// The root is not fingerprinted, so each first-level child warms its
/// own caches and its subtree inherits them through `clone_from`: equal
/// states in different subtrees then carry different cache histories,
/// which the values must not reflect.
fn dpor_pairs<A, D>(sim: &Simulation<A>, fd: &D, depth: usize, check: Check<A>) -> Vec<(u64, u64)>
where
    A: Automaton + Clone + fmt::Debug,
    D: FailureDetector,
{
    let mut pairs = Vec::new();
    let cfg = ExploreConfig::new(depth).dpor(true).dedup(false);
    let res = explore_with(sim, fd, &cfg, &mut |s: &Simulation<A>| {
        if s.now() > sim.now() {
            pairs.push((reference_fingerprint(s), s.fingerprint()));
        }
        check(s)
    });
    assert!(res.violation.is_none());
    pairs
}

type Check<A> = fn(&Simulation<A>) -> Result<(), String>;

#[test]
fn fingerprints_partition_dpor_states_like_the_reference() {
    let n = 3;
    let pattern = FailurePattern::all_correct(n);
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 0);
    let fig2 = Simulation::new(fig2_processes(&distinct_proposals(n)), pattern.clone());
    let pairs = dpor_pairs(&fig2, &sigma, 8, |s| {
        check_k_agreement_safety(s.trace(), &distinct_proposals(3), 2).map_err(|e| e.to_string())
    });
    let classes = assert_same_partition(&pairs);
    // Distinct interleavings do reach equal states: the check has teeth.
    assert!(classes < pairs.len() / 2, "fig2: {classes} classes over {} states", pairs.len());

    // ABD adds register-op events, so the trace's running op hash is
    // carried through the explorer's clones too.
    let all: ProcessSet = (0..n as u32).map(ProcessId).collect();
    let scripts = vec![vec![OpKind::Write(Value(7))], vec![OpKind::Read], vec![]];
    let abd = Simulation::new(abd_processes(all, n, scripts), pattern.clone());
    let pairs = dpor_pairs(&abd, &SigmaS::new(all, &pattern, 0), 5, |s| {
        check_linearizable(&s.trace().op_records(), None).map_err(|e| e.to_string())
    });
    let classes = assert_same_partition(&pairs);
    assert!(classes < pairs.len(), "abd: {classes} classes over {} states", pairs.len());
}

#[test]
fn fingerprints_partition_corpus_replays_like_the_reference() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
    let entries = read_schedule_dir(std::path::Path::new(dir)).expect("corpus is readable");
    let mut rng = FuzzRng::new(7);
    let mut pairs = Vec::new();
    let mut replays = 0;
    for (file, text) in &entries {
        let s = Schedule::parse(text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let cfg = MutatorConfig::for_schedule(&s, BYZ_WORKLOADS.contains(&s.checker.as_str()));
        let op = MutOp::ALL[rng.below(MutOp::ALL.len() as u64) as usize];
        let mutant = mutate(&s, op, &cfg, &mut rng);
        for sched in std::iter::once(&s).chain(&mutant) {
            OBSERVED.with(|o| o.borrow_mut().clear());
            let Ok(rr) = run_workload(sched, Mode::Coverage(ReplayMode::Lenient)) else {
                continue;
            };
            let refs = OBSERVED.with(|o| o.take());
            assert_eq!(refs.len(), rr.fingerprints.len(), "{file}");
            let key = |v: u64| (sched.checker.clone(), v);
            pairs.extend(refs.into_iter().zip(rr.fingerprints).map(|(r, f)| (key(r), key(f))));
            replays += 1;
        }
    }
    assert!(replays > entries.len(), "only {replays} replays ran");
    let pairs: Vec<_> =
        pairs.iter().map(|((c, r), (_, f))| ((c.as_str(), *r), (c.as_str(), *f))).collect();
    let classes = assert_same_partition(&pairs);
    // Mutants share prefixes with their parents, so states recur.
    assert!(classes < pairs.len(), "{classes} classes over {} steps", pairs.len());
}
