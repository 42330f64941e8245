//! `explore`: Figure 2 under σ at n = 4, source-DPOR, serial
//! `explore_with`, `check_k_agreement_safety` on every state.
//!
//! Nearly all of its time is fingerprinting, `Simulation` clone/step and
//! the dedup table with sleep sets; it runs no large-n network, no
//! `Sweep`, no fuzzer and no shrinker. Seed-free: the state space is
//! fixed by `n` and the depth.
//!
//! The traced pass explores the same space with a check callback that
//! also times, on every visited state, `Simulation::fingerprint`, a clone
//! of the state stepped once with its first enabled choice, and the
//! agreement check. Those per-call costs times the explorer's call counts
//! give each layer's share of the untraced wall; what is left over is the
//! explorer's own table and sleep-set work (`explore.residual_ns`).

use crate::trace::Tracer;
use crate::{
    end_to_end, mean, measure, median, metric, ns_since, percentile, repeat, Ctx, Gate, Size,
    WorkloadOut,
};
use sih_agreement::{
    check_k_agreement_safety, distinct_proposals, fig2_processes, Fig2SetAgreement,
};
use sih_detectors::Sigma;
use sih_lab::json::ObjectBuilder;
use sih_model::{FailurePattern, ProcessId, Value};
use sih_runtime::{explore_par, explore_with, Choice, ExploreConfig, ExploreResult, Simulation};
use std::hint::black_box;
use std::time::Instant;

/// System size.
const N: usize = 4;

type Sim = Simulation<Fig2SetAgreement>;

/// The explored system: initial state, detector and proposals.
struct System {
    sim: Sim,
    sigma: Sigma,
    proposals: Vec<Value>,
}

impl System {
    fn new() -> Self {
        let pattern = FailurePattern::all_correct(N);
        let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 0);
        let proposals = distinct_proposals(N);
        let sim = Simulation::new(fig2_processes(&proposals), pattern);
        System { sim, sigma, proposals }
    }

    fn check(&self, s: &Sim) -> Result<(), String> {
        check(&self.proposals, s)
    }

    /// The untraced job: one serial source-DPOR exploration.
    fn explore(&self, depth: usize) -> ExploreResult {
        explore_with(
            &self.sim,
            &self.sigma,
            &ExploreConfig::new(depth).dpor(true),
            &mut |s: &Sim| self.check(s),
        )
    }
}

/// The property checked on every state: at most n−1 distinct decisions.
fn check(proposals: &[Value], s: &Sim) -> Result<(), String> {
    check_k_agreement_safety(s.trace(), proposals, N - 1).map_err(|e| e.to_string())
}

/// Per-state layer timings of one traced pass, in ns.
#[derive(Default)]
struct Samples {
    fingerprint: Vec<u64>,
    clone: Vec<u64>,
    step: Vec<u64>,
    check: Vec<u64>,
}

/// Explores with a check callback that times every layer call.
fn traced_pass(sys: &System, depth: usize, samples: &mut Samples) -> ExploreResult {
    let mut scratch: Option<Sim> = None;
    let mut check = |s: &Sim| {
        let t0 = Instant::now();
        black_box(s.fingerprint());
        samples.fingerprint.push(ns_since(t0));
        if let Some(p) = s.schedulable_set().iter().next().filter(|_| !s.all_correct_halted()) {
            let t0 = Instant::now();
            let child = match scratch.as_mut() {
                Some(buf) => {
                    buf.clone_from(s);
                    buf
                }
                None => scratch.insert(s.clone()),
            };
            samples.clone.push(ns_since(t0));
            let choice = Choice { p, deliver: (s.network().pending_count(p) > 0).then_some(0) };
            let t0 = Instant::now();
            black_box(child.step(choice, &sys.sigma));
            samples.step.push(ns_since(t0));
        }
        let t0 = Instant::now();
        let verdict = sys.check(s);
        samples.check.push(ns_since(t0));
        verdict
    };
    explore_with(&sys.sim, &sys.sigma, &ExploreConfig::new(depth).dpor(true), &mut check)
}

pub(crate) fn run(ctx: &Ctx, gate: &mut Gate, tracer: &mut Tracer) -> WorkloadOut {
    let depth = match ctx.size {
        Size::Full => 7,
        Size::Tiny => 4,
    };
    // Set-up: build the system and warm the allocator and caches with a
    // shallower exploration.
    let prepare = |gate: &mut Gate| {
        let sys = System::new();
        let warm = sys.explore(depth - 2);
        gate.check(warm.ok(), || format!("warm-up exploration found {:?}", warm.violation));
        sys
    };
    let timed_secs = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let mut first: Option<ExploreResult> = None;
    let mut m = measure(timed_secs, 3, gate, prepare, |sys, gate| {
        let r = sys.explore(depth);
        gate.check(r.ok(), || format!("exploration found {:?}", r.violation));
        match &first {
            None => first = Some(r),
            Some(f) => gate.same(f, &r, "explore counters across repetitions"),
        }
    });
    let result = first.expect("at least one job ran");
    let wall = median(&mut m.walls);
    let sys = &m.prepared;

    // The 2-worker parallel frontier must reproduce every counter.
    let proposals = &sys.proposals;
    let par =
        explore_par(&sys.sim, &sys.sigma, &ExploreConfig::new(depth).dpor(true).threads(2), || {
            move |s: &Sim| check(proposals, s)
        });
    gate.same(&result, &par, "explore counters at 1 vs 2 workers");

    let encounters = result.states + result.deduped;
    let counters = ObjectBuilder::new()
        .field("n", N)
        .field("depth", depth)
        .field("states", result.states)
        .field("deduped", result.deduped)
        .field("terminals", result.terminals)
        .field("truncated", result.truncated)
        .field("pruned", result.pruned)
        .field("races", result.races)
        .field("table_bytes", result.table_bytes)
        .build();
    let metrics = if !ctx.trace {
        end_to_end(&m, wall, result.states as f64 / wall)
    } else {
        let mut samples = Samples::default();
        let mut pass_walls = repeat(ctx.seconds / 2.0, 1, || {
            let r = tracer.span("explore.traced_pass", |_| traced_pass(sys, depth, &mut samples));
            gate.same(&result, &r, "explore counters of the traced pass");
        });
        let Samples { mut fingerprint, mut clone, mut step, mut check } = samples;
        // Per-state model of one untraced job, in ns: the explorer
        // fingerprints every encounter, clones and steps every edge
        // (every encounter but the root), and checks every state.
        let edges = encounters.saturating_sub(1) as f64;
        let fp_ns = mean(&fingerprint) * encounters as f64;
        let clone_step_ns = (mean(&clone) + mean(&step)) * edges;
        let check_ns = mean(&check) * result.states as f64;
        let wall_ns = wall * 1e9;
        let modelled = fp_ns + clone_step_ns + check_ns;
        let m = vec![
            metric("fingerprint.ns.p50", percentile(&mut fingerprint, 0.5), "ns"),
            metric("fingerprint.ns.p99", percentile(&mut fingerprint, 0.99), "ns"),
            metric("fingerprint.share", fp_ns / wall_ns, "share"),
            metric("sim.clone_ns", percentile(&mut clone, 0.5), "ns"),
            metric("sim.step_ns", percentile(&mut step, 0.5), "ns"),
            metric("check.agreement_ns", percentile(&mut check, 0.5), "ns"),
            metric("explore.residual_ns", (wall_ns - modelled) / result.states as f64, "ns"),
            metric("explore.dedup_ratio", result.deduped as f64 / encounters as f64, "share"),
            metric("explore.pruned", result.pruned as f64, "count"),
            metric("explore.races", result.races as f64, "count"),
            metric("explore.table_bytes", result.table_bytes as f64, "bytes"),
            metric("trace.attributed_share", modelled / wall_ns, "share"),
            metric("trace.overhead", median(&mut pass_walls) / wall, "ratio"),
        ];
        tracer.add_samples("explore.fingerprint", fingerprint);
        tracer.add_samples("explore.sim_clone", clone);
        tracer.add_samples("explore.sim_step", step);
        tracer.add_samples("explore.check_agreement", check);
        m
    };
    WorkloadOut { metrics, counters, workers: 1, seeded: false }
}
