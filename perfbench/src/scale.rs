//! `scale`: the detector-free majority ABD register at large n, through
//! `abd_processes_with_rule` and `run_event_driven` with a light trace.
//!
//! Two legs per job. The large leg (n = 10⁵, two clients with a few ops
//! each) has a working set far beyond the caches; the small leg (n = 10³,
//! repeated runs of at most 128 ops each) stays cache-resident, and the
//! 128-op limit keeps every history within the linearizability checker's
//! capacity. Nearly all of the time is `Network` broadcast/deliver, the
//! event-driven runner and `ProcSet` quorums; nothing is fingerprinted.
//! The op scripts (reads vs writes) are drawn from the workload seed.
//!
//! Every run is checked: it must stop because the scripts finished, every
//! op must complete, the history must be linearizable (a history too
//! large to check counts as failed), and the run must send exactly 4n
//! messages per op (two phases, each a broadcast to n replicas answered
//! by n replies).

use crate::trace::Tracer;
use crate::{measure, median, metric, ns_since, percentile, repeat, Ctx, Gate, Size, WorkloadOut};
use sih_lab::json::{ObjectBuilder, Value as Json};
use sih_model::{FailurePattern, NoDetector, OpKind, ProcessId, ProcessSet, Value};
use sih_registers::{abd_processes_with_rule, check_linearizable, AbdRegister, QuorumRule};
use sih_runtime::fuzz::FuzzRng;
use sih_runtime::{Simulation, StopReason, TraceLevel};
use std::time::Instant;

/// One leg's shape: system size, ops per client, runs per job.
#[derive(Clone, Copy, Debug)]
struct Leg {
    name: &'static str,
    n: usize,
    ops_per_client: usize,
    runs: usize,
}

/// The two client processes.
const CLIENTS: usize = 2;

fn legs(size: Size) -> [Leg; 2] {
    match size {
        Size::Full => [
            Leg { name: "large", n: 100_000, ops_per_client: 4, runs: 1 },
            Leg { name: "small", n: 1_000, ops_per_client: 64, runs: 8 },
        ],
        Size::Tiny => [
            Leg { name: "large", n: 2_000, ops_per_client: 2, runs: 1 },
            Leg { name: "small", n: 200, ops_per_client: 16, runs: 2 },
        ],
    }
}

/// The op scripts of run `run` of `leg`: each op is a read or a write of
/// a value unique within the run, drawn from the workload seed.
fn scripts(seed: u64, leg: &Leg, run: usize) -> Vec<Vec<OpKind>> {
    let mut rng = FuzzRng::new(seed ^ (leg.n as u64).rotate_left(32) ^ run as u64);
    (0..CLIENTS)
        .map(|c| {
            (0..leg.ops_per_client)
                .map(|i| {
                    if rng.chance(1, 2) {
                        OpKind::Write(Value((c * leg.ops_per_client + i + 1) as u64))
                    } else {
                        OpKind::Read
                    }
                })
                .collect()
        })
        .collect()
}

fn build(n: usize, scripts: Vec<Vec<OpKind>>) -> Simulation<AbdRegister> {
    let clients = ProcessSet::from_iter((0..CLIENTS as u32).map(ProcessId));
    let procs = abd_processes_with_rule(clients, n, scripts, QuorumRule::Majority(n / 2 + 1));
    let mut sim =
        Simulation::new(procs, FailurePattern::all_correct(n)).with_trace_level(TraceLevel::Light);
    sim.set_script_recording(false);
    sim
}

/// Deterministic outcome of one run, compared across repetitions.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RunCounters {
    steps: u64,
    sent: u64,
    delivered: u64,
    in_flight: u64,
    ops_complete: u64,
    heap_bytes: u64,
}

/// Timings of one run (ns) and, when traced, the gaps between
/// consecutive done-predicate calls.
#[derive(Default)]
struct RunTimes {
    build_ns: u64,
    run_ns: u64,
    check_ns: u64,
    gaps: Vec<u64>,
}

/// Builds, runs and checks one ABD run, recording every check in `gate`.
fn one_run(
    leg: &Leg,
    scripts: Vec<Vec<OpKind>>,
    traced: bool,
    gate: &mut Gate,
) -> (RunCounters, RunTimes) {
    let mut times = RunTimes::default();
    let ops: u64 = scripts.iter().map(|s| s.len() as u64).sum();
    let t0 = Instant::now();
    let mut sim = build(leg.n, scripts);
    times.build_ns = ns_since(t0);
    let clients = ProcessSet::from_iter((0..CLIENTS as u32).map(ProcessId));
    let finished =
        |sim: &Simulation<AbdRegister>| clients.iter().all(|p| sim.process(p).script_finished());
    let t0 = Instant::now();
    let outcome = if traced {
        times.gaps.reserve(4 * leg.n * ops as usize);
        let mut last = Instant::now();
        sim.run_event_driven(&NoDetector, u64::MAX, |sim| {
            let now = Instant::now();
            times.gaps.push(now.duration_since(last).as_nanos() as u64);
            last = now;
            finished(sim)
        })
    } else {
        sim.run_event_driven(&NoDetector, u64::MAX, finished)
    };
    times.run_ns = ns_since(t0);

    let t0 = Instant::now();
    let history = sim.trace().op_records();
    let verdict = check_linearizable(&history, None);
    times.check_ns = ns_since(t0);

    let what = format!("scale {} n={}", leg.name, leg.n);
    let complete = history.iter().filter(|o| o.is_complete()).count() as u64;
    gate.check(outcome.reason == StopReason::AllCorrectHalted, || {
        format!("{what}: stopped by {:?}", outcome.reason)
    });
    gate.check(complete == ops, || format!("{what}: {complete} of {ops} ops completed"));
    gate.check(outcome.sent == 4 * leg.n as u64 * ops, || {
        format!(
            "{what}: sent {} messages, expected 4·n·ops = {}",
            outcome.sent,
            4 * leg.n as u64 * ops
        )
    });
    gate.check(verdict.is_ok(), || format!("{what}: history not shown linearizable: {verdict:?}"));
    let counters = RunCounters {
        steps: outcome.steps,
        sent: outcome.sent,
        delivered: outcome.delivered,
        in_flight: outcome.in_flight,
        ops_complete: complete,
        heap_bytes: sim.harness_heap_bytes() as u64,
    };
    (counters, times)
}

/// One job: every run of both legs.
struct Job {
    counters: Vec<RunCounters>,
    /// Per leg: summed `run_event_driven` ns and messages sent.
    leg_run_ns: [u64; 2],
    leg_sent: [u64; 2],
    /// Summed build, event-loop and check ns over every run.
    layer_ns: u64,
    /// Per leg: every done-predicate gap (traced jobs only).
    gaps: [Vec<u64>; 2],
    /// Per run: linearizability check ns.
    check_ns: Vec<u64>,
}

fn job(seed: u64, legs: &[Leg; 2], traced: bool, gate: &mut Gate) -> Job {
    let mut j = Job {
        counters: Vec::new(),
        leg_run_ns: [0; 2],
        leg_sent: [0; 2],
        layer_ns: 0,
        gaps: [Vec::new(), Vec::new()],
        check_ns: Vec::new(),
    };
    for (i, leg) in legs.iter().enumerate() {
        for r in 0..leg.runs {
            let (c, t) = one_run(leg, scripts(seed, leg, r), traced, gate);
            j.leg_run_ns[i] += t.run_ns;
            j.leg_sent[i] += c.sent;
            j.layer_ns += t.build_ns + t.run_ns + t.check_ns;
            j.check_ns.push(t.check_ns);
            j.gaps[i].extend(t.gaps);
            j.counters.push(c);
        }
    }
    j
}

fn counters_json(legs: &[Leg; 2], counters: &[RunCounters]) -> Json {
    let mut runs = Vec::new();
    let mut it = counters.iter();
    for leg in legs {
        for r in 0..leg.runs {
            let c = it.next().expect("one counter set per run");
            runs.push(
                ObjectBuilder::new()
                    .field("leg", leg.name)
                    .field("n", leg.n)
                    .field("run", r)
                    .field("ops", CLIENTS * leg.ops_per_client)
                    .field("steps", c.steps)
                    .field("sent", c.sent)
                    .field("delivered", c.delivered)
                    .field("in_flight", c.in_flight)
                    .field("ops_complete", c.ops_complete)
                    .field("heap_bytes", c.heap_bytes)
                    .build(),
            );
        }
    }
    ObjectBuilder::new().field("runs", runs).build()
}

pub(crate) fn run(ctx: &Ctx, gate: &mut Gate, tracer: &mut Tracer) -> WorkloadOut {
    let legs = legs(ctx.size);
    let large = legs[0];
    // Set-up: draw the scripts, build the large system once, and warm
    // up with one small-leg run.
    let prepare = |gate: &mut Gate| {
        drop(build(large.n, scripts(ctx.seed, &large, 0)));
        one_run(&legs[1], scripts(ctx.seed, &legs[1], 0), false, gate);
    };
    let timed_secs = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let mut first: Option<Vec<RunCounters>> = None;
    let mut large_rate = Vec::new();
    let mut small_rate = Vec::new();
    let mut m = measure(timed_secs, 3, gate, prepare, |_, gate| {
        let j = job(ctx.seed, &legs, false, gate);
        large_rate.push(j.leg_sent[0] as f64 / (j.leg_run_ns[0] as f64 / 1e9));
        small_rate.push(j.leg_sent[1] as f64 / (j.leg_run_ns[1] as f64 / 1e9));
        match &first {
            None => first = Some(j.counters),
            Some(f) => gate.same(f, &j.counters, "scale counters across repetitions"),
        }
    });
    let counters = first.expect("at least one job ran");
    let wall = median(&mut m.walls);

    let metrics = if !ctx.trace {
        crate::end_to_end(&m, wall, median(&mut large_rate))
    } else {
        let mut step_p = [[Vec::new(), Vec::new()], [Vec::new(), Vec::new()]];
        let mut check_ns = Vec::new();
        let mut attributed = Vec::new();
        let mut pass_walls = repeat(ctx.seconds / 2.0, 1, || {
            let mut j = tracer.span("scale.traced_pass", |_| job(ctx.seed, &legs, true, gate));
            let pass = tracer.last_secs("scale.traced_pass");
            attributed.push(j.layer_ns as f64 / 1e9 / pass);
            for (leg, gaps) in j.gaps.iter_mut().enumerate() {
                step_p[leg][0].push(percentile(gaps, 0.5));
                step_p[leg][1].push(percentile(gaps, 0.99));
            }
            check_ns.extend(j.check_ns);
            gate.same(&counters, &j.counters, "scale counters of the traced pass");
        });
        tracer.add_samples("scale.check_linearizable", check_ns.clone());
        let ops = (CLIENTS * large.ops_per_client) as f64;
        vec![
            metric("sim.event_step_ns.p50", median(&mut step_p[0][0]), "ns"),
            metric("sim.event_step_ns.p99", median(&mut step_p[0][1]), "ns"),
            metric("sim.small_event_step_ns.p50", median(&mut step_p[1][0]), "ns"),
            metric("sim.small_event_step_ns.p99", median(&mut step_p[1][1]), "ns"),
            metric(
                "sim.heap_bytes_per_proc",
                counters[0].heap_bytes as f64 / large.n as f64,
                "bytes",
            ),
            metric("network.msgs_per_op", counters[0].sent as f64 / ops, "count"),
            metric("check.linearizable_us", percentile(&mut check_ns, 0.5) / 1e3, "us"),
            metric("scale.small_msgs_per_s", median(&mut small_rate), "1/s"),
            metric("trace.attributed_share", median(&mut attributed), "share"),
            metric("trace.overhead", median(&mut pass_walls) / wall, "ratio"),
        ]
    };
    WorkloadOut { metrics, counters: counters_json(&legs, &counters), workers: 1, seeded: true }
}
