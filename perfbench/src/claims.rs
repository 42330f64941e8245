//! `claims`: the paper reproduction. Every `run_experiment` id except
//! `fuzz` (E1–E15 including the Figure 1 matrix, plus `faults` and
//! `byzantine`) at fixed n, k and seeds on 2 workers. Seed-free.
//!
//! It is the only workload that runs through `core::pipeline`, the
//! stacked and stubborn emulations, the detectors, the reduction
//! adversaries, and link-fault and mutation plans, all on the
//! fair-scheduler `Simulation::run` with full traces.

use crate::trace::Tracer;
use crate::{measure, median, metric, repeat, Ctx, Gate, Size, WorkloadOut};
use sih_lab::json::{ObjectBuilder, Value as Json};
use sih_lab::{
    run_byzantine_bench, run_experiment, run_faults_bench, ByzantineLabConfig, ExperimentReport,
    FaultsLabConfig, LabConfig, EXPERIMENT_IDS,
};
use sih_runtime::Fnv64;

/// Workers of the timed job.
const WORKERS: usize = 2;

/// Each experiment id under the module that owns the claim it checks.
const MODULES: [(&str, &[&str]); 8] = [
    ("agreement", &["e1", "e4"]),
    ("reductions", &["e2", "e3", "e5", "e6", "e7", "e8", "e9", "e14"]),
    ("detectors", &["e10"]),
    ("registers", &["e11", "e15"]),
    ("core::claims", &["e12"]),
    ("sharedmem", &["e13"]),
    ("model::linkfault", &["faults"]),
    ("model::adversary", &["byzantine"]),
];

fn ids() -> impl Iterator<Item = &'static str> {
    EXPERIMENT_IDS.into_iter().filter(|id| *id != "fuzz")
}

fn config(size: Size, threads: usize) -> LabConfig {
    match size {
        Size::Full => LabConfig { n: 6, k: 2, seeds: 3, max_steps: 200_000, threads },
        Size::Tiny => LabConfig { n: 4, k: 1, seeds: 1, max_steps: 200_000, threads },
    }
}

/// One experiment's deterministic outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Outcome {
    id: &'static str,
    ok: bool,
    runs: u64,
    violations: u64,
    /// Digest of the outcome line, details and statistics.
    digest: u64,
}

impl Outcome {
    fn of(id: &'static str, r: &ExperimentReport) -> Self {
        let mut h = Fnv64::new();
        h.write(r.outcome.as_bytes());
        for d in &r.details {
            h.write_u8(0);
            h.write(d.as_bytes());
        }
        h.write_debug(&r.stats);
        let (runs, violations) = r.stats.as_ref().map_or((0, 0), |s| (s.runs, s.violations));
        Outcome { id, ok: r.ok, runs, violations, digest: h.finish() }
    }
}

/// Runs every experiment, each inside a `claims.<id>` span when traced.
fn job(cfg: &LabConfig, mut tracer: Option<&mut Tracer>, gate: &mut Gate) -> Vec<Outcome> {
    ids()
        .map(|id| {
            let report = match tracer.as_deref_mut() {
                Some(t) => t.span(format!("claims.{id}"), |_| run_experiment(id, cfg)),
                None => run_experiment(id, cfg),
            };
            gate.check(report.ok, || format!("experiment {id} not ok: {}", report.outcome));
            Outcome::of(id, &report)
        })
        .collect()
}

fn counters_json(outcomes: &[Outcome], cfg: &LabConfig) -> Json {
    let experiments: Vec<Json> = outcomes
        .iter()
        .map(|o| {
            ObjectBuilder::new()
                .field("id", o.id)
                .field("module", module_of(o.id))
                .field("ok", o.ok)
                .field("runs", o.runs)
                .field("violations", o.violations)
                .field("digest", format!("{:016x}", o.digest))
                .build()
        })
        .collect();
    ObjectBuilder::new()
        .field("n", cfg.n)
        .field("k", cfg.k)
        .field("seeds", cfg.seeds)
        .field("max_steps", cfg.max_steps)
        .field("experiments", experiments)
        .build()
}

fn module_of(id: &str) -> &'static str {
    MODULES.iter().find(|(_, ids)| ids.contains(&id)).map_or("?", |(m, _)| m)
}

/// Delivered ÷ sent over every faulty-link cell, and the armored count
/// over every Byzantine rung, at the sizes the `faults` and `byzantine`
/// experiments use.
fn fault_counts(cfg: &LabConfig) -> (f64, u64) {
    let faults = run_faults_bench(&FaultsLabConfig {
        n: cfg.n.max(3),
        seeds: cfg.seeds,
        max_steps: cfg.max_steps.max(400_000),
        threads: cfg.threads,
    });
    let sent: u64 = faults.cells.iter().map(|c| c.sent).sum();
    let delivered: u64 = faults.cells.iter().map(|c| c.delivered).sum();
    let byz = run_byzantine_bench(&ByzantineLabConfig {
        n: cfg.n.max(3),
        seeds: cfg.seeds,
        max_steps: cfg.max_steps.clamp(10_000, 50_000),
        threads: cfg.threads,
    });
    let armored = byz.cells.iter().flat_map(|c| &c.rungs).map(|r| r.armored).sum();
    (delivered as f64 / sent.max(1) as f64, armored)
}

pub(crate) fn run(ctx: &Ctx, gate: &mut Gate, tracer: &mut Tracer) -> WorkloadOut {
    let cfg = config(ctx.size, WORKERS);
    // Set-up: one pass of every experiment at a single seed.
    let prepare = |gate: &mut Gate| {
        job(&LabConfig { seeds: 1, ..cfg }, None, gate);
    };
    let timed_secs = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let mut first: Option<Vec<Outcome>> = None;
    let mut m = measure(timed_secs, 3, gate, prepare, |_, gate| {
        let outcomes = job(&cfg, None, gate);
        match &first {
            None => first = Some(outcomes),
            Some(f) => gate.same(f, &outcomes, "claims outcomes across repetitions"),
        }
    });
    let outcomes = first.expect("at least one job ran");
    let wall = median(&mut m.walls);

    // The same job on one worker must reproduce every outcome.
    let serial = tracer.span("sweep.1w", |_| job(&LabConfig { threads: 1, ..cfg }, None, gate));
    let serial_wall = tracer.last_secs("sweep.1w");
    gate.same(&outcomes, &serial, "claims outcomes at 2 vs 1 workers");

    let runs: u64 = outcomes.iter().map(|o| o.runs).sum();
    let metrics = if !ctx.trace {
        crate::end_to_end(&m, wall, runs as f64 / wall)
    } else {
        let mut attributed = Vec::new();
        let mut pass_walls = repeat(ctx.seconds / 2.0, 1, || {
            let o = tracer.span("claims.traced_pass", |t| job(&cfg, Some(t), gate));
            gate.same(&outcomes, &o, "claims outcomes of the traced pass");
            let in_experiments: f64 =
                ids().map(|id| tracer.last_secs(&format!("claims.{id}"))).sum();
            attributed.push(in_experiments / tracer.last_secs("claims.traced_pass"));
        });
        let passes = pass_walls.len() as f64;
        let mut metrics: Vec<_> = MODULES
            .iter()
            .flat_map(|(_, ids)| ids.iter())
            .map(|id| {
                metric(
                    &format!("claims.{id}_s"),
                    tracer.total_secs(&format!("claims.{id}")) / passes,
                    "s",
                )
            })
            .collect();
        let (delivered_share, armored) = fault_counts(&cfg);
        metrics.extend([
            metric("faults.delivered_share", delivered_share, "share"),
            metric("byzantine.armored", armored as f64, "count"),
            metric("sweep.speedup_2w", serial_wall / wall, "ratio"),
            metric("trace.attributed_share", median(&mut attributed), "share"),
            metric("trace.overhead", median(&mut pass_walls) / wall, "ratio"),
        ]);
        metrics
    };
    WorkloadOut {
        metrics,
        counters: counters_json(&outcomes, &cfg),
        workers: WORKERS,
        seeded: false,
    }
}
