//! `lab faults` — the robustness matrix: Figure 2, Figure 4 and the ABD
//! register driven over lossy, duplicating and partitioned-then-healed
//! links (with a stubborn retransmission layer), plus the raw-register
//! permanent-partition starvation witness. Emits the `BENCH_faults.json`
//! artifact CI archives per revision.
//!
//! Safety must hold under *every* plan; liveness is asserted only for
//! plans with a finite `quiescence_time()`. Every counter in the artifact
//! comes from runs whose schedule depends only on `(pattern, plan, seed)`,
//! so the JSON is bitwise identical for any `--threads`.

use crate::json::{ObjectBuilder, Value};
use crate::matrix::{degraded_verdict, MATRIX};
use sih::pipeline::{Algorithm, RunPool, RunSpec};
use sih_model::{
    FailurePattern, LinkFaultPlan, LinkFaultPlanBuilder, OpKind, ProcessId, ProcessSet, Time,
};
use sih_runtime::sweep::{with_seeds, Sweep};
use sih_runtime::{LivenessVerdict, StopReason, TraceLevel};
use std::fmt;
use std::time::Instant;

/// Parameters of one `lab faults` run.
#[derive(Clone, Copy, Debug)]
pub struct FaultsLabConfig {
    /// System size (the matrix needs `n >= 3`).
    pub n: usize,
    /// Seeds per cell.
    pub seeds: u64,
    /// Step budget per run.
    pub max_steps: u64,
    /// Worker threads (`0` = one per core). Only wall clock depends on
    /// it — every counter in the artifact is thread-count independent.
    pub threads: usize,
}

impl Default for FaultsLabConfig {
    fn default() -> Self {
        FaultsLabConfig { n: 4, seeds: 3, max_steps: 400_000, threads: 0 }
    }
}

/// The three fault scenarios of the matrix (all with finite quiescence):
/// name and plan for a system of `n` processes.
const SCENARIOS: &[(&str, Plan)] = &[
    // Every directed link drops every other message until t=600.
    ("lossy", |n| every_link(n, |b, s, d| b.drop_every(s, d, 2, 0, Time::ZERO, Some(Time(600))))),
    // Every directed link duplicates every other message until t=600.
    ("duplicating", |n| {
        every_link(n, |b, s, d| b.duplicate_every(s, d, 2, 1, Time::ZERO, Some(Time(600))))
    }),
    // {p0} cut off from everyone until t=400, then healed.
    ("partition-healed", |n| {
        let p0 = ProcessSet::singleton(ProcessId(0));
        LinkFaultPlan::builder(n).partition(p0, Time::ZERO, Some(Time(400))).build()
    }),
];

/// A scenario's plan for a system of `n` processes.
type Plan = fn(usize) -> LinkFaultPlan;

/// A plan applying `rule` to every directed link `src → dst` (self-links
/// included).
fn every_link(
    n: usize,
    rule: impl Fn(LinkFaultPlanBuilder, ProcessId, ProcessId) -> LinkFaultPlanBuilder,
) -> LinkFaultPlan {
    let mut b = LinkFaultPlan::builder(n);
    for src in 0..n as u32 {
        for dst in 0..n as u32 {
            b = rule(b, ProcessId(src), ProcessId(dst));
        }
    }
    b.build()
}

/// Accumulated result of one (workload, scenario) cell of the matrix.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultCell {
    /// Which matrix workload ran.
    pub workload: &'static str,
    /// Which plan it ran under (`"lossy"`, `"duplicating"`,
    /// `"partition-healed"`).
    pub scenario: &'static str,
    /// The plan's `quiescence_time()` (all three scenarios are finite).
    pub quiescence: u64,
    /// Runs in this cell (= seeds).
    pub runs: u64,
    /// Runs judged [`LivenessVerdict::Live`].
    pub live: u64,
    /// Runs judged [`LivenessVerdict::SafeButNotLive`].
    pub safe_not_live: u64,
    /// Runs whose degraded check errored (safety violation or an
    /// unexcused liveness miss). Must be zero.
    pub violations: u64,
    /// Engine steps summed over the cell's runs.
    pub steps: u64,
    /// Network counters summed over the cell's runs; they satisfy
    /// `sent == delivered + dropped + in_flight` run by run, hence also
    /// in sum.
    pub sent: u64,
    /// Messages delivered, summed.
    pub delivered: u64,
    /// Messages the plan dropped, summed.
    pub dropped: u64,
    /// Extra copies the plan enqueued, summed.
    pub duplicated: u64,
    /// Messages still pending at stop time, summed.
    pub in_flight: u64,
}

impl FaultCell {
    /// Safety never broke and every run completed once the faults
    /// quiesced (the matrix's plans all have finite quiescence, so
    /// `SafeButNotLive` here means the budget was too small).
    pub fn ok(&self) -> bool {
        self.violations == 0 && self.live == self.runs
    }

    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("workload", self.workload)
            .field("scenario", self.scenario)
            .field("quiescence", self.quiescence)
            .field("runs", self.runs)
            .field("live", self.live)
            .field("safe_not_live", self.safe_not_live)
            .field("violations", self.violations)
            .field("steps", self.steps)
            .field("sent", self.sent)
            .field("delivered", self.delivered)
            .field("dropped", self.dropped)
            .field("duplicated", self.duplicated)
            .field("in_flight", self.in_flight)
            .field("ok", self.ok())
            .build()
    }
}

/// Result of the permanent-partition starvation leg: the raw (stubborn-
/// less) ABD register under a blackout that never heals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StarvedLeg {
    /// Steps the run took before the engine proved it stuck.
    pub steps: u64,
    /// The step budget it did *not* exhaust.
    pub budget: u64,
    /// Whether the run stopped [`StopReason::Starved`].
    pub starved: bool,
    /// Whether the degraded linearizability check returned
    /// [`LivenessVerdict::SafeButNotLive`].
    pub safe_not_live: bool,
    /// Messages the blackout dropped.
    pub dropped: u64,
}

impl StarvedLeg {
    /// The starvation witness behaved: typed `Starved` exit, far under
    /// budget, safe but not live.
    pub fn ok(&self) -> bool {
        self.starved && self.safe_not_live && self.steps < self.budget / 100
    }

    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("steps", self.steps)
            .field("budget", self.budget)
            .field("starved", self.starved)
            .field("safe_not_live", self.safe_not_live)
            .field("dropped", self.dropped)
            .field("ok", self.ok())
            .build()
    }
}

/// Measured outcome of one [`run_faults_bench`] call.
#[derive(Clone, Debug)]
pub struct FaultsBenchReport {
    /// The configuration that produced the numbers.
    pub cfg: FaultsLabConfig,
    /// Workers actually used (wall clock only).
    pub workers: usize,
    /// The 3×3 matrix, in canonical (workload, scenario) order.
    pub cells: Vec<FaultCell>,
    /// The permanent-partition starvation witness.
    pub starved: StarvedLeg,
    /// Wall clock in milliseconds (the only runner-dependent field).
    pub wall_ms: f64,
}

impl FaultsBenchReport {
    /// Every cell and the starvation leg behaved.
    pub fn ok(&self) -> bool {
        self.cells.iter().all(FaultCell::ok) && self.starved.ok()
    }

    /// The `BENCH_faults.json` record.
    pub fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("bench", "faults_matrix")
            .field("n", self.cfg.n)
            .field("seeds", self.cfg.seeds)
            .field("max_steps", self.cfg.max_steps)
            .field("threads", self.cfg.threads)
            .field("workers", self.workers)
            .field("cells", self.cells.iter().map(FaultCell::to_json).collect::<Vec<_>>())
            .field("starved", self.starved.to_json())
            .field("wall_ms", self.wall_ms)
            .field("ok", self.ok())
            .build()
    }
}

impl fmt::Display for FaultsBenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[faults] n={} seeds={} ({} worker(s), {:.1} ms)",
            self.cfg.n, self.cfg.seeds, self.workers, self.wall_ms
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "  {:<4} × {:<16} live {}/{}  sent {:>7} = {} delivered + {} dropped + {} in flight (+{} dup) — {}",
                c.workload,
                c.scenario,
                c.live,
                c.runs,
                c.sent,
                c.delivered,
                c.dropped,
                c.in_flight,
                c.duplicated,
                if c.ok() { "OK" } else { "UNEXPECTED" }
            )?;
        }
        writeln!(
            f,
            "  abd  × permanent-blackout: {} in {} steps (budget {}) — {}",
            if self.starved.starved { "Starved" } else { "NOT starved" },
            self.starved.steps,
            self.starved.budget,
            if self.starved.ok() { "OK" } else { "UNEXPECTED" }
        )
    }
}

/// Runs the full robustness matrix and the starvation leg.
///
/// The matrix fans `(cell, seed)` across the sweep engine; each run's
/// schedule and counters depend only on `(plan, pattern, seed)`, and the
/// per-cell sums fold in canonical grid order, so the artifact is
/// identical for every `--threads` value.
pub fn run_faults_bench(cfg: &FaultsLabConfig) -> FaultsBenchReport {
    assert!(cfg.n >= 3, "the faults matrix needs n >= 3");
    let t0 = Instant::now();
    let n = cfg.n;
    let pattern = FailurePattern::all_correct(n);

    // The canonical grid: every (workload, scenario) cell × every seed.
    let grid = with_seeds(&(0..MATRIX.len() * SCENARIOS.len()).collect::<Vec<_>>(), cfg.seeds);

    let max_steps = cfg.max_steps;
    let sweep = Sweep::new(cfg.threads);
    let workers = sweep.effective_threads(grid.len());
    let samples = sweep.run(grid, || {
        let mut pool = RunPool::with_trace_level(TraceLevel::Light);
        let pattern = pattern.clone();
        move |_idx, (cell, seed): (usize, u64)| {
            let algorithm = (MATRIX[cell / SCENARIOS.len()].algorithm)();
            let plan = (SCENARIOS[cell % SCENARIOS.len()].1)(n);
            let spec =
                RunSpec::new(algorithm, pattern.clone(), seed, max_steps).with_faults(plan, true);
            let (tr, outcome) = pool.run(&spec);
            (cell, degraded_verdict(&spec, tr, &outcome), outcome)
        }
    });

    // Fold in canonical grid order (the sweep returns results in item
    // order, and the sums are order-independent anyway).
    let mut cells: Vec<FaultCell> = Vec::new();
    for workload in MATRIX.iter().map(|w| w.name) {
        for &(scenario, plan) in SCENARIOS {
            let quiescence =
                plan(n).quiescence_time().expect("matrix scenarios all have finite quiescence").0;
            cells.push(FaultCell { workload, scenario, quiescence, ..FaultCell::default() });
        }
    }
    for (cell, verdict, outcome) in samples {
        let c = &mut cells[cell];
        c.runs += 1;
        match verdict {
            Ok(LivenessVerdict::Live) => c.live += 1,
            Ok(LivenessVerdict::SafeButNotLive) => c.safe_not_live += 1,
            Err(_) => c.violations += 1,
        }
        c.steps += outcome.steps;
        c.sent += outcome.sent;
        c.delivered += outcome.delivered;
        c.dropped += outcome.dropped;
        c.duplicated += outcome.duplicated;
        c.in_flight += outcome.in_flight;
    }

    // The starvation witness: raw ABD under a blackout that never heals.
    let blackout = LinkFaultPlan::builder(n).blackout(Time::ZERO, None).build();
    let s = ProcessSet::from_iter([0, 1].map(ProcessId));
    let scripts = vec![vec![OpKind::Write(sih_model::Value(1))], vec![OpKind::Read]];
    let budget = cfg.max_steps.max(1_000_000);
    let spec = RunSpec::new(Algorithm::Abd { s, scripts }, pattern.clone(), 0, budget)
        .with_faults(blackout, false);
    let mut pool = RunPool::with_trace_level(TraceLevel::Light);
    let (tr, outcome) = pool.run(&spec);
    let verdict = degraded_verdict(&spec, tr, &outcome);
    let starved = StarvedLeg {
        steps: outcome.steps,
        budget,
        starved: outcome.reason == StopReason::Starved,
        safe_not_live: verdict == Ok(LivenessVerdict::SafeButNotLive),
        dropped: outcome.dropped,
    };

    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    FaultsBenchReport { cfg: *cfg, workers, cells, starved, wall_ms }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FaultsLabConfig {
        FaultsLabConfig { n: 3, seeds: 1, max_steps: 400_000, threads: 1 }
    }

    #[test]
    fn the_matrix_is_safe_and_live_and_the_witness_starves() {
        let report = run_faults_bench(&tiny());
        assert!(report.ok(), "{report}");
        assert_eq!(report.cells.len(), 9);
        assert!(report.cells.iter().all(|c| c.violations == 0));
        // Every lossy/partitioned cell actually exercised its faults.
        for c in &report.cells {
            assert_eq!(c.sent, c.delivered + c.dropped + c.in_flight, "{c:?}");
            match c.scenario {
                "lossy" | "partition-healed" => assert!(c.dropped > 0, "{c:?}"),
                "duplicating" => assert!(c.duplicated > 0, "{c:?}"),
                other => panic!("unknown scenario {other}"),
            }
        }
        assert!(report.starved.starved);
        assert!(report.starved.steps < report.starved.budget / 100);
        let json = report.to_json().to_string_pretty();
        let parsed = crate::json::parse(&json).expect("round-trips");
        assert_eq!(parsed.get("ok").as_bool(), Some(true));
        assert_eq!(parsed.get("bench").as_str(), Some("faults_matrix"));
        assert_eq!(parsed.get("starved").get("starved").as_bool(), Some(true));
    }

    #[test]
    fn bench_counters_are_worker_count_independent() {
        let serial = run_faults_bench(&FaultsLabConfig { threads: 1, ..tiny() });
        let par = run_faults_bench(&FaultsLabConfig { threads: 3, ..tiny() });
        // The artifact must be comparable across CI runners: everything
        // but the wall clock and the worker count is identical whatever
        // the thread count.
        assert_eq!(serial.cells, par.cells);
        assert_eq!(serial.starved, par.starved);
    }
}
