//! `fuzz`: `run_fuzz_bench` seeded from the committed `tests/corpus`, with
//! a fixed schedule budget (never a time budget) on 2 workers; the
//! workload seed is the mutation seed.
//!
//! It fingerprints every replayed step like `explore` does, but keeps no
//! dedup table; on top it runs scripted replays, linearizability checks of
//! ABD histories, the serial `Coverage` merge, the shrinker and the
//! `Sweep` fan-out.
//!
//! A campaign's cost depends strongly on its mutation seed, so each run
//! cycles through 16 campaigns whose seeds are drawn from the workload
//! seed, and reports medians over them.
//!
//! The fuzzer is one public call, so the traced pass times its layers
//! with probes beside the job: it replays every kept corpus entry with
//! `replay_with_fingerprints`, mutates each entry once, replays the mutant
//! and feeds its fingerprints to a fresh `Coverage`, and shrinks the first
//! violating entry of each class. Per-call cost times the job's call
//! counts, over the 1-worker wall, is the attributed share; the traced
//! pass's extra time is the cost of these probes, not of tracing.

use crate::trace::Tracer;
use crate::{measure, median, metric, ns_since, percentile, repeat, Ctx, Gate, Size, WorkloadOut};
use sih_lab::json::{ObjectBuilder, Value as Json};
use sih_lab::repro::{replay, replay_with_fingerprints, shrink, ReplayMode, BYZ_WORKLOADS};
use sih_lab::{load_seed_schedules, run_fuzz_bench, FuzzBenchReport, FuzzLabConfig};
use sih_runtime::{fnv1a_64, Coverage, FuzzRng, MutOp, MutatorConfig, Schedule};
use std::collections::BTreeSet;
use std::time::Instant;

/// Workers of the timed job.
const WORKERS: usize = 2;

fn config(seed: u64, size: Size, threads: usize) -> FuzzLabConfig {
    let (budget_schedules, batch) = match size {
        Size::Full => (1024, 64),
        Size::Tiny => (96, 24),
    };
    FuzzLabConfig { seed, budget_schedules, budget_ms: 0, batch, threads }
}

/// The report's deterministic fields, compared across repetitions and
/// worker counts.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Counters {
    seeds_loaded: u64,
    executed: u64,
    batches: u64,
    distinct_fps: u64,
    violations: u64,
    corpus: usize,
    corpus_digest: u64,
    witnesses: Vec<(String, String, u64)>,
}

impl Counters {
    fn of(r: &FuzzBenchReport) -> Self {
        Counters {
            seeds_loaded: r.seeds_loaded,
            executed: r.executed,
            batches: r.batches,
            distinct_fps: r.distinct_fingerprints,
            violations: r.violations,
            corpus: r.corpus.len(),
            corpus_digest: r.corpus_digest,
            witnesses: r
                .witnesses
                .iter()
                .map(|w| (w.workload.clone(), w.verdict.clone(), w.schedule.digest()))
                .collect(),
        }
    }

    fn to_json(&self) -> Json {
        ObjectBuilder::new()
            .field("seeds_loaded", self.seeds_loaded)
            .field("executed", self.executed)
            .field("batches", self.batches)
            .field("distinct_fingerprints", self.distinct_fps)
            .field("violations", self.violations)
            .field("corpus_size", self.corpus)
            .field("corpus_digest", format!("{:016x}", self.corpus_digest))
            .field(
                "witnesses",
                self.witnesses
                    .iter()
                    .map(|(w, v, d)| format!("{w} {v} {d:016x}"))
                    .map(Json::from)
                    .collect::<Vec<_>>(),
            )
            .build()
    }
}

/// Per-call layer timings from the probes, in ns.
#[derive(Default)]
struct Probes {
    replay: Vec<u64>,
    replay_steps: u64,
    /// Replays of mutants, the schedules the fuzzer executes.
    executed_replay: Vec<u64>,
    coverage: Vec<u64>,
    mutate: Vec<u64>,
    shrink: Vec<u64>,
}

impl Probes {
    fn absorb(&mut self, other: Probes) {
        self.replay.extend(other.replay);
        self.replay_steps += other.replay_steps;
        self.executed_replay.extend(other.executed_replay);
        self.coverage.extend(other.coverage);
        self.mutate.extend(other.mutate);
        self.shrink.extend(other.shrink);
    }
}

/// Times the fuzzer's layers on the kept corpus of `report`: replays
/// each kept entry, mutates it once, and replays the mutant and merges
/// its fingerprints into a fresh `Coverage` as the fuzzer does for every
/// schedule it executes.
fn probe(report: &FuzzBenchReport, seed: u64, out: &mut Probes) {
    let mut coverage = Coverage::new();
    let mut rng = FuzzRng::new(seed);
    let mut shrunk_classes = BTreeSet::new();
    for s in &report.corpus {
        let t0 = Instant::now();
        let rep = replay_with_fingerprints(s, ReplayMode::Lenient);
        out.replay.push(ns_since(t0));
        if let Ok(rep) = rep {
            out.replay_steps += rep.executed.len() as u64;
        }

        let allow = BYZ_WORKLOADS.contains(&s.checker.as_str());
        let cfg = MutatorConfig::for_schedule(s, allow);
        let op = MutOp::ALL[rng.below(MutOp::ALL.len() as u64) as usize];
        let t0 = Instant::now();
        let mutant = std::hint::black_box(sih_runtime::mutate(s, op, &cfg, &mut rng));
        out.mutate.push(ns_since(t0));

        if let Some(mutant) = mutant {
            let t0 = Instant::now();
            let rep = replay_with_fingerprints(&mutant, ReplayMode::Lenient);
            out.executed_replay.push(ns_since(t0));
            if let Ok(rep) = rep {
                let key = fnv1a_64(mutant.checker.as_bytes());
                let t0 = Instant::now();
                coverage.observe(rep.fingerprints.iter().map(|fp| key ^ fp));
                out.coverage.push(ns_since(t0));
            }
        }

        if s.verdict != "ok" && shrunk_classes.insert((s.checker.clone(), s.verdict.clone())) {
            let t0 = Instant::now();
            std::hint::black_box(shrink(s).ok());
            out.shrink.push(ns_since(t0));
        }
    }
}

/// The median of each campaign's median, so every campaign weighs the
/// same however many times it came round.
fn median_of_medians(xs: &mut [Vec<f64>]) -> f64 {
    median(&mut xs.iter_mut().map(|x| median(x)).collect::<Vec<_>>())
}

/// Campaigns per run. A campaign's cost depends strongly on its
/// mutation seed, so a run cycles through this many campaigns whose seeds
/// are drawn from the workload seed, and reports the median over them.
const CAMPAIGNS: usize = 16;

pub(crate) fn run(ctx: &Ctx, gate: &mut Gate, tracer: &mut Tracer) -> WorkloadOut {
    let corpus_dir = ctx.root.join("tests/corpus");
    let mut draw = FuzzRng::new(ctx.seed);
    let configs: Vec<FuzzLabConfig> =
        (0..CAMPAIGNS).map(|_| config(draw.next_u64(), ctx.size, WORKERS)).collect();
    // Set-up: load the committed corpus and warm up with a short campaign
    // whose seed is fixed, so the set-up cost does not vary with the seed.
    let prepare = |gate: &mut Gate| {
        let seeds: Vec<Schedule> = load_seed_schedules(&corpus_dir).unwrap_or_else(|e| {
            gate.check(false, || format!("cannot read {}: {e}", corpus_dir.display()));
            Vec::new()
        });
        let warm = config(0, ctx.size, WORKERS);
        let warm = FuzzLabConfig { budget_schedules: warm.budget_schedules / 8, ..warm };
        run_fuzz_bench(&warm, &seeds);
        seeds
    };

    // Job `j` runs campaign `j % CAMPAIGNS`, and every campaign runs at
    // least once; a campaign that comes round again must reproduce its
    // counters.
    let timed_secs = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let mut seen: Vec<Option<Counters>> = vec![None; CAMPAIGNS];
    let mut walls_of: Vec<Vec<f64>> = vec![Vec::new(); CAMPAIGNS];
    let mut rates_of: Vec<Vec<f64>> = vec![Vec::new(); CAMPAIGNS];
    let mut first_report: Option<FuzzBenchReport> = None;
    let mut jobs = 0;
    let m = measure(timed_secs, CAMPAIGNS, gate, prepare, |seeds, gate| {
        let c = jobs % CAMPAIGNS;
        jobs += 1;
        let t0 = Instant::now();
        let r = run_fuzz_bench(&configs[c], seeds);
        let wall = t0.elapsed().as_secs_f64();
        walls_of[c].push(wall);
        rates_of[c].push(r.executed as f64 / wall);
        gate.check(r.ok(), || format!("fuzz report not ok: {r}"));
        let counters = Counters::of(&r);
        match &seen[c] {
            None => seen[c] = Some(counters),
            Some(f) => gate.same(f, &counters, "fuzz counters across repetitions"),
        }
        first_report.get_or_insert(r);
    });
    let seeds = &m.prepared;
    gate.check(!seeds.is_empty(), || "tests/corpus holds no fuzzable schedule".into());
    let report = first_report.expect("at least one job ran");
    let counters = Counters::of(&report);
    for w in &report.witnesses {
        let rep = replay(&w.schedule, ReplayMode::Strict);
        gate.check(rep.as_ref().is_ok_and(|r| r.matches), || {
            format!("witness {} `{}` does not strict-replay: {rep:?}", w.workload, w.verdict)
        });
    }

    // Campaign 0 on one worker must reproduce every counter.
    let serial = tracer
        .span("sweep.1w", |_| run_fuzz_bench(&FuzzLabConfig { threads: 1, ..configs[0] }, seeds));
    let serial_wall = tracer.last_secs("sweep.1w");
    gate.same(&counters, &Counters::of(&serial), "fuzz counters at 2 vs 1 workers");
    let wall0 = median(&mut walls_of[0]);

    let metrics = if !ctx.trace {
        let wall = median_of_medians(&mut walls_of);
        crate::end_to_end(&m, wall, median_of_medians(&mut rates_of))
    } else {
        let mut probes = Probes::default();
        let mut overhead = Vec::new();
        let mut attributed = None;
        let mut pass = 0;
        repeat(ctx.seconds / 2.0, 1, || {
            let c = pass % CAMPAIGNS;
            pass += 1;
            let mut mine = Probes::default();
            let (traced_s, r) = tracer.span("fuzz.traced_pass", |t| {
                let r = t.span("fuzz.job", |_| run_fuzz_bench(&configs[c], seeds));
                if let Some(f) = &seen[c] {
                    gate.same(f, &Counters::of(&r), "fuzz counters of the traced pass");
                }
                t.span("fuzz.probes", |_| probe(&r, ctx.seed, &mut mine));
                (t.last_secs("fuzz.job") + t.last_secs("fuzz.probes"), r)
            });
            if !walls_of[c].is_empty() {
                overhead.push(traced_s / median(&mut walls_of[c]));
            }
            if c == 0 {
                // Per-call cost times the campaign's call counts, over
                // the same campaign's 1-worker wall.
                let mean = crate::mean;
                let executed = r.executed as f64;
                let mutants = r.executed.saturating_sub(r.seeds_loaded) as f64;
                let modelled_ns = (mean(&mine.executed_replay) + mean(&mine.coverage)) * executed
                    + mean(&mine.mutate) * mutants
                    + mine.shrink.iter().sum::<u64>() as f64;
                // Probe calls cost more than the fuzzer's own, so the
                // model can overshoot; a share is at most the whole wall.
                attributed.get_or_insert((modelled_ns / 1e9 / serial_wall).min(1.0));
            }
            probes.absorb(mine);
        });
        let Probes {
            mut replay,
            replay_steps,
            executed_replay,
            mut coverage,
            mut mutate,
            mut shrink,
        } = probes;
        let executed = counters.executed as f64;
        let metrics = vec![
            metric("repro.replay_us.p50", percentile(&mut replay, 0.5) / 1e3, "us"),
            metric("repro.replay_us.p99", percentile(&mut replay, 0.99) / 1e3, "us"),
            metric(
                "repro.replay_ns_per_step",
                replay.iter().sum::<u64>() as f64 / replay_steps.max(1) as f64,
                "ns",
            ),
            metric("repro.shrink_ms", percentile(&mut shrink, 0.5) / 1e6, "ms"),
            metric("fuzz.mutate_us", percentile(&mut mutate, 0.5) / 1e3, "us"),
            metric("fuzz.coverage_us", percentile(&mut coverage, 0.5) / 1e3, "us"),
            metric("fuzz.kept_share", counters.corpus as f64 / executed, "share"),
            metric("fuzz.violations", counters.violations as f64, "count"),
            metric("fuzz.distinct_fps", counters.distinct_fps as f64, "count"),
            metric("sweep.speedup_2w", serial_wall / wall0, "ratio"),
            metric("trace.attributed_share", attributed.unwrap_or(0.0), "share"),
            metric("trace.overhead", median(&mut overhead), "ratio"),
        ];
        tracer.add_samples("fuzz.replay", replay);
        tracer.add_samples("fuzz.replay_mutant", executed_replay);
        tracer.add_samples("fuzz.coverage_observe", coverage);
        tracer.add_samples("fuzz.mutate", mutate);
        tracer.add_samples("fuzz.shrink", shrink);
        metrics
    };
    let campaigns: Vec<Json> = configs
        .iter()
        .zip(&seen)
        .map(|(cfg, counters)| {
            let run = counters.as_ref().map_or(Json::Null, Counters::to_json);
            ObjectBuilder::new()
                .field("seed", format!("{:016x}", cfg.seed))
                .field("counters", run)
                .build()
        })
        .collect();
    let counters = ObjectBuilder::new()
        .field("budget_schedules", configs[0].budget_schedules)
        .field("batch", configs[0].batch)
        .field("campaigns", campaigns)
        .build();
    WorkloadOut { metrics, counters, workers: WORKERS, seeded: true }
}
