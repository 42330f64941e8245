//! The experiment registry: every table/figure/claim of the paper mapped
//! to a runnable experiment `E1…E15` (see DESIGN.md's per-experiment
//! index), plus the harness-level `faults`, `byzantine` and `fuzz`
//! summaries. [`EXPERIMENTS`] is the one list of them.

use crate::report::{ExperimentReport, RunStats};
use crate::{
    run_byzantine_bench, run_faults_bench, run_fuzz_bench, ByzantineLabConfig, FaultsLabConfig,
    FuzzLabConfig,
};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sih::claims::{
    check_claim, lemma11_outsider, lemma11_two_k, lemma15_chain, lemma7_defeats, positive_samples,
    sweep_samples, Claim, ClaimConfig, RunSample, Verdict,
};
use sih::patterns::random_majority_pattern;
use sih::pipeline::{Algorithm, RunPool, RunSpec};
use sih_detectors::{check_sigma_s, QuorumSigma};
use sih_model::{FailurePattern, NoDetector, OpKind, ProcessId, ProcessSet, Value};
use sih_reductions::{fig2_tightness, fig4_tightness, theorem13_demo, Lemma15Verdict};
use sih_registers::{check_linearizable, WorkloadSpec};
use sih_runtime::sweep::Sweep;
use sih_runtime::{FairScheduler, SimPool, Simulation, TraceLevel};

/// Lab configuration (a serializable [`ClaimConfig`] superset).
#[derive(Clone, Copy, Debug)]
pub struct LabConfig {
    /// System size `n`.
    pub n: usize,
    /// The `k` of the generalized claims.
    pub k: usize,
    /// Seeds per pattern.
    pub seeds: u64,
    /// Step budget per run.
    pub max_steps: u64,
    /// Worker threads for sweeps (`0` = one per available core).
    /// Results are identical for every thread count.
    pub threads: usize,
}

impl Default for LabConfig {
    fn default() -> Self {
        LabConfig { n: 6, k: 2, seeds: 5, max_steps: 200_000, threads: 0 }
    }
}

impl From<LabConfig> for ClaimConfig {
    fn from(c: LabConfig) -> ClaimConfig {
        ClaimConfig { n: c.n, k: c.k, seeds: c.seeds, max_steps: c.max_steps, threads: c.threads }
    }
}

/// One experiment: its id, title, the paper artifact it regenerates, and
/// its runner.
pub struct Experiment {
    /// Experiment id (the CLI command that runs it).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Paper artifact the experiment regenerates.
    pub paper_ref: &'static str,
    run: fn(&LabConfig) -> Run,
}

/// What a runner observed; [`run_experiment`] adds the row's id, title
/// and paper reference.
struct Run {
    ok: bool,
    outcome: String,
    details: Vec<String>,
    stats: Option<RunStats>,
}

impl Run {
    fn new(
        ok: bool,
        outcome: impl Into<String>,
        details: Vec<String>,
        stats: Option<RunStats>,
    ) -> Run {
        Run { ok, outcome: outcome.into(), details, stats }
    }
}

/// Every experiment, in DESIGN.md order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "e1",
        title: "σ implements (n−1)-set agreement",
        paper_ref: "Figure 2, Theorem 4",
        run: e1_fig2,
    },
    Experiment {
        id: "e2",
        title: "Σ_{p,q} ⪰ σ (2-register harder than set agreement)",
        paper_ref: "Figure 3, Lemma 6",
        run: e2_fig3,
    },
    Experiment {
        id: "e3",
        title: "Σ_{p,q} ⋠ σ (set agreement NOT harder than 2-register)",
        paper_ref: "Lemma 7",
        run: e3_lemma7,
    },
    Experiment {
        id: "e4",
        title: "σ_2k implements (n−k)-set agreement",
        paper_ref: "Figure 4, Theorem 8(a)",
        run: e4_fig4,
    },
    Experiment {
        id: "e5",
        title: "Σ_X ⪰ σ_|X| (2k-register harder than (n−k)-set agreement)",
        paper_ref: "Figure 5, Lemma 10",
        run: e5_fig5,
    },
    Experiment {
        id: "e6",
        title: "Σ_X2k ⋠ σ_2k ((n−k)-set agreement NOT harder than 2k-register)",
        paper_ref: "Lemma 11",
        run: e6_lemma11,
    },
    Experiment {
        id: "e7",
        title: "decision budgets n−1 / n−k are tight",
        paper_ref: "§5 claim (c); tightness schedules",
        run: e7_tightness,
    },
    Experiment {
        id: "e8",
        title: "(2k+1)-register not harder than (n−(k+1))-set agreement",
        paper_ref: "Theorems 12–13, Corollary 14",
        run: e8_theorem13,
    },
    Experiment {
        id: "e9",
        title: "anti-Ω ≺ σ (emulation via Figure 6; strictness via Lemma 15)",
        paper_ref: "Figure 6, Lemmas 15–16, Corollary 17",
        run: e9_fig6,
    },
    Experiment {
        id: "e10",
        title: "quorum implementation of Σ in majority-correct environments",
        paper_ref: "§2.2",
        run: e10_quorum,
    },
    Experiment {
        id: "e11",
        title: "ABD S-register emulation is atomic (linearizable)",
        paper_ref: "Proposition 1 substrate ([1],[9])",
        run: e11_abd,
    },
    Experiment {
        id: "e12",
        title: "Figure 1: the results matrix",
        paper_ref: "Figure 1",
        run: e12_figure1,
    },
    Experiment {
        id: "e13",
        title: "shared-memory substrate + the register-emulation port",
        paper_ref: "Theorem 12 setting ([21,13,3] world)",
        run: e13_sharedmem,
    },
    Experiment {
        id: "e14",
        title: "n = 2: register and set agreement are equivalent",
        paper_ref: "Footnote 1 ([9])",
        run: e14_footnote,
    },
    Experiment {
        id: "e15",
        title: "Σ extracted from the register's own message flow",
        paper_ref: "Proposition 1, necessity direction ([8],[10])",
        run: e15_extraction,
    },
    Experiment {
        id: "faults",
        title: "quorum algorithms degrade gracefully over faulty links",
        paper_ref: "§2.1 channel model, stressed",
        run: faults_matrix,
    },
    Experiment {
        id: "byzantine",
        title: "minimum armor defeats each attack at its class rung",
        paper_ref: "beyond the model: authenticated channels assumed by §2.1, made explicit",
        run: byzantine_matrix,
    },
    Experiment {
        id: "fuzz",
        title: "coverage-guided schedule fuzzing re-finds the planted violations",
        paper_ref: "harness tier: mutation search over the schedule space of §2.1 runs",
        run: fuzz_smoke,
    },
];

/// Every experiment id, in [`EXPERIMENTS`] order.
pub const EXPERIMENT_IDS: [&str; EXPERIMENTS.len()] = {
    let mut ids = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].id;
        i += 1;
    }
    ids
};

/// Runs one experiment by id (see [`EXPERIMENT_IDS`]).
///
/// # Panics
///
/// Panics on an unknown id.
pub fn run_experiment(id: &str, cfg: &LabConfig) -> ExperimentReport {
    let Some(e) = EXPERIMENTS.iter().find(|e| e.id == id) else {
        panic!("unknown experiment id {id:?} (expected one of {EXPERIMENT_IDS:?})")
    };
    let Run { ok, outcome, details, stats } = (e.run)(cfg);
    ExperimentReport {
        id: e.id.into(),
        title: e.title.into(),
        paper_ref: e.paper_ref.into(),
        ok,
        outcome,
        details,
        stats,
    }
}

/// Folds run samples into `stats` in order and returns their own stats.
fn fold(stats: &mut RunStats, samples: Vec<RunSample>) -> RunStats {
    let mut sub = RunStats::default();
    for (steps, messages, verdict) in samples {
        sub.record(steps, messages, verdict.is_err());
        stats.record(steps, messages, verdict.is_err());
    }
    sub
}

/// A sweep's report: ok iff no run violated its property.
fn swept(stats: RunStats, outcome: impl Into<String>, details: Vec<String>) -> Run {
    Run::new(stats.violations == 0, outcome, details, Some(stats))
}

fn e1_fig2(cfg: &LabConfig) -> Run {
    let mut stats = RunStats::default();
    let mut details = Vec::new();
    for n in [3usize, 4, cfg.n.max(5)] {
        let at_n = ClaimConfig { n, ..(*cfg).into() };
        let claim = Claim::SigmaImplementsSetAgreement;
        let samples = positive_samples(claim, &at_n, (3, 101), &[cfg.max_steps]);
        details.push(format!("n={n}: {}", fold(&mut stats, samples)));
    }
    let outcome = format!("{} runs across sizes, zero violations expected", stats.runs);
    swept(stats, outcome, details)
}

fn e2_fig3(cfg: &LabConfig) -> Run {
    let mut stats = RunStats::default();
    let claim = Claim::TwoRegisterHarderThanSetAgreement;
    let budgets = [6_000, cfg.max_steps];
    fold(&mut stats, positive_samples(claim, &(*cfg).into(), (4, 103), &budgets));
    let outcome = "Fig 3 emulation legal per Definition 3; stacked Fig3→Fig2 solves set agreement";
    swept(stats, outcome, vec![])
}

fn e3_lemma7(cfg: &LabConfig) -> Run {
    let defeats = lemma7_defeats(cfg.n, [40_000, 80_000]);
    let details = defeats.iter().map(|(name, d)| format!("{name}: {d}")).collect();
    let outcome = "every candidate emulation defeated by the two-run construction";
    Run::new(true, outcome, details, None)
}

fn e4_fig4(cfg: &LabConfig) -> Run {
    let mut stats = RunStats::default();
    let mut details = Vec::new();
    for k in 1..=cfg.n / 2 {
        let at_k = ClaimConfig { k, ..(*cfg).into() };
        let claim = Claim::Sigma2kImplementsNMinusKAgreement;
        let samples = positive_samples(claim, &at_k, (3, 107 + k as u64), &[cfg.max_steps]);
        details.push(format!("k={k}: {}", fold(&mut stats, samples)));
    }
    swept(stats, format!("swept k = 1..{} at n = {}", cfg.n / 2, cfg.n), details)
}

fn e5_fig5(cfg: &LabConfig) -> Run {
    let mut stats = RunStats::default();
    let claim = Claim::XRegisterHarderThanNMinusKAgreement;
    let budgets = [6_000, cfg.max_steps * 2];
    fold(&mut stats, positive_samples(claim, &(*cfg).into(), (4, 109), &budgets));
    let outcome =
        "Fig 5 emulation legal per Definition 9; stacked Fig5→Fig4 solves (n−k)-set agreement";
    swept(stats, outcome, vec![])
}

fn e6_lemma11(cfg: &LabConfig) -> Run {
    let (m, d2) = lemma11_two_k(cfg.k, 40_000);
    let d1 = lemma11_outsider(cfg.n, cfg.k, 40_000);
    let details = vec![format!("n>2k: {d1}"), format!("n=2k={m}: {d2}")];
    let outcome = "candidates defeated in both the outsider and n=2k constructions";
    Run::new(true, outcome, details, None)
}

fn e7_tightness(cfg: &LabConfig) -> Run {
    let mut details = Vec::new();
    let mut ok = true;
    for n in [3usize, 4, cfg.n.max(5)] {
        let r = fig2_tightness(n, 41);
        ok &= r.is_exact();
        let (forced, budget) = (r.distinct.len(), n - 1);
        details.push(format!("Fig 2, n={n}: forced {forced} distinct (budget {budget})"));
    }
    for k in 1..=cfg.n / 2 {
        let r = fig4_tightness(cfg.n, k, 43);
        ok &= r.is_exact();
        let (n, forced, budget) = (cfg.n, r.distinct.len(), cfg.n - k);
        details.push(format!("Fig 4, n={n}, k={k}: forced {forced} distinct (budget {budget})"));
    }
    Run::new(ok, "adversarial schedules exhaust the full budgets", details, None)
}

fn e8_theorem13(cfg: &LabConfig) -> Run {
    let mut details = Vec::new();
    let mut ok = true;
    for k in 1..=cfg.k.max(3) {
        let r = theorem13_demo(k, 47 + k as u64);
        ok &= r.violates_k_agreement;
        details.push(r.to_string());
    }
    Run::new(
        ok,
        "B-from-A simulation: candidates' B violates k-set agreement with Σ",
        details,
        None,
    )
}

fn e9_fig6(cfg: &LabConfig) -> Run {
    let mut stats = RunStats::default();
    let claim = Claim::SigmaStrictlyStrongerThanAntiOmega;
    fold(&mut stats, positive_samples(claim, &(*cfg).into(), (4, 113), &[25_000]));
    // Lemma 15 gives the strictness half.
    let report = lemma15_chain(cfg.n);
    let strict = matches!(report.verdict, Lemma15Verdict::AgreementViolation { .. });
    let details = vec![format!("Lemma 15 chain: {report}")];
    let outcome = "Fig 6 output legal anti-Ω; chain construction defeats anti-Ω set agreement";
    Run::new(stats.violations == 0 && strict, outcome, details, Some(stats))
}

fn e10_quorum(cfg: &LabConfig) -> Run {
    let mut stats = RunStats::default();
    let mut rng = ChaCha8Rng::seed_from_u64(127);
    let mut patterns = vec![FailurePattern::all_correct(cfg.n)];
    patterns.extend((0..4).map(|_| random_majority_pattern(cfg.n, &mut rng)));
    let n = cfg.n;
    let samples = sweep_samples(cfg.threads, cfg.seeds, &patterns, || {
        let mut pool = SimPool::with_trace_level(TraceLevel::Light);
        move |pattern: &FailurePattern, seed| {
            let procs = (0..n).map(|_| QuorumSigma::full(n)).collect();
            let sim = pool.acquire(procs, pattern);
            sim.run(&mut FairScheduler::new(seed), &NoDetector, 10_000);
            let tr = sim.trace();
            let verdict = check_sigma_s(tr.emulated_history(), pattern, ProcessSet::full(n));
            vec![(tr.total_steps(), tr.messages_sent(), verdict.map_err(|e| e.to_string()))]
        }
    });
    fold(&mut stats, samples);
    swept(stats, "emulated Σ histories satisfy intersection + completeness", vec![])
}

fn e11_abd(cfg: &LabConfig) -> Run {
    let mut stats = RunStats::default();
    let mut details = Vec::new();
    let mut rng = ChaCha8Rng::seed_from_u64(131);
    let max_steps = cfg.max_steps;
    for s_size in [2usize, 3.min(cfg.n)] {
        let s: ProcessSet = (0..s_size as u32).map(ProcessId).collect();
        // Each seed pairs with its own freshly drawn pattern; drawing
        // happens up front so the rng sequence is identical to the old
        // serial loop (and independent of the thread count).
        let items: Vec<(FailurePattern, u64)> =
            (0..cfg.seeds).map(|seed| (random_majority_pattern(cfg.n, &mut rng), seed)).collect();
        let samples = Sweep::new(cfg.threads).run(items, || {
            let mut pool = RunPool::with_trace_level(TraceLevel::Light);
            move |_idx, (pattern, seed): (FailurePattern, u64)| {
                let scripts = WorkloadSpec { ops_per_process: 4, read_ratio: 0.5, seed }.scripts(s);
                let (tr, _) = pool.run(&RunSpec::new(
                    Algorithm::Abd { s, scripts },
                    pattern,
                    seed,
                    max_steps,
                ));
                let verdict = check_linearizable(&tr.op_records(), None);
                (tr.total_steps(), tr.messages_sent(), verdict.map_err(|e| e.to_string()))
            }
        });
        details.push(format!("|S|={s_size}: {}", fold(&mut stats, samples)));
    }
    swept(stats, "every recorded operation history linearizable", details)
}

fn e12_figure1(cfg: &LabConfig) -> Run {
    let claim_cfg: ClaimConfig = (*cfg).into();
    let mut details = Vec::new();
    let mut ok = true;
    for claim in Claim::ALL {
        let outcome = check_claim(claim, &claim_cfg);
        ok &= outcome.verdict.confirmed();
        let line = match &outcome.verdict {
            Verdict::Holds { runs } => format!("HOLDS ({runs} runs)"),
            Verdict::CounterexampleExhibited { defeats } => {
                format!("COUNTEREXAMPLE ({} exhibits)", defeats.len())
            }
            Verdict::Refuted { detail } => format!("REFUTED: {detail}"),
        };
        details.push(format!("{:<42} {:<28} {line}", claim.title(), claim.paper_ref()));
    }
    Run::new(ok, "every row of the paper's results figure machine-checked", details, None)
}

fn e13_sharedmem(cfg: &LabConfig) -> Run {
    use sih_sharedmem::{bridged_processes, CollectMin, LocalSharedSim};
    let n = cfg.n;
    let proposals: Vec<Value> = (0..n as u64).map(Value).collect();
    let mut stats = RunStats::default();
    let mut details = Vec::new();

    // Shared memory, physical registers: f-resilient (f+1)-set agreement.
    for f in 0..=(n - 1) / 2 {
        let mut sub_ok = true;
        for seed in 0..cfg.seeds {
            let pattern = FailurePattern::all_correct(n);
            let mut sim = LocalSharedSim::new(CollectMin::processes(&proposals, f), n, pattern);
            let done = sim.run_fair(seed, 200_000);
            let violated = !done || sim.distinct_decisions().len() > f + 1;
            sub_ok &= !violated;
            stats.record(sim.steps(), 0, violated);
        }
        details.push(format!("local shared memory, f={f}: ok={sub_ok}"));
    }

    // The same program over ABD registers in message passing (Theorem 12's
    // porting direction), majority-correct environment.
    let f = 1;
    for seed in 0..cfg.seeds {
        let pattern = FailurePattern::builder(n)
            .crash_at(ProcessId(n as u32 - 1), sih_model::Time(30))
            .build();
        let det = sih_detectors::SigmaS::new(ProcessSet::full(n), &pattern, seed);
        let procs = bridged_processes(CollectMin::processes(&proposals, f), n);
        let mut sim = Simulation::new(procs, pattern.clone());
        sim.run_until(&mut FairScheduler::new(seed), &det, cfg.max_steps * 3, |s| {
            s.pattern().correct().iter().all(|p| s.trace().decision_of(p).is_some())
        });
        let done = pattern.correct().iter().all(|p| sim.trace().decision_of(p).is_some());
        let violated = !done || sim.trace().distinct_decisions().len() > f + 1;
        stats.record(sim.trace().total_steps(), sim.trace().messages_sent(), violated);
    }
    details.push(format!("bridged over ABD+Σ, f={f}: shared-memory program ported unchanged"));

    swept(
        stats,
        "CollectMin solves (f+1)-set agreement locally and over emulated registers",
        details,
    )
}

fn e15_extraction(cfg: &LabConfig) -> Run {
    use sih_registers::extracting;
    let mut stats = RunStats::default();
    let mut rng = ChaCha8Rng::seed_from_u64(137);
    let s: ProcessSet = (0..2u32).map(ProcessId).collect();
    let (n, max_steps) = (cfg.n, cfg.max_steps);
    // Patterns are drawn up front (one per seed) so the rng sequence
    // matches the old serial loop regardless of thread count.
    let items: Vec<(FailurePattern, u64)> =
        (0..cfg.seeds.max(3)).map(|seed| (random_majority_pattern(n, &mut rng), seed)).collect();
    let samples = Sweep::new(cfg.threads).run(items, || {
        let mut pool = SimPool::with_trace_level(TraceLevel::Light);
        move |_idx, (pattern, seed): (FailurePattern, u64)| {
            let det = sih_detectors::SigmaS::new(s, &pattern, seed);
            // Two clients alternating writes of fresh values with reads.
            let op = |i: u64, j: u64| match (i + j) % 2 {
                0 => OpKind::Write(Value(i * 10 + j)),
                _ => OpKind::Read,
            };
            let scripts = (0..2).map(|i| (0..6).map(|j| op(i, j)).collect()).collect();
            let procs = extracting(sih_registers::abd_processes(s, n, scripts));
            let sim = pool.acquire(procs, &pattern);
            sim.run_until(&mut FairScheduler::new(seed), &det, max_steps * 2, |sim| {
                sim.pattern().correct().iter().all(|p| sim.process(p).inner().script_finished())
            });
            let tr = sim.trace();
            let verdict = check_sigma_s(tr.emulated_history(), &pattern, s);
            (tr.total_steps(), tr.messages_sent(), verdict.map_err(|e| e.to_string()))
        }
    });
    fold(&mut stats, samples);
    let outcome = "heard-from sets of completed operations form a legal Σ_S history";
    swept(stats, outcome, vec![])
}

fn faults_matrix(cfg: &LabConfig) -> Run {
    let (n, seeds, max_steps, threads) =
        (cfg.n.max(3), cfg.seeds, cfg.max_steps.max(400_000), cfg.threads);
    let report = run_faults_bench(&FaultsLabConfig { n, seeds, max_steps, threads });
    let mut stats = RunStats::default();
    let mut details = Vec::new();
    for c in &report.cells {
        for _ in 0..c.runs {
            // One aggregate record per run keeps the means honest enough
            // for trend-watching; violations are exact.
            stats.record(c.steps / c.runs.max(1), c.sent / c.runs.max(1), false);
        }
        for _ in 0..c.violations {
            stats.record(0, 0, true);
        }
        details.push(format!(
            "{:<4} × {:<16} live {}/{} (dropped {}, duplicated {})",
            c.workload, c.scenario, c.live, c.runs, c.dropped, c.duplicated
        ));
    }
    details.push(format!(
        "abd × permanent-blackout: starved={} after {} steps (budget {})",
        report.starved.starved, report.starved.steps, report.starved.budget
    ));
    Run::new(
        report.ok(),
        "safety under unrestricted link faults; liveness once the faults quiesce",
        details,
        Some(stats),
    )
}

fn byzantine_matrix(cfg: &LabConfig) -> Run {
    let (n, seeds, max_steps, threads) =
        (cfg.n.max(3), cfg.seeds, cfg.max_steps.clamp(10_000, 50_000), cfg.threads);
    let report = run_byzantine_bench(&ByzantineLabConfig { n, seeds, max_steps, threads });
    let mut stats = RunStats::default();
    let mut details = Vec::new();
    for c in &report.cells {
        for s in &c.rungs {
            for _ in 0..s.runs {
                stats.record(s.steps / s.runs.max(1), s.sent / s.runs.max(1), false);
            }
            for _ in 0..s.violations + s.panics {
                stats.record(0, 0, true);
            }
        }
        details.push(format!(
            "{:<4} × {:<12} defeated at rung {} (class rung {}){}",
            c.workload,
            c.attack,
            c.defeating_rung.map_or_else(|| "-".into(), |r| r.to_string()),
            c.class_rung,
            c.witness.map_or_else(String::new, |w| format!(", witness {w}")),
        ));
    }
    Run::new(
        report.ok(),
        "every attack defeated within its class's armor rung; sub-armor violations \
                  witnessed in the corpus",
        details,
        Some(stats),
    )
}

fn fuzz_smoke(cfg: &LabConfig) -> Run {
    let (budget_schedules, threads) = ((cfg.seeds * 96).clamp(96, 1024), cfg.threads);
    let fcfg = FuzzLabConfig { seed: 0, budget_schedules, budget_ms: 0, batch: 32, threads };
    let report = run_fuzz_bench(&fcfg, &[]);
    let mut stats = RunStats::default();
    for s in &report.corpus {
        stats.record(s.choices.len() as u64, 0, false);
    }
    for _ in 0..report.violations {
        stats.record(0, 0, true);
    }
    let mut details = vec![format!(
        "{} schedules evaluated ({} batches, {} base seeds): {} distinct fingerprints, \
         corpus {} (digest {:016x})",
        report.executed,
        report.batches,
        report.seeds_loaded,
        report.distinct_fingerprints,
        report.corpus.len(),
        report.corpus_digest,
    )];
    for w in &report.witnesses {
        details.push(format!(
            "witness {} `{}`: shrunk {} -> {} choices",
            w.workload, w.verdict, w.shrink.original_len, w.shrink.final_len
        ));
    }
    Run::new(
        report.ok(),
        format!(
            "{} violations witnessed across {} workloads; every witness strict-replays",
            report.violations,
            report.witnesses.len()
        ),
        details,
        Some(stats),
    )
}

fn e14_footnote(cfg: &LabConfig) -> Run {
    let report = sih_reductions::two_process_equivalence(cfg.seeds.max(3));
    Run::new(
        report.ok(),
        report.to_string(),
        vec!["σ ⪯ Σ_{p,q} via Figure 3; Σ_{p,q} ⪯ σ via the mirror strategy (sound only at n=2)"
            .into()],
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LabConfig {
        LabConfig { n: 4, k: 1, seeds: 1, max_steps: 150_000, ..LabConfig::default() }
    }

    /// FNV-1a digest of a report's outcome line, details and `Debug` of
    /// its stats — the same fields perfbench's `claims` counters hash.
    fn digest(r: &ExperimentReport) -> u64 {
        let mut h = sih_runtime::Fnv64::new();
        h.write(r.outcome.as_bytes());
        for d in &r.details {
            h.write_u8(0);
            h.write(d.as_bytes());
        }
        h.write_debug(&r.stats);
        h.finish()
    }

    /// Each experiment's digest at [`tiny`]; any change to a verdict,
    /// detail line or run statistic moves it.
    const DIGESTS: [(&str, u64); 18] = [
        ("e1", 0x8033f83cd0018b46),
        ("e2", 0xaf25c90c71e69e6a),
        ("e3", 0x287e72d39124c0a5),
        ("e4", 0x572b607abc03c332),
        ("e5", 0x3bc2a53b57319cc6),
        ("e6", 0x25b5fab7a98c78e5),
        ("e7", 0x2a8963e1db1d3856),
        ("e8", 0xc75c3811da053e6f),
        ("e9", 0x87b27a8eb453a325),
        ("e10", 0xf04e9afb34b4f908),
        ("e11", 0x016f1917e5ee2caf),
        ("e12", 0x8a069311ce168070),
        ("e13", 0xbf1cc57bcc0470b6),
        ("e14", 0xf9aed0fa1411dd3e),
        ("e15", 0x16a386667512ad44),
        ("faults", 0x6d3d653705691af6),
        ("byzantine", 0x95bbb3ecd2942b52),
        ("fuzz", 0xd0451aef36781738),
    ];

    fn pinned(id: &str) -> u64 {
        DIGESTS.iter().find(|(d, _)| *d == id).map(|(_, h)| *h).expect("every id is pinned")
    }

    #[test]
    fn every_experiment_id_runs_and_is_ok() {
        // E12 re-runs all claims and is covered separately (slower).
        for id in EXPERIMENT_IDS.iter().filter(|id| **id != "e12") {
            let report = run_experiment(id, &tiny());
            assert!(report.ok, "{id}: {report}");
            assert_eq!(report.id, *id);
            assert_eq!(digest(&report), pinned(id), "{id}: {report}");
        }
    }

    #[test]
    fn figure1_experiment_confirms_all_claims() {
        let report = run_experiment("e12", &tiny());
        assert!(report.ok, "{report}");
        assert_eq!(report.details.len(), Claim::ALL.len());
        assert_eq!(digest(&report), pinned("e12"), "{report}");
    }

    #[test]
    fn experiment_ids_are_unique() {
        for (i, id) in EXPERIMENT_IDS.iter().enumerate() {
            assert!(!EXPERIMENT_IDS[i + 1..].contains(id), "{id} has two rows");
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        let _ = run_experiment("e99", &tiny());
    }

    #[test]
    fn lab_config_converts_to_claim_config() {
        let lab = LabConfig { n: 5, k: 2, seeds: 3, max_steps: 9, threads: 1 };
        let claim: ClaimConfig = lab.into();
        assert_eq!(claim.n, 5);
        assert_eq!(claim.k, 2);
        assert_eq!(claim.seeds, 3);
        assert_eq!(claim.max_steps, 9);
    }
}
