//! The results of Figure 1 as runnable, machine-checked **claims**.
//!
//! Each [`Claim`] is one arrow (or crossed arrow) of the paper's results
//! figure, and each has exactly one row in the claim table: its id
//! (`R1` … `R10`), title, paper reference and checker. [`check_claim`]
//! runs the row's checker:
//!
//! * a *positive* claim (an algorithm exists) sweeps the paper's
//!   algorithm legs across a pattern/seed grid and validates the target
//!   abstraction's properties on every run ([`positive_samples`]);
//! * a *negative* claim (no algorithm exists) runs the paper's adversary
//!   construction against the candidate library and reports the
//!   exhibited violations.

use crate::patterns::pattern_suite;
use crate::pipeline::{Algorithm, RunPool, RunSpec};
use sih_agreement::{check_k_set_agreement, distinct_proposals};
use sih_detectors::{check_anti_omega, check_sigma, check_sigma_k};
use sih_model::{FailurePattern, ProcessId, ProcessSet, Value};
use sih_reductions::{
    fig2_tightness, fig4_tightness, lemma11_defeat, lemma15_defeat, lemma7_defeat, theorem13_demo,
    AntiOmegaAgreementCandidate, Defeat, GossipPairCandidate, Lemma15Report, Lemma15Verdict,
    MirrorPairCandidate, MirrorXCandidate,
};
use sih_runtime::sweep::{with_seeds, Sweep};
use sih_runtime::{Trace, TraceLevel};
use std::fmt;

/// One row of the paper's Figure 1 (plus the appendix results).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Claim {
    /// (a.1) `σ` implements `(n−1)`-set agreement — Fig. 2, Thm. 4.
    SigmaImplementsSetAgreement,
    /// `Σ_{p,q} ⪰ σ`: a 2-register is harder than set agreement —
    /// Fig. 3, Lemma 6 (plus the stacked end-to-end pipeline).
    TwoRegisterHarderThanSetAgreement,
    /// (b.1) `Σ_{p,q} ⋠ σ`: set agreement is **not** harder than a
    /// 2-register — Lemma 7.
    SetAgreementNotHarderThanTwoRegister,
    /// (a.2) `σ_2k` implements `(n−k)`-set agreement — Fig. 4, Thm. 8.
    Sigma2kImplementsNMinusKAgreement,
    /// `Σ_X ⪰ σ_|X|` — Fig. 5, Lemma 10 (plus the stacked pipeline).
    XRegisterHarderThanNMinusKAgreement,
    /// (b.2) `Σ_X2k ⋠ σ_2k` — Lemma 11 (incl. the `n = 2k` case).
    NMinusKAgreementNotHarderThanX2kRegister,
    /// (c) tightness: Figures 2/4 genuinely use budgets `n−1` / `n−k`.
    DecisionBudgetsAreTight,
    /// (c)/Thm. 13: a `(2k+1)`-register is not harder than
    /// `(n−(k+1))`-set agreement — the `B`-from-`A` simulation.
    RegisterNotHarderThanNMinusKMinus1,
    /// Appendix, Lemma 15: `anti-Ω` does not implement set agreement in
    /// message passing.
    AntiOmegaInsufficientInMessagePassing,
    /// Appendix, Lemma 16 + Cor. 17: `anti-Ω ⪯ σ`, strictly — Fig. 6.
    SigmaStrictlyStrongerThanAntiOmega,
}

/// One claim: its id, title, paper reference and checker.
struct ClaimRow {
    id: &'static str,
    claim: Claim,
    title: &'static str,
    paper_ref: &'static str,
    check: Check,
}

/// How a claim is checked; the variant is the claim's polarity.
enum Check {
    /// Positive: the algorithm legs hold on every run of a sweep.
    Sweep(Positive),
    /// Negative: an adversary construction exhibits violations.
    Construct(fn(&ClaimConfig) -> (Verdict, Vec<String>)),
}

/// A positive claim's sweep: the detector's focus set, the claim's own
/// pattern suite (see [`positive_samples`]), the algorithm legs run on
/// every `(pattern, seed)`, and the notes of a confirmed verdict.
struct Positive {
    focus: fn(usize) -> ProcessSet,
    suite: (usize, u64),
    legs: &'static [Leg],
    notes: fn(&ClaimConfig) -> Vec<String>,
}

/// One algorithm run per grid item and the property it must satisfy.
struct Leg {
    algorithm: fn(ProcessSet) -> Algorithm,
    /// The claim check's step budget, from [`ClaimConfig::max_steps`].
    steps: fn(u64) -> u64,
    check: fn(&Trace, &FailurePattern, &ClaimConfig, ProcessSet) -> Result<(), String>,
}

const P: ProcessId = ProcessId(0);
const Q: ProcessId = ProcessId(1);

fn pair(_k: usize) -> ProcessSet {
    ProcessSet::from_iter([P, Q])
}

fn active_2k(k: usize) -> ProcessSet {
    (0..2 * k as u32).map(ProcessId).collect()
}

/// `k`-set agreement over `n` distinct proposals.
fn agreement(tr: &Trace, pattern: &FailurePattern, n: usize, k: usize) -> Result<(), String> {
    check_k_set_agreement(tr, pattern, &distinct_proposals(n), k).map_err(|e| e.to_string())
}

/// The claim table, in the paper's order. `sih-analysis` reads the `id`
/// lines to check that PAPER_MAP.md documents every claim.
const CLAIMS: &[ClaimRow] = &[
    ClaimRow {
        id: "R1",
        claim: Claim::SigmaImplementsSetAgreement,
        title: "σ → (n−1)-set agreement",
        paper_ref: "Figure 2, Theorem 4",
        check: Check::Sweep(Positive {
            focus: pair,
            suite: (4, 11),
            legs: &[Leg {
                algorithm: |_| Algorithm::Fig2 { a0: P, a1: Q },
                steps: |max| max,
                check: |tr, pattern, g, _| agreement(tr, pattern, g.n, g.n - 1),
            }],
            notes: |cfg| vec![format!("n={}, Figure 2 under sampled σ histories", cfg.n)],
        }),
    },
    ClaimRow {
        id: "R2",
        claim: Claim::TwoRegisterHarderThanSetAgreement,
        title: "2-register → set agreement",
        paper_ref: "Figure 3, Lemma 6",
        check: Check::Sweep(Positive {
            focus: pair,
            suite: (3, 13),
            legs: &[
                // Lemma 6: the Figure 3 emulation yields a legal σ history.
                Leg {
                    algorithm: |_| Algorithm::Fig3 { p: P, q: Q },
                    steps: |_| 6_000,
                    check: |tr, pattern, _, focus| {
                        check_sigma(tr.emulated_history(), pattern, focus)
                            .map_err(|e| e.to_string())
                    },
                },
                // End to end (Theorem 2 direction 1): Figure 2 stacked on
                // Figure 3 solves set agreement from Σ_{p,q}.
                Leg {
                    algorithm: |_| Algorithm::StackFig3Fig2 { p: P, q: Q },
                    steps: |max| max,
                    check: |tr, pattern, g, _| agreement(tr, pattern, g.n, g.n - 1),
                },
            ],
            notes: |_| {
                vec![
                    "Figure 3 output validated against Definition 3".into(),
                    "stacked Fig3→Fig2 pipeline solves set agreement from Σ_{p,q}".into(),
                ]
            },
        }),
    },
    ClaimRow {
        id: "R3",
        claim: Claim::SetAgreementNotHarderThanTwoRegister,
        title: "2-register ↚ set agreement",
        paper_ref: "Lemma 7",
        check: Check::Construct(|cfg| {
            let defeats = lemma7_defeats(cfg.n, [30_000, 60_000]);
            let defeats =
                defeats.iter().map(|(name, d)| format!("{name} candidate: {d}")).collect();
            let notes = vec!["Lemma 7 two-run indistinguishability construction".into()];
            (Verdict::CounterexampleExhibited { defeats }, notes)
        }),
    },
    ClaimRow {
        id: "R4",
        claim: Claim::Sigma2kImplementsNMinusKAgreement,
        title: "σ_2k → (n−k)-set agreement",
        paper_ref: "Figure 4, Theorem 8(a)",
        check: Check::Sweep(Positive {
            focus: active_2k,
            suite: (4, 23),
            legs: &[Leg {
                algorithm: |active| Algorithm::Fig4 { active },
                steps: |max| max,
                check: |tr, pattern, g, _| agreement(tr, pattern, g.n, g.n - g.k),
            }],
            notes: |cfg| {
                vec![format!("n={}, k={}, Figure 4 under sampled σ_2k histories", cfg.n, cfg.k)]
            },
        }),
    },
    ClaimRow {
        id: "R5",
        claim: Claim::XRegisterHarderThanNMinusKAgreement,
        title: "2k-register → (n−k)-set agreement",
        paper_ref: "Figure 5, Lemma 10",
        check: Check::Sweep(Positive {
            focus: active_2k,
            suite: (3, 29),
            legs: &[
                Leg {
                    algorithm: |x| Algorithm::Fig5 { x },
                    steps: |_| 6_000,
                    check: |tr, pattern, _, x| {
                        check_sigma_k(tr.emulated_history(), pattern, x).map_err(|e| e.to_string())
                    },
                },
                Leg {
                    algorithm: |x| Algorithm::StackFig5Fig4 { x },
                    steps: |max| max * 2,
                    check: |tr, pattern, g, _| agreement(tr, pattern, g.n, g.n - g.k),
                },
            ],
            notes: |_| {
                vec![
                    "Figure 5 output validated against Definition 9".into(),
                    "stacked Fig5→Fig4 pipeline solves (n−k)-set agreement from Σ_X2k".into(),
                ]
            },
        }),
    },
    ClaimRow {
        id: "R6",
        claim: Claim::NMinusKAgreementNotHarderThanX2kRegister,
        title: "2k-register ↚ (n−k)-set agreement",
        paper_ref: "Lemma 11",
        check: Check::Construct(|cfg| {
            let outsider = lemma11_outsider(cfg.n, cfg.k, 30_000);
            let mut defeats = vec![format!("mirror-X candidate (n>2k): {outsider}")];
            // The special n = 2k case, on its own system size.
            if cfg.n >= 4 {
                let (m, d) = lemma11_two_k(cfg.k, 30_000);
                defeats.push(format!("mirror-X candidate (n=2k={m}): {d}"));
            }
            let note = "Lemma 11 constructions, both the outsider and the n=2k shapes";
            (Verdict::CounterexampleExhibited { defeats }, vec![note.into()])
        }),
    },
    ClaimRow {
        id: "R7",
        claim: Claim::DecisionBudgetsAreTight,
        title: "budgets n−1 / n−k are tight",
        paper_ref: "§5 (claim c), tightness schedules",
        check: Check::Construct(|cfg| {
            let r2 = fig2_tightness(cfg.n, 41);
            let r4 = fig4_tightness(cfg.n, cfg.k, 43);
            if !r2.is_exact() || !r4.is_exact() {
                let detail =
                    format!("budgets not reached: fig2 {:?}, fig4 {:?}", r2.distinct, r4.distinct);
                return (Verdict::Refuted { detail }, vec![]);
            }
            let forced = |fig, distinct: usize, budget, value| {
                format!("Figure {fig} forced to {distinct} distinct decisions ({budget} = {value})")
            };
            let defeats = vec![
                forced(2, r2.distinct.len(), "n−1", cfg.n - 1),
                forced(4, r4.distinct.len(), "n−k", cfg.n - cfg.k),
            ];
            let notes = vec!["adversarial schedules exhausting the decision budgets".into()];
            (Verdict::CounterexampleExhibited { defeats }, notes)
        }),
    },
    ClaimRow {
        id: "R8",
        claim: Claim::RegisterNotHarderThanNMinusKMinus1,
        title: "(2k+1)-register ↛ (n−k−1)-set agreement",
        paper_ref: "Theorems 12–13, Corollary 14",
        check: Check::Construct(|cfg| {
            let report = theorem13_demo(cfg.k, 47);
            if !report.violates_k_agreement {
                return (Verdict::Refuted { detail: report.to_string() }, vec![]);
            }
            let note = "B-from-A simulation: the candidate's B violates k-set agreement with Σ";
            (
                Verdict::CounterexampleExhibited { defeats: vec![report.to_string()] },
                vec![note.into()],
            )
        }),
    },
    ClaimRow {
        id: "R9",
        claim: Claim::AntiOmegaInsufficientInMessagePassing,
        title: "anti-Ω ↛ set agreement (message passing)",
        paper_ref: "Appendix, Lemma 15",
        check: Check::Construct(|cfg| {
            let report = lemma15_chain(cfg.n);
            let (defeat, notes) = match &report.verdict {
                Lemma15Verdict::AgreementViolation { distinct } => (
                    format!(
                        "chain construction: glued run decides {} distinct values (n = {})",
                        distinct.len(),
                        cfg.n
                    ),
                    vec![format!("solo segment lengths: {:?}", report.segments)],
                ),
                other => (format!("candidate defeated earlier: {other:?}"), vec![]),
            };
            (Verdict::CounterexampleExhibited { defeats: vec![defeat] }, notes)
        }),
    },
    ClaimRow {
        id: "R10",
        claim: Claim::SigmaStrictlyStrongerThanAntiOmega,
        title: "anti-Ω ≺ σ",
        paper_ref: "Figure 6, Lemma 16, Corollary 17",
        check: Check::Sweep(Positive {
            focus: pair,
            suite: (4, 53),
            legs: &[Leg {
                algorithm: |_| Algorithm::Fig6 { a0: P, a1: Q },
                steps: |_| 20_000,
                check: |tr, pattern, _, _| {
                    check_anti_omega(tr.emulated_history(), pattern).map_err(|e| e.to_string())
                },
            }],
            notes: |_| {
                vec![
                    "Figure 6 emulation validated against the anti-Ω specification".into(),
                    "strictness follows from Lemma 15 (σ solves set agreement, anti-Ω cannot)"
                        .into(),
                ]
            },
        }),
    },
];

impl Claim {
    /// Every claim, in the paper's order.
    pub const ALL: [Claim; CLAIMS.len()] = {
        let mut all = [CLAIMS[0].claim; CLAIMS.len()];
        let mut i = 1;
        while i < CLAIMS.len() {
            all[i] = CLAIMS[i].claim;
            i += 1;
        }
        all
    };

    fn row(&self) -> &'static ClaimRow {
        CLAIMS.iter().find(|r| r.claim == *self).expect("invariant: every claim has a table row")
    }

    /// The claim's id in the paper's results list (`"R1"` … `"R10"`).
    pub fn id(&self) -> &'static str {
        self.row().id
    }

    /// Short display title (the Figure 1 row).
    pub fn title(&self) -> &'static str {
        self.row().title
    }

    /// Where the claim lives in the paper.
    pub fn paper_ref(&self) -> &'static str {
        self.row().paper_ref
    }

    /// Whether the claim is positive (algorithm exists) or negative
    /// (adversary construction).
    pub fn is_positive(&self) -> bool {
        matches!(self.row().check, Check::Sweep(_))
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.title())
    }
}

/// Sweep parameters for [`check_claim`].
#[derive(Clone, Copy, Debug)]
pub struct ClaimConfig {
    /// System size `n`.
    pub n: usize,
    /// The `k` of the generalized claims (`1 ≤ k ≤ n/2`).
    pub k: usize,
    /// Seeds per pattern.
    pub seeds: u64,
    /// Step budget per run.
    pub max_steps: u64,
    /// Worker threads for positive-claim sweeps (`0` = one per
    /// available core). Verdicts are identical for every thread count.
    pub threads: usize,
}

impl Default for ClaimConfig {
    fn default() -> Self {
        ClaimConfig { n: 6, k: 2, seeds: 5, max_steps: 150_000, threads: 0 }
    }
}

/// The verdict of one claim check.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Positive claim: the algorithm satisfied its specification on every
    /// run of the sweep.
    Holds {
        /// Number of runs checked.
        runs: usize,
    },
    /// Negative claim: the adversary exhibited concrete violations
    /// against every candidate.
    CounterexampleExhibited {
        /// One description per defeated candidate.
        defeats: Vec<String>,
    },
    /// The claim FAILED to verify — would indicate a bug in this
    /// reproduction, never expected.
    Refuted {
        /// What went wrong.
        detail: String,
    },
}

impl Verdict {
    /// Whether the claim was confirmed (either direction).
    pub fn confirmed(&self) -> bool {
        !matches!(self, Verdict::Refuted { .. })
    }
}

/// The outcome of checking one claim.
#[derive(Clone, Debug)]
pub struct ClaimOutcome {
    /// The claim checked.
    pub claim: Claim,
    /// The verdict.
    pub verdict: Verdict,
    /// Free-form evidence notes (counts, parameters, exhibits).
    pub notes: Vec<String>,
}

/// Checks one claim under the given configuration.
pub fn check_claim(claim: Claim, cfg: &ClaimConfig) -> ClaimOutcome {
    assert!(cfg.n >= 3 && cfg.k >= 1 && 2 * cfg.k <= cfg.n, "need n ≥ 3, 1 ≤ k ≤ n/2");
    let (verdict, notes) = match &claim.row().check {
        Check::Construct(check) => check(cfg),
        Check::Sweep(positive) => {
            let budgets: Vec<u64> =
                positive.legs.iter().map(|l| (l.steps)(cfg.max_steps)).collect();
            let samples = positive_samples(claim, cfg, positive.suite, &budgets);
            match samples.iter().find_map(|(_, _, verdict)| verdict.clone().err()) {
                Some(detail) => (Verdict::Refuted { detail }, vec![]),
                None => (Verdict::Holds { runs: samples.len() }, (positive.notes)(cfg)),
            }
        }
    };
    ClaimOutcome { claim, verdict, notes }
}

/// One simulated run of a sweep: `(steps, messages sent, verdict)`.
pub type RunSample = (u64, u64, Result<(), String>);

/// Fans a `(pattern, seed)` grid across the sweep engine and returns the
/// per-run samples flattened in canonical grid order. `make_job` builds
/// one worker-local job (typically holding pooled simulations); each job
/// returns the samples of its grid item. Any fold over the result —
/// running means, the first violation reported — is therefore identical
/// for every thread count.
pub fn sweep_samples<W, F>(
    threads: usize,
    seeds: u64,
    patterns: &[FailurePattern],
    make_job: W,
) -> Vec<RunSample>
where
    W: Fn() -> F + Sync,
    F: FnMut(&FailurePattern, u64) -> Vec<RunSample>,
{
    Sweep::new(threads)
        .run(with_seeds(patterns, seeds), || {
            let mut job = make_job();
            move |_idx, (pattern, seed): (FailurePattern, u64)| job(&pattern, seed)
        })
        .into_iter()
        .flatten()
        .collect()
}

/// Runs a positive claim's algorithm legs on every `(pattern, seed)` of
/// `cfg`'s system: the pattern suite over the claim's focus set plus
/// `patterns` random patterns drawn from `pattern_seed`, `cfg.seeds`
/// seeds each. Leg `i` runs with step budget `budgets[i]`. Returns one
/// sample per run in canonical order (legs in claim order within an
/// item).
///
/// # Panics
///
/// Panics if `claim` is negative or `budgets` does not give one budget
/// per leg.
pub fn positive_samples(
    claim: Claim,
    cfg: &ClaimConfig,
    (patterns, pattern_seed): (usize, u64),
    budgets: &[u64],
) -> Vec<RunSample> {
    let Check::Sweep(positive) = &claim.row().check else {
        panic!("{claim} is not a positive claim");
    };
    assert_eq!(budgets.len(), positive.legs.len(), "one step budget per leg of {claim}");
    let focus = (positive.focus)(cfg.k);
    let patterns = pattern_suite(cfg.n, focus, patterns, pattern_seed);
    sweep_samples(cfg.threads, cfg.seeds, &patterns, || {
        let mut pool = RunPool::with_trace_level(TraceLevel::Light);
        move |pattern: &FailurePattern, seed| {
            positive
                .legs
                .iter()
                .zip(budgets)
                .map(|(leg, &steps)| {
                    let spec = RunSpec::new((leg.algorithm)(focus), pattern.clone(), seed, steps);
                    let (tr, _) = pool.run(&spec);
                    (tr.total_steps(), tr.messages_sent(), (leg.check)(tr, pattern, cfg, focus))
                })
                .collect()
        }
    })
}

/// Lemma 7's two-run construction against both candidate 2-register
/// emulations (`mirror`, `gossip`), with step budgets `budgets`.
pub fn lemma7_defeats(n: usize, budgets: [u64; 2]) -> [(&'static str, Defeat); 2] {
    let a = ProcessId(2);
    let mirror = || (0..n).map(|_| MirrorPairCandidate::new(P, Q)).collect::<Vec<_>>();
    let gossip = || (0..n).map(|_| GossipPairCandidate::new(P, Q, 16)).collect::<Vec<_>>();
    [
        ("mirror", lemma7_defeat(&mirror, n, P, Q, a, 17, budgets[0])),
        ("gossip", lemma7_defeat(&gossip, n, P, Q, a, 19, budgets[1])),
    ]
}

/// Lemma 11's outsider construction: the mirror-X candidate over the
/// `2k` actives of an `n`-process system.
pub fn lemma11_outsider(n: usize, k: usize, budget: u64) -> Defeat {
    let x = active_2k(k);
    lemma11_defeat(
        &|| (0..n).map(|_| MirrorXCandidate::new(x)).collect::<Vec<_>>(),
        n,
        x,
        31,
        budget,
    )
}

/// Lemma 11's `n = 2k` construction on its own system of
/// `m = max(2k, 4)` processes; returns `m` and the defeat.
pub fn lemma11_two_k(k: usize, budget: u64) -> (usize, Defeat) {
    let m = 2 * k.max(2);
    let full = ProcessSet::full(m);
    let mk = || (0..m).map(|_| MirrorXCandidate::new(full)).collect::<Vec<_>>();
    (m, lemma11_defeat(&mk, m, full, 37, budget))
}

/// Lemma 15's chain construction against the anti-Ω agreement candidate.
pub fn lemma15_chain(n: usize) -> Lemma15Report {
    lemma15_defeat(&|props: &[Value]| AntiOmegaAgreementCandidate::processes(props, 5), n, 20_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ClaimConfig {
        ClaimConfig { n: 4, k: 1, seeds: 2, max_steps: 150_000, threads: 0 }
    }

    #[test]
    fn all_claims_confirm_at_small_size() {
        for claim in Claim::ALL {
            let outcome = check_claim(claim, &small());
            assert!(outcome.verdict.confirmed(), "{claim} refuted: {:?}", outcome.verdict);
        }
    }

    #[test]
    fn positive_and_negative_split() {
        let positives = Claim::ALL.iter().filter(|c| c.is_positive()).count();
        assert_eq!(positives, 5);
    }

    #[test]
    fn titles_and_refs_are_distinct() {
        let mut titles: Vec<&str> = Claim::ALL.iter().map(Claim::title).collect();
        titles.sort_unstable();
        titles.dedup();
        assert_eq!(titles.len(), Claim::ALL.len());
        assert!(Claim::ALL.iter().all(|c| !c.paper_ref().is_empty()));
    }

    #[test]
    fn the_table_lists_r1_to_r10_once_each_in_order() {
        let ids: Vec<&str> = Claim::ALL.iter().map(Claim::id).collect();
        let expected: Vec<String> = (1..=10).map(|i| format!("R{i}")).collect();
        assert_eq!(ids, expected);
        for (i, a) in Claim::ALL.iter().enumerate() {
            assert!(!Claim::ALL[i + 1..].contains(a), "{a:?} has two rows");
        }
    }

    #[test]
    #[should_panic(expected = "n ≥ 3")]
    fn invalid_config_rejected() {
        let cfg = ClaimConfig { n: 2, k: 1, seeds: 1, max_steps: 10, threads: 0 };
        let _ = check_claim(Claim::SigmaImplementsSetAgreement, &cfg);
    }
}
