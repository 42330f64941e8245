//! The results of Figure 1 as runnable, machine-checked **claims**.
//!
//! Each [`Claim`] is one arrow (or crossed arrow) of the paper's results
//! figure. [`check_claim`] gathers the claim's evidence:
//!
//! * for a *positive* claim (an algorithm exists) it runs the paper's
//!   algorithm across a pattern/seed sweep and validates the target
//!   abstraction's properties on every run;
//! * for a *negative* claim (no algorithm exists) it runs the paper's
//!   adversary construction against the candidate library and reports the
//!   exhibited violations.

use crate::patterns::pattern_suite;
use crate::pipeline::{Algorithm, RunPool, RunSpec};
use sih_agreement::{check_k_set_agreement, distinct_proposals};
use sih_detectors::{check_anti_omega, check_sigma, check_sigma_k};
use sih_model::{FailurePattern, ProcessId, ProcessSet};
use sih_reductions::{
    fig2_tightness, fig4_tightness, lemma11_defeat, lemma15_defeat, lemma7_defeat, theorem13_demo,
    AntiOmegaAgreementCandidate, GossipPairCandidate, Lemma15Verdict, MirrorPairCandidate,
    MirrorXCandidate,
};
use sih_runtime::sweep::{with_seeds, Sweep};
use sih_runtime::TraceLevel;
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

impl Claim {
    /// Every claim, in the paper's order.
    pub const ALL: [Claim; 10] = [
        Claim::SigmaImplementsSetAgreement,
        Claim::TwoRegisterHarderThanSetAgreement,
        Claim::SetAgreementNotHarderThanTwoRegister,
        Claim::Sigma2kImplementsNMinusKAgreement,
        Claim::XRegisterHarderThanNMinusKAgreement,
        Claim::NMinusKAgreementNotHarderThanX2kRegister,
        Claim::DecisionBudgetsAreTight,
        Claim::RegisterNotHarderThanNMinusKMinus1,
        Claim::AntiOmegaInsufficientInMessagePassing,
        Claim::SigmaStrictlyStrongerThanAntiOmega,
    ];

    /// Short display title (the Figure 1 row).
    pub fn title(&self) -> &'static str {
        match self {
            Claim::SigmaImplementsSetAgreement => "σ → (n−1)-set agreement",
            Claim::TwoRegisterHarderThanSetAgreement => "2-register → set agreement",
            Claim::SetAgreementNotHarderThanTwoRegister => "2-register ↚ set agreement",
            Claim::Sigma2kImplementsNMinusKAgreement => "σ_2k → (n−k)-set agreement",
            Claim::XRegisterHarderThanNMinusKAgreement => "2k-register → (n−k)-set agreement",
            Claim::NMinusKAgreementNotHarderThanX2kRegister => "2k-register ↚ (n−k)-set agreement",
            Claim::DecisionBudgetsAreTight => "budgets n−1 / n−k are tight",
            Claim::RegisterNotHarderThanNMinusKMinus1 => "(2k+1)-register ↛ (n−k−1)-set agreement",
            Claim::AntiOmegaInsufficientInMessagePassing => {
                "anti-Ω ↛ set agreement (message passing)"
            }
            Claim::SigmaStrictlyStrongerThanAntiOmega => "anti-Ω ≺ σ",
        }
    }

    /// Where the claim lives in the paper.
    pub fn paper_ref(&self) -> &'static str {
        match self {
            Claim::SigmaImplementsSetAgreement => "Figure 2, Theorem 4",
            Claim::TwoRegisterHarderThanSetAgreement => "Figure 3, Lemma 6",
            Claim::SetAgreementNotHarderThanTwoRegister => "Lemma 7",
            Claim::Sigma2kImplementsNMinusKAgreement => "Figure 4, Theorem 8(a)",
            Claim::XRegisterHarderThanNMinusKAgreement => "Figure 5, Lemma 10",
            Claim::NMinusKAgreementNotHarderThanX2kRegister => "Lemma 11",
            Claim::DecisionBudgetsAreTight => "§5 (claim c), tightness schedules",
            Claim::RegisterNotHarderThanNMinusKMinus1 => "Theorems 12–13, Corollary 14",
            Claim::AntiOmegaInsufficientInMessagePassing => "Appendix, Lemma 15",
            Claim::SigmaStrictlyStrongerThanAntiOmega => "Figure 6, Lemma 16, Corollary 17",
        }
    }

    /// Whether the claim is positive (algorithm exists) or negative
    /// (adversary construction).
    pub fn is_positive(&self) -> bool {
        matches!(
            self,
            Claim::SigmaImplementsSetAgreement
                | Claim::TwoRegisterHarderThanSetAgreement
                | Claim::Sigma2kImplementsNMinusKAgreement
                | Claim::XRegisterHarderThanNMinusKAgreement
                | Claim::SigmaStrictlyStrongerThanAntiOmega
        )
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
    match claim {
        Claim::SigmaImplementsSetAgreement => check_r1(cfg),
        Claim::TwoRegisterHarderThanSetAgreement => check_r2(cfg),
        Claim::SetAgreementNotHarderThanTwoRegister => check_r3(cfg),
        Claim::Sigma2kImplementsNMinusKAgreement => check_r4(cfg),
        Claim::XRegisterHarderThanNMinusKAgreement => check_r5(cfg),
        Claim::NMinusKAgreementNotHarderThanX2kRegister => check_r6(cfg),
        Claim::DecisionBudgetsAreTight => check_r7(cfg),
        Claim::RegisterNotHarderThanNMinusKMinus1 => check_r8(cfg),
        Claim::AntiOmegaInsufficientInMessagePassing => check_r9(cfg),
        Claim::SigmaStrictlyStrongerThanAntiOmega => check_r10(cfg),
    }
}

fn pair() -> (ProcessId, ProcessId) {
    (ProcessId(0), ProcessId(1))
}

/// Fans a positive claim's `(pattern, seed)` grid across the sweep
/// engine. `make_job` builds one worker-local job (typically holding
/// pooled simulations); each job returns the number of runs it checked
/// or the detail of the violation it found. The fold walks results in
/// canonical grid order, so the verdict — including *which* violation is
/// reported first — is identical for every thread count.
fn positive_sweep<W, F>(
    cfg: &ClaimConfig,
    patterns: Vec<FailurePattern>,
    make_job: W,
) -> Result<usize, String>
where
    W: Fn() -> F + Sync,
    F: FnMut(&FailurePattern, u64) -> Result<usize, String>,
{
    let grid = with_seeds(&patterns, cfg.seeds);
    let results = Sweep::new(cfg.threads).run(grid, || {
        let mut job = make_job();
        move |_idx, (pattern, seed): (FailurePattern, u64)| job(&pattern, seed)
    });
    let mut runs = 0;
    for result in results {
        runs += result?;
    }
    Ok(runs)
}

fn active_2k(k: usize) -> ProcessSet {
    (0..2 * k as u32).map(ProcessId).collect()
}

fn check_r1(cfg: &ClaimConfig) -> ClaimOutcome {
    let (p, q) = pair();
    let focus = ProcessSet::from_iter([p, q]);
    let (n, max_steps) = (cfg.n, cfg.max_steps);
    let swept = positive_sweep(cfg, pattern_suite(n, focus, 4, 11), || {
        let mut pool = RunPool::with_trace_level(TraceLevel::Light);
        move |pattern: &FailurePattern, seed| {
            let spec =
                RunSpec::new(Algorithm::Fig2 { a0: p, a1: q }, pattern.clone(), seed, max_steps);
            let (tr, _) = pool.run(&spec);
            check_k_set_agreement(tr, pattern, &distinct_proposals(n), n - 1)
                .map_err(|e| e.to_string())?;
            Ok(1)
        }
    });
    match swept {
        Err(detail) => refuted(Claim::SigmaImplementsSetAgreement, detail),
        Ok(runs) => ClaimOutcome {
            claim: Claim::SigmaImplementsSetAgreement,
            verdict: Verdict::Holds { runs },
            notes: vec![format!("n={}, Figure 2 under sampled σ histories", cfg.n)],
        },
    }
}

fn check_r2(cfg: &ClaimConfig) -> ClaimOutcome {
    let (p, q) = pair();
    let focus = ProcessSet::from_iter([p, q]);
    let (n, max_steps) = (cfg.n, cfg.max_steps);
    let swept = positive_sweep(cfg, pattern_suite(n, focus, 3, 13), || {
        let mut pool = RunPool::with_trace_level(TraceLevel::Light);
        move |pattern: &FailurePattern, seed| {
            // Lemma 6: the Figure 3 emulation yields a legal σ history.
            let (tr, _) =
                pool.run(&RunSpec::new(Algorithm::Fig3 { p, q }, pattern.clone(), seed, 6_000));
            check_sigma(tr.emulated_history(), pattern, focus).map_err(|e| e.to_string())?;
            // End to end (Theorem 2 direction 1): Figure 2 stacked on
            // Figure 3 solves set agreement from Σ_{p,q}.
            let stack = Algorithm::StackFig3Fig2 { p, q };
            let (tr, _) = pool.run(&RunSpec::new(stack, pattern.clone(), seed, max_steps));
            check_k_set_agreement(tr, pattern, &distinct_proposals(n), n - 1)
                .map_err(|e| e.to_string())?;
            Ok(2)
        }
    });
    match swept {
        Err(detail) => refuted(Claim::TwoRegisterHarderThanSetAgreement, detail),
        Ok(runs) => ClaimOutcome {
            claim: Claim::TwoRegisterHarderThanSetAgreement,
            verdict: Verdict::Holds { runs },
            notes: vec![
                "Figure 3 output validated against Definition 3".into(),
                "stacked Fig3→Fig2 pipeline solves set agreement from Σ_{p,q}".into(),
            ],
        },
    }
}

fn check_r3(cfg: &ClaimConfig) -> ClaimOutcome {
    let (p, q) = pair();
    let a = ProcessId(2);
    let n = cfg.n;
    let mut defeats = Vec::new();
    let d1 = lemma7_defeat(
        &|| (0..n).map(|_| MirrorPairCandidate::new(p, q)).collect::<Vec<_>>(),
        n,
        p,
        q,
        a,
        17,
        30_000,
    );
    defeats.push(format!("mirror candidate: {d1}"));
    let d2 = lemma7_defeat(
        &|| (0..n).map(|_| GossipPairCandidate::new(p, q, 16)).collect::<Vec<_>>(),
        n,
        p,
        q,
        a,
        19,
        60_000,
    );
    defeats.push(format!("gossip candidate: {d2}"));
    ClaimOutcome {
        claim: Claim::SetAgreementNotHarderThanTwoRegister,
        verdict: Verdict::CounterexampleExhibited { defeats },
        notes: vec!["Lemma 7 two-run indistinguishability construction".into()],
    }
}

fn check_r4(cfg: &ClaimConfig) -> ClaimOutcome {
    let active = active_2k(cfg.k);
    let (n, k, max_steps) = (cfg.n, cfg.k, cfg.max_steps);
    let swept = positive_sweep(cfg, pattern_suite(n, active, 4, 23), || {
        let mut pool = RunPool::with_trace_level(TraceLevel::Light);
        move |pattern: &FailurePattern, seed| {
            let spec = RunSpec::new(Algorithm::Fig4 { active }, pattern.clone(), seed, max_steps);
            let (tr, _) = pool.run(&spec);
            check_k_set_agreement(tr, pattern, &distinct_proposals(n), n - k)
                .map_err(|e| e.to_string())?;
            Ok(1)
        }
    });
    match swept {
        Err(detail) => refuted(Claim::Sigma2kImplementsNMinusKAgreement, detail),
        Ok(runs) => ClaimOutcome {
            claim: Claim::Sigma2kImplementsNMinusKAgreement,
            verdict: Verdict::Holds { runs },
            notes: vec![format!("n={}, k={}, Figure 4 under sampled σ_2k histories", cfg.n, cfg.k)],
        },
    }
}

fn check_r5(cfg: &ClaimConfig) -> ClaimOutcome {
    let x = active_2k(cfg.k);
    let (n, k, max_steps) = (cfg.n, cfg.k, cfg.max_steps);
    let swept = positive_sweep(cfg, pattern_suite(n, x, 3, 29), || {
        let mut pool = RunPool::with_trace_level(TraceLevel::Light);
        move |pattern: &FailurePattern, seed| {
            let (tr, _) =
                pool.run(&RunSpec::new(Algorithm::Fig5 { x }, pattern.clone(), seed, 6_000));
            check_sigma_k(tr.emulated_history(), pattern, x).map_err(|e| e.to_string())?;
            let stack = Algorithm::StackFig5Fig4 { x };
            let (tr, _) = pool.run(&RunSpec::new(stack, pattern.clone(), seed, max_steps * 2));
            check_k_set_agreement(tr, pattern, &distinct_proposals(n), n - k)
                .map_err(|e| e.to_string())?;
            Ok(2)
        }
    });
    match swept {
        Err(detail) => refuted(Claim::XRegisterHarderThanNMinusKAgreement, detail),
        Ok(runs) => ClaimOutcome {
            claim: Claim::XRegisterHarderThanNMinusKAgreement,
            verdict: Verdict::Holds { runs },
            notes: vec![
                "Figure 5 output validated against Definition 9".into(),
                "stacked Fig5→Fig4 pipeline solves (n−k)-set agreement from Σ_X2k".into(),
            ],
        },
    }
}

fn check_r6(cfg: &ClaimConfig) -> ClaimOutcome {
    let n = cfg.n;
    let x = active_2k(cfg.k);
    let mut defeats = Vec::new();
    let d1 = lemma11_defeat(
        &|| (0..n).map(|_| MirrorXCandidate::new(x)).collect::<Vec<_>>(),
        n,
        x,
        31,
        30_000,
    );
    defeats.push(format!("mirror-X candidate (n>2k): {d1}"));
    // The special n = 2k case, on its own system size.
    if n >= 4 {
        let m = 2 * cfg.k.max(2);
        let full = ProcessSet::full(m);
        let d2 = lemma11_defeat(
            &|| (0..m).map(|_| MirrorXCandidate::new(full)).collect::<Vec<_>>(),
            m,
            full,
            37,
            30_000,
        );
        defeats.push(format!("mirror-X candidate (n=2k={m}): {d2}"));
    }
    ClaimOutcome {
        claim: Claim::NMinusKAgreementNotHarderThanX2kRegister,
        verdict: Verdict::CounterexampleExhibited { defeats },
        notes: vec!["Lemma 11 constructions, both the outsider and the n=2k shapes".into()],
    }
}

fn check_r7(cfg: &ClaimConfig) -> ClaimOutcome {
    let r2 = fig2_tightness(cfg.n, 41);
    let r4 = fig4_tightness(cfg.n, cfg.k, 43);
    let mut defeats = Vec::new();
    if !r2.is_exact() || !r4.is_exact() {
        return refuted(
            Claim::DecisionBudgetsAreTight,
            format!("budgets not reached: fig2 {:?}, fig4 {:?}", r2.distinct, r4.distinct),
        );
    }
    defeats.push(format!(
        "Figure 2 forced to {} distinct decisions (n−1 = {})",
        r2.distinct.len(),
        cfg.n - 1
    ));
    defeats.push(format!(
        "Figure 4 forced to {} distinct decisions (n−k = {})",
        r4.distinct.len(),
        cfg.n - cfg.k
    ));
    ClaimOutcome {
        claim: Claim::DecisionBudgetsAreTight,
        verdict: Verdict::CounterexampleExhibited { defeats },
        notes: vec!["adversarial schedules exhausting the decision budgets".into()],
    }
}

fn check_r8(cfg: &ClaimConfig) -> ClaimOutcome {
    let report = theorem13_demo(cfg.k, 47);
    if !report.violates_k_agreement {
        return refuted(Claim::RegisterNotHarderThanNMinusKMinus1, report.to_string());
    }
    ClaimOutcome {
        claim: Claim::RegisterNotHarderThanNMinusKMinus1,
        verdict: Verdict::CounterexampleExhibited { defeats: vec![report.to_string()] },
        notes: vec!["B-from-A simulation: the candidate's B violates k-set agreement with Σ".into()],
    }
}

fn check_r9(cfg: &ClaimConfig) -> ClaimOutcome {
    let report = lemma15_defeat(
        &|props: &[sih_model::Value]| AntiOmegaAgreementCandidate::processes(props, 5),
        cfg.n,
        20_000,
    );
    match &report.verdict {
        Lemma15Verdict::AgreementViolation { distinct } => ClaimOutcome {
            claim: Claim::AntiOmegaInsufficientInMessagePassing,
            verdict: Verdict::CounterexampleExhibited {
                defeats: vec![format!(
                    "chain construction: glued run decides {} distinct values (n = {})",
                    distinct.len(),
                    cfg.n
                )],
            },
            notes: vec![format!("solo segment lengths: {:?}", report.segments)],
        },
        other => ClaimOutcome {
            claim: Claim::AntiOmegaInsufficientInMessagePassing,
            verdict: Verdict::CounterexampleExhibited {
                defeats: vec![format!("candidate defeated earlier: {other:?}")],
            },
            notes: vec![],
        },
    }
}

fn check_r10(cfg: &ClaimConfig) -> ClaimOutcome {
    let (p, q) = pair();
    let focus = ProcessSet::from_iter([p, q]);
    let swept = positive_sweep(cfg, pattern_suite(cfg.n, focus, 4, 53), || {
        let mut pool = RunPool::with_trace_level(TraceLevel::Light);
        move |pattern: &FailurePattern, seed| {
            let spec =
                RunSpec::new(Algorithm::Fig6 { a0: p, a1: q }, pattern.clone(), seed, 20_000);
            let (tr, _) = pool.run(&spec);
            check_anti_omega(tr.emulated_history(), pattern).map_err(|e| e.to_string())?;
            Ok(1)
        }
    });
    match swept {
        Err(detail) => refuted(Claim::SigmaStrictlyStrongerThanAntiOmega, detail),
        Ok(runs) => ClaimOutcome {
            claim: Claim::SigmaStrictlyStrongerThanAntiOmega,
            verdict: Verdict::Holds { runs },
            notes: vec![
                "Figure 6 emulation validated against the anti-Ω specification".into(),
                "strictness follows from Lemma 15 (σ solves set agreement, anti-Ω cannot)".into(),
            ],
        },
    }
}

fn refuted(claim: Claim, detail: String) -> ClaimOutcome {
    ClaimOutcome { claim, verdict: Verdict::Refuted { detail }, notes: vec![] }
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
    #[should_panic(expected = "n ≥ 3")]
    fn invalid_config_rejected() {
        let cfg = ClaimConfig { n: 2, k: 1, seeds: 1, max_steps: 10, threads: 0 };
        let _ = check_claim(Claim::SigmaImplementsSetAgreement, &cfg);
    }
}
