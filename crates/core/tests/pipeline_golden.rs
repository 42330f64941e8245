//! Golden bit-identity of the run pipeline: every algorithm × mode the
//! lab matrices use, at two seeds, pinned to a digest of the full trace
//! plus the run's counters.
//!
//! The pinned values were recorded from the per-combination runners the
//! single [`RunPool::run`] replaced; a mismatch means a refactor changed
//! what some run does. Regenerate only for an intended behaviour change,
//! and say which runs moved and why.

use sih::pipeline::{Algorithm, RunPool, RunSpec};
use sih_model::{
    AdversaryPlan, Armor, AttackKind, AttackSpec, FailurePattern, LinkFaultPlan, OpKind, ProcessId,
    ProcessSet, Time, Value,
};
use sih_runtime::{fnv1a_64, RunOutcome, Trace};

/// (run, seed, digest) — see the module docs.
const GOLDEN: [(&str, u64, u64); 32] = [
    ("fig2", 1, 0x5af2c59c8f24ae40),
    ("fig3", 1, 0x1f2e8509920d2934),
    ("fig4", 1, 0x05cc7e320e281c0e),
    ("fig5", 1, 0xddfb646880e418d8),
    ("fig6", 1, 0x690f72b18c9ec149),
    ("stack32", 1, 0x0b3a387aa86286a6),
    ("stack54", 1, 0xf6797f7c8742f241),
    ("abd", 1, 0xb7937778ef2cd2a7),
    ("paxos", 1, 0x2e7c1bf228661517),
    ("fig2-stubborn", 1, 0x11f82879e7f27205),
    ("fig4-stubborn", 1, 0x9b5ce3e86b32f295),
    ("abd-stubborn", 1, 0x1de7c630c0a57e45),
    ("abd-raw-blackout", 1, 0xe20ac334f55c27dc),
    ("fig2-byz", 1, 0xe33db41670eeaa35),
    ("fig4-byz", 1, 0xc98e375a94b87026),
    ("abd-byz", 1, 0xead5db231acebb13),
    ("fig2", 2, 0x85ef3638cc882b7b),
    ("fig3", 2, 0x6d1e45dcdea36892),
    ("fig4", 2, 0xbf636135dbc650fe),
    ("fig5", 2, 0xe418bcc9d601f9a4),
    ("fig6", 2, 0x0c562c01116f2b1d),
    ("stack32", 2, 0x545daef9f99cc45f),
    ("stack54", 2, 0xdf00ce2688782300),
    ("abd", 2, 0xc4be2b9cfa720ac4),
    ("paxos", 2, 0xf49f97772590adcb),
    ("fig2-stubborn", 2, 0x864647d9eaf6ef09),
    ("fig4-stubborn", 2, 0xc15aadd49d41f7a9),
    ("abd-stubborn", 2, 0x66ab227c1f5a6cf8),
    ("abd-raw-blackout", 2, 0x21d0b02706caf2c5),
    ("fig2-byz", 2, 0x3f9bb845958e161f),
    ("fig4-byz", 2, 0xa245269041ca77d9),
    ("abd-byz", 2, 0x189326c11044df06),
];

/// FNV-1a/64 over the rendered event log and aggregate counters, plus
/// the [`RunOutcome`] for the modes whose old runners returned one.
fn digest(tr: &Trace, outcome: Option<&RunOutcome>) -> u64 {
    let mut s = format!(
        "{:?}|{}|{}|{:?}",
        tr.events(),
        tr.total_steps(),
        tr.messages_sent(),
        tr.end_time()
    );
    if let Some(o) = outcome {
        s += &format!("|{o:?}");
    }
    fnv1a_64(s.as_bytes())
}

/// Every directed link drops every other message until t=600.
fn lossy(n: usize) -> LinkFaultPlan {
    let mut b = LinkFaultPlan::builder(n);
    for src in 0..n as u32 {
        for dst in 0..n as u32 {
            b = b.drop_every(ProcessId(src), ProcessId(dst), 2, 0, Time::ZERO, Some(Time(600)));
        }
    }
    b.build()
}

/// The golden runs at `seed`: (name, spec, whether the outcome is part
/// of the digest).
fn runs(seed: u64) -> Vec<(&'static str, RunSpec, bool)> {
    let n = 4;
    let (p0, p1) = (ProcessId(0), ProcessId(1));
    let pair = ProcessSet::from_iter([p0, p1]);
    let crash = FailurePattern::builder(n).crash_at(ProcessId(3), Time(30)).build();
    let ok = FailurePattern::all_correct(n);
    let abd = Algorithm::Abd {
        s: pair,
        scripts: vec![
            vec![OpKind::Write(Value(1)), OpKind::Read],
            vec![OpKind::Read, OpKind::Write(Value(2)), OpKind::Read],
        ],
    };
    let fig2 = Algorithm::Fig2 { a0: p0, a1: p1 };
    let fig4 = Algorithm::Fig4 { active: pair };
    let plain = |alg: Algorithm, max_steps| RunSpec::new(alg, crash.clone(), seed, max_steps);
    let faulty = |alg: Algorithm| RunSpec::new(alg, ok.clone(), seed, 400_000);
    let byz = |alg: Algorithm| RunSpec::new(alg, ok.clone(), seed, 50_000);
    let perturb = AdversaryPlan::builder(n).perturb(p0, p1, 100, Time::ZERO, None).build();
    let forge = AdversaryPlan::builder(n).forge_ack(ProcessId(3), p1, 77, Time::ZERO, None).build();
    let blackout = LinkFaultPlan::builder(n).blackout(Time::ZERO, None).build();
    let equivocate = Some(AttackSpec { kind: AttackKind::Equivocate, x: 99 });
    let split_ack = Some(AttackSpec { kind: AttackKind::SplitAck, x: 55 });
    vec![
        ("fig2", plain(fig2.clone(), 200_000), false),
        ("fig3", plain(Algorithm::Fig3 { p: p0, q: p1 }, 6_000), false),
        ("fig4", plain(fig4.clone(), 200_000), false),
        ("fig5", plain(Algorithm::Fig5 { x: pair }, 6_000), false),
        ("fig6", plain(Algorithm::Fig6 { a0: p0, a1: p1 }, 20_000), false),
        ("stack32", plain(Algorithm::StackFig3Fig2 { p: p0, q: p1 }, 200_000), false),
        ("stack54", plain(Algorithm::StackFig5Fig4 { x: pair }, 200_000), false),
        ("abd", plain(abd.clone(), 200_000), false),
        ("paxos", plain(Algorithm::Paxos, 200_000), false),
        ("fig2-stubborn", faulty(fig2.clone()).with_faults(lossy(n), true), true),
        ("fig4-stubborn", faulty(fig4.clone()).with_faults(lossy(n), true), true),
        ("abd-stubborn", faulty(abd.clone()).with_faults(lossy(n), true), true),
        (
            "abd-raw-blackout",
            RunSpec::new(abd.clone(), ok.clone(), seed, 1_000_000).with_faults(blackout, false),
            true,
        ),
        ("fig2-byz", byz(fig2).with_adversary(perturb.clone(), equivocate, Armor::NONE), true),
        ("fig4-byz", byz(fig4).with_adversary(perturb, None, Armor::NONE), true),
        ("abd-byz", byz(abd).with_adversary(forge, split_ack, Armor::NONE), true),
    ]
}

/// All runs share one pool, while the golden values came from a fresh
/// simulation per run: a match also shows that recycling slots across
/// algorithms leaks no state into a run.
#[test]
fn every_algorithm_and_mode_matches_its_golden_digest() {
    let mut pool = RunPool::new();
    let mut mismatches = Vec::new();
    for seed in [1, 2] {
        for (name, spec, with_outcome) in runs(seed) {
            let (tr, outcome) = pool.run(&spec);
            let got = digest(tr, with_outcome.then_some(&outcome));
            let want = GOLDEN
                .iter()
                .find(|(n, s, _)| *n == name && *s == seed)
                .map(|g| g.2)
                .expect("every run has a golden value");
            if got != want {
                mismatches.push(format!("{name} seed {seed}: {got:#018x} != {want:#018x}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "golden digests moved:\n{}", mismatches.join("\n"));
}
