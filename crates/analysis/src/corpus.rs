//! The replay-corpus validity check.
//!
//! Every committed counterexample under `tests/corpus/*.schedule` must be
//! a well-formed, versioned schedule that names a **registered** workload
//! checker — otherwise the tier-1 replay test would fail late (or worse,
//! silently skip the file). This check is the fast syntactic gate: it
//! re-validates the schedule grammar line by line, dependency-free, and
//! reads the registered names straight from the workload table in
//! `crates/lab/src/repro.rs`, so there is no second list to drift.
//! Semantic fidelity (does the schedule still replay to its recorded
//! verdict?) is the tier-1 `tests/corpus.rs` job, not this one.

use crate::report::Finding;
use std::path::Path;

/// The workload registry source the checker names are read from.
pub const REGISTRY_SOURCE: &str = "crates/lab/src/repro.rs";

/// The workload checkers a corpus schedule may name: the `name: "…"`
/// field lines of the registry source.
pub fn registered_checkers(registry_src: &str) -> Vec<&str> {
    registry_src
        .lines()
        .filter_map(|line| line.trim().strip_prefix("name: \"")?.split_once('"'))
        .map(|(name, _)| name)
        .collect()
}

/// The newest schedule-format version this validator understands —
/// mirrors `SCHEDULE_VERSION` in `crates/runtime/src/repro.rs`. Version
/// 1 files stay readable; the `v2` additions (`adversary:`, `attack:`,
/// `armor:` lines) are only legal under a `v2` header.
pub const SCHEDULE_VERSION: u32 = 2;

/// Runs the corpus check against the workspace at `root`.
pub fn check_corpus(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();

    let registry_src = std::fs::read_to_string(root.join(REGISTRY_SOURCE)).unwrap_or_default();
    let registered = registered_checkers(&registry_src);
    if registered.is_empty() {
        findings.push(Finding {
            rule: "corpus-registry",
            file: REGISTRY_SOURCE.to_string(),
            line: 0,
            message: "cannot read any workload name from the registry source".to_string(),
        });
    }

    let dir = root.join("tests/corpus");
    let mut files: Vec<std::path::PathBuf> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "schedule"))
            .collect(),
        Err(_) => {
            findings.push(Finding {
                rule: "corpus-schedule",
                file: "tests/corpus".to_string(),
                line: 0,
                message: "corpus directory is missing".to_string(),
            });
            return findings;
        }
    };
    files.sort();
    if files.is_empty() {
        findings.push(Finding {
            rule: "corpus-schedule",
            file: "tests/corpus".to_string(),
            line: 0,
            message: "corpus directory holds no *.schedule files".to_string(),
        });
    }
    for path in files {
        let rel = format!(
            "tests/corpus/{}",
            path.file_name().map(|f| f.to_string_lossy().into_owned()).unwrap_or_default()
        );
        match std::fs::read_to_string(&path) {
            Ok(text) => findings.extend(validate_schedule_text(&rel, &text, &registered)),
            Err(_) => findings.push(Finding {
                rule: "corpus-schedule",
                file: rel,
                line: 0,
                message: "cannot read schedule file".to_string(),
            }),
        }
    }
    findings
}

/// Validates one schedule file's text against the versioned grammar and
/// the `registered` checker names. Returns one finding per offending line
/// (plus file-level findings for missing required fields).
pub fn validate_schedule_text(file: &str, text: &str, registered: &[&str]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut bad = |line: u32, message: String| {
        findings.push(Finding { rule: "corpus-schedule", file: file.to_string(), line, message });
    };

    let mut n: Option<u64> = None;
    let mut checker_seen = false;
    let mut verdict: Option<String> = None;
    let mut choices = 0usize;
    let mut version: Option<u32> = None;
    let mut required = ["n", "k", "seed", "max-steps"]
        .into_iter()
        .map(|f| (f, false))
        .collect::<Vec<(&str, bool)>>();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if version.is_none() {
            let v = line
                .strip_prefix("sih-schedule v")
                .and_then(|v| v.parse::<u32>().ok())
                .filter(|v| (1..=SCHEDULE_VERSION).contains(v));
            match v {
                Some(v) => version = Some(v),
                None => {
                    bad(
                        lineno,
                        format!(
                            "expected header `sih-schedule v1`..`sih-schedule \
                             v{SCHEDULE_VERSION}`, found `{line}`"
                        ),
                    );
                    return findings;
                }
            }
            continue;
        }
        let Some((key, value)) = line.split_once(':') else {
            bad(lineno, format!("expected `key: value`, found `{line}`"));
            continue;
        };
        let value = value.trim();
        match key {
            "checker" => {
                checker_seen = true;
                if !registered.contains(&value) {
                    bad(lineno, format!("`{value}` is not a registered checker"));
                }
            }
            "n" | "k" | "seed" | "max-steps" => {
                match value.parse::<u64>() {
                    Ok(v) => {
                        if key == "n" {
                            n = Some(v);
                        }
                    }
                    Err(_) => bad(lineno, format!("`{key}` takes an integer, found `{value}`")),
                }
                if let Some(slot) = required.iter_mut().find(|(f, _)| *f == key) {
                    slot.1 = true;
                }
            }
            "verdict" => {
                if value != "ok" && value != "panic" && !value.starts_with("violation:") {
                    bad(lineno, format!("unknown verdict token `{value}`"));
                }
                verdict = Some(value.to_string());
            }
            "crash" => {
                let ok = value.split_once('@').is_some_and(|(p, t)| {
                    parse_pid(p.trim(), n) && t.trim().parse::<u64>().is_ok()
                });
                if !ok {
                    bad(lineno, format!("expected `crash: pI @ t`, found `{value}`"));
                }
            }
            "crash-from-start" => {
                if !parse_pid(value, n) {
                    bad(lineno, format!("expected `crash-from-start: pI`, found `{value}`"));
                }
            }
            "link" => {
                if !link_line_ok(value, n) {
                    bad(
                        lineno,
                        format!(
                            "expected `link: drop|dup pI->pJ offset%stride @[from, until|inf)`, \
                             found `{value}`"
                        ),
                    );
                }
            }
            "adversary" => {
                if version == Some(1) {
                    bad(lineno, "`adversary:` lines need a `sih-schedule v2` header".to_string());
                } else if !adversary_line_ok(value, n) {
                    bad(
                        lineno,
                        format!(
                            "expected `adversary: flip|perturb|replay|forge-sender|forge-ack \
                             pI->pJ offset%stride @[from, until|inf) x=N`, found `{value}`"
                        ),
                    );
                }
            }
            "attack" => {
                if version == Some(1) {
                    bad(lineno, "`attack:` lines need a `sih-schedule v2` header".to_string());
                } else {
                    let ok = value.split_once(" x=").is_some_and(|(name, x)| {
                        ["equivocate", "split-ack"].contains(&name.trim())
                            && x.trim().parse::<u64>().is_ok()
                    });
                    if !ok {
                        bad(
                            lineno,
                            format!("expected `attack: equivocate|split-ack x=N`, found `{value}`"),
                        );
                    }
                }
            }
            "armor" => {
                if version == Some(1) {
                    bad(lineno, "`armor:` lines need a `sih-schedule v2` header".to_string());
                } else if !value.parse::<u8>().is_ok_and(|r| r <= 3) {
                    bad(lineno, format!("`armor` takes a rung 0..=3, found `{value}`"));
                }
            }
            "choice" => {
                choices += 1;
                let mut parts = value.split_whitespace();
                let pid_ok = parts.next().is_some_and(|p| parse_pid(p, n));
                let deliver_ok = parts.next().is_some_and(|d| d == "." || d.parse::<u64>().is_ok())
                    && parts.next().is_none();
                if !pid_ok || !deliver_ok {
                    bad(lineno, format!("expected `choice: pI .|idx`, found `{value}`"));
                }
            }
            other => bad(lineno, format!("unknown key `{other}`")),
        }
    }

    if version.is_none() {
        bad(0, "file has no schedule header".to_string());
        return findings;
    }
    if !checker_seen {
        bad(0, "missing `checker:` field".to_string());
    }
    for (field, seen) in required {
        if !seen {
            bad(0, format!("missing `{field}:` field"));
        }
    }
    match verdict {
        None => bad(0, "missing `verdict:` field".to_string()),
        Some(v) if v == "ok" => {
            bad(0, "corpus entries must witness a failure, but the verdict is `ok`".to_string())
        }
        Some(_) => {}
    }
    if choices == 0 {
        bad(0, "schedule has no `choice:` lines — nothing to replay".to_string());
    }
    findings
}

/// `pI` with `I < n` (when `n` is already known).
fn parse_pid(tok: &str, n: Option<u64>) -> bool {
    tok.strip_prefix('p')
        .and_then(|i| i.parse::<u64>().ok())
        .is_some_and(|i| n.is_none_or(|n| i < n))
}

/// `drop|dup pI->pJ offset%stride @[from, until|inf)`.
fn link_line_ok(value: &str, n: Option<u64>) -> bool {
    let mut parts = value.split_whitespace();
    let Some(kind) = parts.next() else { return false };
    if kind != "drop" && kind != "dup" {
        return false;
    }
    window_tail_ok(parts, n)
}

/// `flip|perturb|replay|forge-sender|forge-ack pI->pJ offset%stride
/// @[from, until|inf) x=N` — the v2 mutation-window grammar.
fn adversary_line_ok(value: &str, n: Option<u64>) -> bool {
    let Some((head, x)) = value.rsplit_once(" x=") else { return false };
    if x.trim().parse::<u64>().is_err() {
        return false;
    }
    let mut parts = head.split_whitespace();
    let Some(kind) = parts.next() else { return false };
    if !["flip", "perturb", "replay", "forge-sender", "forge-ack"].contains(&kind) {
        return false;
    }
    window_tail_ok(parts, n)
}

/// The shared `pI->pJ offset%stride @[from, until|inf)` window tail.
fn window_tail_ok<'a>(mut parts: impl Iterator<Item = &'a str>, n: Option<u64>) -> bool {
    let Some(edge) = parts.next() else { return false };
    let Some((src, dst)) = edge.split_once("->") else { return false };
    if !parse_pid(src, n) || !parse_pid(dst, n) {
        return false;
    }
    let Some(phase) = parts.next() else { return false };
    let Some((offset, stride)) = phase.split_once('%') else { return false };
    if offset.parse::<u64>().is_err() || !stride.parse::<u64>().is_ok_and(|s| s >= 1) {
        return false;
    }
    let Some(at) = parts.next() else { return false };
    if at != "@[" && !at.starts_with("@[") {
        return false;
    }
    let rest: String = std::iter::once(at.trim_start_matches("@[").to_string())
        .chain(parts.map(str::to_string))
        .collect::<Vec<_>>()
        .join(" ");
    let Some((from, until)) = rest.split_once(',') else { return false };
    if from.trim().parse::<u64>().is_err() {
        return false;
    }
    let until = until.trim();
    let Some(until) = until.strip_suffix(')') else { return false };
    let until = until.trim();
    until == "inf" || until.parse::<u64>().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// Validates against the real workload registry.
    fn validate_schedule(file: &str, text: &str) -> Vec<Finding> {
        let src = std::fs::read_to_string(root().join(REGISTRY_SOURCE)).expect("registry source");
        validate_schedule_text(file, text, &registered_checkers(&src))
    }

    const GOOD: &str = "\
# a comment
sih-schedule v1
checker: fig4-weak-sigma-k
n: 4
k: 1
seed: 26
max-steps: 4000
verdict: violation:agreement
crash: p2 @ 40
crash-from-start: p3
link: drop p0->p1 0%1 @[0, 5)
link: dup p1->p0 1%2 @[3, inf)
choice: p0 .
choice: p1 0
";

    const GOOD_V2: &str = "\
sih-schedule v2
checker: abd-byz-forge-ack
n: 4
k: 1
seed: 0
max-steps: 6000
verdict: violation:not-linearizable
armor: 1
adversary: forge-ack p3->p1 0%1 @[0, 11) x=77
adversary: perturb p0->p2 1%2 @[3, inf) x=100
attack: split-ack x=55
choice: p2 .
choice: p1 0
";

    #[test]
    fn a_well_formed_schedule_passes() {
        assert_eq!(validate_schedule("x.schedule", GOOD), vec![]);
    }

    #[test]
    fn a_well_formed_v2_schedule_passes() {
        assert_eq!(validate_schedule("x.schedule", GOOD_V2), vec![]);
    }

    #[test]
    fn adversary_lines_under_a_v1_header_are_flagged() {
        let text = GOOD_V2.replace("sih-schedule v2", "sih-schedule v1");
        let findings = validate_schedule("x.schedule", &text);
        assert!(findings.iter().any(|f| f.message.contains("need a `sih-schedule v2` header")));
    }

    #[test]
    fn malformed_v2_lines_are_flagged() {
        for (needle, replacement) in [
            ("forge-ack p3->p1", "forge-everything p3->p1"),
            ("@[0, 11) x=77", "@[0, 11)"),
            ("attack: split-ack x=55", "attack: split-brain x=55"),
            ("armor: 1", "armor: 9"),
            ("adversary: perturb p0->p2", "adversary: perturb p9->p2"),
        ] {
            let text = GOOD_V2.replace(needle, replacement);
            let findings = validate_schedule("x.schedule", &text);
            assert!(!findings.is_empty(), "`{replacement}` was accepted");
        }
    }

    #[test]
    fn the_real_corpus_passes() {
        let findings = check_corpus(&root());
        assert!(
            findings.is_empty(),
            "corpus findings:\n{}",
            findings
                .iter()
                .map(|f| format!("{}:{} {}", f.file, f.line, f.message))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn a_missing_header_is_fatal() {
        let findings = validate_schedule("x.schedule", "checker: fig2-sigma\n");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("header"));
    }

    #[test]
    fn an_unregistered_checker_is_flagged() {
        let text = GOOD.replace("fig4-weak-sigma-k", "made-up-checker");
        let findings = validate_schedule("x.schedule", &text);
        assert!(findings.iter().any(|f| f.message.contains("not a registered checker")));
    }

    #[test]
    fn registered_names_come_from_the_table_rows_only() {
        let src =
            "/// docs mention name: \"not-a-row\"\n    Workload {\n        name: \"a\",\n        \
                   summary: \"x\",\n    },\n    Workload { name: \"b\" },\n";
        assert_eq!(registered_checkers(src), vec!["a"]);
        assert!(!registered_checkers(
            &std::fs::read_to_string(root().join(REGISTRY_SOURCE)).unwrap()
        )
        .is_empty());
    }

    #[test]
    fn an_unreadable_registry_is_flagged() {
        let findings = check_corpus(Path::new("/nonexistent-sih-root"));
        assert!(findings.iter().any(|f| f.rule == "corpus-registry"));
    }

    #[test]
    fn an_ok_verdict_is_not_a_counterexample() {
        let text = GOOD.replace("verdict: violation:agreement", "verdict: ok");
        let findings = validate_schedule("x.schedule", &text);
        assert!(findings.iter().any(|f| f.message.contains("witness a failure")));
    }

    #[test]
    fn out_of_range_processes_are_flagged() {
        let text = GOOD.replace("choice: p1 0", "choice: p9 0");
        let findings = validate_schedule("x.schedule", &text);
        assert!(findings.iter().any(|f| f.message.contains("choice")));
    }

    #[test]
    fn malformed_link_and_crash_lines_are_flagged() {
        for (needle, replacement) in [
            ("link: drop p0->p1 0%1 @[0, 5)", "link: drop p0=>p1 0%1 @[0, 5)"),
            ("link: dup p1->p0 1%2 @[3, inf)", "link: dup p1->p0 1%0 @[3, inf)"),
            ("crash: p2 @ 40", "crash: p2 at 40"),
        ] {
            let text = GOOD.replace(needle, replacement);
            let findings = validate_schedule("x.schedule", &text);
            assert!(!findings.is_empty(), "`{replacement}` was accepted");
        }
    }

    #[test]
    fn missing_fields_and_empty_scripts_are_flagged() {
        let text = "sih-schedule v1\nchecker: fig2-sigma\nverdict: panic\n";
        let findings = validate_schedule("x.schedule", text);
        let all: String = findings.iter().map(|f| f.message.clone()).collect::<Vec<_>>().join("\n");
        for needle in ["missing `n:`", "missing `k:`", "missing `seed:`", "no `choice:`"] {
            assert!(all.contains(needle), "missing finding `{needle}` in:\n{all}");
        }
    }
}
