//! The claim documentation check.
//!
//! The paper's Figure 1 results are reproduced as ten machine-checked
//! claims, `R1` … `R10`, each one row of the claim table in
//! `crates/core/src/claims.rs`. A row holds its checker as a function,
//! and the lab's `e12` experiment iterates the table, so neither can go
//! missing. What the type system cannot see is the documentation: every
//! claim id in the table must be referenced in `PAPER_MAP.md` (ranges
//! like `R4–R6` and lists like `R2/R3` both count).

use crate::report::{ClaimEvidence, Finding};
use std::path::Path;

/// The claim table's source, relative to the workspace root.
pub const CLAIM_TABLE: &str = "crates/core/src/claims.rs";

/// The claim ids of the table's `id: "R…"` field lines, in table order.
pub fn claim_ids(table_src: &str) -> Vec<&str> {
    table_src
        .lines()
        .filter_map(|line| line.trim().strip_prefix("id: \"")?.split_once('"'))
        .map(|(id, _)| id)
        .filter(|id| claim_number(id).is_some())
        .collect()
}

/// Runs the documentation check against the workspace at `root`.
///
/// Returns the per-claim evidence plus findings for every undocumented
/// claim, and a `claim-registry-unreadable` finding when a source is
/// missing or the table yields no claim id.
pub fn check_claims(root: &Path) -> (Vec<ClaimEvidence>, Vec<Finding>) {
    let mut findings = Vec::new();
    let table_src = read_or_report(root, CLAIM_TABLE, &mut findings);
    let paper_map = read_or_report(root, "PAPER_MAP.md", &mut findings);
    let documented = documented_claim_ids(&paper_map);
    let ids = claim_ids(&table_src);
    if ids.is_empty() && !table_src.is_empty() {
        findings.push(Finding {
            rule: "claim-registry-unreadable",
            file: CLAIM_TABLE.into(),
            line: 0,
            message: "cannot read any `id: \"R…\"` line from the claim table".into(),
        });
    }
    let evidence: Vec<ClaimEvidence> = ids
        .into_iter()
        .map(|id| ClaimEvidence {
            id: id.to_string(),
            doc_ok: claim_number(id).is_some_and(|n| documented.contains(&n)),
        })
        .collect();
    for c in evidence.iter().filter(|c| !c.doc_ok) {
        findings.push(Finding {
            rule: "claim-missing-doc",
            file: "PAPER_MAP.md".into(),
            line: 0,
            message: format!("claim {} is not referenced in PAPER_MAP.md", c.id),
        });
    }
    (evidence, findings)
}

fn read_or_report(root: &Path, rel: &str, findings: &mut Vec<Finding>) -> String {
    match std::fs::read_to_string(root.join(rel)) {
        Ok(text) => text,
        Err(err) => {
            findings.push(Finding {
                rule: "claim-registry-unreadable",
                file: rel.to_string(),
                line: 0,
                message: format!("cannot read {rel}: {err}"),
            });
            String::new()
        }
    }
}

/// The `n` of a claim id `R<n>`.
fn claim_number(id: &str) -> Option<u32> {
    id.strip_prefix('R')?.parse().ok()
}

/// Every claim number mentioned in `text` as `R<n>`, with `R<a>–R<b>`
/// (en-dash or hyphen) ranges expanded.
fn documented_claim_ids(text: &str) -> Vec<u32> {
    let mut ids = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'R' && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric()) {
            if let Some((n, len)) = leading_number(&text[i + 1..]) {
                let after = &text[i + 1 + len..];
                let range_end = ["–R", "-R", "—R"]
                    .iter()
                    .find_map(|sep| after.strip_prefix(sep))
                    .and_then(leading_number)
                    .map(|(m, _)| m);
                match range_end {
                    Some(m) if m >= n => ids.extend(n..=m),
                    _ => ids.push(n),
                }
                i += 1 + len;
                continue;
            }
        }
        i += 1;
    }
    ids
}

fn leading_number(s: &str) -> Option<(u32, usize)> {
    let digits: String = s.chars().take_while(char::is_ascii_digit).collect();
    if digits.is_empty() || s[digits.len()..].starts_with(|c: char| c.is_ascii_alphanumeric()) {
        None
    } else {
        digits.parse().ok().map(|n| (n, digits.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_real_table_lists_r1_to_r10_in_order() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let src = std::fs::read_to_string(root.join(CLAIM_TABLE)).unwrap();
        let expected: Vec<String> = (1..=10).map(|n| format!("R{n}")).collect();
        assert_eq!(claim_ids(&src), expected);
    }

    #[test]
    fn claim_ids_read_only_r_id_field_lines() {
        let src = "ClaimRow {\n    id: \"R1\",\n    title: \"x\",\n}\nid: \"e1\",\n  id: \"R12\",";
        assert_eq!(claim_ids(src), ["R1", "R12"]);
    }

    #[test]
    fn doc_mentions_expand_ranges_and_lists() {
        let ids = documented_claim_ids("claims R2/R3; rows R4–R6 and R10, also R1-R3");
        assert!(ids.contains(&2) && ids.contains(&3) && ids.contains(&10));
        assert_eq!(ids.iter().filter(|&&n| n == 5).count(), 1);
        assert!(ids.contains(&1)); // hyphen range R1-R3
    }

    #[test]
    fn doc_mentions_ignore_lookalikes() {
        // `R2D2`-style tokens and `PR2` must not count.
        let ids = documented_claim_ids("R2D2 PR2 CR7x");
        assert!(ids.is_empty());
    }

    #[test]
    fn completeness_against_the_real_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (evidence, findings) = check_claims(&root);
        assert_eq!(evidence.len(), 10);
        for c in &evidence {
            assert!(c.doc_ok, "claim {} undocumented (findings: {findings:?})", c.id);
        }
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn an_undocumented_claim_is_flagged() {
        let dir = std::env::temp_dir().join(format!("sih-claims-doc-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("crates/core/src")).unwrap();
        std::fs::write(dir.join(CLAIM_TABLE), "    id: \"R1\",\n    id: \"R2\",\n").unwrap();
        std::fs::write(dir.join("PAPER_MAP.md"), "only R1 here").unwrap();
        let (evidence, findings) = check_claims(&dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(evidence.len(), 2);
        assert!(evidence[0].doc_ok && !evidence[1].doc_ok);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "claim-missing-doc");
        assert!(findings[0].message.contains("R2"), "{findings:?}");
    }

    #[test]
    fn missing_registry_is_reported_not_panicked() {
        let (evidence, findings) = check_claims(Path::new("/nonexistent-sih-root"));
        assert!(evidence.is_empty());
        assert!(findings.iter().any(|f| f.rule == "claim-registry-unreadable"));
    }

    #[test]
    fn a_table_without_ids_is_unreadable() {
        let dir = std::env::temp_dir().join(format!("sih-claims-noids-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("crates/core/src")).unwrap();
        std::fs::write(dir.join(CLAIM_TABLE), "// no rows\n").unwrap();
        std::fs::write(dir.join("PAPER_MAP.md"), "R1").unwrap();
        let (evidence, findings) = check_claims(&dir);
        std::fs::remove_dir_all(&dir).ok();
        assert!(evidence.is_empty());
        assert!(findings.iter().any(|f| f.rule == "claim-registry-unreadable"), "{findings:?}");
    }
}
