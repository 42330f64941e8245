//! Findings and the machine-readable report.

use std::fmt::Write as _;

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (kebab-case, stable — CI and pragmas key on it).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line (0 when the finding is file- or workspace-level).
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// The evidence gathered for one paper claim (R1–R10).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClaimEvidence {
    /// Claim id (`R1` … `R10`), as read from the claim table.
    pub id: String,
    /// Claim id documented in PAPER_MAP.md.
    pub doc_ok: bool,
}

/// The full analysis report.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, in scan order.
    pub findings: Vec<Finding>,
    /// Claim documentation evidence (empty only if the claim table was
    /// unreadable — which itself produces a finding).
    pub claims: Vec<ClaimEvidence>,
    /// Number of files scanned by the determinism pass.
    pub files_scanned: usize,
    /// Findings suppressed by `allow` pragmas.
    pub suppressed: usize,
    /// Number of fns in the workspace call graph.
    pub graph_fns: usize,
    /// Number of call edges in the graph.
    pub graph_edges: usize,
    /// Number of hot-path root fns.
    pub graph_roots: usize,
    /// Number of fns transitively reachable from the roots.
    pub graph_reachable: usize,
}

impl Report {
    /// Whether the analysis passed (no findings, every claim documented).
    pub fn ok(&self) -> bool {
        self.findings.is_empty() && self.claims.iter().all(|c| c.doc_ok)
    }

    /// The report as a JSON document (machine-readable; CI uploads it).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"ok\": {},", self.ok());
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"suppressed\": {},", self.suppressed);
        let _ = writeln!(
            out,
            "  \"graph\": {{\"fns\": {}, \"edges\": {}, \"roots\": {}, \"reachable\": {}}},",
            self.graph_fns, self.graph_edges, self.graph_roots, self.graph_reachable
        );
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            );
        }
        out.push_str(if self.findings.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"claims\": [");
        for (i, c) in self.claims.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "    {{\"id\": {}, \"doc_ok\": {}}}", json_str(&c.id), c.doc_ok);
        }
        out.push_str(if self.claims.is_empty() { "]\n" } else { "\n  ]\n" });
        out.push_str("}\n");
        out
    }

    /// The report as human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        for c in &self.claims {
            let _ =
                writeln!(out, "claim {:<4} doc:{}", c.id, if c.doc_ok { "ok" } else { "MISSING" });
        }
        let _ = writeln!(
            out,
            "call graph: {} fn(s), {} edge(s), {} hot-path root(s), {} reachable",
            self.graph_fns, self.graph_edges, self.graph_roots, self.graph_reachable,
        );
        let _ = writeln!(
            out,
            "{}: {} finding(s), {} claim(s) checked, {} file(s) scanned, {} suppressed",
            if self.ok() { "PASS" } else { "FAIL" },
            self.findings.len(),
            self.claims.len(),
            self.files_scanned,
            self.suppressed,
        );
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            findings: vec![Finding {
                rule: "hash-container",
                file: "crates/model/src/x.rs".into(),
                line: 7,
                message: "HashMap \"quoted\"".into(),
            }],
            claims: vec![ClaimEvidence { id: "R1".into(), doc_ok: false }],
            files_scanned: 3,
            suppressed: 1,
            graph_fns: 4,
            graph_edges: 3,
            graph_roots: 1,
            graph_reachable: 2,
        }
    }

    #[test]
    fn ok_requires_no_findings_and_complete_claims() {
        let mut r = sample();
        assert!(!r.ok());
        r.findings.clear();
        assert!(!r.ok()); // doc_ok still false
        r.claims[0].doc_ok = true;
        assert!(r.ok());
        assert!(Report::default().ok());
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let json = sample().to_json();
        assert!(json.contains(r#""rule": "hash-container""#));
        assert!(json.contains(r#"HashMap \"quoted\""#));
        assert!(json.contains(r#""id": "R1", "doc_ok": false"#));
        // Balanced braces/brackets (cheap well-formedness smoke).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn text_rendering_summarizes() {
        let text = sample().render_text();
        assert!(text.contains("crates/model/src/x.rs:7: [hash-container]"));
        assert!(text.contains("doc:MISSING"));
        assert!(text.contains("call graph: 4 fn(s), 3 edge(s), 1 hot-path root(s), 2 reachable"));
        assert!(text.contains("FAIL: 1 finding(s), 1 claim(s) checked"));
    }

    #[test]
    fn json_carries_graph_stats() {
        let json = sample().to_json();
        assert!(json.contains(r#""graph": {"fns": 4, "edges": 3, "roots": 1, "reachable": 2}"#));
    }
}
