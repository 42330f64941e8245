//! Experiment reports: serializable records of what was run and measured.

use crate::json::{self, ObjectBuilder, Value};
use std::fmt;

/// Aggregate statistics of a family of runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Number of runs.
    pub runs: u64,
    /// Property violations observed (expected 0 for positive results).
    pub violations: u64,
    /// Mean steps per run.
    pub mean_steps: f64,
    /// Mean messages sent per run.
    pub mean_messages: f64,
}

impl RunStats {
    /// Accumulates one run.
    pub fn record(&mut self, steps: u64, messages: u64, violated: bool) {
        let prev = self.runs as f64;
        self.runs += 1;
        let now = self.runs as f64;
        self.mean_steps = (self.mean_steps * prev + steps as f64) / now;
        self.mean_messages = (self.mean_messages * prev + messages as f64) / now;
        if violated {
            self.violations += 1;
        }
    }

    /// Serializes into a JSON object.
    pub fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("runs", self.runs)
            .field("violations", self.violations)
            .field("mean_steps", self.mean_steps)
            .field("mean_messages", self.mean_messages)
            .build()
    }

    /// Reads back what [`RunStats::to_json`] wrote.
    pub fn from_json(v: &Value) -> Option<Self> {
        Some(RunStats {
            runs: v["runs"].as_u64()?,
            violations: v["violations"].as_u64()?,
            mean_steps: v["mean_steps"].as_f64()?,
            mean_messages: v["mean_messages"].as_f64()?,
        })
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} runs, {} violations, ⌀{:.0} steps, ⌀{:.0} msgs",
            self.runs, self.violations, self.mean_steps, self.mean_messages
        )
    }
}

/// One experiment's report (one `E*` id of DESIGN.md / EXPERIMENTS.md).
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Experiment id (one of [`EXPERIMENT_IDS`](crate::EXPERIMENT_IDS)).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Paper artifact the experiment regenerates.
    pub paper_ref: String,
    /// Whether the expected outcome was observed.
    pub ok: bool,
    /// One-line outcome.
    pub outcome: String,
    /// Supporting lines (defeats, sub-sweeps, …).
    pub details: Vec<String>,
    /// Aggregate run statistics, when applicable.
    pub stats: Option<RunStats>,
}

impl ExperimentReport {
    /// Serializes into a JSON object.
    pub fn to_json(&self) -> Value {
        self.to_json_timed(None)
    }

    /// Like [`ExperimentReport::to_json`], but also records the wall
    /// clock spent producing the report and the derived run throughput.
    pub fn to_json_timed(&self, wall: Option<std::time::Duration>) -> Value {
        let wall_ms = wall.map(|d| d.as_secs_f64() * 1e3);
        let runs_per_sec = match (wall, &self.stats) {
            (Some(d), Some(stats)) if d.as_secs_f64() > 0.0 && stats.runs > 0 => {
                Some(stats.runs as f64 / d.as_secs_f64())
            }
            _ => None,
        };
        ObjectBuilder::new()
            .field("id", self.id.as_str())
            .field("title", self.title.as_str())
            .field("paper_ref", self.paper_ref.as_str())
            .field("ok", self.ok)
            .field("outcome", self.outcome.as_str())
            .field("details", self.details.clone())
            .field("stats", self.stats.as_ref().map_or(Value::Null, RunStats::to_json))
            .opt_field("wall_ms", wall_ms)
            .opt_field("runs_per_sec", runs_per_sec)
            .build()
    }

    /// Reads back what [`ExperimentReport::to_json`] wrote (timing
    /// fields, if present, are not part of the report and are ignored).
    pub fn from_json(v: &Value) -> Option<Self> {
        let details = match &v["details"] {
            Value::Array(items) => {
                items.iter().map(|d| d.as_str().map(str::to_string)).collect::<Option<_>>()?
            }
            _ => return None,
        };
        Some(ExperimentReport {
            id: v["id"].as_str()?.to_string(),
            title: v["title"].as_str()?.to_string(),
            paper_ref: v["paper_ref"].as_str()?.to_string(),
            ok: v["ok"].as_bool()?,
            outcome: v["outcome"].as_str()?.to_string(),
            details,
            stats: match &v["stats"] {
                Value::Null => None,
                stats => Some(RunStats::from_json(stats)?),
            },
        })
    }

    /// Serializes a batch of reports as a pretty-printed JSON array.
    pub fn batch_to_json_pretty(timed: &[(ExperimentReport, std::time::Duration)]) -> String {
        Value::Array(timed.iter().map(|(r, d)| r.to_json_timed(Some(*d))).collect())
            .to_string_pretty()
    }

    /// Parses a JSON array of reports (as written by the `lab` CLI).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or shape error.
    pub fn batch_from_json(text: &str) -> Result<Vec<ExperimentReport>, String> {
        let v = json::parse(text)?;
        let Value::Array(items) = &v else {
            return Err("expected a top-level JSON array of reports".into());
        };
        items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                ExperimentReport::from_json(item).ok_or(format!("report {i} is malformed"))
            })
            .collect()
    }
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] {} ({}) — {}",
            self.id.to_uppercase(),
            self.title,
            self.paper_ref,
            if self.ok { "OK" } else { "UNEXPECTED" }
        )?;
        writeln!(f, "    {}", self.outcome)?;
        if let Some(stats) = &self.stats {
            writeln!(f, "    {stats}")?;
        }
        for d in &self.details {
            writeln!(f, "    · {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_means() {
        let mut s = RunStats::default();
        s.record(10, 100, false);
        s.record(20, 200, true);
        assert_eq!(s.runs, 2);
        assert_eq!(s.violations, 1);
        assert!((s.mean_steps - 15.0).abs() < 1e-9);
        assert!((s.mean_messages - 150.0).abs() < 1e-9);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = ExperimentReport {
            id: "e1".into(),
            title: "t".into(),
            paper_ref: "Fig 2".into(),
            ok: true,
            outcome: "fine".into(),
            details: vec!["d".into()],
            stats: Some(RunStats::default()),
        };
        let s = r.to_json().to_string_pretty();
        let back = ExperimentReport::from_json(&json::parse(&s).unwrap()).unwrap();
        assert_eq!(back.id, "e1");
        assert!(back.ok);
        assert_eq!(back.stats, Some(RunStats::default()));
    }

    #[test]
    fn timed_json_carries_throughput() {
        let mut stats = RunStats::default();
        stats.record(10, 100, false);
        stats.record(10, 100, false);
        let r = ExperimentReport {
            id: "e1".into(),
            title: "t".into(),
            paper_ref: "Fig 2".into(),
            ok: true,
            outcome: "fine".into(),
            details: vec![],
            stats: Some(stats),
        };
        let v = r.to_json_timed(Some(std::time::Duration::from_millis(500)));
        assert!((v["wall_ms"].as_f64().unwrap() - 500.0).abs() < 1e-6);
        assert!((v["runs_per_sec"].as_f64().unwrap() - 4.0).abs() < 1e-6);
        // Timing fields do not disturb deserialization.
        let back = ExperimentReport::from_json(&v).unwrap();
        assert_eq!(back.id, "e1");
    }

    #[test]
    fn display_contains_id_and_outcome() {
        let r = ExperimentReport {
            id: "e3".into(),
            title: "Lemma 7".into(),
            paper_ref: "Lemma 7".into(),
            ok: true,
            outcome: "defeated".into(),
            details: vec![],
            stats: None,
        };
        let text = r.to_string();
        assert!(text.contains("[E3]"));
        assert!(text.contains("defeated"));
    }
}
