//! The benchmark's own test: every workload, at its tiny size, passes the
//! output gate and prints exactly the metrics `BENCHMARK.json` declares,
//! each with its declared unit.

use sih_lab::json::{self, Value};
use sih_perfbench::{declared_metrics, repo_root, run, Args, Outcome, Size, WORKLOADS};
use std::collections::BTreeSet;

fn tiny(workload: &str, trace: bool) -> Outcome {
    let args = Args { workload: workload.into(), seed: 3, seconds: 0.0, trace, size: Size::Tiny };
    run(&args, &[]).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// Checks the gate and that the metrics match `declared` in name, order
/// and unit, in the outcome and in its final JSON line.
fn assert_well_formed(workload: &str, o: &Outcome, declared: &[(String, String)]) {
    assert!(o.gate.attempted > 0, "{workload}: no check was made");
    assert_eq!(o.gate.failed, 0, "{workload}: {:?}", o.gate.failures);
    let got: Vec<(String, String)> =
        o.metrics.iter().map(|m| (m.name.clone(), m.unit.clone())).collect();
    assert_eq!(got, declared, "{workload}");

    let line = json::parse(&o.result_line()).expect("the result line is JSON");
    let Value::Object(top) = &line else { panic!("{workload}: result line is not an object") };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line.get("correct").as_bool(), Some(true));
    assert_eq!(line.get("failed").as_u64(), Some(0));
    for (name, unit) in declared {
        let m = line.get("metrics").get(name);
        assert_eq!(m.get("unit").as_str(), Some(unit.as_str()), "{workload}: {name}");
        assert!(m.get("value").as_f64().is_some_and(f64::is_finite), "{workload}: {name}");
    }
    assert_eq!(o.record.get("workload").as_str(), Some(workload));
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_passes_the_gate() {
    let declared = declared_metrics(&repo_root(), "end_to_end").expect("BENCHMARK.json parses");
    for w in WORKLOADS {
        let o = tiny(w, false);
        assert_well_formed(w, &o, &declared);
        for m in &o.metrics {
            assert!(m.value > 0.0, "{w}: end-to-end metric {} is {}", m.name, m.value);
        }
        assert!(o.not_exercised.is_empty());
        assert!(o.spans.is_none(), "an untraced run records no spans");
    }
}

#[test]
fn traced_runs_cover_every_per_layer_metric() {
    let declared = declared_metrics(&repo_root(), "per_layer").expect("BENCHMARK.json parses");
    let mut exercised = BTreeSet::new();
    for w in WORKLOADS {
        let o = tiny(w, true);
        assert_well_formed(w, &o, &declared);
        for name in ["trace.attributed_share", "trace.overhead"] {
            assert!(!o.not_exercised.iter().any(|n| n == name), "{w} does not report {name}");
        }
        let spans = o.spans.as_ref().expect("a traced run records spans");
        assert!(matches!(spans.get("spans"), Value::Array(s) if !s.is_empty()), "{w}: no spans");
        exercised.extend(
            o.metrics.iter().filter(|m| !o.not_exercised.contains(&m.name)).map(|m| m.name.clone()),
        );
    }
    let missing: Vec<_> = declared.iter().filter(|(n, _)| !exercised.contains(n)).collect();
    assert!(missing.is_empty(), "no workload measures {missing:?}");
}

#[test]
fn usage_errors_are_reported_not_panicked() {
    let parse = |s: &str| Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    assert!(parse("--workload explore --seed 1 --seconds 1 --trace 0").is_ok());
    assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
    assert!(parse("--workload explore --seed x --seconds 1 --trace 0").is_err());
    assert!(parse("--workload explore --seed 1 --seconds -1 --trace 0").is_err());
    assert!(parse("--workload explore --seed 1 --seconds 1 --trace 2").is_err());
    assert!(parse("--workload explore --seed 1 --seconds 1").is_ok());
    assert!(parse("--workload explore --seconds 1").is_err());
    assert!(parse("--workload").is_err());
    assert!(parse("--workload explore --seed 1 --seconds 1 --size tiny").is_err());
}
