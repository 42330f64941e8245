//! End-to-end tests of the `lab` binary: argument handling, exit codes,
//! JSON output.

use std::process::Command;

fn lab() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lab"))
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = lab().output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
    assert!(err.contains("e1"), "{err}");
}

#[test]
fn unknown_command_fails() {
    let out = lab().arg("e99").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "{err}");
    // The expected commands come from the experiment and bench tables.
    for id in sih_lab::EXPERIMENT_IDS.iter().chain(&["all", "figure1", "explore", "scale"]) {
        assert!(err.contains(id), "{id} missing from {err}");
    }
}

#[test]
fn out_of_range_configs_are_typed_errors_with_exit_2() {
    for (args, flag) in [
        (&["e12", "--n", "2"][..], "--n"),
        (&["e12", "--n", "4", "--k", "3"], "--k"),
        (&["e6", "--n", "4", "--k", "3"], "--k"),
        (&["e5", "--n", "6", "--k", "0"], "--k"),
        // k > n/2 once made X reach past n: a false refutation, not a panic.
        (&["e5", "--n", "4", "--k", "3"], "--k"),
        (&["faults", "--n", "2"], "--n"),
        (&["byzantine", "--n", "2"], "--n"),
        (&["fuzz", "--batch", "0"], "--batch"),
    ] {
        let out = lab().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with(&format!("error: {flag}: invalid value")), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran before rejecting its config");
    }
}

#[test]
fn single_experiment_succeeds_and_prints_report() {
    let out =
        lab().args(["e7", "--n", "4", "--k", "1", "--seeds", "1"]).output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("[E7]"), "{text}");
    assert!(text.contains("OK"), "{text}");
}

#[test]
fn json_flag_writes_reports() {
    let dir = std::env::temp_dir().join(format!("lab-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("reports.json");
    let out =
        lab().args(["e14", "--seeds", "2", "--json"]).arg(&path).output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&path).unwrap();
    let reports = sih_lab::json::parse(&json).unwrap();
    assert_eq!(reports[0]["id"], "e14");
    assert_eq!(reports[0]["ok"], true);
    assert!(reports[0]["wall_ms"].as_f64().unwrap() >= 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn threads_flag_does_not_change_results() {
    let dir = std::env::temp_dir().join(format!("lab-cli-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut bodies = Vec::new();
    for threads in ["1", "2"] {
        let path = dir.join(format!("reports-{threads}.json"));
        let out = lab()
            .args(["e1", "--n", "4", "--seeds", "2", "--threads", threads, "--json"])
            .arg(&path)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let reports =
            sih_lab::ExperimentReport::batch_from_json(&std::fs::read_to_string(&path).unwrap())
                .unwrap();
        assert_eq!(reports.len(), 1);
        // Compare everything except the (wall-clock) timing fields,
        // which batch_from_json already ignores.
        bodies.push(format!("{:?}", reports[0]));
    }
    assert_eq!(bodies[0], bodies[1]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explore_command_writes_the_bench_artifact() {
    let dir = std::env::temp_dir().join(format!("lab-cli-explore-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_explore.json");
    let out = lab()
        .args(["explore", "--depth", "6", "--threads", "1", "--json"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("[explore]"), "{text}");
    assert!(text.contains("OK"), "{text}");
    let json = sih_lab::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(json.get("ok").as_bool(), Some(true));
    assert_eq!(json.get("verdicts_agree").as_bool(), Some(true));
    assert!(json.get("state_reduction").as_f64().unwrap() > 1.0);
    assert!(json.get("reduced").get("states_per_sec").as_f64().unwrap() > 0.0);
    assert!(json.get("unreduced").get("states").as_u64().unwrap() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figure1_renders_the_matrix() {
    let out = lab()
        .args(["figure1", "--n", "4", "--k", "1", "--seeds", "1"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Figure 1"), "{text}");
    assert!(text.contains("HOLDS"), "{text}");
    assert!(!text.contains("REFUTED"), "{text}");
}

#[test]
fn help_prints_usage_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = lab().arg(flag).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("usage:"), "{flag}: {text}");
        // The usage is rendered from the flag table: every flag is listed.
        for listed in ["--n N", "--threads T", "--huge", "--json PATH", "--workload W"] {
            assert!(text.contains(listed), "{flag}: `{listed}` missing from {text}");
        }
        // …and every experiment from the experiment table.
        for e in sih_lab::EXPERIMENTS {
            assert!(text.contains(e.title), "{flag}: {} missing from {text}", e.id);
        }
    }
}

#[test]
fn malformed_flag_values_are_typed_errors_with_exit_2() {
    for args in [
        &["e1", "--n", "abc"][..],
        &["fuzz", "--budget-schedules", "-3"],
        &["repro", "corpus", "tests/corpus", "--threads", "x"],
        &["e1", "--n"],
        &["e1", "--no-such-flag"],
    ] {
        let out = lab().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    let out = lab().args(["e1", "--n", "abc"]).output().expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--n: invalid value `abc`"), "{err}");
}

#[test]
fn failed_json_write_is_a_typed_error_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("lab-cli-nowrite-{}", std::process::id()));
    let path = dir.join("missing-subdir").join("out.json");
    let out =
        lab().args(["e14", "--seeds", "1", "--json"]).arg(&path).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error: ") && err.contains("out.json"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn out_of_range_schedule_files_are_typed_errors_with_exit_2() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/");
    let abd = std::fs::read_to_string(format!("{corpus}abd-weak-quorum.schedule")).unwrap();
    let fig2 = std::fs::read_to_string(format!("{corpus}fig2-byz-perturb.schedule")).unwrap();
    let dir = std::env::temp_dir().join(format!("lab-cli-badsched-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, text) in [
        abd.replace("n: 2", "n: 0"),
        // The committed p0->p1 fault names a process a 1-process system lacks.
        abd.replace("n: 2", "n: 1"),
        abd.replace("n: 2", "n: 70"),
        abd.replace("n: 2", "n: 99999999999"),
        fig2.replace("n: 3", "n: 2\ncrash: p7 @3"),
        fig2.replace("choice: p1 .", "choice: p5 ."),
    ]
    .into_iter()
    .enumerate()
    {
        let path = dir.join(format!("bad-{i}.schedule"));
        std::fs::write(&path, &text).unwrap();
        let out = lab().args(["repro", "replay"]).arg(&path).output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "case {i}: {err}");
        assert!(err.starts_with("error: ") && err.contains("line "), "case {i}: {err}");
        assert!(!err.contains("panicked"), "case {i}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
