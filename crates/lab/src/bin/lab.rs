//! `lab` — the experiment CLI.
//!
//! ```text
//! lab <EXPERIMENT | all | figure1 | BENCH | repro> [FLAGS]
//! lab --help
//! ```
//!
//! Every flag lives in one table ([`FLAGS`]), every bench command in
//! another ([`BENCHES`]), and the experiments in the library's
//! `EXPERIMENTS` table; the usage text and the unknown-command error are
//! rendered from the three. A malformed flag value, a configuration the
//! runs cannot honor (experiments need `n ≥ 3` and `1 ≤ k ≤ n/2`), a
//! missing argument or a failed file write is a typed error: it is
//! printed and the process exits with status 2.
//!
//! `--threads 0` (the default) uses one worker per available core; every
//! thread count produces identical results, so `--threads` only changes
//! wall clock. JSON records include `wall_ms` and `runs_per_sec` so perf
//! trajectories can be tracked across revisions.
//!
//! `lab explore` benchmarks the reduced-state-space explorer against
//! unreduced enumeration (`--depth` bounds the schedules) and, with
//! `--json`, writes the `BENCH_explore.json` artifact.
//!
//! `lab faults` runs the robustness matrix (Figures 2/4 and the ABD
//! register over lossy, duplicating and partitioned-then-healed links,
//! plus the permanent-partition starvation witness) and, with `--json`,
//! writes the `BENCH_faults.json` artifact.
//!
//! `lab byzantine` runs the graceful-degradation matrix (Figures 2/4 and
//! the ABD register under deterministic message mutation and scripted
//! protocol attacks, swept over the minimum-armor ladder) and, with
//! `--json`, writes the `BENCH_byzantine.json` artifact.
//!
//! `lab scale` runs the large-`n` scaling tier (the majority-quorum ABD
//! register plus sampled Figure 2/Figure 4 decisions at
//! `n ∈ {10³, 10⁴, 10⁵}`; add `--huge` for `10⁶`, or lower the ladder
//! with `--max-n`) and, with `--json`, writes the `BENCH_scale.json`
//! artifact.
//!
//! `lab fuzz` runs the coverage-guided schedule fuzzer over the weakened
//! and byzantine repro workloads (`--budget-schedules`/`--budget-ms`
//! bound the run, `--seed` picks the mutation stream, `--corpus DIR`
//! adds extra seed schedules, `--witness-dir DIR` writes each shrunk
//! violation witness in corpus format) and, with `--json`, writes the
//! `BENCH_fuzz.json` artifact. Everything but wall clock is identical
//! for every `--threads` value.
//!
//! `lab repro` is the counterexample harness: `record` captures a failing
//! schedule from a registered workload, `shrink` minimizes it with the
//! delta-debugging engine, `replay` re-runs one schedule file, and
//! `corpus DIR` strict-replays every committed `*.schedule` (add
//! `--fresh DIR` to also re-record each planted violation from scratch).

use sih_lab::json::Value;
use sih_lab::{
    load_seed_schedules, render_figure1, repro, run_byzantine_bench, run_experiment,
    run_explore_bench, run_faults_bench, run_fuzz_bench, run_scale_bench, ByzantineLabConfig,
    ExperimentReport, ExploreLabConfig, FaultsLabConfig, FuzzLabConfig, LabConfig, ScaleLabConfig,
    EXPERIMENTS, EXPERIMENT_IDS,
};
use sih_runtime::{Schedule, ShrinkReport};
use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// A command-line failure; `main` prints it and exits with status 2.
#[derive(Debug)]
enum CliError {
    /// Unknown command or flag, or a missing argument.
    Usage(String),
    /// A flag value that does not parse.
    BadValue { flag: &'static str, value: String, reason: String },
    /// A file that could not be read or written.
    Io { path: String, reason: String },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg} (see `lab --help`)"),
            CliError::BadValue { flag, value, reason } => {
                write!(f, "{flag}: invalid value `{value}`: {reason}")
            }
            CliError::Io { path, reason } => write!(f, "{path}: {reason}"),
        }
    }
}

/// Everything the flags can set, across all commands. Flags shared by
/// several configurations are kept as given and fanned out by [`parse`].
#[derive(Default)]
struct Opts {
    lab: LabConfig,
    explore: ExploreLabConfig,
    faults: FaultsLabConfig,
    byz: ByzantineLabConfig,
    scale: ScaleLabConfig,
    fuzz: FuzzLabConfig,
    n: Option<usize>,
    k: Option<usize>,
    seeds: Option<u64>,
    steps: Option<u64>,
    threads: Option<usize>,
    scan: Option<u64>,
    corpus: Option<String>,
    witness_dir: Option<String>,
    json: Option<String>,
    workload: Option<String>,
    out: Option<String>,
    fresh: Option<String>,
    lenient: bool,
    shrink: bool,
}

/// Parses `v` into `slot` (a switch's `v` is `"true"`).
fn set<T: FromStr>(slot: &mut T, v: &str) -> Result<(), String>
where
    T::Err: fmt::Display,
{
    *slot = v.parse().map_err(|e: T::Err| e.to_string())?;
    Ok(())
}

/// Parses `v` into an optional `slot`.
fn set_some<T: FromStr>(slot: &mut Option<T>, v: &str) -> Result<(), String>
where
    T::Err: fmt::Display,
{
    *slot = Some(v.parse().map_err(|e: T::Err| e.to_string())?);
    Ok(())
}

/// Applies one flag's value.
type Setter = fn(&mut Opts, &str) -> Result<(), String>;

/// Every flag: name, value placeholder (`""` for a switch), setter.
const FLAGS: &[(&str, &str, Setter)] = &[
    ("--n", "N", |o, v| set_some(&mut o.n, v)),
    ("--k", "K", |o, v| set_some(&mut o.k, v)),
    ("--seeds", "S", |o, v| set_some(&mut o.seeds, v)),
    ("--steps", "M", |o, v| set_some(&mut o.steps, v)),
    ("--depth", "D", |o, v| set(&mut o.explore.depth, v)),
    ("--frontier-depth", "K", |o, v| set(&mut o.explore.frontier_depth, v)),
    ("--threads", "T", |o, v| set_some(&mut o.threads, v)),
    ("--max-n", "N", |o, v| set(&mut o.scale.max_n, v)),
    ("--sample", "D", |o, v| set(&mut o.scale.sample, v)),
    ("--huge", "", |o, v| set(&mut o.scale.huge, v)),
    ("--seed", "S", |o, v| set(&mut o.fuzz.seed, v)),
    ("--budget-schedules", "N", |o, v| set(&mut o.fuzz.budget_schedules, v)),
    ("--budget-ms", "MS", |o, v| set(&mut o.fuzz.budget_ms, v)),
    ("--batch", "B", |o, v| set(&mut o.fuzz.batch, v)),
    ("--corpus", "DIR", |o, v| set_some(&mut o.corpus, v)),
    ("--witness-dir", "DIR", |o, v| set_some(&mut o.witness_dir, v)),
    ("--workload", "W", |o, v| set_some(&mut o.workload, v)),
    ("--scan", "T", |o, v| set_some(&mut o.scan, v)),
    ("--shrink", "", |o, v| set(&mut o.shrink, v)),
    ("--lenient", "", |o, v| set(&mut o.lenient, v)),
    ("--fresh", "DIR", |o, v| set_some(&mut o.fresh, v)),
    ("--out", "FILE", |o, v| set_some(&mut o.out, v)),
    ("--json", "PATH", |o, v| set_some(&mut o.json, v)),
];

/// Parses `args` against [`FLAGS`]; returns the options and the
/// positional arguments.
fn parse(args: &[String]) -> Result<(Opts, Vec<String>), CliError> {
    let mut opts = Opts::default();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            positional.push(arg.clone());
            continue;
        }
        let &(flag, placeholder, setter) = FLAGS
            .iter()
            .find(|f| f.0 == arg)
            .ok_or_else(|| CliError::Usage(format!("unknown flag {arg}")))?;
        let value = match placeholder {
            "" => "true",
            _ => it.next().ok_or_else(|| CliError::Usage(format!("missing value for {flag}")))?,
        };
        setter(&mut opts, value).map_err(|reason| CliError::BadValue {
            flag,
            value: value.to_string(),
            reason,
        })?;
    }
    let o = &mut opts;
    if let Some(n) = o.n {
        (o.lab.n, o.explore.n, o.faults.n, o.byz.n) = (n, n, n, n);
    }
    o.lab.k = o.k.unwrap_or(o.lab.k);
    if let Some(s) = o.seeds {
        (o.lab.seeds, o.faults.seeds, o.byz.seeds) = (s, s, s);
    }
    if let Some(m) = o.steps {
        (o.lab.max_steps, o.faults.max_steps, o.byz.max_steps) = (m, m, m);
    }
    if let Some(t) = o.threads {
        (o.lab.threads, o.explore.threads, o.faults.threads, o.byz.threads) = (t, t, t, t);
        (o.scale.threads, o.fuzz.threads) = (t, t);
    }
    Ok((opts, positional))
}

fn usage() -> String {
    let flags: Vec<String> = FLAGS
        .iter()
        .map(
            |(flag, v, _)| if v.is_empty() { format!("[{flag}]") } else { format!("[{flag} {v}]") },
        )
        .collect();
    let experiments: String = EXPERIMENTS
        .iter()
        .map(|e| format!("  {:<10} {} ({})\n", e.id, e.title, e.paper_ref))
        .collect();
    format!(
        "usage: lab <{}> {}\n\
         commands: an experiment id runs that experiment; `all` runs every experiment; \
         `figure1` renders Figure 1; a bench ({}) prints its full report and `--json` writes \
         its BENCH file (where a bench and an experiment share a name, the bench runs)\n\
         experiments:\n{experiments}\
         repro: lab repro record --workload W [--n N] [--k K] [--seed S] [--scan T] [--steps M] \
         [--shrink] [--out FILE]\n       \
         lab repro shrink FILE [--out FILE]\n       \
         lab repro replay FILE [--lenient]\n       \
         lab repro corpus DIR [--threads T] [--fresh DIR]\n\
         workloads: {}\n",
        commands().join(" | "),
        flags.join(" "),
        BENCHES.iter().map(|b| b.0).collect::<Vec<_>>().join(", "),
        repro::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    )
}

/// Every command name: the experiment ids, `all`, `figure1`, the benches
/// not already named by an experiment, and `repro`.
fn commands() -> Vec<&'static str> {
    let benches = BENCHES.iter().map(|b| b.0).filter(|b| !EXPERIMENT_IDS.contains(b));
    EXPERIMENT_IDS.into_iter().chain(["all", "figure1"]).chain(benches).chain(["repro"]).collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => {
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
        Some("--help" | "-h") => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some(_) => {}
    }
    match run(&args[0], &args[1..]) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Maps a file error on `path` to [`CliError::Io`].
fn io_err<E: fmt::Display>(path: &str) -> impl FnOnce(E) -> CliError + '_ {
    move |e| CliError::Io { path: path.to_string(), reason: e.to_string() }
}

fn write_file(path: &str, text: &str) -> Result<(), CliError> {
    std::fs::write(path, text).map_err(io_err(path))
}

fn exit_code(ok: bool, what: &str) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("UNEXPECTED {what}");
        ExitCode::FAILURE
    }
}

/// Prints a bench report, writes its JSON record to `--json` if given,
/// and maps its verdict to the exit code.
fn emit(
    what: &str,
    report: &dyn fmt::Display,
    json: impl FnOnce() -> Value,
    ok: bool,
    path: Option<&str>,
) -> Result<ExitCode, CliError> {
    print!("{report}");
    if let Some(path) = path {
        write_file(path, &json().to_string_pretty())?;
        println!("wrote {what} bench to {path}");
    }
    Ok(exit_code(ok, &format!("{what} outcome")))
}

/// Runs one bench command (named by the [`BENCHES`] row) and prints its
/// report.
type Bench = fn(&'static str, &Opts) -> Result<ExitCode, CliError>;

/// The commands that run a full bench and print its own report instead
/// of an experiment summary.
const BENCHES: &[(&str, Bench)] = &[
    ("explore", |name, o| {
        let r = run_explore_bench(&o.explore);
        if r.frontier_regressed() {
            eprintln!(
                "error: frontier_speedup {:.2} < 1.0 — the parallel frontier leg is slower than \
                 the unreduced baseline; CI fails the explore job on this (release artifact only)",
                r.frontier_speedup()
            );
        }
        emit(name, &r, || r.to_json(), r.verdicts_agree() && r.reduced.ok(), o.json.as_deref())
    }),
    ("faults", |name, o| {
        require(o.faults.n >= 3, "--n", o.faults.n, "must be at least 3")?;
        let r = run_faults_bench(&o.faults);
        emit(name, &r, || r.to_json(), r.ok(), o.json.as_deref())
    }),
    ("byzantine", |name, o| {
        require(o.byz.n >= 3, "--n", o.byz.n, "must be at least 3")?;
        let r = run_byzantine_bench(&o.byz);
        emit(name, &r, || r.to_json(), r.ok(), o.json.as_deref())
    }),
    ("scale", |name, o| {
        let r = run_scale_bench(&o.scale);
        emit(name, &r, || r.to_json(), r.ok(), o.json.as_deref())
    }),
    ("fuzz", |name, o| {
        require(o.fuzz.batch >= 1, "--batch", o.fuzz.batch, "must be at least 1")?;
        let extra = match &o.corpus {
            Some(dir) => load_seed_schedules(std::path::Path::new(dir)).map_err(io_err(dir))?,
            None => Vec::new(),
        };
        let r = run_fuzz_bench(&o.fuzz, &extra);
        let code = emit(name, &r, || r.to_json(), r.ok(), o.json.as_deref())?;
        if let Some(dir) = &o.witness_dir {
            write_witnesses(dir, &o.fuzz, &r)?;
        }
        Ok(code)
    }),
];

/// Rejects `value` for `flag` unless `ok` — before any run starts.
fn require(ok: bool, flag: &'static str, value: usize, reason: &str) -> Result<(), CliError> {
    let err = || CliError::BadValue { flag, value: value.to_string(), reason: reason.into() };
    ok.then_some(()).ok_or_else(err)
}

/// Rejects an experiment configuration outside `check_claim`'s range.
fn check_lab_config(c: &LabConfig) -> Result<(), CliError> {
    require(c.n >= 3, "--n", c.n, "must be at least 3")?;
    require(c.k >= 1 && 2 * c.k <= c.n, "--k", c.k, &format!("must be in 1..={}", c.n / 2))
}

fn run(command: &str, args: &[String]) -> Result<ExitCode, CliError> {
    let (o, positional) = parse(args)?;
    if command == "repro" {
        return repro_cli(&o, &positional);
    }
    if let Some(extra) = positional.first() {
        return Err(CliError::Usage(format!("unexpected argument {extra}")));
    }
    if let Some(&(name, bench)) = BENCHES.iter().find(|b| b.0 == command) {
        return bench(name, &o);
    }
    match command {
        "figure1" => {
            check_lab_config(&o.lab)?;
            print!("{}", render_figure1(&o.lab));
            Ok(ExitCode::SUCCESS)
        }
        "all" => experiments(&o, EXPERIMENT_IDS.to_vec()),
        id if EXPERIMENT_IDS.contains(&id) => experiments(&o, vec![id]),
        other => Err(CliError::Usage(format!(
            "unknown command {other}; expected one of {}",
            commands().join(", ")
        ))),
    }
}

/// Runs experiments by id, printing each report as it finishes.
fn experiments(o: &Opts, ids: Vec<&str>) -> Result<ExitCode, CliError> {
    check_lab_config(&o.lab)?;
    let reports: Vec<(ExperimentReport, Duration)> = ids
        .into_iter()
        .map(|id| {
            let t0 = Instant::now();
            let r = run_experiment(id, &o.lab);
            let wall = t0.elapsed();
            print!("{r}");
            (r, wall)
        })
        .collect();
    if let Some(path) = &o.json {
        write_file(path, &ExperimentReport::batch_to_json_pretty(&reports))?;
        println!("wrote {} report(s) to {path}", reports.len());
    }
    Ok(exit_code(reports.iter().all(|(r, _)| r.ok), "outcomes present"))
}

/// Writes one shrunk witness per workload — the first (deterministically
/// ordered) witness class found against it — in corpus format.
fn write_witnesses(
    dir: &str,
    cfg: &FuzzLabConfig,
    report: &sih_lab::FuzzBenchReport,
) -> Result<(), CliError> {
    std::fs::create_dir_all(dir).map_err(io_err(dir))?;
    let mut written: Vec<&str> = Vec::new();
    for w in &report.witnesses {
        if written.contains(&w.workload.as_str()) {
            continue;
        }
        written.push(&w.workload);
        let path = format!("{dir}/{}-fuzz.schedule", w.workload);
        let text = format!(
            "# Fuzzer-found negative witness for {} (`{}`).\n\
             # Recorded by: lab fuzz --seed {} --budget-schedules {} (auto-shrunk \
             {} -> {} choices)\n{}",
            w.workload,
            w.verdict,
            cfg.seed,
            cfg.budget_schedules,
            w.shrink.original_len,
            w.shrink.final_len,
            w.schedule.to_text()
        );
        write_file(&path, &text)?;
        println!("wrote witness {path} (`{}`)", w.verdict);
    }
    Ok(())
}

/// The `lab repro` verb: record, shrink, replay and verify counterexample
/// schedules (see `sih_lab::repro`).
fn repro_cli(o: &Opts, positional: &[String]) -> Result<ExitCode, CliError> {
    let Some((sub, rest)) = positional.split_first() else {
        return Err(CliError::Usage("repro needs a subcommand".into()));
    };
    let arg = |what: &str| {
        rest.first().ok_or_else(|| CliError::Usage(format!("repro {sub} needs {what}")))
    };
    let failed = |e: &dyn fmt::Display| {
        eprintln!("{e}");
        ExitCode::FAILURE
    };
    let load = |path: &str| -> Result<Schedule, CliError> {
        let text = std::fs::read_to_string(path).map_err(io_err(path))?;
        Schedule::parse(&text).map_err(io_err(path))
    };
    match sub.as_str() {
        "record" => {
            let name = o
                .workload
                .clone()
                .ok_or_else(|| CliError::Usage("repro record needs --workload".into()))?;
            let k = o.k.unwrap_or(1);
            let captured = match o.scan {
                Some(tries) => repro::record_first_violation(&name, k, tries),
                None => repro::record(&repro::RecordRequest {
                    workload: name.clone(),
                    n: o.n,
                    k,
                    seed: o.fuzz.seed,
                    max_steps: o.steps,
                }),
            };
            match captured {
                Ok(Some(s)) if o.shrink => match repro::shrink(&s) {
                    Ok((small, report)) => write_or_print(&small, Some(&report), &o.out),
                    Err(e) => Ok(failed(&format!("shrink: {e}"))),
                },
                Ok(Some(s)) => write_or_print(&s, None, &o.out),
                Ok(None) => Ok(failed(&format!("{name}: no violation captured (run was clean)"))),
                Err(e) => Ok(failed(&e)),
            }
        }
        "shrink" => match repro::shrink(&load(arg("a schedule file")?)?) {
            Ok((small, report)) => write_or_print(&small, Some(&report), &o.out),
            Err(e) => Ok(failed(&e)),
        },
        "replay" => {
            let path = arg("a schedule file")?;
            let s = load(path)?;
            let mode =
                if o.lenient { repro::ReplayMode::Lenient } else { repro::ReplayMode::Strict };
            match repro::replay(&s, mode) {
                Ok(rep) => {
                    println!(
                        "{}: recorded `{}`, replayed `{}` in {} step(s) — {}",
                        path,
                        s.verdict,
                        rep.verdict,
                        rep.executed.len(),
                        if rep.matches { "reproduced" } else { "STALE" }
                    );
                    Ok(if rep.matches { ExitCode::SUCCESS } else { ExitCode::FAILURE })
                }
                Err(e) => Ok(failed(&e)),
            }
        }
        "corpus" => {
            let dir = arg("a directory")?;
            let entries = repro::verify_corpus_dir(std::path::Path::new(dir), o.lab.threads)
                .map_err(io_err(dir))?;
            if entries.is_empty() {
                return Ok(failed(&format!("{dir}: no *.schedule files")));
            }
            for entry in &entries {
                println!("{entry}");
            }
            let fresh_ok = match &o.fresh {
                Some(fresh_dir) => record_fresh_corpus(fresh_dir)?,
                None => true,
            };
            Ok(exit_code(entries.iter().all(|e| e.ok) && fresh_ok, "corpus outcome"))
        }
        other => Err(CliError::Usage(format!("unknown repro subcommand {other}"))),
    }
}

/// Writes `schedule` to `--out` (or stdout), after the shrink summary
/// when it was shrunk.
fn write_or_print(
    schedule: &Schedule,
    shrunk: Option<&ShrinkReport>,
    out: &Option<String>,
) -> Result<ExitCode, CliError> {
    if let Some(r) = shrunk {
        eprintln!(
            "shrunk {} -> {} choices ({} candidates tried, {} accepted, {} rounds)",
            r.original_len, r.final_len, r.candidates_tried, r.candidates_accepted, r.rounds
        );
    }
    match out {
        Some(path) => {
            write_file(path, &schedule.to_text())?;
            println!(
                "wrote {path} ({} choices, verdict `{}`)",
                schedule.choices.len(),
                schedule.verdict
            );
        }
        None => print!("{}", schedule.to_text()),
    }
    Ok(ExitCode::SUCCESS)
}

/// Records and shrinks a fresh counterexample for every weakened workload
/// into `dir` — the CI artifact proving the pipeline still captures each
/// planted violation from scratch. Returns whether every capture worked.
fn record_fresh_corpus(dir: &str) -> Result<bool, CliError> {
    std::fs::create_dir_all(dir).map_err(io_err(dir))?;
    for w in repro::WORKLOADS.iter().filter(|w| !w.expect_ok) {
        let shrunk = match repro::record_first_violation(w.name, 1, 64) {
            Ok(Some(s)) => repro::shrink(&s).map_err(|e| format!("shrink: {e}")),
            Ok(None) => Err("planted violation NOT captured in 64 seeds".to_string()),
            Err(e) => Err(e.to_string()),
        };
        let (small, report) = match shrunk {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                return Ok(false);
            }
        };
        let path = format!("{dir}/{}.schedule", w.name);
        write_file(&path, &small.to_text())?;
        println!(
            "fresh {}: `{}` shrunk {} -> {} choices",
            path, small.verdict, report.original_len, report.final_len
        );
    }
    Ok(true)
}
