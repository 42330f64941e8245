//! The repository benchmark: four workloads (`explore`, `fuzz`, `scale`,
//! `claims`) timed from outside the library crates, through their public
//! functions only.
//!
//! One invocation runs one workload. It repeats the workload's job back
//! to back for the requested number of seconds, sets up again several
//! times spread over that span (the median is `setup_s`), and reports
//! medians. Every job's output goes through an output gate: wrong
//! verdicts, miscounted messages and counters that differ between
//! repetitions or worker counts are counted as failed checks. With
//! `--trace 1` the same invocation also runs traced passes and reports
//! per-layer metrics instead of end-to-end ones.
//!
//! The metric names and units every workload must print are read from
//! `BENCHMARK.json` at the repository root; a workload that emits a
//! different set is a bug in the benchmark and stops the run.

#![forbid(unsafe_code)]

mod claims;
mod explore;
mod fuzz;
pub mod record;
mod scale;
pub mod trace;

use sih_lab::json::{self, ObjectBuilder, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["explore", "fuzz", "scale", "claims"];

/// Input sizes: `Full` is what the benchmark measures; `Tiny` is the
/// benchmark's own smoke test, which runs every code path in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// Smallest sizes that still exercise every check and metric.
    Tiny,
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed (fuzz: mutation seed; scale: op scripts).
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Input size: always `Full` from the command line; the benchmark's
    /// own test sets `Tiny`.
    pub size: Size,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
    /// at the full size.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    if !WORKLOADS.contains(&value.as_str()) {
                        return Err(format!(
                            "unknown workload {value:?} (expected one of {WORKLOADS:?})"
                        ));
                    }
                    workload = Some(value.clone());
                }
                "--seed" => {
                    seed = Some(value.parse().map_err(|e| format!("--seed {value:?}: {e}"))?)
                }
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(format!(
                            "--seconds must be a non-negative number, got {value}"
                        ));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    }
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            size: Size::Full,
        })
    }
}

/// Everything a workload needs to run.
pub(crate) struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub root: PathBuf,
}

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: String,
}

/// The output gate: every check a run makes, and which ones failed.
#[derive(Debug, Default)]
pub struct Gate {
    /// Checks made.
    pub attempted: u64,
    /// Checks whose verdict was wrong or unknown.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Gate {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Checks that a job's deterministic counters equal the first job's.
    pub fn same<T: PartialEq + std::fmt::Debug>(&mut self, first: &T, now: &T, what: &str) {
        self.check(first == now, || format!("{what}: {now:?} differs from {first:?}"));
    }
}

/// What one workload run produced.
pub(crate) struct WorkloadOut {
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Deterministic counters for the run record.
    pub counters: Value,
    /// Workers the job ran on.
    pub workers: usize,
    /// Whether the workload's inputs depend on `--seed`.
    pub seeded: bool,
}

/// The result of [`run`]: the final JSON line plus the run record.
pub struct Outcome {
    /// Metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// The output gate.
    pub gate: Gate,
    /// The self-describing run record.
    pub record: Value,
    /// In-memory spans of a traced run.
    pub spans: Option<Value>,
    /// Declared per-layer metrics this workload does not exercise
    /// (reported as 0).
    pub not_exercised: Vec<String>,
}

impl Outcome {
    /// The required last line of standard output.
    pub fn result_line(&self) -> String {
        let mut metrics = ObjectBuilder::new();
        for m in &self.metrics {
            metrics = metrics.field(
                &m.name,
                ObjectBuilder::new().field("value", m.value).field("unit", m.unit.as_str()).build(),
            );
        }
        ObjectBuilder::new()
            .field("correct", self.gate.failed == 0)
            .field("attempted", self.gate.attempted)
            .field("failed", self.gate.failed)
            .field("metrics", metrics.build())
            .build()
            .to_string_compact()
    }
}

/// The repository root: the benchmark package's parent directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
        .to_path_buf()
}

/// The `(name, unit)` pairs `BENCHMARK.json` lists under `section`.
pub fn declared_metrics(root: &Path, section: &str) -> Result<Vec<(String, String)>, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Value::Array(items) = doc.get(section) else {
        return Err(format!("BENCHMARK.json has no {section} list"));
    };
    items
        .iter()
        .map(|m| match (m.get("name").as_str(), m.get("unit").as_str()) {
            (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
            _ => Err(format!("BENCHMARK.json {section} entry without name/unit: {m}")),
        })
        .collect()
}

/// Runs one workload and gates its output.
pub fn run(args: &Args, argv: &[String]) -> Result<Outcome, String> {
    let root = repo_root();
    let section = if args.trace { "per_layer" } else { "end_to_end" };
    let declared = declared_metrics(&root, section)?;
    let ctx =
        Ctx { seed: args.seed, seconds: args.seconds, trace: args.trace, size: args.size, root };
    let mut gate = Gate::default();
    let mut tracer = trace::Tracer::new();
    let out = match args.workload.as_str() {
        "explore" => explore::run(&ctx, &mut gate, &mut tracer),
        "fuzz" => fuzz::run(&ctx, &mut gate, &mut tracer),
        "scale" => scale::run(&ctx, &mut gate, &mut tracer),
        "claims" => claims::run(&ctx, &mut gate, &mut tracer),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let (metrics, not_exercised) = order_as_declared(out.metrics, &declared, args.trace)?;
    let record =
        record::run_record(&ctx.root, args, argv, out.workers, out.seeded, out.counters, &gate);
    let spans = args.trace.then(|| tracer.to_json());
    Ok(Outcome { metrics, gate, record, spans, not_exercised })
}

/// Puts `metrics` in the declared order, failing on any extra or
/// wrong-unit metric. A missing end-to-end metric is an error; a
/// missing per-layer metric (`fill_missing`) is a layer the workload
/// does not exercise, reported as 0 and returned in the second list.
fn order_as_declared(
    metrics: Vec<Metric>,
    declared: &[(String, String)],
    fill_missing: bool,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let mut out = Vec::with_capacity(declared.len());
    let mut missing = Vec::new();
    for (name, unit) in declared {
        let Some(m) = metrics.iter().find(|m| &m.name == name) else {
            if !fill_missing {
                return Err(format!("workload did not emit declared metric {name}"));
            }
            missing.push(name.clone());
            out.push(metric(name, 0.0, unit));
            continue;
        };
        if &m.unit != unit {
            return Err(format!("metric {name} emitted in {} but declared in {unit}", m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", m.value));
        }
        out.push(m.clone());
    }
    if let Some(extra) = metrics.iter().find(|m| !declared.iter().any(|(n, _)| n == &m.name)) {
        return Err(format!("workload emitted undeclared metric {}", extra.name));
    }
    Ok((out, missing))
}

/// Builds a metric.
pub(crate) fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric { name: name.to_string(), value, unit: unit.to_string() }
}

/// Set-ups per run; their median is `setup_s`.
const SETUP_REPS: usize = 11;

/// What [`measure`] measured.
pub(crate) struct Measured<T> {
    /// Median set-up wall, s.
    pub setup_s: f64,
    /// Each timed job's wall, s.
    pub walls: Vec<f64>,
    /// Peak resident set right after the timed jobs, before any
    /// gate-only rerun, MiB.
    pub peak_rss_mib: f64,
    /// The last set-up's result.
    pub prepared: T,
}

/// Runs `f` and returns its wall in seconds with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = std::hint::black_box(f());
    (t0.elapsed().as_secs_f64(), r)
}

/// Sets up with `prepare`, then repeats `job` on the prepared input until
/// `seconds` have passed and it ran at least `min` times.
///
/// `prepare` runs [`SETUP_REPS`] times in all: once before the first job
/// and then between jobs, spread evenly over the run (any left over run
/// at the end), so one slow stretch of the host cannot move the median.
/// Each set-up's result replaces the previous one.
pub(crate) fn measure<T>(
    seconds: f64,
    min: usize,
    gate: &mut Gate,
    mut prepare: impl FnMut(&mut Gate) -> T,
    mut job: impl FnMut(&T, &mut Gate),
) -> Measured<T> {
    let start = Instant::now();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let (s, mut prepared) = timed(|| prepare(gate));
    setups.push(s);
    let mut walls = Vec::new();
    while walls.len() < min || start.elapsed().as_secs_f64() < seconds {
        let (wall, ()) = timed(|| job(&prepared, gate));
        walls.push(wall);
        let due = seconds * setups.len() as f64 / SETUP_REPS as f64;
        if setups.len() < SETUP_REPS && start.elapsed().as_secs_f64() >= due {
            let (s, p) = timed(|| prepare(gate));
            setups.push(s);
            prepared = p;
        }
    }
    let peak_rss_mib = peak_rss_mib();
    while setups.len() < SETUP_REPS {
        let (s, p) = timed(|| prepare(gate));
        setups.push(s);
        prepared = p;
    }
    Measured { setup_s: median(&mut setups), walls, peak_rss_mib, prepared }
}

/// Repeats `job` until `seconds` have passed and it ran at least `min`
/// times; returns each job's wall in seconds.
pub(crate) fn repeat(seconds: f64, min: usize, mut job: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min || start.elapsed().as_secs_f64() < seconds {
        let (wall, ()) = timed(&mut job);
        walls.push(wall);
    }
    walls
}

/// Median of `xs` (sorts in place); 0 for an empty slice.
pub(crate) fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0..=1) of `xs` (sorts in place); 0 for
/// an empty slice.
pub(crate) fn percentile(xs: &mut [u64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1] as f64
}

/// Mean of `xs`; 0 for an empty slice.
pub(crate) fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<u64>() as f64 / xs.len() as f64
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB; 0 where
/// `/proc` is unavailable.
fn peak_rss_mib() -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status").ok().and_then(|s| {
        s.lines().find(|l| l.starts_with("VmHWM:"))?.split_whitespace().nth(1)?.parse::<u64>().ok()
    });
    kib.map_or(0.0, |k| k as f64 / 1024.0)
}

/// Nanoseconds elapsed since `t0`.
pub(crate) fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// The four end-to-end metrics every workload reports.
pub(crate) fn end_to_end<T>(m: &Measured<T>, wall_s: f64, work_per_s: f64) -> Vec<Metric> {
    vec![
        metric("setup_s", m.setup_s, "s"),
        metric("wall_s", wall_s, "s"),
        metric("work_per_s", work_per_s, "1/s"),
        metric("peak_rss_mib", m.peak_rss_mib, "MiB"),
    ]
}
