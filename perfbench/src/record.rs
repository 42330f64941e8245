//! The self-describing record of one run: what ran, on what source, with
//! which inputs, and every deterministic counter it produced. Records hold
//! no timings: each counter depends only on the source, the workload and
//! the seed, so a drifting counter shows in a diff. (How many jobs a run
//! fits in, and so the check tally, depends on the machine.)

use crate::{Args, Gate};
use sih_lab::json::{ObjectBuilder, Value};
use sih_runtime::Fnv64;
use std::path::{Path, PathBuf};

/// Record format tag.
pub const SCHEMA: &str = "sih-perfbench-run v1";

/// Builds the record of one run.
pub(crate) fn run_record(
    root: &Path,
    args: &Args,
    argv: &[String],
    workers: usize,
    seeded: bool,
    counters: Value,
    gate: &Gate,
) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    ObjectBuilder::new()
        .field("schema", SCHEMA)
        .field("argv", argv.iter().map(|a| Value::from(a.as_str())).collect::<Vec<_>>())
        .field("workload", args.workload.as_str())
        .field("seed", args.seed)
        .field("seed_used", seeded)
        .field("trace", args.trace)
        .field("size", format!("{:?}", args.size).to_lowercase())
        .field("git_rev", git_rev(root).unwrap_or_else(|| "none (not a git checkout)".into()))
        .field("source_digest", hex(source_digest(root)))
        .field("corpus_digest", hex(corpus_digest(root)))
        .field("build_profile", if cfg!(debug_assertions) { "debug" } else { "release" })
        .field("workers", workers)
        .field("nproc", nproc)
        .field("counters", counters)
        .field("checks_attempted", gate.attempted)
        .field("checks_failed", gate.failed)
        .field("ops_failed_share", gate.failed as f64 / gate.attempted.max(1) as f64)
        .field(
            "failures",
            gate.failures.iter().map(|f| Value::from(f.as_str())).collect::<Vec<_>>(),
        )
        .build()
}

fn hex(x: u64) -> String {
    format!("{x:016x}")
}

/// The commit `HEAD` names, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// FNV-1a/64 over the sorted relative paths and contents of `files`.
fn digest_files(root: &Path, mut files: Vec<PathBuf>) -> u64 {
    files.sort();
    let mut h = Fnv64::new();
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f);
        h.write(rel.to_string_lossy().as_bytes());
        h.write_u8(0);
        h.write(&std::fs::read(&f).unwrap_or_default());
        h.write_u8(0);
    }
    h.finish()
}

/// Every regular file under `dir` whose name satisfies `keep`.
fn walk(dir: &Path, keep: &dyn Fn(&Path) -> bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let path = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => walk(&path, keep, out),
            Ok(t) if t.is_file() && keep(&path) => out.push(path),
            _ => {}
        }
    }
}

/// Digest of the library source the benchmark measures: the root
/// manifest and lock file and every `.rs`/`Cargo.toml` under `crates/`
/// and `vendor/`.
pub fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    let rust = |p: &Path| p.extension().is_some_and(|x| x == "rs") || p.ends_with("Cargo.toml");
    walk(&root.join("crates"), &rust, &mut files);
    walk(&root.join("vendor"), &rust, &mut files);
    digest_files(root, files)
}

/// Digest of the committed schedule corpus (`tests/corpus/*.schedule`).
pub fn corpus_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    walk(
        &root.join("tests/corpus"),
        &|p| p.extension().is_some_and(|x| x == "schedule"),
        &mut files,
    );
    digest_files(root, files)
}
