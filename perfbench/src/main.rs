//! Runs one benchmark workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints every metric by name and unit, then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. The run record
//! (and the spans of a traced run) are written to `perfbench/runs/`.
//! Exits 1 when any output check failed and 2 on a usage error.

use sih_perfbench::{run, Args};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match Args::parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <explore|fuzz|scale|claims> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args, &argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let kind = if args.trace { "per-layer (traced run)" } else { "end-to-end" };
    println!("[{}] seed {} — {kind} metrics:", args.workload, args.seed);
    for m in &outcome.metrics {
        let note = if outcome.not_exercised.contains(&m.name) {
            "  (not exercised by this workload)"
        } else {
            ""
        };
        println!("  {:<30} {:>18.6} {}{note}", m.name, m.value, m.unit);
    }
    let g = &outcome.gate;
    println!(
        "  {:<30} {:>18.6} share ({} of {} checks failed)",
        "ops_failed_share",
        g.failed as f64 / g.attempted.max(1) as f64,
        g.failed,
        g.attempted
    );
    for f in &g.failures {
        println!("  FAILED: {f}");
    }

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("runs");
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let mut files = vec![(format!("{stem}.json"), outcome.record.to_string_pretty())];
    if let Some(spans) = &outcome.spans {
        files.push((format!("{stem}.spans.json"), spans.to_string_compact()));
    }
    for (name, text) in files {
        let path = dir.join(name);
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
            Ok(()) => println!("  record: {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    println!("{}", outcome.result_line());
    if g.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
