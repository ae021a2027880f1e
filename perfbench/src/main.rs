//! `evofd-perfbench`: the benchmark of the live FD engine.
//!
//! ```text
//! evofd-perfbench --workload <ingest|designer|read_mix> --seed N --seconds S --trace <0|1>
//!                 [--revision REV]
//! ```
//!
//! Untraced (`--trace 0`) runs serve a durable engine over TCP in-process
//! and drive the named workload through real client sessions, printing
//! the end-to-end metrics. Traced runs (`--trace 1`) replay the same
//! seeded statements in-process and time each layer's public call,
//! printing the per-layer metrics. The last line of standard output is
//! the JSON result; the exit code is non-zero when an output check fails.

mod designer;
mod harness;
mod places;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

use harness::Workload;

/// Where runs keep their data directories, relative to the repository
/// root the benchmark runs from.
const WORK_DIR: &str = ".perfbench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    revision: String,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<&str> {
        raw.iter().position(|a| a == name).and_then(|i| raw.get(i + 1)).map(String::as_str)
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = get("--seed").unwrap_or("1");
    let seed = seed.parse::<u64>().map_err(|e| format!("--seed {seed}: {e}"))?;
    let seconds = get("--seconds").unwrap_or("10");
    let seconds = match seconds.parse::<f64>() {
        Ok(s) if s.is_finite() && s > 0.0 && s <= 3600.0 => s,
        _ => return Err(format!("--seconds {seconds}: expected a number of seconds in (0, 3600]")),
    };
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let revision = get("--revision").unwrap_or("unknown").to_string();
    Ok(Args { workload, seed, seconds, trace, revision })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("evofd-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root =
        PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload.name(), std::process::id()));
    let code = if args.trace { traced(&args, &root) } else { untraced(&args, &root) };
    let _ = std::fs::remove_dir_all(&root);
    // Only succeeds when no other run is using it.
    let _ = std::fs::remove_dir(WORK_DIR);
    std::process::exit(code);
}

/// Print a run's failure notes and its result line; the exit code.
fn finish(metrics: &stats::Metrics, tally: &harness::Tally) -> i32 {
    for note in &tally.notes {
        println!("  failure: {note}");
    }
    print!("{}", metrics.render());
    let correct = tally.failed == 0;
    println!("{}", metrics.result_line(correct, tally.attempted.max(1), tally.failed));
    if correct {
        0
    } else {
        1
    }
}

fn untraced(args: &Args, root: &std::path::Path) -> i32 {
    let outcome = match workloads::run(args.workload, args.seed, args.seconds, root) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("evofd-perfbench: {} run failed: {e}", args.workload.name());
            return 1;
        }
    };
    let tally = &outcome.tally;
    println!(
        "workload {} seed {} seconds {}: {} statements, {} failed",
        args.workload.name(),
        args.seed,
        args.seconds,
        tally.attempted,
        tally.failed
    );
    for (phase, secs) in &outcome.phases {
        println!("  phase {phase:<18} {secs:>8.3} s");
    }
    for (shape, samples) in &tally.shapes {
        println!(
            "  shape {shape:<12} n={:<6} p50 {:>10.1} us  p95 {:>10.1} us",
            samples.len(),
            stats::quantile(samples, 0.5),
            stats::quantile(samples, 0.95)
        );
    }
    finish(&outcome.metrics, tally)
}

fn traced(args: &Args, root: &std::path::Path) -> i32 {
    match trace::run(args.workload, args.seed, args.seconds, root, &args.revision) {
        Ok((metrics, tally, report)) => {
            for line in report {
                println!("{line}");
            }
            finish(&metrics, &tally)
        }
        Err(e) => {
            eprintln!("evofd-perfbench: traced {} run failed: {e}", args.workload.name());
            1
        }
    }
}
