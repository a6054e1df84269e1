//! End-to-end and per-layer benchmark of the ImDiffusion workspace.
//!
//! ```sh
//! cargo run --release --offline --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload serve_imdiff --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Workloads: `serve_imdiff`, `serve_fanin`, `detect_offline`, `train`,
//! or `all` (each in its own child process, one table). The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A correctness-gate mismatch exits
//! with code 1. See README.md for what each workload stresses.

mod common;
mod offline;
mod serve;
mod trace;

use std::process::{Command, ExitCode, Stdio};

use common::{parse_args, Args, Outcome};

const WORKLOADS: [&str; 4] = ["serve_imdiff", "serve_fanin", "detect_offline", "train"];

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "serve_imdiff" => serve::serve_imdiff(args.seed, args.seconds, args.trace),
        "serve_fanin" => serve::serve_fanin(args.seed, args.seconds, args.trace),
        "detect_offline" => offline::detect_offline(args.seed, args.seconds, args.trace),
        "train" => offline::train(args.seed, args.seconds, args.trace),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?} or all"
        )),
    }
}

/// `--workload all`: runs every workload in a child process of its own
/// (peak RSS is per process) and prints their results one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut status = ExitCode::SUCCESS;
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        match out {
            Ok(o) => {
                let text = String::from_utf8_lossy(&o.stdout);
                println!("{w}: {}", text.lines().last().unwrap_or(""));
                if !o.status.success() {
                    status = ExitCode::from(1);
                }
            }
            Err(e) => {
                eprintln!("{w}: cannot run: {e}");
                status = ExitCode::from(2);
            }
        }
    }
    status
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    // Tracing is switched on per segment by the traced run itself.
    imdiff_nn::obs::set_enabled(false);
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_e2e: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    eprint!("{}", outcome.report(&args.workload));
    if args.trace {
        match trace::write_out(&args.workload, args.seed, &outcome.metrics) {
            Ok(p) => eprintln!("  trace written to {}", p.display()),
            Err(e) => eprintln!("  cannot write trace: {e}"),
        }
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_e2e: {}: correctness gate failed", args.workload);
        ExitCode::from(1)
    }
}
