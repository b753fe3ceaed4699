//! Benchmark harness for the low-swing interconnect DFT workspace.
//!
//! Three workloads, each measured from outside the program by timing
//! calls into the layers' public functions:
//!
//! * `fault_campaign` — the paper's 603-fault behavioural campaign
//!   (`FaultCampaign::run_on`), mostly BIST lock acquisition;
//! * `link_farm` — the tracked 1296-cell link-farm grid
//!   (`LinkFarm::run`), channel/eye work plus `rt::exec` sharding;
//! * `serve_mixed` — an in-process job server driven by closed-loop
//!   clients over loopback with a seeded cold/warm request mix.
//!
//! With `--trace 0` a run prints the end-to-end metrics; with
//! `--trace 1` it decomposes the same work layer by layer and prints
//! the per-layer metrics. Every run checks the simulated outputs byte
//! for byte; a mismatch counts as a failed operation.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --expected <dir> --work-dir <dir> [--root <dir>] [--corrupt-expectations]
//! ```
//!
//! The last line of standard output is `RESULT <json>`; everything a
//! human reads goes to standard error.

mod campaign;
mod common;
mod farm;
mod serve_mixed;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Ctx, Expectations};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload fault_campaign|link_farm|serve_mixed --seed N \
         --seconds S --trace 0|1 --expected DIR --work-dir DIR [--root DIR] \
         [--corrupt-expectations]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut expected = None;
    let mut work_dir = None;
    let mut root = PathBuf::from(".");
    let mut corrupt = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--corrupt-expectations" {
            corrupt = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--expected" => expected = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--root" => root = PathBuf::from(value),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(expected), Some(work_dir)) =
        (workload, seed, seconds, trace, expected, work_dir)
    else {
        return usage();
    };
    let expect = match Expectations::load(&expected, &root, corrupt) {
        Ok(expect) => expect,
        Err(e) => {
            eprintln!("perfbench: cannot load expectations: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    rt::obs::pin_epoch();
    let ctx = Ctx {
        workload: workload.clone(),
        seed,
        seconds,
        trace,
        threads: rt::par::threads(),
        expect,
        work_dir,
    };
    eprintln!(
        "perfbench: workload={workload} seed={seed} seconds={seconds} trace={} threads={}",
        u8::from(trace),
        ctx.threads
    );
    let report = match workload.as_str() {
        "fault_campaign" => campaign::run(&ctx),
        "link_farm" => farm::run(&ctx),
        "serve_mixed" => serve_mixed::run(&ctx),
        _ => return usage(),
    };
    println!("RESULT {}", report.to_json());
    ExitCode::SUCCESS
}
