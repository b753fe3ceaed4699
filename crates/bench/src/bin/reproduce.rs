//! Reproduces the paper: runs the whole campaign once and writes every
//! tracked file under `results/`, the reproduction report included, plus
//! the gitignored Chrome trace `results/obs_trace.json`.
//!
//! ```text
//! cargo run -p bench --release --offline --bin reproduce
//! ```
//!
//! Takes no arguments. Exits non-zero if a checked claim fails or any
//! file cannot be written, so a stale tracked file never survives a
//! regeneration silently. Set `OBS=1` for a line per written file.

use std::process::ExitCode;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: reproduce (takes no arguments)");
        return ExitCode::from(2);
    }
    let run = bench::reproduce::run();
    let artifacts = run
        .tracked
        .iter()
        .map(|(name, contents)| (*name, contents.as_str()))
        .chain([("obs_trace.json", run.trace.as_str())]);
    let written = bench::results_dir().and_then(|dir| {
        artifacts
            .map(|(name, contents)| bench::write_result_in(&dir, name, contents))
            .collect::<std::io::Result<Vec<_>>>()
    });
    match written {
        Ok(paths) => {
            for path in paths {
                rt::obs::log::info("bench", format!("wrote {}", path.display()));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("reproduce: could not write results: {e}");
            ExitCode::FAILURE
        }
    }
}
