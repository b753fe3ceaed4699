//! # bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation through
//! one binary, `reproduce`: it runs [`reproduce::run`] and writes each
//! tracked artifact under `results/` at the workspace root (the CSVs,
//! the Fig. 2 VCD, the test-program listing, `metrics.json` and
//! `REPRODUCTION_REPORT.md`, which carries every printed table), plus the
//! gitignored Chrome trace of the instrumented [`obs_pipeline`]. Two more
//! binaries stay separate: `netlist_campaign` runs the gate-level campaign
//! on user-supplied Verilog files, and `bitpar_speedup` prints
//! machine-dependent timing that is never tracked.
//!
//! Tables render through [`report::markdown_table`], CSVs through
//! [`Csv`], and progress goes to the `OBS`-gated [`rt::obs::log`] logger
//! (silent by default).
//!
//! # Examples
//!
//! ```
//! use bench::Csv;
//!
//! let mut csv = Csv::new(&["fault", "detected"]);
//! csv.row(&["cap_short", "yes"]);
//! assert_eq!(csv.as_str(), "fault,detected\ncap_short,yes\n");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory (workspace-relative) where binaries drop their CSVs.
pub const RESULTS_DIR: &str = "results";

/// Resolves the results directory next to the workspace `Cargo.toml`,
/// creating it if needed.
///
/// # Errors
///
/// Returns any I/O error from directory creation.
pub fn results_dir() -> io::Result<PathBuf> {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf();
    let dir = root.join(RESULTS_DIR);
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes `contents` to `<dir>/<name>` and returns the full path.
///
/// # Errors
///
/// Returns any I/O error from the write, including a missing `dir`.
pub fn write_result_in(dir: &Path, name: &str, contents: &str) -> io::Result<PathBuf> {
    let path = dir.join(name);
    fs::write(&path, contents)?;
    Ok(path)
}

/// Writes `contents` to `results/<name>` and returns the full path.
///
/// # Errors
///
/// Returns any I/O error from creating `results/` or from the write.
pub fn write_result(name: &str, contents: &str) -> io::Result<PathBuf> {
    write_result_in(&results_dir()?, name, contents)
}

/// An incrementally built CSV document: a fixed header row, then one
/// [`Csv::row`] call per record. Cells are pre-formatted strings joined
/// with commas — byte-identical to the `format!`-string concatenation
/// the bench binaries previously hand-rolled, so tracked CSVs do not
/// change under the shared helper.
#[derive(Debug, Clone)]
pub struct Csv {
    buf: String,
    columns: usize,
}

impl Csv {
    /// Starts a document with the given header columns.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new(header: &[&str]) -> Csv {
        assert!(!header.is_empty(), "a CSV needs at least one column");
        let mut buf = header.join(",");
        buf.push('\n');
        Csv {
            buf,
            columns: header.len(),
        }
    }

    /// Appends one record.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header width.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) {
        assert_eq!(
            cells.len(),
            self.columns,
            "row width {} != header width {}",
            cells.len(),
            self.columns
        );
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(cell.as_ref());
        }
        self.buf.push('\n');
    }

    /// The document so far.
    pub fn as_str(&self) -> &str {
        &self.buf
    }
}

pub mod report;
pub mod reproduce;

pub mod obs_pipeline {
    //! The shared instrumented pipeline: the stuck-at campaigns over scan
    //! chains A and B, one behavioral fault campaign, one healthy-link
    //! BIST execution and one fuzz smoke run, all under a single
    //! [`rt::obs::observe`] capture.
    //!
    //! The captured [`Metrics`] are **deterministic**: every value is a
    //! function of the fixed seeds and netlists only, and the merge path
    //! through `rt::par` makes the registry byte-identical at any worker
    //! count — asserted by the tests in this crate and snapshotted to the
    //! tracked `results/metrics.json` by the `reproduce` binary. The
    //! captured span events are wall-clock and go only to the gitignored
    //! Chrome trace. The behavioral campaign runs at the paper's design
    //! point, and [`ObsRun::campaign`] hands its result on, so a
    //! reproduction run simulates that campaign exactly once.

    use conform::fuzz::{fuzz, FuzzConfig};
    use dft::bist::Bist;
    use dft::campaign::{CampaignResult, FaultCampaign, NetlistCampaign, UniverseSel};
    use dft::chain_a::ChainA;
    use dft::chain_b::ChainB;
    use dsim::atpg::random_vectors;
    use msim::effects::AnalogEffect;
    use msim::params::DesignParams;
    use rt::obs::{Metrics, SpanEvent};

    /// Everything one instrumented pipeline run produced.
    #[derive(Debug)]
    pub struct ObsRun {
        /// The deterministic metrics captured across the whole pipeline.
        pub metrics: Metrics,
        /// Wall-clock span events (non-deterministic; trace file only).
        pub events: Vec<SpanEvent>,
        /// Stuck-at records of the scan-chain campaigns, chains A and B
        /// together (sanity anchor: the paper claims every one detected).
        pub digital_records: usize,
        /// The behavioral fault campaign at the paper's design point.
        pub campaign: CampaignResult,
        /// Fuzz mutants accepted (sanity anchor).
        pub fuzz_accepted: usize,
    }

    /// Runs the full instrumented pipeline on `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn instrumented_run(threads: usize) -> ObsRun {
        rt::obs::pin_epoch();
        let p = DesignParams::paper();
        let ((digital_records, campaign, fuzz_accepted), metrics, events) =
            rt::obs::observe(|| {
                let digital: usize = {
                    let _span = rt::obs::span("pipeline.digital_campaign");
                    [
                        ("chain_a", ChainA::new().circuit().clone(), 37),
                        ("chain_b", ChainB::new(4).circuit().clone(), 29),
                    ]
                    .into_iter()
                    .map(|(name, circuit, seed)| {
                        NetlistCampaign::configured(name, circuit, UniverseSel::StuckAt, 256, seed)
                            .expect("scan chains are acyclic")
                            .run_on(threads)
                            .records
                            .len()
                    })
                    .sum()
                };
                let analog = {
                    let _span = rt::obs::span("pipeline.fault_campaign");
                    FaultCampaign::new(&p).run_on(threads)
                };
                {
                    let _span = rt::obs::span("pipeline.bist_healthy");
                    let verdict = Bist::new(&p).execute(&AnalogEffect::None);
                    assert!(verdict.pass(), "healthy link failed BIST");
                }
                {
                    // A small scalar-reference pass so the scalar
                    // simulator's counters (eval relaxation, scan-shift
                    // bits) appear in the snapshot alongside the packed
                    // kernel's — the rest of the pipeline went
                    // bit-parallel in the PPSFP rework.
                    let _span = rt::obs::span("pipeline.scalar_reference");
                    let divider = dsim::blocks::divider::Divider::new(3);
                    let vectors = random_vectors(divider.circuit(), 16, 43);
                    let cov = dsim::stuck_at::scan_coverage_scalar(divider.circuit(), &vectors);
                    rt::obs::count("pipeline.scalar.faults_detected", cov.detected() as u64);
                    let chain = ChainB::new(4);
                    let mut state = dsim::circuit::SimState::for_circuit(chain.circuit());
                    let intact = dsim::scan::chain_continuity(chain.circuit(), &mut state);
                    rt::obs::count("pipeline.scan_chain_intact", u64::from(intact));
                }
                let report = {
                    let _span = rt::obs::span("pipeline.fuzz_smoke");
                    let chain = ChainB::new(4);
                    let baseline = random_vectors(chain.circuit(), 4, 41);
                    fuzz(chain.circuit(), &baseline, &FuzzConfig::smoke(0xC0FFEE))
                };
                (digital, analog, report.accepted)
            });
        ObsRun {
            metrics,
            events,
            digital_records,
            campaign,
            fuzz_accepted,
        }
    }

    /// The pipeline's deterministic metrics as the canonical JSON
    /// snapshot (the exact bytes of the tracked `results/metrics.json`).
    pub fn metrics_json(threads: usize) -> String {
        instrumented_run(threads).metrics.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_created() {
        let d = results_dir().unwrap();
        assert!(d.ends_with(RESULTS_DIR));
        assert!(d.exists());
    }

    /// A fresh, empty scratch directory for one test.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bench-{test}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_result_roundtrip() {
        let dir = scratch_dir("roundtrip");
        let p = write_result_in(&dir, "selftest.txt", "hello\n").unwrap();
        assert_eq!(fs::read_to_string(&p).unwrap(), "hello\n");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn write_into_missing_directory_fails() {
        // A failed write must surface as an error, never be swallowed:
        // the stale tracked file would otherwise survive a regeneration.
        let dir = scratch_dir("missing");
        let missing = dir.join("no-such-dir");
        assert!(write_result_in(&missing, "x.txt", "x").is_err());
        assert!(!missing.exists());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn csv_builder_matches_hand_rolled_format() {
        // The helper must be byte-identical to the format!-string
        // concatenation it replaced, or every tracked CSV would churn.
        let mut csv = Csv::new(&["chain", "faults", "speedup"]);
        csv.row(&[
            "chain-b".to_string(),
            612.to_string(),
            format!("{:.2}", 9.5),
        ]);
        let hand_rolled = format!("chain,faults,speedup\n{},{},{:.2}\n", "chain-b", 612, 9.5);
        assert_eq!(csv.as_str(), hand_rolled);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn csv_rejects_ragged_rows() {
        let mut csv = Csv::new(&["a", "b"]);
        csv.row(&["only-one"]);
    }

    #[test]
    fn metrics_snapshot_is_thread_count_invariant() {
        // The acceptance bar: the tracked metrics snapshot is
        // byte-identical at 1, 2, 4 and 7 workers.
        let reference = obs_pipeline::metrics_json(1);
        for threads in [2usize, 4, 7] {
            assert_eq!(
                obs_pipeline::metrics_json(threads),
                reference,
                "metrics snapshot diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn pipeline_captures_the_instrumented_subsystems() {
        let run = obs_pipeline::instrumented_run(2);
        let m = &run.metrics;
        // One representative key per instrumented layer; zero would mean
        // a layer silently went dark.
        for counter in [
            "dsim.eval.calls",
            "dsim.scan.shift_bits",
            "dsim.packed.eval_calls",
            "dsim.ppsfp.blocks",
            "campaign.fault.simulated",
            "campaign.netlist.chain_a.stuck_at.faults",
            "bist.executions",
            "fuzz.executions",
        ] {
            assert!(
                m.counter(counter).unwrap_or(0) > 0,
                "counter {counter} missing or zero"
            );
        }
        assert!(m.histogram("dsim.ppsfp.dropped_per_block").is_some());
        assert!(m.histogram("bist.lock_cycles").unwrap().count() > 0);
        assert_eq!(
            m.counter("campaign.fault.simulated"),
            Some(run.campaign.total() as u64)
        );
        assert!(run.digital_records > 0 && run.fuzz_accepted > 0);
        // Every scan-chain stuck-at record is detected (the paper's 100 %).
        let detected: u64 = ["chain_a", "chain_b"]
            .iter()
            .map(|chain| {
                let key = |k: &str| m.counter(&format!("campaign.netlist.{chain}.stuck_at.{k}"));
                assert_eq!(key("detected"), key("faults"), "{chain}");
                key("detected").unwrap_or(0)
            })
            .sum();
        assert_eq!(detected, run.digital_records as u64);
        // Wall-clock spans exist but never enter the metrics registry.
        assert!(run
            .events
            .iter()
            .any(|e| e.name == "pipeline.fault_campaign"));
        assert!(run.events.iter().any(|e| e.name == "dsim.ppsfp"));
    }
}
