//! # conform — differential-oracle conformance subsystem
//!
//! The paper's coverage claims rest on two independently implemented
//! abstraction levels agreeing: the behavioral `link`/`msim` models and
//! the gate-level `dsim` netlists. This crate turns that agreement into
//! systematically checked machinery:
//!
//! * [`oracle`] — the [`oracle::DiffOracle`] trait plus implementations
//!   that cross-check scan-protocol vs functional simulation, logic-sim
//!   vs transition-sim, the behavioral synchronizer vs a gate-level
//!   chain-B replay, and the whole fault campaign against the paper's
//!   golden coverage snapshot,
//! * [`coverage`] — toggle / node-activation coverage instrumentation
//!   over `dsim` circuits (the fuzzer's fitness signal),
//! * [`fuzz`] — a coverage-guided scan-vector fuzzer, seeded from
//!   `rt::rng` substreams so a run is a pure function of its seed,
//! * [`corpus`] — plain-text persistence for fuzz corpora under
//!   `results/corpus/`.
//!
//! # Examples
//!
//! ```
//! use conform::coverage::set_coverage;
//! use conform::fuzz::{fuzz, FuzzConfig};
//! use dft::chain_b::ChainB;
//! use dsim::atpg::random_vectors;
//!
//! let chain = ChainB::new(4);
//! let baseline = random_vectors(chain.circuit(), 4, 7);
//! let report = fuzz(chain.circuit(), &baseline, &FuzzConfig::smoke(1));
//! // The fuzzed corpus covers at least what the baseline covers.
//! let base = set_coverage(chain.circuit(), &baseline);
//! assert!(report.coverage.points() >= base.points());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod corpus;
pub mod coverage;
pub mod fuzz;
pub mod oracle;
