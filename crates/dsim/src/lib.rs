//! # dsim — digital simulation, scan and stuck-at substrate
//!
//! The digital foundation of the reproduction of *"Testable Design of
//! Repeaterless Low Swing On-Chip Interconnect"* (Kadayinti & Sharma,
//! DATE 2016):
//!
//! * [`logic`] — three-valued logic (`0`, `1`, `X`),
//! * [`circuit`] — gate-level circuits with scannable flip-flops and a
//!   stuck-at fault overlay,
//! * [`bitpar`] — bit-parallel (64-pattern word-packed) simulation and the
//!   PPSFP stuck-at kernel with fault dropping that the campaign hot paths
//!   run on,
//! * [`scan`] — the scan protocol (load / launch-capture / unload) and
//!   chain-continuity checks,
//! * [`stuck_at`] — single stuck-at fault enumeration and fault
//!   simulation,
//! * [`atpg`] — exhaustive, seeded-random and weighted pattern generation,
//! * [`podem`] — deterministic PODEM test generation with untestability
//!   proofs,
//! * [`transition`] — the launch-on-capture transition (delay) fault
//!   model behind the paper's coarse-path delay-coverage claim,
//! * [`verilog`] — a structural gate-level Verilog frontend (tokenizer,
//!   parser, serializer, lowering into [`circuit::Circuit`]) so external
//!   netlists become campaign targets,
//! * [`expand`] — broad-side time expansion: the two-timeframe
//!   combinational model that turns [`podem`] into a transition ATPG
//!   for arbitrary netlists,
//! * [`blocks`] — the paper's digital blocks as gate netlists (ring
//!   counter, switch matrix, divider, lock detector, control FSM,
//!   Alexander phase detector).
//!
//! The paper reports 100 % stuck-at coverage on these "logically simple"
//! circuits; the block modules each carry a test demonstrating exactly
//! that with this crate's pattern generators.
//!
//! # Examples
//!
//! ```
//! use dsim::atpg::random_vectors;
//! use dsim::blocks::ring_counter::RingCounter;
//! use dsim::stuck_at::scan_coverage;
//!
//! let rc = RingCounter::new(4);
//! let cov = scan_coverage(rc.circuit(), &random_vectors(rc.circuit(), 64, 7));
//! assert!((cov.coverage() - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod atpg;
pub mod bitpar;
pub mod blocks;
pub mod circuit;
pub mod expand;
pub mod logic;
pub mod podem;
pub mod scan;
pub mod stuck_at;
pub mod transition;
pub mod verilog;
