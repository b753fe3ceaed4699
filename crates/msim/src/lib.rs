//! # msim — mixed-signal simulation substrate
//!
//! The analog foundation of the reproduction of *"Testable Design of
//! Repeaterless Low Swing On-Chip Interconnect"* (Kadayinti & Sharma,
//! DATE 2016). Rust has no analog simulation ecosystem, so this crate
//! provides the pieces the paper's evaluation rests on:
//!
//! * [`units`] — dimension-bearing newtypes (volts, seconds, amps, …),
//! * [`signal`] — uniformly sampled waveforms,
//! * [`netlist`] — transistor-level *structural* netlists transcribed from
//!   the paper's schematics (Figs. 3–9), used for fault enumeration and
//!   overhead accounting,
//! * [`fault`] — the structural fault model (six MOS faults + capacitor
//!   short) and fault-universe enumeration,
//! * [`effects`] — first-order resolution of each structural fault into a
//!   behavioral effect,
//! * [`params`] — the paper's design point (1.2 V, 2.5 Gbps, 60 mV swing,
//!   10-phase DLL, …),
//! * [`blocks`] — behavioral models with fault hooks (comparators, charge
//!   pumps, VCDL, DLL),
//! * [`sim`] — multi-channel trace recording,
//! * [`vcd`] — GTKWave-compatible VCD export of traces.
//!
//! Higher layers build on this substrate: the `link` crate assembles the
//! blocks into the full low-swing interconnect, and the `dft` crate runs
//! the paper's DC / scan / BIST test tiers against injected faults.
//!
//! # Examples
//!
//! Enumerate the structural faults of a small netlist and resolve one of
//! them to its behavioral effect:
//!
//! ```
//! use msim::effects::{resolve_effect, AnalogEffect};
//! use msim::fault::FaultUniverse;
//! use msim::netlist::{BlockKind, DeviceRole, Mos, MosType, Netlist};
//! use msim::params::DesignParams;
//!
//! let mut nl = Netlist::new("tx");
//! nl.add_mos(Mos::new("M1", MosType::Nmos, 2.0, 0.13, DeviceRole::TxInputPlus));
//! let universe = FaultUniverse::enumerate([(BlockKind::TxDriver, &nl)]);
//! assert_eq!(universe.len(), 6); // six structural MOS faults
//!
//! let p = DesignParams::paper();
//! let effect = resolve_effect(&universe.faults()[0], &p);
//! assert!(!matches!(effect, AnalogEffect::None));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod blocks;
pub mod effects;
pub mod fault;
pub mod netlist;
pub mod params;
pub mod signal;
pub mod sim;
pub mod units;
pub mod vcd;
