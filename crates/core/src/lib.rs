//! # dft — testable design of repeaterless low-swing on-chip interconnect
//!
//! The primary contribution of *"Testable Design of Repeaterless Low Swing
//! On-Chip Interconnect"* (Kadayinti & Sharma, DATE 2016), reproduced in
//! full on the `msim`/`dsim`/`link` substrates:
//!
//! * [`architecture`] — the testable link of Fig. 1: scan chains A (data
//!   path) and B (clock control path), the DFT additions, the gate-level
//!   digital blocks,
//! * [`dc_test`] — the two-vector DC tier (paper: 50.4 % of structural
//!   faults),
//! * [`scan_test`] — the scan tier with the charge-pump-as-combinational
//!   conversion and the 100 MHz dynamic-mismatch check (paper: 74.3 %
//!   cumulative),
//! * [`bist`] — the at-speed BIST with the 3-bit saturating lock detector
//!   and the 150 mV CP-BIST window on the charge-balance node (paper:
//!   94.8 % cumulative),
//! * [`campaign`] — the structural fault campaign aggregating Table I and
//!   the coverage ladder,
//! * [`claims`] — the paper's claims as one table of rows, each with its
//!   paper value, measured value and bound, checked by `reproduce` and
//!   `tests/paper_claims.rs`,
//! * [`ablation`] — per-element removal of the DFT observation circuitry,
//! * [`chain_a`] / [`chain_b`] — both scan chains stitched as single
//!   gate-level circuits executing the paper's §II procedures,
//! * [`mismatch`] — Monte-Carlo validation of the 15 mV programmed offset,
//! * [`quality`] — Williams–Brown shipped-defect (DPPM) economics,
//! * [`multilane`] — multi-receiver test-time scheduling,
//! * [`test_program`] — the generated production test program,
//! * [`overhead`] — the Table II added-circuitry accounting.
//!
//! # Examples
//!
//! Run the complete fault campaign and read the coverage ladder:
//!
//! ```no_run
//! use dft::campaign::FaultCampaign;
//! use msim::params::DesignParams;
//!
//! let result = FaultCampaign::new(&DesignParams::paper()).run();
//! println!("DC            {:.1} %", result.coverage_dc() * 100.0);
//! println!("DC+scan       {:.1} %", result.coverage_dc_scan() * 100.0);
//! println!("DC+scan+BIST  {:.1} %", result.coverage_total() * 100.0);
//! ```
//!
//! Enumerate the universe without simulating it — the paper's 603
//! structural faults, and the shard plan a resumable run would use:
//!
//! ```
//! use dft::campaign::FaultCampaign;
//! use msim::params::DesignParams;
//!
//! let campaign = FaultCampaign::new(&DesignParams::paper());
//! assert_eq!(campaign.universe().len(), 603);
//! assert!(campaign.shard_count() >= 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod architecture;
pub mod bist;
pub mod campaign;
pub mod chain_a;
pub mod chain_b;
pub mod claims;
pub mod dc_test;
pub mod mismatch;
pub mod multilane;
pub mod overhead;
pub mod quality;
pub mod scan_test;
pub mod test_program;
