//! The testable link architecture (Fig. 1).
//!
//! Assembles the functional blocks, the DFT additions and the two scan
//! chains the paper describes:
//!
//! * **Scan chain A** (data path, transmitter clock domain): TX data
//!   flip-flops → FFE-plate probe flip-flops → across the interconnect →
//!   the Alexander phase detector's flip-flops → the retimer. Its output
//!   is the retimed data.
//! * **Scan chain B** (clock control path, receiver divided-clock domain):
//!   window-comparator capture flip-flops → charge-pump control → control
//!   FSM → UP/DN ring counter → lock detector.
//!
//! The struct also owns the gate-level digital blocks so the digital
//! stuck-at story (100 % coverage) can be demonstrated on the very same
//! circuits that are stitched into chain B.
//!
//! # Examples
//!
//! ```
//! use dft::architecture::TestableLink;
//!
//! let link = TestableLink::paper();
//! assert_eq!(link.scan_chain_a().len(), 9);
//! assert!(link.fault_universe().len() > 500);
//! ```

use dsim::blocks::alexander::AlexanderPd;
use dsim::blocks::divider::Divider;
use dsim::blocks::fsm::ControlFsm;
use dsim::blocks::lock_counter::LockCounter;
use dsim::blocks::ring_counter::RingCounter;
use dsim::blocks::switch_matrix::SwitchMatrix;
use link::netlists::{functional_netlists, test_circuit_netlists};
use msim::fault::FaultUniverse;
use msim::netlist::{BlockKind, Netlist};
use msim::params::DesignParams;

use crate::overhead::DftOverhead;

/// One element of a scan chain description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainElement {
    /// Element name.
    pub name: &'static str,
    /// What it is / what it observes.
    pub role: &'static str,
}

/// The assembled testable link.
#[derive(Debug)]
pub struct TestableLink {
    params: DesignParams,
    blocks: Vec<(BlockKind, Netlist)>,
    test_blocks: Vec<(BlockKind, Netlist)>,
    overhead: DftOverhead,
    ring_counter: RingCounter,
    switch_matrix: SwitchMatrix,
    divider: Divider,
    lock_detector: LockCounter,
    control_fsm: ControlFsm,
    phase_detector: AlexanderPd,
}

impl TestableLink {
    /// Builds the paper's design.
    pub fn paper() -> TestableLink {
        let params = DesignParams::paper();
        TestableLink {
            ring_counter: RingCounter::new(params.dll_phases),
            switch_matrix: SwitchMatrix::new(params.dll_phases),
            divider: Divider::new(params.divider_ratio.ilog2() as usize),
            lock_detector: LockCounter::new(3),
            control_fsm: ControlFsm::new(),
            phase_detector: AlexanderPd::new(),
            blocks: functional_netlists(),
            test_blocks: test_circuit_netlists(),
            overhead: DftOverhead::paper(),
            params,
        }
    }

    /// The design point.
    pub fn params(&self) -> &DesignParams {
        &self.params
    }

    /// The gate-level UP/DN ring counter.
    pub fn ring_counter(&self) -> &RingCounter {
        &self.ring_counter
    }

    /// The gate-level switch matrix.
    pub fn switch_matrix(&self) -> &SwitchMatrix {
        &self.switch_matrix
    }

    /// The gate-level coarse-loop divider.
    pub fn divider(&self) -> &Divider {
        &self.divider
    }

    /// The gate-level lock detector.
    pub fn lock_detector(&self) -> &LockCounter {
        &self.lock_detector
    }

    /// The gate-level control FSM.
    pub fn control_fsm(&self) -> &ControlFsm {
        &self.control_fsm
    }

    /// The gate-level Alexander phase detector.
    pub fn phase_detector(&self) -> &AlexanderPd {
        &self.phase_detector
    }

    /// The functional structural fault universe.
    pub fn fault_universe(&self) -> FaultUniverse {
        FaultUniverse::enumerate(self.blocks.iter().map(|(b, n)| (*b, n)))
    }

    /// Scan chain A (data path) in shift order.
    pub fn scan_chain_a(&self) -> Vec<ChainElement> {
        vec![
            ChainElement {
                name: "FF_TXDATA",
                role: "transmitter data flip-flop",
            },
            ChainElement {
                name: "LAT_HALF",
                role: "half-cycle test latch (transparent in mission mode)",
            },
            ChainElement {
                name: "FF_CSP+",
                role: "Cs driver-plate probe, plus arm",
            },
            ChainElement {
                name: "FF_CSA+",
                role: "aCs driver-plate probe, plus arm",
            },
            ChainElement {
                name: "FF_CSP-",
                role: "Cs driver-plate probe, minus arm",
            },
            ChainElement {
                name: "FF_CSA-",
                role: "aCs driver-plate probe, minus arm",
            },
            ChainElement {
                name: "PD_SAMPLERS",
                role: "Alexander PD data/edge samplers (across the interconnect)",
            },
            ChainElement {
                name: "PD_DECISION",
                role: "Alexander PD UP/DN flip-flops",
            },
            ChainElement {
                name: "FF_RETIME",
                role: "domain-crossing retimer (phi_Rx or phi_Rx-bar)",
            },
        ]
    }

    /// Scan chain B (clock control path) in shift order.
    pub fn scan_chain_b(&self) -> Vec<ChainElement> {
        vec![
            ChainElement {
                name: "FF_WINH",
                role: "VH window-comparator capture",
            },
            ChainElement {
                name: "FF_WINL",
                role: "VL window-comparator capture",
            },
            ChainElement {
                name: "CP_CTRL",
                role: "charge pumps as combinational elements (biases railed)",
            },
            ChainElement {
                name: "FSM",
                role: "coarse-correction control FSM state",
            },
            ChainElement {
                name: "RING_COUNTER",
                role: "UP/DN one-hot ring counter (DLL phase select)",
            },
            ChainElement {
                name: "LOCK_DETECTOR",
                role: "3-bit saturating lock detector",
            },
        ]
    }

    /// Human-readable inventory of the whole design: functional blocks
    /// with their device counts, DFT blocks, scan-chain ordering and the
    /// Table II overhead — the content behind the paper's Fig. 1.
    pub fn inventory(&self) -> String {
        let mut s = String::new();
        s.push_str("Functional analog blocks (structural fault universe):\n");
        for (b, nl) in &self.blocks {
            s.push_str(&format!(
                "  {:<22} {:>3} MOS {:>2} caps\n",
                b.label(),
                nl.mos_count(),
                nl.capacitor_count()
            ));
        }
        s.push_str("DFT test circuitry (excluded from the universe):\n");
        for (b, nl) in &self.test_blocks {
            s.push_str(&format!(
                "  {:<22} {:>3} MOS {:>2} caps\n",
                b.label(),
                nl.mos_count(),
                nl.capacitor_count()
            ));
        }
        s.push_str("Digital blocks (gate level, 100 % stuck-at via scan):\n");
        for (name, gates, ffs) in [
            (
                "ring counter",
                self.ring_counter.circuit().gate_count(),
                self.ring_counter.circuit().dff_count(),
            ),
            (
                "switch matrix",
                self.switch_matrix.circuit().gate_count(),
                self.switch_matrix.circuit().dff_count(),
            ),
            (
                "divider",
                self.divider.circuit().gate_count(),
                self.divider.circuit().dff_count(),
            ),
            (
                "lock detector",
                self.lock_detector.circuit().gate_count(),
                self.lock_detector.circuit().dff_count(),
            ),
            (
                "control FSM",
                self.control_fsm.circuit().gate_count(),
                self.control_fsm.circuit().dff_count(),
            ),
            (
                "Alexander PD",
                self.phase_detector.circuit().gate_count(),
                self.phase_detector.circuit().dff_count(),
            ),
        ] {
            s.push_str(&format!("  {name:<22} {gates:>3} gates {ffs:>2} FFs\n"));
        }
        s.push_str("Scan chain A (data path):\n");
        for e in self.scan_chain_a() {
            s.push_str(&format!("  {:<14} {}\n", e.name, e.role));
        }
        s.push_str("Scan chain B (clock control path):\n");
        for e in self.scan_chain_b() {
            s.push_str(&format!("  {:<14} {}\n", e.name, e.role));
        }
        s.push_str("DFT overhead (Table II):\n");
        for (label, n) in self.overhead.table_rows() {
            s.push_str(&format!("  {label:<30} {n}\n"));
        }
        s
    }
}

impl Default for TestableLink {
    fn default() -> TestableLink {
        TestableLink::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_a_starts_at_tx_and_ends_at_retimer() {
        // The paper: "the data path scan chain begins at the transmitter,
        // goes through the interconnect and the phase detector".
        let link = TestableLink::paper();
        let chain = link.scan_chain_a();
        assert_eq!(chain.first().unwrap().name, "FF_TXDATA");
        assert_eq!(chain.last().unwrap().name, "FF_RETIME");
        assert!(chain.iter().any(|e| e.name == "PD_DECISION"));
    }

    #[test]
    fn chain_b_starts_at_window_comparator_and_ends_at_lock_detector() {
        // The paper: "the clock control path scan chain begins at the
        // window comparator ... and finally the lock detector block".
        let link = TestableLink::paper();
        let chain = link.scan_chain_b();
        assert_eq!(chain.first().unwrap().name, "FF_WINH");
        assert_eq!(chain.last().unwrap().name, "LOCK_DETECTOR");
    }

    #[test]
    fn probe_ffs_cover_all_capacitor_plates() {
        let link = TestableLink::paper();
        let probes: Vec<&str> = link
            .scan_chain_a()
            .iter()
            .filter(|e| e.name.starts_with("FF_CS"))
            .map(|e| e.name)
            .collect();
        // Two capacitors per arm, two arms.
        assert_eq!(probes.len(), 4);
    }

    #[test]
    fn digital_blocks_sized_from_params() {
        let link = TestableLink::paper();
        assert_eq!(link.ring_counter().len(), 10);
        assert_eq!(link.switch_matrix().len(), 10);
        // Divider ratio 16 = 2^4 stages.
        assert_eq!(link.divider().circuit().dff_count(), 4);
        assert_eq!(link.lock_detector().circuit().dff_count(), 3);
        let _ = link.control_fsm();
        let _ = link.phase_detector();
    }

    #[test]
    fn inventory_mentions_every_block() {
        let link = TestableLink::paper();
        let inv = link.inventory();
        for (b, _) in &link.blocks {
            assert!(inv.contains(b.label()), "inventory missing {b}");
        }
        assert!(inv.contains("Scan chain A"));
        assert!(inv.contains("Table II"));
        assert!(inv.contains("lock detector"));
    }

    #[test]
    fn universe_nonempty_and_consistent() {
        let link = TestableLink::paper();
        let u = link.fault_universe();
        assert_eq!(u.len(), 99 * 6 + 9);
        // Test circuitry must not leak into the universe.
        for f in &u {
            assert!(!f.block.is_test_circuitry());
        }
    }
}
