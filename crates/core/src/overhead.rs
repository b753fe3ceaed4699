//! DFT overhead accounting (the paper's Table II).
//!
//! Walks the test architecture and counts every circuit element the DFT
//! scheme adds to the functional link. The inventory reproduces Table II
//! exactly:
//!
//! | entity | number |
//! |---|---|
//! | Flip-flop | 7 |
//! | Comparators (DC) | 4 |
//! | Comparators (100 MHz) | 2 |
//! | D-Latch | 1 |
//! | 2×1 Multiplexer | 2 |
//! | 3-bit saturating UP counter | 1 |
//! | Control signals | 2 |
//! | Logic gates | 6 |
//!
//! # Examples
//!
//! ```
//! use dft::overhead::DftOverhead;
//!
//! let o = DftOverhead::paper();
//! assert_eq!(o.count(dft::overhead::Entity::FlipFlop), 7);
//! ```

use std::fmt;

/// A class of added DFT circuit element (a Table II row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Entity {
    /// Scan/probe/capture flip-flops.
    FlipFlop,
    /// DC comparators with programmed offset (Fig. 5).
    ComparatorDc,
    /// Clocked comparators operated at the 100 MHz scan frequency
    /// (Fig. 6 at the termination).
    Comparator100MHz,
    /// Transparent D-latch (the TX half-cycle delay).
    DLatch,
    /// 2:1 multiplexers.
    Mux2,
    /// 3-bit saturating UP counter (the lock detector).
    SaturatingCounter3,
    /// Dedicated control inputs.
    ControlSignal,
    /// Miscellaneous logic gates.
    LogicGate,
}

impl Entity {
    /// All entity classes in Table II row order.
    pub const ALL: [Entity; 8] = [
        Entity::FlipFlop,
        Entity::ComparatorDc,
        Entity::Comparator100MHz,
        Entity::DLatch,
        Entity::Mux2,
        Entity::SaturatingCounter3,
        Entity::ControlSignal,
        Entity::LogicGate,
    ];

    /// Table II row label.
    pub fn label(self) -> &'static str {
        match self {
            Entity::FlipFlop => "Flip-flop",
            Entity::ComparatorDc => "Comparators (DC)",
            Entity::Comparator100MHz => "Comparators (100 MHz)",
            Entity::DLatch => "D-Latch",
            Entity::Mux2 => "2x1 Multiplexer",
            Entity::SaturatingCounter3 => "3 bit saturating UP counter",
            Entity::ControlSignal => "Control signals",
            Entity::LogicGate => "Logic gates",
        }
    }
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One added element with its purpose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverheadItem {
    /// Element class.
    pub entity: Entity,
    /// Instance name.
    pub name: &'static str,
    /// What the element is for.
    pub purpose: &'static str,
}

/// The full added-circuitry inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DftOverhead {
    items: Vec<OverheadItem>,
}

impl DftOverhead {
    /// The paper's DFT scheme inventory.
    pub fn paper() -> DftOverhead {
        let items = vec![
            // --- Flip-flops (7) ---
            OverheadItem {
                entity: Entity::FlipFlop,
                name: "FF_CSP+",
                purpose: "probes the Cs driver plate, plus arm (Fig. 3, shaded)",
            },
            OverheadItem {
                entity: Entity::FlipFlop,
                name: "FF_CSA+",
                purpose: "probes the aCs driver plate, plus arm (Fig. 3, shaded)",
            },
            OverheadItem {
                entity: Entity::FlipFlop,
                name: "FF_CSP-",
                purpose: "probes the Cs driver plate, minus arm",
            },
            OverheadItem {
                entity: Entity::FlipFlop,
                name: "FF_CSA-",
                purpose: "probes the aCs driver plate, minus arm",
            },
            OverheadItem {
                entity: Entity::FlipFlop,
                name: "FF_WINH",
                purpose: "captures the VH window comparator output into chain B",
            },
            OverheadItem {
                entity: Entity::FlipFlop,
                name: "FF_WINL",
                purpose: "captures the VL window comparator output into chain B",
            },
            OverheadItem {
                entity: Entity::FlipFlop,
                name: "FF_RETIME",
                purpose: "extends chain A by one when the phi_Rx-bar retimer is selected",
            },
            // --- DC comparators (4) ---
            OverheadItem {
                entity: Entity::ComparatorDc,
                name: "CMP_DC_P+",
                purpose: "15 mV offset comparator, plus-arm positive polarity (Fig. 5)",
            },
            OverheadItem {
                entity: Entity::ComparatorDc,
                name: "CMP_DC_P-",
                purpose: "15 mV offset comparator, plus-arm negative polarity",
            },
            OverheadItem {
                entity: Entity::ComparatorDc,
                name: "CMP_BIST_H",
                purpose: "CP-BIST window comparator upper half (Fig. 9)",
            },
            OverheadItem {
                entity: Entity::ComparatorDc,
                name: "CMP_BIST_L",
                purpose: "CP-BIST window comparator lower half (Fig. 9)",
            },
            // --- 100 MHz comparators (2) ---
            OverheadItem {
                entity: Entity::Comparator100MHz,
                name: "CMP_TERM_H",
                purpose: "termination window comparator upper half (Fig. 6), scan-clocked",
            },
            OverheadItem {
                entity: Entity::Comparator100MHz,
                name: "CMP_TERM_L",
                purpose: "termination window comparator lower half, scan-clocked",
            },
            // --- Latch (1) ---
            OverheadItem {
                entity: Entity::DLatch,
                name: "LAT_HALF",
                purpose: "TX half-cycle delay for the PD UP/DN two-pass test (transparent in mission mode)",
            },
            // --- Muxes (2) ---
            OverheadItem {
                entity: Entity::Mux2,
                name: "MUX_SCANCLK",
                purpose: "drives the coarse loop from the external scan clock in test mode (Fig. 1)",
            },
            OverheadItem {
                entity: Entity::Mux2,
                name: "MUX_RETIME",
                purpose: "selects phi_Rx vs phi_Rx-bar for the domain-crossing retimer",
            },
            // --- Counter (1) ---
            OverheadItem {
                entity: Entity::SaturatingCounter3,
                name: "LOCKDET",
                purpose: "BIST lock detector: logs coarse-correction requests",
            },
            // --- Control signals (2) ---
            OverheadItem {
                entity: Entity::ControlSignal,
                name: "Sen",
                purpose: "scan enable",
            },
            OverheadItem {
                entity: Entity::ControlSignal,
                name: "Ten",
                purpose: "test mode enable",
            },
            // --- Logic gates (6) ---
            OverheadItem {
                entity: Entity::LogicGate,
                name: "G_BIASP",
                purpose: "ties the PMOS charge-pump bias to GND in scan mode",
            },
            OverheadItem {
                entity: Entity::LogicGate,
                name: "G_BIASN",
                purpose: "ties the NMOS charge-pump bias to VDD in scan mode",
            },
            OverheadItem {
                entity: Entity::LogicGate,
                name: "G_WINFORCE",
                purpose: "forces the window comparator input to mid-threshold in scan mode",
            },
            OverheadItem {
                entity: Entity::LogicGate,
                name: "G_CLKGATE",
                purpose: "gates the divided clock during scan shift",
            },
            OverheadItem {
                entity: Entity::LogicGate,
                name: "G_BISTEN",
                purpose: "enables the CP-BIST window comparator only after lock",
            },
            OverheadItem {
                entity: Entity::LogicGate,
                name: "G_LATCHEN",
                purpose: "enables the TX half-cycle latch in test mode",
            },
        ];
        DftOverhead { items }
    }

    /// All items.
    pub fn items(&self) -> &[OverheadItem] {
        &self.items
    }

    /// Count of one entity class (a Table II cell).
    pub fn count(&self, entity: Entity) -> usize {
        self.items.iter().filter(|i| i.entity == entity).count()
    }

    /// `(label, count)` rows in Table II order.
    pub fn table_rows(&self) -> Vec<(&'static str, usize)> {
        Entity::ALL
            .iter()
            .map(|&e| (e.label(), self.count(e)))
            .collect()
    }
}

impl Default for DftOverhead {
    fn default() -> DftOverhead {
        DftOverhead::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_in_order() {
        // The counts against the paper's Table II are `dft::claims` rows.
        let rows = DftOverhead::paper().table_rows();
        let labels: Vec<&str> = rows.iter().map(|r| r.0).collect();
        assert_eq!(labels, Entity::ALL.map(Entity::label));
        let total: usize = rows.iter().map(|(_, n)| n).sum();
        assert_eq!(total, DftOverhead::paper().items().len());
    }

    #[test]
    fn every_item_has_a_purpose() {
        for item in DftOverhead::paper().items() {
            assert!(!item.purpose.is_empty(), "{} lacks a purpose", item.name);
        }
    }

    #[test]
    fn display_labels_nonempty() {
        for e in Entity::ALL {
            assert!(!format!("{e}").is_empty());
        }
    }
}
