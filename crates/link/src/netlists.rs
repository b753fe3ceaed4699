//! Structural netlists of the link's analog blocks.
//!
//! Transcribed from the paper's schematics (Figs. 3–9) at the granularity
//! the structural fault model needs: every MOS carries its circuit role
//! and differential-arm / comparator-side instance, every capacitor its
//! role. The exact device count of the authors' UMC 130 nm layout is not
//! published; where a figure shows a block symbolically (pre-drivers,
//! tapered line buffer, VCDL stages) we use conventional implementations
//! at typical sizes and record the choice here:
//!
//! | block | devices | composition |
//! |---|---|---|
//! | TX driver (Fig. 3) | 40 MOS + 4 C | 2 pre-driver inverters and a 5-stage tapered buffer per arm, 2-finger-per-arm differential gm stage, 2-finger tail, 2-device bias mirror, `Cs`+`αCs` per arm |
//! | termination (Fig. 4) | 12 MOS + 3 C | two transmission-gate resistor segments per arm, 4-device Vcm divider, AC-coupling caps |
//! | RX bias | 4 MOS | stacked diode divider |
//! | window comparator (Fig. 6) | 16 MOS | two clocked comparators (input pair, mirror, tail, clock switch, output inverter) |
//! | weak charge pump (Fig. 8) | 13 MOS + 2 C | UP/DN switches, source/sink, 2-switch + 2-source balance arm, 5-device balancing amplifier, loop-filter and balance caps |
//! | strong charge pump (Fig. 8) | 4 MOS | UPst/DNst switches, source/sink |
//! | VCDL | 10 MOS | two current-starved stages + 2-device bias mirror |
//!
//! Test circuitry (the Fig. 5 DC comparator and the Fig. 9 CP-BIST window
//! comparator) is also provided for the Table II overhead accounting, but
//! excluded from the functional fault universe per the paper.
//!
//! # Examples
//!
//! ```
//! use link::netlists::functional_netlists;
//! use msim::fault::FaultUniverse;
//!
//! let blocks = functional_netlists();
//! let universe = FaultUniverse::enumerate(blocks.iter().map(|(b, n)| (*b, n)));
//! // 99 MOS * 6 faults + 9 capacitor shorts.
//! assert_eq!(universe.len(), 99 * 6 + 9);
//! ```

use msim::netlist::{BlockKind, Capacitor, DeviceRole, Mos, MosType, Netlist};

/// The transmitter of Fig. 3 (differential: instance 0 = plus arm,
/// 1 = minus arm).
pub fn tx_driver() -> Netlist {
    let mut nl = Netlist::new("tx-driver");
    for arm in 0..2u8 {
        let a = if arm == 0 { "p" } else { "m" };
        // Pre-driver inverters feeding the FFE capacitor plates (nodes
        // probed by the DFT scan flip-flops).
        for stage in 0..2 {
            nl.add_mos(
                Mos::new(
                    format!("MPD{stage}{a}_P"),
                    MosType::Pmos,
                    2.0,
                    0.13,
                    DeviceRole::TxPreDrvP,
                )
                .with_instance(arm),
            );
            nl.add_mos(
                Mos::new(
                    format!("MPD{stage}{a}_N"),
                    MosType::Nmos,
                    1.0,
                    0.13,
                    DeviceRole::TxPreDrvN,
                )
                .with_instance(arm),
            );
        }
        // FFE series capacitors: main and fractional tap.
        nl.add_capacitor(
            Capacitor::new(format!("Cs_{a}"), 120e-15, DeviceRole::FfeCapMain).with_instance(arm),
        );
        nl.add_capacitor(
            Capacitor::new(format!("Csa_{a}"), 45e-15, DeviceRole::FfeCapFraction)
                .with_instance(arm),
        );
        // Weak-driver gm stage: two fingers of input and load per arm.
        for f in 0..2 {
            nl.add_mos(
                Mos::new(
                    format!("MI{f}{a}"),
                    MosType::Nmos,
                    4.0,
                    0.13,
                    if arm == 0 {
                        DeviceRole::TxInputPlus
                    } else {
                        DeviceRole::TxInputMinus
                    },
                )
                .with_instance(arm),
            );
            nl.add_mos(
                Mos::new(
                    format!("ML{f}{a}"),
                    MosType::Pmos,
                    6.0,
                    0.13,
                    if arm == 0 {
                        DeviceRole::TxLoadPlus
                    } else {
                        DeviceRole::TxLoadMinus
                    },
                )
                .with_instance(arm),
            );
        }
        // Tapered line buffer (5 stages) between pre-driver and line.
        for stage in 0..5 {
            nl.add_mos(
                Mos::new(
                    format!("MB{stage}{a}_P"),
                    MosType::Pmos,
                    (stage + 1) as f64 * 3.0,
                    0.13,
                    DeviceRole::TxBufP,
                )
                .with_instance(arm),
            );
            nl.add_mos(
                Mos::new(
                    format!("MB{stage}{a}_N"),
                    MosType::Nmos,
                    (stage + 1) as f64 * 1.5,
                    0.13,
                    DeviceRole::TxBufN,
                )
                .with_instance(arm),
            );
        }
    }
    // Shared tail (two fingers) and its bias mirror.
    for f in 0..2 {
        nl.add_mos(Mos::new(
            format!("MT{f}"),
            MosType::Nmos,
            8.0,
            0.26,
            DeviceRole::TxTail,
        ));
    }
    // Instance 0 is the diode-connected mirror reference.
    for f in 0..2u8 {
        nl.add_mos(
            Mos::new(
                format!("MBM{f}"),
                MosType::Nmos,
                2.0,
                0.26,
                DeviceRole::TxBiasMirror,
            )
            .with_instance(f),
        );
    }
    nl
}

/// The receiver termination of Fig. 4.
pub fn termination() -> Netlist {
    let mut nl = Netlist::new("termination");
    for arm in 0..2u8 {
        let a = if arm == 0 { "p" } else { "m" };
        // Two transmission-gate resistor segments per arm (R+x / R-x).
        for seg in 0..2 {
            nl.add_mos(
                Mos::new(
                    format!("MTG{seg}{a}_N"),
                    MosType::Nmos,
                    1.0,
                    0.5,
                    DeviceRole::TermTgNmos,
                )
                .with_instance(arm),
            );
            nl.add_mos(
                Mos::new(
                    format!("MTG{seg}{a}_P"),
                    MosType::Pmos,
                    2.0,
                    0.5,
                    DeviceRole::TermTgPmos,
                )
                .with_instance(arm),
            );
        }
        // AC-coupling capacitor into the comparators.
        nl.add_capacitor(
            Capacitor::new(format!("Cc_{a}"), 80e-15, DeviceRole::CouplingCap).with_instance(arm),
        );
    }
    // Vcm divider (stacked diodes) shared by both arms.
    for i in 0..4 {
        nl.add_mos(Mos::new(
            format!("MVCM{i}"),
            MosType::Nmos,
            0.5,
            1.0,
            DeviceRole::TermBias,
        ));
    }
    // Window-comparator input coupling cap.
    nl.add_capacitor(Capacitor::new("Cw", 60e-15, DeviceRole::CouplingCap).with_instance(0));
    nl
}

/// The receiver-side voltage-divider bias generator.
pub fn rx_bias() -> Netlist {
    let mut nl = Netlist::new("rx-bias");
    // Instance 0 is the diode-connected top of the stack.
    for i in 0..4u8 {
        nl.add_mos(
            Mos::new(
                format!("MD{i}"),
                MosType::Nmos,
                0.5,
                1.0,
                DeviceRole::RxBiasDivider,
            )
            .with_instance(i),
        );
    }
    nl
}

/// One clocked comparator at the paper's Fig. 6 sizing, tagged with
/// `instance` (0 = `VH` half, 1 = `VL` half).
/// One clocked comparator half (Fig. 6 topology) with full node
/// connectivity: the clock switch gates the tail, the mirror folds onto
/// the decision node, the inverter squares the output.
/// One comparator device row: (name, type, w, l, role, [d, g, s] nodes).
type CmpDev = (&'static str, MosType, f64, f64, DeviceRole, [String; 3]);

fn clocked_comparator(nl: &mut Netlist, instance: u8, tag: &str) {
    let n = |base: &str| format!("{base}_{tag}");
    let devs: [CmpDev; 8] = [
        (
            "MIP",
            MosType::Nmos,
            0.8,
            0.5,
            DeviceRole::CmpInputPlus,
            [n("ndiode"), "inp".into(), n("ntail")],
        ),
        (
            "MIN",
            MosType::Nmos,
            0.5,
            0.5,
            DeviceRole::CmpInputMinus,
            [n("nout1"), "inn".into(), n("ntail")],
        ),
        (
            "MMD",
            MosType::Pmos,
            0.5,
            0.5,
            DeviceRole::CmpMirrorDiode,
            [n("ndiode"), n("ndiode"), "vdd".into()],
        ),
        (
            "MMO",
            MosType::Pmos,
            0.5,
            0.5,
            DeviceRole::CmpMirrorOut,
            [n("nout1"), n("ndiode"), "vdd".into()],
        ),
        (
            "MT",
            MosType::Nmos,
            0.5,
            0.5,
            DeviceRole::CmpTail,
            [n("nsw"), "vbn".into(), "gnd".into()],
        ),
        (
            "MCK",
            MosType::Nmos,
            0.5,
            0.13,
            DeviceRole::CmpClockSwitch,
            [n("ntail"), "clk".into(), n("nsw")],
        ),
        (
            "MOP",
            MosType::Pmos,
            0.5,
            0.13,
            DeviceRole::CmpOutInvP,
            [n("outq"), n("nout1"), "vdd".into()],
        ),
        (
            "MON",
            MosType::Nmos,
            0.5,
            0.13,
            DeviceRole::CmpOutInvN,
            [n("outq"), n("nout1"), "gnd".into()],
        ),
    ];
    for (name, t, w, l, role, [d, g, src]) in devs {
        nl.add_mos(
            Mos::new(format!("{name}_{tag}"), t, w, l, role)
                .with_instance(instance)
                .with_nodes(d, g, src),
        );
    }
}

/// The functional window comparator of the coarse loop (Fig. 6 topology,
/// two halves for `VH` and `VL`).
pub fn window_comparator() -> Netlist {
    let mut nl = Netlist::new("window-comparator");
    clocked_comparator(&mut nl, 0, "H");
    clocked_comparator(&mut nl, 1, "L");
    nl
}

/// The weak charge pump with its charge-balancing arm and amplifier
/// (Fig. 8).
pub fn weak_charge_pump() -> Netlist {
    let mut nl = Netlist::new("weak-charge-pump");
    nl.add_mos(Mos::new(
        "MSU",
        MosType::Pmos,
        1.0,
        0.13,
        DeviceRole::CpSwitchUp,
    ));
    nl.add_mos(Mos::new(
        "MSD",
        MosType::Nmos,
        0.5,
        0.13,
        DeviceRole::CpSwitchDn,
    ));
    nl.add_mos(Mos::new(
        "MCP",
        MosType::Pmos,
        2.0,
        0.5,
        DeviceRole::CpSourceP,
    ));
    nl.add_mos(Mos::new(
        "MCN",
        MosType::Nmos,
        1.0,
        0.5,
        DeviceRole::CpSinkN,
    ));
    for i in 0..2u8 {
        nl.add_mos(
            Mos::new(
                format!("MBS{i}"),
                MosType::Pmos,
                1.0,
                0.13,
                DeviceRole::CpBalanceSwitch,
            )
            .with_instance(i),
        );
        nl.add_mos(
            Mos::new(
                format!("MBC{i}"),
                MosType::Nmos,
                1.0,
                0.5,
                DeviceRole::CpBalanceSource,
            )
            .with_instance(i),
        );
        nl.add_mos(
            Mos::new(
                format!("MAI{i}"),
                MosType::Nmos,
                1.0,
                0.5,
                DeviceRole::CpAmpInput,
            )
            .with_instance(i),
        );
        nl.add_mos(
            Mos::new(
                format!("MAM{i}"),
                MosType::Pmos,
                1.0,
                0.5,
                DeviceRole::CpAmpMirror,
            )
            .with_instance(i),
        );
    }
    nl.add_mos(Mos::new(
        "MAT",
        MosType::Nmos,
        1.0,
        0.5,
        DeviceRole::CpAmpTail,
    ));
    nl.add_capacitor(Capacitor::new("Cloop", 2e-12, DeviceRole::LoopFilterCap));
    nl.add_capacitor(Capacitor::new("Cbal", 0.5e-12, DeviceRole::BalanceCap));
    nl
}

/// The strong charge pump (Fig. 8).
pub fn strong_charge_pump() -> Netlist {
    let mut nl = Netlist::new("strong-charge-pump");
    nl.add_mos(Mos::new(
        "MSU",
        MosType::Pmos,
        4.0,
        0.13,
        DeviceRole::CpSwitchUp,
    ));
    nl.add_mos(Mos::new(
        "MSD",
        MosType::Nmos,
        2.0,
        0.13,
        DeviceRole::CpSwitchDn,
    ));
    nl.add_mos(Mos::new(
        "MCP",
        MosType::Pmos,
        8.0,
        0.5,
        DeviceRole::CpSourceP,
    ));
    nl.add_mos(Mos::new(
        "MCN",
        MosType::Nmos,
        4.0,
        0.5,
        DeviceRole::CpSinkN,
    ));
    nl
}

/// The fine-loop VCDL: three current-starved stages plus the bias mirror.
pub fn vcdl() -> Netlist {
    let mut nl = Netlist::new("vcdl");
    for stage in 0..2u8 {
        nl.add_mos(
            Mos::new(
                format!("MIP{stage}"),
                MosType::Pmos,
                2.0,
                0.13,
                DeviceRole::VcdlInvP,
            )
            .with_instance(stage),
        );
        nl.add_mos(
            Mos::new(
                format!("MIN{stage}"),
                MosType::Nmos,
                1.0,
                0.13,
                DeviceRole::VcdlInvN,
            )
            .with_instance(stage),
        );
        nl.add_mos(
            Mos::new(
                format!("MSN{stage}"),
                MosType::Nmos,
                1.0,
                0.26,
                DeviceRole::VcdlStarveN,
            )
            .with_instance(stage),
        );
        nl.add_mos(
            Mos::new(
                format!("MSP{stage}"),
                MosType::Pmos,
                2.0,
                0.26,
                DeviceRole::VcdlStarveP,
            )
            .with_instance(stage),
        );
    }
    // Instance 0 is the diode-connected mirror reference.
    for i in 0..2u8 {
        nl.add_mos(
            Mos::new(
                format!("MBV{i}"),
                MosType::Nmos,
                1.0,
                0.5,
                DeviceRole::VcdlBias,
            )
            .with_instance(i),
        );
    }
    nl
}

/// The DC-test comparator of Fig. 5 (test circuitry): input pair with the
/// deliberate 0.8 µ / 0.5 µ mismatch, mirror, tail, output inverter.
///
/// This schematic is fully drawn in the paper, so the netlist carries the
/// actual node connectivity (exported by `Netlist::to_spice`): the
/// mismatched input pair shares the tail node, the PMOS mirror folds the
/// diode side onto the output side, and the inverter squares up `Q`.
pub fn dc_test_comparator() -> Netlist {
    let mut nl = Netlist::new("dc-test-comparator");
    nl.add_mos(
        Mos::new("MIP", MosType::Nmos, 0.8, 0.5, DeviceRole::CmpInputPlus)
            .with_nodes("ndiode", "inp", "ntail"),
    );
    nl.add_mos(
        Mos::new("MIN", MosType::Nmos, 0.5, 0.5, DeviceRole::CmpInputMinus)
            .with_nodes("nout1", "inn", "ntail"),
    );
    nl.add_mos(
        Mos::new("MMD", MosType::Pmos, 0.5, 0.5, DeviceRole::CmpMirrorDiode)
            .with_nodes("ndiode", "ndiode", "vdd"),
    );
    nl.add_mos(
        Mos::new("MMO", MosType::Pmos, 0.5, 0.5, DeviceRole::CmpMirrorOut)
            .with_nodes("nout1", "ndiode", "vdd"),
    );
    nl.add_mos(
        Mos::new("MT", MosType::Nmos, 0.5, 0.5, DeviceRole::CmpTail)
            .with_nodes("ntail", "vbn", "gnd"),
    );
    nl.add_mos(
        Mos::new("MOP", MosType::Pmos, 0.5, 0.13, DeviceRole::CmpOutInvP)
            .with_nodes("outq", "nout1", "vdd"),
    );
    nl.add_mos(
        Mos::new("MON", MosType::Nmos, 0.5, 0.13, DeviceRole::CmpOutInvN)
            .with_nodes("outq", "nout1", "gnd"),
    );
    nl
}

/// The CP-BIST window comparator of Fig. 9 (test circuitry): two
/// comparators with the 1 µ / 0.2 µ programmed-offset devices.
pub fn cp_bist_comparator() -> Netlist {
    let mut nl = Netlist::new("cp-bist-comparator");
    for half in 0..2u8 {
        let tag = if half == 0 { "H" } else { "L" };
        let devs: [(&str, MosType, f64, f64, DeviceRole); 8] = [
            ("MIP", MosType::Nmos, 1.0, 0.2, DeviceRole::CmpInputPlus),
            ("MIN", MosType::Nmos, 0.2, 1.0, DeviceRole::CmpInputMinus),
            ("MMD", MosType::Pmos, 0.5, 0.5, DeviceRole::CmpMirrorDiode),
            ("MMO", MosType::Pmos, 0.5, 0.5, DeviceRole::CmpMirrorOut),
            ("MT", MosType::Nmos, 0.5, 0.5, DeviceRole::CmpTail),
            ("MCK", MosType::Nmos, 0.5, 0.13, DeviceRole::CmpClockSwitch),
            ("MOP", MosType::Pmos, 0.5, 0.13, DeviceRole::CmpOutInvP),
            ("MON", MosType::Nmos, 0.5, 0.13, DeviceRole::CmpOutInvN),
        ];
        for (name, t, w, l, role) in devs {
            nl.add_mos(Mos::new(format!("{name}_{tag}"), t, w, l, role).with_instance(half));
        }
    }
    nl
}

/// All functional analog blocks — the paper's structural fault universe.
pub fn functional_netlists() -> Vec<(BlockKind, Netlist)> {
    vec![
        (BlockKind::TxDriver, tx_driver()),
        (BlockKind::Termination, termination()),
        (BlockKind::RxBias, rx_bias()),
        (BlockKind::WindowComparator, window_comparator()),
        (BlockKind::WeakChargePump, weak_charge_pump()),
        (BlockKind::StrongChargePump, strong_charge_pump()),
        (BlockKind::Vcdl, vcdl()),
    ]
}

/// The DFT test-circuitry blocks (for overhead accounting; excluded from
/// the functional fault universe).
pub fn test_circuit_netlists() -> Vec<(BlockKind, Netlist)> {
    vec![
        (BlockKind::DcTestComparator, dc_test_comparator()),
        (BlockKind::CpBistComparator, cp_bist_comparator()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use msim::effects::resolve_effect;
    use msim::fault::FaultUniverse;
    use msim::params::DesignParams;

    #[test]
    fn documented_device_counts() {
        assert_eq!(tx_driver().mos_count(), 40);
        assert_eq!(tx_driver().capacitor_count(), 4);
        assert_eq!(termination().mos_count(), 12);
        assert_eq!(termination().capacitor_count(), 3);
        assert_eq!(rx_bias().mos_count(), 4);
        assert_eq!(window_comparator().mos_count(), 16);
        assert_eq!(weak_charge_pump().mos_count(), 13);
        assert_eq!(weak_charge_pump().capacitor_count(), 2);
        assert_eq!(strong_charge_pump().mos_count(), 4);
        assert_eq!(vcdl().mos_count(), 10);
    }

    #[test]
    fn universe_size() {
        let blocks = functional_netlists();
        let mos: usize = blocks.iter().map(|(_, n)| n.mos_count()).sum();
        let caps: usize = blocks.iter().map(|(_, n)| n.capacitor_count()).sum();
        assert_eq!(mos, 99);
        assert_eq!(caps, 9);
        let u = FaultUniverse::enumerate(blocks.iter().map(|(b, n)| (*b, n)));
        assert_eq!(u.len(), mos * 6 + caps);
    }

    #[test]
    fn every_functional_fault_resolves() {
        // The resolver must have a mapping for every enumerated fault
        // (panics mean a role/block mismatch in the netlists).
        let p = DesignParams::paper();
        let blocks = functional_netlists();
        let u = FaultUniverse::enumerate(blocks.iter().map(|(b, n)| (*b, n)));
        for f in &u {
            let _ = resolve_effect(f, &p);
        }
    }

    #[test]
    fn test_circuitry_marked() {
        let test: Vec<BlockKind> = test_circuit_netlists().iter().map(|(b, _)| *b).collect();
        assert_eq!(
            test,
            [BlockKind::DcTestComparator, BlockKind::CpBistComparator]
        );
        assert!(test.iter().all(|b| b.is_test_circuitry()));
        for (b, _) in functional_netlists() {
            assert!(!b.is_test_circuitry(), "{b} misclassified");
        }
    }

    #[test]
    fn fig5_netlist_connectivity_is_closed() {
        let nl = dc_test_comparator();
        assert!(
            nl.dangling_nodes().is_empty(),
            "dangling: {:?}",
            nl.dangling_nodes()
        );
        let spice = nl.to_spice();
        assert!(spice.contains("MIP ndiode inp ntail gnd NMOS W=0.8u L=0.5u"));
        assert!(spice.contains("MMD ndiode ndiode vdd vdd PMOS"));
        // Every device appears.
        for name in ["MIP", "MIN", "MMD", "MMO", "MT", "MOP", "MON"] {
            assert!(spice.contains(name), "{name} missing from export");
        }
    }

    #[test]
    fn fig6_window_comparator_connectivity_is_closed() {
        let nl = window_comparator();
        assert!(
            nl.dangling_nodes().is_empty(),
            "dangling: {:?}",
            nl.dangling_nodes()
        );
        let spice = nl.to_spice();
        // Both halves present with per-half internal nodes.
        assert!(spice.contains("MCK_H ntail_H clk nsw_H gnd NMOS"));
        assert!(spice.contains("MCK_L ntail_L clk nsw_L gnd NMOS"));
    }

    #[test]
    fn symbolic_blocks_export_role_placeholders() {
        let spice = tx_driver().to_spice();
        assert!(spice.contains("* block: tx-driver"));
        assert!(spice.contains("role=tx-input+"));
    }

    #[test]
    fn comparator_offset_sizing_from_paper() {
        // Fig. 5: the input pair is deliberately mismatched 0.8µ vs 0.5µ.
        let nl = dc_test_comparator();
        let plus = &nl.devices()[0];
        let minus = &nl.devices()[1];
        assert!(plus.as_mos().unwrap().w_um() > minus.as_mos().unwrap().w_um());
    }

    #[test]
    fn window_halves_are_tagged() {
        let nl = window_comparator();
        let h: usize = nl.devices().iter().filter(|d| d.instance() == 0).count();
        let l: usize = nl.devices().iter().filter(|d| d.instance() == 1).count();
        assert_eq!(h, 8);
        assert_eq!(l, 8);
    }
}
