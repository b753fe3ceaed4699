//! Failure-injection integration tests: specific named structural faults
//! driven end-to-end through the full flow, asserting the exact tier
//! verdicts the architecture predicts for each, and that the fault
//! campaign records the same verdicts.

use dft::bist::Bist;
use dft::campaign::{FaultCampaign, TierVerdict};
use dft::dc_test::DcTest;
use dft::scan_test::ScanTest;
use msim::effects::resolve_effect;
use msim::fault::{Fault, FaultKind, MosFault};
use msim::netlist::{BlockKind, DeviceRole};
use msim::params::DesignParams;

struct Tiers {
    dc: DcTest,
    scan: ScanTest,
    bist: Bist,
}

impl Tiers {
    fn new(p: &DesignParams) -> Tiers {
        Tiers {
            dc: DcTest::new(p),
            scan: ScanTest::new(p),
            bist: Bist::new(p),
        }
    }

    fn verdict(&self, p: &DesignParams, fault: &Fault) -> TierVerdict {
        let e = resolve_effect(fault, p);
        TierVerdict {
            dc: self.dc.detects(&e),
            scan: self.scan.detects(&e),
            bist: self.bist.detects(&e),
        }
    }
}

fn find_fault(block: BlockKind, role: DeviceRole, kind: FaultKind, instance: u8) -> Fault {
    let blocks = link::netlists::functional_netlists();
    let universe = msim::fault::FaultUniverse::enumerate(blocks.iter().map(|(b, n)| (*b, n)));
    let fault = universe
        .iter()
        .find(|f| f.block == block && f.role == role && f.kind == kind && f.instance == instance)
        .copied();
    fault.unwrap_or_else(|| panic!("{block}/{role}[{instance}] {kind} not in universe"))
}

#[test]
fn tx_input_gate_open_fails_everything() {
    // A dead TX input arm: visible at DC, while toggling, and at speed.
    let p = DesignParams::paper();
    let f = find_fault(
        BlockKind::TxDriver,
        DeviceRole::TxInputPlus,
        FaultKind::Mos(MosFault::GateOpen),
        0,
    );
    let sig = Tiers::new(&p).verdict(&p, &f);
    assert_eq!(
        sig,
        TierVerdict {
            dc: true,
            scan: true,
            bist: true
        }
    );
}

#[test]
fn termination_tg_drain_open_is_scan_only_entry() {
    // The paper's §II.A example fault, end to end: invisible at DC,
    // caught by the 100 MHz toggling check. (A 21 mV dynamic mismatch
    // also erodes the at-speed eye, so the BIST sees it too — the tiers
    // intersect, exactly as §I says.)
    let p = DesignParams::paper();
    let f = find_fault(
        BlockKind::Termination,
        DeviceRole::TermTgNmos,
        FaultKind::Mos(MosFault::DrainOpen),
        0,
    );
    let sig = Tiers::new(&p).verdict(&p, &f);
    assert!(!sig.dc, "must be DC-invisible");
    assert!(sig.scan, "must be caught while toggling");
}

#[test]
fn weak_source_ds_short_is_bist_only() {
    // The paper's flagship masked fault.
    let p = DesignParams::paper();
    let f = find_fault(
        BlockKind::WeakChargePump,
        DeviceRole::CpSourceP,
        FaultKind::Mos(MosFault::DrainSourceShort),
        0,
    );
    let sig = Tiers::new(&p).verdict(&p, &f);
    assert_eq!(
        sig,
        TierVerdict {
            dc: false,
            scan: false,
            bist: true
        }
    );
}

#[test]
fn window_comparator_stuck_is_scan_territory() {
    let p = DesignParams::paper();
    let f = find_fault(
        BlockKind::WindowComparator,
        DeviceRole::CmpInputPlus,
        FaultKind::Mos(MosFault::DrainOpen),
        0,
    );
    let sig = Tiers::new(&p).verdict(&p, &f);
    assert!(!sig.dc);
    assert!(sig.scan, "window stuck must be caught by the capture FFs");
}

#[test]
fn vcdl_dead_stage_is_bist_only() {
    let p = DesignParams::paper();
    let f = find_fault(
        BlockKind::Vcdl,
        DeviceRole::VcdlInvP,
        FaultKind::Mos(MosFault::DrainOpen),
        0,
    );
    let sig = Tiers::new(&p).verdict(&p, &f);
    assert_eq!(
        sig,
        TierVerdict {
            dc: false,
            scan: false,
            bist: true
        }
    );
}

#[test]
fn ffe_cap_short_caught_at_dc() {
    let p = DesignParams::paper();
    let f = find_fault(
        BlockKind::TxDriver,
        DeviceRole::FfeCapMain,
        FaultKind::CapShort,
        0,
    );
    let sig = Tiers::new(&p).verdict(&p, &f);
    assert!(sig.dc, "a shorted series capacitor is a gross DC defect");
}

#[test]
fn diode_gd_short_escapes_everything() {
    // The honest undetectable: gate-drain short on the diode-connected
    // mirror reference.
    let p = DesignParams::paper();
    let f = find_fault(
        BlockKind::TxDriver,
        DeviceRole::TxBiasMirror,
        FaultKind::Mos(MosFault::GateDrainShort),
        0,
    );
    let sig = Tiers::new(&p).verdict(&p, &f);
    assert_eq!(
        sig,
        TierVerdict {
            dc: false,
            scan: false,
            bist: false
        },
        "structurally invisible fault must escape"
    );
}

#[test]
fn injected_verdicts_match_the_campaign_records() {
    // The campaign decides each fault through its effect class; the
    // verdict it records must equal the one measured on the fault alone.
    let p = DesignParams::paper();
    let result = FaultCampaign::new(&p).run();
    let tiers = Tiers::new(&p);
    let cases = [
        (
            BlockKind::TxDriver,
            DeviceRole::TxInputPlus,
            FaultKind::Mos(MosFault::GateOpen),
        ),
        (
            BlockKind::Termination,
            DeviceRole::TermTgNmos,
            FaultKind::Mos(MosFault::DrainOpen),
        ),
        (
            BlockKind::WeakChargePump,
            DeviceRole::CpSourceP,
            FaultKind::Mos(MosFault::DrainSourceShort),
        ),
        (
            BlockKind::WindowComparator,
            DeviceRole::CmpInputPlus,
            FaultKind::Mos(MosFault::DrainOpen),
        ),
        (
            BlockKind::Vcdl,
            DeviceRole::VcdlInvP,
            FaultKind::Mos(MosFault::DrainOpen),
        ),
        (
            BlockKind::TxDriver,
            DeviceRole::FfeCapMain,
            FaultKind::CapShort,
        ),
        (
            BlockKind::TxDriver,
            DeviceRole::TxBiasMirror,
            FaultKind::Mos(MosFault::GateDrainShort),
        ),
    ];
    for (block, role, kind) in cases {
        let f = find_fault(block, role, kind, 0);
        let measured = tiers.verdict(&p, &f);
        let rec = result
            .records()
            .iter()
            .find(|r| r.fault == f)
            .unwrap_or_else(|| panic!("{block}/{role} {kind} has no campaign record"));
        assert_eq!(
            (rec.dc, rec.scan, rec.bist),
            (measured.dc, measured.scan, measured.bist),
            "{block}/{role} {kind}: campaign record disagrees with the injected verdict"
        );
    }
}
