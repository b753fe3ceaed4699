//! Behavioral fault-effect resolution.
//!
//! The bridge between the *structural* fault model ([`crate::fault`]) and
//! the *behavioral* link simulation: every `(block, device-role, fault
//! kind)` triple is mapped to an [`AnalogEffect`] by first-order circuit
//! reasoning over the schematics of the paper's Figs. 3–9. The campaign
//! engine in the `dft` crate applies the resolved effect to a behavioral
//! link model and then *simulates* each test tier — detection is decided by
//! the simulated comparator thresholds, window dynamics and lock behavior,
//! never by pattern-matching on the effect itself.
//!
//! The reasoning for each mapping is documented inline. Three recurring
//! first-order arguments:
//!
//! * **Opens** on a series path kill the path (strong effect); opens on a
//!   gate leave the device floating, which we model as a drifted partial
//!   effect (the classic weakly-conducting floating-gate behaviour) — this
//!   is why the paper's *gate open* row has the lowest coverage.
//! * **Gate–source shorts** turn an enhancement MOS hard off and
//!   **drain–source shorts** bypass the channel entirely: both are gross,
//!   which is why those Table I rows reach 100 %.
//! * **Gate–drain shorts** diode-connect the device. On an already
//!   diode-connected mirror device this is *no structural change at all*
//!   ([`AnalogEffect::None`]) — an honest undetectable fault — and on other
//!   devices it yields a parametric shift that may fall below detection
//!   thresholds, which is why the paper's gate–drain row sits below 100 %.
//!
//! # Examples
//!
//! ```
//! use msim::effects::{resolve_effect, AnalogEffect};
//! use msim::fault::{Fault, FaultKind, MosFault};
//! use msim::netlist::{BlockKind, DeviceId, DeviceRole};
//! use msim::params::DesignParams;
//!
//! let p = DesignParams::paper();
//! let f = Fault {
//!     block: BlockKind::TxDriver,
//!     device: DeviceId(0),
//!     role: DeviceRole::TxInputPlus,
//!     instance: 0,
//!     kind: FaultKind::Mos(MosFault::GateSourceShort),
//! };
//! // A dead transmitter input arm produces a full half-swing imbalance.
//! match resolve_effect(&f, &p) {
//!     AnalogEffect::ArmImbalance { dv } => assert!(dv.mv() >= 30.0 - 1e-9),
//!     other => panic!("unexpected effect {other:?}"),
//! }
//! ```

use std::fmt;

use crate::fault::{Fault, FaultKind, MosFault};
use crate::netlist::{BlockKind, DeviceRole};
use crate::params::DesignParams;
use crate::units::Volt;

/// Which arm of the differential interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arm {
    /// Positive arm.
    Plus,
    /// Negative arm.
    Minus,
}

impl Arm {
    /// Decodes a netlist instance index (even ⇒ plus, odd ⇒ minus).
    pub fn from_instance(instance: u8) -> Arm {
        if instance.is_multiple_of(2) {
            Arm::Plus
        } else {
            Arm::Minus
        }
    }
}

/// Which half of the coarse-loop window comparator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowSide {
    /// The `VH` (upper threshold) comparator.
    High,
    /// The `VL` (lower threshold) comparator.
    Low,
}

impl WindowSide {
    /// Decodes a netlist instance index (0 ⇒ High, others ⇒ Low).
    pub fn from_instance(instance: u8) -> WindowSide {
        if instance == 0 {
            WindowSide::High
        } else {
            WindowSide::Low
        }
    }
}

/// Which charge pump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pump {
    /// Weak (fine-loop) pump.
    Weak,
    /// Strong (coarse-reset) pump.
    Strong,
}

/// Pumping direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PumpDir {
    /// Sources current into the loop filter (raises `Vc`).
    Up,
    /// Sinks current from the loop filter (lowers `Vc`).
    Down,
}

/// The behavioral consequence of one structural fault.
///
/// Magnitudes are absolute voltages (or dimensionless factors) derived from
/// the design point in [`DesignParams`]; the test tiers compare them against
/// the simulated detection thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum AnalogEffect {
    /// No first-order observable change (honestly undetectable fault).
    None,
    /// One line arm stuck at a rail.
    LineArmStuck {
        /// The stuck arm.
        arm: Arm,
        /// `true` if stuck high.
        high: bool,
    },
    /// Static differential error at the receiver input.
    ArmImbalance {
        /// Magnitude of the differential error.
        dv: Volt,
    },
    /// Differential error that appears only while the line toggles
    /// (e.g. a drain open in one transmission-gate half — the paper's
    /// example of a fault invisible at DC).
    DynamicImbalance {
        /// Magnitude of the toggling-mode differential error.
        dv: Volt,
    },
    /// The line swing is scaled by `factor` (tail/bias faults).
    SwingScale {
        /// Multiplier on the nominal swing (0 ⇒ dead driver).
        factor: f64,
    },
    /// A shorted series/coupling capacitor shifts the receiver DC point.
    CouplingDcShift {
        /// DC shift at the receiver input.
        dv: Volt,
    },
    /// Both arms shift together (termination / driver common-mode fault);
    /// observed by the window comparator's bias comparison.
    CommonModeShift {
        /// Common-mode shift magnitude.
        dv: Volt,
    },
    /// The receiver-side bias generator output is shifted.
    BiasShift {
        /// Bias error magnitude.
        dv: Volt,
    },
    /// The transmit data path up to the FFE capacitor plates is stuck:
    /// the line never changes state (one DC vector reads wrong) and the
    /// paper's added probe flip-flops capture the stuck plate in scan
    /// chain A.
    DataPathStuck,
    /// A window-comparator half has its output stuck.
    WindowStuck {
        /// Which half.
        side: WindowSide,
        /// Stuck-at value.
        output: bool,
    },
    /// A window-comparator threshold is shifted by `dv` (signed: positive
    /// widens the window on that side).
    WindowThresholdShift {
        /// Which half.
        side: WindowSide,
        /// Signed threshold shift.
        dv: Volt,
    },
    /// A charge pump can no longer pump in `dir`.
    CpDead {
        /// Which pump.
        pump: Pump,
        /// Dead direction.
        dir: PumpDir,
    },
    /// A charge pump leaks constantly in `dir` even when idle.
    CpAlwaysOn {
        /// Which pump.
        pump: Pump,
        /// Leak direction.
        dir: PumpDir,
    },
    /// Pump current scaled by `factor` when active. A drain–source short
    /// on a current-source device removes current control entirely
    /// (`factor ≫ 1`); in scan mode the sources are biased as switches so
    /// this fault is *masked* during scan — exactly the paper's narrative —
    /// and must be caught at speed by the BIST.
    CpCurrentScale {
        /// Which pump.
        pump: Pump,
        /// Affected direction.
        dir: PumpDir,
        /// Current multiplier.
        factor: f64,
    },
    /// The charge-balance node `Vp` settles `dv` away from nominal
    /// (signed; positive toward VDD). Watched by the CP-BIST window.
    CpBalanceDrift {
        /// Signed settling error of `Vp`.
        dv: Volt,
    },
    /// Loop-filter capacitor shorted: `Vc` is pinned to ground.
    LoopCapShort,
    /// The VCDL/sampling-clock path is dead (no sampling clock).
    ClockPathDead,
    /// The sampling clock is degraded (duty/edge distortion). `severity`
    /// in `[0, 1]`; above ~0.5 the eye margin is consumed and the BIST
    /// data check fails.
    ClockDegraded {
        /// Degradation severity in `[0, 1]`.
        severity: f64,
    },
    /// The VCDL delay is frozen at `frac` of its range: the fine loop is
    /// dead and the coarse loop limit-cycles.
    VcdlStuck {
        /// Frozen position within the nominal range.
        frac: f64,
    },
    /// The VCDL tuning range is scaled by `factor < 1`, opening dead zones
    /// between DLL phases when `factor * range < phase step`.
    VcdlRangeScale {
        /// Multiplier on the nominal range.
        factor: f64,
    },
}

impl fmt::Display for AnalogEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A total-order identity key for an [`AnalogEffect`]: the variant plus
/// the raw bits of every field.
///
/// Two effects share a key exactly when they are bit-for-bit the same
/// effect. Magnitudes one ulp apart, `0.0` and `-0.0`, and a NaN and any
/// other value all key apart, so grouping faults by key never merges two
/// effects a test tier could tell apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EffectKey {
    variant: u8,
    fields: [u64; 3],
}

impl AnalogEffect {
    /// This effect's [`EffectKey`].
    pub fn key(&self) -> EffectKey {
        use AnalogEffect as E;
        let v = |dv: Volt| dv.value().to_bits();
        let (variant, fields) = match *self {
            E::None => (0, [0; 3]),
            E::LineArmStuck { arm, high } => (1, [arm as u64, u64::from(high), 0]),
            E::ArmImbalance { dv } => (2, [v(dv), 0, 0]),
            E::DynamicImbalance { dv } => (3, [v(dv), 0, 0]),
            E::SwingScale { factor } => (4, [factor.to_bits(), 0, 0]),
            E::CouplingDcShift { dv } => (5, [v(dv), 0, 0]),
            E::CommonModeShift { dv } => (6, [v(dv), 0, 0]),
            E::BiasShift { dv } => (7, [v(dv), 0, 0]),
            E::DataPathStuck => (8, [0; 3]),
            E::WindowStuck { side, output } => (9, [side as u64, u64::from(output), 0]),
            E::WindowThresholdShift { side, dv } => (10, [side as u64, v(dv), 0]),
            E::CpDead { pump, dir } => (11, [pump as u64, dir as u64, 0]),
            E::CpAlwaysOn { pump, dir } => (12, [pump as u64, dir as u64, 0]),
            E::CpCurrentScale { pump, dir, factor } => {
                (13, [pump as u64, dir as u64, factor.to_bits()])
            }
            E::CpBalanceDrift { dv } => (14, [v(dv), 0, 0]),
            E::LoopCapShort => (15, [0; 3]),
            E::ClockPathDead => (16, [0; 3]),
            E::ClockDegraded { severity } => (17, [severity.to_bits(), 0, 0]),
            E::VcdlStuck { frac } => (18, [frac.to_bits(), 0, 0]),
            E::VcdlRangeScale { factor } => (19, [factor.to_bits(), 0, 0]),
        };
        EffectKey { variant, fields }
    }
}

/// Resolves one structural fault to its behavioral effect.
///
/// Dispatches on the device role transcribed from the paper's schematics.
/// Magnitudes scale with the design point `p` (swing, window, BIST window).
///
/// # Panics
///
/// Panics if the fault's role is not a member of its block (an internal
/// consistency error in the netlist builders — functional netlists are
/// constructed by this crate's consumers from the fixed role vocabulary).
pub fn resolve_effect(fault: &Fault, p: &DesignParams) -> AnalogEffect {
    match fault.kind {
        FaultKind::CapShort => resolve_cap_short(fault, p),
        FaultKind::Mos(mf) => match fault.block {
            BlockKind::TxDriver => resolve_tx(fault.role, fault.instance, mf, p),
            BlockKind::Termination => resolve_termination(fault.role, mf, p),
            BlockKind::RxBias => resolve_rx_bias(fault.role, fault.instance, mf, p),
            BlockKind::WindowComparator => {
                resolve_window_comparator(fault.role, fault.instance, mf, p)
            }
            BlockKind::WeakChargePump => {
                resolve_charge_pump(fault.role, fault.instance, mf, Pump::Weak, p)
            }
            BlockKind::StrongChargePump => {
                resolve_charge_pump(fault.role, fault.instance, mf, Pump::Strong, p)
            }
            BlockKind::Vcdl => resolve_vcdl(fault.role, fault.instance, mf),
            // Test circuitry is excluded from the functional fault universe;
            // resolving a fault there is a campaign construction error.
            BlockKind::DcTestComparator | BlockKind::CpBistComparator => {
                panic!("test circuitry is not part of the functional fault universe")
            }
        },
    }
}

/// Capacitor shorts. Series FFE and AC-coupling capacitors shorted create a
/// direct DC path for the full-swing pre-driver output onto the 60 mV line:
/// a massive DC disturbance, trivially caught by the DC test (Table I row
/// "Capacitor short": 100 %). The loop-filter cap short pins `Vc`; the
/// balance cap short pins `Vp`.
fn resolve_cap_short(fault: &Fault, p: &DesignParams) -> AnalogEffect {
    match fault.role {
        DeviceRole::FfeCapMain | DeviceRole::FfeCapFraction => AnalogEffect::CouplingDcShift {
            // Full-rail pre-driver level divides onto the line; orders of
            // magnitude above the 15 mV comparator margin.
            dv: p.supply / 4.0,
        },
        DeviceRole::CouplingCap => AnalogEffect::CouplingDcShift { dv: p.supply / 8.0 },
        DeviceRole::LoopFilterCap => AnalogEffect::LoopCapShort,
        DeviceRole::BalanceCap => AnalogEffect::CpBalanceDrift {
            dv: -(p.vp_nominal), // Vp pinned to ground
        },
        other => panic!("capacitor short on non-capacitor role {other:?}"),
    }
}

/// Transmitter (Fig. 3): pre-drivers, weak gm driver, tail/bias, line buffer.
///
/// The recurring open-vs-short asymmetry: the gm stage uses parallel
/// fingers, so a drain/source *open* isolates one finger (partial drive
/// loss — potentially below the comparator margin), while any *short*
/// corrupts the net it touches for every finger sharing it (gross).
fn resolve_tx(role: DeviceRole, instance: u8, mf: MosFault, p: &DesignParams) -> AnalogEffect {
    use DeviceRole::*;
    use MosFault::*;
    let arm = Arm::from_instance(instance);
    let half_swing = p.swing / 2.0;
    match role {
        // Pre-driver inverters carry the data to the FFE capacitor plates
        // (and onward to the weak driver): any defect freezes the data
        // path — one DC vector reads wrong AND the probe flip-flops see it.
        // A gate–drain short leaves the inverter at a fought-over mid
        // level, equally fatal to the data path.
        TxPreDrvP | TxPreDrvN => AnalogEffect::DataPathStuck,
        // Weak-driver differential input fingers.
        TxInputPlus | TxInputMinus => match mf {
            GateOpen => AnalogEffect::ArmImbalance { dv: half_swing },
            // One of two fingers isolated: 40 % drive loss on that arm —
            // 12 mV, inside the 15 mV comparator margin (the drain/source
            // open escapes of Table I).
            DrainOpen | SourceOpen => AnalogEffect::ArmImbalance {
                dv: half_swing * 0.4,
            },
            GateDrainShort => AnalogEffect::ArmImbalance {
                dv: half_swing * 0.7,
            },
            // Shorts hit the shared gate/source nets: the whole arm dies.
            GateSourceShort | DrainSourceShort => AnalogEffect::ArmImbalance { dv: half_swing },
        },
        // Active-load fingers: a floating gate drifts one finger's current
        // mildly (gate-open escape); opens of a finger still unbalance
        // noticeably because the load sets the arm's output impedance.
        TxLoadPlus | TxLoadMinus => match mf {
            GateOpen => AnalogEffect::ArmImbalance {
                dv: half_swing * 0.4, // 12 mV < 15 mV margin: escapes
            },
            DrainOpen | SourceOpen => AnalogEffect::ArmImbalance {
                dv: half_swing * 0.67,
            },
            GateDrainShort => AnalogEffect::ArmImbalance {
                dv: half_swing * 0.67, // diode-connected load compresses the arm
            },
            GateSourceShort => AnalogEffect::ArmImbalance { dv: half_swing },
            DrainSourceShort => AnalogEffect::LineArmStuck { arm, high: true },
        },
        // Tail current source (two fingers): opens of one finger cost
        // ~half the swing (just below the margin — detected); shorting the
        // bias gate to the common-source node collapses the bias; a
        // drain–source short overdrives the pair and lifts the line common
        // mode, which the bias comparison flags.
        TxTail => match mf {
            GateOpen => AnalogEffect::SwingScale { factor: 0.4 },
            DrainOpen | SourceOpen => AnalogEffect::SwingScale { factor: 0.45 },
            GateDrainShort => AnalogEffect::SwingScale { factor: 0.3 },
            GateSourceShort => AnalogEffect::SwingScale { factor: 0.0 },
            DrainSourceShort => AnalogEffect::CommonModeShift {
                dv: Volt::from_mv(50.0),
            },
        },
        // Bias mirror: instance 0 is the diode-connected reference — its
        // gate–drain short is no structural change at all (the honest
        // undetectable of the gate–drain row); the cascode instance's
        // short collapses the bias.
        TxBiasMirror => match mf {
            GateOpen => AnalogEffect::SwingScale { factor: 0.4 },
            DrainOpen | SourceOpen | GateSourceShort => AnalogEffect::SwingScale { factor: 0.0 },
            GateDrainShort => {
                if instance == 0 {
                    AnalogEffect::None
                } else {
                    AnalogEffect::SwingScale { factor: 0.3 }
                }
            }
            DrainSourceShort => AnalogEffect::CommonModeShift {
                dv: Volt::from_mv(40.0),
            },
        },
        // Tapered line buffer: a dead stage floats/stalls its arm (static,
        // DC-visible); a gate–drain short leaves the inverter half-on with
        // a mid-level output fighting the weak driver.
        TxBufP | TxBufN => match mf {
            GateOpen => AnalogEffect::ArmImbalance { dv: half_swing },
            DrainOpen | SourceOpen => AnalogEffect::ArmImbalance { dv: half_swing },
            GateDrainShort => AnalogEffect::ArmImbalance {
                dv: half_swing * 0.8,
            },
            GateSourceShort => AnalogEffect::ArmImbalance { dv: half_swing },
            DrainSourceShort => AnalogEffect::LineArmStuck {
                arm,
                high: matches!(role, TxBufP),
            },
        },
        other => panic!("role {other:?} is not a TX-driver role"),
    }
}

/// Receiver termination (Fig. 4): transmission-gate resistors and the Vcm
/// network. The paper singles out the transmission-gate drain open as the
/// canonical *dynamic* mismatch — invisible at DC, caught by the clocked
/// window comparator with a toggling pattern at scan frequency.
fn resolve_termination(role: DeviceRole, mf: MosFault, p: &DesignParams) -> AnalogEffect {
    use DeviceRole::*;
    use MosFault::*;
    let half_swing = p.swing / 2.0;
    match role {
        TermTgNmos | TermTgPmos => match mf {
            // One TG half off: termination value drifts, a static mismatch
            // just above the comparator margin.
            GateOpen => AnalogEffect::ArmImbalance {
                dv: half_swing * 0.6, // 18 mV > 15 mV margin
            },
            // The paper's example: a drain/source open in one TG half only
            // disturbs the settling dynamics — no DC signature.
            DrainOpen | SourceOpen => AnalogEffect::DynamicImbalance {
                dv: half_swing * 0.7,
            },
            GateDrainShort | GateSourceShort => AnalogEffect::ArmImbalance {
                dv: half_swing * 0.85,
            },
            DrainSourceShort => AnalogEffect::ArmImbalance {
                dv: half_swing * 0.7,
            },
        },
        // Vcm network: triode MOS "resistors" with rail-tied gates. Any
        // short re-wires the divider (gross common-mode shift); opens
        // break it; a floating gate drifts the tap mildly but still past
        // the bias-comparison margin.
        TermBias => match mf {
            GateOpen => AnalogEffect::CommonModeShift {
                dv: Volt::from_mv(25.0),
            },
            DrainOpen | SourceOpen => AnalogEffect::CommonModeShift {
                dv: Volt::from_mv(300.0),
            },
            GateDrainShort => AnalogEffect::CommonModeShift {
                dv: Volt::from_mv(150.0),
            },
            GateSourceShort => AnalogEffect::CommonModeShift {
                dv: Volt::from_mv(200.0),
            },
            DrainSourceShort => AnalogEffect::CommonModeShift {
                dv: Volt::from_mv(150.0),
            },
        },
        other => panic!("role {other:?} is not a termination role"),
    }
}

/// Receiver-side voltage-divider bias generator, compared against the
/// clock-recovery-side generator by the window comparator (Fig. 4).
///
/// The stack's top device (instance 0) is diode-connected — its
/// gate–drain short is structurally invisible; on the remaining devices
/// the short re-wires the divider tap.
fn resolve_rx_bias(
    role: DeviceRole,
    instance: u8,
    mf: MosFault,
    _p: &DesignParams,
) -> AnalogEffect {
    use MosFault::*;
    assert!(
        role == DeviceRole::RxBiasDivider,
        "role {role:?} is not an RX-bias role"
    );
    match mf {
        GateOpen => AnalogEffect::BiasShift {
            dv: Volt::from_mv(25.0),
        },
        DrainOpen | SourceOpen => AnalogEffect::BiasShift {
            dv: Volt::from_mv(400.0),
        },
        GateDrainShort => {
            if instance == 0 {
                AnalogEffect::None // the diode-connected top of the stack
            } else {
                AnalogEffect::BiasShift {
                    dv: Volt::from_mv(150.0),
                }
            }
        }
        GateSourceShort => AnalogEffect::BiasShift {
            dv: Volt::from_mv(300.0),
        },
        DrainSourceShort => AnalogEffect::BiasShift {
            dv: Volt::from_mv(200.0),
        },
    }
}

/// Window comparator of the coarse loop (Fig. 6): two clocked comparators
/// with ±15 mV programmed offsets. Gross faults pin one half's output
/// (caught by the scan capture flip-flops when `Vc` is driven to the
/// rails); parametric faults shift a threshold (only observable through
/// lock behaviour, if at all).
fn resolve_window_comparator(
    role: DeviceRole,
    instance: u8,
    mf: MosFault,
    _p: &DesignParams,
) -> AnalogEffect {
    use DeviceRole::*;
    use MosFault::*;
    let side = WindowSide::from_instance(instance);
    let stuck = |output| AnalogEffect::WindowStuck { side, output };
    let shift = |mv: f64| AnalogEffect::WindowThresholdShift {
        side,
        dv: Volt::from_mv(mv),
    };
    match role {
        // Input devices: shorts wire the comparator input straight into
        // the decision node (output follows the input: gross); opens kill
        // the stage.
        CmpInputPlus | CmpInputMinus => match mf {
            GateOpen | DrainOpen | SourceOpen => stuck(false),
            GateDrainShort | GateSourceShort | DrainSourceShort => stuck(true),
        },
        CmpMirrorDiode => match mf {
            GateOpen | DrainOpen | SourceOpen | GateSourceShort => stuck(false),
            GateDrainShort => AnalogEffect::None, // already diode-connected
            DrainSourceShort => stuck(true),
        },
        // Mirror output: a floating gate only shifts the decision point
        // (parametric gate-open escape); everything else kills or pins the
        // high-impedance decision node.
        CmpMirrorOut => match mf {
            GateOpen => shift(-80.0),
            DrainOpen | SourceOpen | GateSourceShort | GateDrainShort => stuck(false),
            DrainSourceShort => stuck(true),
        },
        CmpTail => match mf {
            GateOpen | DrainOpen | SourceOpen | GateSourceShort | GateDrainShort => stuck(false),
            DrainSourceShort => stuck(true),
        },
        CmpClockSwitch => match mf {
            GateOpen | DrainOpen | SourceOpen | GateSourceShort => stuck(false),
            // The clock net shorted into the comparator core: fires on
            // every clock edge.
            GateDrainShort | DrainSourceShort => stuck(true),
        },
        CmpOutInvP => match mf {
            GateOpen => stuck(true),
            DrainOpen | SourceOpen | GateSourceShort => stuck(false),
            GateDrainShort => stuck(true), // mid-level output reads as asserted
            DrainSourceShort => stuck(true),
        },
        CmpOutInvN => match mf {
            GateOpen => stuck(false),
            DrainOpen | SourceOpen | GateSourceShort => stuck(true),
            GateDrainShort => stuck(true),
            DrainSourceShort => stuck(false),
        },
        other => panic!("role {other:?} is not a window-comparator role"),
    }
}

/// Charge pumps (Fig. 8). The scan test converts the pump to a
/// combinational element by tying the current-source biases to the rails,
/// so *switch* defects and dead paths are scan-visible, while a
/// drain–source short on a *current source* is indistinguishable from the
/// scan configuration itself (masked) and must be caught at speed — the
/// paper's key observation. The charge-balancing arm and its amplifier are
/// outside the scanned path entirely; their faults surface as a drift of
/// the balance node `Vp`, watched by the 150 mV CP-BIST window.
fn resolve_charge_pump(
    role: DeviceRole,
    instance: u8,
    mf: MosFault,
    pump: Pump,
    p: &DesignParams,
) -> AnalogEffect {
    use DeviceRole::*;
    use MosFault::*;
    let drift = |mv: f64| AnalogEffect::CpBalanceDrift {
        dv: Volt::from_mv(mv),
    };
    match role {
        CpSwitchUp | CpSwitchDn => {
            let dir = if role == CpSwitchUp {
                PumpDir::Up
            } else {
                PumpDir::Down
            };
            match mf {
                GateOpen | DrainOpen | SourceOpen | GateSourceShort => {
                    AnalogEffect::CpDead { pump, dir }
                }
                // Gate–drain short couples the digital control onto the loop
                // filter; drain–source short leaves the path permanently
                // conducting. Both leak constantly.
                GateDrainShort | DrainSourceShort => AnalogEffect::CpAlwaysOn { pump, dir },
            }
        }
        CpSourceP | CpSinkN => {
            let dir = if role == CpSourceP {
                PumpDir::Up
            } else {
                PumpDir::Down
            };
            match mf {
                // With a floating or disconnected bias the source delivers
                // nothing — and tying the bias to the rail in scan mode
                // cannot revive it, so the scan combinational check fails.
                GateOpen | DrainOpen | SourceOpen | GateSourceShort => {
                    AnalogEffect::CpDead { pump, dir }
                }
                // Bias gate shorted to the switched drain node: the bias
                // is corrupted whenever the pump fires. In the weak pump
                // the replica arm no longer matches (Vp drifts past the
                // CP-BIST window); in the strong pump the reset current is
                // uncontrolled and overshoots.
                GateDrainShort => match pump {
                    Pump::Weak => AnalogEffect::CpBalanceDrift {
                        dv: match dir {
                            PumpDir::Up => Volt::from_mv(120.0),
                            PumpDir::Down => Volt::from_mv(-120.0),
                        },
                    },
                    Pump::Strong => AnalogEffect::CpCurrentScale {
                        pump,
                        dir,
                        factor: 5.0,
                    },
                },
                // The masked fault: channel bypassed, current no longer
                // bias-controlled. In the weak pump the balancing replica
                // can no longer match the main source, so the balance node
                // `Vp` settles far off nominal (CP-BIST observable); in the
                // strong pump each reset overshoots the entire window and
                // the lock detector saturates. Both paths are exactly the
                // paper's "masked in scan, caught by BIST" narrative.
                DrainSourceShort => match pump {
                    Pump::Weak => AnalogEffect::CpBalanceDrift {
                        dv: match dir {
                            PumpDir::Up => Volt::from_mv(250.0),
                            PumpDir::Down => Volt::from_mv(-250.0),
                        },
                    },
                    Pump::Strong => AnalogEffect::CpCurrentScale {
                        pump,
                        dir,
                        factor: 20.0,
                    },
                },
            }
        }
        CpBalanceSwitch => match mf {
            GateOpen | DrainOpen | SourceOpen => drift(400.0),
            GateDrainShort => drift(100.0),
            GateSourceShort => drift(350.0),
            DrainSourceShort => drift(300.0),
        },
        CpBalanceSource => match mf {
            GateOpen => drift(80.0),
            DrainOpen | SourceOpen => drift(400.0),
            GateDrainShort => drift(90.0),
            GateSourceShort => drift(350.0),
            DrainSourceShort => drift(300.0),
        },
        CpAmpInput => match mf {
            GateOpen => drift(250.0),
            DrainOpen | SourceOpen => drift(300.0),
            GateDrainShort => drift(80.0),
            GateSourceShort => drift(250.0),
            DrainSourceShort => drift(200.0),
        },
        CpAmpMirror => match mf {
            GateOpen => drift(200.0),
            DrainOpen | SourceOpen => drift(250.0),
            // One mirror device is the diode: no structural change. The
            // mirror-out instance's short pins the amplifier output.
            GateDrainShort => {
                if instance == 0 {
                    AnalogEffect::None
                } else {
                    drift(90.0)
                }
            }
            GateSourceShort => drift(200.0),
            DrainSourceShort => drift(180.0),
        },
        // The amplifier tail: its loss only degrades the servo gain — the
        // replica bias still holds Vp near nominal, so the milder faults
        // settle inside the CP-BIST window (open-class escapes).
        CpAmpTail => match mf {
            GateOpen => drift(70.0),
            DrainOpen | SourceOpen => drift(70.0),
            GateDrainShort => drift(85.0),
            GateSourceShort => drift(180.0),
            DrainSourceShort => drift(160.0),
        },
        other => {
            // The strong pump has no balance arm; any other role is a
            // netlist construction error.
            let _ = p;
            panic!("role {other:?} is not a charge-pump role")
        }
    }
}

/// Voltage-controlled delay line. Not reachable by scan (it sits in the
/// clock path); every detection here must come from the at-speed BIST —
/// either the lock detector (fine loop dead ⇒ coarse limit cycle) or the
/// retimed-data check (clock path dead/degraded).
fn resolve_vcdl(role: DeviceRole, instance: u8, mf: MosFault) -> AnalogEffect {
    use DeviceRole::*;
    use MosFault::*;
    match role {
        VcdlInvP | VcdlInvN => match mf {
            GateOpen | DrainOpen | SourceOpen | GateSourceShort => AnalogEffect::ClockPathDead,
            GateDrainShort => AnalogEffect::ClockDegraded { severity: 0.7 },
            DrainSourceShort => AnalogEffect::ClockDegraded { severity: 0.8 },
        },
        VcdlStarveN | VcdlStarveP => match mf {
            // Starve gate floating: that stage's contribution to the range
            // is lost — a dead zone opens only if the residual range drops
            // below one DLL phase step for the actual eye position.
            GateOpen => AnalogEffect::VcdlRangeScale { factor: 0.72 },
            DrainOpen | SourceOpen | GateSourceShort => AnalogEffect::ClockPathDead,
            // The control net shorted into the delay stage: data-dependent
            // modulation of the stage delay — heavy deterministic jitter.
            GateDrainShort => AnalogEffect::ClockDegraded { severity: 0.65 },
            DrainSourceShort => AnalogEffect::ClockDegraded { severity: 0.6 },
        },
        VcdlBias => match mf {
            // Control decoupled from the starve gates: fine loop dead,
            // frozen mid-range (which may sit near the eye center — the
            // jitter-dithered escape).
            GateOpen => AnalogEffect::VcdlStuck { frac: 0.5 },
            DrainOpen | SourceOpen | GateSourceShort => AnalogEffect::VcdlStuck { frac: 0.0 },
            GateDrainShort => {
                if instance == 0 {
                    // The diode-connected mirror reference: no change.
                    AnalogEffect::None
                } else {
                    AnalogEffect::VcdlStuck { frac: 0.0 }
                }
            }
            DrainSourceShort => AnalogEffect::VcdlStuck { frac: 1.0 },
        },
        other => panic!("role {other:?} is not a VCDL role"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::DeviceId;

    #[test]
    fn equal_effects_share_a_key() {
        let a = AnalogEffect::ArmImbalance {
            dv: Volt::from_mv(30.0),
        };
        assert_eq!(
            a.key(),
            AnalogEffect::ArmImbalance {
                dv: Volt::from_mv(30.0)
            }
            .key()
        );
        assert_eq!(AnalogEffect::None.key(), AnalogEffect::None.key());
        // Same field bits under another variant is another effect.
        assert_ne!(
            a.key(),
            AnalogEffect::DynamicImbalance {
                dv: Volt::from_mv(30.0)
            }
            .key()
        );
        assert_ne!(AnalogEffect::None.key(), AnalogEffect::DataPathStuck.key());
        let up = AnalogEffect::CpDead {
            pump: Pump::Weak,
            dir: PumpDir::Up,
        };
        let down = AnalogEffect::CpDead {
            pump: Pump::Weak,
            dir: PumpDir::Down,
        };
        assert_ne!(up.key(), down.key());
    }

    #[test]
    fn one_ulp_or_the_sign_of_zero_splits_keys() {
        let x: f64 = 0.03;
        let next = f64::from_bits(x.to_bits() + 1);
        assert_ne!(
            AnalogEffect::SwingScale { factor: x }.key(),
            AnalogEffect::SwingScale { factor: next }.key()
        );
        assert_ne!(
            AnalogEffect::BiasShift {
                dv: Volt::from_mv(x)
            }
            .key(),
            AnalogEffect::BiasShift {
                dv: Volt::from_mv(next)
            }
            .key()
        );
        // `==` calls the two zeros equal; the key does not.
        let (pos, neg) = (
            AnalogEffect::VcdlStuck { frac: 0.0 },
            AnalogEffect::VcdlStuck { frac: -0.0 },
        );
        assert_eq!(pos, neg);
        assert_ne!(pos.key(), neg.key());
    }

    #[test]
    fn a_nan_magnitude_keys_apart_from_every_other_effect() {
        let nan = AnalogEffect::ClockDegraded { severity: f64::NAN };
        for other in [
            AnalogEffect::ClockDegraded { severity: 0.0 },
            AnalogEffect::ClockDegraded { severity: 1.0 },
            AnalogEffect::ClockDegraded {
                severity: f64::INFINITY,
            },
            AnalogEffect::ClockDegraded {
                severity: -f64::NAN,
            },
            AnalogEffect::VcdlStuck { frac: f64::NAN },
            AnalogEffect::None,
        ] {
            assert_ne!(nan.key(), other.key(), "{other:?}");
        }
        // A NaN is never `==` itself, but a bit-identical NaN is the same
        // effect and keys the same.
        assert_eq!(nan.key(), nan.key());
    }

    fn fault(block: BlockKind, role: DeviceRole, instance: u8, kind: FaultKind) -> Fault {
        Fault {
            block,
            device: DeviceId(0),
            role,
            instance,
            kind,
        }
    }

    #[test]
    fn tx_input_shorts_are_gross_opens_are_partial() {
        // Shorts corrupt the shared gate/source nets (full half-swing
        // imbalance); a drain/source open only isolates one of the two
        // fingers (12 mV — inside the 15 mV comparator margin).
        let p = DesignParams::paper();
        for mf in MosFault::ALL {
            let f = fault(
                BlockKind::TxDriver,
                DeviceRole::TxInputPlus,
                0,
                FaultKind::Mos(mf),
            );
            match (mf, resolve_effect(&f, &p)) {
                (MosFault::DrainOpen | MosFault::SourceOpen, AnalogEffect::ArmImbalance { dv }) => {
                    assert!(dv.mv() < 15.0, "finger open should be partial: {dv}")
                }
                (_, AnalogEffect::ArmImbalance { dv }) => {
                    assert!(dv.mv() >= 20.0, "{mf} too weak: {dv}")
                }
                (_, other) => panic!("unexpected {other:?} for {mf}"),
            }
        }
    }

    #[test]
    fn diode_connected_gate_drain_shorts_are_undetectable() {
        // Only the genuinely diode-connected devices (instance 0 of the
        // mirror stacks, both window-comparator mirror diodes) yield
        // AnalogEffect::None — exactly the paper's gate–drain escape
        // budget. The non-diode instances of the same roles must resolve
        // to a real effect.
        let p = DesignParams::paper();
        let diode = [
            (BlockKind::TxDriver, DeviceRole::TxBiasMirror, 0u8),
            (BlockKind::RxBias, DeviceRole::RxBiasDivider, 0),
            (BlockKind::WindowComparator, DeviceRole::CmpMirrorDiode, 0),
            (BlockKind::WindowComparator, DeviceRole::CmpMirrorDiode, 1),
            (BlockKind::WeakChargePump, DeviceRole::CpAmpMirror, 0),
            (BlockKind::Vcdl, DeviceRole::VcdlBias, 0),
        ];
        for (block, role, inst) in diode {
            let f = fault(block, role, inst, FaultKind::Mos(MosFault::GateDrainShort));
            assert_eq!(
                resolve_effect(&f, &p),
                AnalogEffect::None,
                "{block}/{role}[{inst}] GD short should be structurally invisible"
            );
        }
        let non_diode = [
            (BlockKind::TxDriver, DeviceRole::TxBiasMirror, 1u8),
            (BlockKind::RxBias, DeviceRole::RxBiasDivider, 1),
            (BlockKind::Termination, DeviceRole::TermBias, 0),
            (BlockKind::WeakChargePump, DeviceRole::CpAmpMirror, 1),
            (BlockKind::Vcdl, DeviceRole::VcdlBias, 1),
        ];
        for (block, role, inst) in non_diode {
            let f = fault(block, role, inst, FaultKind::Mos(MosFault::GateDrainShort));
            assert_ne!(
                resolve_effect(&f, &p),
                AnalogEffect::None,
                "{block}/{role}[{inst}] GD short must have an effect"
            );
        }
    }

    #[test]
    fn tg_drain_open_is_dynamic_only() {
        // The paper's flagship example: drain open in a transmission-gate
        // half is invisible at DC.
        let p = DesignParams::paper();
        let f = fault(
            BlockKind::Termination,
            DeviceRole::TermTgNmos,
            0,
            FaultKind::Mos(MosFault::DrainOpen),
        );
        assert!(matches!(
            resolve_effect(&f, &p),
            AnalogEffect::DynamicImbalance { .. }
        ));
    }

    #[test]
    fn current_source_ds_short_is_scan_masked_class() {
        let p = DesignParams::paper();
        // Weak pump: the balance replica mismatch moves Vp outside the
        // 150 mV CP-BIST window.
        let f = fault(
            BlockKind::WeakChargePump,
            DeviceRole::CpSourceP,
            0,
            FaultKind::Mos(MosFault::DrainSourceShort),
        );
        match resolve_effect(&f, &p) {
            AnalogEffect::CpBalanceDrift { dv } => {
                assert!(dv.abs().mv() > p.cp_bist_window.mv() / 2.0)
            }
            other => panic!("unexpected {other:?}"),
        }
        // Strong pump: uncontrolled reset current overshoots the window.
        let f = fault(
            BlockKind::StrongChargePump,
            DeviceRole::CpSinkN,
            0,
            FaultKind::Mos(MosFault::DrainSourceShort),
        );
        match resolve_effect(&f, &p) {
            AnalogEffect::CpCurrentScale { factor, dir, pump } => {
                assert!(factor > 5.0);
                assert_eq!(dir, PumpDir::Down);
                assert_eq!(pump, Pump::Strong);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn balance_arm_faults_drift_vp() {
        let p = DesignParams::paper();
        let f = fault(
            BlockKind::WeakChargePump,
            DeviceRole::CpAmpInput,
            0,
            FaultKind::Mos(MosFault::DrainOpen),
        );
        match resolve_effect(&f, &p) {
            AnalogEffect::CpBalanceDrift { dv } => {
                assert!(dv.abs().mv() > p.cp_bist_window.mv() / 2.0)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gs_and_ds_shorts_never_resolve_to_none() {
        // Table I: gate–source and drain–source shorts are 100 % covered;
        // the resolver must never map them to AnalogEffect::None.
        let p = DesignParams::paper();
        let cases: Vec<(BlockKind, DeviceRole)> = vec![
            (BlockKind::TxDriver, DeviceRole::TxInputPlus),
            (BlockKind::TxDriver, DeviceRole::TxLoadMinus),
            (BlockKind::TxDriver, DeviceRole::TxTail),
            (BlockKind::TxDriver, DeviceRole::TxBiasMirror),
            (BlockKind::TxDriver, DeviceRole::TxPreDrvP),
            (BlockKind::TxDriver, DeviceRole::TxBufN),
            (BlockKind::Termination, DeviceRole::TermTgNmos),
            (BlockKind::Termination, DeviceRole::TermBias),
            (BlockKind::RxBias, DeviceRole::RxBiasDivider),
            (BlockKind::WindowComparator, DeviceRole::CmpInputPlus),
            (BlockKind::WindowComparator, DeviceRole::CmpMirrorDiode),
            (BlockKind::WindowComparator, DeviceRole::CmpOutInvN),
            (BlockKind::WeakChargePump, DeviceRole::CpSwitchUp),
            (BlockKind::WeakChargePump, DeviceRole::CpSourceP),
            (BlockKind::WeakChargePump, DeviceRole::CpAmpTail),
            (BlockKind::StrongChargePump, DeviceRole::CpSinkN),
            (BlockKind::Vcdl, DeviceRole::VcdlInvP),
            (BlockKind::Vcdl, DeviceRole::VcdlStarveN),
            (BlockKind::Vcdl, DeviceRole::VcdlBias),
        ];
        for (block, role) in cases {
            for mf in [MosFault::GateSourceShort, MosFault::DrainSourceShort] {
                let f = fault(block, role, 0, FaultKind::Mos(mf));
                assert_ne!(
                    resolve_effect(&f, &p),
                    AnalogEffect::None,
                    "{block}/{role} {mf} must have an effect"
                );
            }
        }
    }

    #[test]
    fn window_side_decoding() {
        let p = DesignParams::paper();
        let hi = fault(
            BlockKind::WindowComparator,
            DeviceRole::CmpInputPlus,
            0,
            FaultKind::Mos(MosFault::DrainOpen),
        );
        let lo = fault(
            BlockKind::WindowComparator,
            DeviceRole::CmpInputPlus,
            1,
            FaultKind::Mos(MosFault::DrainOpen),
        );
        assert!(matches!(
            resolve_effect(&hi, &p),
            AnalogEffect::WindowStuck {
                side: WindowSide::High,
                ..
            }
        ));
        assert!(matches!(
            resolve_effect(&lo, &p),
            AnalogEffect::WindowStuck {
                side: WindowSide::Low,
                ..
            }
        ));
    }

    #[test]
    fn arm_decoding() {
        assert_eq!(Arm::from_instance(0), Arm::Plus);
        assert_eq!(Arm::from_instance(1), Arm::Minus);
        assert_eq!(Arm::from_instance(2), Arm::Plus);
        assert_eq!(WindowSide::from_instance(0), WindowSide::High);
        assert_eq!(WindowSide::from_instance(3), WindowSide::Low);
    }

    #[test]
    fn ffe_cap_short_is_gross_dc_shift() {
        let p = DesignParams::paper();
        let f = Fault {
            block: BlockKind::TxDriver,
            device: DeviceId(0),
            role: DeviceRole::FfeCapMain,
            instance: 0,
            kind: FaultKind::CapShort,
        };
        match resolve_effect(&f, &p) {
            AnalogEffect::CouplingDcShift { dv } => assert!(dv.mv() > 100.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn loop_cap_short_pins_vc() {
        let p = DesignParams::paper();
        let f = Fault {
            block: BlockKind::WeakChargePump,
            device: DeviceId(0),
            role: DeviceRole::LoopFilterCap,
            instance: 0,
            kind: FaultKind::CapShort,
        };
        assert_eq!(resolve_effect(&f, &p), AnalogEffect::LoopCapShort);
    }

    #[test]
    #[should_panic(expected = "test circuitry")]
    fn test_circuitry_faults_panic() {
        let p = DesignParams::paper();
        let f = fault(
            BlockKind::DcTestComparator,
            DeviceRole::CmpTail,
            0,
            FaultKind::Mos(MosFault::GateOpen),
        );
        let _ = resolve_effect(&f, &p);
    }

    #[test]
    fn vcdl_detection_is_bist_only_class() {
        let p = DesignParams::paper();
        // Every VCDL effect must be one of the BIST-observable classes.
        for role in [
            DeviceRole::VcdlInvP,
            DeviceRole::VcdlInvN,
            DeviceRole::VcdlStarveN,
            DeviceRole::VcdlStarveP,
            DeviceRole::VcdlBias,
        ] {
            for mf in MosFault::ALL {
                let f = fault(BlockKind::Vcdl, role, 0, FaultKind::Mos(mf));
                let e = resolve_effect(&f, &p);
                assert!(
                    matches!(
                        e,
                        AnalogEffect::None
                            | AnalogEffect::ClockPathDead
                            | AnalogEffect::ClockDegraded { .. }
                            | AnalogEffect::VcdlStuck { .. }
                            | AnalogEffect::VcdlRangeScale { .. }
                    ),
                    "VCDL {role} {mf} resolved to non-BIST class {e:?}"
                );
            }
        }
    }
}
