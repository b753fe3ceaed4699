//! Transistor-level structural netlists.
//!
//! The paper's fault-coverage statistics are computed over the *structural
//! fault universe* of the analog blocks: every MOS device contributes six
//! faults (gate/drain/source open, gate–drain, gate–source and drain–source
//! shorts) and every capacitor contributes a short, following the structural
//! fault model of Kim & Soma used by the paper.
//!
//! We therefore carry, for every analog block of the link, a structural
//! [`Netlist`] transcribed from the paper's schematics (Figs. 3–9). The
//! netlist is *not* SPICE-simulated; it exists to
//!
//! 1. enumerate the fault universe ([`crate::fault`]),
//! 2. give every device a circuit [`DeviceRole`] from which the behavioral
//!    fault effect is resolved ([`crate::effects`]), and
//! 3. account for device counts (Table II of the paper).
//!
//! # Examples
//!
//! ```
//! use msim::netlist::{DeviceRole, Mos, MosType, Netlist};
//!
//! let mut nl = Netlist::new("toy");
//! nl.add_mos(Mos::new("M1", MosType::Nmos, 0.5, 0.5, DeviceRole::CmpInputPlus));
//! assert_eq!(nl.mos_count(), 1);
//! ```

use std::fmt;

/// MOS polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosType {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

impl fmt::Display for MosType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MosType::Nmos => write!(f, "NMOS"),
            MosType::Pmos => write!(f, "PMOS"),
        }
    }
}

/// The circuit role a device plays inside its block.
///
/// The behavioral fault-effect resolver dispatches on this role: a
/// drain–source short on a charge-pump switch has a completely different
/// link-level consequence than the same defect on a comparator input device.
/// Roles are transcribed from the paper's schematics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DeviceRole {
    // --- Transmitter (Fig. 3) ---
    /// Weak-driver differential input device, positive arm.
    TxInputPlus,
    /// Weak-driver differential input device, negative arm.
    TxInputMinus,
    /// Weak-driver active load, positive arm.
    TxLoadPlus,
    /// Weak-driver active load, negative arm.
    TxLoadMinus,
    /// Weak-driver tail current source.
    TxTail,
    /// Bias mirror feeding the weak-driver tail.
    TxBiasMirror,
    /// Feed-forward equalizer series capacitor, main tap (`Cs`).
    FfeCapMain,
    /// Feed-forward equalizer series capacitor, fractional tap (`αCs`).
    FfeCapFraction,
    /// Pre-driver inverter PMOS driving the FFE capacitor plates (the
    /// node probed by the paper's added scan flip-flops).
    TxPreDrvP,
    /// Pre-driver inverter NMOS driving the FFE capacitor plates.
    TxPreDrvN,
    /// Tapered line-buffer PMOS (absorbs the half-cycle test latch).
    TxBufP,
    /// Tapered line-buffer NMOS.
    TxBufN,

    // --- Receiver termination (Fig. 4) ---
    /// Transmission-gate termination resistor, NMOS half.
    TermTgNmos,
    /// Transmission-gate termination resistor, PMOS half.
    TermTgPmos,
    /// AC coupling capacitor at the receiver input.
    CouplingCap,
    /// Common-mode (Vcm) bias device at the termination.
    TermBias,
    /// Receiver-side voltage-divider bias generator device.
    RxBiasDivider,

    // --- Comparators (Figs. 5, 6, 9) ---
    /// Comparator input device, positive input.
    CmpInputPlus,
    /// Comparator input device, negative input (deliberately up-sized for
    /// the programmed offset in the paper's Fig. 5).
    CmpInputMinus,
    /// Current-mirror diode-connected load.
    CmpMirrorDiode,
    /// Current-mirror output load.
    CmpMirrorOut,
    /// Comparator tail current source (`Vbn` biased).
    CmpTail,
    /// Output inverter PMOS.
    CmpOutInvP,
    /// Output inverter NMOS.
    CmpOutInvN,
    /// Clock switch of a clocked (100 MHz) comparator.
    CmpClockSwitch,

    // --- Charge pumps (Fig. 8) ---
    /// UP switch of a charge pump.
    CpSwitchUp,
    /// DOWN switch of a charge pump.
    CpSwitchDn,
    /// PMOS current source (sources current into the loop filter).
    CpSourceP,
    /// NMOS current sink (sinks current out of the loop filter).
    CpSinkN,
    /// Switch in the charge-balancing replica arm.
    CpBalanceSwitch,
    /// Current source/sink of the charge-balancing replica arm.
    CpBalanceSource,
    /// Charge-balancing amplifier input device.
    CpAmpInput,
    /// Charge-balancing amplifier mirror device.
    CpAmpMirror,
    /// Charge-balancing amplifier tail source.
    CpAmpTail,
    /// Loop-filter capacitor on the control voltage `Vc`.
    LoopFilterCap,
    /// Smoothing capacitor on the charge-balance node `Vp`.
    BalanceCap,

    // --- Voltage-controlled delay line ---
    /// Delay-stage inverter PMOS.
    VcdlInvP,
    /// Delay-stage inverter NMOS.
    VcdlInvN,
    /// Current-starving NMOS (controlled by `Vc`).
    VcdlStarveN,
    /// Current-starving PMOS (controlled by the mirrored `Vc`).
    VcdlStarveP,
    /// Bias mirror translating `Vc` to the starve gates.
    VcdlBias,
}

impl DeviceRole {
    /// Short human-readable label used in reports.
    pub fn label(self) -> &'static str {
        use DeviceRole::*;
        match self {
            TxInputPlus => "tx-input+",
            TxInputMinus => "tx-input-",
            TxLoadPlus => "tx-load+",
            TxLoadMinus => "tx-load-",
            TxTail => "tx-tail",
            TxBiasMirror => "tx-bias-mirror",
            FfeCapMain => "ffe-cap-main",
            FfeCapFraction => "ffe-cap-frac",
            TxPreDrvP => "tx-predrv-p",
            TxPreDrvN => "tx-predrv-n",
            TxBufP => "tx-buf-p",
            TxBufN => "tx-buf-n",
            TermTgNmos => "term-tg-n",
            TermTgPmos => "term-tg-p",
            CouplingCap => "coupling-cap",
            TermBias => "term-bias",
            RxBiasDivider => "rx-bias-divider",
            CmpInputPlus => "cmp-input+",
            CmpInputMinus => "cmp-input-",
            CmpMirrorDiode => "cmp-mirror-diode",
            CmpMirrorOut => "cmp-mirror-out",
            CmpTail => "cmp-tail",
            CmpOutInvP => "cmp-outinv-p",
            CmpOutInvN => "cmp-outinv-n",
            CmpClockSwitch => "cmp-clock-switch",
            CpSwitchUp => "cp-switch-up",
            CpSwitchDn => "cp-switch-dn",
            CpSourceP => "cp-source-p",
            CpSinkN => "cp-sink-n",
            CpBalanceSwitch => "cp-balance-switch",
            CpBalanceSource => "cp-balance-source",
            CpAmpInput => "cp-amp-input",
            CpAmpMirror => "cp-amp-mirror",
            CpAmpTail => "cp-amp-tail",
            LoopFilterCap => "loop-filter-cap",
            BalanceCap => "balance-cap",
            VcdlInvP => "vcdl-inv-p",
            VcdlInvN => "vcdl-inv-n",
            VcdlStarveN => "vcdl-starve-n",
            VcdlStarveP => "vcdl-starve-p",
            VcdlBias => "vcdl-bias",
        }
    }
}

impl fmt::Display for DeviceRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Terminal connections of a MOS device (drain, gate, source), used for
/// the SPICE-style export of figure-faithful netlists. Blocks the paper
/// only shows symbolically stay role-annotated without node names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MosNodes {
    /// Drain node name.
    pub drain: String,
    /// Gate node name.
    pub gate: String,
    /// Source node name.
    pub source: String,
}

/// A MOS device in a structural netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Mos {
    name: String,
    mos_type: MosType,
    /// Drawn width in micrometres.
    w_um: f64,
    /// Drawn length in micrometres.
    l_um: f64,
    role: DeviceRole,
    instance: u8,
    nodes: Option<MosNodes>,
}

impl Mos {
    /// Creates a MOS device with instance index 0.
    ///
    /// # Panics
    ///
    /// Panics if `w_um` or `l_um` is not strictly positive.
    pub fn new(
        name: impl Into<String>,
        mos_type: MosType,
        w_um: f64,
        l_um: f64,
        role: DeviceRole,
    ) -> Mos {
        assert!(w_um > 0.0 && l_um > 0.0, "MOS dimensions must be positive");
        Mos {
            name: name.into(),
            mos_type,
            w_um,
            l_um,
            role,
            instance: 0,
            nodes: None,
        }
    }

    /// Sets the instance index, distinguishing replicated sub-circuits
    /// (e.g. the `VH` vs `VL` half of a window comparator, or the positive
    /// vs negative arm of a differential circuit).
    pub fn with_instance(mut self, instance: u8) -> Mos {
        self.instance = instance;
        self
    }

    /// Attaches terminal node names (drain, gate, source) for the
    /// SPICE-style export.
    pub fn with_nodes(
        mut self,
        drain: impl Into<String>,
        gate: impl Into<String>,
        source: impl Into<String>,
    ) -> Mos {
        self.nodes = Some(MosNodes {
            drain: drain.into(),
            gate: gate.into(),
            source: source.into(),
        });
        self
    }

    /// Terminal node names, if annotated.
    pub fn nodes(&self) -> Option<&MosNodes> {
        self.nodes.as_ref()
    }

    /// Instance index (0 unless set via [`Mos::with_instance`]).
    pub fn instance(&self) -> u8 {
        self.instance
    }

    /// Instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Device polarity.
    pub fn mos_type(&self) -> MosType {
        self.mos_type
    }

    /// Drawn width in micrometres.
    pub fn w_um(&self) -> f64 {
        self.w_um
    }

    /// Drawn length in micrometres.
    pub fn l_um(&self) -> f64 {
        self.l_um
    }

    /// Circuit role.
    pub fn role(&self) -> DeviceRole {
        self.role
    }
}

/// A capacitor in a structural netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    name: String,
    /// Capacitance in farads.
    value_f: f64,
    role: DeviceRole,
    instance: u8,
}

impl Capacitor {
    /// Creates a capacitor with instance index 0.
    ///
    /// # Panics
    ///
    /// Panics if `value_f` is not strictly positive.
    pub fn new(name: impl Into<String>, value_f: f64, role: DeviceRole) -> Capacitor {
        assert!(value_f > 0.0, "capacitance must be positive");
        Capacitor {
            name: name.into(),
            value_f,
            role,
            instance: 0,
        }
    }

    /// Sets the instance index (see [`Mos::with_instance`]).
    pub fn with_instance(mut self, instance: u8) -> Capacitor {
        self.instance = instance;
        self
    }

    /// Instance index (0 unless set via [`Capacitor::with_instance`]).
    pub fn instance(&self) -> u8 {
        self.instance
    }

    /// Instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Capacitance in farads.
    pub fn value_f(&self) -> f64 {
        self.value_f
    }

    /// Circuit role.
    pub fn role(&self) -> DeviceRole {
        self.role
    }
}

/// A device in a structural netlist.
#[derive(Debug, Clone, PartialEq)]
pub enum Device {
    /// MOS transistor.
    Mos(Mos),
    /// Capacitor.
    Capacitor(Capacitor),
}

impl Device {
    /// Instance index.
    pub fn instance(&self) -> u8 {
        match self {
            Device::Mos(m) => m.instance(),
            Device::Capacitor(c) => c.instance(),
        }
    }

    /// Returns the MOS view if this is a transistor.
    pub fn as_mos(&self) -> Option<&Mos> {
        match self {
            Device::Mos(m) => Some(m),
            Device::Capacitor(_) => None,
        }
    }

    /// Returns the capacitor view if this is a capacitor.
    pub fn as_capacitor(&self) -> Option<&Capacitor> {
        match self {
            Device::Capacitor(c) => Some(c),
            Device::Mos(_) => None,
        }
    }
}

/// Index of a device within its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub usize);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// A structural netlist for one analog block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Netlist {
    name: String,
    devices: Vec<Device>,
}

impl Netlist {
    /// Creates an empty netlist with the given block name.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            devices: Vec::new(),
        }
    }

    /// Adds a MOS device and returns its id.
    pub fn add_mos(&mut self, m: Mos) -> DeviceId {
        self.devices.push(Device::Mos(m));
        DeviceId(self.devices.len() - 1)
    }

    /// Adds a capacitor and returns its id.
    pub fn add_capacitor(&mut self, c: Capacitor) -> DeviceId {
        self.devices.push(Device::Capacitor(c));
        DeviceId(self.devices.len() - 1)
    }

    /// All devices in insertion order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Iterate over `(id, device)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, &Device)> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, d)| (DeviceId(i), d))
    }

    /// Number of devices of any kind.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the netlist has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Number of MOS transistors.
    pub fn mos_count(&self) -> usize {
        self.devices.iter().filter(|d| d.as_mos().is_some()).count()
    }

    /// Number of capacitors.
    pub fn capacitor_count(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| d.as_capacitor().is_some())
            .count()
    }

    /// Renders the netlist in a SPICE-like listing. Node-annotated MOS
    /// devices print their drain/gate/source connections; role-only
    /// devices (blocks the paper draws symbolically) print their role as
    /// a comment placeholder instead.
    pub fn to_spice(&self) -> String {
        let mut out = format!("* block: {}\n", self.name);
        for (_, dev) in self.iter() {
            match dev {
                Device::Mos(m) => {
                    let model = match m.mos_type() {
                        MosType::Nmos => "NMOS",
                        MosType::Pmos => "PMOS",
                    };
                    match m.nodes() {
                        Some(n) => out.push_str(&format!(
                            "{} {} {} {} {} {} W={}u L={}u\n",
                            m.name(),
                            n.drain,
                            n.gate,
                            n.source,
                            if m.mos_type() == MosType::Nmos {
                                "gnd"
                            } else {
                                "vdd"
                            },
                            model,
                            m.w_um(),
                            m.l_um()
                        )),
                        None => out.push_str(&format!(
                            "{} * role={} {} W={}u L={}u\n",
                            m.name(),
                            m.role(),
                            model,
                            m.w_um(),
                            m.l_um()
                        )),
                    }
                }
                Device::Capacitor(c) => out.push_str(&format!(
                    "{} * role={} C={:.1}f\n",
                    c.name(),
                    c.role(),
                    c.value_f() * 1e15
                )),
            }
        }
        out
    }

    /// Checks node-annotation consistency: every named node must connect
    /// at least two terminals or be a recognized port/rail (`vdd`, `gnd`,
    /// or a name starting with `in`, `out`, `clk`, `vb`). Returns the
    /// dangling node names.
    pub fn dangling_nodes(&self) -> Vec<String> {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for (_, dev) in self.iter() {
            if let Device::Mos(m) = dev {
                if let Some(n) = m.nodes() {
                    for t in [&n.drain, &n.gate, &n.source] {
                        *counts.entry(t.as_str()).or_insert(0) += 1;
                    }
                }
            }
        }
        counts
            .into_iter()
            .filter(|(name, count)| {
                *count < 2
                    && !matches!(*name, "vdd" | "gnd")
                    && !name.starts_with("in")
                    && !name.starts_with("out")
                    && !name.starts_with("clk")
                    && !name.starts_with("vb")
            })
            .map(|(name, _)| name.to_owned())
            .collect()
    }
}

/// Identifies an analog block of the link.
///
/// Blocks marked *test circuitry* are additions of the DFT scheme itself;
/// following the paper they are excluded from the functional structural
/// fault universe (their faults are covered by the chain continuity and
/// comparator self-exercise steps of the scan procedure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum BlockKind {
    /// Capacitively coupled weak driver + FFE caps (Fig. 3).
    TxDriver,
    /// Receiver termination network (Fig. 4).
    Termination,
    /// Receiver-side bias generator (voltage divider compared by the
    /// window comparator).
    RxBias,
    /// Window comparator of the coarse loop (Fig. 6), functional.
    WindowComparator,
    /// Weak charge pump incl. charge-balancing arm and amplifier (Fig. 8).
    WeakChargePump,
    /// Strong charge pump (Fig. 8).
    StrongChargePump,
    /// Voltage-controlled delay line of the fine loop.
    Vcdl,
    /// DC-test comparator with 15 mV programmed offset (Fig. 5),
    /// *test circuitry*.
    DcTestComparator,
    /// CP-BIST window comparator with 150 mV window (Fig. 9),
    /// *test circuitry*.
    CpBistComparator,
}

impl BlockKind {
    /// Whether this block is DFT test circuitry (excluded from the
    /// functional fault universe).
    pub fn is_test_circuitry(self) -> bool {
        matches!(
            self,
            BlockKind::DcTestComparator | BlockKind::CpBistComparator
        )
    }

    /// Human-readable name.
    pub fn label(self) -> &'static str {
        match self {
            BlockKind::TxDriver => "tx-driver",
            BlockKind::Termination => "termination",
            BlockKind::RxBias => "rx-bias",
            BlockKind::WindowComparator => "window-comparator",
            BlockKind::WeakChargePump => "weak-charge-pump",
            BlockKind::StrongChargePump => "strong-charge-pump",
            BlockKind::Vcdl => "vcdl",
            BlockKind::DcTestComparator => "dc-test-comparator",
            BlockKind::CpBistComparator => "cp-bist-comparator",
        }
    }
}

impl fmt::Display for BlockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_devices() {
        let mut nl = Netlist::new("cmp");
        let m = nl.add_mos(Mos::new(
            "M1",
            MosType::Nmos,
            0.5,
            0.5,
            DeviceRole::CmpInputPlus,
        ));
        let c = nl.add_capacitor(Capacitor::new("C1", 100e-15, DeviceRole::CouplingCap));
        assert_eq!((m, c), (DeviceId(0), DeviceId(1)));
        assert_eq!(nl.len(), 2);
        assert_eq!(nl.mos_count(), 1);
        assert_eq!(nl.capacitor_count(), 1);
    }

    #[test]
    #[should_panic(expected = "MOS dimensions must be positive")]
    fn zero_width_mos_panics() {
        let _ = Mos::new("M", MosType::Pmos, 0.0, 0.13, DeviceRole::TxTail);
    }

    #[test]
    #[should_panic(expected = "capacitance must be positive")]
    fn zero_capacitor_panics() {
        let _ = Capacitor::new("C", 0.0, DeviceRole::CouplingCap);
    }

    #[test]
    fn block_kind_partition() {
        for b in [
            BlockKind::TxDriver,
            BlockKind::Termination,
            BlockKind::RxBias,
            BlockKind::WindowComparator,
            BlockKind::WeakChargePump,
            BlockKind::StrongChargePump,
            BlockKind::Vcdl,
        ] {
            assert!(!b.is_test_circuitry(), "{b} misclassified");
        }
        assert!(BlockKind::DcTestComparator.is_test_circuitry());
        assert!(BlockKind::CpBistComparator.is_test_circuitry());
    }

    #[test]
    fn mos_and_cap_views() {
        let m = Device::Mos(Mos::new(
            "M1",
            MosType::Pmos,
            0.8,
            0.5,
            DeviceRole::CmpInputMinus,
        ));
        assert!(m.as_mos().is_some());
        assert!(m.as_capacitor().is_none());
        assert_eq!(m.as_mos().unwrap().w_um(), 0.8);
        assert_eq!(m.as_mos().unwrap().mos_type(), MosType::Pmos);
    }

    #[test]
    fn spice_export_and_dangling_check() {
        let mut nl = Netlist::new("ota");
        nl.add_mos(
            Mos::new("M1", MosType::Nmos, 0.5, 0.5, DeviceRole::CmpInputPlus)
                .with_nodes("n1", "inp", "ntail"),
        );
        nl.add_mos(
            Mos::new("M2", MosType::Nmos, 0.5, 0.5, DeviceRole::CmpTail)
                .with_nodes("ntail", "vbn", "gnd"),
        );
        nl.add_capacitor(Capacitor::new("C1", 1e-13, DeviceRole::CouplingCap));
        let spice = nl.to_spice();
        assert!(spice.starts_with("* block: ota"));
        assert!(spice.contains("M1 n1 inp ntail gnd NMOS W=0.5u L=0.5u"));
        assert!(spice.contains("C1 * role=coupling-cap C=100.0f"));
        // n1 connects only one terminal and is not a port: dangling.
        assert_eq!(nl.dangling_nodes(), vec!["n1".to_string()]);
    }

    #[test]
    fn role_only_devices_export_placeholders() {
        let mut nl = Netlist::new("sym");
        nl.add_mos(Mos::new("MX", MosType::Pmos, 2.0, 0.13, DeviceRole::TxBufP));
        let spice = nl.to_spice();
        assert!(spice.contains("MX * role=tx-buf-p PMOS W=2u L=0.13u"));
        assert!(
            nl.dangling_nodes().is_empty(),
            "role-only devices have no nodes"
        );
    }

    #[test]
    fn display_impls_nonempty() {
        assert_eq!(format!("{}", DeviceId(3)), "d3");
        assert!(!format!("{}", DeviceRole::CpSwitchUp).is_empty());
        assert!(!format!("{}", BlockKind::Vcdl).is_empty());
        assert_eq!(format!("{}", MosType::Nmos), "NMOS");
    }
}
