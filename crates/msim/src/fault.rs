//! The structural fault model.
//!
//! Following the paper (which adopts the structural fault model of Kim &
//! Soma for its analog sections), every MOS transistor contributes six
//! faults — gate open, drain open, source open, gate–drain short,
//! gate–source short, drain–source short — and every capacitor contributes a
//! short. The *fault universe* of the link is the union of these faults over
//! the functional analog blocks; Table I of the paper reports coverage
//! aggregated by [`FaultKind`].
//!
//! # Examples
//!
//! ```
//! use msim::fault::{FaultKind, FaultUniverse, MosFault};
//! use msim::netlist::{BlockKind, DeviceRole, Mos, MosType, Netlist};
//!
//! let mut nl = Netlist::new("toy");
//! nl.add_mos(Mos::new("M1", MosType::Nmos, 0.5, 0.5, DeviceRole::CmpTail));
//! let universe = FaultUniverse::enumerate([(BlockKind::WindowComparator, &nl)]);
//! // One MOS yields the six structural MOS faults.
//! assert_eq!(universe.len(), MosFault::ALL.len());
//! ```

use std::fmt;

use crate::netlist::{BlockKind, Device, DeviceId, DeviceRole, Netlist};

/// The six structural MOS fault types of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MosFault {
    /// Gate terminal open (floating gate).
    GateOpen,
    /// Drain terminal open.
    DrainOpen,
    /// Source terminal open.
    SourceOpen,
    /// Gate shorted to drain (device becomes diode-connected).
    GateDrainShort,
    /// Gate shorted to source (device permanently off for enhancement MOS).
    GateSourceShort,
    /// Drain shorted to source (device permanently conducting).
    DrainSourceShort,
}

impl MosFault {
    /// All six MOS fault types, in Table I order.
    pub const ALL: [MosFault; 6] = [
        MosFault::GateOpen,
        MosFault::DrainOpen,
        MosFault::SourceOpen,
        MosFault::GateDrainShort,
        MosFault::GateSourceShort,
        MosFault::DrainSourceShort,
    ];

    /// Table I row label.
    pub fn label(self) -> &'static str {
        match self {
            MosFault::GateOpen => "Gate open",
            MosFault::DrainOpen => "Drain open",
            MosFault::SourceOpen => "Source open",
            MosFault::GateDrainShort => "Gate drain short",
            MosFault::GateSourceShort => "Gate source short",
            MosFault::DrainSourceShort => "Drain source short",
        }
    }
}

impl fmt::Display for MosFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A structural fault kind (the rows of the paper's Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    /// One of the six MOS faults.
    Mos(MosFault),
    /// Capacitor short.
    CapShort,
}

impl FaultKind {
    /// All fault kinds in Table I row order (six MOS kinds, then cap short).
    pub const ALL: [FaultKind; 7] = [
        FaultKind::Mos(MosFault::GateOpen),
        FaultKind::Mos(MosFault::DrainOpen),
        FaultKind::Mos(MosFault::SourceOpen),
        FaultKind::Mos(MosFault::GateDrainShort),
        FaultKind::Mos(MosFault::GateSourceShort),
        FaultKind::Mos(MosFault::DrainSourceShort),
        FaultKind::CapShort,
    ];

    /// Table I row label.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Mos(m) => m.label(),
            FaultKind::CapShort => "Capacitor short",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl From<MosFault> for FaultKind {
    fn from(m: MosFault) -> FaultKind {
        FaultKind::Mos(m)
    }
}

/// One structural fault: a defect of `kind` on `device` of `block`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Block containing the faulty device.
    pub block: BlockKind,
    /// Device index within the block's netlist.
    pub device: DeviceId,
    /// Role of the faulty device (denormalized for effect resolution and
    /// reporting without a netlist lookup).
    pub role: DeviceRole,
    /// Instance index of the faulty device (distinguishes replicated
    /// sub-circuits, e.g. the `VH` vs `VL` comparator half).
    pub instance: u8,
    /// Fault type.
    pub kind: FaultKind,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}[{}]: {}",
            self.block, self.role, self.device, self.kind
        )
    }
}

/// The enumerated structural fault universe of a design.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultUniverse {
    faults: Vec<Fault>,
}

impl FaultUniverse {
    /// Enumerates the complete structural fault universe over the given
    /// `(block, netlist)` pairs: six faults per MOS, one short per
    /// capacitor.
    pub fn enumerate<'a, I>(blocks: I) -> FaultUniverse
    where
        I: IntoIterator<Item = (BlockKind, &'a Netlist)>,
    {
        let mut faults = Vec::new();
        for (block, nl) in blocks {
            for (id, dev) in nl.iter() {
                match dev {
                    Device::Mos(m) => {
                        for mf in MosFault::ALL {
                            faults.push(Fault {
                                block,
                                device: id,
                                role: m.role(),
                                instance: m.instance(),
                                kind: FaultKind::Mos(mf),
                            });
                        }
                    }
                    Device::Capacitor(c) => {
                        faults.push(Fault {
                            block,
                            device: id,
                            role: c.role(),
                            instance: c.instance(),
                            kind: FaultKind::CapShort,
                        });
                    }
                }
            }
        }
        FaultUniverse { faults }
    }

    /// Number of faults in the universe.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// All faults, in enumeration order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Iterate over faults.
    pub fn iter(&self) -> impl Iterator<Item = &Fault> {
        self.faults.iter()
    }
}

impl<'a> IntoIterator for &'a FaultUniverse {
    type Item = &'a Fault;
    type IntoIter = std::slice::Iter<'a, Fault>;

    fn into_iter(self) -> Self::IntoIter {
        self.faults.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Capacitor, Mos, MosType};

    fn toy_netlist() -> Netlist {
        let mut nl = Netlist::new("toy");
        nl.add_mos(Mos::new(
            "M1",
            MosType::Nmos,
            0.5,
            0.5,
            DeviceRole::CmpInputPlus,
        ));
        nl.add_mos(Mos::new(
            "M2",
            MosType::Pmos,
            0.8,
            0.5,
            DeviceRole::CmpMirrorOut,
        ));
        nl.add_capacitor(Capacitor::new("C1", 50e-15, DeviceRole::CouplingCap));
        nl
    }

    #[test]
    fn enumeration_counts() {
        let nl = toy_netlist();
        let u = FaultUniverse::enumerate([(BlockKind::Termination, &nl)]);
        // 2 MOS * 6 + 1 cap = 13 faults.
        assert_eq!(u.len(), 13);
        let of_kind = |kind| u.iter().filter(|f| f.kind == kind).count();
        assert_eq!(of_kind(FaultKind::CapShort), 1);
        assert_eq!(of_kind(FaultKind::Mos(MosFault::GateOpen)), 2);
        assert!(u.iter().all(|f| f.block == BlockKind::Termination));
    }

    #[test]
    fn multi_block_enumeration() {
        let a = toy_netlist();
        let b = toy_netlist();
        let u = FaultUniverse::enumerate([
            (BlockKind::Termination, &a),
            (BlockKind::WindowComparator, &b),
        ]);
        assert_eq!(u.len(), 26);
        let in_window = u.iter().filter(|f| f.block == BlockKind::WindowComparator);
        assert_eq!(in_window.count(), 13);
    }

    #[test]
    fn fault_carries_role() {
        let nl = toy_netlist();
        let u = FaultUniverse::enumerate([(BlockKind::Termination, &nl)]);
        let cap_fault = u
            .iter()
            .find(|f| f.kind == FaultKind::CapShort)
            .expect("cap fault present");
        assert_eq!(cap_fault.role, DeviceRole::CouplingCap);
    }

    #[test]
    fn kind_order_matches_table_one() {
        let labels: Vec<&str> = FaultKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Gate open",
                "Drain open",
                "Source open",
                "Gate drain short",
                "Gate source short",
                "Drain source short",
                "Capacitor short",
            ]
        );
    }

    #[test]
    fn empty_universe() {
        let u = FaultUniverse::default();
        assert!(u.is_empty());
        assert_eq!(u.len(), 0);
    }

    #[test]
    fn display_formats() {
        let nl = toy_netlist();
        let u = FaultUniverse::enumerate([(BlockKind::Termination, &nl)]);
        let s = format!("{}", u.faults()[0]);
        assert!(s.contains("termination"));
        assert!(s.contains("Gate open"));
    }

    #[test]
    fn into_iterator_for_ref() {
        let nl = toy_netlist();
        let u = FaultUniverse::enumerate([(BlockKind::Termination, &nl)]);
        let n = (&u).into_iter().count();
        assert_eq!(n, u.len());
    }

    #[test]
    fn from_mos_fault() {
        let k: FaultKind = MosFault::GateOpen.into();
        assert_eq!(k, FaultKind::Mos(MosFault::GateOpen));
    }
}
