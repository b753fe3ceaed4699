//! Charge pumps (Fig. 8 of the paper).
//!
//! The weak pump integrates the Alexander phase detector's bang-bang
//! decisions onto the loop-filter capacitor (`Vc`); the strong pump resets
//! `Vc` into the window on a coarse-correction request. Both share the same
//! behavioral model: a current source/sink pair gated by `UP`/`DN`.
//!
//! **Scan mode.** The paper's key DFT trick converts the pump into a
//! combinational element during scan by tying the current-source biases to
//! the rails — the sources become plain switches. The model reproduces the
//! resulting *masking*: a [`CpFaults::up_scale`]/[`CpFaults::down_scale`]
//! current error (e.g. a drain–source shorted current source) is invisible
//! in scan mode because the faulty device then behaves exactly like the
//! intended switch; it only shows up at speed.
//!
//! # Examples
//!
//! ```
//! use msim::blocks::charge_pump::ChargePump;
//! use msim::params::DesignParams;
//! use msim::units::{Sec, Volt};
//!
//! let p = DesignParams::paper();
//! let pump = ChargePump::new(p.weak_cp_current, p.loop_cap, p.supply);
//! // Pumping UP for one UI raises Vc by the weak slew (1 mV at the paper
//! // design point).
//! let vc = pump.step(Volt(0.6), true, false, p.ui());
//! assert!((vc.mv() - 601.0).abs() < 1e-6);
//! ```

use crate::effects::PumpDir;
use crate::units::{Amp, Farad, Sec, Volt};

/// Fault hooks of a charge pump.
#[derive(Debug, Clone, PartialEq)]
pub struct CpFaults {
    /// The UP path cannot deliver current.
    pub dead_up: bool,
    /// The DOWN path cannot deliver current.
    pub dead_down: bool,
    /// A constant leak in the given direction even when idle (shorted
    /// switch). The leak magnitude is the nominal pump current.
    pub always_on: Option<PumpDir>,
    /// Multiplier on the UP current when active (drain–source shorted
    /// source ⇒ ≫ 1; diode-connected source ⇒ < 1). Masked in scan mode.
    pub up_scale: f64,
    /// Multiplier on the DOWN current when active. Masked in scan mode.
    pub down_scale: f64,
}

impl CpFaults {
    /// Fault-free hooks.
    pub fn none() -> CpFaults {
        CpFaults {
            dead_up: false,
            dead_down: false,
            always_on: None,
            up_scale: 1.0,
            down_scale: 1.0,
        }
    }
}

impl Default for CpFaults {
    fn default() -> CpFaults {
        CpFaults::none()
    }
}

/// Behavioral charge pump integrating onto a loop-filter capacitor.
#[derive(Debug, Clone, PartialEq)]
pub struct ChargePump {
    current: Amp,
    cap: Farad,
    supply: Volt,
    faults: CpFaults,
    scan_mode: bool,
}

impl ChargePump {
    /// Creates a fault-free pump.
    ///
    /// # Panics
    ///
    /// Panics if current, capacitance or supply is not strictly positive.
    pub fn new(current: Amp, cap: Farad, supply: Volt) -> ChargePump {
        assert!(
            current.value() > 0.0 && cap.value() > 0.0 && supply.value() > 0.0,
            "charge pump parameters must be positive"
        );
        ChargePump {
            current,
            cap,
            supply,
            faults: CpFaults::none(),
            scan_mode: false,
        }
    }

    /// Installs fault hooks.
    pub fn with_faults(mut self, faults: CpFaults) -> ChargePump {
        self.faults = faults;
        self
    }

    /// Enters or leaves scan mode (current sources biased as switches).
    /// In scan mode current-scale faults are masked — the paper's
    /// drain–source-short masking.
    pub fn set_scan_mode(&mut self, on: bool) {
        self.scan_mode = on;
    }

    /// Whether the pump is in scan mode.
    pub fn scan_mode(&self) -> bool {
        self.scan_mode
    }

    /// Nominal pump current.
    pub fn current(&self) -> Amp {
        self.current
    }

    /// Installed fault hooks.
    pub fn faults(&self) -> &CpFaults {
        &self.faults
    }

    /// Net current delivered into the loop filter for the given control
    /// inputs (positive raises `Vc`).
    pub fn net_current(&self, up: bool, dn: bool) -> Amp {
        let (up_scale, down_scale) = if self.scan_mode {
            // Sources biased as switches: magnitude errors masked.
            (1.0, 1.0)
        } else {
            (self.faults.up_scale, self.faults.down_scale)
        };
        let mut i = 0.0;
        if up && !self.faults.dead_up {
            i += self.current.value() * up_scale;
        }
        if dn && !self.faults.dead_down {
            i -= self.current.value() * down_scale;
        }
        match self.faults.always_on {
            Some(PumpDir::Up) if !up => i += self.current.value(),
            Some(PumpDir::Down) if !dn => i -= self.current.value(),
            _ => {}
        }
        Amp(i)
    }

    /// Control-voltage change from driving the pump for `dt`, before the
    /// rail clamp. It depends only on the inputs, so a loop that steps
    /// with a fixed `dt` can compute each input combination's change once
    /// and [`ChargePump::apply`] it every cycle.
    pub fn delta(&self, up: bool, dn: bool, dt: Sec) -> Volt {
        self.net_current(up, dn) * dt / self.cap
    }

    /// Adds a [`ChargePump::delta`] to `vc`, clamped to the rails.
    #[inline]
    pub fn apply(&self, vc: Volt, dv: Volt) -> Volt {
        (vc + dv).clamp(Volt::ZERO, self.supply)
    }

    /// Integrates the pump for `dt` and returns the new control voltage,
    /// clamped to the rails.
    pub fn step(&self, vc: Volt, up: bool, dn: bool, dt: Sec) -> Volt {
        self.apply(vc, self.delta(up, dn, dt))
    }
}

/// The charge-balance node `Vp` of the weak pump's replica arm.
///
/// In a healthy pump the balancing amplifier servos `Vp` to its nominal
/// value; balance-arm and amplifier faults let it settle `drift` away,
/// which the CP-BIST window comparator (Fig. 9) flags once the link has
/// locked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceNode {
    nominal: Volt,
    drift: Volt,
}

impl BalanceNode {
    /// Creates a healthy balance node.
    pub fn new(nominal: Volt) -> BalanceNode {
        BalanceNode {
            nominal,
            drift: Volt::ZERO,
        }
    }

    /// Installs a settling error (fault hook; signed, positive toward VDD).
    pub fn with_drift(mut self, drift: Volt) -> BalanceNode {
        self.drift = drift;
        self
    }

    /// The settled node voltage.
    pub fn settled(&self) -> Volt {
        self.nominal + self.drift
    }

    /// Nominal node voltage.
    pub fn nominal(&self) -> Volt {
        self.nominal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DesignParams;

    fn paper_pump() -> ChargePump {
        let p = DesignParams::paper();
        ChargePump::new(p.weak_cp_current, p.loop_cap, p.supply)
    }

    #[test]
    fn healthy_pump_slews_symmetrically() {
        let p = DesignParams::paper();
        let pump = paper_pump();
        let up = pump.step(Volt(0.6), true, false, p.ui());
        let dn = pump.step(Volt(0.6), false, true, p.ui());
        assert!((up.mv() - 601.0).abs() < 1e-6);
        assert!((dn.mv() - 599.0).abs() < 1e-6);
        // No inputs, no movement.
        assert_eq!(pump.step(Volt(0.6), false, false, p.ui()), Volt(0.6));
    }

    #[test]
    fn rails_clamp() {
        let p = DesignParams::paper();
        let pump = paper_pump();
        let v = pump.step(Volt(1.1999), true, false, p.ui() * 100.0);
        assert!(v <= p.supply);
        let v = pump.step(Volt(0.0001), false, true, p.ui() * 100.0);
        assert!(v >= Volt::ZERO);
    }

    #[test]
    fn dead_path_delivers_nothing() {
        let p = DesignParams::paper();
        let pump = paper_pump().with_faults(CpFaults {
            dead_up: true,
            ..CpFaults::none()
        });
        assert_eq!(pump.step(Volt(0.6), true, false, p.ui()), Volt(0.6));
        // The other direction is unaffected.
        assert!(pump.step(Volt(0.6), false, true, p.ui()) < Volt(0.6));
    }

    #[test]
    fn always_on_leaks_when_idle() {
        let p = DesignParams::paper();
        let pump = paper_pump().with_faults(CpFaults {
            always_on: Some(PumpDir::Up),
            ..CpFaults::none()
        });
        // Idle: leaks up.
        assert!(pump.step(Volt(0.6), false, false, p.ui()) > Volt(0.6));
        // Active up: no double counting.
        let active = pump.step(Volt(0.6), true, false, p.ui());
        assert!((active.mv() - 601.0).abs() < 1e-6);
        // Active down: the leak fights the drive to a standstill.
        let fight = pump.step(Volt(0.6), false, true, p.ui());
        assert_eq!(fight, Volt(0.6));
    }

    #[test]
    fn current_scale_fault_masked_in_scan_mode() {
        let p = DesignParams::paper();
        let mut pump = paper_pump().with_faults(CpFaults {
            up_scale: 20.0,
            ..CpFaults::none()
        });
        // At speed the fault is visible: 20x slew.
        let at_speed = pump.step(Volt(0.6), true, false, p.ui());
        assert!((at_speed.mv() - 620.0).abs() < 1e-6);
        // In scan mode the source is just a switch: nominal slew — masked.
        pump.set_scan_mode(true);
        assert!(pump.scan_mode());
        let in_scan = pump.step(Volt(0.6), true, false, p.ui());
        assert!((in_scan.mv() - 601.0).abs() < 1e-6);
    }

    #[test]
    fn dead_fault_not_masked_in_scan_mode() {
        let p = DesignParams::paper();
        let mut pump = paper_pump().with_faults(CpFaults {
            dead_down: true,
            ..CpFaults::none()
        });
        pump.set_scan_mode(true);
        assert_eq!(pump.step(Volt(0.6), false, true, p.ui()), Volt(0.6));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_cap_panics() {
        let _ = ChargePump::new(Amp::from_ua(5.0), Farad(0.0), Volt(1.2));
    }

    #[test]
    fn balance_node_drift() {
        let n = BalanceNode::new(Volt(0.6));
        assert_eq!(n.settled(), Volt(0.6));
        let d = n.with_drift(Volt::from_mv(-200.0));
        assert!((d.settled().value() - 0.4).abs() < 1e-12);
        assert_eq!(d.nominal(), Volt(0.6));
    }
}
