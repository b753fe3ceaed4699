//! The coarse-correction control FSM (part of Fig. 8's control logic).
//!
//! Watches the window comparator's `(above, below)` decision on every
//! divided clock. When the control voltage leaves the window it emits a
//! one-cycle correction pulse:
//!
//! * `UPst` — pulse the strong charge pump up (Vc fell below `VL`),
//! * `DNst` — pulse the strong charge pump down (Vc rose above `VH`),
//! * `enable` — step the ring counter,
//! * `up_dn` — ring-counter direction (follows which threshold tripped).
//!
//! A single state flip-flop suppresses repeated pulses while the request
//! persists, re-arming once the window comparator reports in-window again.
//!
//! # Examples
//!
//! ```
//! use dsim::blocks::fsm::ControlFsm;
//! use dsim::circuit::SimState;
//!
//! let fsm = ControlFsm::new();
//! let mut s = SimState::for_circuit(fsm.circuit());
//! fsm.reset_state(&mut s);
//! let out = fsm.step(&mut s, true, false); // Vc above VH
//! assert!(out.dnst && out.enable && out.up_dn);
//! let out = fsm.step(&mut s, true, false); // request persists
//! assert!(!out.dnst, "pulse must not repeat while armed");
//! ```

use crate::circuit::{Circuit, GateKind, NetId, SimState};
use crate::logic::Logic;

/// Output pulse bundle of the FSM for one divided clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsmOutputs {
    /// Strong pump-up pulse.
    pub upst: bool,
    /// Strong pump-down pulse.
    pub dnst: bool,
    /// Ring-counter step enable.
    pub enable: bool,
    /// Ring-counter direction.
    pub up_dn: bool,
}

/// The gate-level control FSM.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlFsm {
    circuit: Circuit,
    above: NetId,
    below: NetId,
    upst: NetId,
    dnst: NetId,
    enable: NetId,
    up_dn: NetId,
}

impl ControlFsm {
    /// Builds the FSM.
    pub fn new() -> ControlFsm {
        let mut c = Circuit::new("control-fsm");
        let above = c.input("above");
        let below = c.input("below");
        let armed = c.net("armed"); // state: request already serviced
                                    // req = above | below
        let req = c.net("req");
        c.gate(GateKind::Or, &[above, below], req);
        // fire = req & !armed
        let not_armed = c.net("not_armed");
        c.gate(GateKind::Not, &[armed], not_armed);
        let fire = c.net("fire");
        c.gate(GateKind::And, &[req, not_armed], fire);
        // Outputs.
        let upst = c.net("upst");
        c.gate(GateKind::And, &[fire, below], upst);
        let dnst = c.net("dnst");
        c.gate(GateKind::And, &[fire, above], dnst);
        let enable = c.net("enable");
        c.gate(GateKind::Buf, &[fire], enable);
        let up_dn = c.net("up_dn");
        c.gate(GateKind::Buf, &[above], up_dn);
        // Next state: stay armed while the request persists.
        c.dff(req, armed);
        c.output(upst);
        c.output(dnst);
        c.output(enable);
        c.output(up_dn);
        ControlFsm {
            circuit: c,
            above,
            below,
            upst,
            dnst,
            enable,
            up_dn,
        }
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Clears the state flip-flop.
    pub fn reset_state(&self, state: &mut SimState) {
        state.load_ffs(&[Logic::Zero]);
    }

    /// Applies one divided clock with the given window decision and reads
    /// the output pulses (sampled before the state update, i.e. the pulses
    /// the downstream logic sees on this edge).
    pub fn step(&self, state: &mut SimState, above: bool, below: bool) -> FsmOutputs {
        state.set_input(&self.circuit, self.above, Logic::from_bool(above));
        state.set_input(&self.circuit, self.below, Logic::from_bool(below));
        self.circuit.eval(state);
        let outs = FsmOutputs {
            upst: state.net(self.upst) == Logic::One,
            dnst: state.net(self.dnst) == Logic::One,
            enable: state.net(self.enable) == Logic::One,
            up_dn: state.net(self.up_dn) == Logic::One,
        };
        self.circuit.tick(state);
        outs
    }
}

impl Default for ControlFsm {
    fn default() -> ControlFsm {
        ControlFsm::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atpg::random_vectors;
    use crate::stuck_at::scan_coverage;

    #[test]
    fn idle_inside_window() {
        let fsm = ControlFsm::new();
        let mut s = SimState::for_circuit(fsm.circuit());
        fsm.reset_state(&mut s);
        let out = fsm.step(&mut s, false, false);
        assert_eq!(
            out,
            FsmOutputs {
                upst: false,
                dnst: false,
                enable: false,
                up_dn: false
            }
        );
    }

    #[test]
    fn below_window_pulses_upst() {
        let fsm = ControlFsm::new();
        let mut s = SimState::for_circuit(fsm.circuit());
        fsm.reset_state(&mut s);
        let out = fsm.step(&mut s, false, true);
        assert!(out.upst && out.enable);
        assert!(!out.dnst && !out.up_dn);
    }

    #[test]
    fn pulse_rearms_after_window_reentry() {
        let fsm = ControlFsm::new();
        let mut s = SimState::for_circuit(fsm.circuit());
        fsm.reset_state(&mut s);
        assert!(fsm.step(&mut s, true, false).dnst);
        // Still outside: suppressed.
        assert!(!fsm.step(&mut s, true, false).dnst);
        // Back inside: re-arm.
        assert!(!fsm.step(&mut s, false, false).dnst);
        // Outside again: a fresh pulse.
        assert!(fsm.step(&mut s, true, false).dnst);
    }

    #[test]
    fn direction_follows_threshold() {
        let fsm = ControlFsm::new();
        let mut s = SimState::for_circuit(fsm.circuit());
        fsm.reset_state(&mut s);
        assert!(fsm.step(&mut s, true, false).up_dn);
        fsm.step(&mut s, false, false);
        assert!(!fsm.step(&mut s, false, true).up_dn);
    }

    #[test]
    fn full_stuck_at_coverage_with_scan() {
        let fsm = ControlFsm::new();
        let vectors = random_vectors(fsm.circuit(), 32, 19);
        let cov = scan_coverage(fsm.circuit(), &vectors);
        assert!(
            (cov.coverage() - 1.0).abs() < 1e-12,
            "undetected: {:?}",
            cov.undetected()
        );
    }
}
