//! The DLL phase-select switch matrix.
//!
//! An AND–OR matrix gating one of the DLL phases onto the sampling-clock
//! path, selected by the one-hot ring counter. The paper tests it by
//! preloading the ring counter with all-zero (no phase selected — scan
//! chain A must stop clocking) and each one-hot value (chain continuity on
//! every path).
//!
//! # Examples
//!
//! ```
//! use dsim::blocks::switch_matrix::SwitchMatrix;
//! use dsim::circuit::SimState;
//! use dsim::logic::Logic;
//!
//! let sm = SwitchMatrix::new(10);
//! let mut s = SimState::for_circuit(sm.circuit());
//! // Select phase 4 and drive only that phase input high.
//! sm.drive(&mut s, Some(4), &[false, false, false, false, true,
//!                             false, false, false, false, false]);
//! sm.circuit().eval(&mut s);
//! assert_eq!(s.net(sm.output()), Logic::One);
//! ```

use crate::circuit::{Circuit, GateKind, NetId, SimState};
use crate::logic::Logic;

/// An `n`-way one-hot phase selector.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchMatrix {
    circuit: Circuit,
    select: Vec<NetId>,
    phase: Vec<NetId>,
    output: NetId,
}

impl SwitchMatrix {
    /// Builds an `n`-way switch matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> SwitchMatrix {
        assert!(n >= 2, "switch matrix needs at least two ways");
        let mut c = Circuit::new(format!("switch-matrix-{n}"));
        let select: Vec<NetId> = (0..n).map(|i| c.input(format!("sel{i}"))).collect();
        let phase: Vec<NetId> = (0..n).map(|i| c.input(format!("ph{i}"))).collect();
        let terms: Vec<NetId> = (0..n)
            .map(|i| {
                let t = c.net(format!("t{i}"));
                c.gate(GateKind::And, &[select[i], phase[i]], t);
                t
            })
            .collect();
        let output = c.net("clk_out");
        c.gate(GateKind::Or, &terms, output);
        c.output(output);
        SwitchMatrix {
            circuit: c,
            select,
            phase,
            output,
        }
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Gated clock output net.
    pub fn output(&self) -> NetId {
        self.output
    }

    /// Number of ways.
    pub fn len(&self) -> usize {
        self.select.len()
    }

    /// Always `false` (at least two ways).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Drives the select inputs one-hot (or all-zero for `None`) and the
    /// phase inputs from `phases`.
    ///
    /// # Panics
    ///
    /// Panics if `phases` has the wrong length or the hot index is out of
    /// range.
    pub fn drive(&self, state: &mut SimState, hot: Option<usize>, phases: &[bool]) {
        assert_eq!(phases.len(), self.phase.len(), "phase vector length");
        if let Some(i) = hot {
            assert!(i < self.select.len(), "hot index out of range");
        }
        for (i, &sel) in self.select.iter().enumerate() {
            state.set_input(&self.circuit, sel, Logic::from_bool(hot == Some(i)));
        }
        for (&net, &v) in self.phase.iter().zip(phases) {
            state.set_input(&self.circuit, net, Logic::from_bool(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atpg::random_vectors;
    use crate::stuck_at::scan_coverage;

    #[test]
    fn selected_phase_passes() {
        let sm = SwitchMatrix::new(4);
        let mut s = SimState::for_circuit(sm.circuit());
        for hot in 0..4 {
            let mut phases = [false; 4];
            phases[hot] = true;
            sm.drive(&mut s, Some(hot), &phases);
            sm.circuit().eval(&mut s);
            assert_eq!(s.net(sm.output()), Logic::One, "phase {hot} blocked");
            // Deselecting while the phase toggles: output must follow only
            // the selected phase.
            let phases = [false; 4];
            sm.drive(&mut s, Some(hot), &phases);
            sm.circuit().eval(&mut s);
            assert_eq!(s.net(sm.output()), Logic::Zero);
        }
    }

    #[test]
    fn all_zero_select_blocks_every_phase() {
        // The paper's test: an all-zero ring counter image must stop the
        // clock to scan chain A.
        let sm = SwitchMatrix::new(4);
        let mut s = SimState::for_circuit(sm.circuit());
        sm.drive(&mut s, None, &[true; 4]);
        sm.circuit().eval(&mut s);
        assert_eq!(s.net(sm.output()), Logic::Zero);
    }

    #[test]
    fn unselected_phases_do_not_leak() {
        let sm = SwitchMatrix::new(4);
        let mut s = SimState::for_circuit(sm.circuit());
        // Select 0 but toggle only phase 3.
        sm.drive(&mut s, Some(0), &[false, true, true, true]);
        sm.circuit().eval(&mut s);
        assert_eq!(s.net(sm.output()), Logic::Zero);
    }

    #[test]
    #[should_panic(expected = "phase vector length")]
    fn wrong_phase_vector_panics() {
        let sm = SwitchMatrix::new(4);
        let mut s = SimState::for_circuit(sm.circuit());
        sm.drive(&mut s, None, &[true; 3]);
    }

    #[test]
    #[should_panic(expected = "at least two ways")]
    fn too_small_panics() {
        let _ = SwitchMatrix::new(1);
    }

    #[test]
    fn full_stuck_at_coverage_with_scan() {
        let sm = SwitchMatrix::new(4);
        let vectors = random_vectors(sm.circuit(), 128, 17);
        let cov = scan_coverage(sm.circuit(), &vectors);
        assert!(
            (cov.coverage() - 1.0).abs() < 1e-12,
            "undetected: {:?}",
            cov.undetected()
        );
    }
}
