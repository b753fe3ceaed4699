//! Scan-chain operations.
//!
//! Every flip-flop of a [`Circuit`] is scannable and sits in the chain in
//! insertion order (position = [`crate::circuit::DffId`]). The module
//! provides the classic scan protocol:
//!
//! 1. **load** — shift a state image into the chain,
//! 2. **launch/capture** — apply a primary-input pattern and pulse one
//!    functional clock,
//! 3. **unload** — shift the captured state out (while optionally shifting
//!    the next load in).
//!
//! [`apply_vector`] performs one full load→capture→unload cycle and returns
//! the observed response; the stuck-at campaign compares responses against
//! the fault-free golden ones.
//!
//! # Examples
//!
//! ```
//! use dsim::circuit::{Circuit, GateKind, SimState};
//! use dsim::logic::Logic;
//! use dsim::scan::{apply_vector, ScanVector};
//!
//! // One DFF capturing the inverse of its own output.
//! let mut c = Circuit::new("toggler");
//! let q = c.net("q");
//! let d = c.net("d");
//! c.gate(GateKind::Not, &[q], d);
//! c.dff(d, q);
//! c.output(q);
//!
//! let v = ScanVector { pi: vec![], load: vec![Logic::Zero] };
//! let resp = apply_vector(&c, &mut SimState::for_circuit(&c), &v);
//! // Loaded 0, captured !0 = 1.
//! assert_eq!(resp.capture, vec![Logic::One]);
//! ```

use crate::circuit::{Circuit, SimState};
use crate::logic::Logic;

/// One scan test vector: a primary-input pattern plus a chain load image.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScanVector {
    /// Primary-input values, in `Circuit::inputs()` order.
    pub pi: Vec<Logic>,
    /// Flip-flop load image, in scan-chain order.
    pub load: Vec<Logic>,
}

/// The observed response to a [`ScanVector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanResponse {
    /// Primary-output values after launch.
    pub po: Vec<Logic>,
    /// Flip-flop contents captured by the functional clock.
    pub capture: Vec<Logic>,
}

/// Shifts `bits` into the chain (first element enters first and ends up in
/// the last flip-flop), returning the bits shifted out.
///
/// The shift path itself is modeled as ideal; faults are observed through
/// functional capture, and chain integrity is checked separately by
/// [`chain_continuity`].
pub fn shift(state: &mut SimState, circuit: &Circuit, bits: &[Logic]) -> Vec<Logic> {
    rt::obs::hot_add(rt::obs::Hot::ScanShiftBits, bits.len() as u64);
    let n = circuit.dff_count();
    let mut ff = state.ff_values().to_vec();
    let mut out = Vec::with_capacity(bits.len());
    for &b in bits {
        out.push(*ff.last().unwrap_or(&b));
        if n > 0 {
            ff.rotate_right(1);
            ff[0] = b;
        }
    }
    if n > 0 {
        state.load_ffs(&ff);
    }
    out
}

/// Applies one scan vector: loads the chain, applies the primary inputs,
/// pulses one functional clock and reads outputs and captured state.
///
/// # Panics
///
/// Panics if the vector's `pi`/`load` lengths do not match the circuit.
pub fn apply_vector(circuit: &Circuit, state: &mut SimState, v: &ScanVector) -> ScanResponse {
    assert_eq!(v.pi.len(), circuit.inputs().len(), "PI pattern length");
    assert_eq!(v.load.len(), circuit.dff_count(), "scan load length");
    state.load_ffs(&v.load);
    for (&net, &val) in circuit.inputs().iter().zip(&v.pi) {
        state.set_input(circuit, net, val);
    }
    // Strobe the primary outputs before the capture edge (tester order:
    // launch, strobe, capture) — pulse outputs that depend on the loaded
    // state would otherwise be destroyed by the flip-flop update.
    circuit.eval(state);
    let po = state.read_outputs(circuit);
    circuit.tick(state);
    ScanResponse {
        po,
        capture: state.ff_values().to_vec(),
    }
}

/// Scan-chain continuity test: shifts a `0101…` flush pattern through the
/// chain and verifies it emerges intact after `dff_count` extra shifts.
///
/// This is the check the paper uses on Scan chain A to expose a
/// permanently (de)selected phase in the switch matrix: if the selected
/// clock never reaches the chain, the flush pattern never emerges.
pub fn chain_continuity(circuit: &Circuit, state: &mut SimState) -> bool {
    let n = circuit.dff_count();
    if n == 0 {
        return true;
    }
    let pattern: Vec<Logic> = (0..n).map(|i| Logic::from_bool(i % 2 == 0)).collect();
    shift(state, circuit, &pattern);
    let flushed = shift(state, circuit, &vec![Logic::Zero; n]);
    // A scan chain is first-in first-out: the pattern emerges in the order
    // it was shifted in.
    flushed == pattern
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::GateKind;

    fn three_ff_chain() -> Circuit {
        let mut c = Circuit::new("chain3");
        let d = c.input("d");
        let q0 = c.net("q0");
        let q1 = c.net("q1");
        let q2 = c.net("q2");
        c.dff(d, q0);
        c.dff(q0, q1);
        c.dff(q1, q2);
        c.output(q2);
        c
    }

    #[test]
    fn shift_in_and_out() {
        let c = three_ff_chain();
        let mut s = SimState::for_circuit(&c);
        s.load_ffs(&[Logic::Zero; 3]);
        shift(&mut s, &c, &[Logic::One, Logic::Zero, Logic::One]);
        // First-in bit has travelled to the last FF.
        assert_eq!(s.ff_values(), &[Logic::One, Logic::Zero, Logic::One]);
        let out = shift(&mut s, &c, &[Logic::Zero; 3]);
        assert_eq!(out, vec![Logic::One, Logic::Zero, Logic::One]);
    }

    #[test]
    fn continuity_on_healthy_chain() {
        let c = three_ff_chain();
        let mut s = SimState::for_circuit(&c);
        s.load_ffs(&[Logic::X; 3]);
        assert!(chain_continuity(&c, &mut s));
    }

    #[test]
    fn continuity_trivially_true_without_ffs() {
        let c = Circuit::new("comb-only");
        let mut s = SimState::for_circuit(&c);
        assert!(chain_continuity(&c, &mut s));
    }

    #[test]
    fn apply_vector_launches_and_captures() {
        // q1 captures XOR of q0 and the primary input.
        let mut c = Circuit::new("xor-capture");
        let a = c.input("a");
        let q0 = c.net("q0");
        let x = c.net("x");
        let q1 = c.net("q1");
        c.gate(GateKind::Xor, &[a, q0], x);
        c.dff(q0, q0); // holds its value
        c.dff(x, q1);
        c.output(q1);
        let v = ScanVector {
            pi: vec![Logic::One],
            load: vec![Logic::One, Logic::Zero],
        };
        let mut s = SimState::for_circuit(&c);
        let r = apply_vector(&c, &mut s, &v);
        // XOR(1, 1) = 0 captured into q1.
        assert_eq!(r.capture[1], Logic::Zero);
        assert_eq!(r.po, vec![Logic::Zero]);
    }

    #[test]
    #[should_panic(expected = "scan load length")]
    fn wrong_load_length_panics() {
        let c = three_ff_chain();
        let v = ScanVector {
            pi: vec![Logic::Zero],
            load: vec![Logic::Zero],
        };
        let mut s = SimState::for_circuit(&c);
        let _ = apply_vector(&c, &mut s, &v);
    }

    #[test]
    fn shift_on_empty_chain_echoes_input() {
        let c = Circuit::new("empty");
        let mut s = SimState::for_circuit(&c);
        let out = shift(&mut s, &c, &[Logic::One, Logic::Zero]);
        assert_eq!(out, vec![Logic::One, Logic::Zero]);
    }
}
