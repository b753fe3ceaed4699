//! The digital portion of the Alexander (bang-bang) phase detector
//! (Fig. 7 of the paper).
//!
//! Three samples decide early/late: the previous bit `a`, the edge sample
//! `t` (taken half a UI later by the complementary clock phase) and the
//! current bit `b`:
//!
//! * `UP = a ⊕ t` — the edge sample already matches the new bit: the clock
//!   is late relative to the data, speed it up,
//! * `DN = t ⊕ b` — the edge sample still matches the old bit: early.
//!
//! With no data transition (`a == b`) both outputs are low. In the paper's
//! scan test the link runs at the scan frequency, which makes the PD assert
//! `UP` constantly; enabling the transmitter's half-cycle latch flips it to
//! `DN` — both paths are verified in two passes.
//!
//! # Examples
//!
//! ```
//! use dsim::blocks::alexander::AlexanderPd;
//!
//! let pd = AlexanderPd::new();
//! // Late clock: edge sample equals the new bit.
//! let (up, dn) = pd.decide(false, true, true);
//! assert!(up && !dn);
//! // Early clock: edge sample equals the old bit.
//! let (up, dn) = pd.decide(false, false, true);
//! assert!(!up && dn);
//! ```

use crate::circuit::{Circuit, GateKind, NetId, SimState};
use crate::logic::Logic;

/// The gate-level Alexander phase detector.
#[derive(Debug, Clone, PartialEq)]
pub struct AlexanderPd {
    circuit: Circuit,
    din: NetId,
    edge: NetId,
    up: NetId,
    dn: NetId,
    q_a: NetId,
    q_b: NetId,
    q_t: NetId,
}

impl AlexanderPd {
    /// Builds the phase detector: two data samplers in series (`b` then
    /// `a`) plus the edge sampler `t`, and the two XOR decision gates.
    pub fn new() -> AlexanderPd {
        let mut c = Circuit::new("alexander-pd");
        let din = c.input("din"); // data sampled by the in-phase clock
        let edge = c.input("edge"); // data sampled by the quadrature clock
        let q_b = c.net("q_b");
        let q_a = c.net("q_a");
        let q_t = c.net("q_t");
        c.dff(din, q_b); // current bit
        c.dff(q_b, q_a); // previous bit
        c.dff(edge, q_t); // edge sample
        let up = c.net("up");
        c.gate(GateKind::Xor, &[q_a, q_t], up);
        let dn = c.net("dn");
        c.gate(GateKind::Xor, &[q_t, q_b], dn);
        c.output(up);
        c.output(dn);
        AlexanderPd {
            circuit: c,
            din,
            edge,
            up,
            dn,
            q_a,
            q_b,
            q_t,
        }
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Combinational early/late decision for a given `(a, t, b)` sample
    /// triple, bypassing the samplers — the reference used by the
    /// behavioral synchronizer and the tests.
    pub fn decide(&self, a: bool, t: bool, b: bool) -> (bool, bool) {
        (a ^ t, t ^ b)
    }

    /// Clocks one bit through the samplers and returns `(up, dn)` after
    /// the edge (`None` while samples are still unknown).
    pub fn sample(&self, state: &mut SimState, din: bool, edge: bool) -> Option<(bool, bool)> {
        state.set_input(&self.circuit, self.din, Logic::from_bool(din));
        state.set_input(&self.circuit, self.edge, Logic::from_bool(edge));
        self.circuit.tick(state);
        let up = state.net(self.up).to_bool()?;
        let dn = state.net(self.dn).to_bool()?;
        Some((up, dn))
    }
}

impl Default for AlexanderPd {
    fn default() -> AlexanderPd {
        AlexanderPd::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atpg::random_vectors;
    use crate::stuck_at::scan_coverage;

    #[test]
    fn decision_truth_table() {
        let pd = AlexanderPd::new();
        // No transition: both low.
        assert_eq!(pd.decide(true, true, true), (false, false));
        assert_eq!(pd.decide(false, false, false), (false, false));
        // Transition, edge sample = new bit: late (UP).
        assert_eq!(pd.decide(false, true, true), (true, false));
        assert_eq!(pd.decide(true, false, false), (true, false));
        // Transition, edge sample = old bit: early (DN).
        assert_eq!(pd.decide(false, false, true), (false, true));
        assert_eq!(pd.decide(true, true, false), (false, true));
    }

    #[test]
    fn sampled_pipeline_matches_decision() {
        let pd = AlexanderPd::new();
        let mut s = SimState::for_circuit(pd.circuit());
        s.load_ffs(&[Logic::Zero, Logic::Zero, Logic::Zero]);
        // Feed 0 -> 1 with a late edge sample (edge sees the new bit).
        pd.sample(&mut s, false, false);
        // After this edge: a = 0 (previous bit), b = 1, t = 1.
        let (up, dn) = pd.sample(&mut s, true, true).unwrap();
        assert!(up && !dn, "late clock must assert UP");
        assert_eq!((up, dn), pd.decide(false, true, true));
    }

    #[test]
    fn scan_frequency_toggle_asserts_up_constantly() {
        // The paper: operated at scan frequency the PD always asserts UP;
        // the half-cycle TX latch flips it to DN. Model the first case as a
        // toggling pattern whose edge samples equal the new bit.
        let pd = AlexanderPd::new();
        let mut s = SimState::for_circuit(pd.circuit());
        s.load_ffs(&[Logic::Zero, Logic::Zero, Logic::Zero]);
        let mut bit = false;
        let mut ups = 0;
        let mut dns = 0;
        for _ in 0..16 {
            bit = !bit;
            if let Some((u, d)) = pd.sample(&mut s, bit, bit) {
                ups += u as u32;
                dns += d as u32;
            }
        }
        assert!(ups >= 14, "UP should dominate ({ups})");
        assert_eq!(dns, 0);
    }

    #[test]
    fn half_cycle_delay_flips_to_dn() {
        // With the TX half-cycle latch, the edge sample sees the *old* bit.
        let pd = AlexanderPd::new();
        let mut s = SimState::for_circuit(pd.circuit());
        s.load_ffs(&[Logic::Zero, Logic::Zero, Logic::Zero]);
        let mut bit = false;
        let mut dns = 0;
        for _ in 0..16 {
            let old = bit;
            bit = !bit;
            if let Some((_, d)) = pd.sample(&mut s, bit, old) {
                dns += d as u32;
            }
        }
        assert!(dns >= 14, "DN should dominate ({dns})");
    }

    #[test]
    fn full_stuck_at_coverage_with_scan() {
        let pd = AlexanderPd::new();
        let vectors = random_vectors(pd.circuit(), 64, 23);
        let cov = scan_coverage(pd.circuit(), &vectors);
        assert!(
            (cov.coverage() - 1.0).abs() < 1e-12,
            "undetected: {:?}",
            cov.undetected()
        );
    }
}
