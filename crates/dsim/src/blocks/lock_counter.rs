//! The BIST lock detector: a 3-bit saturating UP counter.
//!
//! Logs the number of coarse-correction requests. The paper's argument:
//! from any initial condition at most `dll_phases / 2` corrections are
//! needed, so with a 10-phase DLL a 3-bit saturating counter suffices — if
//! it ever saturates, the link failed to lock.
//!
//! # Examples
//!
//! ```
//! use dsim::blocks::lock_counter::LockCounter;
//! use dsim::circuit::SimState;
//!
//! let lc = LockCounter::new(3);
//! let mut s = SimState::for_circuit(lc.circuit());
//! lc.reset_state(&mut s);
//! for _ in 0..12 {
//!     lc.step(&mut s, true); // 12 correction events
//! }
//! // Saturates at 7 instead of wrapping.
//! assert_eq!(lc.count(&s), Some(7));
//! assert!(lc.saturated(&s));
//! ```

use crate::circuit::{Circuit, GateKind, NetId, SimState};
use crate::logic::Logic;

/// An `n`-bit saturating UP counter with enable and synchronous reset.
#[derive(Debug, Clone, PartialEq)]
pub struct LockCounter {
    circuit: Circuit,
    enable: NetId,
    reset: NetId,
    saturated: NetId,
    q: Vec<NetId>,
}

impl LockCounter {
    /// Builds an `n`-bit saturating counter.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> LockCounter {
        assert!(n > 0, "counter needs at least one bit");
        let mut c = Circuit::new(format!("lock-counter-{n}"));
        let enable = c.input("enable");
        let reset = c.input("reset");
        let q: Vec<NetId> = (0..n).map(|i| c.net(format!("q{i}"))).collect();
        // saturated = AND of all bits.
        let saturated = c.net("saturated");
        if n == 1 {
            c.gate(GateKind::Buf, &[q[0]], saturated);
        } else {
            c.gate(GateKind::And, &q, saturated);
        }
        // inc = enable & !saturated.
        let not_sat = c.net("not_sat");
        c.gate(GateKind::Not, &[saturated], not_sat);
        let inc = c.net("inc");
        c.gate(GateKind::And, &[enable, not_sat], inc);
        let not_reset = c.net("not_reset");
        c.gate(GateKind::Not, &[reset], not_reset);
        // Ripple-increment with saturation, gated by reset.
        let mut carry = inc;
        for (i, &qi) in q.iter().enumerate() {
            let sum = c.net(format!("sum{i}"));
            c.gate(GateKind::Xor, &[qi, carry], sum);
            let d = c.net(format!("d{i}"));
            c.gate(GateKind::And, &[sum, not_reset], d);
            if i + 1 < n {
                let cout = c.net(format!("c{i}"));
                c.gate(GateKind::And, &[qi, carry], cout);
                carry = cout;
            }
            c.dff(d, qi);
            c.output(qi);
        }
        c.output(saturated);
        LockCounter {
            circuit: c,
            enable,
            reset,
            saturated,
            q,
        }
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Enable (count event) input net.
    pub fn enable(&self) -> NetId {
        self.enable
    }

    /// Synchronous reset input net.
    pub fn reset(&self) -> NetId {
        self.reset
    }

    /// Clears the counter state.
    pub fn reset_state(&self, state: &mut SimState) {
        state.load_ffs(&vec![Logic::Zero; self.q.len()]);
    }

    /// Applies one clock with the given enable (reset deasserted).
    pub fn step(&self, state: &mut SimState, enable: bool) {
        state.set_input(&self.circuit, self.enable, Logic::from_bool(enable));
        state.set_input(&self.circuit, self.reset, Logic::Zero);
        self.circuit.tick(state);
    }

    /// Reads the counter value; `None` if any bit is unknown.
    pub fn count(&self, state: &SimState) -> Option<u64> {
        let mut v = 0u64;
        for (i, bit) in state.ff_values().iter().enumerate() {
            match bit.to_bool() {
                Some(true) => v |= 1 << i,
                Some(false) => {}
                None => return None,
            }
        }
        Some(v)
    }

    /// Whether the counter has saturated (all ones).
    pub fn saturated(&self, state: &SimState) -> bool {
        state.ff_values().iter().all(|&b| b == Logic::One)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atpg::random_vectors;
    use crate::stuck_at::scan_coverage;

    #[test]
    fn counts_and_saturates() {
        let lc = LockCounter::new(3);
        let mut s = SimState::for_circuit(lc.circuit());
        lc.reset_state(&mut s);
        for expected in 1..=7 {
            lc.step(&mut s, true);
            assert_eq!(lc.count(&s), Some(expected));
        }
        // Further events do not wrap.
        lc.step(&mut s, true);
        lc.step(&mut s, true);
        assert_eq!(lc.count(&s), Some(7));
        assert!(lc.saturated(&s));
    }

    #[test]
    fn disabled_holds() {
        let lc = LockCounter::new(3);
        let mut s = SimState::for_circuit(lc.circuit());
        lc.reset_state(&mut s);
        lc.step(&mut s, true);
        lc.step(&mut s, false);
        lc.step(&mut s, false);
        assert_eq!(lc.count(&s), Some(1));
    }

    #[test]
    fn synchronous_reset_clears() {
        let lc = LockCounter::new(3);
        let mut s = SimState::for_circuit(lc.circuit());
        lc.reset_state(&mut s);
        for _ in 0..5 {
            lc.step(&mut s, true);
        }
        s.set_input(lc.circuit(), lc.enable(), Logic::Zero);
        s.set_input(lc.circuit(), lc.reset(), Logic::One);
        lc.circuit().tick(&mut s);
        assert_eq!(lc.count(&s), Some(0));
    }

    #[test]
    fn paper_budget_fits_three_bits() {
        // At most dll_phases/2 = 5 corrections are needed; 5 < 7 so a
        // healthy lock never saturates a 3-bit counter.
        let lc = LockCounter::new(3);
        let mut s = SimState::for_circuit(lc.circuit());
        lc.reset_state(&mut s);
        for _ in 0..5 {
            lc.step(&mut s, true);
        }
        assert!(!lc.saturated(&s));
    }

    #[test]
    fn single_bit_counter() {
        let lc = LockCounter::new(1);
        let mut s = SimState::for_circuit(lc.circuit());
        lc.reset_state(&mut s);
        lc.step(&mut s, true);
        lc.step(&mut s, true);
        assert_eq!(lc.count(&s), Some(1));
        assert!(lc.saturated(&s));
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_panics() {
        let _ = LockCounter::new(0);
    }

    #[test]
    fn full_stuck_at_coverage_with_scan() {
        let lc = LockCounter::new(3);
        let vectors = random_vectors(lc.circuit(), 64, 13);
        let cov = scan_coverage(lc.circuit(), &vectors);
        assert!(
            (cov.coverage() - 1.0).abs() < 1e-12,
            "undetected: {:?}",
            cov.undetected()
        );
    }
}
