//! The coarse-loop clock divider.
//!
//! A synchronous binary counter whose MSB provides the divided clock for
//! the coarse correction loop (and, per the paper, can be shared across
//! multiple receivers and tested separately).
//!
//! # Examples
//!
//! ```
//! use dsim::blocks::divider::Divider;
//! use dsim::circuit::SimState;
//!
//! let div = Divider::new(4); // divide by 16 at the MSB
//! let mut s = SimState::for_circuit(div.circuit());
//! div.reset(&mut s);
//! for _ in 0..8 {
//!     div.circuit().tick(&mut s);
//! }
//! assert_eq!(div.count(&s), Some(8));
//! ```

use crate::circuit::{Circuit, GateKind, NetId, SimState};
use crate::logic::Logic;

/// An `n`-bit synchronous binary counter; the MSB is the divided clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Divider {
    circuit: Circuit,
    q: Vec<NetId>,
}

impl Divider {
    /// Builds an `n`-bit divider (divide ratio `2^n` at the MSB).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Divider {
        assert!(n > 0, "divider needs at least one stage");
        let mut c = Circuit::new(format!("divider-{n}"));
        let q: Vec<NetId> = (0..n).map(|i| c.net(format!("q{i}"))).collect();
        // d0 = !q0; carry chain: c1 = q0, c_{i+1} = c_i & q_i.
        let mut carry: Option<NetId> = None;
        for (i, &qi) in q.iter().enumerate() {
            let d = c.net(format!("d{i}"));
            match carry {
                None => {
                    c.gate(GateKind::Not, &[qi], d);
                    carry = Some(qi);
                }
                Some(cin) => {
                    c.gate(GateKind::Xor, &[qi, cin], d);
                    // No carry out of the MSB: it would be a dead
                    // (untestable) net.
                    if i + 1 < n {
                        let cout = c.net(format!("c{i}"));
                        c.gate(GateKind::And, &[qi, cin], cout);
                        carry = Some(cout);
                    }
                }
            }
            c.dff(d, qi);
            c.output(qi);
        }
        Divider { circuit: c, q }
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The divided-clock output net (MSB).
    pub fn divided_clock(&self) -> NetId {
        *self.q.last().expect("divider has at least one stage")
    }

    /// Clears the counter.
    pub fn reset(&self, state: &mut SimState) {
        state.load_ffs(&vec![Logic::Zero; self.q.len()]);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atpg::random_vectors;
    use crate::stuck_at::scan_coverage;

    #[test]
    fn counts_binary_sequence() {
        let d = Divider::new(3);
        let mut s = SimState::for_circuit(d.circuit());
        d.reset(&mut s);
        for expected in 1..=10u64 {
            d.circuit().tick(&mut s);
            assert_eq!(d.count(&s), Some(expected % 8));
        }
    }

    #[test]
    fn msb_divides_by_two_to_the_n() {
        let d = Divider::new(4);
        let mut s = SimState::for_circuit(d.circuit());
        d.reset(&mut s);
        let mut edges = 0;
        let mut last = Logic::Zero;
        for _ in 0..32 {
            d.circuit().tick(&mut s);
            let msb = s.net(d.divided_clock());
            if last == Logic::Zero && msb == Logic::One {
                edges += 1;
            }
            last = msb;
        }
        // 32 input cycles through a /16 divider: exactly 2 rising MSB edges.
        assert_eq!(edges, 2);
    }

    #[test]
    fn unknown_state_reads_none() {
        let d = Divider::new(2);
        let s = SimState::for_circuit(d.circuit());
        assert_eq!(d.count(&s), None);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stage_panics() {
        let _ = Divider::new(0);
    }

    #[test]
    fn full_stuck_at_coverage_with_scan() {
        let d = Divider::new(4);
        let vectors = random_vectors(d.circuit(), 64, 11);
        let cov = scan_coverage(d.circuit(), &vectors);
        assert!(
            (cov.coverage() - 1.0).abs() < 1e-12,
            "undetected: {:?}",
            cov.undetected()
        );
    }
}
