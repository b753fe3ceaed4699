//! The bidirectional one-hot ring counter (the paper's UP/DN counter).
//!
//! Selects one of the DLL phases through the switch matrix. On an enabled
//! clock edge the hot bit rotates up or down; disabled, it holds. The scan
//! test preloads it with one-hot (and all-zero) images exactly as the paper
//! describes.
//!
//! # Examples
//!
//! ```
//! use dsim::blocks::ring_counter::RingCounter;
//! use dsim::circuit::SimState;
//! use dsim::logic::Logic;
//!
//! let rc = RingCounter::new(10);
//! let mut s = SimState::for_circuit(rc.circuit());
//! rc.preload(&mut s, Some(0)); // hot bit at position 0
//! rc.set_controls(&mut s, true, true); // enabled, count up
//! rc.circuit().tick(&mut s);
//! assert_eq!(rc.hot(&s), Some(1));
//! ```

use crate::circuit::{Circuit, GateKind, NetId, SimState};
use crate::logic::Logic;

/// A one-hot bidirectional ring counter of width `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct RingCounter {
    circuit: Circuit,
    enable: NetId,
    up: NetId,
    q: Vec<NetId>,
}

impl RingCounter {
    /// Builds an `n`-bit ring counter.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> RingCounter {
        assert!(n >= 2, "ring counter needs at least two stages");
        let mut c = Circuit::new(format!("ring-counter-{n}"));
        let enable = c.input("enable");
        let up = c.input("up");
        let q: Vec<NetId> = (0..n).map(|i| c.net(format!("q{i}"))).collect();
        for (i, &qi) in q.iter().enumerate() {
            let prev = q[(i + n - 1) % n];
            let next = q[(i + 1) % n];
            // rotated = up ? q[i-1] : q[i+1]
            let rotated = c.net(format!("rot{i}"));
            c.gate(GateKind::Mux, &[up, next, prev], rotated);
            // d = enable ? rotated : q[i]
            let d = c.net(format!("d{i}"));
            c.gate(GateKind::Mux, &[enable, qi, rotated], d);
            c.dff(d, qi);
            c.output(qi);
        }
        RingCounter {
            circuit: c,
            enable,
            up,
            q,
        }
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Width.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Always `false` (a ring counter has at least two stages).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Preloads the state: `Some(i)` for one-hot at `i`, `None` for the
    /// all-zero image used by the paper's switch-matrix test.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn preload(&self, state: &mut SimState, hot: Option<usize>) {
        if let Some(i) = hot {
            assert!(i < self.q.len(), "hot index out of range");
        }
        let image: Vec<Logic> = (0..self.q.len())
            .map(|i| Logic::from_bool(hot == Some(i)))
            .collect();
        state.load_ffs(&image);
    }

    /// Drives the control inputs.
    pub fn set_controls(&self, state: &mut SimState, enable: bool, up: bool) {
        state.set_input(&self.circuit, self.enable, Logic::from_bool(enable));
        state.set_input(&self.circuit, self.up, Logic::from_bool(up));
    }

    /// Returns the index of the hot bit, or `None` if the state is not
    /// one-hot.
    pub fn hot(&self, state: &SimState) -> Option<usize> {
        let ones: Vec<usize> = state
            .ff_values()
            .iter()
            .enumerate()
            .filter(|(_, &v)| v == Logic::One)
            .map(|(i, _)| i)
            .collect();
        let all_known = state.ff_values().iter().all(|v| v.is_known());
        if all_known && ones.len() == 1 {
            Some(ones[0])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atpg::random_vectors;
    use crate::stuck_at::scan_coverage;

    #[test]
    fn counts_up_with_wraparound() {
        let rc = RingCounter::new(10);
        let mut s = SimState::for_circuit(rc.circuit());
        rc.preload(&mut s, Some(9));
        rc.set_controls(&mut s, true, true);
        rc.circuit().tick(&mut s);
        assert_eq!(rc.hot(&s), Some(0));
    }

    #[test]
    fn counts_down_with_wraparound() {
        let rc = RingCounter::new(10);
        let mut s = SimState::for_circuit(rc.circuit());
        rc.preload(&mut s, Some(0));
        rc.set_controls(&mut s, true, false);
        rc.circuit().tick(&mut s);
        assert_eq!(rc.hot(&s), Some(9));
    }

    #[test]
    fn holds_when_disabled() {
        let rc = RingCounter::new(4);
        let mut s = SimState::for_circuit(rc.circuit());
        rc.preload(&mut s, Some(2));
        rc.set_controls(&mut s, false, true);
        for _ in 0..5 {
            rc.circuit().tick(&mut s);
        }
        assert_eq!(rc.hot(&s), Some(2));
    }

    #[test]
    fn stays_one_hot_over_many_steps() {
        let rc = RingCounter::new(10);
        let mut s = SimState::for_circuit(rc.circuit());
        rc.preload(&mut s, Some(3));
        rc.set_controls(&mut s, true, true);
        for step in 1..=25 {
            rc.circuit().tick(&mut s);
            assert_eq!(rc.hot(&s), Some((3 + step) % 10));
        }
    }

    #[test]
    fn all_zero_preload_stays_zero() {
        // The paper's switch-matrix test: all-zero image selects no phase
        // and must persist.
        let rc = RingCounter::new(10);
        let mut s = SimState::for_circuit(rc.circuit());
        rc.preload(&mut s, None);
        rc.set_controls(&mut s, true, true);
        for _ in 0..10 {
            rc.circuit().tick(&mut s);
        }
        assert!(s.ff_values().iter().all(|&v| v == Logic::Zero));
        assert_eq!(rc.hot(&s), None);
    }

    #[test]
    #[should_panic(expected = "hot index out of range")]
    fn preload_out_of_range_panics() {
        let rc = RingCounter::new(4);
        let mut s = SimState::for_circuit(rc.circuit());
        rc.preload(&mut s, Some(4));
    }

    #[test]
    #[should_panic(expected = "at least two stages")]
    fn too_small_panics() {
        let _ = RingCounter::new(1);
    }

    #[test]
    fn full_stuck_at_coverage_with_scan() {
        // The paper: digital blocks reach 100 % stuck-at coverage.
        let rc = RingCounter::new(4);
        let vectors = random_vectors(rc.circuit(), 64, 7);
        let cov = scan_coverage(rc.circuit(), &vectors);
        assert!(
            (cov.coverage() - 1.0).abs() < 1e-12,
            "undetected: {:?}",
            cov.undetected()
        );
    }
}
