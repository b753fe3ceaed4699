//! The capacitively coupled feed-forward equalizing transmitter (Fig. 3).
//!
//! A weak current-source driver sets the low-swing DC levels (enabling
//! arbitrarily low activity factors), while series capacitors couple the
//! full-swing pre-driver edges onto the line, boosting the high-frequency
//! content — together a two-tap feed-forward equalizer. Per UI the driven
//! level is
//!
//! ```text
//! v(n) = Vcm ± swing/2 · ( d(n) + boost · (d(n) − d(n−1)) / 2 )
//! ```
//!
//! with `d ∈ {−1, +1}`: the classic FIR view of capacitive pre-emphasis.
//! The paper's DFT half-cycle latch for the phase-detector test is modelled
//! at gate level only, in the chain-A scan model (`dft::chain_a`).
//!
//! # Examples
//!
//! ```
//! use link::tx::Transmitter;
//! use msim::units::Volt;
//!
//! let mut tx = Transmitter::new(Volt(0.6), Volt::from_mv(60.0), 2.0);
//! let steady = tx.drive(true); // first 1 after a 1 history: no transition
//! let v1 = tx.drive(false);    // 1 -> 0 transition: boosted low
//! assert!(v1 < steady - Volt::from_mv(30.0));
//! ```

use msim::units::Volt;

/// The behavioral equalizing transmitter.
#[derive(Debug, Clone, PartialEq)]
pub struct Transmitter {
    vcm: Volt,
    half_swing: Volt,
    boost: f64,
    prev: f64,
}

impl Transmitter {
    /// Creates a transmitter around common mode `vcm` with differential
    /// `swing` and FFE `boost` (transition tap weight; 0 disables
    /// equalization).
    ///
    /// # Panics
    ///
    /// Panics if `swing` is not strictly positive or `boost` is negative.
    pub fn new(vcm: Volt, swing: Volt, boost: f64) -> Transmitter {
        assert!(swing.value() > 0.0, "swing must be positive");
        assert!(boost >= 0.0, "boost must be non-negative");
        Transmitter {
            vcm,
            half_swing: swing / 2.0,
            boost,
            prev: 1.0,
        }
    }

    /// Drives one bit and returns the (single-ended equivalent) line input
    /// level for this UI.
    pub fn drive(&mut self, bit: bool) -> Volt {
        let d = if bit { 1.0 } else { -1.0 };
        let tap = d + self.boost * (d - self.prev) / 2.0;
        self.prev = d;
        self.vcm + self.half_swing * tap
    }

    /// Differential drive: returns `(v_plus, v_minus)` mirrored around the
    /// common mode.
    pub fn drive_differential(&mut self, bit: bool) -> (Volt, Volt) {
        let v = self.drive(bit);
        let dev = v - self.vcm;
        (self.vcm + dev, self.vcm - dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_tx() -> Transmitter {
        Transmitter::new(Volt(0.6), Volt::from_mv(60.0), 2.0)
    }

    #[test]
    fn steady_state_levels() {
        // Repeating a bit leaves only the weak driver's level.
        let mut tx = paper_tx();
        tx.drive(true);
        assert!((tx.drive(true).mv() - 630.0).abs() < 1e-9);
        tx.drive(false);
        assert!((tx.drive(false).mv() - 570.0).abs() < 1e-9);
    }

    #[test]
    fn transitions_are_boosted() {
        let mut tx = paper_tx();
        tx.drive(true);
        tx.drive(true);
        // 1 -> 0 with boost 2: tap = -1 + 2*(-2)/2 = -3 -> 600 - 90 = 510 mV.
        let v = tx.drive(false);
        assert!((v.mv() - 510.0).abs() < 1e-9);
        // 0 -> 0: back to the weak-driver level.
        let v = tx.drive(false);
        assert!((v.mv() - 570.0).abs() < 1e-9);
    }

    #[test]
    fn zero_boost_is_plain_nrz() {
        let mut tx = Transmitter::new(Volt(0.6), Volt::from_mv(60.0), 0.0);
        for (bit, mv) in [(true, 630.0), (false, 570.0), (true, 630.0)] {
            let v = tx.drive(bit);
            assert!((v.mv() - mv).abs() < 1e-9);
        }
    }

    #[test]
    fn differential_is_symmetric() {
        let mut tx = paper_tx();
        let (p, m) = tx.drive_differential(true);
        assert!(((p + m) / 2.0 - Volt(0.6)).abs().mv() < 1e-9);
        assert!(p > m);
        let (p, m) = tx.drive_differential(false);
        assert!(p < m);
    }

    #[test]
    #[should_panic(expected = "swing must be positive")]
    fn zero_swing_panics() {
        let _ = Transmitter::new(Volt(0.6), Volt::ZERO, 1.0);
    }

    #[test]
    #[should_panic(expected = "boost must be non-negative")]
    fn negative_boost_panics() {
        let _ = Transmitter::new(Volt(0.6), Volt::from_mv(60.0), -0.5);
    }
}
