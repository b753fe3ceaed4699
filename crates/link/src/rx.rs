//! The receiver front end (Fig. 4): termination and the DC-test circuits.
//!
//! Functionally, the termination network returns the line to the common
//! mode through transmission-gate resistors. For test, the paper adds
//!
//! * two **DC comparators** with a 15 mV programmed offset (Fig. 5), one
//!   per polarity: with a healthy link each sees 30 mV of differential
//!   input, so a fault eroding the differential below the offset — or
//!   inverting it — flips a comparator;
//! * a **clocked window comparator** (Fig. 6) comparing the
//!   termination-derived bias against the clock-recovery-side bias
//!   generator with ±15 mV thresholds, operated at the 100 MHz scan clock
//!   so *dynamic* mismatches (the paper's transmission-gate drain-open
//!   example) are also exposed.
//!
//! # Examples
//!
//! ```
//! use link::rx::ReceiverFrontEnd;
//! use msim::units::Volt;
//!
//! let rx = ReceiverFrontEnd::new(Volt::from_mv(15.0));
//! // Healthy +30 mV differential: positive comparator fires, negative not.
//! assert_eq!(rx.dc_decision(Volt::from_mv(30.0)), (true, false));
//! // A fault eroding it to 10 mV: neither fires -> detected.
//! assert_eq!(rx.dc_decision(Volt::from_mv(10.0)), (false, false));
//! ```

use msim::blocks::comparator::Comparator;
use msim::units::Volt;

/// The receiver front end with its DC-test comparators and bias-comparison
/// window comparator.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceiverFrontEnd {
    offset: Volt,
    cmp_pos: Comparator,
    cmp_neg: Comparator,
    window_pos: Comparator,
    window_neg: Comparator,
}

impl ReceiverFrontEnd {
    /// Creates the front end with the given programmed comparator offset
    /// (the paper: 15 mV against a 30 mV healthy input).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not strictly positive.
    pub fn new(offset: Volt) -> ReceiverFrontEnd {
        assert!(offset.value() > 0.0, "comparator offset must be positive");
        ReceiverFrontEnd {
            offset,
            cmp_pos: Comparator::new(offset),
            cmp_neg: Comparator::new(offset),
            window_pos: Comparator::new(offset),
            window_neg: Comparator::new(offset),
        }
    }

    /// The two DC-comparator outputs `(positive, negative)` for a given
    /// differential input at the termination.
    ///
    /// Expected healthy readings: `(true, false)` for a driven 1,
    /// `(false, true)` for a driven 0.
    pub fn dc_decision(&self, diff: Volt) -> (bool, bool) {
        (
            self.cmp_pos.evaluate(diff, Volt::ZERO),
            self.cmp_neg.evaluate(-diff, Volt::ZERO),
        )
    }

    /// Whether the DC decision matches the expectation for the driven bit.
    pub fn dc_pass(&self, diff: Volt, driven_one: bool) -> bool {
        let expected = if driven_one {
            (true, false)
        } else {
            (false, true)
        };
        self.dc_decision(diff) == expected
    }

    /// The bias-comparison window comparator: flags when the receiver-side
    /// bias deviates from the clock-recovery-side reference by more than
    /// the programmed offset in either direction.
    pub fn bias_flagged(&self, rx_bias: Volt, ref_bias: Volt) -> bool {
        self.window_pos.evaluate(rx_bias, ref_bias) || self.window_neg.evaluate(ref_bias, rx_bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rx() -> ReceiverFrontEnd {
        ReceiverFrontEnd::new(Volt::from_mv(15.0))
    }

    #[test]
    fn healthy_link_passes_both_vectors() {
        let rx = rx();
        assert!(rx.dc_pass(Volt::from_mv(30.0), true));
        assert!(rx.dc_pass(Volt::from_mv(-30.0), false));
    }

    #[test]
    fn eroded_differential_fails() {
        let rx = rx();
        // 10 mV < 15 mV offset: neither comparator fires.
        assert!(!rx.dc_pass(Volt::from_mv(10.0), true));
        assert!(!rx.dc_pass(Volt::from_mv(-10.0), false));
    }

    #[test]
    fn inverted_differential_fails() {
        let rx = rx();
        assert!(!rx.dc_pass(Volt::from_mv(-30.0), true));
        assert_eq!(rx.dc_decision(Volt::from_mv(-30.0)), (false, true));
    }

    #[test]
    fn bias_window_flags_large_errors_only() {
        let rx = rx();
        assert!(!rx.bias_flagged(Volt(0.6), Volt(0.6)));
        assert!(!rx.bias_flagged(Volt(0.61), Volt(0.6)));
        assert!(rx.bias_flagged(Volt(0.62), Volt(0.6)));
        assert!(rx.bias_flagged(Volt(0.58), Volt(0.6)));
    }

    #[test]
    fn marginal_exact_offset_does_not_fire() {
        let rx = rx();
        // Strictly-greater semantics: exactly 15 mV is not detected as a
        // firing, mirroring a zero-margin design point.
        assert_eq!(rx.dc_decision(Volt::from_mv(15.0)), (false, false));
    }

    #[test]
    #[should_panic(expected = "offset must be positive")]
    fn zero_offset_panics() {
        let _ = ReceiverFrontEnd::new(Volt::ZERO);
    }
}
