//! Offset comparators and window comparators.
//!
//! The paper uses three comparator flavours:
//!
//! * the DC-test comparator with a deliberately mismatched input pair
//!   giving a **15 mV programmed offset** (Fig. 5),
//! * the clocked window comparator at the receiver termination, operated
//!   at the 100 MHz scan frequency to expose *dynamic* mismatches (Fig. 6),
//! * the CP-BIST window comparator with a **150 mV window** watching the
//!   charge-balance node (Fig. 9).
//!
//! All are built from [`Comparator`]; the two-threshold flavours from
//! [`WindowComparator`].
//!
//! # Examples
//!
//! ```
//! use msim::blocks::comparator::Comparator;
//! use msim::units::Volt;
//!
//! // A 15 mV offset comparator sees a healthy 30 mV input: fires.
//! let cmp = Comparator::new(Volt::from_mv(15.0));
//! assert!(cmp.evaluate(Volt::from_mv(30.0), Volt::ZERO));
//! // A faulty link leaves only 10 mV: the comparator no longer fires.
//! assert!(!cmp.evaluate(Volt::from_mv(10.0), Volt::ZERO));
//! ```

use crate::units::{BitKey, Volt};

/// A comparator with a programmed input-referred offset.
///
/// Fires (`true`) when `in_plus > in_minus + offset`. Fault hooks allow the
/// output to be pinned or the offset to be shifted.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparator {
    offset: Volt,
    threshold_shift: Volt,
    stuck: Option<bool>,
}

impl Comparator {
    /// Creates a comparator with the given programmed offset.
    pub fn new(offset: Volt) -> Comparator {
        Comparator {
            offset,
            threshold_shift: Volt::ZERO,
            stuck: None,
        }
    }

    /// Pins the output to `value` (gross structural fault).
    pub fn with_stuck(mut self, value: bool) -> Comparator {
        self.stuck = Some(value);
        self
    }

    /// Shifts the effective threshold by `dv` (parametric fault). Positive
    /// shifts make the comparator harder to fire.
    pub fn with_threshold_shift(mut self, dv: Volt) -> Comparator {
        self.threshold_shift = dv;
        self
    }

    /// Effective threshold including any fault-injected shift.
    pub fn effective_offset(&self) -> Volt {
        self.offset + self.threshold_shift
    }

    /// Evaluates the comparator.
    pub fn evaluate(&self, in_plus: Volt, in_minus: Volt) -> bool {
        if let Some(v) = self.stuck {
            return v;
        }
        in_plus > in_minus + self.effective_offset()
    }
}

/// Decision of a [`WindowComparator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowDecision {
    /// Input below the lower threshold.
    BelowLow,
    /// Input inside the window — the "00" condition the scan test forces.
    Inside,
    /// Input above the upper threshold.
    AboveHigh,
}

/// Two comparators forming a window `[low, high]`.
///
/// Used both as the coarse-loop window comparator on `Vc` (thresholds
/// `VL`/`VH`) and as the CP-BIST window on the balance node `Vp`
/// (`nominal ± 75 mV`).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowComparator {
    high_threshold: Volt,
    low_threshold: Volt,
    high: Comparator,
    low: Comparator,
}

impl WindowComparator {
    /// Creates a window comparator with the given thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn new(low: Volt, high: Volt) -> WindowComparator {
        assert!(low < high, "window thresholds inverted");
        WindowComparator {
            high_threshold: high,
            low_threshold: low,
            high: Comparator::new(Volt::ZERO),
            low: Comparator::new(Volt::ZERO),
        }
    }

    /// Creates a symmetric window `center ± width/2` (the paper's CP-BIST
    /// window is `Vp_nominal ± 75 mV`).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not strictly positive.
    pub fn centered(center: Volt, width: Volt) -> WindowComparator {
        assert!(width.value() > 0.0, "window width must be positive");
        WindowComparator::new(center - width / 2.0, center + width / 2.0)
    }

    /// Pins the upper comparator's output (fault hook).
    pub fn with_high_stuck(mut self, value: bool) -> WindowComparator {
        self.high = self.high.with_stuck(value);
        self
    }

    /// Pins the lower comparator's output (fault hook).
    pub fn with_low_stuck(mut self, value: bool) -> WindowComparator {
        self.low = self.low.with_stuck(value);
        self
    }

    /// Shifts the upper threshold by `dv` (signed; positive widens).
    pub fn with_high_shift(mut self, dv: Volt) -> WindowComparator {
        self.high = self.high.with_threshold_shift(dv);
        self
    }

    /// Shifts the lower threshold by `dv` (signed; positive widens, i.e.
    /// moves the lower threshold down).
    pub fn with_low_shift(mut self, dv: Volt) -> WindowComparator {
        self.low = self.low.with_threshold_shift(dv);
        self
    }

    /// Evaluates the window decision for input `v`.
    pub fn evaluate(&self, v: Volt) -> WindowDecision {
        let above = self.high.evaluate(v, self.high_threshold);
        let below = self.low.evaluate(self.low_threshold, v);
        match (above, below) {
            (true, _) => WindowDecision::AboveHigh,
            (false, true) => WindowDecision::BelowLow,
            (false, false) => WindowDecision::Inside,
        }
    }
}

impl BitKey for Comparator {
    fn push_bits(&self, key: &mut Vec<u64>) {
        let Comparator {
            offset,
            threshold_shift,
            stuck,
        } = self;
        offset.push_bits(key);
        threshold_shift.push_bits(key);
        stuck.push_bits(key);
    }
}

impl BitKey for WindowComparator {
    fn push_bits(&self, key: &mut Vec<u64>) {
        let WindowComparator {
            high_threshold,
            low_threshold,
            high,
            low,
        } = self;
        high_threshold.push_bits(key);
        low_threshold.push_bits(key);
        high.push_bits(key);
        low.push_bits(key);
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_comparator_margins() {
        let cmp = Comparator::new(Volt::from_mv(15.0));
        assert!(cmp.evaluate(Volt::from_mv(30.0), Volt::ZERO));
        assert!(!cmp.evaluate(Volt::from_mv(14.0), Volt::ZERO));
        // Exactly at threshold: does not fire (strict inequality).
        assert!(!cmp.evaluate(Volt::from_mv(15.0), Volt::ZERO));
    }

    #[test]
    fn stuck_output_ignores_inputs() {
        let hi = Comparator::new(Volt::ZERO).with_stuck(true);
        let lo = Comparator::new(Volt::ZERO).with_stuck(false);
        assert!(hi.evaluate(Volt(-1.0), Volt(1.0)));
        assert!(!lo.evaluate(Volt(1.0), Volt(-1.0)));
    }

    #[test]
    fn threshold_shift_moves_decision() {
        let cmp = Comparator::new(Volt::from_mv(15.0)).with_threshold_shift(Volt::from_mv(20.0));
        // Effective threshold is now 35 mV.
        assert!(!cmp.evaluate(Volt::from_mv(30.0), Volt::ZERO));
        assert!(cmp.evaluate(Volt::from_mv(40.0), Volt::ZERO));
        assert!((cmp.effective_offset().mv() - 35.0).abs() < 1e-9);
    }

    #[test]
    fn window_decisions() {
        let w = WindowComparator::new(Volt(0.4), Volt(0.8));
        assert_eq!(w.evaluate(Volt(0.6)), WindowDecision::Inside);
        assert_eq!(w.evaluate(Volt(0.9)), WindowDecision::AboveHigh);
        assert_eq!(w.evaluate(Volt(0.3)), WindowDecision::BelowLow);
    }

    #[test]
    fn centered_window_matches_paper_bist_window() {
        let w = WindowComparator::centered(Volt(0.6), Volt::from_mv(150.0));
        assert_eq!(w.evaluate(Volt(0.6)), WindowDecision::Inside);
        assert_eq!(w.evaluate(Volt(0.68)), WindowDecision::AboveHigh);
        assert_eq!(w.evaluate(Volt(0.52)), WindowDecision::BelowLow);
        assert_eq!(w.evaluate(Volt(0.66)), WindowDecision::Inside);
    }

    #[test]
    #[should_panic(expected = "window thresholds inverted")]
    fn inverted_window_panics() {
        let _ = WindowComparator::new(Volt(0.8), Volt(0.4));
    }

    #[test]
    fn window_fault_hooks() {
        let w = WindowComparator::new(Volt(0.4), Volt(0.8)).with_high_stuck(true);
        // Even a mid-window input reads AboveHigh with the VH half stuck.
        assert_eq!(w.evaluate(Volt(0.6)), WindowDecision::AboveHigh);

        let w = WindowComparator::new(Volt(0.4), Volt(0.8)).with_low_stuck(true);
        assert_eq!(w.evaluate(Volt(0.6)), WindowDecision::BelowLow);

        // +100 mV shift on the high side widens the window upward.
        let w = WindowComparator::new(Volt(0.4), Volt(0.8)).with_high_shift(Volt::from_mv(100.0));
        assert_eq!(w.evaluate(Volt(0.85)), WindowDecision::Inside);
        assert_eq!(w.evaluate(Volt(0.91)), WindowDecision::AboveHigh);

        // -100 mV shift narrows it.
        let w = WindowComparator::new(Volt(0.4), Volt(0.8)).with_high_shift(Volt::from_mv(-100.0));
        assert_eq!(w.evaluate(Volt(0.75)), WindowDecision::AboveHigh);

        // Lower-side shift: positive moves the effective low threshold down.
        let w = WindowComparator::new(Volt(0.4), Volt(0.8)).with_low_shift(Volt::from_mv(100.0));
        assert_eq!(w.evaluate(Volt(0.35)), WindowDecision::Inside);
        assert_eq!(w.evaluate(Volt(0.29)), WindowDecision::BelowLow);
    }
}
