//! Multi-lane test scheduling.
//!
//! The paper notes that *"the divider in this circuit can be shared across
//! multiple such receivers in the chip and tested separately"* — real
//! deployments run many low-swing links side by side. This module models
//! the test time of an `n`-lane deployment under the paper's flow:
//!
//! * **DC test** — two vectors observed per lane; lanes measured serially
//!   on one tester channel (DC settle dominated).
//! * **Scan test** — each lane's chains A and B shift at the 100 MHz scan
//!   clock; chains of different lanes can be daisy-chained (serial) or
//!   given parallel scan-in pins.
//! * **BIST** — each lane locks autonomously, so all lanes run
//!   concurrently; the 2 µs budget is paid once, not per lane (the whole
//!   point of built-in self test).
//!
//! # Examples
//!
//! ```
//! use dft::multilane::TestSchedule;
//! use msim::params::DesignParams;
//!
//! let p = DesignParams::paper();
//! let serial = TestSchedule::new(&p, 16, false);
//! let parallel = TestSchedule::new(&p, 16, true);
//! // Parallel scan pins shorten the dominant scan phase.
//! assert!(parallel.total().value() < serial.total().value());
//! // BIST time does not grow with lane count.
//! assert_eq!(parallel.bist_time(), TestSchedule::new(&p, 1, true).bist_time());
//! ```

use msim::params::DesignParams;
use msim::units::Sec;

/// Scan-chain geometry of one lane (from the paper's Fig. 1 chains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneChains {
    /// Flip-flops in scan chain A (data path).
    pub chain_a_bits: usize,
    /// Flip-flops in scan chain B (clock control path).
    pub chain_b_bits: usize,
    /// Scan patterns applied per lane.
    pub patterns: usize,
}

impl LaneChains {
    /// The paper's lane: chain A ≈ 9 elements, chain B spans the window
    /// captures, FSM, 10-bit ring counter and 3-bit lock detector.
    pub fn paper() -> LaneChains {
        LaneChains {
            chain_a_bits: 9,
            chain_b_bits: 2 + 1 + 10 + 3,
            patterns: 64,
        }
    }
}

/// A test-time schedule for an `n`-lane deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct TestSchedule {
    p: DesignParams,
    lanes: usize,
    parallel_scan: bool,
    chains: LaneChains,
}

impl TestSchedule {
    /// Builds a schedule. `parallel_scan` gives every lane its own
    /// scan-in/out pins; otherwise lane chains are daisy-chained.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(p: &DesignParams, lanes: usize, parallel_scan: bool) -> TestSchedule {
        assert!(lanes > 0, "at least one lane");
        TestSchedule {
            p: p.clone(),
            lanes,
            parallel_scan,
            chains: LaneChains::paper(),
        }
    }

    /// DC tier: two settle-and-strobe vectors per lane, serial. A settle
    /// window of 20 line time constants is budgeted per vector.
    pub fn dc_time(&self) -> Sec {
        let settle = Sec::from_ns(100.0); // 20 tau of the 2 kΩ/1 pF line
        settle * 2.0 * self.lanes as f64
    }

    /// Scan tier: shift + capture for every pattern over both chains.
    pub fn scan_time(&self) -> Sec {
        let bits_per_lane = self.chains.chain_a_bits + self.chains.chain_b_bits;
        let effective_bits = if self.parallel_scan {
            bits_per_lane
        } else {
            bits_per_lane * self.lanes
        };
        // Shift in + shift out per pattern, one capture cycle each.
        let cycles = (2 * effective_bits + 1) * self.chains.patterns;
        self.p.scan_clock.period() * cycles as f64
    }

    /// BIST tier: all lanes lock concurrently; one budget covers the chip.
    pub fn bist_time(&self) -> Sec {
        self.p.ui() * self.p.bist_lock_budget as f64
    }

    /// Total flow time.
    pub fn total(&self) -> Sec {
        self.dc_time() + self.scan_time() + self.bist_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> DesignParams {
        DesignParams::paper()
    }

    #[test]
    fn single_lane_budget() {
        let s = TestSchedule::new(&p(), 1, false);
        // BIST = 5000 UIs = 2 us.
        assert!((s.bist_time().us() - 2.0).abs() < 1e-9);
        assert!(s.total().us() < 100.0, "single lane should test in <100 us");
    }

    #[test]
    fn bist_is_lane_count_invariant() {
        let one = TestSchedule::new(&p(), 1, false);
        let many = TestSchedule::new(&p(), 64, false);
        assert_eq!(one.bist_time(), many.bist_time());
    }

    #[test]
    fn serial_scan_grows_linearly() {
        let s1 = TestSchedule::new(&p(), 1, false).scan_time();
        let s8 = TestSchedule::new(&p(), 8, false).scan_time();
        let ratio = s8 / s1;
        assert!((ratio - 8.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn parallel_pins_flatten_scan_time() {
        let serial = TestSchedule::new(&p(), 32, false);
        let parallel = TestSchedule::new(&p(), 32, true);
        assert!(parallel.scan_time().value() < serial.scan_time().value() / 10.0);
        // DC stays serial either way (one measurement channel).
        assert_eq!(parallel.dc_time(), serial.dc_time());
    }

    #[test]
    fn scan_dominates_at_high_lane_count_without_parallel_pins() {
        let s = TestSchedule::new(&p(), 128, false);
        assert!(s.scan_time().value() > s.bist_time().value());
        assert!(s.scan_time().value() > s.dc_time().value());
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = TestSchedule::new(&p(), 0, false);
    }
}
