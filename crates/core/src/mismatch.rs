//! Monte-Carlo analysis of the programmed comparator offsets under
//! process mismatch.
//!
//! The paper deliberately mismatches the DC-test comparator's input pair
//! (0.8 µ vs 0.5 µ, Fig. 5) to program a 15 mV offset and claims this "is
//! sufficient to overcome any mismatch due to the manufacturing process".
//! This module quantifies that claim: random (Pelgrom-style) threshold
//! mismatch is added to the programmed offset, and we measure across many
//! virtual dies
//!
//! * the **false-failure rate** — a healthy die's 30 mV input failing the
//!   DC comparison because mismatch ate the margin, and
//! * the **escape inflation** — a marginal fault slipping past because
//!   mismatch widened the effective threshold.
//!
//! Trials are split into fixed 512-die chunks, each drawing from its own
//! [`rt::rng::Rng::seed_from_stream`] substream, and the chunks are fanned
//! across cores by [`rt::par`]; because the chunk grid depends only on the
//! trial count, the result is bit-identical on 1 or N threads.
//!
//! # Examples
//!
//! ```
//! use dft::mismatch::MonteCarlo;
//! use msim::params::DesignParams;
//! use msim::units::Volt;
//!
//! let mc = MonteCarlo::new(&DesignParams::paper(), Volt::from_mv(3.0));
//! let r = mc.run(2000, 7);
//! // At a realistic 3 mV sigma the paper's 15 mV margin holds easily.
//! assert_eq!(r.false_failures, 0);
//! ```

use link::rx::ReceiverFrontEnd;
use msim::params::DesignParams;
use msim::units::Volt;
use rt::rng::Rng;

/// Dies per parallel chunk. Part of the determinism contract: the chunk
/// grid is a function of the trial count only, never of the thread count.
const CHUNK_TRIALS: usize = 512;

/// Monte-Carlo driver for DC-comparator mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarlo {
    p: DesignParams,
    sigma: Volt,
}

/// Aggregate result of a mismatch run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MismatchResult {
    /// Number of virtual dies simulated.
    pub trials: usize,
    /// Healthy dies that failed the DC comparison (must be ~0 for the
    /// paper's claim to hold).
    pub false_failures: usize,
    /// Dies on which a 20 mV erosion fault (detectable at nominal) was
    /// missed because mismatch relaxed the threshold.
    pub marginal_fault_escapes: usize,
}

impl MismatchResult {
    /// False-failure rate in `[0, 1]`.
    pub fn false_failure_rate(&self) -> f64 {
        self.false_failures as f64 / self.trials as f64
    }

    /// Escape rate of the marginal fault in `[0, 1]`.
    pub fn escape_rate(&self) -> f64 {
        self.marginal_fault_escapes as f64 / self.trials as f64
    }
}

impl MonteCarlo {
    /// Creates a driver with random input-referred offset of standard
    /// deviation `sigma` per comparator (a 130 nm comparator with common
    /// centroid layout, per the paper, sits at a few mV).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not strictly positive.
    pub fn new(p: &DesignParams, sigma: Volt) -> MonteCarlo {
        assert!(sigma.value() > 0.0, "mismatch sigma must be positive");
        MonteCarlo {
            p: p.clone(),
            sigma,
        }
    }

    /// Simulates `trials` virtual dies with the given seed, fanning
    /// fixed-size chunks of dies across the available cores. The record
    /// is identical for any thread count (see the module docs).
    pub fn run(&self, trials: usize, seed: u64) -> MismatchResult {
        let chunks = trials.div_ceil(CHUNK_TRIALS);
        let per_chunk = rt::par::parallel_map_indexed(chunks, |chunk| {
            let in_chunk = CHUNK_TRIALS.min(trials - chunk * CHUNK_TRIALS);
            self.run_chunk(in_chunk, Rng::seed_from_stream(seed, chunk as u64))
        });
        let (false_failures, escapes) = per_chunk
            .iter()
            .fold((0, 0), |(f, e), &(cf, ce)| (f + cf, e + ce));
        MismatchResult {
            trials,
            false_failures,
            marginal_fault_escapes: escapes,
        }
    }

    /// One chunk of dies: `(false_failures, escapes)`.
    fn run_chunk(&self, trials: usize, mut rng: Rng) -> (usize, usize) {
        let healthy = self.p.dc_test_input();
        // A 20 mV erosion fault: nominally detected (30 - 20 = 10 < 15).
        let faulty = healthy - Volt::from_mv(20.0);
        let mut false_failures = 0;
        let mut escapes = 0;
        for _ in 0..trials {
            let delta = Volt(rng.gaussian() * self.sigma.value());
            // The die's comparator has offset 15 mV + delta.
            let offset = (self.p.cmp_offset + delta).max(Volt::from_mv(0.1));
            let rx = ReceiverFrontEnd::new(offset);
            if !rx.dc_pass(healthy, true) {
                false_failures += 1;
            }
            // The fault escapes when the eroded 10 mV still clears the
            // (mismatch-lowered) threshold.
            if rx.dc_pass(faulty, true) {
                escapes += 1;
            }
        }
        (false_failures, escapes)
    }

    /// Sweeps mismatch sigma and returns `(sigma_mv, result)` pairs —
    /// the data behind the `mismatch_monte_carlo` experiment binary.
    pub fn sweep(p: &DesignParams, sigmas_mv: &[f64], trials: usize) -> Vec<(f64, MismatchResult)> {
        sigmas_mv
            .iter()
            .map(|&s| {
                let mc = MonteCarlo::new(p, Volt::from_mv(s));
                (s, mc.run(trials, s.to_bits()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_margin_holds_at_realistic_mismatch() {
        // 3 mV sigma: the healthy 15 mV margin is 5 sigma away.
        let sigma = Volt::from_mv(crate::claims::MISMATCH_SIGMA_MV);
        let mc = MonteCarlo::new(&DesignParams::paper(), sigma);
        let r = mc.run(5000, 1);
        assert_eq!(r.false_failures, 0, "paper claim violated");
        // The 20 mV fault leaves 10 mV; the 5 mV detection margin is
        // ~1.7 sigma, so a few escapes are expected but not a collapse.
        assert!(r.escape_rate() < 0.10, "escape rate {}", r.escape_rate());
    }

    #[test]
    fn excessive_mismatch_breaks_the_scheme() {
        // At 10 mV sigma the margin is only 1.5 sigma: false failures
        // appear — the quantitative limit of the paper's sizing argument.
        let mc = MonteCarlo::new(&DesignParams::paper(), Volt::from_mv(10.0));
        let r = mc.run(5000, 2);
        assert!(r.false_failures > 0);
        assert!(r.false_failure_rate() < 0.5);
    }

    #[test]
    fn monotone_in_sigma() {
        let p = DesignParams::paper();
        let sweep = MonteCarlo::sweep(&p, &[2.0, 6.0, 12.0], 4000);
        assert!(sweep[0].1.false_failures <= sweep[1].1.false_failures);
        assert!(sweep[1].1.false_failures <= sweep[2].1.false_failures);
    }

    #[test]
    fn deterministic_per_seed() {
        let mc = MonteCarlo::new(&DesignParams::paper(), Volt::from_mv(5.0));
        assert_eq!(mc.run(1000, 9), mc.run(1000, 9));
        assert_ne!(mc.run(1000, 9), mc.run(1000, 10));
    }

    #[test]
    fn ragged_chunk_counts_still_sum_to_trials() {
        // 1300 trials = 2 full 512-die chunks + one 276-die remainder.
        let mc = MonteCarlo::new(&DesignParams::paper(), Volt::from_mv(10.0));
        let r = mc.run(1300, 3);
        assert_eq!(r.trials, 1300);
        assert!(r.false_failures <= 1300 && r.marginal_fault_escapes <= 1300);
        assert_eq!(r, mc.run(1300, 3));
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn zero_sigma_rejected() {
        let _ = MonteCarlo::new(&DesignParams::paper(), Volt::ZERO);
    }
}
