//! Pseudo-random binary sequence generators.
//!
//! The paper's BIST runs the interconnect "with random data at speed"; in
//! silicon that stimulus comes from an LFSR, not a software RNG. This
//! module provides the standard `x^n + x^m + 1` PRBS polynomials as
//! Fibonacci LFSRs so a stimulus (and its golden reference at the
//! receiver) is a faithful, hardware-realizable sequence.
//!
//! # Examples
//!
//! ```
//! use link::prbs::Prbs;
//!
//! // PRBS7, x^7 + x^6 + 1 (ITU-T O.150), from the all-ones seed.
//! let mut gen = Prbs::new(7, 6, 0x7f);
//! let bits: Vec<bool> = gen.by_ref().take(127).collect();
//! // A PRBS7 sequence repeats with period 2^7 - 1 = 127.
//! let again: Vec<bool> = gen.take(127).collect();
//! assert_eq!(bits, again);
//! ```

/// A Fibonacci LFSR PRBS generator.
///
/// Implements the standard `x^n + x^m + 1` polynomials. The all-zero
/// state is the lock-up state and is rejected as a seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prbs {
    state: u32,
    /// Feedback tap positions (1-based bit indices).
    tap_a: u32,
    tap_b: u32,
    /// Register length.
    length: u32,
}

impl Prbs {
    /// Creates a PRBS with polynomial `x^length + x^tap + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `length` is 0 or exceeds 31, or `tap` is not in
    /// `1..length`, or the seed is zero.
    pub fn new(length: u32, tap: u32, seed: u32) -> Prbs {
        assert!((1..=31).contains(&length), "LFSR length out of range");
        assert!(
            (1..length).contains(&tap),
            "tap must be inside the register"
        );
        let mask = (1u32 << length) - 1;
        assert!(seed & mask != 0, "the all-zero LFSR state locks up");
        Prbs {
            state: seed & mask,
            tap_a: length,
            tap_b: tap,
            length,
        }
    }

    /// Generates the next bit.
    pub fn next_bit(&mut self) -> bool {
        let a = (self.state >> (self.tap_a - 1)) & 1;
        let b = (self.state >> (self.tap_b - 1)) & 1;
        let fb = a ^ b;
        self.state = ((self.state << 1) | fb) & ((1 << self.length) - 1);
        fb == 1
    }
}

impl Iterator for Prbs {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        Some(self.next_bit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// PRBS7: `x^7 + x^6 + 1` (ITU-T O.150), period 127.
    fn prbs7() -> Prbs {
        Prbs::new(7, 6, 0x7f)
    }

    #[test]
    fn prbs7_has_full_period() {
        let mut gen = prbs7();
        let mut states = HashSet::new();
        for _ in 0..127 {
            assert!(states.insert(gen.state), "state repeated early");
            gen.next_bit();
        }
        // After a full period the state returns to the seed.
        assert_eq!(gen.state, 0x7f);
    }

    #[test]
    fn prbs7_is_balanced() {
        // A maximal-length sequence has 2^(n-1) ones and 2^(n-1)-1 zeros.
        let bits: Vec<bool> = prbs7().take(127).collect();
        let ones = bits.iter().filter(|b| **b).count();
        assert_eq!(ones, 64);
    }

    #[test]
    fn prbs15_period_spot_check() {
        // PRBS15: x^15 + x^14 + 1, period 32767.
        let mut gen = Prbs::new(15, 14, 0x7fff);
        for _ in 0..32767 {
            gen.next_bit();
        }
        assert_eq!(gen.state, 0x7fff);
    }

    #[test]
    fn prbs7_runs_distribution() {
        // Maximal-length property: runs of length k appear 2^(n-1-k)
        // times; the longest run of ones is n, of zeros n-1.
        let bits: Vec<bool> = prbs7().take(127 * 2).collect();
        let mut max_ones = 0;
        let mut max_zeros = 0;
        let mut run = 0i32;
        let mut last = !bits[0];
        for &b in &bits {
            if b == last {
                run += 1;
            } else {
                run = 1;
                last = b;
            }
            if b {
                max_ones = max_ones.max(run);
            } else {
                max_zeros = max_zeros.max(run);
            }
        }
        assert_eq!(max_ones, 7);
        assert_eq!(max_zeros, 6);
    }

    #[test]
    fn deterministic_iterator() {
        let a: Vec<bool> = prbs7().take(64).collect();
        let b: Vec<bool> = prbs7().take(64).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "all-zero LFSR state")]
    fn zero_seed_rejected() {
        let _ = Prbs::new(7, 6, 0);
    }

    #[test]
    #[should_panic(expected = "tap must be inside")]
    fn bad_tap_rejected() {
        let _ = Prbs::new(7, 7, 1);
    }

    #[test]
    #[should_panic(expected = "length out of range")]
    fn bad_length_rejected() {
        let _ = Prbs::new(32, 6, 1);
    }
}
