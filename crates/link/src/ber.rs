//! Bit-error-rate analysis: bathtub curves and timing margins.
//!
//! The synchronizer samples at phase `φ` inside an eye of half-width `w`
//! with Gaussian sampling jitter `σ`. The per-bit error probability is the
//! probability that the jittered sampling instant leaves the eye,
//!
//! ```text
//! BER(φ) = Q((w − (φ − c))/σ) + Q((w + (φ − c))/σ)
//! ```
//!
//! with `c` the eye center and `Q` the Gaussian tail. Sweeping `φ`
//! produces the classic *bathtub curve*; the horizontal span where the
//! curve stays below a target BER is the timing margin the clock
//! synchronizer must maintain — the quantitative version of the paper's
//! "sample at the center of the data eye".
//!
//! The margin at a target BER is `2 * (w − σ·Q⁻¹(target))`: [`q_inverse`]
//! finds `Q⁻¹` by bisection and [`BerModel::margin_at_q`] applies the
//! formula, so a caller scoring many eyes at one target inverts `Q` once.
//!
//! # Examples
//!
//! ```
//! use link::ber::BerModel;
//!
//! let m = BerModel::new(0.37, 0.30, 0.045);
//! // At the eye center the BER is astronomically low...
//! assert!(m.ber_at(0.37) < 1e-9);
//! // ...and at the eye edge it approaches one half.
//! assert!(m.ber_at(0.67) > 0.4);
//! ```

/// Gaussian right-tail probability `Q(x) = 0.5 * erfc(x / sqrt(2))`.
///
/// # Examples
///
/// ```
/// use link::ber::q_function;
///
/// assert!((q_function(0.0) - 0.5).abs() < 1e-7);
/// // Symmetry: Q(-x) = 1 - Q(x).
/// assert!((q_function(-1.0) + q_function(1.0) - 1.0).abs() < 1e-7);
/// ```
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Switch-over point between the A–S polynomial and the continued
/// fraction: at `x = 2` the polynomial's ~1.5e-7 absolute error is still
/// orders of magnitude below `erfc(2) ≈ 4.68e-3`, while beyond it the
/// *relative* error blows up and the tail eventually goes negative.
const ERFC_TAIL_SWITCH: f64 = 2.0;

/// Complementary error function.
///
/// Near the origin (`|x| < 2`) this is the Abramowitz–Stegun 7.1.26
/// rational approximation (absolute error < 1.5e-7). That polynomial's
/// error term dominates the true value deep in the tail — around
/// `x ≈ 3.7` it returns *negative* "probabilities", which used to corrupt
/// log-scale bathtub floors and the `timing_margin` bisection. The far
/// tail therefore switches to the Legendre continued fraction
///
/// ```text
/// erfc(x) = exp(-x²)/√π · 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + …))))
/// ```
///
/// evaluated bottom-up, whose *relative* error at `x ≥ 2` is far below
/// the polynomial's. The result is always within `[0, 2]` (and `[0, 1]`
/// for `x ≥ 0`), monotonically decreasing, and strictly positive for any
/// finite argument until it underflows to `+0.0`.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return (2.0 - erfc(-x)).clamp(0.0, 2.0);
    }
    let r = if x < ERFC_TAIL_SWITCH {
        let t = 1.0 / (1.0 + 0.3275911 * x);
        let poly = t
            * (0.254829592
                + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
        poly * (-x * x).exp()
    } else {
        // Bottom-up evaluation of the continued fraction with terms
        // a_n = n/2: the denominator chain x + a_1/(x + a_2/(x + …)).
        // 60 levels is converged to double precision for every x >= 2.
        let mut k = 0.0f64;
        for n in (1..=60).rev() {
            k = (n as f64 / 2.0) / (x + k);
        }
        (-x * x).exp() / ((x + k) * std::f64::consts::PI.sqrt())
    };
    r.clamp(0.0, 1.0)
}

/// A Gaussian-jitter eye model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerModel {
    center_ui: f64,
    half_width_ui: f64,
    sigma_ui: f64,
}

impl BerModel {
    /// Creates a model for an eye centered at `center_ui` with half-width
    /// `half_width_ui` and RMS jitter `sigma_ui` (all in UI).
    ///
    /// # Panics
    ///
    /// Panics if the half-width or jitter is not strictly positive.
    pub fn new(center_ui: f64, half_width_ui: f64, sigma_ui: f64) -> BerModel {
        assert!(half_width_ui > 0.0, "eye half-width must be positive");
        assert!(sigma_ui > 0.0, "jitter must be positive");
        BerModel {
            center_ui,
            half_width_ui,
            sigma_ui,
        }
    }

    /// Eye center in UI.
    pub fn center_ui(&self) -> f64 {
        self.center_ui
    }

    /// Error probability when sampling at phase `phi_ui`.
    pub fn ber_at(&self, phi_ui: f64) -> f64 {
        let d = phi_ui - self.center_ui;
        let left = (self.half_width_ui + d) / self.sigma_ui;
        let right = (self.half_width_ui - d) / self.sigma_ui;
        (q_function(left) + q_function(right)).min(1.0)
    }

    /// The bathtub curve: `points` samples of `(phase, BER)` across one UI
    /// centered on the eye, each an independent closed-form evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`.
    pub fn bathtub(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "a curve needs at least two points");
        (0..points)
            .map(|i| {
                let phi = self.center_ui - 0.5 + i as f64 / (points - 1) as f64;
                (phi, self.ber_at(phi))
            })
            .collect()
    }

    /// The timing margin (total open span, in UI) at a target BER:
    /// [`BerModel::margin_at_q`] applied to [`q_inverse`]`(target_ber)`,
    /// i.e. `2 * (w - σ·Q⁻¹(target))` clamped at zero. The inverse is a
    /// 200-step bisection; a caller that scores many eyes at one target
    /// (the link farm) computes it once and calls `margin_at_q` instead,
    /// with bit-identical results.
    ///
    /// # Examples
    ///
    /// ```
    /// use link::ber::BerModel;
    ///
    /// let m = BerModel::new(0.37, 0.30, 0.045);
    /// // A looser target leaves more of the eye usable...
    /// assert!(m.timing_margin(1e-3) > m.timing_margin(1e-9));
    /// // ...and at 1e-12 the paper's jitter budget consumes it entirely.
    /// assert_eq!(m.timing_margin(1e-12), 0.0);
    /// ```
    pub fn timing_margin(&self, target_ber: f64) -> f64 {
        self.margin_at_q(q_inverse(target_ber))
    }

    /// The timing margin (total open span, in UI) when each sampling
    /// edge must sit `x` jitter σ inside the eye: `2 * (w - σ·x)`,
    /// clamped at zero. With `x = q_inverse(target)` this is
    /// [`BerModel::timing_margin`]`(target)`, bit for bit.
    ///
    /// # Examples
    ///
    /// ```
    /// use link::ber::{q_inverse, BerModel};
    ///
    /// let m = BerModel::new(0.37, 0.30, 0.045);
    /// let x = q_inverse(1e-9);
    /// assert_eq!(m.margin_at_q(x).to_bits(), m.timing_margin(1e-9).to_bits());
    /// ```
    pub fn margin_at_q(&self, x: f64) -> f64 {
        (2.0 * (self.half_width_ui - self.sigma_ui * x)).max(0.0)
    }
}

/// The inverse Gaussian tail `Q⁻¹(target_ber)`: the `x` at which the
/// single dominant eye edge's error probability [`q_function`]`(x)`
/// equals the target. A 200-step bisection over `[0, 40]` that returns
/// the midpoint of the final bracket, so a target at or above
/// `Q(0) = 0.5` returns ≈0 and the result never exceeds 40.
///
/// Each step evaluates [`q_function`], whose tail branch is a 60-level
/// continued fraction, so one call costs tens of microseconds: hoist it
/// out of loops that share a target.
///
/// # Examples
///
/// ```
/// use link::ber::{q_function, q_inverse};
///
/// let x = q_inverse(1e-9);
/// assert!((x - 5.9978).abs() < 1e-4);
/// assert!((q_function(x) / 1e-9 - 1.0).abs() < 1e-6);
/// ```
pub fn q_inverse(target_ber: f64) -> f64 {
    // Find x with Q(x) = target (single dominant edge) by bisection.
    let (mut lo, mut hi) = (0.0f64, 40.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if q_function(mid) > target_ber {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_function_known_points() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-7);
        assert!((q_function(1.0) - 0.158655).abs() < 1e-4);
        assert!((q_function(3.0) - 1.3499e-3).abs() < 1e-5);
        // Symmetry: Q(-x) = 1 - Q(x).
        assert!((q_function(-1.0) + q_function(1.0) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn erfc_deep_tail_known_points() {
        // Continued-fraction region, values to >= 6 significant digits.
        for (x, want) in [
            (2.0, 4.677735e-3),
            (3.0, 2.209050e-5),
            (4.0, 1.541726e-8),
            (5.0, 1.537460e-12),
            (6.0, 2.151973e-17),
            (8.0, 1.122430e-29),
        ] {
            let got = erfc(x);
            assert!(
                ((got - want) / want).abs() < 1e-6,
                "erfc({x}) = {got:e}, want {want:e}"
            );
        }
    }

    #[test]
    fn erfc_never_negative_and_bounded() {
        // Regression: the bare A–S polynomial goes negative near x ≈ 3.7
        // (≈ -9e-8), poisoning log-scale bathtubs. Sweep the whole usable
        // range on both sides, including the polynomial/continued-fraction
        // switch-over, at fine steps.
        let mut x = -30.0f64;
        while x <= 30.0 {
            let v = erfc(x);
            assert!((0.0..=2.0).contains(&v), "erfc({x}) = {v} out of [0, 2]");
            if x >= 0.0 {
                assert!(v <= 1.0, "erfc({x}) = {v} above 1");
            }
            x += 0.01;
        }
        // Deep tail underflows to +0.0, never to a negative number.
        assert_eq!(erfc(40.0), 0.0);
        assert!(erfc(40.0).is_sign_positive());
    }

    #[test]
    fn erfc_is_monotone_decreasing() {
        // Monotone non-increasing across the sweep, strictly decreasing
        // away from the saturated ends (erfc(x) rounds to exactly 2.0 for
        // x ≲ -5.9 and underflows to 0.0 past x ≈ 26.5) — in particular
        // across the x = 2 switch-over.
        let mut x = -10.0f64;
        let mut prev = erfc(x);
        x += 0.01;
        while x <= 28.0 {
            let v = erfc(x);
            assert!(v <= prev, "erfc not monotone at {x}: {v} > {prev}");
            if prev <= 1.99 && v > 0.0 && x < 26.0 {
                assert!(v < prev, "erfc stalled at {x}");
            }
            prev = v;
            x += 0.01;
        }
    }

    #[test]
    fn deep_bathtub_floor_is_a_probability() {
        // The motivating failure: far from center the two-edge sum used
        // to dip below zero. The floor must stay a probability.
        let m = BerModel::new(0.5, 0.45, 0.045);
        let mut phi = 0.05;
        while phi <= 0.95 {
            let b = m.ber_at(phi);
            assert!((0.0..=1.0).contains(&b), "ber_at({phi}) = {b}");
            phi += 0.001;
        }
        assert!(m.ber_at(0.5) >= 0.0);
    }

    #[test]
    fn bathtub_is_symmetric_and_minimal_at_center() {
        let m = BerModel::new(0.37, 0.3, 0.045);
        let center = m.ber_at(0.37);
        for d in [0.05, 0.1, 0.2, 0.28] {
            let left = m.ber_at(0.37 - d);
            let right = m.ber_at(0.37 + d);
            assert!(
                (left - right).abs() < 1e-12 * left.max(1e-300),
                "asymmetric at {d}"
            );
            assert!(left >= center);
        }
    }

    #[test]
    fn more_jitter_more_errors() {
        let clean = BerModel::new(0.37, 0.3, 0.02);
        let noisy = BerModel::new(0.37, 0.3, 0.1);
        let phi = 0.37 + 0.2;
        assert!(noisy.ber_at(phi) > clean.ber_at(phi));
    }

    #[test]
    fn timing_margin_shrinks_with_jitter_and_target() {
        let m = BerModel::new(0.37, 0.3, 0.02);
        let loose = m.timing_margin(1e-3);
        let tight = m.timing_margin(1e-12);
        assert!(loose > tight, "{loose} vs {tight}");
        let noisy = BerModel::new(0.37, 0.3, 0.04);
        assert!(noisy.timing_margin(1e-12) < tight);
        // At the paper's 0.045 UI RMS jitter the 1e-12 margin vanishes
        // (0.045 * Q^-1(1e-12) ≈ 0.32 UI > the 0.30 UI half eye) — the
        // quantitative reason the synchronizer must hold the sampling
        // instant at the very center.
        let paper = BerModel::new(0.37, 0.3, 0.045);
        assert_eq!(paper.timing_margin(1e-12), 0.0);
        assert!(paper.timing_margin(1e-6) > 0.0);
        // A hopeless eye has zero margin.
        let closed = BerModel::new(0.37, 0.05, 0.1);
        assert_eq!(closed.timing_margin(1e-12), 0.0);
    }

    #[test]
    fn margin_consistent_with_curve() {
        // At the edge of the reported margin the BER is near the target.
        let m = BerModel::new(0.5, 0.3, 0.05);
        let target = 1e-9;
        let margin = m.timing_margin(target);
        let edge = 0.5 + margin / 2.0;
        let ber = m.ber_at(edge);
        assert!(ber < target * 10.0 && ber > target / 10.0, "{ber}");
    }

    #[test]
    fn bathtub_shape() {
        let m = BerModel::new(0.5, 0.3, 0.045);
        let curve = m.bathtub(101);
        assert_eq!(curve.len(), 101);
        // Walls high, floor low.
        assert!(curve[0].1 > 0.3);
        assert!(curve[50].1 < 1e-9);
        assert!(curve[100].1 > 0.3);
    }

    #[test]
    fn dense_bathtub_matches_pointwise_evaluation() {
        // Every sample agrees bit-for-bit with direct evaluation.
        let m = BerModel::new(0.37, 0.3, 0.045);
        let curve = m.bathtub(2048);
        assert_eq!(curve.len(), 2048);
        for (i, (phi, ber)) in curve.iter().enumerate().step_by(257) {
            let expected_phi = 0.37 - 0.5 + i as f64 / 2047.0;
            assert_eq!(*phi, expected_phi);
            assert_eq!(*ber, m.ber_at(expected_phi));
        }
    }

    /// `timing_margin` as it was before the bisection moved into
    /// `q_inverse`: the oracle for the split.
    fn timing_margin_inline(m: &BerModel, target_ber: f64) -> f64 {
        let (mut lo, mut hi) = (0.0f64, 40.0f64);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if q_function(mid) > target_ber {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let x = 0.5 * (lo + hi);
        (2.0 * (m.half_width_ui - m.sigma_ui * x)).max(0.0)
    }

    #[test]
    fn timing_margin_is_margin_at_q_of_q_inverse_bit_for_bit() {
        let models = [
            BerModel::new(0.37, 0.30, 0.045),
            BerModel::new(0.5, 0.3, 0.02),
            BerModel::new(0.5, 0.45, 0.01),
            BerModel::new(0.37, 1e-4, 0.045),
        ];
        for exp in 1..=15 {
            let t = 10f64.powi(-exp);
            let x = q_inverse(t);
            for m in &models {
                let margin = m.timing_margin(t);
                assert_eq!(margin.to_bits(), m.margin_at_q(x).to_bits(), "1e-{exp}");
                assert_eq!(
                    margin.to_bits(),
                    timing_margin_inline(m, t).to_bits(),
                    "1e-{exp} against the inline bisection"
                );
            }
        }
    }

    #[test]
    fn q_inverse_of_the_farm_target_is_pinned() {
        // The link farm's 1e-9 margin constant; a change here moves every
        // `margin_ui` in the farm records.
        let x = q_inverse(1e-9);
        assert_eq!(x.to_bits(), 0x4017_fdc1_1f44_b5a8, "{x}");
        assert_eq!(x, 5.997807015007687);
    }

    #[test]
    #[should_panic(expected = "half-width must be positive")]
    fn zero_width_rejected() {
        let _ = BerModel::new(0.5, 0.0, 0.05);
    }
}
