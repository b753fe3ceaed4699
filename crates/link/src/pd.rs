//! Phase-domain view of the Alexander phase detector.
//!
//! The gate-level detector lives in `dsim::blocks::alexander`; the clock
//! synchronizer's loop simulation needs only its *decision function*: on a
//! data transition, is the sampling clock early or late relative to the
//! eye center? [`BangBangPd`] provides exactly that, including the wrapped
//! timing-error computation shared by the lock/BIST analyses.
//!
//! # Examples
//!
//! ```
//! use link::pd::{BangBangPd, PdDecision};
//!
//! let pd = BangBangPd::new();
//! // Sampling 0.1 UI before the eye center on a transition: speed up.
//! assert_eq!(pd.decide(-0.1, true), Some(PdDecision::Up));
//! // No transition: no information.
//! assert_eq!(pd.decide(-0.1, false), None);
//! ```

/// A bang-bang (early/late) decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PdDecision {
    /// Sampling early: increase the sampling delay (pump `Vc` up).
    Up,
    /// Sampling late: decrease the sampling delay (pump `Vc` down).
    Down,
}

/// The bang-bang phase detector decision function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BangBangPd;

impl BangBangPd {
    /// Creates the detector.
    pub fn new() -> BangBangPd {
        BangBangPd
    }

    /// Wraps a phase difference into `(-0.5, 0.5]` UI.
    ///
    /// Bit-identical to reducing `tau - target` with `% 1.0` first: a
    /// difference already inside `(-1, 1)` is its own remainder (signed
    /// zeros included), so only larger ones, infinities and NaN pay for
    /// the `fmod`.
    pub fn wrap_error(tau: f64, target: f64) -> f64 {
        let d = tau - target;
        let mut e = if d.abs() < 1.0 { d } else { d % 1.0 };
        if e > 0.5 {
            e -= 1.0;
        } else if e <= -0.5 {
            e += 1.0;
        }
        e
    }

    /// Early/late decision for a wrapped timing error, valid only on a
    /// data transition (an Alexander PD is silent without one).
    pub fn decide(&self, error_ui: f64, transition: bool) -> Option<PdDecision> {
        if !transition {
            return None;
        }
        if error_ui < 0.0 {
            Some(PdDecision::Up)
        } else {
            Some(PdDecision::Down)
        }
    }
}

/// [`BangBangPd::wrap_error`] as it was written before the `|d| < 1`
/// shortcut, always through `fmod`: the reference its tests compare
/// against bit for bit.
#[cfg(test)]
pub(crate) fn reference_wrap_error(tau: f64, target: f64) -> f64 {
    let mut e = (tau - target) % 1.0;
    if e > 0.5 {
        e -= 1.0;
    } else if e <= -0.5 {
        e += 1.0;
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_keeps_half_open_interval() {
        assert!((BangBangPd::wrap_error(0.9, 0.1) - (-0.2)).abs() < 1e-12);
        assert!((BangBangPd::wrap_error(0.1, 0.9) - 0.2).abs() < 1e-12);
        assert!((BangBangPd::wrap_error(0.37, 0.37)).abs() < 1e-12);
        // Exactly opposite: lands on +0.5, not -0.5.
        assert!((BangBangPd::wrap_error(0.87, 0.37) - 0.5).abs() < 1e-12);
        // Multi-UI separations wrap.
        assert!((BangBangPd::wrap_error(2.47, 0.37) - 0.1).abs() < 1e-12);
    }

    fn assert_wrap_bits(tau: f64, target: f64) {
        let (got, want) = (
            BangBangPd::wrap_error(tau, target),
            reference_wrap_error(tau, target),
        );
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "wrap_error({tau:e}, {target:e}) = {got:e}, reference {want:e}"
        );
    }

    #[test]
    fn wrap_is_bitwise_the_fmod_reference() {
        let below_one = 1.0 - f64::EPSILON / 2.0;
        let mut edges = vec![
            0.0,
            below_one,
            1.0,
            0.5,
            1.5,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NAN,
        ];
        edges.extend(edges.clone().into_iter().map(|x| -x));
        for &tau in &edges {
            for &target in &edges {
                assert_wrap_bits(tau, target);
            }
        }
        let mut rng = rt::rng::Rng::seed_from_u64(0x3a9);
        for i in 0..200_000u32 {
            let scale = [1.0, 2.0, 1e3, 1e18][i as usize % 4];
            let tau = rng.range_f64(-scale, scale);
            let target = rng.range_f64(-scale, scale);
            assert_wrap_bits(tau, target);
        }
    }

    #[test]
    fn early_says_up_late_says_down() {
        let pd = BangBangPd::new();
        assert_eq!(pd.decide(-0.2, true), Some(PdDecision::Up));
        assert_eq!(pd.decide(0.2, true), Some(PdDecision::Down));
        // Zero error dithers toward Down by convention (bang-bang has no
        // dead zone).
        assert_eq!(pd.decide(0.0, true), Some(PdDecision::Down));
    }

    #[test]
    fn silent_without_transition() {
        let pd = BangBangPd::new();
        assert_eq!(pd.decide(0.3, false), None);
        assert_eq!(pd.decide(-0.3, false), None);
    }
}
