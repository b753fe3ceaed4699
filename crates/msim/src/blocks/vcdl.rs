//! The fine-loop voltage-controlled delay line.
//!
//! The VCDL delays the coarse-selected DLL phase by a continuously tunable
//! amount controlled by `Vc`. The paper's design rule: over the control
//! window `[VL, VH]` the delay range must exceed one DLL phase step, so the
//! coarse and fine loops hand over seamlessly.
//!
//! Delay is expressed in UI (unit intervals) throughout; converting to
//! seconds is a multiplication by the bit time.
//!
//! # Examples
//!
//! ```
//! use msim::blocks::vcdl::Vcdl;
//! use msim::params::DesignParams;
//! use msim::units::Volt;
//!
//! let p = DesignParams::paper();
//! let vcdl = Vcdl::from_params(&p);
//! // At VL the delay is zero, at VH it is the full range (0.13 UI).
//! assert!(vcdl.delay_ui(p.window_low).abs() < 1e-12);
//! assert!((vcdl.delay_ui(p.window_high) - 0.13).abs() < 1e-12);
//! ```

use crate::params::DesignParams;
use crate::units::Volt;

/// Behavioral voltage-controlled delay line.
#[derive(Debug, Clone, PartialEq)]
pub struct Vcdl {
    range_ui: f64,
    vl: Volt,
    vh: Volt,
    range_scale: f64,
    stuck_frac: Option<f64>,
}

impl Vcdl {
    /// Creates a VCDL spanning `range_ui` of delay as the control voltage
    /// sweeps `[vl, vh]`.
    ///
    /// # Panics
    ///
    /// Panics if `vl >= vh` or `range_ui` is not strictly positive.
    pub fn new(range_ui: f64, vl: Volt, vh: Volt) -> Vcdl {
        assert!(vl < vh, "VCDL control window inverted");
        assert!(range_ui > 0.0, "VCDL range must be positive");
        Vcdl {
            range_ui,
            vl,
            vh,
            range_scale: 1.0,
            stuck_frac: None,
        }
    }

    /// Creates the paper design point's VCDL.
    pub fn from_params(p: &DesignParams) -> Vcdl {
        Vcdl::new(p.vcdl_range_ui, p.window_low, p.window_high)
    }

    /// Scales the tuning range (fault hook: a lost starve stage).
    pub fn with_range_scale(mut self, factor: f64) -> Vcdl {
        self.range_scale = factor;
        self
    }

    /// Freezes the delay at `frac` of the nominal range (fault hook: the
    /// control path is dead, the fine loop no longer actuates).
    pub fn with_stuck(mut self, frac: f64) -> Vcdl {
        self.stuck_frac = Some(frac);
        self
    }

    /// Nominal tuning range in UI (without fault scaling).
    pub fn range_ui(&self) -> f64 {
        self.range_ui
    }

    /// Effective tuning range in UI including fault scaling. Zero when the
    /// delay is stuck.
    pub fn effective_range_ui(&self) -> f64 {
        if self.stuck_frac.is_some() {
            0.0
        } else {
            self.range_ui * self.range_scale
        }
    }

    /// Whether the delay is frozen by a fault.
    pub fn is_stuck(&self) -> bool {
        self.stuck_frac.is_some()
    }

    /// Delay in UI for control voltage `vc`.
    ///
    /// Linear between the window thresholds, saturating outside them — the
    /// physical delay line keeps (slightly) delaying beyond the window, but
    /// the usable range is specified across `[VL, VH]`.
    #[inline]
    pub fn delay_ui(&self, vc: Volt) -> f64 {
        if let Some(frac) = self.stuck_frac {
            return self.range_ui * frac.clamp(0.0, 1.0);
        }
        let span = self.vh - self.vl;
        let frac = ((vc - self.vl) / span).clamp(0.0, 1.0);
        self.range_ui * self.range_scale * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_vcdl() -> Vcdl {
        Vcdl::from_params(&DesignParams::paper())
    }

    #[test]
    fn linear_between_thresholds() {
        let v = paper_vcdl();
        let mid = v.delay_ui(Volt(0.6));
        assert!((mid - 0.065).abs() < 1e-12);
    }

    #[test]
    fn saturates_outside_window() {
        let v = paper_vcdl();
        assert_eq!(v.delay_ui(Volt(0.0)), 0.0);
        assert!((v.delay_ui(Volt(1.2)) - 0.13).abs() < 1e-12);
    }

    #[test]
    fn range_exceeds_phase_step() {
        let p = DesignParams::paper();
        let v = Vcdl::from_params(&p);
        assert!(v.effective_range_ui() > p.phase_step_ui());
    }

    #[test]
    fn range_scale_fault_shrinks_range() {
        let p = DesignParams::paper();
        let v = paper_vcdl().with_range_scale(0.5);
        assert!((v.effective_range_ui() - 0.065).abs() < 1e-12);
        // Now below one phase step: dead zones will open.
        assert!(v.effective_range_ui() < p.phase_step_ui());
        assert!((v.delay_ui(p.window_high) - 0.065).abs() < 1e-12);
    }

    #[test]
    fn stuck_fault_freezes_delay() {
        let v = paper_vcdl().with_stuck(0.5);
        assert!(v.is_stuck());
        assert_eq!(v.effective_range_ui(), 0.0);
        let d1 = v.delay_ui(Volt(0.0));
        let d2 = v.delay_ui(Volt(1.2));
        assert_eq!(d1, d2);
        assert!((d1 - 0.065).abs() < 1e-12);
    }

    #[test]
    fn stuck_frac_is_clamped() {
        let v = paper_vcdl().with_stuck(7.0);
        assert!((v.delay_ui(Volt(0.6)) - 0.13).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "control window inverted")]
    fn inverted_window_panics() {
        let _ = Vcdl::new(0.1, Volt(0.8), Volt(0.4));
    }

    #[test]
    #[should_panic(expected = "range must be positive")]
    fn zero_range_panics() {
        let _ = Vcdl::new(0.0, Volt(0.4), Volt(0.8));
    }
}
