//! Nominal design parameters of the link.
//!
//! Values follow the paper's design point: UMC 130 nm, 1.2 V supply,
//! 2.5 Gbps data rate, 60 mV differential line swing, 15 mV programmed
//! comparator offsets, a 10-phase DLL and a BIST lock budget of 5000 cycles
//! (2 µs at 2.5 Gbps). All behavioral blocks and the fault-effect resolver
//! read their constants from a [`DesignParams`] so the ablation benches can
//! sweep them.
//!
//! # Examples
//!
//! ```
//! use msim::params::DesignParams;
//!
//! let p = DesignParams::paper();
//! assert_eq!(p.dll_phases, 10);
//! assert!((p.swing.mv() - 60.0).abs() < 1e-9);
//! // The VCDL range must exceed one DLL phase step for seamless coarse/fine
//! // hand-off (a paper design rule) — `validate` checks it.
//! p.validate().unwrap();
//! ```

use std::error::Error;
use std::fmt;

use crate::units::{Amp, BitKey, Farad, Hertz, Sec, Volt};

/// Nominal design point of the low-swing link and its synchronizer.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignParams {
    /// Supply voltage (paper: 1.2 V).
    pub supply: Volt,
    /// Differential logic swing on the line (paper: 60 mV).
    pub swing: Volt,
    /// Programmed offset of the DC-test comparators (paper: 15 mV).
    pub cmp_offset: Volt,
    /// Lower threshold `VL` of the coarse-loop window comparator.
    pub window_low: Volt,
    /// Upper threshold `VH` of the coarse-loop window comparator.
    pub window_high: Volt,
    /// Reset target for the control voltage, midway between `VL` and `VH`.
    pub vmid: Volt,
    /// Nominal voltage of the charge-balance node `Vp`.
    pub vp_nominal: Volt,
    /// Full width of the CP-BIST window around `vp_nominal` (paper: 150 mV).
    pub cp_bist_window: Volt,
    /// Data rate (paper: 2.5 Gbps).
    pub data_rate: Hertz,
    /// Number of DLL phases (paper: 10).
    pub dll_phases: usize,
    /// VCDL tuning range as a fraction of one UI, achieved as `Vc` sweeps
    /// `[VL, VH]`. The paper requires this to exceed one DLL phase step
    /// (`1 / dll_phases` UI).
    pub vcdl_range_ui: f64,
    /// Weak (fine-loop) charge-pump current.
    pub weak_cp_current: Amp,
    /// Strong (coarse-reset) charge-pump current.
    pub strong_cp_current: Amp,
    /// Loop-filter capacitance on `Vc`.
    pub loop_cap: Farad,
    /// Scan shift frequency (paper: 100 MHz).
    pub scan_clock: Hertz,
    /// Coarse-loop clock divider ratio.
    pub divider_ratio: u32,
    /// BIST lock budget in bit cycles (paper: 5000 cycles ≙ 2 µs).
    pub bist_lock_budget: u64,
}

impl DesignParams {
    /// The paper's design point.
    pub fn paper() -> DesignParams {
        DesignParams {
            supply: Volt(1.2),
            swing: Volt::from_mv(60.0),
            cmp_offset: Volt::from_mv(15.0),
            window_low: Volt(0.4),
            window_high: Volt(0.8),
            vmid: Volt(0.6),
            vp_nominal: Volt(0.6),
            cp_bist_window: Volt::from_mv(150.0),
            data_rate: Hertz::from_ghz(2.5),
            dll_phases: 10,
            vcdl_range_ui: 0.13,
            weak_cp_current: Amp::from_ua(5.0),
            strong_cp_current: Amp::from_ua(60.0),
            loop_cap: Farad::from_pf(2.0),
            scan_clock: Hertz::from_mhz(100.0),
            divider_ratio: 16,
            bist_lock_budget: 5000,
        }
    }

    /// One unit interval (bit time).
    pub fn ui(&self) -> Sec {
        self.data_rate.period()
    }

    /// One DLL phase step as a fraction of a UI.
    pub fn phase_step_ui(&self) -> f64 {
        1.0 / self.dll_phases as f64
    }

    /// Nominal single-ended deviation seen by a DC-test comparator
    /// (half the differential swing; paper: 30 mV against a 15 mV offset).
    pub fn dc_test_input(&self) -> Volt {
        self.swing / 2.0
    }

    /// Checks the paper's design rules.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] when a design rule is violated:
    ///
    /// * swing, supply, currents, caps must be positive;
    /// * `VL < Vmid < VH` and the window must sit inside the rails;
    /// * the VCDL range must exceed one DLL phase step;
    /// * at least two DLL phases;
    /// * the coarse-loop divider ratio must be a power of two of at least
    ///   2: the gate-level divider is a chain of toggle stages, each
    ///   halving the clock, and the behavioural loop checks the window
    ///   every `divider_ratio` cycles, so any other ratio would make the
    ///   two disagree.
    pub fn validate(&self) -> Result<(), ParamsError> {
        if self.supply.value() <= 0.0 || self.swing.value() <= 0.0 {
            return Err(ParamsError::NonPositive("supply/swing"));
        }
        if self.weak_cp_current.value() <= 0.0
            || self.strong_cp_current.value() <= 0.0
            || self.loop_cap.value() <= 0.0
        {
            return Err(ParamsError::NonPositive("charge pump / loop filter"));
        }
        if !(self.window_low < self.vmid && self.vmid < self.window_high) {
            return Err(ParamsError::WindowOrder);
        }
        if self.window_low.value() <= 0.0 || self.window_high.value() >= self.supply.value() {
            return Err(ParamsError::WindowOutsideRails);
        }
        if self.dll_phases < 2 {
            return Err(ParamsError::TooFewPhases);
        }
        if self.divider_ratio < 2 || !self.divider_ratio.is_power_of_two() {
            return Err(ParamsError::DividerRatio(self.divider_ratio));
        }
        if self.vcdl_range_ui <= self.phase_step_ui() {
            return Err(ParamsError::VcdlRangeTooSmall {
                range_ui: self.vcdl_range_ui,
                step_ui: self.phase_step_ui(),
            });
        }
        Ok(())
    }
}

impl BitKey for DesignParams {
    fn push_bits(&self, key: &mut Vec<u64>) {
        let DesignParams {
            supply,
            swing,
            cmp_offset,
            window_low,
            window_high,
            vmid,
            vp_nominal,
            cp_bist_window,
            data_rate,
            dll_phases,
            vcdl_range_ui,
            weak_cp_current,
            strong_cp_current,
            loop_cap,
            scan_clock,
            divider_ratio,
            bist_lock_budget,
        } = self;
        for v in [
            supply,
            swing,
            cmp_offset,
            window_low,
            window_high,
            vmid,
            vp_nominal,
            cp_bist_window,
        ] {
            v.push_bits(key);
        }
        data_rate.push_bits(key);
        dll_phases.push_bits(key);
        vcdl_range_ui.push_bits(key);
        weak_cp_current.push_bits(key);
        strong_cp_current.push_bits(key);
        loop_cap.push_bits(key);
        scan_clock.push_bits(key);
        divider_ratio.push_bits(key);
        bist_lock_budget.push_bits(key);
    }
}
/// A process corner for robustness sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corner {
    /// Slow-slow: weak devices, reduced currents and tuning range.
    Slow,
    /// Typical-typical (the paper's nominal point).
    Typical,
    /// Fast-fast: strong devices, increased currents and tuning range.
    Fast,
}

impl Corner {
    /// All corners, slow to fast.
    pub const ALL: [Corner; 3] = [Corner::Slow, Corner::Typical, Corner::Fast];

    /// Drive-strength multiplier of the corner.
    pub fn drive_factor(self) -> f64 {
        match self {
            Corner::Slow => 0.8,
            Corner::Typical => 1.0,
            Corner::Fast => 1.2,
        }
    }

    /// Corner label.
    pub fn label(self) -> &'static str {
        match self {
            Corner::Slow => "SS",
            Corner::Typical => "TT",
            Corner::Fast => "FF",
        }
    }
}

impl DesignParams {
    /// The paper design point shifted to a process corner: charge-pump
    /// currents and the VCDL tuning range scale with device drive
    /// strength (the corner-robustness sweep of the campaign).
    pub fn at_corner(corner: Corner) -> DesignParams {
        let f = corner.drive_factor();
        let mut p = DesignParams::paper();
        p.weak_cp_current = p.weak_cp_current * f;
        p.strong_cp_current = p.strong_cp_current * f;
        p.vcdl_range_ui *= f;
        p
    }
}

impl Default for DesignParams {
    fn default() -> DesignParams {
        DesignParams::paper()
    }
}

/// A violated design rule, reported by [`DesignParams::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParamsError {
    /// A physical quantity that must be positive is not.
    NonPositive(&'static str),
    /// `VL < Vmid < VH` violated.
    WindowOrder,
    /// The window comparator thresholds fall outside the supply rails.
    WindowOutsideRails,
    /// Fewer than two DLL phases.
    TooFewPhases,
    /// The coarse-loop divider ratio is not a power of two of at least 2.
    DividerRatio(u32),
    /// VCDL range does not exceed one DLL phase step.
    VcdlRangeTooSmall {
        /// Configured VCDL range in UI.
        range_ui: f64,
        /// One DLL phase step in UI.
        step_ui: f64,
    },
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::NonPositive(what) => {
                write!(f, "{what} parameters must be positive")
            }
            ParamsError::WindowOrder => write!(f, "window thresholds must satisfy VL < Vmid < VH"),
            ParamsError::WindowOutsideRails => {
                write!(f, "window thresholds must lie strictly inside the rails")
            }
            ParamsError::TooFewPhases => write!(f, "a DLL needs at least two phases"),
            ParamsError::DividerRatio(ratio) => write!(
                f,
                "coarse-loop divider ratio {ratio} must be a power of two of at least 2"
            ),
            ParamsError::VcdlRangeTooSmall { range_ui, step_ui } => write!(
                f,
                "VCDL range ({range_ui} UI) must exceed one DLL phase step ({step_ui} UI)"
            ),
        }
    }
}

impl Error for ParamsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_point_is_valid() {
        DesignParams::paper().validate().unwrap();
    }

    #[test]
    fn derived_quantities() {
        let p = DesignParams::paper();
        assert!((p.ui().ps() - 400.0).abs() < 1e-9);
        assert!((p.phase_step_ui() - 0.1).abs() < 1e-12);
        assert!((p.dc_test_input().mv() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(DesignParams::default(), DesignParams::paper());
    }

    #[test]
    fn vcdl_range_rule() {
        let mut p = DesignParams::paper();
        p.vcdl_range_ui = 0.05; // below the 0.1 UI phase step
        match p.validate() {
            Err(ParamsError::VcdlRangeTooSmall { .. }) => {}
            other => panic!("expected VcdlRangeTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn window_order_rule() {
        let mut p = DesignParams::paper();
        p.window_low = Volt(0.9);
        assert_eq!(p.validate(), Err(ParamsError::WindowOrder));
        let mut p = DesignParams::paper();
        p.window_high = Volt(1.3);
        assert_eq!(p.validate(), Err(ParamsError::WindowOutsideRails));
    }

    #[test]
    fn positivity_rules() {
        let mut p = DesignParams::paper();
        p.swing = Volt(0.0);
        assert!(matches!(p.validate(), Err(ParamsError::NonPositive(_))));
        let mut p = DesignParams::paper();
        p.loop_cap = Farad(0.0);
        assert!(matches!(p.validate(), Err(ParamsError::NonPositive(_))));
    }

    #[test]
    fn phase_count_rule() {
        let mut p = DesignParams::paper();
        p.dll_phases = 1;
        assert_eq!(p.validate(), Err(ParamsError::TooFewPhases));
    }

    #[test]
    fn divider_ratio_rule() {
        // 0 made the lock loop take a remainder by zero and the gate-level
        // divider an `ilog2` of zero; 12 built an 8:1 gate-level divider
        // under a 12:1 behavioural loop. Both used to validate.
        for ratio in [0, 1, 3, 12, 24, u32::MAX] {
            let mut p = DesignParams::paper();
            p.divider_ratio = ratio;
            assert_eq!(p.validate(), Err(ParamsError::DividerRatio(ratio)));
        }
        for ratio in [2, 4, 16, 1 << 31] {
            let mut p = DesignParams::paper();
            p.divider_ratio = ratio;
            p.validate()
                .unwrap_or_else(|e| panic!("ratio {ratio} rejected: {e}"));
        }
    }

    #[test]
    fn corners_remain_valid_design_points() {
        for corner in Corner::ALL {
            let p = DesignParams::at_corner(corner);
            p.validate()
                .unwrap_or_else(|e| panic!("{} corner invalid: {e}", corner.label()));
        }
        // The slow corner still satisfies the VCDL-range design rule.
        let slow = DesignParams::at_corner(Corner::Slow);
        assert!(slow.vcdl_range_ui > slow.phase_step_ui());
    }

    #[test]
    fn corner_scaling_direction() {
        let ss = DesignParams::at_corner(Corner::Slow);
        let tt = DesignParams::at_corner(Corner::Typical);
        let ff = DesignParams::at_corner(Corner::Fast);
        assert!(ss.weak_cp_current.value() < tt.weak_cp_current.value());
        assert!(tt.weak_cp_current.value() < ff.weak_cp_current.value());
        assert_eq!(tt, DesignParams::paper());
        assert!(ss.vcdl_range_ui < ff.vcdl_range_ui);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ParamsError::VcdlRangeTooSmall {
            range_ui: 0.05,
            step_ui: 0.1,
        };
        let msg = format!("{e}");
        assert!(msg.contains("0.05"));
        assert!(msg.contains("0.1"));
    }
}
