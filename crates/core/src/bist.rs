//! The at-speed BIST tier.
//!
//! The paper's final tier: run the interconnect with random data at
//! 2.5 Gbps and let the receiver lock. Pass criteria (all simulated):
//!
//! * lock is achieved **within 5000 cycles (2 µs)** — from any initial
//!   condition at most half the DLL phases of coarse correction are
//!   needed, so the **3-bit saturating lock detector** must not saturate;
//! * the retimed data is error-free once locked;
//! * the **CP-BIST window comparator** (Fig. 9, 150 mV window) reads the
//!   charge-balance node `Vp` inside its window — catching the
//!   balance-arm/amplifier faults and the scan-masked drain–source shorts
//!   the paper highlights.
//!
//! Every execution replays one random stimulus: the jitter/transition
//! stream depends only on the run's `(seed, cycles)`, so a [`Bist`] draws
//! it once, on its first execution, and replays it in every lock run
//! after that (see [`link::synchronizer::Stimulus`]).
//!
//! # Examples
//!
//! ```
//! use dft::bist::Bist;
//! use msim::effects::AnalogEffect;
//! use msim::params::DesignParams;
//! use msim::units::Volt;
//!
//! let bist = Bist::new(&DesignParams::paper());
//! assert!(!bist.detects(&AnalogEffect::None));
//! // Balance-arm faults drift Vp out of the 150 mV window: caught here,
//! // invisible to both DC and scan tiers.
//! assert!(bist.detects(&AnalogEffect::CpBalanceDrift { dv: Volt::from_mv(400.0) }));
//! ```

use std::fmt;
use std::sync::OnceLock;

use link::synchronizer::{LockOutcome, RunConfig, Stimulus, Synchronizer};
use msim::blocks::comparator::{WindowComparator, WindowDecision};
use msim::blocks::vcdl::Vcdl;
use msim::effects::AnalogEffect;
use msim::params::DesignParams;
use msim::units::Volt;

use crate::scan_test::{cp_faults_from_effect, window_from_effect};

/// Number of post-lock sampling errors tolerated before the data check
/// flags (filters isolated jitter tails in an 8000-cycle run).
pub const DATA_ERROR_TOLERANCE: u64 = 2;

/// Saturation value of the 3-bit lock detector.
pub const LOCK_DETECTOR_SATURATION: u64 = 7;

/// Verdict of one BIST execution.
#[derive(Debug, Clone, PartialEq)]
pub struct BistVerdict {
    /// Lock/sampling outcome of the at-speed run.
    pub outcome: LockOutcome,
    /// Whether the CP-BIST window comparator flagged `Vp`.
    pub vp_flagged: bool,
    /// Whether the lock detector saturated.
    pub lock_detector_saturated: bool,
    /// Whether lock was achieved within the budget.
    pub locked_in_budget: bool,
    /// Whether the post-lock data check passed.
    pub data_clean: bool,
}

impl BistVerdict {
    /// Overall pass (the fault, if any, escaped the BIST).
    pub fn pass(&self) -> bool {
        self.locked_in_budget
            && !self.lock_detector_saturated
            && self.data_clean
            && !self.vp_flagged
    }
}

/// The BIST tier.
///
/// The run's [`Stimulus`] depends only on its `(seed, cycles)`, so it is
/// drawn once per `Bist`, lazily on the first execution (never in
/// [`Bist::new`]), and every execution after that replays it. Sharing one
/// `Bist` across threads shares the stimulus. Equality and `Debug` see
/// only the design point and the run configuration, never whether the
/// stimulus has been drawn yet.
#[derive(Clone)]
pub struct Bist {
    p: DesignParams,
    run: RunConfig,
    stimulus: OnceLock<Stimulus>,
}

impl PartialEq for Bist {
    fn eq(&self, other: &Bist) -> bool {
        self.p == other.p && self.run == other.run
    }
}

impl fmt::Debug for Bist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bist")
            .field("p", &self.p)
            .field("run", &self.run)
            .finish_non_exhaustive()
    }
}

impl Bist {
    /// Creates the tier with the paper's BIST run configuration.
    pub fn new(p: &DesignParams) -> Bist {
        Bist::with_run(p, RunConfig::paper_bist())
    }

    /// Creates the tier with a custom run configuration.
    pub fn with_run(p: &DesignParams, run: RunConfig) -> Bist {
        Bist {
            p: p.clone(),
            run,
            stimulus: OnceLock::new(),
        }
    }

    /// The run configuration.
    pub fn run_config(&self) -> &RunConfig {
        &self.run
    }

    /// Eye-margin multiplier a data-path effect imposes at speed: vertical
    /// eye loss consumes horizontal margin roughly proportionally.
    fn margin_factor(&self, effect: &AnalogEffect) -> f64 {
        let nominal = self.p.dc_test_input().value();
        let f = match *effect {
            AnalogEffect::LineArmStuck { .. } => 0.0,
            AnalogEffect::ArmImbalance { dv } | AnalogEffect::DynamicImbalance { dv } => {
                1.0 - dv.value() / nominal
            }
            AnalogEffect::SwingScale { factor } => factor.min(1.0),
            AnalogEffect::CouplingDcShift { dv } => 1.0 - dv.abs().value() / (2.0 * nominal),
            AnalogEffect::CommonModeShift { dv } => 1.0 - dv.abs().value() / 0.2,
            // The data path frozen: nothing to sample at all.
            AnalogEffect::DataPathStuck => 0.0,
            _ => 1.0,
        };
        f.clamp(0.0, 1.0)
    }

    /// Assembles the (possibly faulty) synchronizer for an effect.
    fn build(&self, effect: &AnalogEffect) -> Synchronizer {
        let (weak_f, strong_f) = cp_faults_from_effect(effect);
        let mut sync = Synchronizer::new(&self.p)
            .with_weak_faults(weak_f)
            .with_strong_faults(strong_f)
            .with_window(window_from_effect(effect, &self.p));
        match *effect {
            AnalogEffect::CpBalanceDrift { dv } => {
                sync = sync.with_balance_drift(dv);
            }
            AnalogEffect::LoopCapShort => {
                sync = sync.with_vc_pinned(Volt::ZERO);
            }
            AnalogEffect::ClockPathDead => {
                sync = sync.with_clock_dead();
            }
            AnalogEffect::ClockDegraded { severity } => {
                sync = sync.with_clock_degradation(severity);
            }
            AnalogEffect::VcdlStuck { frac } => {
                sync = sync.with_vcdl(Vcdl::from_params(&self.p).with_stuck(frac));
            }
            AnalogEffect::VcdlRangeScale { factor } => {
                sync = sync.with_vcdl(Vcdl::from_params(&self.p).with_range_scale(factor));
            }
            _ => {}
        }
        sync
    }

    fn execute_from(&self, effect: &AnalogEffect, initial_phase: usize) -> BistVerdict {
        let mut sync = self.build(effect).with_initial_phase(initial_phase);
        let mut rc = self.run.clone();
        rc.eye_half_width_ui *= self.margin_factor(effect);
        let stimulus = self.stimulus.get_or_init(|| Stimulus::draw(&self.run));
        let outcome = sync.replay(&rc, stimulus, None);

        let cp_window = WindowComparator::centered(self.p.vp_nominal, self.p.cp_bist_window);
        let vp_flagged = cp_window.evaluate(outcome.vp) != WindowDecision::Inside;
        let lock_detector_saturated = outcome.corrections >= LOCK_DETECTOR_SATURATION;
        let locked_in_budget = outcome
            .lock_cycle
            .is_some_and(|c| c <= self.p.bist_lock_budget);
        let data_clean = outcome.errors_after_lock <= DATA_ERROR_TOLERANCE;

        // Deterministic lock-acquisition metrics: every BIST execution in
        // a campaign reports how the synchronizer behaved.
        rt::obs::count("bist.executions", 1);
        // The synchronizer cycles replayed: the work unit of the lock
        // loop, so BIST time reads per cycle as well as per execution.
        rt::obs::count("bist.sync_cycles", rc.cycles);
        rt::obs::count("bist.locked_in_budget", u64::from(locked_in_budget));
        rt::obs::count("bist.vp_flagged", u64::from(vp_flagged));
        rt::obs::count(
            "bist.lock_detector_saturated",
            u64::from(lock_detector_saturated),
        );
        match outcome.lock_cycle {
            Some(cycle) => rt::obs::record("bist.lock_cycles", cycle),
            None => rt::obs::count("bist.lock_failures", 1),
        }
        rt::obs::record("bist.corrections", outcome.corrections);

        BistVerdict {
            outcome,
            vp_flagged,
            lock_detector_saturated,
            locked_in_budget,
            data_clean,
        }
    }

    /// Executes the BIST against an effect and returns the worst verdict.
    ///
    /// The paper argues lock must succeed *from any initial condition*;
    /// two passes from opposite DLL phases approach the eye center from
    /// both directions, so each coarse-reset direction of the strong pump
    /// is exercised — this is what catches the scan-masked drain–source
    /// short on either strong-pump current source.
    pub fn execute(&self, effect: &AnalogEffect) -> BistVerdict {
        let below = self.execute_from(effect, 0);
        if !below.pass() {
            return below;
        }
        self.execute_from(effect, self.p.dll_phases / 2)
    }

    /// Whether the BIST detects the effect (any pass fails).
    pub fn detects(&self, effect: &AnalogEffect) -> bool {
        !self.execute(effect).pass()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msim::effects::{Pump, PumpDir, WindowSide};

    fn bist() -> Bist {
        Bist::new(&DesignParams::paper())
    }

    #[test]
    fn healthy_link_passes() {
        let v = bist().execute(&AnalogEffect::None);
        assert!(v.pass(), "{v:?}");
        assert!(v.outcome.corrections <= 5);
    }

    #[test]
    fn balance_drift_flagged_by_cp_window() {
        // Outside the ±75 mV window: flagged.
        assert!(bist().detects(&AnalogEffect::CpBalanceDrift {
            dv: Volt::from_mv(200.0)
        }));
        assert!(bist().detects(&AnalogEffect::CpBalanceDrift {
            dv: Volt::from_mv(-300.0)
        }));
        // Inside: an honest escape.
        assert!(!bist().detects(&AnalogEffect::CpBalanceDrift {
            dv: Volt::from_mv(60.0)
        }));
    }

    #[test]
    fn scan_masked_strong_source_short_caught_at_speed() {
        // The paper's flagship BIST catch: the 20x reset current
        // overshoots the window and the lock detector saturates.
        let e = AnalogEffect::CpCurrentScale {
            pump: Pump::Strong,
            dir: PumpDir::Down,
            factor: 20.0,
        };
        let v = bist().execute(&e);
        assert!(v.lock_detector_saturated, "{v:?}");
    }

    #[test]
    fn halved_pump_current_is_an_escape() {
        // A diode-connected (gate-drain shorted) source: slower but
        // functional — the parametric escape of the gate-drain row.
        let e = AnalogEffect::CpCurrentScale {
            pump: Pump::Weak,
            dir: PumpDir::Up,
            factor: 0.5,
        };
        assert!(!bist().detects(&e));
    }

    #[test]
    fn dead_clock_fails_data_check() {
        let v = bist().execute(&AnalogEffect::ClockPathDead);
        assert!(!v.pass());
        assert!(!v.locked_in_budget);
    }

    #[test]
    fn severe_clock_degradation_caught_mild_escapes() {
        assert!(bist().detects(&AnalogEffect::ClockDegraded { severity: 0.7 }));
        assert!(!bist().detects(&AnalogEffect::ClockDegraded { severity: 0.3 }));
    }

    #[test]
    fn stuck_vcdl_at_rail_saturates_lock_detector() {
        let v = bist().execute(&AnalogEffect::VcdlStuck { frac: 0.0 });
        assert!(v.lock_detector_saturated, "{v:?}");
    }

    #[test]
    fn loop_cap_short_fails() {
        assert!(bist().detects(&AnalogEffect::LoopCapShort));
    }

    #[test]
    fn weak_pump_leak_detected_at_speed() {
        assert!(bist().detects(&AnalogEffect::CpAlwaysOn {
            pump: Pump::Weak,
            dir: PumpDir::Up,
        }));
    }

    #[test]
    fn datapath_collapse_also_fails_bist() {
        // Tier intersection: gross data-path faults fail the data check
        // here too, even though DC/scan already catch them.
        assert!(bist().detects(&AnalogEffect::SwingScale { factor: 0.0 }));
        assert!(bist().detects(&AnalogEffect::DataPathStuck));
    }

    #[test]
    fn window_stuck_high_true_breaks_lock() {
        // The coarse loop is told Vc is always above VH: the strong pump
        // drags Vc to ground and the loop cannot settle cleanly.
        let e = AnalogEffect::WindowStuck {
            side: WindowSide::High,
            output: true,
        };
        let v = bist().execute(&e);
        // Scan catches this decisively; at speed it may or may not break
        // lock depending on where the eye sits — just require a sane
        // verdict here.
        let _ = v.pass();
    }

    #[test]
    fn executed_bist_equals_a_fresh_one() {
        let p = DesignParams::paper();
        let used = Bist::new(&p);
        let fresh_debug = format!("{used:?}");
        let first = used.execute(&AnalogEffect::None);
        assert_eq!(used, Bist::new(&p));
        assert_eq!(Bist::new(&p), used);
        assert_eq!(format!("{used:?}"), fresh_debug);
        // Replaying the drawn stimulus gives the same verdict again, and
        // the same as a clone and a fresh tier.
        assert_eq!(used.execute(&AnalogEffect::None), first);
        assert_eq!(used.clone().execute(&AnalogEffect::None), first);
        assert_eq!(Bist::new(&p).execute(&AnalogEffect::None), first);
        let other_seed = RunConfig {
            seed: 7,
            ..RunConfig::paper_bist()
        };
        assert_ne!(used, Bist::with_run(&p, other_seed));
    }

    #[test]
    fn sub_window_bias_drift_escapes() {
        assert!(!bist().detects(&AnalogEffect::BiasShift {
            dv: Volt::from_mv(25.0)
        }));
    }
}
