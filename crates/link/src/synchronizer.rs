//! The clock synchronizer (Fig. 1): coarse digital + fine analog phase
//! correction.
//!
//! The receiver must sample the low-swing data at the center of the eye.
//! Two nested loops accomplish this:
//!
//! * the **fine loop** — Alexander PD → weak charge pump → `Vc` → VCDL —
//!   continuously trims the sampling phase;
//! * the **coarse loop** — window comparator on `Vc` → control FSM →
//!   strong charge pump + ring counter → switch matrix → DLL phase —
//!   steps to the next DLL phase and resets `Vc` into the window whenever
//!   the fine loop runs out of range.
//!
//! The simulation is phase-domain at one step per UI (the standard
//! behavioral abstraction for CDR loops): the sampling instant is
//! `τ = DLL phase + VCDL delay`, the PD compares it against the eye
//! center, and charge pumps integrate onto `Vc`. Every analog block
//! carries its fault hooks from `msim`, so the same simulation that
//! regenerates Fig. 2 also decides BIST detection for injected faults.
//!
//! The random part of a run — one standard-normal jitter draw and one
//! data-transition bit per cycle — never depends on loop state, only on
//! the run's `(seed, cycles)`. It is a value, [`Stimulus`]:
//! [`Synchronizer::run`] draws it and replays it, and a caller that runs
//! many loops under one seed (the BIST tier, once per effect class) draws
//! it once and hands it to [`Synchronizer::replay`] every time.
//!
//! # Examples
//!
//! ```
//! use link::synchronizer::{RunConfig, Synchronizer};
//! use msim::params::DesignParams;
//!
//! let p = DesignParams::paper();
//! let mut sync = Synchronizer::new(&p);
//! let outcome = sync.run(&RunConfig::paper_bist(), None);
//! assert!(outcome.locked, "a healthy link must lock");
//! assert!(outcome.corrections <= p.dll_phases as u64 / 2 + 1);
//! ```

use rt::rng::Rng;

use msim::blocks::charge_pump::{BalanceNode, ChargePump, CpFaults};
use msim::blocks::comparator::{WindowComparator, WindowDecision};
use msim::blocks::dll::Dll;
use msim::blocks::vcdl::Vcdl;
use msim::params::DesignParams;
use msim::sim::Trace;
use msim::units::Volt;

use crate::pd::{BangBangPd, PdDecision};

/// Run parameters for a lock-acquisition / BIST simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Number of bit cycles to simulate.
    pub cycles: u64,
    /// Eye-center position in UI the loop must find.
    pub eye_center_ui: f64,
    /// Healthy half-width of the eye at the sampler, in UI.
    pub eye_half_width_ui: f64,
    /// RMS sampling jitter, in UI.
    pub jitter_rms_ui: f64,
    /// Slow drift of the eye center in UI per cycle (voltage/temperature
    /// drift of the channel delay). The paper's *background* synchronizer
    /// tracks this without interrupting traffic — the §I argument against
    /// foreground-calibrated receivers.
    pub eye_drift_ui_per_cycle: f64,
    /// Consecutive clean cycles required to declare lock.
    pub lock_window: u64,
    /// PRBS seed.
    pub seed: u64,
}

impl RunConfig {
    /// The paper's BIST run: random data at speed, 2 µs budget plus
    /// padding to observe post-lock behaviour.
    pub fn paper_bist() -> RunConfig {
        RunConfig {
            cycles: 8000,
            eye_center_ui: 0.37,
            eye_half_width_ui: 0.30,
            jitter_rms_ui: 0.045,
            eye_drift_ui_per_cycle: 0.0,
            lock_window: 500,
            seed: 0x1057,
        }
    }
}

/// The per-cycle random stimulus of a run: the raw standard-normal jitter
/// draw and the data-transition bit of every cycle, drawn from
/// `Rng::seed_from_u64(seed)` in simulation order (gaussian first, then
/// the bit). It depends only on `(seed, cycles)`; the jitter is scaled by
/// `jitter_rms_ui` inside the loop, so configs that differ in anything
/// else share one stimulus.
#[derive(Debug, Clone, PartialEq)]
pub struct Stimulus {
    seed: u64,
    jitter: Vec<f64>,
    transitions: Vec<bool>,
}

impl Stimulus {
    /// Draws the stimulus for `rc.seed` and `rc.cycles`.
    pub fn draw(rc: &RunConfig) -> Stimulus {
        let mut rng = Rng::seed_from_u64(rc.seed);
        let (jitter, transitions) = (0..rc.cycles)
            .map(|_| {
                let jitter = rng.gaussian();
                (jitter, rng.next_bool())
            })
            .unzip();
        Stimulus {
            seed: rc.seed,
            jitter,
            transitions,
        }
    }

    /// The seed it was drawn for.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The number of cycles it was drawn for.
    pub fn cycles(&self) -> u64 {
        self.jitter.len() as u64
    }
}

/// Result of a lock-acquisition run.
#[derive(Debug, Clone, PartialEq)]
pub struct LockOutcome {
    /// Whether a sustained clean interval was reached.
    pub locked: bool,
    /// Cycle at which the clean interval began.
    pub lock_cycle: Option<u64>,
    /// Coarse-correction requests issued (what the lock detector counts).
    pub corrections: u64,
    /// Sampling errors over the whole run.
    pub data_errors: u64,
    /// Sampling errors after the lock point.
    pub errors_after_lock: u64,
    /// Final control voltage.
    pub final_vc: Volt,
    /// Final DLL phase selection.
    pub final_phase: usize,
    /// Settled charge-balance node voltage (watched by the CP-BIST).
    pub vp: Volt,
}

/// The behavioral clock synchronizer with fault hooks.
#[derive(Debug, Clone, PartialEq)]
pub struct Synchronizer {
    p: DesignParams,
    dll: Dll,
    vcdl: Vcdl,
    window: WindowComparator,
    weak: ChargePump,
    strong: ChargePump,
    balance: BalanceNode,
    pd: BangBangPd,
    clock_dead: bool,
    clock_degradation: f64,
    vc_pinned: Option<Volt>,
    vc: Volt,
    phase: usize,
}

impl Synchronizer {
    /// Creates a healthy synchronizer at the given design point, starting
    /// from DLL phase 0 with `Vc` at mid-window.
    pub fn new(p: &DesignParams) -> Synchronizer {
        Synchronizer {
            p: p.clone(),
            dll: Dll::new(p.dll_phases),
            vcdl: Vcdl::from_params(p),
            window: WindowComparator::new(p.window_low, p.window_high),
            weak: ChargePump::new(p.weak_cp_current, p.loop_cap, p.supply),
            strong: ChargePump::new(p.strong_cp_current, p.loop_cap, p.supply),
            balance: BalanceNode::new(p.vp_nominal),
            pd: BangBangPd::new(),
            clock_dead: false,
            clock_degradation: 0.0,
            vc_pinned: None,
            vc: p.vmid,
            phase: 0,
        }
    }

    /// Replaces the VCDL (fault hook).
    pub fn with_vcdl(mut self, vcdl: Vcdl) -> Synchronizer {
        self.vcdl = vcdl;
        self
    }

    /// Replaces the window comparator (fault hook).
    pub fn with_window(mut self, window: WindowComparator) -> Synchronizer {
        self.window = window;
        self
    }

    /// Installs weak charge-pump faults.
    pub fn with_weak_faults(mut self, faults: CpFaults) -> Synchronizer {
        self.weak = ChargePump::new(self.p.weak_cp_current, self.p.loop_cap, self.p.supply)
            .with_faults(faults);
        self
    }

    /// Installs strong charge-pump faults.
    pub fn with_strong_faults(mut self, faults: CpFaults) -> Synchronizer {
        self.strong = ChargePump::new(self.p.strong_cp_current, self.p.loop_cap, self.p.supply)
            .with_faults(faults);
        self
    }

    /// Installs a charge-balance settling error (CP-BIST observable).
    pub fn with_balance_drift(mut self, dv: Volt) -> Synchronizer {
        self.balance = BalanceNode::new(self.p.vp_nominal).with_drift(dv);
        self
    }

    /// Kills the sampling-clock path (VCDL/clock tree dead).
    pub fn with_clock_dead(mut self) -> Synchronizer {
        self.clock_dead = true;
        self
    }

    /// Degrades the sampling clock (duty/edge distortion); `severity` in
    /// `[0, 1]` proportionally consumes eye margin.
    pub fn with_clock_degradation(mut self, severity: f64) -> Synchronizer {
        self.clock_degradation = severity.clamp(0.0, 1.0);
        self
    }

    /// Pins the control voltage (loop-filter capacitor short).
    pub fn with_vc_pinned(mut self, v: Volt) -> Synchronizer {
        self.vc_pinned = Some(v);
        self.vc = v;
        self
    }

    /// Sets the starting DLL phase (BIST sweeps all initial conditions).
    ///
    /// # Panics
    ///
    /// Panics if the phase index is out of range.
    pub fn with_initial_phase(mut self, phase: usize) -> Synchronizer {
        assert!(phase < self.p.dll_phases, "initial phase out of range");
        self.phase = phase;
        self
    }

    /// Sets the starting control voltage.
    pub fn with_initial_vc(mut self, vc: Volt) -> Synchronizer {
        if self.vc_pinned.is_none() {
            self.vc = vc;
        }
        self
    }

    /// Current sampling instant in UI (phase + VCDL delay, wrapped).
    pub fn sampling_tau_ui(&self) -> f64 {
        fract(self.dll.phase_ui(self.phase) + self.vcdl.delay_ui(self.vc))
    }

    /// Current control voltage.
    pub fn vc(&self) -> Volt {
        self.vc
    }

    /// Current DLL phase index.
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// Runs the loop for `rc.cycles` bit times. When `trace` is provided,
    /// records channels `vc`, `phase`, `vl` and `vh` once per UI — the
    /// data behind the paper's Fig. 2. Draws the run's [`Stimulus`] and
    /// replays it.
    pub fn run(&mut self, rc: &RunConfig, trace: Option<&mut Trace>) -> LockOutcome {
        self.replay(rc, &Stimulus::draw(rc), trace)
    }

    /// [`Synchronizer::run`] against a stimulus drawn beforehand:
    /// bit-identical to `run(rc, trace)`.
    ///
    /// # Panics
    ///
    /// Panics if `stimulus` was drawn for another seed or cycle count.
    pub fn replay(
        &mut self,
        rc: &RunConfig,
        stimulus: &Stimulus,
        mut trace: Option<&mut Trace>,
    ) -> LockOutcome {
        assert!(
            stimulus.seed == rc.seed && stimulus.cycles() == rc.cycles,
            "stimulus drawn for seed {} and {} cycles replayed against seed {} and {} cycles",
            stimulus.seed,
            stimulus.cycles(),
            rc.seed,
            rc.cycles
        );
        let ui = self.p.ui();
        let divider = u64::from(self.p.divider_ratio);
        assert!(divider > 0, "coarse-loop divider ratio must be positive");
        let eff_half = rc.eye_half_width_ui * (1.0 - self.clock_degradation);
        // Everything the loop would otherwise recompute every cycle: the
        // DLL phase positions and the weak pump's per-UI step for each PD
        // decision (the strong pump's per-divided-clock reset steps too).
        let phase_ui: Vec<f64> = (0..self.dll.phase_count())
            .map(|i| self.dll.phase_ui(i))
            .collect();
        let weak_idle = self.weak.delta(false, false, ui);
        let weak_up = self.weak.delta(true, false, ui);
        let weak_down = self.weak.delta(false, true, ui);
        let divided = ui * divider as f64;
        let strong_up = self.strong.delta(true, false, divided);
        let strong_down = self.strong.delta(false, true, divided);

        let mut corrections = 0u64;
        let mut data_errors = 0u64;
        let mut errors_after_lock = 0u64;
        let mut clean = 0u64;
        let mut lock_cycle: Option<u64> = None;
        // Which side of the window the last out-of-window decision was on;
        // a new excursion (after re-entry or on the other side) counts as a
        // fresh coarse-correction request.
        let mut last_outside: Option<bool> = None;
        // Cycles left until the next divided-clock edge: the window is
        // checked on cycles where `(cycle + 1) % divider == 0`.
        let mut until_check = divider;

        let draws = stimulus.jitter.iter().zip(&stimulus.transitions);
        for (cycle, (&gaussian, &transition)) in (0..).zip(draws) {
            let jitter = gaussian * rc.jitter_rms_ui;
            let tau = fract(phase_ui[self.phase] + self.vcdl.delay_ui(self.vc));
            let center = rc.eye_center_ui + rc.eye_drift_ui_per_cycle * cycle as f64;
            let err = BangBangPd::wrap_error(tau, center);
            let observed = err + jitter;

            // Sampling correctness.
            let sample_ok = !self.clock_dead && observed.abs() <= eff_half;
            let mut dirty = !sample_ok;
            if !sample_ok {
                data_errors += 1;
                if lock_cycle.is_some() {
                    errors_after_lock += 1;
                }
            }

            // Fine loop: PD decision on data transitions.
            let decision = if self.clock_dead {
                None
            } else {
                self.pd.decide(observed, transition)
            };
            let dv = match decision {
                Some(PdDecision::Up) => weak_up,
                Some(PdDecision::Down) => weak_down,
                None => weak_idle,
            };
            self.vc = self.weak.apply(self.vc, dv);
            if let Some(pin) = self.vc_pinned {
                self.vc = pin;
            }

            // Coarse loop on the divided clock.
            let mut win_code = 0.0; // 0 = no check this cycle
            until_check -= 1;
            if until_check == 0 {
                until_check = divider;
                let decision = self.window.evaluate(self.vc);
                win_code = match decision {
                    WindowDecision::Inside => 1.0,
                    WindowDecision::BelowLow => 2.0,
                    WindowDecision::AboveHigh => 3.0,
                };
                match decision {
                    WindowDecision::Inside => last_outside = None,
                    WindowDecision::AboveHigh => {
                        if last_outside != Some(true) {
                            corrections += 1;
                            self.phase = self.dll.next_phase(self.phase, true);
                            last_outside = Some(true);
                        }
                        // Strong reset toward the window.
                        self.vc = self.strong.apply(self.vc, strong_down);
                        dirty = true;
                    }
                    WindowDecision::BelowLow => {
                        if last_outside != Some(false) {
                            corrections += 1;
                            self.phase = self.dll.next_phase(self.phase, false);
                            last_outside = Some(false);
                        }
                        self.vc = self.strong.apply(self.vc, strong_up);
                        dirty = true;
                    }
                }
                if let Some(pin) = self.vc_pinned {
                    self.vc = pin;
                }
            }

            // Lock bookkeeping.
            if dirty {
                clean = 0;
            } else {
                clean += 1;
                if clean == rc.lock_window && lock_cycle.is_none() {
                    lock_cycle = Some(cycle + 1 - rc.lock_window);
                }
            }

            if let Some(t) = trace.as_deref_mut() {
                t.record("vc", self.vc);
                t.record("phase", Volt(self.phase as f64));
                t.record("vl", self.p.window_low);
                t.record("vh", self.p.window_high);
                // Window decision at divided-clock checks (0 = no check,
                // 1 = inside, 2 = below, 3 = above) — the hand-off record
                // that lets the gate-level chain B replay this run.
                t.record("win", Volt(win_code));
            }
        }

        LockOutcome {
            locked: lock_cycle.is_some(),
            lock_cycle,
            corrections,
            data_errors,
            errors_after_lock,
            final_vc: self.vc,
            final_phase: self.phase,
            vp: self.balance.settled(),
        }
    }
}

/// `x.fract()`, without the `trunc` call for an `x` strictly inside
/// `(0, 1)`: there the integer part is `+0.0` and the fraction is `x`
/// itself, bit for bit. The loop's sampling instant almost always lands
/// there.
#[inline]
fn fract(x: f64) -> f64 {
    if x > 0.0 && x < 1.0 {
        x
    } else {
        x.fract()
    }
}

/// Extracts the per-divided-clock window-comparator decision stream from a
/// traced run: the `win` channel codes recorded by [`Synchronizer::run`]
/// (1 = inside, 2 = below, 3 = above), with the 0 "no check this cycle"
/// samples dropped. This is the hand-off record that gate-level replays
/// (`dft::chain_b`) and the conformance oracles consume.
pub fn decisions_from_trace(trace: &Trace) -> Vec<u8> {
    trace
        .channel("win")
        .expect("win channel recorded")
        .samples()
        .iter()
        .map(|v| v.value() as u8)
        .filter(|&d| d != 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msim::effects::PumpDir;
    use msim::units::Sec;

    fn paper() -> DesignParams {
        DesignParams::paper()
    }

    #[test]
    fn healthy_link_locks_within_budget() {
        let p = paper();
        let mut sync = Synchronizer::new(&p);
        let out = sync.run(&RunConfig::paper_bist(), None);
        assert!(out.locked);
        assert!(out.lock_cycle.unwrap() <= p.bist_lock_budget);
        assert!(out.corrections <= p.dll_phases as u64 / 2);
        assert_eq!(out.errors_after_lock, 0);
        // Locked sampling point sits at the eye center.
        let tau = sync.sampling_tau_ui();
        let err = BangBangPd::wrap_error(tau, 0.37);
        assert!(err.abs() < 0.02, "residual error {err}");
    }

    #[test]
    fn locks_from_every_initial_phase() {
        let p = paper();
        for phase0 in 0..p.dll_phases {
            let mut sync = Synchronizer::new(&p).with_initial_phase(phase0);
            let out = sync.run(&RunConfig::paper_bist(), None);
            assert!(out.locked, "failed to lock from phase {phase0}");
            assert!(
                out.corrections <= p.dll_phases as u64 / 2 + 1,
                "phase {phase0}: {} corrections",
                out.corrections
            );
        }
    }

    #[test]
    fn dead_clock_never_locks() {
        let p = paper();
        let mut sync = Synchronizer::new(&p).with_clock_dead();
        let out = sync.run(&RunConfig::paper_bist(), None);
        assert!(!out.locked);
        assert_eq!(out.data_errors, RunConfig::paper_bist().cycles);
    }

    #[test]
    fn stuck_vcdl_at_zero_limit_cycles_the_coarse_loop() {
        let p = paper();
        let mut sync = Synchronizer::new(&p).with_vcdl(Vcdl::from_params(&p).with_stuck(0.0));
        let out = sync.run(&RunConfig::paper_bist(), None);
        // The fine loop is dead and no frozen grid point matches the eye
        // center: the PD drifts Vc to a threshold over and over, coarse
        // corrections accumulate and the 3-bit lock detector saturates.
        assert!(
            out.corrections > 7,
            "only {} corrections with a stuck VCDL",
            out.corrections
        );
    }

    #[test]
    fn stuck_vcdl_near_eye_center_is_an_honest_escape() {
        // Frozen at frac 0.5 the delay is 0.065 UI: phase 3 + 0.065 lands
        // 0.005 UI from the 0.37 eye center — within the jitter dither, so
        // the loop reaches a benign equilibrium. The BIST misses this
        // particular stuck point; it contributes to the gate-open escape
        // row of Table I.
        let p = paper();
        let mut sync = Synchronizer::new(&p).with_vcdl(Vcdl::from_params(&p).with_stuck(0.5));
        let out = sync.run(&RunConfig::paper_bist(), None);
        assert!(out.locked);
        assert!(out.corrections <= 7, "{} corrections", out.corrections);
    }

    #[test]
    fn severe_clock_degradation_causes_errors() {
        let p = paper();
        let mut sync = Synchronizer::new(&p).with_clock_degradation(0.7);
        let out = sync.run(&RunConfig::paper_bist(), None);
        assert!(out.data_errors > 50, "only {} errors", out.data_errors);
    }

    #[test]
    fn mild_clock_degradation_is_tolerated() {
        let p = paper();
        let mut sync = Synchronizer::new(&p).with_clock_degradation(0.3);
        let out = sync.run(&RunConfig::paper_bist(), None);
        assert!(out.locked);
        assert_eq!(out.errors_after_lock, 0);
    }

    #[test]
    fn weak_pump_leak_disturbs_lock() {
        let p = paper();
        let mut sync = Synchronizer::new(&p).with_weak_faults(CpFaults {
            always_on: Some(PumpDir::Up),
            ..CpFaults::none()
        });
        let out = sync.run(&RunConfig::paper_bist(), None);
        // The leak drags Vc out of the window over and over.
        assert!(
            out.corrections > p.dll_phases as u64 / 2 || !out.locked,
            "leak not observable: {out:?}"
        );
    }

    #[test]
    fn oversized_strong_pump_never_settles() {
        // The paper's masked fault on the strong pump: DS-shorted current
        // source, caught at speed by the lock detector.
        let p = paper();
        let mut sync = Synchronizer::new(&p).with_strong_faults(CpFaults {
            up_scale: 20.0,
            down_scale: 20.0,
            ..CpFaults::none()
        });
        let out = sync.run(&RunConfig::paper_bist(), None);
        assert!(
            out.corrections > 7,
            "overshooting resets must re-trigger corrections, got {}",
            out.corrections
        );
    }

    #[test]
    fn pinned_vc_fails() {
        let p = paper();
        let mut sync = Synchronizer::new(&p).with_vc_pinned(Volt::ZERO);
        let out = sync.run(&RunConfig::paper_bist(), None);
        // Vc at ground: below the window every divided clock, phase walks,
        // nothing converges.
        assert!(!out.locked || out.corrections > 7, "{out:?}");
    }

    #[test]
    fn balance_drift_reported() {
        let p = paper();
        let mut sync = Synchronizer::new(&p).with_balance_drift(Volt::from_mv(-200.0));
        let out = sync.run(&RunConfig::paper_bist(), None);
        assert!((out.vp.value() - 0.4).abs() < 1e-9);
        // The main loop is unaffected: still locks.
        assert!(out.locked);
    }

    #[test]
    fn trace_records_fig2_channels() {
        let p = paper();
        let mut sync = Synchronizer::new(&p);
        let mut trace = Trace::new(Sec::from_ps(400.0));
        let rc = RunConfig {
            cycles: 64,
            ..RunConfig::paper_bist()
        };
        sync.run(&rc, Some(&mut trace));
        for ch in ["vc", "phase", "vl", "vh"] {
            assert_eq!(trace.channel(ch).unwrap().len(), 64, "channel {ch}");
        }
    }

    #[test]
    fn narrowed_window_still_locks_but_differently() {
        // A -100 mV shift on VH narrows the window; the loop must still
        // converge for the default eye (the honest partial-escape case).
        let p = paper();
        let window = WindowComparator::new(p.window_low, p.window_high)
            .with_high_shift(Volt::from_mv(-100.0));
        let mut sync = Synchronizer::new(&p).with_window(window);
        let out = sync.run(&RunConfig::paper_bist(), None);
        // Either it locks (escape) or corrections blow up (detected):
        // both are legitimate, but the run must terminate with a sane
        // outcome either way.
        assert!(out.locked || out.corrections > 0);
    }

    #[test]
    #[should_panic(expected = "initial phase out of range")]
    fn bad_initial_phase_panics() {
        let p = paper();
        let _ = Synchronizer::new(&p).with_initial_phase(10);
    }

    #[test]
    fn jitter_stream_is_deterministic_per_seed() {
        let p = paper();
        let rc = RunConfig::paper_bist();
        let a = Synchronizer::new(&p).run(&rc, None);
        let b = Synchronizer::new(&p).run(&rc, None);
        assert_eq!(a, b);
        let other = Synchronizer::new(&p).run(
            &RunConfig {
                seed: rc.seed + 1,
                ..rc
            },
            None,
        );
        assert!(a.lock_cycle != other.lock_cycle || a.final_vc != other.final_vc);
    }

    #[test]
    fn stimulus_is_the_interleaved_draw_stream() {
        for seed in [RunConfig::paper_bist().seed, 0, 1, 42, u64::MAX] {
            for cycles in [0, 1, 2, 8000] {
                let rc = RunConfig {
                    cycles,
                    seed,
                    ..RunConfig::paper_bist()
                };
                let stim = Stimulus::draw(&rc);
                assert_eq!((stim.seed(), stim.cycles()), (seed, cycles));
                let mut rng = Rng::seed_from_u64(seed);
                let expected: Vec<(u64, bool)> = (0..cycles)
                    .map(|_| {
                        let g = rng.gaussian();
                        (g.to_bits(), rng.next_bool())
                    })
                    .collect();
                let got: Vec<(u64, bool)> = stim
                    .jitter
                    .iter()
                    .zip(&stim.transitions)
                    .map(|(g, &t)| (g.to_bits(), t))
                    .collect();
                assert_eq!(got, expected, "seed {seed:#x}, {cycles} cycles");
            }
        }
    }

    #[test]
    fn healthy_paper_runs_match_the_pinned_inline_draw_outcomes() {
        // Outcomes of the paper's BIST run pinned from the loop that drew
        // its gaussian and transition bit inline, cycle by cycle: the
        // replayed stimulus must reproduce them bit for bit.
        let p = paper();
        let pinned = [
            (0, 1280, 3, 123, 0x3fe3_1a9f_be76_c8b7_u64),
            (5, 896, 2, 0, 0x3fe3_1a9f_be76_c8b2_u64),
        ];
        for (phase0, lock_cycle, corrections, data_errors, vc_bits) in pinned {
            let out = Synchronizer::new(&p)
                .with_initial_phase(phase0)
                .run(&RunConfig::paper_bist(), None);
            assert_eq!(out.lock_cycle, Some(lock_cycle), "phase {phase0}");
            assert_eq!(out.corrections, corrections, "phase {phase0}");
            assert_eq!(out.data_errors, data_errors, "phase {phase0}");
            assert_eq!(out.errors_after_lock, 0, "phase {phase0}");
            assert_eq!(out.final_phase, 3, "phase {phase0}");
            assert_eq!(out.final_vc.value().to_bits(), vc_bits, "phase {phase0}");
        }
    }

    #[test]
    fn one_stimulus_replays_configs_that_differ_beyond_seed_and_cycles() {
        let p = paper();
        let rc = RunConfig::paper_bist();
        let stim = Stimulus::draw(&rc);
        for (phase0, half_width) in [(0, 0.30), (5, 0.30), (0, 0.12), (3, 0.0)] {
            let rc = RunConfig {
                eye_half_width_ui: half_width,
                ..rc.clone()
            };
            let ran = Synchronizer::new(&p)
                .with_initial_phase(phase0)
                .run(&rc, None);
            let replayed = Synchronizer::new(&p)
                .with_initial_phase(phase0)
                .replay(&rc, &stim, None);
            assert_eq!(ran, replayed, "phase {phase0}, half width {half_width}");
        }
    }

    #[test]
    #[should_panic(
        expected = "stimulus drawn for seed 4183 and 8000 cycles replayed against seed 4184"
    )]
    fn replaying_another_seed_panics() {
        let rc = RunConfig::paper_bist();
        let stim = Stimulus::draw(&rc);
        let other = RunConfig {
            seed: rc.seed + 1,
            ..rc
        };
        Synchronizer::new(&paper()).replay(&other, &stim, None);
    }

    #[test]
    #[should_panic(expected = "replayed against seed 4183 and 7999 cycles")]
    fn replaying_another_cycle_count_panics() {
        let rc = RunConfig::paper_bist();
        let stim = Stimulus::draw(&rc);
        let shorter = RunConfig {
            cycles: rc.cycles - 1,
            ..rc
        };
        Synchronizer::new(&paper()).replay(&shorter, &stim, None);
    }
}

/// Bit-exactness of the lock loop against its pre-hoist form.
#[cfg(test)]
mod lock_loop_oracle {
    use super::*;
    use std::collections::BTreeSet;

    use msim::effects::{resolve_effect, AnalogEffect, Pump, PumpDir, WindowSide};
    use msim::fault::FaultUniverse;
    use msim::units::Sec;

    /// `ChargePump::step` as it was: the per-UI change divided out on
    /// every call. The pumps of a synchronizer integrate onto
    /// `p.loop_cap` between the rails of `p.supply`.
    fn reference_step(
        p: &DesignParams,
        pump: &ChargePump,
        vc: Volt,
        up: bool,
        dn: bool,
        dt: Sec,
    ) -> Volt {
        let dv = pump.net_current(up, dn) * dt / p.loop_cap;
        (vc + dv).clamp(Volt::ZERO, p.supply)
    }

    /// [`Synchronizer::replay`] as it was before its per-run hoists: the
    /// pump steps and the DLL phase divided out every cycle, the
    /// divided-clock edge found with `%`, the error wrapped with `fmod`
    /// and the sampling instant with `f64::fract`.
    fn reference_replay(
        s: &mut Synchronizer,
        rc: &RunConfig,
        stimulus: &Stimulus,
        mut trace: Option<&mut Trace>,
    ) -> LockOutcome {
        let ui = s.p.ui();
        let divider = s.p.divider_ratio as u64;
        let eff_half = rc.eye_half_width_ui * (1.0 - s.clock_degradation);

        let mut corrections = 0u64;
        let mut data_errors = 0u64;
        let mut errors_after_lock = 0u64;
        let mut clean = 0u64;
        let mut lock_cycle: Option<u64> = None;
        let mut last_outside: Option<bool> = None;

        let draws = stimulus.jitter.iter().zip(&stimulus.transitions);
        for (cycle, (&gaussian, &transition)) in (0..).zip(draws) {
            let jitter = gaussian * rc.jitter_rms_ui;
            let tau = (s.dll.phase_ui(s.phase) + s.vcdl.delay_ui(s.vc)).fract();
            let center = rc.eye_center_ui + rc.eye_drift_ui_per_cycle * cycle as f64;
            let err = crate::pd::reference_wrap_error(tau, center);
            let observed = err + jitter;

            let sample_ok = !s.clock_dead && observed.abs() <= eff_half;
            let mut dirty = !sample_ok;
            if !sample_ok {
                data_errors += 1;
                if lock_cycle.is_some() {
                    errors_after_lock += 1;
                }
            }

            let decision = if s.clock_dead {
                None
            } else {
                s.pd.decide(observed, transition)
            };
            let (up, dn) = match decision {
                Some(PdDecision::Up) => (true, false),
                Some(PdDecision::Down) => (false, true),
                None => (false, false),
            };
            s.vc = reference_step(&s.p, &s.weak, s.vc, up, dn, ui);
            if let Some(pin) = s.vc_pinned {
                s.vc = pin;
            }

            let mut win_code = 0.0;
            if (cycle + 1) % divider == 0 {
                let decision = s.window.evaluate(s.vc);
                win_code = match decision {
                    WindowDecision::Inside => 1.0,
                    WindowDecision::BelowLow => 2.0,
                    WindowDecision::AboveHigh => 3.0,
                };
                match decision {
                    WindowDecision::Inside => last_outside = None,
                    WindowDecision::AboveHigh => {
                        if last_outside != Some(true) {
                            corrections += 1;
                            s.phase = s.dll.next_phase(s.phase, true);
                            last_outside = Some(true);
                        }
                        let dt = ui * divider as f64;
                        s.vc = reference_step(&s.p, &s.strong, s.vc, false, true, dt);
                        dirty = true;
                    }
                    WindowDecision::BelowLow => {
                        if last_outside != Some(false) {
                            corrections += 1;
                            s.phase = s.dll.next_phase(s.phase, false);
                            last_outside = Some(false);
                        }
                        let dt = ui * divider as f64;
                        s.vc = reference_step(&s.p, &s.strong, s.vc, true, false, dt);
                        dirty = true;
                    }
                }
                if let Some(pin) = s.vc_pinned {
                    s.vc = pin;
                }
            }

            if dirty {
                clean = 0;
            } else {
                clean += 1;
                if clean == rc.lock_window && lock_cycle.is_none() {
                    lock_cycle = Some(cycle + 1 - rc.lock_window);
                }
            }

            if let Some(t) = trace.as_deref_mut() {
                t.record("vc", s.vc);
                t.record("phase", Volt(s.phase as f64));
                t.record("vl", s.p.window_low);
                t.record("vh", s.p.window_high);
                t.record("win", Volt(win_code));
            }
        }

        LockOutcome {
            locked: lock_cycle.is_some(),
            lock_cycle,
            corrections,
            data_errors,
            errors_after_lock,
            final_vc: s.vc,
            final_phase: s.phase,
            vp: s.balance.settled(),
        }
    }

    /// Replays `sync` through both loops, traced, and compares every
    /// outcome field (f64s by bits), the final loop state and every trace
    /// sample.
    fn assert_bit_exact(sync: &Synchronizer, rc: &RunConfig, stimulus: &Stimulus, what: &str) {
        let (mut fast, mut slow) = (sync.clone(), sync.clone());
        let mut fast_trace = Trace::new(Sec::from_ps(400.0));
        let mut slow_trace = Trace::new(Sec::from_ps(400.0));
        let got = fast.replay(rc, stimulus, Some(&mut fast_trace));
        let want = reference_replay(&mut slow, rc, stimulus, Some(&mut slow_trace));

        assert_eq!(got.locked, want.locked, "{what}: locked");
        assert_eq!(got.lock_cycle, want.lock_cycle, "{what}: lock_cycle");
        assert_eq!(got.corrections, want.corrections, "{what}: corrections");
        assert_eq!(got.data_errors, want.data_errors, "{what}: data_errors");
        assert_eq!(
            got.errors_after_lock, want.errors_after_lock,
            "{what}: errors_after_lock"
        );
        assert_eq!(
            got.final_vc.value().to_bits(),
            want.final_vc.value().to_bits(),
            "{what}: final_vc"
        );
        assert_eq!(got.final_phase, want.final_phase, "{what}: final_phase");
        assert_eq!(
            got.vp.value().to_bits(),
            want.vp.value().to_bits(),
            "{what}: vp"
        );
        assert_eq!(
            fast.vc.value().to_bits(),
            slow.vc.value().to_bits(),
            "{what}: vc"
        );
        assert_eq!(fast.phase, slow.phase, "{what}: phase");

        assert_eq!(
            fast_trace.channel_names(),
            slow_trace.channel_names(),
            "{what}: trace channels"
        );
        for name in slow_trace.channel_names() {
            let bits = |t: &Trace| -> Vec<u64> {
                t.channel(name)
                    .unwrap()
                    .samples()
                    .iter()
                    .map(|v| v.value().to_bits())
                    .collect()
            };
            assert_eq!(
                bits(&fast_trace),
                bits(&slow_trace),
                "{what}: channel {name}"
            );
        }
    }

    /// The synchronizer and eye half width the BIST tier runs for
    /// `effect`: the hooks of `dft::bist::Bist::build` and the margin of
    /// `Bist::margin_factor`, restated here because this crate sits
    /// below `dft`.
    fn bist_setup(p: &DesignParams, effect: &AnalogEffect) -> (Synchronizer, f64) {
        let (mut weak, mut strong) = (CpFaults::none(), CpFaults::none());
        let mut window = WindowComparator::new(p.window_low, p.window_high);
        let mut sync = Synchronizer::new(p);
        let nominal = p.dc_test_input().value();
        let mut margin = 1.0;
        match *effect {
            AnalogEffect::CpDead { pump, dir } | AnalogEffect::CpAlwaysOn { pump, dir } => {
                let f = if pump == Pump::Weak {
                    &mut weak
                } else {
                    &mut strong
                };
                match (effect, dir) {
                    (AnalogEffect::CpAlwaysOn { .. }, _) => f.always_on = Some(dir),
                    (_, PumpDir::Up) => f.dead_up = true,
                    (_, PumpDir::Down) => f.dead_down = true,
                }
            }
            AnalogEffect::CpCurrentScale { pump, dir, factor } => {
                let f = if pump == Pump::Weak {
                    &mut weak
                } else {
                    &mut strong
                };
                match dir {
                    PumpDir::Up => f.up_scale = factor,
                    PumpDir::Down => f.down_scale = factor,
                }
            }
            AnalogEffect::WindowStuck { side, output } => {
                window = match side {
                    WindowSide::High => window.with_high_stuck(output),
                    WindowSide::Low => window.with_low_stuck(output),
                }
            }
            AnalogEffect::WindowThresholdShift { side, dv } => {
                window = match side {
                    WindowSide::High => window.with_high_shift(dv),
                    WindowSide::Low => window.with_low_shift(dv),
                }
            }
            AnalogEffect::CpBalanceDrift { dv } => sync = sync.with_balance_drift(dv),
            AnalogEffect::LoopCapShort => sync = sync.with_vc_pinned(Volt::ZERO),
            AnalogEffect::ClockPathDead => sync = sync.with_clock_dead(),
            AnalogEffect::ClockDegraded { severity } => {
                sync = sync.with_clock_degradation(severity)
            }
            AnalogEffect::VcdlStuck { frac } => {
                sync = sync.with_vcdl(Vcdl::from_params(p).with_stuck(frac))
            }
            AnalogEffect::VcdlRangeScale { factor } => {
                sync = sync.with_vcdl(Vcdl::from_params(p).with_range_scale(factor))
            }
            AnalogEffect::LineArmStuck { .. } | AnalogEffect::DataPathStuck => margin = 0.0,
            AnalogEffect::ArmImbalance { dv } | AnalogEffect::DynamicImbalance { dv } => {
                margin = 1.0 - dv.value() / nominal
            }
            AnalogEffect::SwingScale { factor } => margin = factor.min(1.0),
            AnalogEffect::CouplingDcShift { dv } => {
                margin = 1.0 - dv.abs().value() / (2.0 * nominal)
            }
            AnalogEffect::CommonModeShift { dv } => margin = 1.0 - dv.abs().value() / 0.2,
            _ => {}
        }
        let sync = sync
            .with_weak_faults(weak)
            .with_strong_faults(strong)
            .with_window(window);
        let half_width = RunConfig::paper_bist().eye_half_width_ui * margin.clamp(0.0, 1.0);
        (sync, half_width)
    }

    /// One effect of every class of the paper's fault universe.
    fn paper_effect_classes(p: &DesignParams) -> Vec<AnalogEffect> {
        let blocks = crate::netlists::functional_netlists();
        let universe = FaultUniverse::enumerate(blocks.iter().map(|(b, n)| (*b, n)));
        let mut seen = BTreeSet::new();
        universe
            .iter()
            .map(|fault| resolve_effect(fault, p))
            .filter(|effect| seen.insert(effect.key()))
            .collect()
    }

    #[test]
    fn every_paper_effect_class_replays_bit_exactly_from_both_phases() {
        let p = DesignParams::paper();
        let rc = RunConfig::paper_bist();
        let stimulus = Stimulus::draw(&rc);
        let classes = paper_effect_classes(&p);
        assert!(classes.len() > 50, "only {} effect classes", classes.len());
        for effect in &classes {
            let (sync, half_width) = bist_setup(&p, effect);
            let rc = RunConfig {
                eye_half_width_ui: half_width,
                ..rc.clone()
            };
            for phase0 in [0, p.dll_phases / 2] {
                let sync = sync.clone().with_initial_phase(phase0);
                assert_bit_exact(
                    &sync,
                    &rc,
                    &stimulus,
                    &format!("{effect:?} from phase {phase0}"),
                );
            }
        }
    }

    #[test]
    fn eye_drift_pinned_vc_dead_clock_and_divider_ratios_replay_bit_exactly() {
        let paper = DesignParams::paper();
        let base = RunConfig {
            cycles: 3000,
            ..RunConfig::paper_bist()
        };
        // Drift carries the eye center up to 3 UI from the sampling
        // instant, so the wrap takes its `fmod` path as well as the
        // shortcut.
        for drift in [1e-3, -1e-3, 1e-6] {
            let rc = RunConfig {
                eye_drift_ui_per_cycle: drift,
                ..base.clone()
            };
            let stimulus = Stimulus::draw(&rc);
            for phase0 in [0, 5] {
                let sync = Synchronizer::new(&paper).with_initial_phase(phase0);
                assert_bit_exact(
                    &sync,
                    &rc,
                    &stimulus,
                    &format!("drift {drift} from {phase0}"),
                );
            }
        }
        let stimulus = Stimulus::draw(&base);
        for pin in [Volt::ZERO, paper.vmid, paper.window_high, paper.supply] {
            let sync = Synchronizer::new(&paper).with_vc_pinned(pin);
            assert_bit_exact(&sync, &base, &stimulus, &format!("vc pinned at {pin}"));
        }
        let dead = Synchronizer::new(&paper).with_clock_dead();
        assert_bit_exact(&dead, &base, &stimulus, "clock dead");
        for ratio in [1, 2, 16] {
            let p = DesignParams {
                divider_ratio: ratio,
                ..paper.clone()
            };
            for phase0 in [0, 5] {
                let sync = Synchronizer::new(&p).with_initial_phase(phase0);
                assert_bit_exact(
                    &sync,
                    &base,
                    &stimulus,
                    &format!("divider {ratio} from {phase0}"),
                );
            }
        }
    }
}
