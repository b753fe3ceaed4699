//! Production test-program generation.
//!
//! Everything the paper describes — the two DC vectors, the scan
//! procedures with their chain A/B interplay, the BIST run — ordered into
//! the concrete step list a tester (or an on-die test controller) would
//! execute, with per-step apply/observe descriptions, control-signal
//! states and time estimates. The program is the hand-off artifact of the
//! whole DFT scheme.
//!
//! # Examples
//!
//! ```
//! use dft::test_program::TestProgram;
//! use msim::params::DesignParams;
//!
//! let prog = TestProgram::paper(&DesignParams::paper());
//! assert!(prog.steps().len() >= 10);
//! // The flow is ordered cheapest-first: DC, then scan, then BIST.
//! assert!(prog.render().contains("BIST"));
//! ```

use msim::params::DesignParams;
use msim::units::Sec;

/// Which tier a step belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Static two-vector test.
    Dc,
    /// Scan procedures.
    Scan,
    /// At-speed built-in self test.
    Bist,
}

impl Tier {
    /// Tier label.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Dc => "DC",
            Tier::Scan => "scan",
            Tier::Bist => "BIST",
        }
    }
}

/// One program step.
#[derive(Debug, Clone, PartialEq)]
pub struct TestStep {
    /// Owning tier.
    pub tier: Tier,
    /// Step name.
    pub name: &'static str,
    /// Stimulus to apply.
    pub apply: String,
    /// Expected observation.
    pub observe: String,
    /// Control signals asserted (`Sen`, `Ten`, …).
    pub controls: &'static str,
    /// Estimated duration.
    pub duration: Sec,
}

/// The ordered test program.
#[derive(Debug, Clone, PartialEq)]
pub struct TestProgram {
    steps: Vec<TestStep>,
}

impl TestProgram {
    /// Builds the paper's flow at a design point.
    pub fn paper(p: &DesignParams) -> TestProgram {
        let scan_period = p.scan_clock.period();
        let settle = Sec::from_ns(100.0);
        let mut steps = Vec::new();

        // --- DC tier (§IV: two vectors) ---
        steps.push(TestStep {
            tier: Tier::Dc,
            name: "dc-vector-1",
            apply: "hold interconnect input at logic 1; settle".into(),
            observe: format!(
                "offset comparators read (1,0); bias window quiet (offset {})",
                p.cmp_offset
            ),
            controls: "Ten=1",
            duration: settle,
        });
        steps.push(TestStep {
            tier: Tier::Dc,
            name: "dc-vector-0",
            apply: "hold interconnect input at logic 0; settle".into(),
            observe: "offset comparators read (0,1); bias window quiet".into(),
            controls: "Ten=1",
            duration: settle,
        });

        // --- Scan tier (§II) ---
        steps.push(TestStep {
            tier: Tier::Scan,
            name: "chain-continuity",
            apply: "flush 0101… through chains A and B".into(),
            observe: "patterns emerge intact (also the switch-matrix check)".into(),
            controls: "Sen=1, Ten=1, scan clock",
            duration: scan_period * 64.0,
        });
        steps.push(TestStep {
            tier: Tier::Scan,
            name: "toggling-pattern",
            apply: "toggle the link at the scan frequency".into(),
            observe: "clocked window comparator quiet (dynamic mismatch check)".into(),
            controls: "Sen=0, Ten=1",
            duration: scan_period * 128.0,
        });
        steps.push(TestStep {
            tier: Tier::Scan,
            name: "pd-two-pass-up",
            apply: "toggling data, half-cycle latch transparent".into(),
            observe: "Alexander PD asserts UP".into(),
            controls: "Ten=1, LAT_HALF off",
            duration: scan_period * 32.0,
        });
        steps.push(TestStep {
            tier: Tier::Scan,
            name: "pd-two-pass-dn",
            apply: "toggling data, half-cycle latch enabled".into(),
            observe: "Alexander PD asserts DN".into(),
            controls: "Ten=1, LAT_HALF on",
            duration: scan_period * 32.0,
        });
        steps.push(TestStep {
            tier: Tier::Scan,
            name: "cp-drive-up",
            apply: "biases railed; chain A forces PD UP".into(),
            observe: format!("Vc crosses VH = {}", p.window_high),
            controls: "Sen=1, Ten=1, biases railed",
            duration: scan_period * 100.0,
        });
        steps.push(TestStep {
            tier: Tier::Scan,
            name: "fsm-reset-down",
            apply: "release scan; FSM resets Vc from the high rail".into(),
            observe: "window comparator captures read Inside".into(),
            controls: "Sen=0, Ten=1",
            duration: scan_period * 20.0,
        });
        steps.push(TestStep {
            tier: Tier::Scan,
            name: "cp-drive-down",
            apply: "chain A forces PD DN".into(),
            observe: format!("Vc crosses VL = {}", p.window_low),
            controls: "Sen=1, Ten=1, biases railed",
            duration: scan_period * 100.0,
        });
        steps.push(TestStep {
            tier: Tier::Scan,
            name: "fsm-reset-up",
            apply: "release scan; FSM resets Vc from the low rail".into(),
            observe: "window comparator captures read Inside".into(),
            controls: "Sen=0, Ten=1",
            duration: scan_period * 20.0,
        });
        steps.push(TestStep {
            tier: Tier::Scan,
            name: "ring-preload-count",
            apply: "preload one-hot via chain B; clock with Vc at a rail".into(),
            observe: "image rotates one position per correction".into(),
            controls: "Sen toggled, Ten=1",
            duration: scan_period * 80.0,
        });
        steps.push(TestStep {
            tier: Tier::Scan,
            name: "switch-matrix-all-zero",
            apply: "preload all-zero image".into(),
            observe: "chain A stops clocking (no phase selected)".into(),
            controls: "Sen toggled, Ten=1",
            duration: scan_period * 80.0,
        });
        steps.push(TestStep {
            tier: Tier::Scan,
            name: "switch-matrix-one-hot-sweep",
            apply: format!("preload each of the {} one-hot images", p.dll_phases),
            observe: "chain A continuity under every selected phase".into(),
            controls: "Sen toggled, Ten=1",
            duration: scan_period * 64.0 * p.dll_phases as f64,
        });

        // --- BIST tier (§III) ---
        steps.push(TestStep {
            tier: Tier::Bist,
            name: "bist-lock",
            apply: "random data at speed from reset".into(),
            observe: format!(
                "lock within {} cycles; 3-bit lock detector below saturation",
                p.bist_lock_budget
            ),
            controls: "Ten=0, BIST enable",
            duration: p.ui() * p.bist_lock_budget as f64,
        });
        steps.push(TestStep {
            tier: Tier::Bist,
            name: "cp-bist-window",
            apply: "after lock, enable the CP-BIST comparator".into(),
            observe: format!(
                "Vp within {} ± {} of nominal",
                p.vp_nominal,
                p.cp_bist_window / 2.0
            ),
            controls: "BIST enable",
            duration: p.ui() * 1000.0,
        });
        steps.push(TestStep {
            tier: Tier::Bist,
            name: "retimed-data-check",
            apply: "compare retimed data against the PRBS reference".into(),
            observe: "no post-lock errors".into(),
            controls: "BIST enable",
            duration: p.ui() * 3000.0,
        });

        TestProgram { steps }
    }

    /// The ordered steps.
    pub fn steps(&self) -> &[TestStep] {
        &self.steps
    }

    /// Total estimated duration.
    pub fn total_duration(&self) -> Sec {
        self.steps.iter().map(|s| s.duration).sum()
    }

    /// Renders the program as a numbered text listing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut current: Option<Tier> = None;
        for (i, s) in self.steps.iter().enumerate() {
            if current != Some(s.tier) {
                out.push_str(&format!("== {} tier ==\n", s.tier.label()));
                current = Some(s.tier);
            }
            out.push_str(&format!(
                "{:>2}. {:<28} [{:>8.2} us] {}\n    apply  : {}\n    observe: {}\n",
                i + 1,
                s.name,
                s.duration.us(),
                s.controls,
                s.apply,
                s.observe
            ));
        }
        out.push_str(&format!(
            "total estimated test time: {:.1} us\n",
            self.total_duration().us()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog() -> TestProgram {
        TestProgram::paper(&DesignParams::paper())
    }

    #[test]
    fn tiers_are_ordered_cheapest_first() {
        let steps = prog();
        let tiers: Vec<Tier> = steps.steps().iter().map(|s| s.tier).collect();
        let mut sorted = tiers.clone();
        sorted.sort();
        assert_eq!(tiers, sorted, "DC before scan before BIST");
    }

    #[test]
    fn covers_every_paper_procedure() {
        let names: Vec<&str> = prog().steps().iter().map(|s| s.name).collect();
        for required in [
            "dc-vector-1",
            "dc-vector-0",
            "chain-continuity",
            "toggling-pattern",
            "pd-two-pass-up",
            "pd-two-pass-dn",
            "cp-drive-up",
            "cp-drive-down",
            "fsm-reset-down",
            "fsm-reset-up",
            "ring-preload-count",
            "switch-matrix-all-zero",
            "switch-matrix-one-hot-sweep",
            "bist-lock",
            "cp-bist-window",
            "retimed-data-check",
        ] {
            assert!(names.contains(&required), "missing step {required}");
        }
    }

    #[test]
    fn total_time_is_tens_of_microseconds() {
        let t = prog().total_duration();
        assert!(t.us() > 5.0 && t.us() < 500.0, "total {t}");
    }

    #[test]
    fn bist_dominates_nothing_scan_dominates() {
        // Scan shifting is the expensive part; the BIST is just 2 us + a
        // short observation window.
        let p = prog();
        let tier = |t: Tier| -> Sec {
            p.steps
                .iter()
                .filter(|s| s.tier == t)
                .map(|s| s.duration)
                .sum()
        };
        let (scan, bist) = (tier(Tier::Scan), tier(Tier::Bist));
        assert!(scan.value() > bist.value());
    }

    #[test]
    fn render_is_complete_and_grouped() {
        let r = prog().render();
        assert!(r.contains("== DC tier =="));
        assert!(r.contains("== scan tier =="));
        assert!(r.contains("== BIST tier =="));
        assert!(r.contains("total estimated test time"));
        // Every step appears numbered.
        assert!(r.contains("16."));
    }
}
