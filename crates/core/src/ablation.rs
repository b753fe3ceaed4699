//! DFT-element ablation: what each piece of Table II's added circuitry
//! buys.
//!
//! The paper's overhead (probe flip-flops, 100 MHz window comparators,
//! the CP-BIST comparator, the retimed-data check) is justified only if
//! removing any element costs coverage. [`DftOptions`] disables elements
//! individually and [`ablated_campaign`] re-runs the structural fault
//! campaign, quantifying each element's contribution.
//!
//! # Examples
//!
//! ```no_run
//! use dft::ablation::{ablated_campaign, DftOptions};
//! use msim::params::DesignParams;
//!
//! let p = DesignParams::paper();
//! let full = ablated_campaign(&p, DftOptions::all());
//! let no_cp_bist = ablated_campaign(&p, DftOptions { cp_bist_comparator: false, ..DftOptions::all() });
//! assert!(no_cp_bist.coverage_total() < full.coverage_total());
//! ```

use msim::effects::AnalogEffect;
use msim::params::DesignParams;

use crate::bist::Bist;
use crate::campaign::{CampaignResult, EffectClasses, FaultCampaign, TierVerdict};
use crate::dc_test::DcTest;
use crate::scan_test::ScanTest;

/// Which DFT elements are present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DftOptions {
    /// The probe flip-flops on the FFE capacitor plates (4 of the 7 FFs
    /// in Table II).
    pub probe_ffs: bool,
    /// The clocked 100 MHz window comparators at the termination
    /// (the "Comparators (100 MHz)" row).
    pub dynamic_window: bool,
    /// The CP-BIST window comparator on the balance node (2 of the 4 DC
    /// comparators, Fig. 9).
    pub cp_bist_comparator: bool,
    /// The retimed-data comparison during BIST (the PRBS reference check).
    pub bist_data_check: bool,
}

impl DftOptions {
    /// Every element present (the paper's scheme).
    pub fn all() -> DftOptions {
        DftOptions {
            probe_ffs: true,
            dynamic_window: true,
            cp_bist_comparator: true,
            bist_data_check: true,
        }
    }
}

impl Default for DftOptions {
    fn default() -> DftOptions {
        DftOptions::all()
    }
}

/// Runs the structural fault campaign with the given DFT elements.
///
/// Element removal is applied at the observation level: without the probe
/// flip-flops the scan chain cannot capture a stuck capacitor plate;
/// without the 100 MHz comparators the toggling check is blind; without
/// the CP-BIST window `Vp` is unobserved; without the data check the BIST
/// passes on lock alone (a ref-\[9\]-style lock-only BIST).
pub fn ablated_campaign(p: &DesignParams, options: DftOptions) -> CampaignResult {
    let dc = DcTest::new(p);
    let scan = ScanTest::new(p);
    let bist = Bist::new(p);
    let universe = FaultCampaign::new(p).universe();
    // Detection depends on the effect and the element set only, so each
    // effect class is decided once.
    EffectClasses::of(&universe, p).decide(&universe, |effect| {
        let scan_hit = {
            let masked_chain = !options.probe_ffs && matches!(effect, AnalogEffect::DataPathStuck);
            let masked_dynamic =
                !options.dynamic_window && matches!(effect, AnalogEffect::DynamicImbalance { .. });
            if masked_chain || masked_dynamic {
                // The element that would have caught it is absent; check
                // whether any *other* scan observation fires.
                match effect {
                    // DataPathStuck is also seen by the toggling
                    // comparators (if present): the line never toggles.
                    AnalogEffect::DataPathStuck => options.dynamic_window,
                    _ => false,
                }
            } else {
                scan.detects(effect)
            }
        };
        let bist_hit = {
            let v = bist.execute(effect);
            let vp = options.cp_bist_comparator && v.vp_flagged;
            let data = options.bist_data_check && !v.data_clean;
            vp || data || v.lock_detector_saturated || !v.locked_in_budget
        };
        TierVerdict {
            dc: dc.detects(effect),
            scan: scan_hit,
            bist: bist_hit,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn full() -> &'static CampaignResult {
        static FULL: OnceLock<CampaignResult> = OnceLock::new();
        FULL.get_or_init(|| ablated_campaign(&DesignParams::paper(), DftOptions::all()))
    }

    #[test]
    fn full_options_match_the_reference_campaign() {
        let reference = crate::campaign::FaultCampaign::new(&DesignParams::paper()).run();
        assert_eq!(full().coverage_total(), reference.coverage_total());
        assert_eq!(full().coverage_dc(), reference.coverage_dc());
        assert_eq!(full().coverage_dc_scan(), reference.coverage_dc_scan());
    }

    #[test]
    fn removing_the_cp_bist_comparator_costs_coverage() {
        let p = DesignParams::paper();
        let without = ablated_campaign(
            &p,
            DftOptions {
                cp_bist_comparator: false,
                ..DftOptions::all()
            },
        );
        // The balance-arm faults (drift inside lock) become escapes.
        assert!(
            without.coverage_total() < full().coverage_total() - 0.02,
            "CP-BIST contributes: {} vs {}",
            without.coverage_total(),
            full().coverage_total()
        );
    }

    #[test]
    fn removing_the_dynamic_window_costs_scan_coverage() {
        let p = DesignParams::paper();
        let without = ablated_campaign(
            &p,
            DftOptions {
                dynamic_window: false,
                ..DftOptions::all()
            },
        );
        assert!(without.coverage_dc_scan() < full().coverage_dc_scan());
    }

    #[test]
    fn removing_the_data_check_costs_clock_path_coverage() {
        let p = DesignParams::paper();
        let without = ablated_campaign(
            &p,
            DftOptions {
                bist_data_check: false,
                ..DftOptions::all()
            },
        );
        // Dead/degraded clock paths that lock-detector-only BIST misses.
        assert!(without.coverage_total() < full().coverage_total());
    }

    #[test]
    fn probe_ffs_are_backed_up_by_other_observations() {
        // The probed data-path faults are also visible at DC and while
        // toggling, so dropping only the probe FFs must not change the
        // cumulative ladder (defense in depth) — their unique value is
        // *diagnostic* (chain-A localization), which the paper gets for
        // one flip-flop each.
        let p = DesignParams::paper();
        let without = ablated_campaign(
            &p,
            DftOptions {
                probe_ffs: false,
                ..DftOptions::all()
            },
        );
        assert_eq!(without.coverage_total(), full().coverage_total());
    }
}
