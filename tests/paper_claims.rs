//! The paper's claims, checked end to end across all four crates: every
//! row of the `dft::claims` table, measured as `reproduce` measures it.
//! Each test below names the rows behind one claim; the table holds the
//! quotes, the paper values and the bounds.
//!
//! Paper: Kadayinti & Sharma, "Testable Design of Repeaterless Low Swing
//! On-Chip Interconnect", DATE 2016.

use std::sync::OnceLock;

use dft::campaign::FaultCampaign;
use dft::claims::{self, Claim, MISMATCH_SIGMA_MV, MISMATCH_TRIALS};
use dft::mismatch::MonteCarlo;
use msim::params::DesignParams;

/// The claims table, measured once.
fn rows() -> &'static [Claim] {
    static ROWS: OnceLock<Vec<Claim>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let p = DesignParams::paper();
        let campaign = FaultCampaign::new(&p).run();
        let locks = claims::lock_sweep(&p);
        let mismatch = MonteCarlo::sweep(&p, &[MISMATCH_SIGMA_MV], MISMATCH_TRIALS);
        let seeds = claims::seed_sweep(&p, &campaign);
        claims::claims(&p, &campaign, &locks, &mismatch, &seeds)
    })
}

/// Asserts that the rows named by `ids` exist and hold; an id ending in
/// `.` names every row of that group.
fn holds(ids: &[&str]) {
    for id in ids {
        let group: Vec<&Claim> = rows()
            .iter()
            .filter(|c| c.id == *id || (id.ends_with('.') && c.id.starts_with(id)))
            .collect();
        assert!(!group.is_empty(), "no claims row {id}");
        for row in group {
            assert!(row.holds(), "{row:?}");
        }
    }
}

#[test]
fn every_claim_holds() {
    let failed = claims::failing(rows());
    assert!(failed.is_empty(), "{failed:#?}");
}

#[test]
fn claim_dc_tier_near_half_coverage() {
    holds(&["ladder.dc"]);
}

#[test]
fn claim_scan_tier_near_three_quarters() {
    holds(&["ladder.dc_scan", "ladder.rise"]);
}

#[test]
fn claim_bist_tier_near_ninety_five() {
    holds(&["ladder.total", "ladder.rise"]);
}

#[test]
fn claim_table_one_row_ordering() {
    holds(&["table1."]);
}

#[test]
fn claim_tiers_are_incomparable_sets() {
    holds(&["tiers.incomparable"]);
}

#[test]
fn claim_dynamic_mismatch_scan_only() {
    holds(&["dynamic.tg_drain_open"]);
}

#[test]
fn claim_current_source_ds_short_masked_then_caught() {
    holds(&["masking.source_ds_short"]);
}

#[test]
fn claim_lock_budget_from_any_initial_condition() {
    holds(&["lock.budget", "lock.corrections"]);
}

#[test]
fn claim_table_two_overhead_exact() {
    holds(&["table2."]);
}

#[test]
fn claim_digital_blocks_fully_covered() {
    holds(&["digital.stuck_at"]);
}

#[test]
fn claim_no_critical_path_elements_beyond_the_latch() {
    holds(&["table2.d_latch", "table2.data_path_latch"]);
}

#[test]
fn claim_no_false_failures() {
    holds(&[
        "healthy.passes",
        "healthy.effect_free",
        "mismatch.false_failures",
    ]);
}
