//! Statistical stability of the coverage numbers: the BIST tier uses
//! random data, so the campaign is re-run with different PRBS seeds. A
//! result that moved with the seed would be an artifact; the paper's
//! ladder must be seed-stable.
//!
//! ```text
//! cargo run -p bench --release --bin seed_stability
//! ```

use dft::bist::Bist;
use dft::campaign::{CampaignResult, EffectClasses, FaultCampaign, TierVerdict};
use dft::dc_test::DcTest;
use dft::report::{percent, render_table};
use dft::scan_test::ScanTest;
use link::synchronizer::RunConfig;
use msim::params::DesignParams;

fn campaign_with_seed(p: &DesignParams, seed: u64) -> CampaignResult {
    let dc = DcTest::new(p);
    let scan = ScanTest::new(p);
    let bist = Bist::with_run(
        p,
        RunConfig {
            seed,
            ..RunConfig::paper_bist()
        },
    );
    let universe = FaultCampaign::new(p).universe();
    EffectClasses::of(&universe, p).decide(&universe, |effect| TierVerdict {
        dc: dc.detects(effect),
        scan: scan.detects(effect),
        bist: bist.detects(effect),
    })
}

fn main() {
    let p = DesignParams::paper();
    println!("=== Coverage ladder across BIST data seeds ===\n");
    let mut rows = Vec::new();
    let mut totals = Vec::new();
    for seed in [0x1057u64, 1, 42, 2016, 0xDEAD] {
        let r = campaign_with_seed(&p, seed);
        totals.push(r.coverage_total());
        rows.push(vec![
            format!("{seed:#x}"),
            percent(r.coverage_dc()),
            percent(r.coverage_dc_scan()),
            percent(r.coverage_total()),
        ]);
    }
    print!(
        "{}",
        render_table(&["Seed", "DC", "DC+scan", "Total"], &rows)
    );
    let min = totals.iter().copied().fold(f64::INFINITY, f64::min);
    let max = totals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "\ntotal-coverage spread across seeds: {:.2} points",
        (max - min) * 100.0
    );
    assert!(
        max - min < 0.01,
        "coverage moved more than a point with the seed"
    );
    println!(
        "The DC and scan tiers are deterministic by construction; the BIST\n\
         verdicts rest on gross behaviours (saturating counters, closed\n\
         windows, dead clocks) that survive any data sequence."
    );
    // Cross-check: the default-seed run equals the reference campaign.
    let reference = FaultCampaign::new(&p).run();
    assert_eq!(
        campaign_with_seed(&p, 0x1057).coverage_total(),
        reference.coverage_total()
    );
}
