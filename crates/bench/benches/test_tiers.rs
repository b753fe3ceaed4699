//! Wall time of the three test tiers and of the full structural fault
//! campaign — the cost of regenerating Table I — on the in-tree
//! `rt::timing` harness. The campaign runs both sequentially and on all
//! cores, so this bench also reports the parallel engine's speedup.
//!
//! ```text
//! cargo bench -p bench --bench test_tiers
//! ```

use dft::bist::Bist;
use dft::campaign::FaultCampaign;
use dft::dc_test::DcTest;
use dft::scan_test::ScanTest;
use msim::effects::AnalogEffect;
use msim::params::DesignParams;
use msim::units::Volt;
use rt::timing::Bench;

fn sample_effects() -> Vec<AnalogEffect> {
    use msim::effects::{Pump, PumpDir, WindowSide};
    vec![
        AnalogEffect::None,
        AnalogEffect::ArmImbalance {
            dv: Volt::from_mv(20.0),
        },
        AnalogEffect::DynamicImbalance {
            dv: Volt::from_mv(21.0),
        },
        AnalogEffect::CpDead {
            pump: Pump::Weak,
            dir: PumpDir::Up,
        },
        AnalogEffect::WindowStuck {
            side: WindowSide::High,
            output: true,
        },
        AnalogEffect::CpBalanceDrift {
            dv: Volt::from_mv(200.0),
        },
    ]
}

fn main() {
    let p = DesignParams::paper();
    let effects = sample_effects();
    let mut bench = Bench::new("test_tiers");

    let dc = DcTest::new(&p);
    bench.run("tier/dc_per_fault", || {
        effects.iter().filter(|e| dc.detects(e)).count()
    });

    let scan = ScanTest::new(&p);
    bench.run("tier/scan_per_fault", || {
        effects.iter().filter(|e| scan.detects(e)).count()
    });

    let bist = Bist::new(&p);
    bench.run("tier/bist_single_fault", || {
        bist.detects(&AnalogEffect::None)
    });

    let campaign = FaultCampaign::new(&p);
    bench.run("campaign/full_structural_universe_sequential", || {
        campaign.run_on(1).coverage_total()
    });
    let threads = rt::par::threads();
    let parallel = bench
        .run(
            format!("campaign/full_structural_universe_{threads}_threads"),
            || campaign.run().coverage_total(),
        )
        .median_ns;
    bench.run("campaign/universe_enumeration", || {
        campaign.universe().len()
    });

    print!("{}", bench.report());
    let sequential = bench.results()[3].median_ns;
    println!(
        "\ncampaign parallel speedup on {threads} thread(s): {:.2}x",
        sequential / parallel
    );
}
