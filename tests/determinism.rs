//! Determinism guarantees of the parallel campaign engine: the parallel
//! fault campaign must produce records byte-identical to the sequential
//! reference (same order, same fields), and seeded Monte-Carlo runs must
//! be reproducible — the contract that lets the paper's coverage ladder
//! be regenerated on any machine, at any core count.

use dft::campaign::FaultCampaign;
use dft::mismatch::MonteCarlo;
use msim::params::DesignParams;
use msim::units::Volt;

/// The parallel campaign equals the sequential reference record-for-record
/// at several forced thread counts (exercising the multi-threaded path
/// even on a single-core host).
#[test]
fn parallel_campaign_is_byte_identical_to_sequential() {
    let campaign = FaultCampaign::new(&DesignParams::paper());
    let sequential = campaign.run_on(1);
    for threads in [2, 3, 4, 8] {
        let parallel = campaign.run_on(threads);
        assert_eq!(
            parallel.total(),
            sequential.total(),
            "{threads} threads: universe size changed"
        );
        for (p, s) in parallel.records().iter().zip(sequential.records()) {
            assert_eq!(p, s, "{threads} threads: record diverged for {}", s.fault);
        }
        assert_eq!(
            parallel, sequential,
            "{threads} threads: aggregate diverged"
        );
    }
    // The default entry point (auto thread count) agrees too.
    assert_eq!(campaign.run(), sequential);
}

/// Two Monte-Carlo mismatch runs with the same seed agree exactly, and
/// the result does not depend on how many threads the chunks landed on.
#[test]
fn monte_carlo_mismatch_is_seed_deterministic() {
    let mc = MonteCarlo::new(&DesignParams::paper(), Volt::from_mv(6.0));
    let a = mc.run(3000, 17);
    let b = mc.run(3000, 17);
    assert_eq!(a, b);
    assert_eq!(a.trials, 3000);
    let other_seed = mc.run(3000, 18);
    assert!(
        a != other_seed || a.false_failures == other_seed.false_failures,
        "different seeds may coincide in aggregate but must not be forced equal"
    );
}

/// Synchronizer lock-acquisition runs (the BIST workload) are
/// reproducible per seed across repeated runs.
#[test]
fn bist_lock_runs_are_seed_deterministic() {
    use link::synchronizer::{RunConfig, Synchronizer};
    let p = DesignParams::paper();
    let rc = RunConfig::paper_bist();
    let a = Synchronizer::new(&p).run(&rc, None);
    let b = Synchronizer::new(&p).run(&rc, None);
    assert_eq!(a, b);
}
