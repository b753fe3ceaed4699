//! Acceptance tests for the link-farm sweep grid: determinism across
//! thread counts, checkpoint kill/resume, and the pinned demonstration
//! that the crosstalk coupling axis changes detection and BER records.

use link::farm::{CellRecord, FarmAxes, FarmGrid, LinkFarm, FARM_SHARD_SIZE, RECORD_BYTES};
use rt::exec::{Checkpoint, RetryPolicy, Sabotage, Sabotaged, ShardJob};

/// The records as checkpoint bytes: every float by its IEEE-754 bits, so
/// two sweeps compare equal only when they are bit for bit the same
/// (`==` on `f64` calls `-0.0` and `0.0` equal).
fn encoded(records: &[CellRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * RECORD_BYTES);
    for r in records {
        r.encode(&mut out);
    }
    out
}

/// A ≥1000-cell grid kept cheap for debug-mode CI: few segments, short
/// bit streams come from the farm itself.
fn big_axes() -> FarmAxes {
    FarmAxes {
        lengths_mm: vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 22.0],
        swings_mv: vec![40.0, 60.0, 80.0],
        segments: vec![3],
        sigmas_mv: vec![0.0, 6.0, 12.0],
        rates_gbps: vec![1.0, 2.5],
        lanes: vec![1, 4],
        couplings: vec![0.0, 0.04, 0.08],
    }
}

#[test]
fn thousand_cell_sweep_is_byte_identical_at_any_thread_count() {
    let grid = FarmGrid::new(big_axes(), 11).unwrap();
    assert!(grid.total() >= 1000, "grid too small: {}", grid.total());
    let farm = LinkFarm::new(grid);
    assert!(farm.plan().len() > 1, "must actually shard");

    let baseline = farm.run(1, &RetryPolicy::none(), None);
    assert!(baseline.is_complete());
    assert_eq!(baseline.records.len(), farm.grid().total());
    let bytes = encoded(&baseline.records);
    for threads in [2, 4, 7] {
        let report = farm.run(threads, &RetryPolicy::none(), None);
        assert!(report.is_complete());
        assert!(
            encoded(&report.records) == bytes,
            "record bytes diverge at {threads} threads"
        );
    }
}

#[test]
fn interrupted_sweep_resumes_byte_identically_from_checkpoint() {
    let mut axes = big_axes();
    axes.swings_mv = vec![60.0]; // 360 cells: several shards, fast
    let farm = LinkFarm::new(FarmGrid::new(axes, 11).unwrap());
    let plan = farm.plan();
    assert!(plan.len() >= 3);
    let reference = farm.run(2, &RetryPolicy::none(), None);
    assert!(reference.is_complete());

    let dir = std::env::temp_dir().join(format!("farm_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("farm.ck");
    let fp = farm.fingerprint();

    // First run: the last shard's panic kills the sweep mid-flight.
    let dead = plan.len() - 1;
    {
        let mut ck = Checkpoint::open(&path, fp).unwrap();
        let kill = Sabotage::times(dead, u32::MAX);
        let sab = Sabotaged {
            job: &farm,
            sabotage: Some(&kill),
        };
        let report = rt::exec::run_shards(2, &RetryPolicy::none(), Some(&mut ck), &plan, &sab);
        assert!(!report.is_complete());
        assert_eq!(report.incomplete.len(), 1);
        assert_eq!(report.incomplete[0].shard, dead);
    }

    // Second run: every surviving shard restores from the checkpoint,
    // only the killed one recomputes — and the records match a clean
    // run byte for byte.
    let mut ck = Checkpoint::open(&path, fp).unwrap();
    let report = farm.run(4, &RetryPolicy::none(), Some(&mut ck));
    assert!(report.is_complete());
    assert_eq!(report.summary.resumed, plan.len() - 1);
    assert!(
        encoded(&report.records) == encoded(&reference.records),
        "resumed record bytes diverge from a clean run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn coupling_axis_changes_detection_and_ber_records() {
    // One wire, one mismatch population, two coupling regimes: quiet
    // neighbors vs 8% coupling from each of two aggressors.
    let mut axes = FarmAxes::paper_point();
    axes.lanes = vec![4];
    axes.sigmas_mv = vec![8.0];
    axes.couplings = vec![0.0, 0.08];
    let farm = LinkFarm::new(FarmGrid::new(axes, 7).unwrap());
    let report = farm.run(1, &RetryPolicy::none(), None);
    assert!(report.is_complete());
    let quiet = &report.records[0];
    let noisy = &report.records[1];

    // The coupled eye closes by several millivolts...
    assert_eq!(quiet.eye_coupled_mv, quiet.eye_uncoupled_mv);
    assert!(
        noisy.eye_coupled_mv < noisy.eye_uncoupled_mv - 5.0,
        "coupling must close the eye: {} vs {}",
        noisy.eye_coupled_mv,
        noisy.eye_uncoupled_mv
    );
    // ...the BER record degrades by orders of magnitude...
    assert!(
        noisy.ber > quiet.ber * 1e3,
        "BER must degrade: {:.3e} vs {:.3e}",
        noisy.ber,
        quiet.ber
    );
    assert!(quiet.margin_ui > 0.0);
    // ...and mismatch instances that pass with quiet neighbors fail
    // when the aggressors switch: crosstalk-activated faults the DC
    // tier cannot see.
    assert_eq!(quiet.xtalk_activated(), 0);
    assert!(
        noisy.xtalk_activated() > 0,
        "coupling must activate at-speed failures: {noisy:?}"
    );
    assert!(noisy.failing > quiet.failing);
    assert!(
        noisy.at_speed_only() > 0,
        "some activated faults must escape the DC test: {noisy:?}"
    );
}

#[test]
fn plan_is_a_function_of_the_grid_only() {
    let farm = LinkFarm::new(FarmGrid::new(big_axes(), 11).unwrap());
    let a = farm.plan();
    let b = farm.plan();
    assert_eq!(a, b);
    assert_eq!(a.len(), farm.grid().total().div_ceil(FARM_SHARD_SIZE));
    // The seed keys each cell's instances, not the plan: a different
    // seed yields the same plan.
    let other = LinkFarm::new(FarmGrid::new(big_axes(), 12).unwrap());
    assert_eq!(other.plan(), a);
}

#[test]
fn record_bytes_matches_encoded_size() {
    let farm = LinkFarm::new(FarmGrid::new(FarmAxes::paper_point(), 1).unwrap());
    let plan = farm.plan();
    let records = farm.run_shard(&plan[0]);
    let mut out = Vec::new();
    farm.encode(&plan[0], &records, &mut out);
    assert_eq!(out.len(), records.len() * RECORD_BYTES);
}

#[test]
fn channel_work_counters_are_per_eye_and_thread_count_invariant() {
    let mut axes = big_axes();
    axes.lengths_mm = vec![4.0, 12.0];
    axes.swings_mv = vec![60.0];
    axes.sigmas_mv = vec![6.0];
    let farm = LinkFarm::new(FarmGrid::new(axes, 11).unwrap());
    let grid = farm.grid();
    // One eye per cell, plus the uncoupled eye where neighbours switch.
    let eyes: u64 = (0..grid.total())
        .map(|i| grid.cell(i))
        .map(|c| 1 + u64::from(c.coupling != 0.0 && c.aggressors() > 0))
        .sum();
    let per_eye_steps = 2 * (link::farm::BITS_PER_CELL as u64) * 8;
    for threads in [1, 2, 7] {
        let (report, metrics, _) =
            rt::obs::observe(|| farm.run(threads, &RetryPolicy::none(), None));
        assert!(report.is_complete());
        assert_eq!(
            metrics.counter("farm.channel.steps"),
            Some(eyes * per_eye_steps),
            "steps at {threads} threads"
        );
        // Both arms factor once per eye: the cache never thrashes.
        assert_eq!(
            metrics.counter("farm.channel.factorizations"),
            Some(eyes * 2),
            "factorizations at {threads} threads"
        );
        // Each eye folds its five candidate latencies (0..=4 UI).
        assert_eq!(
            metrics.counter("farm.eye.folds"),
            Some(eyes * 5),
            "eye folds at {threads} threads"
        );
    }
}
