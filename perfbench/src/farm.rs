//! `link_farm`: the tracked 1296-cell link-farm grid.
//!
//! Untraced, `LinkFarm::run(threads, …)` sweeps the grid back to back
//! after one warm-up sweep. Traced, every cell's `FarmCell::evaluate`
//! is timed one call at a time, and whole sweeps with and without a
//! checkpoint file give the executor's self time and checkpoint cost.

use std::hint::black_box;
use std::time::Instant;

use link::farm::{detect_surface_csv, eye_surface_csv, CellRecord, FarmAxes, FarmGrid, LinkFarm};
use rt::exec::{Checkpoint, ExecReport, RetryPolicy};
use rt::obs::{self, SpanEvent};
use rt::rng::Rng;

use crate::common::{finish_trace, host_timed, matches, median, ms, timed, Ctx, Report};

/// The axes of `bench --bin link_farm`: 6 × 3 × 2 × 3 × 2 × 2 × 3 =
/// 1296 cells, whose surfaces are the tracked `results/link_farm_*.csv`.
fn axes() -> FarmAxes {
    FarmAxes {
        lengths_mm: vec![2.0, 5.0, 8.0, 10.0, 14.0, 18.0],
        swings_mv: vec![40.0, 60.0, 80.0],
        segments: vec![6, 10],
        sigmas_mv: vec![0.0, 6.0, 12.0],
        rates_gbps: vec![1.0, 2.5],
        lanes: vec![1, 4],
        couplings: vec![0.0, 0.04, 0.08],
    }
}

/// Set-ups timed together as one sample (one takes about a µs).
const SETUP_BATCH: usize = 1000;

/// Set-up samples taken after each timed sweep.
const SETUP_SAMPLES: usize = 20;

/// The Monte-Carlo seed of the tracked sweep.
const GRID_SEED: u64 = 7;

fn farm() -> LinkFarm {
    LinkFarm::new(FarmGrid::new(axes(), GRID_SEED).expect("the tracked axes validate"))
}

/// CRC-32 of every record's fixed-width encoding, as hex text.
fn records_crc(records: &[CellRecord]) -> String {
    let mut bytes = Vec::with_capacity(records.len() * link::farm::RECORD_BYTES);
    for r in records {
        r.encode(&mut bytes);
    }
    format!("{:08x}\n", rt::exec::crc32(&bytes))
}

/// Checks a sweep's records: every cell present, both tracked surfaces
/// and the record bytes as expected.
fn check_records(ctx: &Ctx, farm: &LinkFarm, records: &[CellRecord], report: &mut Report) {
    let grid = farm.grid();
    let e = &ctx.expect;
    let ok = records.len() == grid.total()
        && matches(
            "eye surface",
            eye_surface_csv(grid, records).as_bytes(),
            &e.farm_eye_csv,
        )
        && matches(
            "detect surface",
            detect_surface_csv(grid, records).as_bytes(),
            &e.farm_detect_csv,
        )
        && matches(
            "farm records",
            records_crc(records).as_bytes(),
            &e.farm_records_crc,
        );
    report.check(ok, "link farm output");
}

/// Seconds per set-up: grid validation and shard plan.
fn setup_sample() -> f64 {
    timed(|| {
        for _ in 0..SETUP_BATCH {
            let farm = farm();
            black_box((&farm, farm.plan()));
        }
    })
    .1 / SETUP_BATCH as f64
}

fn check(ctx: &Ctx, farm: &LinkFarm, sweep: &ExecReport<CellRecord>, report: &mut Report) {
    if sweep.is_complete() {
        check_records(ctx, farm, &sweep.records, report);
    } else {
        report.check(false, "link farm sweep left incomplete shards");
    }
}

fn sweep(farm: &LinkFarm, threads: usize, ck: Option<&mut Checkpoint>) -> ExecReport<CellRecord> {
    farm.run(threads, &RetryPolicy::retries(2), ck)
}

pub fn run(ctx: &Ctx) -> Report {
    if ctx.trace {
        traced(ctx)
    } else {
        untraced(ctx)
    }
}

fn untraced(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut setups = vec![setup_sample()];
    let farm = farm();
    let warm = sweep(&farm, ctx.threads, None);
    check(ctx, &farm, &warm, &mut report);

    let deadline = ctx.deadline();
    let mut walls = Vec::new();
    let mut shards = std::collections::BTreeSet::new();
    while walls.len() < 5 || Instant::now() < deadline {
        let ((result, wall), metrics, _) =
            obs::observe(|| host_timed(|| sweep(&farm, ctx.threads, None)));
        check(ctx, &farm, &result, &mut report);
        shards.insert(metrics.counter("exec.shards.completed").unwrap_or(0));
        walls.push(wall);
        // Set-up samples spread over the run see the same machine state
        // as the sweeps they sit between.
        setups.extend((0..SETUP_SAMPLES).map(|_| setup_sample()));
    }
    let cells = farm.grid().total() as f64;
    report.set("setup_s", median(&setups));
    report.set("throughput_per_s", cells / median(&walls));
    report.set("p50_ms", ms(median(&walls)));
    eprintln!(
        "perfbench: {} sweeps of {cells} cells, shards per sweep {shards:?}",
        walls.len()
    );
    report
}

/// Every cell through `FarmCell::evaluate`, one timed call at a time,
/// with the per-cell seed `LinkFarm::run_shard` derives. Returns the
/// records, the busy seconds of coupled and quiet cells, and the
/// `farm.cells` counter.
fn evaluate_cells(
    farm: &LinkFarm,
    events: &mut Vec<SpanEvent>,
) -> (Vec<CellRecord>, Vec<f64>, Vec<f64>, u64) {
    let grid = farm.grid();
    let ((records, coupled, quiet), metrics, cell_events) = obs::observe(|| {
        let _span = obs::span("perfbench.evaluate_cells");
        let (mut records, mut coupled, mut quiet) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..grid.total() {
            let cell = grid.cell(i);
            let seed = Rng::seed_from_stream(grid.seed(), i as u64).next_u64();
            let (record, t) = timed(|| {
                let _s = obs::span("link.farm.evaluate");
                cell.evaluate(seed)
            });
            records.push(record);
            // A coupled cell with neighbours simulates two eyes.
            if cell.coupling != 0.0 && cell.aggressors() > 0 {
                coupled.push(t);
            } else {
                quiet.push(t);
            }
        }
        (records, coupled, quiet)
    });
    events.extend(cell_events);
    (
        records,
        coupled,
        quiet,
        metrics.counter("farm.cells").unwrap_or(0),
    )
}

fn traced(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let deadline = ctx.deadline();
    let farm = farm();
    let mut events = Vec::new();
    let ck_path = ctx.scratch("farm.ck");

    // Each round: one per-cell pass, then whole sweeps untraced, traced,
    // and traced with a checkpoint file. Self time and checkpoint cost
    // are medians of per-round differences, so drift hits both sides of
    // each alike.
    let (mut busy, mut coupled_p50, mut quiet_p50) = (Vec::new(), Vec::new(), Vec::new());
    let (mut untraced_w, mut traced_w, mut ck_w) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cells, mut shards, mut coupled_cells) = (0, 0, 0);
    while ck_w.len() < 2 || Instant::now() < deadline {
        let (records, coupled, quiet, counted) = evaluate_cells(&farm, &mut events);
        check_records(ctx, &farm, &records, &mut report);
        busy.push(coupled.iter().chain(&quiet).sum::<f64>());
        coupled_p50.push(median(&coupled));
        quiet_p50.push(median(&quiet));
        (cells, coupled_cells) = (counted, coupled.len());

        let ((result, wall), _, _) = obs::observe(|| timed(|| sweep(&farm, ctx.threads, None)));
        check(ctx, &farm, &result, &mut report);
        untraced_w.push(wall);

        let ((result, wall), m, run_events) = obs::observe(|| {
            let _s = obs::span("link.farm.run");
            timed(|| sweep(&farm, ctx.threads, None))
        });
        check(ctx, &farm, &result, &mut report);
        shards = m.counter("exec.shards.completed").unwrap_or(0);
        events.extend(run_events);
        traced_w.push(wall);

        let _ = std::fs::remove_file(&ck_path);
        let ((result, wall), _, run_events) = obs::observe(|| {
            let _s = obs::span("link.farm.run_checkpointed");
            timed(|| {
                let mut ck = Checkpoint::open(&ck_path, farm.fingerprint())
                    .expect("checkpoint file in the work dir opens");
                sweep(&farm, ctx.threads, Some(&mut ck))
            })
        });
        check(ctx, &farm, &result, &mut report);
        events.extend(run_events);
        ck_w.push(wall);
    }
    let _ = std::fs::remove_file(&ck_path);
    let threads = ctx.threads as f64;
    let per_round = |f: &dyn Fn(usize) -> f64| median(&(0..busy.len()).map(f).collect::<Vec<_>>());

    report.set("link.farm.cells", cells as f64);
    report.set("link.farm.evaluate_busy_ms", ms(median(&busy)));
    report.set(
        "link.farm.evaluate_coupled_p50_us",
        median(&coupled_p50) * 1e6,
    );
    report.set("link.farm.evaluate_quiet_p50_us", median(&quiet_p50) * 1e6);
    report.set("rt.exec.shards", shards as f64);
    report.set(
        "rt.exec.farm_self_ms",
        ms(per_round(&|i| traced_w[i] * threads - busy[i])),
    );
    report.set(
        "rt.exec.checkpoint_overhead_frac",
        per_round(&|i| ck_w[i] / traced_w[i] - 1.0),
    );
    report.set(
        "trace.overhead_frac",
        median(&traced_w) / median(&untraced_w) - 1.0,
    );
    finish_trace(ctx, &events, &mut report);
    eprintln!(
        "perfbench: {cells} cells ({coupled_cells} coupled), evaluate busy {:.0} ms, sweep {:.0} \
         ms on {} threads, {shards} shards, {} rounds",
        ms(median(&busy)),
        ms(median(&traced_w)),
        ctx.threads,
        busy.len()
    );
    report
}
