//! `fault_campaign`: the paper's 603-fault behavioural campaign.
//!
//! Untraced, `FaultCampaign::run_on(threads)` runs back to back after
//! one warm-up run. Traced, the same campaign is decomposed from
//! outside: every fault goes through `resolve_effect` and the DC, scan
//! and BIST tiers one call at a time, and `run_on(1)` / `run_on(threads)`
//! give the campaign's own overhead (self time) and the parallel speed-up.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use dft::bist::Bist;
use dft::campaign::{CampaignResult, FaultCampaign};
use dft::dc_test::DcTest;
use dft::scan_test::ScanTest;
use msim::effects::resolve_effect;
use msim::fault::FaultKind;
use msim::params::DesignParams;
use rt::obs::{self, SpanEvent};

use crate::common::{finish_trace, host_timed, matches, median, ms, timed, Ctx, Report};

/// Table I's paper column, in `FaultKind::ALL` order.
const PAPER_TABLE1: [(&str, f64); 7] = [
    ("Gate open", 0.878),
    ("Drain open", 0.939),
    ("Source open", 0.939),
    ("Gate drain short", 0.939),
    ("Gate source short", 1.0),
    ("Drain source short", 1.0),
    ("Capacitor short", 1.0),
];

/// The paper's Section IV coverage ladder.
const PAPER_LADDER: [(&str, f64); 3] = [("DC", 0.504), ("+scan", 0.743), ("+BIST", 0.948)];

/// One digit per fault in universe order: `dc | scan << 1 | bist << 2`.
fn flags(result: &CampaignResult) -> String {
    let mut out: String = result
        .records()
        .iter()
        .map(|r| {
            char::from(b'0' + (u8::from(r.dc) | u8::from(r.scan) << 1 | u8::from(r.bist) << 2))
        })
        .collect();
    out.push('\n');
    out
}

/// Table I as `bench --bin table1_fault_coverage` writes it.
fn table1_csv(result: &CampaignResult) -> String {
    let mut out = String::from("defect,paper,measured,detected,total\n");
    for (kind, (label, paper)) in FaultKind::ALL.iter().zip(PAPER_TABLE1) {
        let (total, detected) = result.by_kind(*kind);
        out.push_str(&format!(
            "{label},{paper:.3},{:.3},{detected},{total}\n",
            result.coverage_of_kind(*kind)
        ));
    }
    out.push_str(&format!(
        "Total,0.948,{:.3},{},{}\n",
        result.coverage_total(),
        result.total() - result.undetected().len(),
        result.total()
    ));
    out
}

/// Checks one campaign's records against the expected flags and Table I.
fn check(ctx: &Ctx, result: &CampaignResult, report: &mut Report) {
    let ok = result.is_complete()
        && matches(
            "fault flags",
            flags(result).as_bytes(),
            &ctx.expect.fault_flags,
        )
        && matches(
            "Table I",
            table1_csv(result).as_bytes(),
            &ctx.expect.table1_csv,
        );
    report.check(ok, "fault campaign output");
}

/// The model's error against the paper, the only reference it has.
fn print_accuracy(result: &CampaignResult) {
    let measured = [
        result.coverage_dc(),
        result.coverage_dc_scan(),
        result.coverage_total(),
    ];
    let ladder: Vec<String> = PAPER_LADDER
        .iter()
        .zip(measured)
        .map(|((tier, paper), got)| {
            format!(
                "{tier} {:.1} % (paper {:.1} %, {:+.1} pp)",
                got * 100.0,
                paper * 100.0,
                (got - paper) * 100.0
            )
        })
        .collect();
    eprintln!("perfbench: coverage ladder: {}", ladder.join(", "));
}

/// Set-ups timed together as one sample (one takes tens of µs).
const SETUP_BATCH: usize = 20;

/// Set-up samples taken after each timed campaign.
const SETUP_SAMPLES: usize = 5;

/// Seconds per set-up: design point, universe and the three tiers.
fn setup_sample() -> f64 {
    timed(|| {
        for _ in 0..SETUP_BATCH {
            let p = DesignParams::paper();
            let campaign = FaultCampaign::new(&p);
            let universe = campaign.universe();
            let tiers = (DcTest::new(&p), ScanTest::new(&p), Bist::new(&p));
            black_box((&campaign, &universe, &tiers));
        }
    })
    .1 / SETUP_BATCH as f64
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
    let campaign = FaultCampaign::new(&DesignParams::paper());
    let warm = campaign.run_on(ctx.threads);
    check(ctx, &warm, &mut report);
    print_accuracy(&warm);

    let deadline = ctx.deadline();
    let mut walls = Vec::new();
    let mut bist_executions = BTreeSet::new();
    while walls.len() < 5 || Instant::now() < deadline {
        let ((result, wall), metrics, _) =
            obs::observe(|| host_timed(|| campaign.run_on(ctx.threads)));
        check(ctx, &result, &mut report);
        bist_executions.insert(metrics.counter("bist.executions").unwrap_or(0));
        walls.push(wall);
        // Set-up samples spread over the run see the same machine state
        // as the campaigns they sit between.
        setups.extend((0..SETUP_SAMPLES).map(|_| setup_sample()));
    }
    let faults = warm.total() as f64;
    report.set("setup_s", median(&setups));
    report.set("throughput_per_s", faults / median(&walls));
    report.set("p50_ms", ms(median(&walls)));
    eprintln!(
        "perfbench: {} campaigns of {faults} faults, bist.executions per campaign {:?}",
        walls.len(),
        bist_executions
    );
    report
}

/// Busy seconds per layer in one decomposed pass over the universe.
#[derive(Default, Clone, Copy)]
struct Busy {
    resolve: f64,
    dc: f64,
    scan: f64,
    bist: f64,
}

impl Busy {
    fn total(&self) -> f64 {
        self.resolve + self.dc + self.scan + self.bist
    }
}

/// One pass of the campaign decomposed into per-fault calls, each
/// wrapped in a span and timed. Returns the busy time per layer, the
/// flags it produced, the distinct effects, and the BIST executions.
fn decompose(p: &DesignParams, events: &mut Vec<SpanEvent>) -> (Busy, String, usize, u64) {
    let campaign = FaultCampaign::new(p);
    let universe = campaign.universe();
    let (dc, scan, bist) = (DcTest::new(p), ScanTest::new(p), Bist::new(p));
    let (pass, metrics, pass_events) = obs::observe(|| {
        let _span = obs::span("perfbench.decompose");
        let mut busy = Busy::default();
        let mut flags = String::with_capacity(universe.len() + 1);
        let mut effects = BTreeSet::new();
        for fault in universe.iter() {
            let (effect, t) = timed(|| {
                let _s = obs::span("msim.resolve_effect");
                resolve_effect(fault, p)
            });
            busy.resolve += t;
            let (d, t) = timed(|| {
                let _s = obs::span("dft.dc_test.detects");
                dc.detects(&effect)
            });
            busy.dc += t;
            let (s, t) = timed(|| {
                let _s = obs::span("dft.scan_test.detects");
                scan.detects(&effect)
            });
            busy.scan += t;
            let (b, t) = timed(|| {
                let _s = obs::span("dft.bist.detects");
                bist.detects(&effect)
            });
            busy.bist += t;
            flags.push(char::from(
                b'0' + (u8::from(d) | u8::from(s) << 1 | u8::from(b) << 2),
            ));
            effects.insert(format!("{effect:?}"));
        }
        flags.push('\n');
        (busy, flags, effects.len())
    });
    events.extend(pass_events);
    let (busy, flags, distinct) = pass;
    (
        busy,
        flags,
        distinct,
        metrics.counter("bist.executions").unwrap_or(0),
    )
}

fn traced(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let deadline = ctx.deadline();
    let p = DesignParams::paper();
    let campaign = FaultCampaign::new(&p);
    let mut events = Vec::new();

    let mut enumerate = Vec::new();
    let ((), _, enum_events) = obs::observe(|| {
        for _ in 0..20 {
            enumerate.push(
                timed(|| {
                    let _s = obs::span("msim.fault.universe");
                    black_box(campaign.universe())
                })
                .1,
            );
        }
    });
    events.extend(enum_events);
    let faults = campaign.universe().len() as f64;

    // Each round pairs one decomposed pass with whole campaigns
    // (traced at 1 and `threads`, untraced at `threads`). Shares and
    // self time are medians of per-round differences and ratios, so
    // machine drift hits both sides of each alike; the counts come from
    // one pass and repeat exactly.
    let mut passes = Vec::new();
    let mut distinct = 0;
    let mut decomposed_executions = 0;
    let (mut untraced_n, mut traced_1, mut traced_n) = (Vec::new(), Vec::new(), Vec::new());
    let mut counters = obs::Metrics::new();
    while traced_n.len() < 3 || Instant::now() < deadline {
        let (busy, got, d, execs) = decompose(&p, &mut events);
        report.check(
            matches(
                "decomposed fault flags",
                got.as_bytes(),
                &ctx.expect.fault_flags,
            ),
            "decomposed campaign reproduces the campaign's records",
        );
        passes.push(busy);
        distinct = d;
        decomposed_executions = execs;
        let ((result, wall), _, _) = obs::observe(|| timed(|| campaign.run_on(ctx.threads)));
        check(ctx, &result, &mut report);
        untraced_n.push(wall);
        for (threads, walls) in [(1, &mut traced_1), (ctx.threads, &mut traced_n)] {
            let ((result, wall), metrics, run_events) = obs::observe(|| {
                let _s = obs::span(format!("dft.campaign.run_on.{threads}"));
                timed(|| campaign.run_on(threads))
            });
            check(ctx, &result, &mut report);
            events.extend(run_events);
            walls.push(wall);
            if threads == ctx.threads {
                counters = metrics;
            }
        }
    }
    let layer = |f: fn(&Busy) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let (w1, wn) = (median(&traced_1), median(&traced_n));
    let bist_busy = layer(|b| b.bist);
    let paired = |f: &dyn Fn(&Busy, f64) -> f64| {
        median(
            &passes
                .iter()
                .zip(&traced_1)
                .map(|(b, &w)| f(b, w))
                .collect::<Vec<_>>(),
        )
    };
    // Work counts of the campaign itself, read from its own counters.
    let counter = |name: &str| counters.counter(name).unwrap_or(0) as f64;
    let (simulated, bist_executions) = (
        counter("campaign.fault.simulated"),
        counter("bist.executions"),
    );
    let shards = counter("exec.shards.completed");

    report.set("msim.fault.enumerate_ms", ms(median(&enumerate)));
    report.set("msim.resolve_effect.calls", faults);
    report.set("msim.resolve_effect.busy_ms", ms(layer(|b| b.resolve)));
    report.set("dft.dc_test.calls", faults);
    report.set("dft.dc_test.busy_ms", ms(layer(|b| b.dc)));
    report.set("dft.scan_test.calls", faults);
    report.set("dft.scan_test.busy_ms", ms(layer(|b| b.scan)));
    report.set("dft.campaign.faults_simulated", simulated);
    report.set("dft.bist.executions", bist_executions);
    report.set("dft.bist.busy_ms", ms(bist_busy));
    report.set(
        "dft.bist.us_per_execution",
        bist_busy * 1e6 / decomposed_executions.max(1) as f64,
    );
    report.set(
        "dft.bist.distinct_effect_ratio",
        distinct as f64 / simulated.max(1.0),
    );
    report.set("dft.bist.campaign_share", paired(&|b, w| b.bist / w));
    report.set("dft.campaign.self_ms", ms(paired(&|b, w| w - b.total())));
    report.set("rt.exec.shards", shards);
    report.set("rt.par.speedup", w1 / wn);
    report.set("trace.overhead_frac", wn / median(&untraced_n) - 1.0);
    finish_trace(ctx, &events, &mut report);
    eprintln!(
        "perfbench: {faults} faults -> {distinct} distinct effects, {bist_executions} BIST \
         executions, {shards} shards; run_on(1) {:.1} ms, run_on({}) {:.1} ms, BIST {:.1} % \
         of run_on(1)",
        ms(w1),
        ctx.threads,
        ms(wn),
        100.0 * paired(&|b, w| b.bist / w)
    );
    report
}
