//! The paper campaign, run once: every tracked file under `results/`.
//!
//! [`run`] starts with the instrumented [`obs_pipeline`], whose
//! behavioral fault campaign at the paper's design point is the only one
//! this module runs: Table I, the coverage ladder, shipped quality, the
//! TT corner, the default-seed row, the full-scheme ablation row and the
//! 15 mV offset row all read that one [`CampaignResult`]. The other
//! artifacts (CSVs, the VCD, the test-program listing, the metrics
//! snapshot) follow, and every printed table lands in
//! `results/REPRODUCTION_REPORT.md`. All of it is deterministic and
//! tracked; only the pipeline's wall-clock Chrome trace is not.
//!
//! The paper's claims are the rows of [`dft::claims`], measured from the
//! shared campaign, the lock sweep, the Monte-Carlo sweep and the seed
//! sweep and written as the report's "Paper claims" section; a failing
//! row aborts the `reproduce` binary instead of writing a file. So do
//! the run's own checks: the reuse checks behind the shared campaign, and
//! farm and netlist completeness.

use dft::ablation::{ablated_campaign, DftOptions};
use dft::architecture::TestableLink;
use dft::campaign::{CampaignResult, FaultCampaign};
use dft::claims::{self, row_id, Claim, MISMATCH_SIGMA_MV, SEEDS};
use dft::mismatch::{MismatchResult, MonteCarlo};
use dft::multilane::TestSchedule;
use dft::overhead::{DftOverhead, Entity};
use dft::quality::quality_ladder;
use dft::test_program::TestProgram;
use link::synchronizer::{LockOutcome, RunConfig, Synchronizer};
use msim::fault::FaultKind;
use msim::params::{Corner, DesignParams};
use msim::sim::Trace;
use rt::obs::{chrome_trace_json_named, trace::default_thread_names};

use crate::obs_pipeline;
use crate::report::{markdown_table, number, percent};
use crate::Csv;

mod analog;
mod digital;

pub use digital::netlist_rows;

/// A tracked artifact: its file name under `results/` and its bytes.
pub type Artifact = (&'static str, String);

/// Comparator offsets of the DC-tier ablation, in mV (the paper's is 15).
const OFFSETS_MV: [f64; 5] = [5.0, 10.0, 15.0, 20.0, 25.0];

/// One reproduction run: the tracked artifacts and the wall-clock trace.
#[derive(Debug)]
pub struct Reproduction {
    /// Every tracked file under `results/`, byte-exact.
    pub tracked: Vec<Artifact>,
    /// The pipeline's Chrome trace (`results/obs_trace.json`, gitignored).
    pub trace: String,
}

/// Runs the whole paper campaign once.
///
/// # Panics
///
/// Panics if a claims row or a run check fails (see the module docs).
pub fn run() -> Reproduction {
    let obs = obs_pipeline::instrumented_run(rt::par::threads());
    let trace = chrome_trace_json_named(
        &obs.events,
        "reproduce pipeline",
        &default_thread_names(&obs.events),
    );
    let p = DesignParams::paper();
    let paper = &obs.campaign;
    let locks = claims::lock_sweep(&p);
    let mismatch_sweep = MonteCarlo::sweep(
        &p,
        &[1.0, 2.0, MISMATCH_SIGMA_MV, 5.0, 7.5, 10.0, 15.0],
        claims::MISMATCH_TRIALS,
    );
    let seed_runs = claims::seed_sweep(&p, paper);
    let rows = claims::claims(&p, paper, &locks, &mismatch_sweep, &seed_runs);
    let failed = claims::failing(&rows);
    assert!(failed.is_empty(), "paper claims fail: {failed:#?}");
    let (fig2_csv, fig2_vcd) = fig2(&p);
    let (farm_section, farm_eye, farm_detect) = analog::link_farm();
    let (bathtub_section, bathtub_csv) = analog::bathtub();

    let sections = [
        ladder(&rows, paper),
        table1(&rows, paper),
        table2(&rows),
        lock_section(&p, &rows, &locks),
        tier_sets(paper),
        fig1(),
        digital::coverage(),
        shipped_quality(paper),
        corners(paper),
        seeds(&rows, &seed_runs),
        offsets(paper),
        dft_elements(&p, paper),
        analog::fine_loop(&p),
        analog::background_tracking(&p),
        bathtub_section,
        analog::crosstalk(),
        analog::dll_bist(),
        multilane(&p),
        analog::power(&p),
        farm_section,
        claims_section(&rows),
    ];
    let report = format!(
        "# Reproduction report\n\n\
         Kadayinti & Sharma, *Testable Design of Repeaterless Low Swing\n\
         On-Chip Interconnect*, DATE 2016. Generated by\n\
         `cargo run -p bench --release --offline --bin reproduce`.\n\n{}",
        sections.join("\n")
    );

    let tracked = vec![
        ("metrics.json", obs.metrics.to_json()),
        ("REPRODUCTION_REPORT.md", report),
        ("table1_fault_coverage.csv", table1_csv(&rows, paper)),
        ("bist_lock_time.csv", lock_csv(&p, &locks)),
        ("fig2_lock_acquisition.csv", fig2_csv),
        ("fig2_lock_acquisition.vcd", fig2_vcd),
        ("bathtub.csv", bathtub_csv),
        ("eye_ablation.csv", analog::eye_ablation()),
        ("mismatch_monte_carlo.csv", mismatch_csv(&mismatch_sweep)),
        ("link_farm_eye.csv", farm_eye),
        ("link_farm_detect.csv", farm_detect),
        ("fuzz_coverage.csv", digital::fuzz_coverage()),
        ("netlist_campaign.csv", digital::netlist_csv()),
        ("test_program.txt", TestProgram::paper(&p).render()),
    ];
    Reproduction { tracked, trace }
}

/// A report section: `## title`, a blank line, then `body`.
fn section(title: &str, body: &str) -> String {
    format!("## {title}\n\n{body}")
}

/// The behavioral campaign at `p`: the shared paper result when `p` is
/// the paper's design point, a fresh run otherwise.
fn campaign_at(p: &DesignParams, paper: &CampaignResult) -> CampaignResult {
    if *p == DesignParams::paper() {
        paper.clone()
    } else {
        FaultCampaign::new(p).run()
    }
}

/// Claims row `id`.
fn row<'a>(claims: &'a [Claim], id: &str) -> &'a Claim {
    claims
        .iter()
        .find(|c| c.id == id)
        .unwrap_or_else(|| panic!("no claims row {id}"))
}

/// The paper value of claims row `id`.
fn paper_value(claims: &[Claim], id: &str) -> f64 {
    row(claims, id)
        .paper
        .unwrap_or_else(|| panic!("claims row {id} has no paper value"))
}

fn ladder(claims: &[Claim], paper: &CampaignResult) -> String {
    let rows: Vec<Vec<String>> = [
        ("DC test", "ladder.dc"),
        ("+ scan", "ladder.dc_scan"),
        ("+ BIST", "ladder.total"),
    ]
    .iter()
    .zip(ladder_cells(paper))
    .map(|(&(tier, id), m)| vec![tier.to_string(), percent(paper_value(claims, id)), m])
    .collect();
    section(
        "Section IV coverage ladder",
        &markdown_table(&["tier", "paper", "measured"], &rows),
    )
}

fn detected(r: &CampaignResult) -> usize {
    r.total() - r.undetected().len()
}

fn table1(claims: &[Claim], paper: &CampaignResult) -> String {
    let mut rows: Vec<Vec<String>> = FaultKind::ALL
        .iter()
        .map(|&kind| {
            let (total, detected) = paper.by_kind(kind);
            vec![
                kind.label().to_string(),
                percent(paper_value(claims, &row_id("table1", kind.label()))),
                percent(paper.coverage_of_kind(kind)),
                format!("{detected}/{total}"),
            ]
        })
        .collect();
    rows.push(vec![
        "**Total**".into(),
        format!("**{}**", percent(paper_value(claims, "ladder.total"))),
        format!("**{}**", percent(paper.coverage_total())),
        format!("{}/{}", detected(paper), paper.total()),
    ]);
    let table = markdown_table(&["defect", "paper", "measured", "detected/total"], &rows);
    section("Table I — coverage by fault type", &table)
}

fn table1_csv(claims: &[Claim], paper: &CampaignResult) -> String {
    let mut csv = Csv::new(&["defect", "paper", "measured", "detected", "total"]);
    for kind in FaultKind::ALL {
        let (total, detected) = paper.by_kind(kind);
        csv.row(&[
            kind.label().to_string(),
            format!(
                "{:.3}",
                paper_value(claims, &row_id("table1", kind.label()))
            ),
            format!("{:.3}", paper.coverage_of_kind(kind)),
            detected.to_string(),
            total.to_string(),
        ]);
    }
    csv.row(&[
        "Total".to_string(),
        format!("{:.3}", paper_value(claims, "ladder.total")),
        format!("{:.3}", paper.coverage_total()),
        detected(paper).to_string(),
        paper.total().to_string(),
    ]);
    csv.as_str().to_string()
}

fn table2(claims: &[Claim]) -> String {
    let rows: Vec<Vec<String>> = Entity::ALL
        .iter()
        .map(|e| {
            let id = row_id("table2", e.label());
            let cells = [paper_value(claims, &id), row(claims, &id).measured];
            let mut row = vec![e.label().to_string()];
            row.extend(cells.map(number));
            row
        })
        .collect();
    section(
        "Table II — DFT overhead",
        &markdown_table(&["entity", "paper", "measured"], &rows),
    )
}

/// Lock cycles of a run (`u64::MAX` if it never locked).
fn lock_cycles(o: &LockOutcome) -> u64 {
    o.lock_cycle.unwrap_or(u64::MAX)
}

/// Worst lock cycles and worst correction count over a sweep.
fn worst_lock(outcomes: &[LockOutcome]) -> (u64, u64) {
    outcomes.iter().fold((0, 0), |(c, k), o| {
        (c.max(lock_cycles(o)), k.max(o.corrections))
    })
}

fn lock_section(p: &DesignParams, claims: &[Claim], outcomes: &[LockOutcome]) -> String {
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .enumerate()
        .map(|(phase0, o)| {
            vec![
                format!("φ{phase0}"),
                lock_cycles(o).to_string(),
                format!("{:.2}", lock_cycles(o) as f64 * p.ui().us()),
                o.corrections.to_string(),
            ]
        })
        .collect();
    let (cycles, corrections) = worst_lock(outcomes);
    let body = format!(
        "{}\nWorst case {} cycles ({:.2} µs) and {} corrections against the\n\
         paper's {}-cycle ({} µs) budget and half-the-phases ({}) bound.\n",
        markdown_table(
            &["start phase", "lock cycles", "lock µs", "corrections"],
            &rows
        ),
        cycles,
        cycles as f64 * p.ui().us(),
        corrections,
        p.bist_lock_budget,
        paper_value(claims, "lock.budget"),
        p.dll_phases / 2
    );
    section("Fig. 2 / §III — lock acquisition", &body)
}

fn lock_csv(p: &DesignParams, outcomes: &[LockOutcome]) -> String {
    let mut csv = Csv::new(&[
        "initial_phase",
        "lock_cycles",
        "lock_us",
        "corrections",
        "locked",
    ]);
    for (phase0, o) in outcomes.iter().enumerate() {
        csv.row(&[
            phase0.to_string(),
            lock_cycles(o).to_string(),
            format!("{:.3}", lock_cycles(o) as f64 * p.ui().us()),
            o.corrections.to_string(),
            o.locked.to_string(),
        ]);
    }
    csv.as_str().to_string()
}

fn tier_sets(paper: &CampaignResult) -> String {
    let body = format!(
        "scan-only {}, BIST-only {}, both {} — intersecting, neither a\nsubset, as the paper states.\n",
        paper.scan_only().len(),
        paper.bist_only().len(),
        paper.scan_and_bist().len()
    );
    section("§I tier-set relations", &body)
}

/// Fig. 2's `Vc`/phase trace from startup to lock, as CSV and VCD.
fn fig2(p: &DesignParams) -> (String, String) {
    let mut trace = Trace::new(p.ui());
    Synchronizer::new(p).run(&RunConfig::paper_bist(), Some(&mut trace));
    (trace.to_csv(), msim::vcd::to_vcd(&trace, "synchronizer"))
}

/// Fig. 1: block inventory, scan chains and the itemized Table II
/// overhead, plus the Fig. 5 comparator netlist.
fn fig1() -> String {
    let link = TestableLink::paper();
    let d = link.params();
    let items: Vec<Vec<&str>> = DftOverhead::paper()
        .items()
        .iter()
        .map(|i| vec![i.entity.label(), i.name, i.purpose])
        .collect();
    let body = format!(
        "Design point: {} supply, {} differential swing, {} data rate,\n\
         {}-phase DLL, scan clock {}, BIST budget {} cycles; structural\n\
         fault universe {} faults.\n\n```text\n{}```\n\n{}\n\
         Fig. 5 DC-test comparator (SPICE-style export):\n\n```text\n{}```\n",
        d.supply,
        d.swing,
        d.data_rate,
        d.dll_phases,
        d.scan_clock,
        d.bist_lock_budget,
        link.fault_universe().len(),
        link.inventory(),
        markdown_table(&["entity", "instance", "purpose"], &items),
        link::netlists::dc_test_comparator().to_spice()
    );
    section("Fig. 1 — architecture and DFT inventory", &body)
}

fn shipped_quality(paper: &CampaignResult) -> String {
    let yields = [0.95, 0.90, 0.80];
    let ladders: Vec<_> = yields.iter().map(|&y| quality_ladder(paper, y)).collect();
    let rows: Vec<Vec<String>> = (0..ladders[0].len())
        .map(|i| {
            let mut row = vec![
                ladders[0][i].tier.to_string(),
                percent(ladders[0][i].coverage),
            ];
            row.extend(ladders.iter().map(|l| format!("{:.0}", l[i].dppm)));
            row
        })
        .collect();
    let body = format!(
        "Williams-Brown shipped defects (DPPM) per test tier at three\n\
         process yields: each tier of the paper's flow cuts shipped\n\
         defects by an integer factor.\n\n{}",
        markdown_table(
            &[
                "flow",
                "coverage",
                "DPPM at 95 %",
                "DPPM at 90 %",
                "DPPM at 80 %"
            ],
            &rows
        )
    );
    section("Shipped quality", &body)
}

fn ladder_cells(r: &CampaignResult) -> [String; 3] {
    [
        percent(r.coverage_dc()),
        percent(r.coverage_dc_scan()),
        percent(r.coverage_total()),
    ]
}

fn corners(paper: &CampaignResult) -> String {
    let rows: Vec<Vec<String>> = Corner::ALL
        .iter()
        .map(|&corner| {
            let p = DesignParams::at_corner(corner);
            let lock = Synchronizer::new(&p).run(&RunConfig::paper_bist(), None);
            let mut row = vec![corner.label().to_string()];
            row.extend(ladder_cells(&campaign_at(&p, paper)));
            row.push(lock.lock_cycle.map_or("none".into(), |c| c.to_string()));
            row.push(lock.corrections.to_string());
            row
        })
        .collect();
    let body = format!(
        "The ladder and lock at SS/TT/FF device strength (charge-pump\n\
         currents and VCDL range scaled ±20 %).\n\n{}",
        markdown_table(
            &[
                "corner",
                "DC",
                "DC+scan",
                "total",
                "lock cycles",
                "corrections"
            ],
            &rows
        )
    );
    section("Process corners", &body)
}

fn seeds(claims: &[Claim], results: &[CampaignResult]) -> String {
    assert_eq!(
        RunConfig::paper_bist().seed,
        SEEDS[0],
        "the default-seed row must be the paper campaign"
    );
    let rows: Vec<Vec<String>> = SEEDS
        .iter()
        .zip(results)
        .map(|(seed, r)| {
            let mut row = vec![format!("{seed:#x}")];
            row.extend(ladder_cells(r));
            row
        })
        .collect();
    let body = format!(
        "The ladder re-decided with other PRBS seeds for the BIST data\n\
         ({:#x} is the paper's). The DC and scan tiers are deterministic by\n\
         construction.\n\n{}\nTotal-coverage spread across seeds: {:.2} points.\n",
        SEEDS[0],
        markdown_table(&["seed", "DC", "DC+scan", "total"], &rows),
        row(claims, "seeds.spread").measured * 100.0
    );
    section("BIST data seeds", &body)
}

fn offsets(paper: &CampaignResult) -> String {
    let rows: Vec<Vec<String>> = OFFSETS_MV
        .iter()
        .map(|&mv| {
            let mut p = DesignParams::paper();
            p.cmp_offset = msim::units::Volt::from_mv(mv);
            let r = campaign_at(&p, paper);
            let marker = if p == DesignParams::paper() {
                " (paper)"
            } else {
                ""
            };
            vec![
                format!("{mv} mV{marker}"),
                percent(r.coverage_dc()),
                percent(r.coverage_total()),
            ]
        })
        .collect();
    let body = format!(
        "DC-tier sensitivity to the programmed comparator offset. Smaller\n\
         offsets leave less margin against the healthy 30 mV input; larger\n\
         ones let more erosion faults through.\n\n{}",
        markdown_table(&["offset", "DC", "total"], &rows)
    );
    section("Comparator offset sweep", &body)
}

fn dft_elements(p: &DesignParams, paper: &CampaignResult) -> String {
    let without = |edit: fn(&mut DftOptions)| {
        let mut o = DftOptions::all();
        edit(&mut o);
        o
    };
    let cases: [(&str, DftOptions); 5] = [
        ("full scheme (paper)", DftOptions::all()),
        (
            "- CP-BIST window comparator",
            without(|o| o.cp_bist_comparator = false),
        ),
        (
            "- 100 MHz window comparators",
            without(|o| o.dynamic_window = false),
        ),
        (
            "- retimed-data BIST check",
            without(|o| o.bist_data_check = false),
        ),
        ("- FFE-plate probe FFs", without(|o| o.probe_ffs = false)),
    ];
    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|&(name, options)| {
            // The full scheme is the paper campaign (pinned by the
            // ablation module's own tests).
            let r = if options == DftOptions::all() {
                paper.clone()
            } else {
                ablated_campaign(p, options)
            };
            let cost = (paper.coverage_total() - r.coverage_total()) * 100.0;
            vec![
                name.to_string(),
                percent(r.coverage_dc_scan()),
                percent(r.coverage_total()),
                if cost.abs() < 0.005 {
                    "—".to_string()
                } else {
                    format!("-{cost:.1} pts")
                },
            ]
        })
        .collect();
    let body = format!(
        "Coverage cost of removing each DFT observation element of\n\
         Table II. The probe flip-flops cost no detection: their value is\n\
         diagnostic (chain-A capture per capacitor plate).\n\n{}",
        markdown_table(&["scheme", "DC+scan", "total", "cost"], &rows)
    );
    section("DFT element ablation", &body)
}

fn mismatch_csv(sweep: &[(f64, MismatchResult)]) -> String {
    let mut csv = Csv::new(&["sigma_mv", "false_failure_rate", "escape_rate"]);
    for (sigma, r) in sweep {
        csv.row(&[
            sigma.to_string(),
            format!("{:.6}", r.false_failure_rate()),
            format!("{:.6}", r.escape_rate()),
        ]);
    }
    csv.as_str().to_string()
}

fn multilane(p: &DesignParams) -> String {
    let rows: Vec<Vec<String>> = [1usize, 4, 16, 64, 256]
        .iter()
        .map(|&lanes| {
            let serial = TestSchedule::new(p, lanes, false);
            let parallel = TestSchedule::new(p, lanes, true);
            let mut row = vec![lanes.to_string()];
            row.extend(
                [
                    serial.dc_time(),
                    serial.scan_time(),
                    parallel.scan_time(),
                    serial.bist_time(),
                    serial.total(),
                    parallel.total(),
                ]
                .iter()
                .map(|t| format!("{:.1} us", t.us())),
            );
            row
        })
        .collect();
    let body = format!(
        "Test time of the DC → scan → BIST flow per chip. The BIST column\n\
         is flat: every lane locks autonomously, so scan time is the axis\n\
         that needs pin-parallelism.\n\n{}",
        markdown_table(
            &[
                "lanes",
                "DC",
                "scan (daisy)",
                "scan (par. pins)",
                "BIST",
                "total (daisy)",
                "total (par.)"
            ],
            &rows
        )
    );
    section("Multi-lane test time", &body)
}

/// The claims table: every row with its paper value, measured value,
/// bound and the reason for the bound. A run that writes it has checked
/// every row.
fn claims_section(claims: &[Claim]) -> String {
    let rows: Vec<Vec<String>> = claims
        .iter()
        .map(|c| {
            vec![
                format!("`{}`", c.id),
                c.section.to_string(),
                c.quote.to_string(),
                c.paper.map_or("—".to_string(), number),
                number(c.measured),
                c.how.to_string(),
                c.bound.to_string(),
                c.reason.to_string(),
            ]
        })
        .collect();
    let body = format!(
        "Every claim checked against the paper, one row each (`dft::claims`).\n\
         Coverages are fractions (0.5 is 50 %); `reproduce` aborts if a\n\
         row breaks its bound.\n\n{}",
        markdown_table(
            &["row", "§", "claim", "paper", "measured", "how", "bound", "reason"],
            &rows
        )
    );
    section("Paper claims", &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One observed reproduction run shared by the tests below: its
    /// artifacts and the metrics recorded *outside* the pipeline's own
    /// capture.
    fn observed() -> &'static (Vec<Artifact>, rt::obs::Metrics) {
        static RUN: OnceLock<(Vec<Artifact>, rt::obs::Metrics)> = OnceLock::new();
        RUN.get_or_init(|| {
            let (tracked, metrics, _) = rt::obs::observe(|| run().tracked);
            (tracked, metrics)
        })
    }

    #[test]
    fn artifacts_match_tracked_results() {
        // Golden-file test: every tracked file under results/ is exactly
        // what a reproduction run writes. Regenerate with
        // scripts/regen_results.sh after intentionally changing a number.
        let dir = crate::results_dir().unwrap();
        for (name, contents) in &observed().0 {
            let path = dir.join(name);
            let on_disk = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("tracked {} unreadable: {e}", path.display()));
            assert!(
                *contents == on_disk,
                "results/{name} is stale — run scripts/regen_results.sh"
            );
        }
    }

    #[test]
    fn paper_campaign_runs_once() {
        // The pipeline's capture holds the paper campaign; everything
        // else a run simulates through `FaultCampaign` is one of the
        // other corners or offsets, never the paper's design point again.
        let faults = FaultCampaign::new(&DesignParams::paper()).universe().len() as u64;
        let other_points = (Corner::ALL.len() - 1 + OFFSETS_MV.len() - 1) as u64;
        assert_eq!(
            observed().1.counter("campaign.fault.simulated"),
            Some(other_points * faults)
        );
    }
}
