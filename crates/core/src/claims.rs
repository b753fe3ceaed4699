//! The paper's claims as one table: each claim is checked once, against
//! one stated bound.
//!
//! A [`Claim`] row holds an id, the paper section, the quoted claim, the
//! paper value, how the measured value is found, the measured value, and
//! a [`Bound`] with the reason for it. [`claims`] measures every row from
//! the paper campaign, the [`lock_sweep`], a Monte-Carlo mismatch sweep
//! and the [`seed_sweep`]; [`failing`] returns the rows that break their
//! bound. `reproduce` renders the table as the report's "Paper claims"
//! section and aborts on a failing row, and `tests/paper_claims.rs`
//! checks the same rows. This module is the only place that holds the
//! paper's numbers: the ladder, the Table I and II columns, the lock
//! budget and correction bound, and the seed and mismatch bounds.

use std::fmt;

use link::synchronizer::{LockOutcome, RunConfig, Synchronizer};
use msim::effects::{resolve_effect, AnalogEffect};
use msim::fault::{FaultKind, MosFault};
use msim::netlist::{BlockKind, DeviceRole};
use msim::params::DesignParams;

use crate::architecture::TestableLink;
use crate::bist::Bist;
use crate::campaign::{CampaignResult, EffectClasses, FaultCampaign, TierVerdict};
use crate::dc_test::DcTest;
use crate::mismatch::MismatchResult;
use crate::overhead::{DftOverhead, Entity};
use crate::scan_test::ScanTest;

/// BIST data seeds of the seed sweep; the first is the paper's.
pub const SEEDS: [u64; 5] = [0x1057, 1, 42, 2016, 0xDEAD];

/// Comparator mismatch σ, in mV, at which no healthy die may false-fail.
pub const MISMATCH_SIGMA_MV: f64 = 3.0;

/// Virtual dies per point of the Monte-Carlo mismatch sweep.
pub const MISMATCH_TRIALS: usize = 20_000;

/// §IV ladder rows: id, quote, paper value and band.
const LADDER: [(&str, &str, f64, Bound); 3] = [
    (
        "dc",
        "two DC tests ... can detect 50.4% of the structural faults",
        0.504,
        Bound::Band(0.45, 0.57),
    ),
    (
        "dc_scan",
        "Scan test ... enhances the coverage to 74.3%",
        0.743,
        Bound::Band(0.70, 0.82),
    ),
    (
        "total",
        "BIST ... improves the fault coverage to 94.8%",
        0.948,
        Bound::Band(0.92, 0.97),
    ),
];

/// Table I paper coverage and bound per [`FaultKind::ALL`] row.
const TABLE1: [(f64, Bound); 7] = [
    (0.878, Bound::Band(0.82, 0.92)),
    (0.939, Bound::Band(0.90, 1.0)),
    (0.939, Bound::Band(0.90, 1.0)),
    (0.939, Bound::Band(0.90, 1.0)),
    (1.0, Bound::Exactly(1.0)),
    (1.0, Bound::Exactly(1.0)),
    (1.0, Bound::Exactly(1.0)),
];

/// Table II paper count per [`Entity::ALL`] row.
const TABLE2: [usize; 8] = [7, 4, 2, 1, 2, 1, 2, 6];

/// The relation a measured value must keep to its bound.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// `lo <= measured < hi`.
    Band(f64, f64),
    /// `measured == value`.
    Exactly(f64),
    /// `measured <= max`.
    AtMost(f64),
    /// `measured > min`.
    Above(f64),
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Band(lo, hi) => write!(f, "[{lo}, {hi})"),
            Bound::Exactly(v) => write!(f, "= {v}"),
            Bound::AtMost(max) => write!(f, "≤ {max}"),
            Bound::Above(min) => write!(f, "> {min}"),
        }
    }
}

/// One paper claim, its measured value and the bound between them.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Stable row id, `group.name`.
    pub id: String,
    /// Where the paper makes the claim.
    pub section: &'static str,
    /// The claim, quoted or paraphrased from the paper.
    pub quote: &'static str,
    /// The paper's own value, when it states one.
    pub paper: Option<f64>,
    /// How the measured value is found.
    pub how: &'static str,
    /// The measured value.
    pub measured: f64,
    /// The relation `measured` must keep.
    pub bound: Bound,
    /// Why the bound is where it is.
    pub reason: &'static str,
}

impl Claim {
    /// Whether the measured value keeps its bound (NaN never does).
    pub fn holds(&self) -> bool {
        let m = self.measured;
        match self.bound {
            Bound::Band(lo, hi) => lo <= m && m < hi,
            Bound::Exactly(v) => m == v,
            Bound::AtMost(max) => m <= max,
            Bound::Above(min) => m > min,
        }
    }
}

/// Row id of a table row: `group.`, then the label's lowercase words
/// joined by `_` (`table1.gate_open`).
pub fn row_id(group: &str, label: &str) -> String {
    let words: Vec<String> = label
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_lowercase)
        .collect();
    format!("{group}.{}", words.join("_"))
}

/// The healthy link's lock from every initial DLL phase (Fig. 2, §III).
pub fn lock_sweep(p: &DesignParams) -> Vec<LockOutcome> {
    (0..p.dll_phases)
        .map(|phase0| {
            Synchronizer::new(p)
                .with_initial_phase(phase0)
                .run(&RunConfig::paper_bist(), None)
        })
        .collect()
}

/// The campaign re-decided with the BIST driven by each of [`SEEDS`]:
/// the shared `paper` result for the paper's own seed, the same effect
/// classes through a re-seeded BIST otherwise.
pub fn seed_sweep(p: &DesignParams, paper: &CampaignResult) -> Vec<CampaignResult> {
    let (dc, scan) = (DcTest::new(p), ScanTest::new(p));
    let universe = FaultCampaign::new(p).universe();
    let classes = EffectClasses::of(&universe, p);
    SEEDS
        .iter()
        .map(|&seed| {
            if seed == RunConfig::paper_bist().seed {
                return paper.clone();
            }
            let bist = Bist::with_run(
                p,
                RunConfig {
                    seed,
                    ..RunConfig::paper_bist()
                },
            );
            classes.decide(&universe, |effect| TierVerdict {
                dc: dc.detects(effect),
                scan: scan.detects(effect),
                bist: bist.detects(effect),
            })
        })
        .collect()
}

/// The claims table, measured from the paper `campaign` at `p`, its
/// [`lock_sweep`], a Monte-Carlo `mismatch` sweep of `(sigma_mv, result)`
/// points and its [`seed_sweep`]. The few single-fault and digital-block
/// checks run here.
pub fn claims(
    p: &DesignParams,
    campaign: &CampaignResult,
    locks: &[LockOutcome],
    mismatch: &[(f64, MismatchResult)],
    seeds: &[CampaignResult],
) -> Vec<Claim> {
    let (dc, scan, bist) = (DcTest::new(p), ScanTest::new(p), Bist::new(p));
    let link = TestableLink::paper();
    let universe = link.fault_universe();
    let effect_of = |block, role, kind| {
        let fault = universe
            .iter()
            .find(|f| f.block == block && f.role == role && f.kind == kind)
            .expect("fault in the paper universe");
        resolve_effect(fault, p)
    };
    let tg = effect_of(
        BlockKind::Termination,
        DeviceRole::TermTgNmos,
        FaultKind::Mos(MosFault::DrainOpen),
    );
    let masked_sources = [BlockKind::WeakChargePump, BlockKind::StrongChargePump]
        .into_iter()
        .flat_map(|b| [(b, DeviceRole::CpSourceP), (b, DeviceRole::CpSinkN)])
        .map(|(b, role)| effect_of(b, role, FaultKind::Mos(MosFault::DrainSourceShort)))
        .filter(|e| !dc.detects(e) && !scan.detects(e) && bist.detects(e))
        .count();
    // Random scan patterns and seed per digital block (the test's budgets).
    let digital = [
        (link.ring_counter().circuit(), 128),
        (link.switch_matrix().circuit(), 512),
        (link.divider().circuit(), 64),
        (link.lock_detector().circuit(), 128),
        (link.control_fsm().circuit(), 32),
        (link.phase_detector().circuit(), 64),
    ]
    .iter()
    .zip(1..)
    .map(|(&(circuit, patterns), seed)| {
        let vectors = dsim::atpg::random_vectors(circuit, patterns, seed);
        dsim::stuck_at::scan_coverage(circuit, &vectors).coverage()
    })
    .fold(f64::INFINITY, f64::min);
    let healthy = AnalogEffect::None;
    let healthy_failures = [
        dc.detects(&healthy),
        scan.detects(&healthy),
        !bist.execute(&healthy).pass(),
    ];
    let records = campaign.records();
    // Faults DC misses whose (scan, BIST) verdicts satisfy `tiers`.
    let caught_by = |tiers: fn(bool, bool) -> bool| {
        records
            .iter()
            .filter(|r| !r.dc && tiers(r.scan, r.bist))
            .count()
    };
    let overhead = DftOverhead::paper();
    let ladder = [
        campaign.coverage_dc(),
        campaign.coverage_dc_scan(),
        campaign.coverage_total(),
    ];
    let table1 = FaultKind::ALL.map(|k| campaign.coverage_of_kind(k));
    let totals: Vec<f64> = seeds.iter().map(CampaignResult::coverage_total).collect();
    let (lo, hi) = totals.iter().fold((1.0, 0.0), |(lo, hi): (f64, f64), &t| {
        (lo.min(t), hi.max(t))
    });

    let mut rows: Vec<Claim> = LADDER
        .iter()
        .zip(ladder)
        .map(|(&(id, quote, paper, bound), measured)| Claim {
            id: format!("ladder.{id}"),
            section: "§IV",
            quote,
            paper: Some(paper),
            how: "cumulative coverage of the paper campaign's 603 faults",
            measured,
            bound,
            reason: "the reproduction's netlists differ from the paper's in the decimals",
        })
        .collect();
    let steps = |l: [f64; 3]| (l[1] - l[0]).min(l[2] - l[1]);
    rows.push(Claim {
        id: "ladder.rise".into(),
        section: "§IV",
        quote: "each tier adds coverage: 50.4 → 74.3 → 94.8 %",
        paper: Some(steps(LADDER.map(|l| l.2))),
        how: "smallest step of the measured ladder",
        measured: steps(ladder),
        bound: Bound::Above(0.0),
        reason: "a tier that adds nothing would not be part of the flow",
    });
    for ((kind, &(paper, bound)), measured) in FaultKind::ALL.iter().zip(&TABLE1).zip(table1) {
        rows.push(Claim {
            id: row_id("table1", kind.label()),
            section: "Table I",
            quote: "coverage by fault type",
            paper: Some(paper),
            how: "detected / total faults of this type in the paper campaign",
            measured,
            bound,
            reason: match bound {
                Bound::Exactly(_) => "a short corrupts a shared net, so every one is caught",
                _ => "the reproduction's netlists differ from the paper's in the decimals",
            },
        });
    }
    let out_of_order = (0..7)
        .flat_map(|i| (0..7).map(move |j| (i, j)))
        .filter(|&(i, j)| TABLE1[i].0 < TABLE1[j].0 && table1[i] >= table1[j])
        .count();
    // Gate open is the first row of `FaultKind::ALL`.
    let above_gate_open = |t: [f64; 7]| t[1..].iter().fold(f64::INFINITY, |m, &c| m.min(c - t[0]));
    rows.extend([
        Claim {
            id: "table1.ordering".into(),
            section: "Table I",
            quote: "gate open < drain open, source open, gate-drain short < the shorts",
            paper: None,
            how: "row pairs whose measured order breaks the paper's strict order",
            measured: out_of_order as f64,
            bound: Bound::Exactly(0.0),
            reason: "the row structure is what the effect model must reproduce",
        },
        Claim {
            id: "table1.gate_open_weakest".into(),
            section: "Table I",
            quote: "gate open is the weakest row (87.8 %)",
            paper: Some(above_gate_open(TABLE1.map(|t| t.0))),
            how: "lowest other row minus the gate-open row",
            measured: above_gate_open(table1),
            bound: Bound::Above(0.0),
            reason: "strictly lowest, as in the paper",
        },
    ]);
    for (entity, paper) in Entity::ALL.iter().zip(TABLE2) {
        rows.push(Claim {
            id: row_id("table2", entity.label()),
            section: "Table II",
            quote: "DFT overhead",
            paper: Some(paper as f64),
            how: "elements of this class in the DFT inventory",
            measured: overhead.count(*entity) as f64,
            bound: Bound::Exactly(paper as f64),
            reason: "a structural count is exact",
        });
    }
    rows.extend([
        Claim {
            id: "table2.data_path_latch".into(),
            section: "§I",
            quote: "The circuits do not alter the critical path of the design",
            paper: Some(1.0),
            how: "D-latches whose purpose is the transparent half-cycle latch",
            measured: overhead
                .items()
                .iter()
                .filter(|i| i.entity == Entity::DLatch && i.purpose.contains("transparent"))
                .count() as f64,
            bound: Bound::Exactly(1.0),
            reason: "the one data-path insertion, absorbed into the line buffer",
        },
        Claim {
            id: "tiers.incomparable".into(),
            section: "§I",
            quote: "intersecting but not subsets of each other, which means to \
                    achieve 94.8% coverage both tests are required",
            paper: None,
            how: "fewest of: faults scan and BIST both catch, faults only scan \
                  catches and faults only BIST catches (DC missing both)",
            measured: campaign
                .scan_and_bist()
                .len()
                .min(caught_by(|scan, bist| scan && !bist))
                .min(caught_by(|scan, bist| bist && !scan)) as f64,
            bound: Bound::Above(0.0),
            reason: "one fault in each set: the sets intersect, neither contains \
                     the other, and dropping either tier loses coverage",
        },
        Claim {
            id: "dynamic.tg_drain_open".into(),
            section: "§II.A",
            quote: "results in a dynamic mismatch. This is not detectable at DC",
            paper: None,
            how: "termination TG NMOS drain open: 1 if DC misses and scan catches it",
            measured: f64::from(u8::from(!dc.detects(&tg) && scan.detects(&tg))),
            bound: Bound::Exactly(1.0),
            reason: "the 100 MHz window comparator sees what DC cannot",
        },
        Claim {
            id: "masking.source_ds_short".into(),
            section: "§III",
            quote: "masks a drain source short fault in the current source \
                    transistors. The BIST with the lock detector can detect such faults",
            paper: None,
            how: "current-source DS shorts (both pumps, source and sink) that DC \
                  and scan miss and BIST catches",
            measured: masked_sources as f64,
            bound: Bound::Exactly(4.0),
            reason: "all four such transistors",
        },
        Claim {
            id: "lock.budget".into(),
            section: "§III",
            quote: "is expected to lock within 2 µs",
            paper: Some(2.0),
            how: "worst lock time in µs over every start phase (Fig. 2 sweep)",
            measured: locks
                .iter()
                .map(|o| match o.lock_cycle {
                    Some(c) if o.locked => c as f64 * p.ui().us(),
                    _ => f64::INFINITY,
                })
                .fold(0.0, f64::max),
            bound: Bound::AtMost(2.0),
            reason: "the paper's budget; 5000 UI at 2.5 Gb/s",
        },
        Claim {
            id: "lock.corrections".into(),
            section: "§III",
            quote: "the number of coarse corrections needed can be no more than \
                    half the number of DLL phases",
            paper: Some(0.5),
            how: "worst coarse corrections over every start phase / DLL phases",
            measured: locks.iter().map(|o| o.corrections).max().unwrap_or(0) as f64
                / p.dll_phases as f64,
            bound: Bound::AtMost(0.5),
            reason: "the paper's bound, from any initial condition",
        },
        Claim {
            id: "digital.stuck_at".into(),
            section: "§IV",
            quote: "the digital blocks reach 100 % stuck-at coverage with scan",
            paper: Some(1.0),
            how: "lowest scan stuck-at coverage of the six digital blocks, 32-512 \
                  random patterns each",
            measured: digital,
            bound: Bound::Exactly(1.0),
            reason: "every stuck-at fault of the blocks is testable",
        },
        Claim {
            id: "healthy.passes".into(),
            section: "§II–III",
            quote: "a healthy link passes every tier",
            paper: None,
            how: "tiers that fail the fault-free link",
            measured: healthy_failures.iter().filter(|&&f| f).count() as f64,
            bound: Bound::Exactly(0.0),
            reason: "a false failure scraps a good die",
        },
        Claim {
            id: "healthy.effect_free".into(),
            section: "§IV",
            quote: "coverage counts only faults with an effect",
            paper: None,
            how: "effect-free faults that some tier detected",
            measured: records
                .iter()
                .filter(|r| matches!(r.effect, AnalogEffect::None) && r.detected())
                .count() as f64,
            bound: Bound::Exactly(0.0),
            reason: "a detected no-change fault is hallucinated coverage",
        },
        Claim {
            id: "mismatch.false_failures".into(),
            section: "§II.A",
            quote: "is sufficient to overcome any mismatch due to the manufacturing process",
            paper: None,
            how: "healthy dies of 20 000 that false-fail the DC test at 3 mV σ \
                  (all of them if the sweep lacks 3 mV)",
            measured: mismatch
                .iter()
                .find(|(sigma, _)| *sigma == MISMATCH_SIGMA_MV)
                .map_or(MISMATCH_TRIALS, |(_, r)| r.false_failures) as f64,
            bound: Bound::Exactly(0.0),
            reason: "3 mV is a realistic common-centroid σ, 5σ below the 15 mV margin",
        },
        Claim {
            id: "seeds.spread".into(),
            section: "§IV",
            quote: "the ladder is a property of the design, not of the BIST data",
            paper: None,
            how: "total-coverage spread over five BIST data seeds",
            measured: (hi - lo).max(0.0),
            bound: Bound::Band(0.0, 0.01),
            reason: "under one coverage point",
        },
    ]);
    rows
}

/// The rows whose measured value breaks its bound.
pub fn failing(rows: &[Claim]) -> Vec<&Claim> {
    rows.iter().filter(|c| !c.holds()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mismatch::MonteCarlo;

    /// The paper's claims table, measured once for the tests below.
    fn paper() -> &'static [Claim] {
        static ROWS: std::sync::OnceLock<Vec<Claim>> = std::sync::OnceLock::new();
        ROWS.get_or_init(|| {
            let p = DesignParams::paper();
            let campaign = crate::campaign::tests::result();
            let mismatch = MonteCarlo::sweep(&p, &[MISMATCH_SIGMA_MV], MISMATCH_TRIALS);
            let seeds = seed_sweep(&p, campaign);
            claims(&p, campaign, &lock_sweep(&p), &mismatch, &seeds)
        })
    }

    /// The ids of the rows that fail once row `id` measures `value`.
    fn failing_with(id: &str, value: f64) -> Vec<String> {
        let mut rows = paper().to_vec();
        rows.iter_mut().find(|c| c.id == id).expect("row").measured = value;
        failing(&rows).iter().map(|c| c.id.clone()).collect()
    }

    #[test]
    fn each_relation_names_exactly_the_perturbed_row() {
        assert!(failing(paper()).is_empty());
        // Band: DC coverage 0.58. AtMost: one start phase needs 6 of the
        // 10 phases' corrections. Above: an empty BIST-only set. Exactly:
        // a Table II count off by one, one effect-free fault detected.
        assert_eq!(failing_with("ladder.dc", 0.58), ["ladder.dc"]);
        assert_eq!(failing_with("lock.corrections", 0.6), ["lock.corrections"]);
        assert_eq!(
            failing_with("tiers.incomparable", 0.0),
            ["tiers.incomparable"]
        );
        assert_eq!(failing_with("table2.d_latch", 2.0), ["table2.d_latch"]);
        assert_eq!(
            failing_with("healthy.effect_free", 1.0),
            ["healthy.effect_free"]
        );
    }

    #[test]
    fn row_ids_are_unique() {
        let mut ids: Vec<&str> = paper().iter().map(|c| c.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), paper().len());
    }
}
