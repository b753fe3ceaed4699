//! The two fault campaigns: the behavioral [`FaultCampaign`] over the
//! link's analog netlists and the gate-level [`NetlistCampaign`].
//!
//! [`FaultCampaign`] enumerates the full functional fault universe over
//! the link's netlists, resolves every fault to its behavioral effect,
//! groups the faults into [`EffectClasses`] (one class per distinct
//! effect: 603 faults, 75 classes at the paper's design point), simulates
//! all three test tiers once per class, fans the verdicts back out to
//! per-fault records and aggregates the statistics the paper reports:
//!
//! * the cumulative coverage ladder — DC ≈ 50 %, DC+scan ≈ 74 %,
//!   DC+scan+BIST ≈ 95 % (Section IV),
//! * coverage by fault type (Table I),
//! * the tier-set relations (the paper: scan and BIST fault sets intersect
//!   but neither contains the other).
//!
//! [`NetlistCampaign`] scores one gate-level netlist: stuck-at faults by
//! PPSFP against a random pattern set, transition faults by
//! launch-on-capture replay of ATPG-generated tests. Run as a stuck-at
//! campaign over each of the paper's scan chains A and B, it measures the
//! paper's 100 % stuck-at claim.
//!
//! Both run resumably under a [`CampaignExec`] policy, byte-identical at
//! any thread count.
//!
//! # Examples
//!
//! ```no_run
//! use dft::campaign::FaultCampaign;
//! use msim::params::DesignParams;
//!
//! let result = FaultCampaign::new(&DesignParams::paper()).run();
//! println!("total coverage {:.1} %", result.coverage_total() * 100.0);
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use dsim::atpg::random_vectors;
use dsim::circuit::{Circuit, StructureError};
use dsim::expand::TimeExpansion;
use dsim::scan::ScanVector;
use dsim::stuck_at::{enumerate_faults, StuckAtFault};
use dsim::transition::{
    enumerate_transition_faults, launch_capture_response, transition_detected, TransitionFault,
    TwoPatternResponse, TwoPatternTest,
};
use dsim::verilog::VerilogError;
use link::netlists::functional_netlists;
use msim::effects::{resolve_effect, AnalogEffect};
use msim::fault::{Fault, FaultKind, FaultUniverse};
use msim::params::DesignParams;
use rt::exec::{self, ExecReport, RetryPolicy, Sabotage, Sabotaged, Shard, ShardFailure, ShardJob};

use crate::bist::Bist;
use crate::dc_test::DcTest;
use crate::scan_test::ScanTest;

/// Execution policy for a resumable campaign run: worker threads, retry
/// budget for panicking shards, optional checkpoint file, and an optional
/// seeded sabotage hook (chaos drills and the conformance suite only).
/// For the behavioral [`FaultCampaign`] a shard is a run of effect
/// classes, so a failed shard drops every fault of those classes.
///
/// The policy never influences *what* a completed campaign computes —
/// records are byte-identical across any thread count, retry budget or
/// kill-and-resume schedule — only *how resiliently* it gets there.
#[derive(Debug)]
pub struct CampaignExec {
    /// Worker threads (must be > 0).
    pub threads: usize,
    /// Retry budget for panicking shards.
    pub retry: RetryPolicy,
    /// Checkpoint file (conventionally under `results/checkpoints/`,
    /// which is gitignored); `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Injected shard panic for testing the recovery machinery.
    pub sabotage: Option<Sabotage>,
}

impl CampaignExec {
    /// A plain run on `threads` workers: no retries, no checkpoint, no
    /// sabotage — the policy behind [`FaultCampaign::run_on`].
    pub fn threads(threads: usize) -> CampaignExec {
        CampaignExec {
            threads,
            retry: RetryPolicy::none(),
            checkpoint: None,
            sabotage: None,
        }
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> CampaignExec {
        self.retry = retry;
        self
    }

    /// Enables checkpointing to `path`.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> CampaignExec {
        self.checkpoint = Some(path.into());
        self
    }

    /// Installs a seeded shard-panic injection.
    pub fn with_sabotage(mut self, sabotage: Sabotage) -> CampaignExec {
        self.sabotage = Some(sabotage);
        self
    }

    /// Runs `shards` of `job` under this policy: the checkpoint opened
    /// against fingerprint `fp`, the sabotage tripped ahead of every
    /// shard. Panics if the checkpoint file cannot be opened.
    fn run<J: ShardJob>(&self, fp: u64, shards: &[Shard], job: &J) -> ExecReport<J::Record> {
        let mut ck = self.checkpoint.as_ref().map(|path| {
            exec::Checkpoint::open(path, fp)
                .unwrap_or_else(|e| panic!("checkpoint {}: {e}", path.display()))
        });
        let job = Sabotaged {
            job,
            sabotage: self.sabotage.as_ref(),
        };
        exec::run_shards(self.threads, &self.retry, ck.as_mut(), shards, &job)
    }
}

/// Per-fault simulation record.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// The structural fault.
    pub fault: Fault,
    /// Its resolved behavioral effect.
    pub effect: AnalogEffect,
    /// Detected by the DC tier.
    pub dc: bool,
    /// Detected by the scan tier.
    pub scan: bool,
    /// Detected by the BIST tier.
    pub bist: bool,
}

impl FaultRecord {
    /// Detected by any tier.
    pub fn detected(&self) -> bool {
        self.dc || self.scan || self.bist
    }
}

/// Aggregated campaign results.
///
/// A result may be **partial**: class shards that exhausted their retry
/// budget under a fault-tolerant [`CampaignExec`] policy are listed in the
/// [`CampaignResult::incomplete`] manifest, and every coverage figure is
/// then computed over the faults of the completed class shards only.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    records: Vec<FaultRecord>,
    incomplete: Vec<ShardFailure>,
}

impl CampaignResult {
    /// Builds a result from externally produced records (used by the
    /// DFT-element ablations, which re-decide detection per element set).
    pub fn from_records(records: Vec<FaultRecord>) -> CampaignResult {
        CampaignResult {
            records,
            incomplete: Vec::new(),
        }
    }

    /// All per-fault records.
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    /// Class shards that exhausted their retry budget — empty for a
    /// complete run. Each entry's `start`/`len` is a range of effect
    /// classes, not of faults. A non-empty manifest means every coverage
    /// figure is over the faults of the completed class shards only.
    pub fn incomplete(&self) -> &[ShardFailure] {
        &self.incomplete
    }

    /// `true` when every planned class shard delivered its verdicts.
    pub fn is_complete(&self) -> bool {
        self.incomplete.is_empty()
    }

    /// Number of records: the universe size for a complete run.
    pub fn total(&self) -> usize {
        self.records.len()
    }

    // An empty record set reports 0.0 — an empty campaign has covered
    // nothing. (Contrast with `coverage_of_kind`, which keeps a
    // vacuous-truth 1.0 for a fault kind absent from the universe: a
    // missing Table-I row has no faults left to escape, while a missing
    // campaign has not demonstrated any coverage at all.)
    fn fraction(&self, pred: impl Fn(&FaultRecord) -> bool) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| pred(r)).count() as f64 / self.records.len() as f64
    }

    /// Coverage of the DC tier alone (the paper: 50.4 %).
    pub fn coverage_dc(&self) -> f64 {
        self.fraction(|r| r.dc)
    }

    /// Cumulative DC + scan coverage (the paper: 74.3 %).
    pub fn coverage_dc_scan(&self) -> f64 {
        self.fraction(|r| r.dc || r.scan)
    }

    /// Cumulative DC + scan + BIST coverage (the paper: 94.8 %).
    pub fn coverage_total(&self) -> f64 {
        self.fraction(FaultRecord::detected)
    }

    /// `(total, detected)` for one fault kind — a Table I row.
    pub fn by_kind(&self, kind: FaultKind) -> (usize, usize) {
        let of_kind: Vec<&FaultRecord> = self
            .records
            .iter()
            .filter(|r| r.fault.kind == kind)
            .collect();
        let detected = of_kind.iter().filter(|r| r.detected()).count();
        (of_kind.len(), detected)
    }

    /// Coverage for one fault kind in `[0, 1]`. A kind with no faults in
    /// the universe reads `1.0` (vacuous truth: no member of an absent
    /// Table-I row can escape) — deliberately asymmetric with the
    /// whole-campaign coverages, which read `0.0` on an empty record set.
    pub fn coverage_of_kind(&self, kind: FaultKind) -> f64 {
        let (total, detected) = self.by_kind(kind);
        if total == 0 {
            1.0
        } else {
            detected as f64 / total as f64
        }
    }

    /// Faults no tier detects.
    pub fn undetected(&self) -> Vec<&FaultRecord> {
        self.records.iter().filter(|r| !r.detected()).collect()
    }

    /// Faults detected by scan but not BIST.
    pub fn scan_only(&self) -> Vec<&FaultRecord> {
        self.records.iter().filter(|r| r.scan && !r.bist).collect()
    }

    /// Faults detected by BIST but not scan.
    pub fn bist_only(&self) -> Vec<&FaultRecord> {
        self.records.iter().filter(|r| r.bist && !r.scan).collect()
    }

    /// Faults detected by both scan and BIST.
    pub fn scan_and_bist(&self) -> Vec<&FaultRecord> {
        self.records.iter().filter(|r| r.scan && r.bist).collect()
    }
}

/// The three tier verdicts for one effect, and so for every fault in its
/// effect class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierVerdict {
    /// Detected by the DC tier.
    pub dc: bool,
    /// Detected by the scan tier.
    pub scan: bool,
    /// Detected by the BIST tier.
    pub bist: bool,
}

impl TierVerdict {
    /// The checkpoint flags byte `dc | scan << 1 | bist << 2`.
    fn flags(self) -> u8 {
        u8::from(self.dc) | u8::from(self.scan) << 1 | u8::from(self.bist) << 2
    }

    /// Decodes a flags byte; `None` for unknown bits.
    fn from_flags(b: u8) -> Option<TierVerdict> {
        (b <= 0b111).then_some(TierVerdict {
            dc: b & 1 != 0,
            scan: b & 2 != 0,
            bist: b & 4 != 0,
        })
    }
}

/// The effect classes of a fault universe: the distinct [`AnalogEffect`]s
/// its faults resolve to, in order of first appearance, each class's size,
/// and every fault's class index.
///
/// This is the behavioral analogue of stuck-at equivalence collapsing,
/// where faults that no test can tell apart share one representative.
/// Every tier verdict is a pure function of
/// `(DesignParams, AnalogEffect)`, so one simulation per class decides
/// every fault in it. Faults are grouped by [`AnalogEffect::key`], which
/// merges bit-identical effects only. The paper's 603 faults form 75
/// classes.
///
/// # Examples
///
/// ```
/// use dft::campaign::{EffectClasses, FaultCampaign};
/// use msim::params::DesignParams;
///
/// let p = DesignParams::paper();
/// let universe = FaultCampaign::new(&p).universe();
/// let classes = EffectClasses::of(&universe, &p);
/// assert_eq!((universe.len(), classes.len()), (603, 75));
/// assert_eq!(classes.sizes().iter().sum::<usize>(), universe.len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EffectClasses {
    effects: Vec<AnalogEffect>,
    sizes: Vec<usize>,
    class_of: Vec<usize>,
}

impl EffectClasses {
    /// Resolves every fault of `universe` at design point `p` once and
    /// groups the faults by effect.
    pub fn of(universe: &FaultUniverse, p: &DesignParams) -> EffectClasses {
        EffectClasses::group(universe.iter().map(|f| resolve_effect(f, p)))
    }

    /// Groups a sequence of per-fault effects into classes.
    fn group(effects: impl IntoIterator<Item = AnalogEffect>) -> EffectClasses {
        let mut index = BTreeMap::new();
        let mut classes = EffectClasses {
            effects: Vec::new(),
            sizes: Vec::new(),
            class_of: Vec::new(),
        };
        for effect in effects {
            let class = *index.entry(effect.key()).or_insert_with(|| {
                classes.effects.push(effect);
                classes.sizes.push(0);
                classes.effects.len() - 1
            });
            classes.sizes[class] += 1;
            classes.class_of.push(class);
        }
        classes
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.effects.len()
    }

    /// `true` for an empty universe.
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }

    /// The distinct effects, indexed by class.
    pub fn effects(&self) -> &[AnalogEffect] {
        &self.effects
    }

    /// Faults per class, indexed by class.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The class of every fault, in universe order.
    pub fn class_of(&self) -> &[usize] {
        &self.class_of
    }

    /// Fans per-class verdicts out to per-fault records in universe order.
    /// A class whose verdict is `None` (its shard did not complete)
    /// contributes no records.
    fn fan_out(
        &self,
        universe: &FaultUniverse,
        verdicts: &[Option<TierVerdict>],
    ) -> Vec<FaultRecord> {
        assert_eq!(universe.len(), self.class_of.len(), "foreign universe");
        assert_eq!(verdicts.len(), self.len(), "one verdict per class");
        universe
            .iter()
            .zip(&self.class_of)
            .filter_map(|(&fault, &c)| {
                verdicts[c].map(|v| FaultRecord {
                    fault,
                    effect: self.effects[c],
                    dc: v.dc,
                    scan: v.scan,
                    bist: v.bist,
                })
            })
            .collect()
    }

    /// Decides every class with `verdict`, once each on the calling
    /// thread, and fans the verdicts out to a complete result: the route
    /// for campaign variants that re-decide detection (DFT ablations,
    /// BIST seed sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `universe` is not the universe the classes were built
    /// from.
    pub fn decide(
        &self,
        universe: &FaultUniverse,
        verdict: impl FnMut(&AnalogEffect) -> TierVerdict,
    ) -> CampaignResult {
        let verdicts: Vec<Option<TierVerdict>> =
            self.effects.iter().map(verdict).map(Some).collect();
        CampaignResult::from_records(self.fan_out(universe, &verdicts))
    }
}

/// Effect classes per shard for the resumable executor: ten shards for
/// the paper's 75 classes, enough to balance a few workers over classes
/// of uneven BIST cost, while a kill loses about a tenth of the classes.
const CLASS_SHARD_SIZE: usize = 8;

/// The behavioral campaign's shard job: one contiguous run of effect
/// classes through all three test tiers, one simulation per class.
/// Checkpoint payloads are one flags byte per class
/// (`dc | scan << 1 | bist << 2`); the faults and their effects are
/// reconstructed from the universe and its classes, so resumed records
/// are byte-identical to recomputed ones.
struct FaultJob<'a> {
    classes: &'a EffectClasses,
    dc: DcTest,
    scan: ScanTest,
    bist: Bist,
}

impl ShardJob for FaultJob<'_> {
    type Record = TierVerdict;

    fn run(&self, shard: &Shard) -> Vec<TierVerdict> {
        shard
            .range()
            .map(|c| {
                let effect = &self.classes.effects[c];
                let v = TierVerdict {
                    dc: self.dc.detects(effect),
                    scan: self.scan.detects(effect),
                    bist: self.bist.detects(effect),
                };
                // Per-tier coverage counters, weighted by class size so
                // they keep their per-fault values; zero-adds still
                // register the keys so the metric set is identical on
                // every run.
                let n = self.classes.sizes[c] as u64;
                rt::obs::count("campaign.fault.simulated", n);
                rt::obs::count("campaign.fault.detected.dc", n * u64::from(v.dc));
                rt::obs::count("campaign.fault.detected.scan", n * u64::from(v.scan));
                rt::obs::count("campaign.fault.detected.bist", n * u64::from(v.bist));
                rt::obs::count(
                    "campaign.fault.undetected",
                    n * u64::from(!(v.dc || v.scan || v.bist)),
                );
                v
            })
            .collect()
    }

    fn encode(&self, _shard: &Shard, records: &[TierVerdict], out: &mut Vec<u8>) {
        out.extend(records.iter().map(|v| v.flags()));
    }

    fn decode(&self, shard: &Shard, payload: &[u8]) -> Option<Vec<TierVerdict>> {
        if payload.len() != shard.len {
            return None;
        }
        payload
            .iter()
            .map(|&b| TierVerdict::from_flags(b))
            .collect()
    }
}

/// The campaign driver.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaign {
    p: DesignParams,
}

impl FaultCampaign {
    /// Creates a campaign at a design point.
    pub fn new(p: &DesignParams) -> FaultCampaign {
        FaultCampaign { p: p.clone() }
    }

    /// The enumerated functional fault universe.
    pub fn universe(&self) -> FaultUniverse {
        let blocks = functional_netlists();
        FaultUniverse::enumerate(blocks.iter().map(|(b, n)| (*b, n)))
    }

    /// Runs every effect class through all three tiers, fanning the
    /// classes across all available cores. Records come back in universe
    /// order, byte-identical at any thread count — the shard plan
    /// preserves class order and each class's simulation is independent
    /// of its neighbours.
    pub fn run(&self) -> CampaignResult {
        self.run_on(rt::par::threads())
    }

    /// Runs the campaign on exactly `threads` worker threads — shorthand
    /// for [`FaultCampaign::run_with`] under a plain
    /// [`CampaignExec::threads`] policy (no retries, no checkpoint).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn run_on(&self, threads: usize) -> CampaignResult {
        self.run_with(&CampaignExec::threads(threads))
    }

    /// Number of class shards a resumable run of this campaign plans — the
    /// domain for a seeded [`Sabotage`] victim draw.
    pub fn shard_count(&self) -> usize {
        EffectClasses::of(&self.universe(), &self.p)
            .len()
            .div_ceil(CLASS_SHARD_SIZE)
    }

    /// The checkpoint fingerprint of this campaign: a resumed run must
    /// prove it is the same universe, class plan, shard plan and design
    /// point before any frame is trusted. The class count and class shard
    /// size make a per-fault checkpoint of the same universe foreign.
    fn fingerprint(&self, universe_len: usize, class_count: usize) -> u64 {
        exec::fingerprint(&[
            u64::from(exec::CHECKPOINT_VERSION),
            universe_len as u64,
            class_count as u64,
            CLASS_SHARD_SIZE as u64,
            u64::from(exec::crc32(format!("{:?}", self.p).as_bytes())),
        ])
    }

    /// Runs the campaign under an explicit execution policy. The universe
    /// is resolved once and grouped into [`EffectClasses`]; the classes
    /// are cut into deterministic shards, each shard runs panic-isolated
    /// (retried per `policy.retry`, checkpointed when `policy.checkpoint`
    /// is set) and simulates every tier once per class, and the class
    /// verdicts are fanned back out to per-fault records in universe
    /// order — byte-identical across thread counts, retries and
    /// kill-and-resume schedules. Class shards that exhaust the retry
    /// budget degrade the result to a partial one carrying the
    /// [`CampaignResult::incomplete`] manifest instead of aborting.
    ///
    /// # Panics
    ///
    /// Panics if `policy.threads == 0` or the checkpoint file cannot be
    /// opened.
    pub fn run_with(&self, policy: &CampaignExec) -> CampaignResult {
        let _span = rt::obs::span("campaign.fault");
        let universe = self.universe();
        let classes = EffectClasses::of(&universe, &self.p);
        rt::obs::count("campaign.effect_classes", classes.len() as u64);
        let job = FaultJob {
            classes: &classes,
            dc: DcTest::new(&self.p),
            scan: ScanTest::new(&self.p),
            bist: Bist::new(&self.p),
        };
        let shards = exec::plan(classes.len(), CLASS_SHARD_SIZE);
        let fp = self.fingerprint(universe.len(), classes.len());
        let report = policy.run(fp, &shards, &job);
        // Completed shards' verdicts arrive concatenated in plan order;
        // failed shards leave their classes undecided.
        let mut verdicts = vec![None; classes.len()];
        let mut completed = report.records.into_iter();
        for shard in &shards {
            if report.incomplete.iter().all(|f| f.shard != shard.index) {
                for c in shard.range() {
                    verdicts[c] = completed.next();
                }
            }
        }
        let result = CampaignResult {
            records: classes.fan_out(&universe, &verdicts),
            incomplete: report.incomplete,
        };
        rt::obs::log::info(
            "campaign",
            format!(
                "fault campaign done faults={} classes={} dc={:.3} dc_scan={:.3} total={:.3} \
                 failed_shards={}",
                result.total(),
                classes.len(),
                result.coverage_dc(),
                result.coverage_dc_scan(),
                result.coverage_total(),
                result.incomplete.len(),
            ),
        );
        result
    }
}

/// Shard size for the netlist campaign, in faults. The PPSFP kernel
/// evaluates 64 patterns per pass, so fat stuck-at shards amortize
/// its per-shard golden simulation, and the transition shards' per-fault
/// replay is cheap enough that load balance does not suffer at this
/// granularity. Shard stitching is result-invariant, so this is purely a
/// scheduling knob (it does feed the fingerprint, invalidating old
/// checkpoints).
const NETLIST_SHARD_SIZE: usize = 128;

/// Seed for the netlist campaign's random stuck-at pattern set.
const NETLIST_VECTOR_SEED: u64 = 41;

/// Random stuck-at patterns per netlist campaign.
const NETLIST_VECTOR_COUNT: usize = 256;

/// Why a [`NetlistCampaign`] could not be built from its inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// The Verilog source failed to parse or lower.
    Verilog(VerilogError),
    /// The circuit is not an acyclic single-driver netlist
    /// ([`Circuit::check`]).
    Structure(StructureError),
}

impl std::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetlistError::Verilog(e) => write!(f, "{e}"),
            NetlistError::Structure(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NetlistError {}

impl From<VerilogError> for NetlistError {
    fn from(e: VerilogError) -> NetlistError {
        NetlistError::Verilog(e)
    }
}

impl From<StructureError> for NetlistError {
    fn from(e: StructureError) -> NetlistError {
        NetlistError::Structure(e)
    }
}

/// Per-fault record of a netlist campaign — one stuck-at or one
/// transition fault with its detection verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistFaultRecord {
    /// A stuck-at fault simulated against the random pattern set through
    /// the PPSFP kernel.
    StuckAt {
        /// The stuck-at fault.
        fault: StuckAtFault,
        /// Detected by the random pattern set.
        detected: bool,
    },
    /// A transition fault replayed launch-on-capture against the
    /// time-expansion ATPG's two-pattern tests.
    Transition {
        /// The transition fault.
        fault: TransitionFault,
        /// Detected by the generated two-pattern test set.
        detected: bool,
    },
}

impl NetlistFaultRecord {
    /// The detection verdict, whichever fault model the record carries.
    pub fn detected(&self) -> bool {
        match self {
            NetlistFaultRecord::StuckAt { detected, .. }
            | NetlistFaultRecord::Transition { detected, .. } => *detected,
        }
    }
}

/// Outcome of a resumable netlist campaign run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistCampaignResult {
    /// Per-fault records over completed shards: the full stuck-at
    /// universe first (enumeration order), then the full transition
    /// universe (enumeration order).
    pub records: Vec<NetlistFaultRecord>,
    /// Transition faults the ATPG proved untestable (PODEM exhausted its
    /// backtrack budget on the gadget model) — informational; they still
    /// appear in `records`, almost always undetected.
    pub untestable: Vec<TransitionFault>,
    /// Shards that exhausted their retry budget.
    pub incomplete: Vec<ShardFailure>,
}

impl NetlistCampaignResult {
    /// `true` when every planned shard delivered its records.
    pub fn is_complete(&self) -> bool {
        self.incomplete.is_empty()
    }

    /// `(total, detected)` over the stuck-at universe.
    pub fn stuck_at(&self) -> (usize, usize) {
        self.count(|r| matches!(r, NetlistFaultRecord::StuckAt { .. }))
    }

    /// `(total, detected)` over the transition universe.
    pub fn transition(&self) -> (usize, usize) {
        self.count(|r| matches!(r, NetlistFaultRecord::Transition { .. }))
    }

    /// Stuck-at coverage in `[0, 1]` (`0.0` over an empty universe,
    /// matching [`CampaignResult`]'s empty-campaign convention).
    pub fn stuck_at_coverage(&self) -> f64 {
        Self::ratio(self.stuck_at())
    }

    /// Transition coverage in `[0, 1]` over the *whole* enumerated
    /// universe — untestable faults count against it, exactly as a tester
    /// would score the pattern set (`0.0` over an empty universe).
    pub fn transition_coverage(&self) -> f64 {
        Self::ratio(self.transition())
    }

    fn count(&self, pred: impl Fn(&NetlistFaultRecord) -> bool) -> (usize, usize) {
        self.records
            .iter()
            .filter(|r| pred(r))
            .fold((0, 0), |(total, detected), r| {
                (total + 1, detected + usize::from(r.detected()))
            })
    }

    fn ratio((total, detected): (usize, usize)) -> f64 {
        if total == 0 {
            0.0
        } else {
            detected as f64 / total as f64
        }
    }
}

/// Which fault universes a [`NetlistCampaign`] enumerates, plans and
/// fingerprints. The serving layer maps its `stuck_at` / `transition` /
/// `netlist` job kinds onto these selections, and the paper's scan chains
/// are scored as [`UniverseSel::StuckAt`] campaigns;
/// [`NetlistCampaign::over`] selects [`UniverseSel::Both`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UniverseSel {
    /// The stuck-at universe only: PPSFP against the random pattern set.
    /// No ATPG runs; the circuit must still pass [`Circuit::check`].
    StuckAt,
    /// The transition universe only: time-expansion ATPG plus
    /// launch-on-capture replay.
    Transition,
    /// Both universes as a two-segment plan.
    Both,
}

impl UniverseSel {
    /// `true` when the selection includes the stuck-at universe.
    pub fn stuck(self) -> bool {
        matches!(self, UniverseSel::StuckAt | UniverseSel::Both)
    }

    /// `true` when the selection includes the transition universe.
    pub fn transition(self) -> bool {
        matches!(self, UniverseSel::Transition | UniverseSel::Both)
    }
}

/// The gate-level test campaign over one parsed (or hand-built) netlist:
/// the stuck-at universe fault-simulated against a seeded random pattern
/// set through the PPSFP kernel ([`dsim::bitpar`]), plus the transition
/// universe targeted by the time-expansion ATPG
/// ([`dsim::expand::TimeExpansion`]) and scored by launch-on-capture
/// replay on the original sequential circuit.
///
/// This is the digital complement of the behavioral [`FaultCampaign`]:
/// run as a stuck-at campaign over each of the paper's stitched scan
/// chains it measures the "100 % stuck-at coverage on the logically
/// simple blocks" claim, and pointed at an arbitrary `.v` netlist
/// ([`NetlistCampaign::from_verilog`]) it produces the same coverage
/// tables for that netlist.
///
/// A campaign owns its stuck-at universe and pattern set, and shares its
/// [`TransitionSetup`] (transition universe, generated tests and their
/// fault-free goldens) by [`Arc`]: that half depends only on the circuit,
/// so a caller that scores one circuit under many seeds can generate it
/// once and hand it to every campaign through
/// [`NetlistCampaign::configured_with`] (the `serve` crate does so for
/// its built-in scan chains). A campaign is its own
/// [`ShardJob`] over the deterministic plan [`NetlistCampaign::shards`].
/// [`NetlistCampaign::run_with`] drives it through
/// [`rt::exec::run_shards`]; the `serve` crate's job scheduler drives the
/// same object shard by shard from its shared worker pool, which is what
/// makes a served campaign byte-identical to a local run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistCampaign {
    name: String,
    circuit: Circuit,
    vectors: Vec<ScanVector>,
    stuck: Vec<StuckAtFault>,
    transition: Arc<TransitionSetup>,
}

/// The seed-independent transition half of a [`NetlistCampaign`]: the
/// enumerated transition universe, the launch-on-capture tests PODEM
/// generated over the time-expanded model, the faults it proved
/// untestable, and every test's fault-free golden response. It is a pure
/// function of the circuit, never of the stuck-at pattern budget or
/// seed, so it is immutable once generated and campaigns share it.
#[derive(Debug, Default, PartialEq)]
pub struct TransitionSetup {
    faults: Vec<TransitionFault>,
    tests: Vec<TwoPatternTest>,
    untestable: Vec<TransitionFault>,
    goldens: Vec<TwoPatternResponse>,
}

impl TransitionSetup {
    /// Enumerates `circuit`'s transition faults, runs PODEM over its
    /// time-expanded model for a launch-on-capture test set and computes
    /// every test's fault-free golden response.
    ///
    /// # Panics
    ///
    /// Panics if [`Circuit::check`] rejects `circuit`.
    pub fn generate(circuit: &Circuit) -> TransitionSetup {
        let (tests, untestable) = TimeExpansion::new(circuit).generate_all();
        let goldens = tests
            .iter()
            .map(|t| launch_capture_response(circuit, t, None))
            .collect();
        TransitionSetup {
            faults: enumerate_transition_faults(circuit),
            tests,
            untestable,
            goldens,
        }
    }
}

impl NetlistCampaign {
    /// Builds a campaign from structural Verilog source: parse, lower,
    /// time-expand, and run PODEM over the expanded model for every
    /// transition fault. The campaign is named after the module.
    pub fn from_verilog(src: &str) -> Result<NetlistCampaign, NetlistError> {
        let circuit = dsim::verilog::compile(src)?;
        NetlistCampaign::over(circuit.name().to_string(), circuit)
    }

    /// Builds a campaign over an already-constructed circuit covering
    /// both fault universes with the default pattern budget (256 seeded
    /// random vectors). Fails only when [`Circuit::check`] rejects the
    /// circuit.
    pub fn over(
        name: impl Into<String>,
        circuit: Circuit,
    ) -> Result<NetlistCampaign, NetlistError> {
        NetlistCampaign::configured(
            name,
            circuit,
            UniverseSel::Both,
            NETLIST_VECTOR_COUNT,
            NETLIST_VECTOR_SEED,
        )
    }

    /// Builds a campaign with an explicit universe selection and
    /// stuck-at pattern budget. Construction does all the once-per-campaign
    /// work, so [`NetlistCampaign::run`] itself is pure fault simulation:
    ///
    /// * with the stuck-at universe selected, it enumerates the stuck-at
    ///   faults and draws `vector_count` random vectors from `vector_seed`;
    /// * with the transition universe selected, it enumerates the
    ///   transition faults, runs PODEM over the time-expanded model for a
    ///   launch-on-capture test set and computes every test's fault-free
    ///   golden response.
    ///
    /// A universe that is not selected is left empty, and its parameters
    /// are never read. Fails only when [`Circuit::check`] rejects the
    /// circuit, whatever the selection.
    pub fn configured(
        name: impl Into<String>,
        circuit: Circuit,
        sel: UniverseSel,
        vector_count: usize,
        vector_seed: u64,
    ) -> Result<NetlistCampaign, NetlistError> {
        NetlistCampaign::configured_with(name, circuit, sel, vector_count, vector_seed, |c| {
            Arc::new(TransitionSetup::generate(c))
        })
    }

    /// [`NetlistCampaign::configured`] with the transition half taken
    /// from `transition` instead of generated: it is called once, after
    /// [`Circuit::check`] passed, and only when `sel` includes the
    /// transition universe. It must return
    /// [`TransitionSetup::generate`]'s value for this same circuit (for
    /// example one generated earlier and kept), or the campaign scores
    /// the wrong tests.
    pub fn configured_with(
        name: impl Into<String>,
        circuit: Circuit,
        sel: UniverseSel,
        vector_count: usize,
        vector_seed: u64,
        transition: impl FnOnce(&Circuit) -> Arc<TransitionSetup>,
    ) -> Result<NetlistCampaign, NetlistError> {
        circuit.check()?;
        let (stuck, vectors) = if sel.stuck() {
            (
                enumerate_faults(&circuit),
                random_vectors(&circuit, vector_count, vector_seed),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let transition = if sel.transition() {
            transition(&circuit)
        } else {
            Arc::default()
        };
        Ok(NetlistCampaign {
            name: name.into(),
            circuit,
            vectors,
            stuck,
            transition,
        })
    }

    /// The campaign's display name (the Verilog module name when built
    /// through [`NetlistCampaign::from_verilog`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The circuit under test.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The generated launch-on-capture two-pattern test set.
    pub fn tests(&self) -> &[TwoPatternTest] {
        &self.transition.tests
    }

    /// The deterministic shard plan: the stuck-at universe then the
    /// transition universe as back-to-back segments (an excluded
    /// universe is a zero-length segment, which is inert), so no shard
    /// ever mixes fault models.
    pub fn shards(&self) -> Vec<Shard> {
        let segments = [self.stuck.len(), self.transition.faults.len()];
        exec::plan_segmented(&segments, NETLIST_SHARD_SIZE)
    }

    /// The checkpoint fingerprint: the shard plan, the campaign name, the
    /// circuit's structure (its canonical Verilog export), the pattern
    /// and test sets, and both universe sizes — the identity a resumed
    /// run must prove before trusting prior bytes.
    pub fn fingerprint(&self) -> u64 {
        let crc = |bytes: &[u8]| u64::from(exec::crc32(bytes));
        let structure = dsim::verilog::Module::from_circuit(&self.circuit).to_source();
        exec::fingerprint(&[
            u64::from(exec::CHECKPOINT_VERSION),
            NETLIST_SHARD_SIZE as u64,
            crc(self.name.as_bytes()),
            crc(structure.as_bytes()),
            crc(format!("{:?}", self.vectors).as_bytes()),
            crc(format!("{:?}", self.transition.tests).as_bytes()),
            self.stuck.len() as u64,
            self.transition.faults.len() as u64,
        ])
    }

    /// The shard's records for its per-fault detection flags — shared by
    /// the shard runner and the payload decoder.
    fn records(&self, shard: &Shard, flags: Vec<bool>) -> Vec<NetlistFaultRecord> {
        let sa = self.stuck.len();
        shard
            .range()
            .zip(flags)
            .map(|(i, detected)| match i.checked_sub(sa) {
                None => NetlistFaultRecord::StuckAt {
                    fault: self.stuck[i],
                    detected,
                },
                Some(t) => NetlistFaultRecord::Transition {
                    fault: self.transition.faults[t],
                    detected,
                },
            })
            .collect()
    }

    /// Assembles a [`NetlistCampaignResult`] from records concatenated
    /// in plan order plus a failed-shard manifest.
    pub fn result(
        &self,
        records: Vec<NetlistFaultRecord>,
        incomplete: Vec<ShardFailure>,
    ) -> NetlistCampaignResult {
        NetlistCampaignResult {
            records,
            untestable: self.transition.untestable.clone(),
            incomplete,
        }
    }

    /// Runs the campaign across all available cores. Records come back
    /// in (stuck-at universe, transition universe) enumeration order,
    /// byte-identical at any thread count.
    pub fn run(&self) -> NetlistCampaignResult {
        self.run_on(rt::par::threads())
    }

    /// Runs the campaign on exactly `threads` worker threads under a
    /// plain policy.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or any shard fails (a plain policy has
    /// no retry budget to degrade into).
    pub fn run_on(&self, threads: usize) -> NetlistCampaignResult {
        let result = self.run_with(&CampaignExec::threads(threads));
        assert!(
            result.is_complete(),
            "netlist campaign lost shards: {:?}",
            result.incomplete
        );
        result
    }

    /// Runs the campaign under an explicit execution policy. The plan has
    /// two segments — the stuck-at universe, then the transition universe
    /// — and shards never straddle the boundary, so each shard runs
    /// exactly one fault model. Records come back in plan order,
    /// byte-identical across thread counts, retries and kill-and-resume
    /// schedules; shards that exhaust the retry budget end up in the
    /// result's `incomplete` manifest.
    ///
    /// # Panics
    ///
    /// Panics if `policy.threads == 0` or the checkpoint file cannot be
    /// opened.
    pub fn run_with(&self, policy: &CampaignExec) -> NetlistCampaignResult {
        let _span = rt::obs::span("campaign.netlist");
        let report = policy.run(self.fingerprint(), &self.shards(), self);
        let result = self.result(report.records, report.incomplete);
        let (sa_total, sa_detected) = result.stuck_at();
        let (tr_total, tr_detected) = result.transition();
        rt::obs::log::info(
            "campaign",
            format!(
                "netlist {} stuck_at={sa_detected}/{sa_total} transition={tr_detected}/{tr_total} \
                 untestable={} failed_shards={}",
                self.name,
                result.untestable.len(),
                result.incomplete.len(),
            ),
        );
        result
    }
}

/// A netlist campaign is its own shard job: a pure function of the shard
/// and the campaign's state, so any scheduler may run shards in any order
/// on any thread and concatenate results in plan order. Checkpoint
/// payloads are one detected byte per record; the fault is reconstructed
/// from the plan-global index.
impl ShardJob for NetlistCampaign {
    type Record = NetlistFaultRecord;

    /// Runs one planned shard on the calling thread: PPSFP for a
    /// stuck-at shard, launch-on-capture replay against the precomputed
    /// goldens for a transition shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not from this campaign's plan.
    fn run(&self, shard: &Shard) -> Vec<NetlistFaultRecord> {
        let model = if shard.start < self.stuck.len() {
            "stuck_at"
        } else {
            "transition"
        };
        let _span = rt::obs::span(format!("shard.{model}.{}", shard.index));
        let flags: Vec<bool> = if shard.start < self.stuck.len() {
            // Stuck-at segment (plan_segmented never cuts across the
            // segment boundary, so the whole shard is one fault model).
            dsim::bitpar::ppsfp_detect(
                &self.circuit,
                &self.vectors,
                &self.stuck[shard.start..shard.start + shard.len],
            )
        } else {
            let local = shard.start - self.stuck.len();
            let t = &*self.transition;
            transition_detected(
                &self.circuit,
                &t.tests,
                &t.goldens,
                &t.faults[local..local + shard.len],
            )
        };
        // Shard-plan functions only, so the metric totals are
        // thread-count invariant.
        rt::obs::count(
            &format!("campaign.netlist.{}.{model}.faults", self.name),
            shard.len as u64,
        );
        rt::obs::count(
            &format!("campaign.netlist.{}.{model}.detected", self.name),
            flags.iter().filter(|&&d| d).count() as u64,
        );
        self.records(shard, flags)
    }

    fn encode(&self, _shard: &Shard, records: &[NetlistFaultRecord], out: &mut Vec<u8>) {
        out.extend(records.iter().map(|r| u8::from(r.detected())));
    }

    /// `None` unless the payload holds one 0/1 byte per fault of `shard`.
    fn decode(&self, shard: &Shard, payload: &[u8]) -> Option<Vec<NetlistFaultRecord>> {
        (payload.len() == shard.len && payload.iter().all(|&b| b <= 1))
            .then(|| self.records(shard, payload.iter().map(|&b| b == 1).collect()))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use msim::fault::FaultKind;

    // One shared campaign run for the crate's tests (it is the expensive
    // part of the test suite).
    pub(crate) fn result() -> &'static CampaignResult {
        use std::sync::OnceLock;
        static RESULT: OnceLock<CampaignResult> = OnceLock::new();
        RESULT.get_or_init(|| FaultCampaign::new(&DesignParams::paper()).run())
    }

    #[test]
    fn undetected_faults_are_parametric_not_gross() {
        // Every escape must be a parametric effect or a structural
        // no-change — never a dead path or stuck node.
        let r = result();
        for rec in r.undetected() {
            match rec.effect {
                AnalogEffect::None
                | AnalogEffect::ArmImbalance { .. }
                | AnalogEffect::DynamicImbalance { .. }
                | AnalogEffect::SwingScale { .. }
                | AnalogEffect::CommonModeShift { .. }
                | AnalogEffect::BiasShift { .. }
                | AnalogEffect::WindowThresholdShift { .. }
                | AnalogEffect::CpCurrentScale { .. }
                | AnalogEffect::CpBalanceDrift { .. }
                | AnalogEffect::ClockDegraded { .. }
                | AnalogEffect::VcdlStuck { .. }
                | AnalogEffect::VcdlRangeScale { .. } => {}
                ref gross => panic!("gross effect escaped: {:?} from {}", gross, rec.fault),
            }
        }
    }

    #[test]
    fn empty_campaign_reports_zero_coverage() {
        // Regression: an empty record set used to read 100 % on all
        // tiers, so an accidentally empty campaign looked perfect.
        let r = CampaignResult::from_records(Vec::new());
        assert_eq!(r.coverage_dc(), 0.0);
        assert_eq!(r.coverage_dc_scan(), 0.0);
        assert_eq!(r.coverage_total(), 0.0);
        // The per-kind vacuous truth is intentionally preserved.
        assert_eq!(r.coverage_of_kind(FaultKind::CapShort), 1.0);
    }

    #[test]
    fn empty_fraction_vs_kind_coverage_asymmetry_is_pinned() {
        // The documented asymmetry, pinned for every fault kind: on an
        // empty record set the whole-campaign fractions read 0.0 (an
        // empty campaign has demonstrated nothing), while every per-kind
        // coverage reads the vacuous 1.0 (no member of an absent Table-I
        // row can escape). Neither side may silently adopt the other's
        // convention.
        let r = CampaignResult::from_records(Vec::new());
        assert_eq!(r.total(), 0);
        assert_eq!(r.coverage_dc(), 0.0);
        assert_eq!(r.coverage_dc_scan(), 0.0);
        assert_eq!(r.coverage_total(), 0.0);
        for kind in FaultKind::ALL {
            assert_eq!(r.by_kind(kind), (0, 0), "{kind}");
            assert_eq!(r.coverage_of_kind(kind), 1.0, "{kind}");
        }
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let c = FaultCampaign::new(&DesignParams::paper());
        let seq = c.run_on(1);
        for threads in [2, 4] {
            assert_eq!(c.run_on(threads), seq, "diverged at {threads} threads");
        }
        assert_eq!(*result(), seq);
    }

    fn temp_ck(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "dft-campaign-test-{}-{tag}-{n}.ck",
            std::process::id()
        ))
    }

    #[test]
    fn sabotaged_shard_recovers_with_retries() {
        // A seeded mutant panics one shard once; with a retry budget the
        // campaign must recover the full result, byte-identical.
        let c = FaultCampaign::new(&DesignParams::paper());
        let n_shards = c.shard_count();
        let recovered = rt::check::quiet(|| {
            c.run_with(
                &CampaignExec::threads(2)
                    .with_retry(RetryPolicy::retries(2))
                    .with_sabotage(Sabotage::seeded(99, n_shards, 1)),
            )
        });
        assert!(recovered.is_complete());
        assert_eq!(&recovered, result(), "recovered records drifted");
    }

    #[test]
    fn exhausted_retries_degrade_to_partial_result() {
        // Without a retry budget a panicking class shard must not abort
        // the campaign: exactly that shard lands in the manifest, and the
        // records are exactly the faults whose class lies outside it.
        let p = DesignParams::paper();
        let c = FaultCampaign::new(&p);
        let partial = rt::check::quiet(|| {
            c.run_with(&CampaignExec::threads(2).with_sabotage(Sabotage::times(3, u32::MAX)))
        });
        assert!(!partial.is_complete());
        assert_eq!(partial.incomplete().len(), 1);
        let failure = &partial.incomplete()[0];
        assert_eq!(failure.shard, 3);
        assert_eq!(
            (failure.start, failure.len),
            (3 * CLASS_SHARD_SIZE, CLASS_SHARD_SIZE)
        );
        let lost = failure.start..failure.start + failure.len;
        let classes = EffectClasses::of(&c.universe(), &p);
        let lost_faults: usize = classes.sizes()[lost.clone()].iter().sum();
        assert!(
            lost_faults > failure.len,
            "the failed shard held singletons only"
        );
        assert_eq!(partial.total(), result().total() - lost_faults);
        // Coverage over completed shards stays a meaningful fraction.
        assert!(partial.coverage_total() > 0.5);
        // The surviving records are exactly the straight run's minus the
        // failed classes' faults, in universe order.
        let expected: Vec<&FaultRecord> = result()
            .records()
            .iter()
            .zip(classes.class_of())
            .filter(|(_, c)| !lost.contains(c))
            .map(|(r, _)| r)
            .collect();
        assert_eq!(partial.records().iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn paper_universe_collapses_to_75_effect_classes() {
        let p = DesignParams::paper();
        let universe = FaultCampaign::new(&p).universe();
        let classes = EffectClasses::of(&universe, &p);
        assert_eq!(classes.len(), 75);
        assert_eq!(classes.sizes().iter().sum::<usize>(), universe.len());
        assert_eq!(classes.class_of().len(), universe.len());
        // Identical effects from different faults merge: every member of
        // a class resolves to exactly its class's effect.
        for (fault, &c) in universe.iter().zip(classes.class_of()) {
            assert_eq!(resolve_effect(fault, &p).key(), classes.effects()[c].key());
        }
        let largest = *classes.sizes().iter().max().unwrap();
        assert!(largest > 1, "no two faults share an effect");
        // Classes are numbered in order of first appearance.
        let mut seen = 0;
        for &c in classes.class_of() {
            assert!(c <= seen);
            seen = seen.max(c + 1);
        }
    }

    #[test]
    fn grouping_merges_bit_identical_effects_only() {
        let x = 0.25;
        let classes = EffectClasses::group([
            AnalogEffect::SwingScale { factor: x },
            AnalogEffect::SwingScale {
                factor: f64::from_bits(x.to_bits() + 1),
            },
            AnalogEffect::SwingScale { factor: x },
            AnalogEffect::VcdlStuck { frac: 0.0 },
            AnalogEffect::VcdlStuck { frac: -0.0 },
            AnalogEffect::ClockDegraded { severity: f64::NAN },
            AnalogEffect::ClockDegraded { severity: 0.5 },
            AnalogEffect::ClockDegraded { severity: f64::NAN },
        ]);
        assert_eq!(classes.class_of(), &[0, 1, 0, 2, 3, 4, 5, 4]);
        assert_eq!(classes.sizes(), &[2, 1, 1, 1, 2, 1]);
    }

    #[test]
    fn campaign_counts_classes_and_keeps_per_fault_counters() {
        let c = FaultCampaign::new(&DesignParams::paper());
        let (r, m, _) = rt::obs::observe(|| c.run_on(2));
        let counter = |k: &str| m.counter(k).unwrap_or(0) as usize;
        assert_eq!(counter("campaign.effect_classes"), 75);
        assert_eq!(counter("campaign.fault.simulated"), r.total());
        assert_eq!(
            counter("campaign.fault.detected.dc"),
            r.records().iter().filter(|x| x.dc).count()
        );
        assert_eq!(
            counter("campaign.fault.detected.scan"),
            r.records().iter().filter(|x| x.scan).count()
        );
        assert_eq!(
            counter("campaign.fault.detected.bist"),
            r.records().iter().filter(|x| x.bist).count()
        );
        assert_eq!(counter("campaign.fault.undetected"), r.undetected().len());
        // One or two BIST runs per class, never one per fault.
        let bist = counter("bist.executions");
        assert!((75..=150).contains(&bist), "bist.executions {bist}");
    }

    #[test]
    fn shared_bist_stimulus_keeps_records_and_metrics_thread_invariant() {
        // Every worker thread replays the one stimulus of the campaign's
        // Bist and shares its lock outcomes; records and every captured
        // metric must not depend on how many threads drew, replayed or
        // reused them.
        let c = FaultCampaign::new(&DesignParams::paper());
        let (seq, seq_metrics, _) = rt::obs::observe(|| c.run_on(1));
        for threads in [2, 4, 7] {
            let (r, m, _) = rt::obs::observe(|| c.run_on(threads));
            assert_eq!(r, seq, "records diverged at {threads} threads");
            assert_eq!(m, seq_metrics, "metrics diverged at {threads} threads");
        }
        // The lock-run counters and histograms pinned from the campaign
        // whose synchronizer drew its stimulus inline in every run.
        let counter = |k: &str| seq_metrics.counter(k);
        assert_eq!(counter("bist.executions"), Some(96));
        // 8000 synchronizer cycles per replay, and one replay per distinct
        // loop: 57 of the 96 executions build a loop no earlier one did.
        assert_eq!(counter("bist.sync_cycles"), Some(57 * 8000));
        assert_eq!(counter("bist.lock_failures"), Some(37));
        assert_eq!(counter("bist.locked_in_budget"), Some(59));
        assert_eq!(counter("bist.lock_detector_saturated"), Some(9));
        assert_eq!(counter("bist.vp_flagged"), Some(15));
        let hist = |k: &str| {
            let h = seq_metrics.histogram(k).expect(k);
            (h.count(), h.sum(), h.min(), h.max())
        };
        assert_eq!(hist("bist.lock_cycles"), (59, 75_258, Some(0), Some(3783)));
        assert_eq!(hist("bist.corrections"), (96, 865, Some(0), Some(480)));
    }

    #[test]
    fn per_fault_checkpoint_is_rejected() {
        // A checkpoint in the older per-fault layout (64-fault shards,
        // one flags byte per fault) carries a fingerprint without the
        // class plan. Its frames, here forged to claim every class
        // detected by every tier, must never be misread as class
        // verdicts.
        let p = DesignParams::paper();
        let c = FaultCampaign::new(&p);
        let universe_len = c.universe().len();
        let per_fault_fp = exec::fingerprint(&[
            u64::from(exec::CHECKPOINT_VERSION),
            universe_len as u64,
            64,
            0xFA01, // the per-fault layout's shard seed word
            u64::from(exec::crc32(format!("{p:?}").as_bytes())),
        ]);
        let frames: Vec<exec::Frame> = (0..c.shard_count())
            .map(|i| exec::Frame {
                shard: i as u32,
                records: CLASS_SHARD_SIZE as u32,
                payload: vec![0b111; CLASS_SHARD_SIZE],
            })
            .collect();
        let path = temp_ck("per-fault");
        std::fs::write(
            &path,
            exec::encode_checkpoint(per_fault_fp, &frames).unwrap(),
        )
        .unwrap();
        let (resumed, m, _) =
            rt::obs::observe(|| c.run_with(&CampaignExec::threads(2).with_checkpoint(&path)));
        let _ = std::fs::remove_file(&path);
        assert_eq!(m.counter("exec.shards.resumed"), Some(0));
        assert_eq!(&resumed, result());
    }

    #[test]
    fn killed_campaign_resumes_byte_identically() {
        let c = FaultCampaign::new(&DesignParams::paper());
        let path = temp_ck("fault-resume");
        // First run dies on shard 7 with no retry budget — everything
        // else lands in the checkpoint.
        let partial = rt::check::quiet(|| {
            c.run_with(
                &CampaignExec::threads(2)
                    .with_checkpoint(&path)
                    .with_sabotage(Sabotage::times(7, u32::MAX)),
            )
        });
        assert!(!partial.is_complete());
        // Second run resumes from the checkpoint and completes.
        let resumed = c.run_with(&CampaignExec::threads(2).with_checkpoint(&path));
        assert!(resumed.is_complete());
        assert_eq!(&resumed, result(), "resume not byte-identical");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn universe_matches_netlists() {
        let c = FaultCampaign::new(&DesignParams::paper());
        assert_eq!(c.universe().len(), result().total());
        assert_eq!(result().total(), 99 * 6 + 9);
    }

    #[test]
    fn netlist_campaign_scores_both_fault_models() {
        let divider = dsim::blocks::divider::Divider::new(2).circuit().clone();
        let campaign = NetlistCampaign::over("divider", divider.clone()).expect("acyclic");
        let result = campaign.run_on(2);
        assert!(result.is_complete());
        let (sa_total, _) = result.stuck_at();
        let (tr_total, tr_detected) = result.transition();
        assert_eq!(sa_total, enumerate_faults(&divider).len());
        assert_eq!(tr_total, 2 * divider.net_count());
        // The ATPG completeness property as a campaign-level fact: every
        // fault PODEM did not prove untestable is detected by replay.
        assert_eq!(tr_detected, tr_total - result.untestable.len());
        assert!(result.stuck_at_coverage() > 0.0);
        assert!(result.transition_coverage() > 0.0);
    }

    /// The paper's stuck-at campaign over one stitched scan chain: 256
    /// seeded random vectors through the PPSFP kernel.
    fn chain_stuck_at(name: &str, circuit: &Circuit, seed: u64) -> NetlistCampaign {
        NetlistCampaign::configured(name, circuit.clone(), UniverseSel::StuckAt, 256, seed)
            .expect("acyclic")
    }

    /// The paper's stuck-at campaigns over the two stitched chains:
    /// scan chain A (data path, seed 37) and scan chain B (clock control,
    /// four ring phases, seed 29).
    fn paper_chain_campaigns() -> [NetlistCampaign; 2] {
        [
            chain_stuck_at("chain_a", crate::chain_a::ChainA::new().circuit(), 37),
            chain_stuck_at("chain_b", crate::chain_b::ChainB::new(4).circuit(), 29),
        ]
    }

    fn divider_campaign() -> NetlistCampaign {
        NetlistCampaign::over(
            "divider",
            dsim::blocks::divider::Divider::new(2).circuit().clone(),
        )
        .expect("acyclic")
    }

    /// `campaign` gives the same result on 1, 2, 4 and 7 workers.
    fn assert_thread_count_invariant(campaign: &NetlistCampaign) {
        let seq = campaign.run_on(1);
        for threads in [2, 4, 7] {
            assert_eq!(
                campaign.run_on(threads),
                seq,
                "{} diverged at {threads}",
                campaign.name()
            );
        }
    }

    /// `campaign` recovers from an injected panic within its retry
    /// budget, and a killed run resumes byte-identically from its
    /// checkpoint.
    fn assert_recovers_and_resumes(campaign: &NetlistCampaign, tag: &str) {
        let straight = campaign.run_on(2);
        let recovered = rt::check::quiet(|| {
            campaign.run_with(
                &CampaignExec::threads(2)
                    .with_retry(RetryPolicy::retries(1))
                    .with_sabotage(Sabotage::once(0)),
            )
        });
        assert!(recovered.is_complete());
        assert_eq!(recovered, straight);
        let path = temp_ck(tag);
        let partial = rt::check::quiet(|| {
            campaign.run_with(
                &CampaignExec::threads(2)
                    .with_checkpoint(&path)
                    .with_sabotage(Sabotage::times(0, u32::MAX)),
            )
        });
        assert!(!partial.is_complete());
        assert!(partial.records.len() < straight.records.len());
        let resumed = campaign.run_with(&CampaignExec::threads(2).with_checkpoint(&path));
        assert!(resumed.is_complete());
        assert_eq!(
            resumed,
            straight,
            "{} resume not byte-identical",
            campaign.name()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn paper_chains_reach_full_stuck_at_coverage() {
        // The paper: 100 % stuck-at coverage on the logically simple
        // chains — here as a measured number over the PPSFP kernel.
        for (campaign, faults) in paper_chain_campaigns().into_iter().zip([36, 76]) {
            let result = campaign.run();
            assert_eq!(result.stuck_at(), (faults, faults), "{}", campaign.name());
            assert_eq!(result.transition(), (0, 0));
            assert_eq!(result.stuck_at_coverage(), 1.0);
        }
    }

    #[test]
    fn digital_campaign_is_thread_count_invariant() {
        for campaign in paper_chain_campaigns() {
            assert_thread_count_invariant(&campaign);
        }
    }

    #[test]
    fn digital_campaign_recovers_and_resumes() {
        for campaign in paper_chain_campaigns() {
            assert_recovers_and_resumes(&campaign, "digital-resume");
        }
    }

    #[test]
    fn netlist_campaign_is_thread_count_invariant() {
        assert_thread_count_invariant(&divider_campaign());
    }

    #[test]
    fn netlist_campaign_recovers_and_resumes() {
        assert_recovers_and_resumes(&divider_campaign(), "netlist-resume");
    }

    /// A two-gate circuit whose first gate is `first`: a stuck-at
    /// universe of the same size for any two-input gate kind.
    fn two_gate(first: dsim::circuit::GateKind) -> Circuit {
        let mut c = Circuit::new("d");
        let [a, b, s] = ["a", "b", "s"].map(|n| c.input(n));
        let x = c.net("x");
        let y = c.net("y");
        c.gate(first, &[a, b], x);
        c.gate(dsim::circuit::GateKind::Xor, &[x, s], y);
        c.output(y);
        c
    }

    #[test]
    fn checkpoint_of_another_netlist_campaign_is_not_resumed() {
        // Each pair shares the name and every universe and pattern-set
        // size, but not the pattern seed or the circuit; a checkpoint
        // written by the first must not be trusted by the second.
        use dsim::circuit::GateKind;
        let divider = dsim::blocks::divider::Divider::new(3).circuit().clone();
        let stuck = |circuit: &Circuit, vectors, seed| {
            NetlistCampaign::configured("d", circuit.clone(), UniverseSel::StuckAt, vectors, seed)
                .expect("acyclic")
        };
        for (writer, reader) in [
            (stuck(&divider, 2, 1), stuck(&divider, 2, 5)),
            (
                stuck(&two_gate(GateKind::And), 1, 3),
                stuck(&two_gate(GateKind::Or), 1, 3),
            ),
        ] {
            let fresh = reader.run_on(2);
            assert_ne!(writer.run_on(2), fresh, "the pair must disagree");
            let path = temp_ck("netlist-foreign");
            writer.run_with(&CampaignExec::threads(2).with_checkpoint(&path));
            let (resumed, m, _) = rt::obs::observe(|| {
                reader.run_with(&CampaignExec::threads(2).with_checkpoint(&path))
            });
            let _ = std::fs::remove_file(&path);
            assert_eq!(m.counter("exec.shards.resumed"), Some(0));
            assert_eq!(resumed, fresh, "resumed a foreign checkpoint");
        }
    }

    #[test]
    fn netlist_campaign_surfaces_frontend_errors() {
        let parse = NetlistCampaign::from_verilog("module m (a; endmodule").unwrap_err();
        assert!(matches!(parse, NetlistError::Verilog(_)), "{parse}");
        // A hand-built combinational loop fails the structure check, for
        // a stuck-at-only campaign as much as for the full one.
        let mut latch = Circuit::new("latch");
        let s = latch.input("s");
        let q = latch.net("q");
        let qb = latch.net("qb");
        latch.gate(dsim::circuit::GateKind::Nand, &[s, qb], q);
        latch.gate(dsim::circuit::GateKind::Not, &[q], qb);
        latch.output(q);
        let cycle = NetlistError::Structure(StructureError::CombinationalCycle { net: q });
        let stuck_only =
            NetlistCampaign::configured("latch", latch.clone(), UniverseSel::StuckAt, 16, 1);
        assert_eq!(stuck_only.unwrap_err(), cycle);
        assert_eq!(NetlistCampaign::over("latch", latch).unwrap_err(), cycle);
    }
}
