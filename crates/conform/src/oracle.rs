//! Differential oracles: two independent routes through the same
//! semantics must agree.
//!
//! Each oracle packages one cross-check the repository previously relied
//! on a single hand-written test (or nothing) for:
//!
//! * [`ScanVsFunctionalOracle`] — the scan protocol (shift-based load and
//!   unload) against direct functional simulation (`apply_vector`),
//! * [`LogicVsTransitionOracle`] — fault-free launch-on-capture
//!   transition simulation against two chained logic-sim cycles,
//! * [`BehavioralVsGateOracle`] — the behavioral phase-domain
//!   synchronizer against a gate-level replay of its window-comparator
//!   decisions through `dft::chain_b`,
//! * [`PackedVsScalarOracle`] — the bit-parallel packed simulator
//!   (`dsim::bitpar`) against the scalar reference: scan responses,
//!   stuck-at coverage records, coverage footprints, and the event-driven
//!   evaluator against the bounded-sweep reference — all bit-exact,
//! * [`InstrumentedPpsfpOracle`] — the PPSFP kernel under an explicit
//!   `rt::obs` metrics capture against the plain run: detection flags
//!   byte-identical and the capture non-vacuous,
//! * [`CheckpointResumeOracle`] — the fault campaign killed mid-run by a
//!   seeded shard panic and resumed from its `rt::exec` checkpoint
//!   against an uninterrupted run: records byte-identical at every
//!   probed thread count,
//! * [`EffectCollapseOracle`] — the fault campaign, which simulates each
//!   tier once per effect class, against a per-fault reference that
//!   resolves every fault and runs the tiers on it directly: records and
//!   `campaign.fault.*` counters identical at every probed thread count,
//!   and fewer classes than faults and fewer BIST replays than executions
//!   (or the check is vacuous),
//! * [`TimeExpansionOracle`] — broad-side transition ATPG
//!   (`dsim::expand`): detection of every transition fault in the
//!   two-timeframe gadget model (scalar simulation and the 64-lane packed
//!   PPSFP kernel) against
//!   `launch_capture_response` replayed on the original sequential
//!   circuit — per-test agreement, and every fault PODEM produced a test
//!   for must actually be caught on replay.
//!
//! The behavioral-vs-gate oracle carries a [`SeededMutant`] hook so the
//! oracle itself can be mutation-tested: a deliberately wrong wiring must
//! be *caught*, guarding the whole subsystem against going vacuous.
//!
//! # Examples
//!
//! ```
//! use conform::oracle::{DiffOracle, ScanVsFunctionalOracle};
//! use dft::chain_b::ChainB;
//! use dsim::atpg::random_vectors;
//!
//! let chain = ChainB::new(4);
//! let vectors = random_vectors(chain.circuit(), 16, 3);
//! let oracle = ScanVsFunctionalOracle::new(chain.circuit().clone(), vectors);
//! assert!(oracle.check().is_ok());
//! ```

use dft::bist::Bist;
use dft::campaign::{CampaignExec, FaultCampaign, FaultRecord};
use dft::chain_b::ChainB;
use dft::dc_test::DcTest;
use dft::scan_test::ScanTest;
use dsim::bitpar;
use dsim::circuit::{Circuit, SimState};
use dsim::expand::TimeExpansion;
use dsim::logic::Logic;
use dsim::scan::{apply_vector, shift, ScanResponse, ScanVector};
use dsim::stuck_at::{enumerate_faults, scan_coverage, scan_coverage_scalar, StuckAtFault};
use dsim::transition::{
    enumerate_transition_faults, launch_capture_response, responses_differ, TwoPatternTest,
};
use link::synchronizer::{decisions_from_trace, RunConfig, Synchronizer};
use msim::effects::resolve_effect;
use msim::params::DesignParams;
use msim::sim::Trace;

use crate::coverage::{batch_footprints, vector_coverage};

/// A cross-check failure: the two routes disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Name of the oracle that fired.
    pub oracle: &'static str,
    /// What disagreed, with enough context to reproduce.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "oracle '{}' diverged: {}", self.oracle, self.detail)
    }
}

impl std::error::Error for Divergence {}

/// A differential oracle: two independently implemented routes through
/// the same semantics, checked for agreement.
pub trait DiffOracle {
    /// Stable oracle name (used in reports).
    fn name(&self) -> &'static str;
    /// Runs both routes and compares; `Err` carries the first divergence.
    fn check(&self) -> Result<(), Divergence>;
}

/// Runs every oracle, stopping at the first divergence.
pub fn check_all<'a>(
    oracles: impl IntoIterator<Item = &'a dyn DiffOracle>,
) -> Result<(), Divergence> {
    for oracle in oracles {
        oracle.check()?;
    }
    Ok(())
}

/// Scan protocol vs functional simulation: loading the chain by shifting
/// and unloading the capture by shifting must observe exactly what
/// `apply_vector` computes directly.
#[derive(Debug, Clone)]
pub struct ScanVsFunctionalOracle {
    circuit: Circuit,
    vectors: Vec<ScanVector>,
}

impl ScanVsFunctionalOracle {
    /// An oracle over `vectors` on `circuit`.
    pub fn new(circuit: Circuit, vectors: Vec<ScanVector>) -> ScanVsFunctionalOracle {
        ScanVsFunctionalOracle { circuit, vectors }
    }
}

impl DiffOracle for ScanVsFunctionalOracle {
    fn name(&self) -> &'static str {
        "scan-vs-functional"
    }

    fn check(&self) -> Result<(), Divergence> {
        let c = &self.circuit;
        let n = c.dff_count();
        for (i, v) in self.vectors.iter().enumerate() {
            // Route A: direct functional application.
            let direct = apply_vector(c, &mut SimState::for_circuit(c), v);

            // Route B: the tester's view — shift the load image in (first
            // bit shifted ends up in the last flip-flop, so shift the
            // image reversed), launch and capture functionally, then
            // shift the captured state out again.
            let mut s = SimState::for_circuit(c);
            let mut image = v.load.clone();
            image.reverse();
            shift(&mut s, c, &image);
            for (&net, &val) in c.inputs().iter().zip(&v.pi) {
                s.set_input(c, net, val);
            }
            c.eval(&mut s);
            let po = s.read_outputs(c);
            c.tick(&mut s);
            let mut unloaded = shift(&mut s, c, &vec![Logic::Zero; n]);
            unloaded.reverse();

            if po != direct.po || unloaded != direct.capture {
                return Err(Divergence {
                    oracle: self.name(),
                    detail: format!(
                        "{}: vector {i}: shift route (po {po:?}, capture {unloaded:?}) \
                         vs functional (po {:?}, capture {:?})",
                        c.name(),
                        direct.po,
                        direct.capture,
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Fault-free transition simulation vs chained logic simulation: the
/// launch-on-capture two-pattern semantics must equal two back-to-back
/// `apply_vector` cycles where the second load is the first capture.
#[derive(Debug, Clone)]
pub struct LogicVsTransitionOracle {
    circuit: Circuit,
    tests: Vec<TwoPatternTest>,
}

impl LogicVsTransitionOracle {
    /// An oracle over `tests` on `circuit`.
    pub fn new(circuit: Circuit, tests: Vec<TwoPatternTest>) -> LogicVsTransitionOracle {
        LogicVsTransitionOracle { circuit, tests }
    }
}

impl DiffOracle for LogicVsTransitionOracle {
    fn name(&self) -> &'static str {
        "logic-vs-transition"
    }

    fn check(&self) -> Result<(), Divergence> {
        let c = &self.circuit;
        for (i, t) in self.tests.iter().enumerate() {
            // Route A: the transition simulator without a fault.
            let trans = launch_capture_response(c, t, None);

            // Route B: two chained logic-sim scan cycles.
            let mut s = SimState::for_circuit(c);
            let first = apply_vector(c, &mut s, &t.init);
            let chained = ScanVector {
                pi: t.launch.pi.clone(),
                load: first.capture,
            };
            let second = apply_vector(c, &mut s, &chained);

            if second.po != trans.po || second.capture != trans.capture {
                return Err(Divergence {
                    oracle: self.name(),
                    detail: format!(
                        "{}: test {i}: chained logic-sim (po {:?}, capture {:?}) \
                         vs transition-sim (po {:?}, capture {:?})",
                        c.name(),
                        second.po,
                        second.capture,
                        trans.po,
                        trans.capture,
                    ),
                });
            }
        }
        Ok(())
    }
}

/// A deliberately seeded behavioral mutant for mutation-testing the
/// behavioral-vs-gate oracle itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeededMutant {
    /// Healthy wiring.
    #[default]
    None,
    /// The window comparator's polarity is flipped at the gate-level
    /// capture flip-flops: *above* drives the `below` capture and vice
    /// versa, so the ring counter rotates the wrong way. The oracle must
    /// catch this — if it does not, it has gone vacuous.
    FlippedComparatorPolarity,
}

/// Behavioral synchronizer vs gate-level chain-B replay: the behavioral
/// run's window-comparator decisions, replayed through the gate-level
/// FSM + ring counter + lock detector, must select the same DLL phase
/// and log the same (saturated) correction count.
#[derive(Debug, Clone)]
pub struct BehavioralVsGateOracle {
    params: DesignParams,
    start_phases: Vec<usize>,
    mutant: SeededMutant,
}

impl BehavioralVsGateOracle {
    /// An oracle at the given design point, replaying from DLL phases 0
    /// and `dll_phases / 2`.
    pub fn new(params: &DesignParams) -> BehavioralVsGateOracle {
        BehavioralVsGateOracle {
            start_phases: vec![0, params.dll_phases / 2],
            params: params.clone(),
            mutant: SeededMutant::None,
        }
    }

    /// Installs a seeded mutant (mutation-testing hook).
    pub fn with_mutant(mut self, mutant: SeededMutant) -> BehavioralVsGateOracle {
        self.mutant = mutant;
        self
    }

    /// Replays a decision stream into the gate-level chain; returns the
    /// final one-hot ring position and the lock-detector count.
    fn gate_replay(&self, chain: &ChainB, decisions: &[u8], start: usize) -> (Option<usize>, u8) {
        let c = chain.circuit();
        let mut s = SimState::for_circuit(c);
        // Scan image: capture FFs zero, FSM disarmed, ring one-hot at the
        // start phase, lock counter clear.
        let mut image = vec![Logic::Zero; 3];
        for i in 0..chain.phases() {
            image.push(Logic::from_bool(i == start));
        }
        image.extend([Logic::Zero; 3]);
        s.load_ffs(&image);

        let inputs = c.inputs().to_vec();
        for &d in decisions {
            let (above, below) = match d {
                3 => (true, false),
                2 => (false, true),
                _ => (false, false),
            };
            let (above, below) = match self.mutant {
                SeededMutant::None => (above, below),
                SeededMutant::FlippedComparatorPolarity => (below, above),
            };
            s.set_input(c, inputs[0], Logic::from_bool(above));
            s.set_input(c, inputs[1], Logic::from_bool(below));
            s.set_input(c, inputs[2], Logic::Zero);
            // One divided clock: capture the comparator outputs, then act.
            c.tick(&mut s);
            c.tick(&mut s);
        }

        let ffs = s.ff_values();
        let ring = &ffs[3..3 + chain.phases()];
        let ones: Vec<usize> = ring
            .iter()
            .enumerate()
            .filter(|(_, &v)| v == Logic::One)
            .map(|(i, _)| i)
            .collect();
        let hot = if ones.len() == 1 { Some(ones[0]) } else { None };
        let lock = ffs[3 + chain.phases()..]
            .iter()
            .enumerate()
            .map(|(i, &b)| u8::from(b == Logic::One) << i)
            .sum();
        (hot, lock)
    }
}

impl DiffOracle for BehavioralVsGateOracle {
    fn name(&self) -> &'static str {
        "behavioral-vs-gate"
    }

    fn check(&self) -> Result<(), Divergence> {
        let p = &self.params;
        let chain = ChainB::new(p.dll_phases);
        for &start in &self.start_phases {
            let mut sync = Synchronizer::new(p).with_initial_phase(start);
            let mut trace = Trace::new(p.ui());
            let out = sync.run(&RunConfig::paper_bist(), Some(&mut trace));
            let decisions = decisions_from_trace(&trace);
            let (hot, lock) = self.gate_replay(&chain, &decisions, start);

            if hot != Some(out.final_phase) {
                return Err(Divergence {
                    oracle: self.name(),
                    detail: format!(
                        "start phase {start}: gate-level ring at {hot:?}, \
                         behavioral at {}",
                        out.final_phase
                    ),
                });
            }
            if u64::from(lock) != out.corrections.min(7) {
                return Err(Divergence {
                    oracle: self.name(),
                    detail: format!(
                        "start phase {start}: gate-level lock count {lock}, \
                         behavioral corrections {} (saturating at 7)",
                        out.corrections
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Packed (bit-parallel) vs scalar simulation: the word-packed two-plane
/// simulator in [`dsim::bitpar`] must agree **bit-exactly** with the
/// one-pattern-at-a-time scalar simulator on four independent routes —
/// per-vector scan responses (64-lane blocks; lane extraction vs
/// `apply_vector`, including partial final words and `X` lanes), whole
/// stuck-at coverage records (`scan_coverage` on the PPSFP kernel
/// [`bitpar::ppsfp_detect`] vs `scan_coverage_scalar`, including the
/// undetected fault order), per-vector node-activation footprints
/// (packed batch extraction vs `vector_coverage`), and the event-driven
/// evaluator ([`Circuit::eval`]) vs the bounded-sweep reference
/// ([`Circuit::eval_sweep`]), fault-free and under sampled stuck-at
/// overlays.
///
/// The last route catches a missed event wake-up: the sweep re-evaluates
/// every gate on every pass, so any gate the event scheduler forgot to
/// re-evaluate shows up as a differing response. The circuit must pass
/// [`Circuit::check`]; the simulators panic on any other.
#[derive(Debug, Clone)]
pub struct PackedVsScalarOracle {
    circuit: Circuit,
    vectors: Vec<ScanVector>,
}

impl PackedVsScalarOracle {
    /// An oracle over `vectors` on `circuit`.
    pub fn new(circuit: Circuit, vectors: Vec<ScanVector>) -> PackedVsScalarOracle {
        PackedVsScalarOracle { circuit, vectors }
    }

    /// Route 1: packed scan responses, lane by lane.
    fn check_lanes(&self) -> Result<(), Divergence> {
        let c = &self.circuit;
        for (bi, block) in self.vectors.chunks(bitpar::LANES).enumerate() {
            let packed = bitpar::apply_vectors(c, &mut bitpar::PackedState::for_circuit(c), block);
            for (k, v) in block.iter().enumerate() {
                let scalar = apply_vector(c, &mut SimState::for_circuit(c), v);
                let lane = bitpar::response_lane(&packed, k);
                if lane != scalar {
                    return Err(Divergence {
                        oracle: self.name(),
                        detail: format!(
                            "{}: block {bi} lane {k}: packed (po {:?}, capture {:?}) \
                             vs scalar (po {:?}, capture {:?})",
                            c.name(),
                            lane.po,
                            lane.capture,
                            scalar.po,
                            scalar.capture,
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Route 4 for one initial state: event-driven `Circuit::eval` (via
    /// `apply_vector`) against the sweep-composed reference.
    fn check_event_vs_sweep(
        &self,
        fault: Option<StuckAtFault>,
        label: &str,
    ) -> Result<(), Divergence> {
        let c = &self.circuit;
        for (i, v) in self.vectors.iter().enumerate() {
            let mut event_state = SimState::for_circuit(c);
            let mut sweep_state = SimState::for_circuit(c);
            if let Some(f) = fault {
                event_state.inject(f.net, f.value());
                sweep_state.inject(f.net, f.value());
            }
            let event = apply_vector(c, &mut event_state, v);
            let swept = apply_vector_sweep(c, &mut sweep_state, v);
            if event != swept {
                return Err(Divergence {
                    oracle: self.name(),
                    detail: format!(
                        "{}: vector {i} ({label}): event-driven (po {:?}, capture {:?}) \
                         vs bounded sweep (po {:?}, capture {:?})",
                        c.name(),
                        event.po,
                        event.capture,
                        swept.po,
                        swept.capture,
                    ),
                });
            }
        }
        Ok(())
    }
}

/// `apply_vector` re-composed on the bounded-sweep reference evaluator
/// ([`Circuit::eval_sweep`]), sweep-for-eval: one sweep per `eval` the
/// normal route performs (launch strobe, pre-capture, post-capture), so
/// the two routes see the same overlay transitions.
fn apply_vector_sweep(c: &Circuit, state: &mut SimState, v: &ScanVector) -> ScanResponse {
    state.load_ffs(&v.load);
    for (&net, &val) in c.inputs().iter().zip(&v.pi) {
        state.set_input(c, net, val);
    }
    c.eval_sweep(state);
    let po = state.read_outputs(c);
    // The capture edge, sweep-composed exactly like `Circuit::tick`:
    // evaluate, capture every flip-flop's `d`, propagate the new outputs.
    c.eval_sweep(state);
    let capture: Vec<Logic> = c.dffs().iter().map(|d| state.net(d.d)).collect();
    state.load_ffs(&capture);
    c.eval_sweep(state);
    ScanResponse {
        po,
        capture: state.ff_values().to_vec(),
    }
}

impl DiffOracle for PackedVsScalarOracle {
    fn name(&self) -> &'static str {
        "packed-vs-scalar"
    }

    fn check(&self) -> Result<(), Divergence> {
        let c = &self.circuit;

        // Route 1: packed scan responses, lane by lane.
        self.check_lanes()?;

        // Route 2: whole coverage records, bit-exact including order.
        let packed_cov = scan_coverage(c, &self.vectors);
        let scalar_cov = scan_coverage_scalar(c, &self.vectors);
        if packed_cov != scalar_cov {
            return Err(Divergence {
                oracle: self.name(),
                detail: format!(
                    "{}: PPSFP coverage {}/{} (undetected {:?}) vs scalar {}/{} (undetected {:?})",
                    c.name(),
                    packed_cov.detected(),
                    packed_cov.total(),
                    packed_cov.undetected(),
                    scalar_cov.detected(),
                    scalar_cov.total(),
                    scalar_cov.undetected(),
                ),
            });
        }

        // Route 3: per-vector coverage footprints.
        let packed_fp = batch_footprints(c, &self.vectors);
        for (i, (v, fp)) in self.vectors.iter().zip(&packed_fp).enumerate() {
            let scalar_fp = vector_coverage(c, v);
            if *fp != scalar_fp {
                return Err(Divergence {
                    oracle: self.name(),
                    detail: format!(
                        "{}: vector {i}: packed footprint {} points vs scalar {} points",
                        c.name(),
                        fp.points(),
                        scalar_fp.points(),
                    ),
                });
            }
        }

        // Route 4: event-driven evaluation vs the bounded-sweep
        // reference, fault-free and under a sampled set of stuck-at
        // overlays (fault injection exercises the overlay-transition
        // event seeding).
        let faults = enumerate_faults(c);
        self.check_event_vs_sweep(None, "fault-free")?;
        let stride = (faults.len() / 6).max(1);
        for f in faults.iter().step_by(stride) {
            self.check_event_vs_sweep(Some(*f), &format!("fault {f:?}"))?;
        }
        Ok(())
    }
}

/// Kill-and-resume conformance for the resumable campaign executor
/// (`rt::exec`): a fault campaign interrupted mid-run — a seeded mutant
/// panics one shard with no retry budget, so the run dies after every
/// other shard checkpointed — and then resumed from its checkpoint must
/// produce a [`dft::campaign::CampaignResult`] **byte-identical** to an
/// uninterrupted run, at every probed thread count. The interrupted run
/// itself must also degrade honestly: partial, with exactly the
/// sabotaged shard in its `incomplete` manifest.
#[derive(Debug, Clone)]
pub struct CheckpointResumeOracle {
    params: DesignParams,
    threads: Vec<usize>,
    mutant_seed: u64,
}

impl CheckpointResumeOracle {
    /// An oracle at the given design point probing 1/2/4/7 worker
    /// threads with a fixed mutant seed.
    pub fn new(params: &DesignParams) -> CheckpointResumeOracle {
        CheckpointResumeOracle {
            params: params.clone(),
            threads: vec![1, 2, 4, 7],
            mutant_seed: 0x0BAD_5EED,
        }
    }

    fn checkpoint_path(threads: usize) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "conform-resume-oracle-{}-t{threads}.ck",
            std::process::id()
        ))
    }
}

impl DiffOracle for CheckpointResumeOracle {
    fn name(&self) -> &'static str {
        "checkpoint-resume"
    }

    fn check(&self) -> Result<(), Divergence> {
        let campaign = FaultCampaign::new(&self.params);
        let shards = campaign.shard_count();
        let straight = campaign.run_on(1);
        for &threads in &self.threads {
            let path = Self::checkpoint_path(threads);
            let _ = std::fs::remove_file(&path);
            // Route A: the run dies — the seeded mutant panics its victim
            // shard on every attempt and there is no retry budget.
            let sabotage = rt::exec::Sabotage::seeded(self.mutant_seed, shards, u32::MAX);
            let victim = sabotage.target();
            let partial = rt::check::quiet(|| {
                campaign.run_with(
                    &CampaignExec::threads(threads)
                        .with_checkpoint(&path)
                        .with_sabotage(sabotage),
                )
            });
            if partial.is_complete() {
                return Err(Divergence {
                    oracle: self.name(),
                    detail: format!(
                        "{threads} threads: seeded mutant (shard {victim}) failed to \
                         interrupt the campaign — the sabotage drill is vacuous"
                    ),
                });
            }
            if partial.incomplete().len() != 1 || partial.incomplete()[0].shard != victim {
                return Err(Divergence {
                    oracle: self.name(),
                    detail: format!(
                        "{threads} threads: expected exactly shard {victim} in the \
                         incomplete manifest, got {:?}",
                        partial.incomplete()
                    ),
                });
            }
            // Route B: resume from the checkpoint, mutant disarmed.
            let resumed = campaign.run_with(&CampaignExec::threads(threads).with_checkpoint(&path));
            let _ = std::fs::remove_file(&path);
            if !resumed.is_complete() {
                return Err(Divergence {
                    oracle: self.name(),
                    detail: format!(
                        "{threads} threads: resumed run still incomplete: {:?}",
                        resumed.incomplete()
                    ),
                });
            }
            if resumed != straight {
                return Err(Divergence {
                    oracle: self.name(),
                    detail: format!(
                        "{threads} threads: resumed records differ from the \
                         uninterrupted run ({} vs {} records, total coverage \
                         {:.4} vs {:.4})",
                        resumed.total(),
                        straight.total(),
                        resumed.coverage_total(),
                        straight.coverage_total(),
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Effect-class collapsing against the per-fault route: the behavioral
/// campaign simulates each tier once per distinct effect and fans the
/// verdicts out, so at every probed thread count its records must equal,
/// fault for fault and bit for bit, a reference that resolves every fault
/// and calls the DC, scan and BIST tiers on it directly, with a fresh
/// [`Bist`] per fault so no lock outcome is reused on the reference side.
/// The run's `campaign.fault.*` counters must match the reference's
/// per-fault counts, and the check is vacuous (an error) unless the
/// campaign reports fewer `campaign.effect_classes` than faults simulated
/// and replays fewer synchronizer cycles (`bist.sync_cycles`) than its
/// BIST executions would from scratch.
#[derive(Debug, Clone)]
pub struct EffectCollapseOracle {
    params: DesignParams,
    threads: Vec<usize>,
}

impl EffectCollapseOracle {
    /// An oracle at the given design point probing 1/2/4/7 worker
    /// threads.
    pub fn new(params: &DesignParams) -> EffectCollapseOracle {
        EffectCollapseOracle {
            params: params.clone(),
            threads: vec![1, 2, 4, 7],
        }
    }

    /// The per-fault reference: every fault resolved and run through the
    /// three tiers on its own, the BIST without a memo.
    fn reference(&self, campaign: &FaultCampaign) -> Vec<FaultRecord> {
        let p = &self.params;
        let (dc, scan) = (DcTest::new(p), ScanTest::new(p));
        campaign
            .universe()
            .iter()
            .map(|&fault| {
                let effect = resolve_effect(&fault, p);
                FaultRecord {
                    fault,
                    effect,
                    dc: dc.detects(&effect),
                    scan: scan.detects(&effect),
                    bist: Bist::new(p).detects(&effect),
                }
            })
            .collect()
    }
}

impl DiffOracle for EffectCollapseOracle {
    fn name(&self) -> &'static str {
        "effect-collapse"
    }

    fn check(&self) -> Result<(), Divergence> {
        let campaign = FaultCampaign::new(&self.params);
        let reference = self.reference(&campaign);
        let count = |pred: fn(&FaultRecord) -> bool| reference.iter().filter(|r| pred(r)).count();
        let expected_counters = [
            ("campaign.fault.simulated", reference.len()),
            ("campaign.fault.detected.dc", count(|r| r.dc)),
            ("campaign.fault.detected.scan", count(|r| r.scan)),
            ("campaign.fault.detected.bist", count(|r| r.bist)),
            ("campaign.fault.undetected", count(|r| !r.detected())),
        ];
        for &threads in &self.threads {
            let (result, metrics, _) = rt::obs::observe(|| campaign.run_on(threads));
            let counter = |name: &str| metrics.counter(name).unwrap_or(0) as usize;
            let fail = |detail: String| Divergence {
                oracle: self.name(),
                detail: format!("{threads} threads: {detail}"),
            };
            let classes = counter("campaign.effect_classes");
            let simulated = counter("campaign.fault.simulated");
            if classes == 0 || classes >= simulated {
                return Err(fail(format!(
                    "{classes} effect classes for {simulated} simulated faults — \
                     nothing was collapsed, the check is vacuous"
                )));
            }
            let replayed = counter("bist.sync_cycles");
            let from_scratch = counter("bist.executions") * RunConfig::paper_bist().cycles as usize;
            if replayed >= from_scratch {
                return Err(fail(format!(
                    "{replayed} synchronizer cycles replayed, {from_scratch} if every BIST \
                     execution replayed — no lock outcome was reused, the check is vacuous"
                )));
            }
            if result.records().len() != reference.len() {
                return Err(fail(format!(
                    "{} records, per-fault reference has {}",
                    result.records().len(),
                    reference.len()
                )));
            }
            for (i, (got, want)) in result.records().iter().zip(&reference).enumerate() {
                if got != want || got.effect.key() != want.effect.key() {
                    return Err(fail(format!(
                        "fault #{i} ({}): collapsed {got:?}, per-fault {want:?}",
                        want.fault
                    )));
                }
            }
            for (name, want) in expected_counters {
                if counter(name) != want {
                    return Err(fail(format!(
                        "counter {name} = {}, per-fault reference counts {want}",
                        counter(name)
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Observability must not perturb results: the PPSFP kernel run under an
/// explicit [`rt::obs::observe`] capture must produce byte-identical
/// detection flags to the plain (ambient-collected) run, and the capture
/// must be non-vacuous (the kernel's `dsim.ppsfp.*` counters actually
/// present).
#[derive(Debug, Clone)]
pub struct InstrumentedPpsfpOracle {
    circuit: Circuit,
    vectors: Vec<ScanVector>,
}

impl InstrumentedPpsfpOracle {
    /// An oracle over `vectors` on `circuit`.
    pub fn new(circuit: Circuit, vectors: Vec<ScanVector>) -> InstrumentedPpsfpOracle {
        InstrumentedPpsfpOracle { circuit, vectors }
    }
}

impl DiffOracle for InstrumentedPpsfpOracle {
    fn name(&self) -> &'static str {
        "instrumented-vs-plain-ppsfp"
    }

    fn check(&self) -> Result<(), Divergence> {
        let c = &self.circuit;
        let faults = enumerate_faults(c);

        // Route A: the plain path — instrumentation records into whatever
        // ambient collector happens to be active, exactly as production
        // callers run it.
        let plain = bitpar::ppsfp_detect(c, &self.vectors, &faults);

        // Route B: the same kernel under an explicit capture. Flags must
        // match route A bit for bit.
        let (flags, metrics, _events) =
            rt::obs::observe(|| bitpar::ppsfp_detect(c, &self.vectors, &faults));
        if flags != plain {
            return Err(Divergence {
                oracle: self.name(),
                detail: format!(
                    "{}: capture changed detection flags ({} vs {} detected)",
                    c.name(),
                    flags.iter().filter(|&&d| d).count(),
                    plain.iter().filter(|&&d| d).count(),
                ),
            });
        }
        if metrics.counter("dsim.ppsfp.blocks").unwrap_or(0) == 0 {
            return Err(Divergence {
                oracle: self.name(),
                detail: format!(
                    "{}: capture is vacuous — no dsim.ppsfp.blocks counter",
                    c.name()
                ),
            });
        }
        Ok(())
    }
}

/// Time-expansion transition ATPG vs sequential replay: for every
/// transition fault, detection computed on the two-timeframe gadget
/// model (`dsim::expand`) must agree with
/// [`launch_capture_response`] replayed on the original sequential
/// circuit, **per test**, on three routes:
///
/// * scalar gadget simulation (`apply_vector`, fault-free vs the `sel`
///   net forced high) against the replay's known-golden detection rule,
/// * the packed PPSFP kernel on the gadget model — its any-test flag
///   must equal the replay's,
/// * ATPG completeness: every fault PODEM produced a pattern for must
///   actually be caught on replay by the generated test set (the
///   expansion is not allowed to "prove" tests that do nothing on the
///   real circuit).
///
/// The test set itself comes from [`TimeExpansion::generate_all`] —
/// PODEM vectors are fully specified, which is exactly the regime where
/// the gadget model and the replay semantics provably coincide.
#[derive(Debug, Clone)]
pub struct TimeExpansionOracle {
    circuit: Circuit,
}

impl TimeExpansionOracle {
    /// An oracle on `circuit`.
    pub fn new(circuit: Circuit) -> TimeExpansionOracle {
        TimeExpansionOracle { circuit }
    }
}

impl DiffOracle for TimeExpansionOracle {
    fn name(&self) -> &'static str {
        "time-expansion"
    }

    fn check(&self) -> Result<(), Divergence> {
        let seq = &self.circuit;
        seq.check().map_err(|e| Divergence {
            oracle: self.name(),
            detail: format!("{}: {e}", seq.name()),
        })?;
        let te = TimeExpansion::new(seq);
        let (tests, untestable) = te.generate_all();
        let faults = enumerate_transition_faults(seq);
        if !faults.is_empty() && tests.is_empty() {
            return Err(Divergence {
                oracle: self.name(),
                detail: format!(
                    "{}: ATPG produced no tests for a {}-fault universe — vacuous",
                    seq.name(),
                    faults.len()
                ),
            });
        }

        // Route B reference: fault-free replay of every test, once.
        let goldens: Vec<_> = tests
            .iter()
            .map(|t| launch_capture_response(seq, t, None))
            .collect();
        let vecs: Vec<ScanVector> = tests.iter().map(|t| te.gadget_vector(t)).collect();

        for &fault in &faults {
            // Route B: per-test replay detection on the sequential circuit.
            let replay: Vec<bool> = tests
                .iter()
                .zip(&goldens)
                .map(|(t, g)| responses_differ(g, &launch_capture_response(seq, t, Some(fault))))
                .collect();
            let replay_any = replay.iter().any(|&d| d);

            // Route A (scalar): the gadget model with `sel` forced high.
            let (model, sa) = te.faulted_model(fault);
            for (i, v) in vecs.iter().enumerate() {
                let good = apply_vector(&model, &mut SimState::for_circuit(&model), v);
                let mut s = SimState::for_circuit(&model);
                s.inject(sa.net, sa.value());
                let bad = apply_vector(&model, &mut s, v);
                let cmp = |g: &[Logic], f: &[Logic]| {
                    g.iter().zip(f).any(|(gv, fv)| gv.is_known() && gv != fv)
                };
                let gadget = cmp(&good.po, &bad.po) || cmp(&good.capture, &bad.capture);
                if gadget != replay[i] {
                    return Err(Divergence {
                        oracle: self.name(),
                        detail: format!(
                            "{}: {fault}: test {i}: gadget model says detected={gadget}, \
                             sequential replay says detected={}",
                            seq.name(),
                            replay[i],
                        ),
                    });
                }
            }

            // Route A (packed): PPSFP on the gadget model; the any-test flag
            // must match.
            let flag = bitpar::ppsfp_detect(&model, &vecs, &[sa])[0];
            if flag != replay_any {
                return Err(Divergence {
                    oracle: self.name(),
                    detail: format!(
                        "{}: {fault}: packed gadget detection {flag} vs replay {replay_any}",
                        seq.name(),
                    ),
                });
            }

            // ATPG completeness: a fault PODEM built a pattern for must be
            // caught by the set on the real circuit.
            if !untestable.contains(&fault) && !replay_any {
                return Err(Divergence {
                    oracle: self.name(),
                    detail: format!(
                        "{}: {fault}: PODEM generated a test but the replayed set \
                         never detects it",
                        seq.name(),
                    ),
                });
            }
        }
        Ok(())
    }
}
