//! Job specs: what a client asks for, how it canonicalizes into a
//! cache fingerprint, and how it plans into [`rt::exec`] shards.
//!
//! A [`JobSpec`] is the parsed, validated form of a `POST /jobs` body.
//! Its [`JobSpec::fingerprint`] is computed from the **canonical** spec
//! JSON (sorted keys, defaults spelled out, irrelevant parameters
//! normalized away), so two requests that mean the same campaign hash
//! to the same content address no matter how they were spelled — that
//! fingerprint keys the result cache, the checkpoint file, and the
//! public job id. [`JobSpec::prepare`] then does the expensive part
//! (Verilog compile, ATPG, golden responses) once per job, and the
//! resulting [`PreparedJob`] exposes the shard plan plus a pure
//! per-shard runner the scheduler interleaves across campaigns.
//!
//! The built-in circuits (`chain_a`, `chain_b`) are the exception: their
//! circuit and seed-independent [`TransitionSetup`] are built once per
//! process, by the first job that names the circuit, and shared by every
//! later job. The counters that first build recorded are kept and
//! replayed into each job's capture ([`rt::obs::replay`]), so a job's
//! deterministic metrics do not depend on whether it built the entry or
//! found it built.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use dft::campaign::{NetlistCampaign, NetlistFaultRecord, TransitionSetup, UniverseSel};
use dsim::circuit::Circuit;
use link::ber::BerModel;
use link::farm::{CellRecord, FarmAxes, FarmGrid, LinkFarm};
use rt::exec::{self, Frame, Shard, ShardJob};

use crate::json::Value;

/// Version stamp mixed into every fingerprint; bump when the spec
/// grammar or result body format changes meaning.
pub const SPEC_VERSION: u64 = 1;

/// Upper bound on the stuck-at random pattern budget per job.
pub const MAX_VECTORS: u64 = 4096;

/// Upper bound on the gates of an inline-Verilog netlist, checked on
/// the compiled circuit (28× the vendored b01 benchmark's 36). Bounds
/// the time-expansion ATPG a job's setup runs.
pub const MAX_NETLIST_GATES: usize = 1024;

/// Upper bound on the flip-flops of an inline-Verilog netlist (25× b01's
/// 5).
pub const MAX_NETLIST_DFFS: usize = 128;

/// Upper bound on BER sweep points per job (bounds the result body).
pub const MAX_POINTS: u64 = 4096;

/// Upper bound on link-farm grid cells per job (bounds the result body
/// and the sweep runtime).
pub const FARM_MAX_CELLS: usize = 4096;

/// Upper bound on values per link-farm axis.
const FARM_MAX_AXIS: usize = 32;

/// Sweep points per BER shard.
const BER_SHARD_SIZE: usize = 256;

/// The circuit a campaign job runs over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitSpec {
    /// The built-in chain A reference netlist.
    ChainA,
    /// The built-in chain B reference netlist (4 phases).
    ChainB,
    /// An inline structural Verilog module.
    Verilog(String),
}

/// A validated job request.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// A fault campaign over one netlist: the stuck-at universe, the
    /// transition universe, or both, per [`UniverseSel`].
    Campaign {
        /// Which fault universes to enumerate and simulate.
        sel: UniverseSel,
        /// The circuit under test.
        circuit: CircuitSpec,
        /// Random stuck-at pattern budget (normalized to 0 when the
        /// selection has no stuck-at universe).
        vectors: u64,
        /// Seed for the random pattern set (normalized to 0 likewise).
        seed: u64,
    },
    /// A closed-form BER bathtub sweep over sampling phase.
    BerSweep {
        /// Eye center position in UI.
        center_ui: f64,
        /// Half-width of the open eye in UI.
        half_width_ui: f64,
        /// RMS jitter in UI.
        sigma_ui: f64,
        /// Number of sweep points.
        points: u64,
    },
    /// A fabric-scale link-farm sweep: the cartesian product of
    /// [`link::farm::FarmAxes`] run as sharded grid cells.
    LinkFarm {
        /// The validated sweep axes.
        axes: FarmAxes,
        /// Monte-Carlo base seed.
        seed: u64,
    },
}

/// The setup entries of the built-in circuits, each built on first use.
/// [`JobSpec::prepare`] uses the one process-wide instance.
struct Builtins {
    chain_a: OnceLock<Builtin>,
    chain_b: OnceLock<Builtin>,
}

static BUILTINS: Builtins = Builtins::new();

/// A built-in circuit with its transition half.
struct Builtin {
    name: &'static str,
    circuit: Circuit,
    transition: Arc<TransitionSetup>,
    /// What building `transition` recorded, replayed into every job
    /// whose selection includes the transition universe.
    transition_metrics: rt::obs::Metrics,
}

impl Builtins {
    const fn new() -> Builtins {
        Builtins {
            chain_a: OnceLock::new(),
            chain_b: OnceLock::new(),
        }
    }

    /// The entry for a built-in circuit and whether it was already
    /// built. A concurrent first caller waits for the build and then
    /// counts as a reuse.
    ///
    /// # Panics
    ///
    /// Panics on [`CircuitSpec::Verilog`], which is not built in.
    fn get(&self, spec: &CircuitSpec) -> (&Builtin, bool) {
        let (cell, name, build): (_, _, fn() -> Circuit) = match spec {
            CircuitSpec::ChainA => (&self.chain_a, "chain_a", || {
                dft::chain_a::ChainA::new().circuit().clone()
            }),
            CircuitSpec::ChainB => (&self.chain_b, "chain_b", || {
                dft::chain_b::ChainB::new(4).circuit().clone()
            }),
            CircuitSpec::Verilog(_) => unreachable!("inline Verilog is not built in"),
        };
        let mut built = false;
        let entry = cell.get_or_init(|| {
            built = true;
            let circuit = build();
            let (transition, transition_metrics, _) =
                rt::obs::observe(|| Arc::new(TransitionSetup::generate(&circuit)));
            Builtin {
                name,
                circuit,
                transition,
                transition_metrics,
            }
        });
        (entry, !built)
    }
}

fn kind_str(sel: UniverseSel) -> &'static str {
    match sel {
        UniverseSel::StuckAt => "stuck_at",
        UniverseSel::Transition => "transition",
        UniverseSel::Both => "netlist",
    }
}

/// Parses link-farm axis `key`: `default` when absent, else an array of
/// 1..=[`FARM_MAX_AXIS`] values, each read by `item`.
fn axis<T: Clone>(
    v: &Value,
    key: &str,
    default: &[T],
    what: &str,
    item: impl Fn(&Value) -> Option<T>,
) -> Result<Vec<T>, String> {
    match v.get(key) {
        None => Ok(default.to_vec()),
        Some(Value::Arr(items)) => {
            if items.is_empty() || items.len() > FARM_MAX_AXIS {
                return Err(format!("\"{key}\" must hold 1..={FARM_MAX_AXIS} values"));
            }
            items
                .iter()
                .map(|x| item(x).ok_or_else(|| format!("\"{key}\" must hold {what}")))
                .collect()
        }
        Some(_) => Err(format!("\"{key}\" must be an array")),
    }
}

/// Rejects inline Verilog whose compiled circuit exceeds
/// [`MAX_NETLIST_GATES`] or [`MAX_NETLIST_DFFS`]. Source that does not
/// compile passes here: it fails as a job at setup, which reports the
/// compile error.
fn check_netlist_budget(src: &str) -> Result<(), String> {
    let Ok(c) = dsim::verilog::compile(src) else {
        return Ok(());
    };
    if c.gate_count() > MAX_NETLIST_GATES {
        return Err(format!(
            "\"verilog\" netlist has {} gates, limit {MAX_NETLIST_GATES}",
            c.gate_count()
        ));
    }
    if c.dff_count() > MAX_NETLIST_DFFS {
        return Err(format!(
            "\"verilog\" netlist has {} flip-flops, limit {MAX_NETLIST_DFFS}",
            c.dff_count()
        ));
    }
    Ok(())
}

fn finite_in(v: &Value, key: &str, lo: f64, hi: f64) -> Result<f64, String> {
    let x = v
        .get(key)
        .ok_or_else(|| format!("missing \"{key}\""))?
        .as_f64()
        .ok_or_else(|| format!("\"{key}\" must be a number"))?;
    if !x.is_finite() || !(lo..=hi).contains(&x) {
        return Err(format!("\"{key}\" must be in [{lo}, {hi}]"));
    }
    Ok(x)
}

impl JobSpec {
    /// Parses and validates a spec from a decoded request body.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (the 400 response body) when a
    /// field is missing, mistyped, out of range, the kind is unknown, or
    /// an inline netlist exceeds [`MAX_NETLIST_GATES`] or
    /// [`MAX_NETLIST_DFFS`].
    pub fn from_value(v: &Value) -> Result<JobSpec, String> {
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("missing \"kind\"")?;
        match kind {
            "stuck_at" | "transition" | "netlist" => {
                let sel = match kind {
                    "stuck_at" => UniverseSel::StuckAt,
                    "transition" => UniverseSel::Transition,
                    _ => UniverseSel::Both,
                };
                let circuit = match (v.get("circuit"), v.get("verilog")) {
                    (Some(c), None) => match c.as_str() {
                        Some("chain_a") => CircuitSpec::ChainA,
                        Some("chain_b") => CircuitSpec::ChainB,
                        _ => return Err("\"circuit\" must be \"chain_a\" or \"chain_b\"".into()),
                    },
                    (None, Some(src)) => {
                        let src = src.as_str().ok_or("\"verilog\" must be a string")?;
                        check_netlist_budget(src)?;
                        CircuitSpec::Verilog(src.to_string())
                    }
                    _ => return Err("exactly one of \"circuit\" or \"verilog\" required".into()),
                };
                // Pattern budget only exists for a stuck-at universe;
                // normalizing it away otherwise keeps the fingerprint
                // insensitive to parameters the job never reads.
                let (vectors, seed) = if sel.stuck() {
                    let vectors = match v.get("vectors") {
                        None => 256,
                        Some(n) => n.as_u64().ok_or("\"vectors\" must be an integer")?,
                    };
                    if vectors == 0 || vectors > MAX_VECTORS {
                        return Err(format!("\"vectors\" must be in [1, {MAX_VECTORS}]"));
                    }
                    let seed = match v.get("seed") {
                        None => 41,
                        Some(n) => n.as_u64().ok_or("\"seed\" must be an integer")?,
                    };
                    (vectors, seed)
                } else {
                    (0, 0)
                };
                Ok(JobSpec::Campaign {
                    sel,
                    circuit,
                    vectors,
                    seed,
                })
            }
            "ber_sweep" => {
                let center_ui = finite_in(v, "center_ui", -10.0, 10.0)?;
                // `BerModel::new` needs a strictly positive half-width and
                // jitter: reject zero here (a 400), not in `prepare`.
                let half_width_ui = finite_in(v, "half_width_ui", 1e-9, 10.0)?;
                let sigma_ui = finite_in(v, "sigma_ui", 1e-9, 10.0)?;
                let points = v
                    .get("points")
                    .map_or(Some(64), Value::as_u64)
                    .ok_or("\"points\" must be an integer")?;
                if !(2..=MAX_POINTS).contains(&points) {
                    return Err(format!("\"points\" must be in [2, {MAX_POINTS}]"));
                }
                Ok(JobSpec::BerSweep {
                    center_ui,
                    half_width_ui,
                    sigma_ui,
                    points,
                })
            }
            "link_farm" => {
                let num = |key, default: f64| axis(v, key, &[default], "numbers", Value::as_f64);
                let int = |key, default: usize| {
                    axis(v, key, &[default], "integers", |x| {
                        x.as_u64().map(|n| n as usize)
                    })
                };
                let axes = FarmAxes {
                    lengths_mm: num("lengths_mm", 10.0)?,
                    swings_mv: num("swings_mv", 60.0)?,
                    segments: int("segments", 10)?,
                    sigmas_mv: num("sigmas_mv", 0.0)?,
                    rates_gbps: num("rates_gbps", 2.5)?,
                    lanes: int("lanes", 2)?,
                    couplings: num("couplings", 0.0)?,
                };
                axes.validate().map_err(|e| e.to_string())?;
                if axes.total() > FARM_MAX_CELLS {
                    return Err(format!(
                        "grid holds {} cells, limit {FARM_MAX_CELLS}",
                        axes.total()
                    ));
                }
                let seed = match v.get("seed") {
                    None => 7,
                    Some(n) => n.as_u64().ok_or("\"seed\" must be an integer")?,
                };
                Ok(JobSpec::LinkFarm { axes, seed })
            }
            _ => Err(format!("unknown kind {kind:?}")),
        }
    }

    /// Rebuilds the canonical JSON value: every field present, defaults
    /// spelled out, irrelevant parameters normalized. Parsing the
    /// canonical form yields an identical spec, so persisted `.req`
    /// files resume exactly.
    pub fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        match self {
            JobSpec::Campaign {
                sel,
                circuit,
                vectors,
                seed,
            } => {
                m.insert("kind".into(), Value::Str(kind_str(*sel).into()));
                match circuit {
                    CircuitSpec::ChainA => {
                        m.insert("circuit".into(), Value::Str("chain_a".into()));
                    }
                    CircuitSpec::ChainB => {
                        m.insert("circuit".into(), Value::Str("chain_b".into()));
                    }
                    CircuitSpec::Verilog(src) => {
                        m.insert("verilog".into(), Value::Str(src.clone()));
                    }
                }
                m.insert("vectors".into(), Value::Num(*vectors as f64));
                m.insert("seed".into(), Value::Num(*seed as f64));
            }
            JobSpec::BerSweep {
                center_ui,
                half_width_ui,
                sigma_ui,
                points,
            } => {
                m.insert("kind".into(), Value::Str("ber_sweep".into()));
                m.insert("center_ui".into(), Value::Num(*center_ui));
                m.insert("half_width_ui".into(), Value::Num(*half_width_ui));
                m.insert("sigma_ui".into(), Value::Num(*sigma_ui));
                m.insert("points".into(), Value::Num(*points as f64));
            }
            JobSpec::LinkFarm { axes, seed } => {
                let f_arr =
                    |vals: &[f64]| Value::Arr(vals.iter().map(|&x| Value::Num(x)).collect());
                let u_arr = |vals: &[usize]| {
                    Value::Arr(vals.iter().map(|&x| Value::Num(x as f64)).collect())
                };
                m.insert("kind".into(), Value::Str("link_farm".into()));
                m.insert("lengths_mm".into(), f_arr(&axes.lengths_mm));
                m.insert("swings_mv".into(), f_arr(&axes.swings_mv));
                m.insert("segments".into(), u_arr(&axes.segments));
                m.insert("sigmas_mv".into(), f_arr(&axes.sigmas_mv));
                m.insert("rates_gbps".into(), f_arr(&axes.rates_gbps));
                m.insert("lanes".into(), u_arr(&axes.lanes));
                m.insert("couplings".into(), f_arr(&axes.couplings));
                m.insert("seed".into(), Value::Num(*seed as f64));
            }
        }
        Value::Obj(m)
    }

    /// The canonical spec JSON — the `.req` persistence format and the
    /// fingerprint input.
    pub fn canonical(&self) -> String {
        self.to_value().canonical()
    }

    /// The content address of this job: [`rt::exec::fingerprint`] over
    /// the schema version and the canonical spec bytes. Identical
    /// requests — under any spelling — share this address, which keys
    /// the result cache, the checkpoint file and the public job id.
    pub fn fingerprint(&self) -> u64 {
        let canon = self.canonical();
        exec::fingerprint(&[
            SPEC_VERSION,
            u64::from(exec::crc32(canon.as_bytes())),
            canon.len() as u64,
        ])
    }

    /// The spec's campaign kind as a short static label — the string
    /// the request body's `"kind"` field carries. Used to bucket the
    /// scheduler's per-kind shard duration estimates.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Campaign { sel, .. } => kind_str(*sel),
            JobSpec::BerSweep { .. } => "ber_sweep",
            JobSpec::LinkFarm { .. } => "link_farm",
        }
    }

    /// Runs the expensive, once-per-job setup: Verilog compile, fault
    /// universe enumeration, ATPG and fault-free goldens for campaign
    /// kinds; model construction for BER sweeps. A built-in circuit's
    /// circuit and transition half come from the process-wide entry
    /// (see the module docs); everything seed-dependent is still built
    /// per job.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the inline Verilog fails
    /// to compile or the circuit cannot be time-expanded.
    pub fn prepare(&self) -> Result<PreparedJob, String> {
        self.prepare_with(&BUILTINS)
    }

    /// [`JobSpec::prepare`] with the built-in entries taken from
    /// `builtins` (tests pass a fresh set to see a first build).
    fn prepare_with(&self, builtins: &Builtins) -> Result<PreparedJob, String> {
        let mut reused = false;
        let (shards, job): (Vec<Shard>, Box<dyn Erased>) = match self {
            JobSpec::Campaign {
                sel,
                circuit,
                vectors,
                seed,
            } => {
                let (sel, vectors, seed) = (*sel, *vectors as usize, *seed);
                let campaign = match circuit {
                    CircuitSpec::Verilog(src) => {
                        let c = dsim::verilog::compile(src).map_err(|e| e.to_string())?;
                        NetlistCampaign::configured(c.name().to_string(), c, sel, vectors, seed)
                    }
                    builtin => {
                        let (entry, already_built) = builtins.get(builtin);
                        reused = already_built;
                        NetlistCampaign::configured_with(
                            entry.name,
                            entry.circuit.clone(),
                            sel,
                            vectors,
                            seed,
                            |_| {
                                rt::obs::replay(&entry.transition_metrics);
                                Arc::clone(&entry.transition)
                            },
                        )
                    }
                }
                .map_err(|e| e.to_string())?;
                (campaign.shards(), Box::new(campaign))
            }
            JobSpec::BerSweep {
                center_ui,
                half_width_ui,
                sigma_ui,
                points,
            } => (
                exec::plan(*points as usize, BER_SHARD_SIZE),
                Box::new(BerJob {
                    model: BerModel::new(*center_ui, *half_width_ui, *sigma_ui),
                    points: *points as usize,
                }),
            ),
            JobSpec::LinkFarm { axes, seed } => {
                let grid = FarmGrid::new(axes.clone(), *seed).map_err(|e| e.to_string())?;
                let farm = LinkFarm::new(grid);
                (farm.plan(), Box::new(farm))
            }
        };
        Ok(PreparedJob {
            kind: self.kind(),
            shards,
            job,
            reused,
        })
    }
}

/// One served job kind: a [`ShardJob`] plus what the server needs on top
/// of it — a shard's detection count for progress reports and the
/// kind's fields of the result body.
trait Kind: ShardJob + Send {
    /// Deterministic counter the server bumps by each shard's item
    /// count, if the kind has one.
    const ITEMS: Option<&'static str> = None;

    /// Detections among one shard's records (none by default).
    fn detections(&self, _records: &[Self::Record]) -> u64 {
        0
    }

    /// Inserts the kind's result fields, given every shard's records
    /// concatenated in plan order.
    fn body(&self, records: Vec<Self::Record>, m: &mut BTreeMap<String, Value>);
}

/// A [`Kind`] with its record type erased to checkpoint payload bytes —
/// what a [`PreparedJob`] holds.
trait Erased: Send + Sync {
    fn payload(&self, shard: &Shard) -> Vec<u8>;
    fn payload_detections(&self, shard: &Shard, payload: &[u8]) -> Option<u64>;
    fn body(&self, shards: &[Shard], payloads: &[Vec<u8>], m: &mut BTreeMap<String, Value>);
}

impl<K: Kind> Erased for K {
    fn payload(&self, shard: &Shard) -> Vec<u8> {
        if let Some(counter) = K::ITEMS {
            rt::obs::count(counter, shard.len as u64);
        }
        let records = self.run(shard);
        let mut out = Vec::new();
        self.encode(shard, &records, &mut out);
        out
    }

    fn payload_detections(&self, shard: &Shard, payload: &[u8]) -> Option<u64> {
        Some(self.detections(&self.decode(shard, payload)?))
    }

    fn body(&self, shards: &[Shard], payloads: &[Vec<u8>], m: &mut BTreeMap<String, Value>) {
        let mut records = Vec::new();
        for (shard, payload) in shards.iter().zip(payloads) {
            records.extend(
                self.decode(shard, payload)
                    .expect("scheduler validated every payload"),
            );
        }
        Kind::body(self, records, m);
    }
}

impl Kind for NetlistCampaign {
    fn detections(&self, records: &[NetlistFaultRecord]) -> u64 {
        records.iter().filter(|r| r.detected()).count() as u64
    }

    fn body(&self, records: Vec<NetlistFaultRecord>, m: &mut BTreeMap<String, Value>) {
        let result = self.result(records, Vec::new());
        let pair = |(t, d): (usize, usize)| {
            let mut p = BTreeMap::new();
            p.insert("detected".to_string(), Value::Num(d as f64));
            p.insert("total".to_string(), Value::Num(t as f64));
            Value::Obj(p)
        };
        m.insert("name".into(), Value::Str(self.name().into()));
        m.insert("stuck_at".into(), pair(result.stuck_at()));
        m.insert("transition".into(), pair(result.transition()));
        m.insert(
            "untestable".into(),
            Value::Num(result.untestable.len() as f64),
        );
    }
}

/// A closed-form BER bathtub sweep evaluated point by point; payloads
/// are eight little-endian bytes per point.
struct BerJob {
    model: BerModel,
    points: usize,
}

impl BerJob {
    /// The sweep phase for one plan-global point index — the same
    /// mapping [`BerModel::bathtub`] uses, so a served sweep matches
    /// the library sweep bit for bit.
    fn phi(&self, i: usize) -> f64 {
        self.model.center_ui() - 0.5 + i as f64 / (self.points - 1) as f64
    }
}

impl ShardJob for BerJob {
    type Record = f64;

    fn run(&self, shard: &Shard) -> Vec<f64> {
        let _span = rt::obs::span(format!("shard.ber_sweep.{}", shard.index));
        rt::obs::count("serve.ber.points", shard.len as u64);
        shard
            .range()
            .map(|i| self.model.ber_at(self.phi(i)))
            .collect()
    }

    fn encode(&self, _shard: &Shard, records: &[f64], out: &mut Vec<u8>) {
        for ber in records {
            out.extend_from_slice(&ber.to_le_bytes());
        }
    }

    fn decode(&self, shard: &Shard, payload: &[u8]) -> Option<Vec<f64>> {
        (payload.len() == shard.len * 8).then(|| {
            payload
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect()
        })
    }
}

impl Kind for BerJob {
    fn body(&self, records: Vec<f64>, m: &mut BTreeMap<String, Value>) {
        let curve = records
            .iter()
            .enumerate()
            .map(|(i, &ber)| Value::Arr(vec![Value::Num(self.phi(i)), Value::Num(ber)]))
            .collect();
        m.insert("points".into(), Value::Arr(curve));
    }
}

impl Kind for LinkFarm {
    const ITEMS: Option<&'static str> = Some("serve.farm.cells");

    fn detections(&self, records: &[CellRecord]) -> u64 {
        records.iter().map(|r| u64::from(r.failing)).sum()
    }

    fn body(&self, records: Vec<CellRecord>, m: &mut BTreeMap<String, Value>) {
        let mut cells = Vec::with_capacity(records.len());
        let mut instances = 0u64;
        let mut failing = 0u64;
        let mut dc_detected = 0u64;
        let mut activated = 0u64;
        let mut min_eye = f64::INFINITY;
        let mut max_ber = 0.0f64;
        for r in &records {
            instances += u64::from(r.instances);
            failing += u64::from(r.failing);
            dc_detected += u64::from(r.dc_detected);
            activated += u64::from(r.xtalk_activated());
            min_eye = min_eye.min(r.eye_coupled_mv);
            max_ber = max_ber.max(r.ber);
            cells.push(Value::Arr(vec![
                Value::Num(f64::from(r.index)),
                Value::Num(r.eye_uncoupled_mv),
                Value::Num(r.eye_coupled_mv),
                Value::Num(r.ber),
                Value::Num(r.margin_ui),
                Value::Num(f64::from(r.failing)),
                Value::Num(f64::from(r.failing_uncoupled)),
                Value::Num(f64::from(r.dc_detected)),
            ]));
        }
        let mut summary = BTreeMap::new();
        summary.insert("cells".to_string(), Value::Num(records.len() as f64));
        summary.insert("instances".to_string(), Value::Num(instances as f64));
        summary.insert("failing".to_string(), Value::Num(failing as f64));
        summary.insert("dc_detected".to_string(), Value::Num(dc_detected as f64));
        summary.insert("xtalk_activated".to_string(), Value::Num(activated as f64));
        summary.insert("min_eye_coupled_mv".to_string(), Value::Num(min_eye));
        summary.insert("max_ber".to_string(), Value::Num(max_ber));
        m.insert("summary".into(), Value::Obj(summary));
        m.insert("cells".into(), Value::Arr(cells));
    }
}

/// A job after its once-per-job setup: owns everything a worker needs
/// to run any shard of it, in any order, on any thread.
pub struct PreparedJob {
    kind: &'static str,
    shards: Vec<Shard>,
    job: Box<dyn Erased>,
    reused: bool,
}

impl PreparedJob {
    /// `true` when setup took a built-in circuit's process-wide entry
    /// that an earlier job had already built.
    pub(crate) fn reused_setup(&self) -> bool {
        self.reused
    }

    /// The deterministic shard plan for this job.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Runs one planned shard to a checkpoint [`Frame`] holding the
    /// shard's encoded records. Pure — identical at any thread count
    /// and shard interleaving.
    pub fn run_shard(&self, shard: &Shard) -> Frame {
        Frame {
            shard: shard.index as u32,
            records: shard.len as u32,
            payload: self.job.payload(shard),
        }
    }

    /// Validates a (possibly resumed) shard payload and counts its
    /// detections, or `None` when the payload cannot belong to the
    /// shard — the scheduler then recomputes the shard.
    pub fn payload_detections(&self, shard: &Shard, payload: &[u8]) -> Option<u64> {
        self.job.payload_detections(shard, payload)
    }

    /// Assembles the final result body from every shard's payload in
    /// plan order. The body is canonical JSON (sorted keys), so a
    /// cached body and a recomputed body are byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if `payloads` does not hold one valid payload per
    /// planned shard (the scheduler only finalizes complete jobs).
    pub fn finalize(&self, fp: u64, payloads: &[Vec<u8>]) -> String {
        assert_eq!(
            payloads.len(),
            self.shards.len(),
            "finalize needs every shard"
        );
        let mut m = BTreeMap::new();
        m.insert("id".to_string(), Value::Str(format!("{fp:016x}")));
        m.insert("kind".to_string(), Value::Str(self.kind.into()));
        self.job.body(&self.shards, payloads, &mut m);
        Value::Obj(m).canonical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn spec(body: &str) -> JobSpec {
        JobSpec::from_value(&json::parse(body).unwrap()).unwrap()
    }

    #[test]
    fn fingerprint_is_spelling_invariant() {
        let a = spec(r#"{"kind":"stuck_at","circuit":"chain_a","vectors":256,"seed":41}"#);
        let b = spec(r#"{ "seed": 41.0, "circuit": "chain_a", "kind": "stuck_at" }"#);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Canonical form re-parses to the same spec (resume contract).
        let c = JobSpec::from_value(&json::parse(&a.canonical()).unwrap()).unwrap();
        assert_eq!(a, c);
        assert_eq!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn irrelevant_parameters_do_not_split_the_cache() {
        // A transition campaign never draws random vectors, so the
        // pattern budget must not change the content address.
        let a = spec(r#"{"kind":"transition","circuit":"chain_a","vectors":64,"seed":1}"#);
        let b = spec(r#"{"kind":"transition","circuit":"chain_a","vectors":512,"seed":9}"#);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // While a real parameter does.
        let c = spec(r#"{"kind":"stuck_at","circuit":"chain_a","vectors":64,"seed":1}"#);
        let d = spec(r#"{"kind":"stuck_at","circuit":"chain_a","vectors":65,"seed":1}"#);
        assert_ne!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn bad_specs_are_rejected_with_messages() {
        for body in [
            r#"{"circuit":"chain_a"}"#,
            r#"{"kind":"warp_drive"}"#,
            r#"{"kind":"netlist"}"#,
            r#"{"kind":"netlist","circuit":"chain_z"}"#,
            r#"{"kind":"netlist","circuit":"chain_a","verilog":"module m; endmodule"}"#,
            r#"{"kind":"stuck_at","circuit":"chain_a","vectors":0}"#,
            r#"{"kind":"stuck_at","circuit":"chain_a","vectors":1e9}"#,
            r#"{"kind":"ber_sweep","center_ui":0.5,"half_width_ui":0.35}"#,
            r#"{"kind":"ber_sweep","center_ui":0.5,"half_width_ui":0.35,"sigma_ui":0}"#,
            r#"{"kind":"ber_sweep","center_ui":0.5,"half_width_ui":0.35,"sigma_ui":0.05,"points":1}"#,
            r#"{"kind":"ber_sweep","center_ui":0.5,"half_width_ui":0,"sigma_ui":0.05}"#,
        ] {
            let v = json::parse(body).unwrap();
            assert!(JobSpec::from_value(&v).is_err(), "accepted {body}");
        }
        // A zero half-width names the accepted range.
        let v = json::parse(
            r#"{"kind":"ber_sweep","center_ui":0.5,"half_width_ui":0,"sigma_ui":0.05}"#,
        )
        .unwrap();
        let msg = JobSpec::from_value(&v).unwrap_err();
        assert!(
            msg.contains("half_width_ui") && msg.contains("10]"),
            "{msg}"
        );
    }

    #[test]
    fn ber_job_matches_the_library_bathtub() {
        let s = spec(
            r#"{"kind":"ber_sweep","center_ui":0.5,"half_width_ui":0.35,"sigma_ui":0.06,"points":33}"#,
        );
        let job = s.prepare().unwrap();
        let shards = job.shards();
        let mut payloads = vec![Vec::new(); shards.len()];
        for shard in shards {
            let frame = job.run_shard(shard);
            assert_eq!(frame.records as usize, shard.len);
            assert_eq!(
                job.payload_detections(shard, &frame.payload),
                Some(0),
                "ber payload validates"
            );
            payloads[shard.index] = frame.payload;
        }
        let body = job.finalize(s.fingerprint(), &payloads);
        let reference = BerModel::new(0.5, 0.35, 0.06).bathtub(33);
        let parsed = json::parse(&body).unwrap();
        let points = match parsed.get("points") {
            Some(Value::Arr(p)) => p.clone(),
            _ => panic!("body has points"),
        };
        assert_eq!(points.len(), reference.len());
        for (pair, (phi, ber)) in points.iter().zip(reference) {
            let Value::Arr(pv) = pair else { panic!("pair") };
            assert_eq!(pv[0].as_f64().unwrap(), phi);
            assert_eq!(pv[1].as_f64().unwrap(), ber);
        }
        // Byte-identical on recomputation.
        let again: Vec<Vec<u8>> = shards.iter().map(|s| job.run_shard(s).payload).collect();
        assert_eq!(job.finalize(s.fingerprint(), &again), body);
    }

    #[test]
    fn campaign_job_shards_reproduce_the_local_run() {
        let s = spec(r#"{"kind":"netlist","circuit":"chain_a","vectors":32,"seed":7}"#);
        let job = s.prepare().unwrap();
        let shards = job.shards();
        // Two-segment plan: one stuck-at shard, one transition shard.
        assert_eq!(shards.len(), 2, "chain_a plans both universes");
        let mut payloads = vec![Vec::new(); shards.len()];
        let mut detections = 0;
        // Run shards in reverse to prove order independence.
        for shard in shards.iter().rev() {
            let frame = job.run_shard(shard);
            detections += job
                .payload_detections(shard, &frame.payload)
                .expect("fresh payload validates");
            payloads[shard.index] = frame.payload;
        }
        let body = job.finalize(s.fingerprint(), &payloads);
        let parsed = json::parse(&body).unwrap();
        let field = |model: &str, key: &str| {
            parsed
                .get(model)
                .and_then(|p| p.get(key))
                .and_then(Value::as_u64)
                .unwrap()
        };
        assert_eq!(
            field("stuck_at", "detected") + field("transition", "detected"),
            detections
        );
        assert!(field("stuck_at", "total") > 0);
        assert!(field("transition", "total") > 0);
        assert_eq!(parsed.get("kind").and_then(Value::as_str), Some("netlist"));
        // Corrupt payloads are rejected, not trusted.
        assert_eq!(job.payload_detections(&shards[0], &[7u8; 3]), None);
    }

    /// Runs every shard of a prepared job and finalizes it.
    fn run_all(job: &PreparedJob, fp: u64) -> String {
        let payloads: Vec<Vec<u8>> = job
            .shards()
            .iter()
            .map(|s| job.run_shard(s).payload)
            .collect();
        job.finalize(fp, &payloads)
    }

    /// Body and counters of a built-in campaign spec built from scratch
    /// by `NetlistCampaign::configured`, bypassing every setup entry.
    fn fresh_run(s: &JobSpec) -> (String, String) {
        let JobSpec::Campaign {
            sel,
            circuit,
            vectors,
            seed,
        } = s
        else {
            panic!("not a campaign spec");
        };
        let (body, metrics, _) = rt::obs::observe(|| {
            let (name, c) = match circuit {
                CircuitSpec::ChainA => ("chain_a", dft::chain_a::ChainA::new().circuit().clone()),
                CircuitSpec::ChainB => ("chain_b", dft::chain_b::ChainB::new(4).circuit().clone()),
                CircuitSpec::Verilog(_) => panic!("not a built-in circuit"),
            };
            let campaign =
                NetlistCampaign::configured(name, c, *sel, *vectors as usize, *seed).unwrap();
            let job = PreparedJob {
                kind: s.kind(),
                shards: campaign.shards(),
                job: Box::new(campaign),
                reused: false,
            };
            run_all(&job, s.fingerprint())
        });
        (body, metrics.to_json())
    }

    /// Body, counters and reuse flag of a spec prepared through `builtins`.
    fn served_run(s: &JobSpec, builtins: &Builtins) -> (String, String, bool) {
        let ((body, reused), metrics, _) = rt::obs::observe(|| {
            let job = s.prepare_with(builtins).unwrap();
            (run_all(&job, s.fingerprint()), job.reused_setup())
        });
        (body, metrics.to_json(), reused)
    }

    #[test]
    fn builtin_setup_reuse_is_byte_identical() {
        for circuit in ["chain_a", "chain_b"] {
            for kind in ["stuck_at", "transition", "netlist"] {
                for seed in [3, 8] {
                    let s = spec(&format!(
                        r#"{{"kind":"{kind}","circuit":"{circuit}","vectors":48,"seed":{seed}}}"#
                    ));
                    let (body, metrics) = fresh_run(&s);
                    let builtins = Builtins::new();
                    for reuse in [false, true] {
                        let served = served_run(&s, &builtins);
                        let what = format!("{kind}/{circuit}/{seed} reuse={reuse}");
                        assert_eq!(served.2, reuse, "{what}: reuse flag");
                        assert_eq!(served.0, body, "{what}: body");
                        assert_eq!(served.1, metrics, "{what}: counters");
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_first_setups_report_identical_metrics() {
        let s = spec(r#"{"kind":"netlist","circuit":"chain_b","vectors":48,"seed":5}"#);
        let (body, metrics) = fresh_run(&s);
        let builtins = Builtins::new();
        let start = std::sync::Barrier::new(2);
        let runs: Vec<(String, String, bool)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        served_run(&s, &builtins)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let reused = runs.iter().filter(|r| r.2).count();
        assert_eq!(reused, 1, "exactly one setup builds the entry");
        for (b, m, _) in runs {
            assert_eq!(b, body);
            assert_eq!(m, metrics);
        }
    }

    #[test]
    fn link_farm_fingerprint_is_spelling_invariant() {
        let a = spec(r#"{"kind":"link_farm","lengths_mm":[5,10],"couplings":[0.0,0.08],"seed":7}"#);
        let b = spec(
            r#"{ "seed": 7.0, "couplings": [0, 8e-2], "kind": "link_farm",
                 "lengths_mm": [5.0, 10.0], "swings_mv": [60.0], "segments": [10],
                 "sigmas_mv": [0], "rates_gbps": [2.5], "lanes": [2] }"#,
        );
        assert_eq!(a, b, "defaults spell out to the same spec");
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Canonical form re-parses to the same spec (resume contract).
        let c = JobSpec::from_value(&json::parse(&a.canonical()).unwrap()).unwrap();
        assert_eq!(a, c);
        assert_eq!(a.fingerprint(), c.fingerprint());
        // Axis order is grid order, so reordering is a different job.
        let d = spec(r#"{"kind":"link_farm","lengths_mm":[10,5],"couplings":[0.0,0.08],"seed":7}"#);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn bad_link_farm_specs_are_rejected() {
        for body in [
            r#"{"kind":"link_farm","lengths_mm":[]}"#,
            r#"{"kind":"link_farm","lengths_mm":"10"}"#,
            r#"{"kind":"link_farm","lengths_mm":[999]}"#,
            r#"{"kind":"link_farm","lanes":[0]}"#,
            r#"{"kind":"link_farm","couplings":[-0.5]}"#,
            r#"{"kind":"link_farm","seed":"x"}"#,
            // 17^4 > 4096 cells: the grid cap trips before any work.
            r#"{"kind":"link_farm","lengths_mm":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17],
                "swings_mv":[10,20,30,40,50,60,70,80,90,100,110,120,130,140,150,160,170],
                "sigmas_mv":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16],
                "couplings":[0,0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08,0.09,0.1,0.11,0.12,0.13,0.14,0.15,0.16]}"#,
        ] {
            let v = json::parse(body).unwrap();
            assert!(JobSpec::from_value(&v).is_err(), "accepted {body}");
        }
    }

    #[test]
    fn link_farm_job_shards_reproduce_the_library_run() {
        use link::farm::{FarmAxes, FarmGrid, LinkFarm};
        use rt::exec::RetryPolicy;
        let s = spec(
            r#"{"kind":"link_farm","lengths_mm":[5,10],"lanes":[4],
                "sigmas_mv":[8.0],"segments":[4],"couplings":[0.0,0.08],"seed":7}"#,
        );
        assert_eq!(s.kind(), "link_farm");
        let job = s.prepare().unwrap();
        let shards = job.shards();
        let mut payloads = vec![Vec::new(); shards.len()];
        let mut detections = 0;
        for shard in shards.iter().rev() {
            let frame = job.run_shard(shard);
            assert_eq!(frame.records as usize, shard.len);
            detections += job
                .payload_detections(shard, &frame.payload)
                .expect("fresh payload validates");
            payloads[shard.index] = frame.payload;
        }
        // The served shards and the library farm agree record for record.
        let mut axes = FarmAxes::paper_point();
        axes.lengths_mm = vec![5.0, 10.0];
        axes.lanes = vec![4];
        axes.sigmas_mv = vec![8.0];
        axes.segments = vec![4];
        axes.couplings = vec![0.0, 0.08];
        let farm = LinkFarm::new(FarmGrid::new(axes, 7).unwrap());
        let reference = farm.run(1, &RetryPolicy::none(), None);
        let failing: u64 = reference.records.iter().map(|r| u64::from(r.failing)).sum();
        assert_eq!(detections, failing);
        let body = job.finalize(s.fingerprint(), &payloads);
        let parsed = json::parse(&body).unwrap();
        assert_eq!(
            parsed.get("kind").and_then(Value::as_str),
            Some("link_farm")
        );
        let summary = parsed.get("summary").unwrap();
        assert_eq!(
            summary.get("cells").and_then(Value::as_u64),
            Some(reference.records.len() as u64)
        );
        assert_eq!(
            summary.get("failing").and_then(Value::as_u64),
            Some(failing)
        );
        assert!(
            summary
                .get("xtalk_activated")
                .and_then(Value::as_u64)
                .unwrap()
                > 0,
            "the coupled half of the grid must activate faults"
        );
        // Byte-identical on recomputation, corrupt payloads rejected.
        let again: Vec<Vec<u8>> = shards.iter().map(|s| job.run_shard(s).payload).collect();
        assert_eq!(job.finalize(s.fingerprint(), &again), body);
        assert_eq!(job.payload_detections(&shards[0], &[7u8; 3]), None);
    }
}
