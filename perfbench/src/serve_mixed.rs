//! `serve_mixed`: an in-process job server under seeded cold/warm
//! traffic from closed-loop clients over loopback.
//!
//! Each client repeats a block of four requests: one cold request (a
//! first-time spec with a fresh seed) and three warm requests (repeats
//! of a spec this same client already finished, so the cache answers
//! them and nothing coalesces). A client sends its next request only
//! after the previous one returned its result. The server receives
//! only the generated bodies.
//!
//! Cold kinds are dealt from [`COLD_MIX`]. Through the server on a
//! 2-core host, `stuck_at`, `netlist` on chain A and `ber_sweep` jobs
//! take 0.8–4 ms, while `netlist` on chain B and the 16-cell
//! `link_farm` grid take 25–35 ms. The slow kinds make 80 % of the cold
//! requests, so the cold p50 and p90 (the slow band's 38th and 88th
//! percentiles) and the pooled p90 (the slow band's 50th) sit inside
//! the slow band, and the pooled p50 sits inside the warm band, never
//! on a step between bands.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dft::campaign::{NetlistCampaign, UniverseSel};
use rt::obs;
use rt::rng::Rng;
use serve::client;
use serve::jobs::JobSpec;
use serve::json::{self, Value};
use serve::{ServeConfig, Server};

use crate::common::{damage, finish_trace, host_timed, median, ms, quantile, timed, Ctx, Report};

/// The cold job kinds the traffic draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ColdKind {
    StuckAtChainA,
    StuckAtChainB,
    NetlistChainA,
    NetlistChainB,
    LinkFarm,
    BerSweep,
}

/// Cold kinds per deck of 20; see the module docs. Each client deals
/// its cold kinds from a seeded shuffle of this deck, so the shares are
/// exact over every 20 cold requests.
const COLD_MIX: [(ColdKind, usize); 6] = [
    (ColdKind::StuckAtChainA, 1),
    (ColdKind::StuckAtChainB, 1),
    (ColdKind::NetlistChainA, 1),
    (ColdKind::BerSweep, 1),
    (ColdKind::NetlistChainB, 8),
    (ColdKind::LinkFarm, 8),
];

/// Stuck-at pattern budget of the campaign kinds.
const VECTORS: usize = 64;

/// Requests per block: one cold, then warm repeats.
const BLOCK: usize = 4;

/// Blocks each client sends per second of `--seconds` in an untraced
/// run. The amount of work is fixed, so the server's retained state,
/// and with it the peak RSS, does not depend on how fast the machine
/// happened to be; a calm 2-core host sends about 40 blocks per client
/// per second, so the traffic takes about three quarters of `--seconds`.
const BLOCKS_PER_SECOND: f64 = 30.0;

/// Blocks each client sends in one phase of a traced run: a fixed
/// amount of work, so every count repeats exactly, and one whole deck
/// of cold kinds.
const TRACED_BLOCKS: usize = 20;

/// Untraced/traced phase pairs of a traced run.
const TRACED_REPS: u64 = 3;

/// Server set-ups timed before the traffic, and again after it.
const SETUP_SAMPLES: usize = 10;

/// A request that has not returned its result after this long failed
/// (the slowest cold job takes tens of milliseconds).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Traffic phases. Each phase has its own spec-seed space, so no phase
/// repeats another's cold spec; a traced run's phases follow from
/// [`FIRST_TRACED_PHASE`].
const WARM_UP_PHASE: u64 = 0;
const TIMED_PHASE: u64 = 1;
const FIRST_TRACED_PHASE: u64 = 2;

/// A fresh, unique spec seed (below 2^52, so JSON numbers carry it
/// exactly) for cold request `n` of one client in one phase: 20 bits of
/// the run seed, 4 of the phase, 8 of the client, 20 of the count.
fn spec_seed(seed: u64, phase: u64, client: usize, n: usize) -> u64 {
    assert!(
        phase < 1 << 4 && client < 1 << 8 && n < 1 << 20,
        "spec seed fields overflow"
    );
    ((seed & 0xF_FFFF) << 32) | (phase << 28) | ((client as u64) << 20) | n as u64
}

impl ColdKind {
    fn label(self) -> &'static str {
        match self {
            ColdKind::StuckAtChainA => "stuck_at/chain_a",
            ColdKind::StuckAtChainB => "stuck_at/chain_b",
            ColdKind::NetlistChainA => "netlist/chain_a",
            ColdKind::NetlistChainB => "netlist/chain_b",
            ColdKind::LinkFarm => "link_farm",
            ColdKind::BerSweep => "ber_sweep",
        }
    }

    /// The campaign parameters of a campaign kind.
    fn campaign(self) -> Option<(UniverseSel, &'static str)> {
        match self {
            ColdKind::StuckAtChainA => Some((UniverseSel::StuckAt, "chain_a")),
            ColdKind::StuckAtChainB => Some((UniverseSel::StuckAt, "chain_b")),
            ColdKind::NetlistChainA => Some((UniverseSel::Both, "chain_a")),
            ColdKind::NetlistChainB => Some((UniverseSel::Both, "chain_b")),
            ColdKind::LinkFarm | ColdKind::BerSweep => None,
        }
    }

    /// Deals the next cold kind, reshuffling the deck when it runs out.
    fn deal(deck: &mut Vec<ColdKind>, rng: &mut Rng) -> ColdKind {
        if deck.is_empty() {
            for (kind, n) in COLD_MIX {
                deck.extend(std::iter::repeat_n(kind, n));
            }
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.below(i + 1));
            }
        }
        deck.pop().expect("a dealt deck is not empty")
    }

    /// The request body of a first-time spec of this kind.
    fn body(self, seed: u64) -> String {
        match self {
            ColdKind::LinkFarm => format!(
                "{{\"kind\":\"link_farm\",\"lengths_mm\":[5,10],\"swings_mv\":[40,80],\
                 \"segments\":[6],\"sigmas_mv\":[0,8],\"rates_gbps\":[2.5],\"lanes\":[4],\
                 \"couplings\":[0,0.08],\"seed\":{seed}}}"
            ),
            // sigma_ui = 1/16 + seed·2^-56 lies in [1/16, 1/8) and is
            // exact in binary, so every seed is a distinct spec.
            ColdKind::BerSweep => format!(
                "{{\"kind\":\"ber_sweep\",\"center_ui\":0.5,\"half_width_ui\":0.35,\
                 \"sigma_ui\":{:?},\"points\":1024}}",
                0.0625 + seed as f64 * 2f64.powi(-56)
            ),
            _ => {
                let (sel, circuit) = self.campaign().expect("a campaign kind");
                let kind = if sel == UniverseSel::StuckAt {
                    "stuck_at"
                } else {
                    "netlist"
                };
                format!(
                    "{{\"kind\":\"{kind}\",\"circuit\":\"{circuit}\",\"vectors\":{VECTORS},\
                     \"seed\":{seed}}}"
                )
            }
        }
    }
}

/// One finished request as its client saw it.
struct Outcome {
    /// The cold kind, or `None` for a warm request.
    cold: Option<ColdKind>,
    body: String,
    spec_seed: u64,
    latency: f64,
    post: f64,
    gets: Vec<f64>,
    /// `GET /results` replies that said "not done yet".
    polls: u32,
    result: Arc<Vec<u8>>,
    ok: bool,
}

/// Sends one request and waits for its result: POST, then poll
/// `GET /results/<id>` with a sleep of a quarter of the time waited so
/// far (20 µs to 2 ms), so latency is never a multiple of a fixed
/// polling quantum. The outcome is ok when the POST answered as planned
/// (202 accepted when cold, 200 cached when warm) and a result came.
fn request(addr: SocketAddr, body: &str, cold: Option<ColdKind>, traced: bool) -> Outcome {
    let started = Instant::now();
    let mut out = Outcome {
        cold,
        body: body.to_string(),
        spec_seed: 0,
        latency: 0.0,
        post: 0.0,
        gets: Vec::new(),
        polls: 0,
        result: Arc::new(Vec::new()),
        ok: false,
    };
    let _span = traced.then(|| {
        obs::span(if cold.is_some() {
            "serve.request.cold"
        } else {
            "serve.request.warm"
        })
    });
    let (posted, t) = timed(|| {
        let _s = traced.then(|| obs::span("serve.http.post"));
        client::request(addr, "POST", "/jobs", Some(body))
    });
    out.post = t;
    let Ok(posted) = posted else {
        return out;
    };
    let (want_status, want_disposition) = if cold.is_some() {
        (202, "accepted")
    } else {
        (200, "cached")
    };
    let reply = json::parse(&String::from_utf8_lossy(&posted.body)).ok();
    let field = |k: &str| {
        reply
            .as_ref()
            .and_then(|v| v.get(k))
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    let Some(id) = field("id") else {
        return out;
    };
    let planned =
        posted.status == want_status && field("status").as_deref() == Some(want_disposition);
    loop {
        let (got, t) = timed(|| {
            let _s = traced.then(|| obs::span("serve.http.get_result"));
            client::request(addr, "GET", &format!("/results/{id}"), None)
        });
        out.gets.push(t);
        match got {
            Ok(r) if r.status == 200 => {
                out.latency = started.elapsed().as_secs_f64();
                out.result = Arc::new(r.body);
                out.ok = planned;
                return out;
            }
            Ok(r) if r.status == 404 => {}
            _ => return out,
        }
        out.polls += 1;
        let waited = started.elapsed();
        if waited > REQUEST_TIMEOUT || (out.polls.is_multiple_of(64) && job_failed(addr, &id)) {
            return out;
        }
        std::thread::sleep((waited / 4).clamp(Duration::from_micros(20), Duration::from_millis(2)));
    }
}

fn job_failed(addr: SocketAddr, id: &str) -> bool {
    let Ok(r) = client::request(addr, "GET", &format!("/jobs/{id}"), None) else {
        return true;
    };
    let status = json::parse(&String::from_utf8_lossy(&r.body))
        .ok()
        .and_then(|v| v.get("status").and_then(Value::as_str).map(str::to_string));
    r.status != 200 || status.as_deref() == Some("failed")
}

/// One closed-loop client: `blocks` blocks of one cold and three warm
/// requests. Warm requests
/// repeat a spec this client already finished, and their body must be
/// byte-equal to that spec's cold body.
fn client_loop(
    ctx: &Ctx,
    addr: SocketAddr,
    phase: u64,
    client: usize,
    blocks: usize,
    traced: bool,
) -> Vec<Outcome> {
    let mut rng = Rng::seed_from_stream(ctx.seed, (phase << 8) | client as u64);
    let mut deck = Vec::new();
    let mut finished: Vec<(String, Arc<Vec<u8>>)> = Vec::new();
    let mut outcomes = Vec::new();
    let mut cold_sent = 0;
    for i in 0..blocks * BLOCK {
        if i % BLOCK == 0 || finished.is_empty() {
            let kind = ColdKind::deal(&mut deck, &mut rng);
            let s = spec_seed(ctx.seed, phase, client, cold_sent);
            cold_sent += 1;
            let mut out = request(addr, &kind.body(s), Some(kind), traced);
            out.spec_seed = s;
            if out.ok {
                let mut expected = out.result.as_ref().clone();
                if ctx.expect.corrupt {
                    damage(&mut expected);
                }
                finished.push((out.body.clone(), Arc::new(expected)));
            }
            outcomes.push(out);
        } else {
            let (body, expected) = finished[rng.below(finished.len())].clone();
            let mut out = request(addr, &body, None, traced);
            if out.ok && out.result != expected {
                eprintln!("perfbench: warm body differs from the cold body of {body}");
                out.ok = false;
            }
            outcomes.push(out);
        }
    }
    outcomes
}

/// Runs `clients` closed-loop clients and returns their outcomes in
/// client order, with the traffic phase's host seconds. Traced clients
/// hand their spans to this thread.
fn drive(
    ctx: &Ctx,
    addr: SocketAddr,
    phase: u64,
    blocks: usize,
    traced: bool,
) -> (Vec<Outcome>, f64) {
    host_timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ctx.threads)
                .map(|client| {
                    scope.spawn(move || {
                        let out = client_loop(ctx, addr, phase, client, blocks, traced);
                        (out, obs::drain_worker())
                    })
                })
                .collect();
            let mut all = Vec::new();
            for handle in handles {
                let (out, worker) = handle.join().expect("client thread");
                obs::absorb_worker(worker);
                all.extend(out);
            }
            all
        })
    })
}

/// Counts outcomes as checked operations.
fn check_outcomes(outcomes: &[Outcome], report: &mut Report) {
    for o in outcomes {
        report.check(o.ok, &format!("request {}", o.body));
    }
}

/// The serving counters of `GET /stats`.
fn serving_stats(addr: SocketAddr) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    if let Ok(r) = client::request(addr, "GET", "/stats", None) {
        if let Ok(Value::Obj(m)) = json::parse(&String::from_utf8_lossy(&r.body)) {
            if let Some(Value::Obj(serving)) = m.get("serving") {
                for (k, v) in serving {
                    out.insert(k.clone(), v.as_u64().unwrap_or(0));
                }
            }
        }
    }
    out
}

/// Checks the cache counters over a traffic phase: every warm request
/// was a cache hit, every cold one an admission, nothing coalesced.
/// Returns the cache hits plus coalesced requests (the latter must be 0).
fn check_cache(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    outcomes: &[Outcome],
    report: &mut Report,
) -> u64 {
    let delta = |k: &str| {
        after
            .get(k)
            .unwrap_or(&0)
            .saturating_sub(*before.get(k).unwrap_or(&0))
    };
    let warm = outcomes.iter().filter(|o| o.cold.is_none()).count() as u64;
    let cold = outcomes.len() as u64 - warm;
    let ok = delta("cache_hits") == warm && delta("coalesced") == 0 && delta("admitted") == cold;
    report.check(
        ok,
        &format!(
            "cache counters: hits {} coalesced {} admitted {} for {warm} warm / {cold} cold",
            delta("cache_hits"),
            delta("coalesced"),
            delta("admitted")
        ),
    );
    delta("cache_hits") + delta("coalesced")
}

/// Runs a spec in-process through the same job API the scheduler uses
/// (parse, validate, prepare, every shard, finalize) and returns the
/// result body.
fn direct(body: &str) -> Result<String, String> {
    let spec = JobSpec::from_value(&json::parse(body).map_err(|e| e.to_string())?)?;
    let job = spec.prepare()?;
    let payloads: Vec<Vec<u8>> = job
        .shards()
        .iter()
        .map(|s| job.run_shard(s).payload)
        .collect();
    Ok(job.finalize(spec.fingerprint(), &payloads))
}

/// Recomputes a cold request in-process and checks the server's body.
/// Returns the in-process wall time.
fn verify_cold(o: &Outcome, report: &mut Report) -> f64 {
    let (body, t) = timed(|| direct(&o.body));
    let ok = body.is_ok_and(|b| b.as_bytes() == o.result.as_slice());
    report.check(
        ok,
        &format!("server body equals the in-process body of {}", o.body),
    );
    t
}

/// Starts a server on a fresh state dir and waits for `/healthz`.
fn start(ctx: &Ctx, state: &Path) -> Server {
    let _ = std::fs::remove_dir_all(state);
    std::fs::create_dir_all(state).expect("state dir in the work dir");
    let server = Server::start(ServeConfig {
        acceptors: ctx.threads,
        workers: ctx.threads,
        state_dir: Some(state.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("loopback bind");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !client::request(server.addr(), "GET", "/healthz", None).is_ok_and(|r| r.status == 200) {
        assert!(Instant::now() < deadline, "server never became healthy");
        std::thread::sleep(Duration::from_micros(50));
    }
    server
}

fn stop(server: Server, state: &Path) {
    server.shutdown();
    let _ = std::fs::remove_dir_all(state);
}

fn latencies(outcomes: &[Outcome], cold: bool) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| o.cold.is_some() == cold)
        .map(|o| o.latency)
        .collect()
}

fn print_kinds(outcomes: &[Outcome]) {
    let mut by_kind: BTreeMap<ColdKind, Vec<f64>> = BTreeMap::new();
    for o in outcomes {
        if let Some(kind) = o.cold {
            by_kind.entry(kind).or_default().push(o.latency);
        }
    }
    for (kind, lat) in by_kind {
        eprintln!(
            "perfbench:   cold {:<18} n={:<5} p50 {:.2} ms  p90 {:.2} ms",
            kind.label(),
            lat.len(),
            ms(median(&lat)),
            ms(quantile(&lat, 0.9))
        );
    }
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
    let state = ctx.scratch("state");
    let setup_sample = || {
        let (server, t) = timed(|| start(ctx, &state));
        stop(server, &state);
        t
    };
    // Set-up samples before and after the traffic see the machine in
    // the state the traffic saw.
    let mut setups: Vec<f64> = (0..SETUP_SAMPLES).map(|_| setup_sample()).collect();
    let server = start(ctx, &state);
    let addr = server.addr();

    // Warm-up: one block per client, untimed but checked.
    let (warm_up, _) = drive(ctx, addr, WARM_UP_PHASE, 1, false);
    check_outcomes(&warm_up, &mut report);

    let blocks = (ctx.seconds * BLOCKS_PER_SECOND).ceil() as usize;
    let before = serving_stats(addr);
    let (outcomes, wall) = drive(ctx, addr, TIMED_PHASE, blocks, false);
    let after = serving_stats(addr);
    check_outcomes(&outcomes, &mut report);
    check_cache(&before, &after, &outcomes, &mut report);

    // The first cold request of every kind, recomputed in-process.
    let mut seen = Vec::new();
    for o in &outcomes {
        if let Some(kind) = o.cold.filter(|k| !seen.contains(k)) {
            seen.push(kind);
            verify_cold(o, &mut report);
        }
    }
    stop(server, &state);
    setups.extend((0..SETUP_SAMPLES).map(|_| setup_sample()));

    let all: Vec<f64> = outcomes.iter().map(|o| o.latency).collect();
    report.set("setup_s", median(&setups));
    report.set("throughput_per_s", outcomes.len() as f64 / wall);
    report.set("p50_ms", ms(median(&all)));
    let (cold, warm) = (latencies(&outcomes, true), latencies(&outcomes, false));
    eprintln!(
        "perfbench: {} requests ({} cold / {} warm) from {} clients in {wall:.2} s; cold p50 \
         {:.2} ms p90 {:.2} ms, warm p50 {:.3} ms p90 {:.3} ms",
        outcomes.len(),
        cold.len(),
        warm.len(),
        ctx.threads,
        ms(median(&cold)),
        ms(quantile(&cold, 0.9)),
        ms(median(&warm)),
        ms(quantile(&warm, 0.9)),
    );
    print_kinds(&outcomes);
    report
}

/// Files and bytes under the state dir.
fn state_usage(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if let Ok(meta) = entry.metadata() {
            if meta.is_file() {
                files += 1;
                bytes += meta.len();
            }
        }
    }
    (files, bytes)
}

fn traced(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let state: PathBuf = ctx.scratch("state");
    let server = start(ctx, &state);
    let addr = server.addr();
    let (warm_up, _) = drive(ctx, addr, WARM_UP_PHASE, 1, false);
    check_outcomes(&warm_up, &mut report);

    // Fixed plans, alternately untraced and with client spans. The
    // traced phases together are the plan the per-layer metrics cover.
    let (mut outcomes, mut events) = (Vec::new(), Vec::new());
    let (mut untraced_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let (mut wall, mut hits) = (0.0, 0);
    for rep in 0..TRACED_REPS {
        let phase = FIRST_TRACED_PHASE + 2 * rep;
        let before = serving_stats(addr);
        let (out, t) = drive(ctx, addr, phase, TRACED_BLOCKS, false);
        let after = serving_stats(addr);
        check_outcomes(&out, &mut report);
        check_cache(&before, &after, &out, &mut report);
        untraced_rates.push(out.len() as f64 / t);

        let ((out, t), _, rep_events) =
            obs::observe(|| drive(ctx, addr, phase + 1, TRACED_BLOCKS, true));
        let before = after;
        let after = serving_stats(addr);
        check_outcomes(&out, &mut report);
        hits += check_cache(&before, &after, &out, &mut report);
        traced_rates.push(out.len() as f64 / t);
        wall += t;
        outcomes.extend(out);
        events.extend(rep_events);
    }
    let hit_ratio = hits as f64 / outcomes.len() as f64;

    let scrapes: Vec<f64> = (0..5)
        .map(|_| {
            let (r, t) = timed(|| client::request(addr, "GET", "/metrics", None));
            let ok = r.is_ok_and(|r| {
                r.status == 200 && rt::obs::export::parse(&String::from_utf8_lossy(&r.body)).is_ok()
            });
            report.check(ok, "GET /metrics parses");
            t
        })
        .collect();
    let (files, bytes) = state_usage(&state);
    stop(server, &state);

    // In-process: spec parsing over every request body of the plan.
    let bodies: Vec<&str> = outcomes.iter().map(|o| o.body.as_str()).collect();
    let parse_passes: Vec<f64> = (0..20)
        .map(|_| {
            timed(|| {
                for body in &bodies {
                    let spec = json::parse(body)
                        .ok()
                        .and_then(|v| JobSpec::from_value(&v).ok());
                    std::hint::black_box(spec.map(|s| s.fingerprint()));
                }
            })
            .1
        })
        .collect();

    // In-process: every cold spec run directly (body checked), and the
    // campaign kinds split into configuration and fault simulation.
    let ((direct_by_kind, configure, run), _, direct_events) = obs::observe(|| {
        let mut direct_by_kind: BTreeMap<ColdKind, Vec<f64>> = BTreeMap::new();
        let (mut configure, mut run) = (Vec::new(), Vec::new());
        for o in &outcomes {
            let Some(kind) = o.cold else { continue };
            let t = {
                let _s = obs::span(format!("serve.direct.{}", kind.label()));
                verify_cold(o, &mut report)
            };
            direct_by_kind.entry(kind).or_default().push(t);
            if let Some((sel, chain)) = kind.campaign() {
                let circuit = if chain == "chain_a" {
                    dft::chain_a::ChainA::new().circuit().clone()
                } else {
                    dft::chain_b::ChainB::new(4).circuit().clone()
                };
                let (campaign, t) = timed(|| {
                    let _s = obs::span("dsim.netlist.configured");
                    NetlistCampaign::configured(chain, circuit, sel, VECTORS, o.spec_seed)
                });
                configure.push(t);
                let Ok(campaign) = campaign else {
                    report.check(false, "netlist campaign configures");
                    continue;
                };
                let (result, t) = timed(|| {
                    let _s = obs::span("dsim.netlist.run_on");
                    campaign.run_on(1)
                });
                report.check(result.is_complete(), "netlist campaign completes");
                run.push(t);
            }
        }
        (direct_by_kind, configure, run)
    });
    events.extend(direct_events);

    let cold = latencies(&outcomes, true);
    let warm = latencies(&outcomes, false);
    let direct_all: Vec<f64> = direct_by_kind.values().flatten().copied().collect();
    let kind_ms = |k: ColdKind| {
        ms(median(
            direct_by_kind.get(&k).map_or(&[][..], Vec::as_slice),
        ))
    };
    let posts: Vec<f64> = outcomes.iter().map(|o| o.post).collect();
    let gets: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.gets.iter().copied())
        .collect();
    let polls: u32 = outcomes
        .iter()
        .filter(|o| o.cold.is_some())
        .map(|o| o.polls)
        .sum();

    report.set("serve.requests", outcomes.len() as f64);
    report.set("serve.cold_jobs", cold.len() as f64);
    report.set("serve.warm_hits", warm.len() as f64);
    report.set("serve.cache.hits", hits as f64);
    report.set("serve.cache.hit_ratio", hit_ratio);
    report.set("serve.cold_job_p50_ms", ms(median(&cold)));
    report.set("serve.cold_job_p90_ms", ms(quantile(&cold, 0.9)));
    report.set("serve.warm_hit_p50_ms", ms(median(&warm)));
    report.set("serve.warm_hit_p90_ms", ms(quantile(&warm, 0.9)));
    report.set("serve.jobs_per_s", outcomes.len() as f64 / wall);
    report.set("serve.http.post_p50_us", median(&posts) * 1e6);
    report.set("serve.http.get_result_p50_us", median(&gets) * 1e6);
    report.set(
        "serve.http.polls_per_cold_job",
        f64::from(polls) / cold.len().max(1) as f64,
    );
    report.set(
        "serve.json.spec_parse_us",
        median(&parse_passes) * 1e6 / bodies.len().max(1) as f64,
    );
    report.set(
        "serve.sched.cold_overhead_ms",
        ms(median(&cold)) - ms(median(&direct_all)),
    );
    report.set("dsim.netlist.configure_ms", ms(median(&configure)));
    report.set("dsim.netlist.run_ms", ms(median(&run)));
    report.set("link.farm.small_grid_ms", kind_ms(ColdKind::LinkFarm));
    report.set("link.ber.sweep_ms", kind_ms(ColdKind::BerSweep));
    report.set("serve.state.files", files as f64);
    report.set("serve.state.bytes_written", bytes as f64);
    report.set("serve.metrics.scrape_ms", ms(median(&scrapes)));
    report.set(
        "trace.overhead_frac",
        median(&untraced_rates) / median(&traced_rates) - 1.0,
    );
    finish_trace(ctx, &events, &mut report);
    eprintln!(
        "perfbench: traced plan {} requests ({} cold / {} warm), hit ratio {hit_ratio}, {:.2} \
         polls per cold job",
        outcomes.len(),
        cold.len(),
        warm.len(),
        f64::from(polls) / cold.len().max(1) as f64
    );
    print_kinds(&outcomes);
    for (kind, t) in &direct_by_kind {
        eprintln!(
            "perfbench:   direct {:<18} n={:<4} p50 {:.2} ms",
            kind.label(),
            t.len(),
            ms(median(t))
        );
    }
    report
}
