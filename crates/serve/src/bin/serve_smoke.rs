//! CI smoke test for the job server (wired into `scripts/verify.sh`):
//! start on an ephemeral port, check `/healthz` carries uptime and the
//! build version, submit one small chain-A campaign, wait for
//! completion, then prove the cache contract — an identical
//! re-submission answers 200/cached with a byte-identical body while
//! the deterministic simulation counters stay flat. A second chain-A
//! campaign with another seed then proves setup reuse: it takes the
//! built-in circuit's ATPG from the first job (`jobs.setup_reused`
//! rises by one) and still reports the same `dsim.podem.*` counters,
//! replayed into its own metrics. Along the way the
//! `/metrics` exposition is scraped (failing on malformed text) and the
//! job's assembled Chrome trace is fetched; both are written under
//! `results/` as untracked CI artifacts.

use std::time::{Duration, Instant};

use serve::client;
use serve::json::{self, Value};
use serve::{ServeConfig, Server};

const SPEC: &str = r#"{"kind":"netlist","circuit":"chain_a","vectors":32,"seed":7}"#;

/// The same campaign under another seed: a fresh job whose setup reuses
/// the first job's transition ATPG.
const RESEEDED: &str = r#"{"kind":"netlist","circuit":"chain_a","vectors":32,"seed":8}"#;

fn body_str(r: &client::Response) -> String {
    String::from_utf8_lossy(&r.body).into_owned()
}

fn get(addr: std::net::SocketAddr, path: &str) -> client::Response {
    client::request(addr, "GET", path, None).unwrap_or_else(|e| panic!("GET {path}: {e}"))
}

/// The `sim` counter object from `/stats` — the fault-simulation
/// activity ledger a cache hit must not move.
fn sim_counters(addr: std::net::SocketAddr) -> Value {
    let stats = get(addr, "/stats");
    assert_eq!(stats.status, 200, "stats: {}", body_str(&stats));
    json::parse(&body_str(&stats))
        .expect("stats body parses")
        .get("sim")
        .expect("stats has sim section")
        .clone()
}

/// Submits `spec` as a fresh job and waits until it is done; returns
/// its id.
fn run_job(addr: std::net::SocketAddr, spec: &str) -> String {
    let posted = client::request(addr, "POST", "/jobs", Some(spec)).expect("POST /jobs");
    assert_eq!(posted.status, 202, "POST {spec}: {}", body_str(&posted));
    let reply = json::parse(&body_str(&posted)).expect("POST reply parses");
    let id = reply
        .get("id")
        .and_then(Value::as_str)
        .expect("POST reply names the job")
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let progress = get(addr, &format!("/jobs/{id}"));
        assert_eq!(progress.status, 200, "progress: {}", body_str(&progress));
        let p = json::parse(&body_str(&progress)).expect("progress parses");
        match p.get("status").and_then(Value::as_str) {
            Some("done") => return id,
            Some("failed") => panic!("job failed: {}", body_str(&progress)),
            _ => {}
        }
        assert!(Instant::now() < deadline, "job did not finish in time");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The `serving.setup_reused` count from `/stats`.
fn setup_reused(addr: std::net::SocketAddr) -> u64 {
    let stats = get(addr, "/stats");
    json::parse(&body_str(&stats))
        .expect("stats body parses")
        .get("serving")
        .and_then(|s| s.get("setup_reused"))
        .and_then(Value::as_u64)
        .expect("stats has serving.setup_reused")
}

/// A finished job's `dsim.podem.*` counters, from `GET /jobs/<id>`.
fn podem_counters(addr: std::net::SocketAddr, id: &str) -> Vec<(String, Value)> {
    let progress = get(addr, &format!("/jobs/{id}"));
    let p = json::parse(&body_str(&progress)).expect("progress parses");
    let Some(Value::Obj(counters)) = p.get("counters") else {
        panic!("progress carries counters: {}", body_str(&progress));
    };
    counters
        .iter()
        .filter(|(name, _)| name.starts_with("dsim.podem."))
        .map(|(name, v)| (name.clone(), v.clone()))
        .collect()
}

fn main() {
    let server = Server::start(ServeConfig::default()).expect("ephemeral bind");
    let addr = server.addr();

    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200, "healthz: {}", body_str(&health));
    let h = json::parse(&body_str(&health)).expect("healthz parses");
    assert!(
        h.get("uptime_seconds").and_then(Value::as_f64).is_some(),
        "healthz reports uptime: {}",
        body_str(&health)
    );
    assert_eq!(
        h.get("version").and_then(Value::as_str),
        Some(env!("CARGO_PKG_VERSION")),
        "healthz reports the build version"
    );

    // Submit and wait for completion.
    let id = run_job(addr, SPEC);
    let first = get(addr, &format!("/results/{id}"));
    assert_eq!(first.status, 200, "results: {}", body_str(&first));
    assert!(!first.body.is_empty(), "result body is non-empty");

    // The cache contract: identical spec → 200 cached, byte-identical
    // body, simulation counters flat.
    let sim_before = sim_counters(addr);
    let reposted = client::request(addr, "POST", "/jobs", Some(SPEC)).expect("second POST");
    assert_eq!(reposted.status, 200, "re-POST: {}", body_str(&reposted));
    let reply = json::parse(&body_str(&reposted)).expect("re-POST reply parses");
    assert_eq!(
        reply.get("status").and_then(Value::as_str),
        Some("cached"),
        "re-POST served from cache"
    );
    let second = get(addr, &format!("/results/{id}"));
    assert_eq!(second.status, 200);
    assert_eq!(second.body, first.body, "cached body is byte-identical");
    let sim_after = sim_counters(addr);
    assert_eq!(
        sim_before, sim_after,
        "cache hit re-simulated: {sim_before:?} -> {sim_after:?}"
    );

    // Setup reuse: a reseeded chain-A campaign takes the built-in
    // circuit's ATPG from the first job, and its own counters still
    // show that ATPG's work.
    let reused_before = setup_reused(addr);
    let reseeded = run_job(addr, RESEEDED);
    assert_eq!(
        setup_reused(addr),
        reused_before + 1,
        "the reseeded job reused the built-in setup"
    );
    let podem = podem_counters(addr, &id);
    assert!(!podem.is_empty(), "the first job ran PODEM");
    assert_eq!(
        podem_counters(addr, &reseeded),
        podem,
        "the reseeded job replays the first job's PODEM counters"
    );

    // Scrape /metrics once and prove the exposition is well-formed via
    // the mini parser; keep the snapshot as an untracked CI artifact.
    let scraped = get(addr, "/metrics");
    assert_eq!(scraped.status, 200, "metrics: {}", body_str(&scraped));
    let text = body_str(&scraped);
    let families = rt::obs::export::parse(&text)
        .unwrap_or_else(|e| panic!("malformed /metrics exposition: {e}\n{text}"));
    assert!(
        families.iter().any(|f| f.name == "serve_jobs_admitted"),
        "metrics carry the serving section"
    );
    assert!(
        families.iter().any(|f| f.name == "serve_jobs_setup_reused"),
        "metrics carry the setup-reuse counter"
    );
    assert!(
        families.iter().any(|f| f.name.starts_with("sim_")),
        "metrics carry the sim section"
    );

    // The assembled per-job Chrome trace, likewise archived.
    let trace = get(addr, &format!("/jobs/{id}/trace"));
    assert_eq!(trace.status, 200, "trace: {}", body_str(&trace));
    let trace_text = body_str(&trace);
    assert!(
        trace_text.contains("\"ph\": \"X\"") && trace_text.contains("\"ph\": \"M\""),
        "trace carries span and metadata events"
    );

    // verify.sh runs from the repo root; results/ holds untracked
    // artifacts (CI uploads them). Failure to write is not a test
    // failure — the contract above already passed.
    if std::fs::create_dir_all("results").is_ok() {
        let _ = std::fs::write("results/serve_metrics.prom", &text);
        let _ = std::fs::write("results/serve_trace.json", &trace_text);
    }

    server.shutdown();
    println!("serve smoke: OK");
}
