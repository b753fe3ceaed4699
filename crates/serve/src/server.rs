//! The HTTP front end: a blocking thread-pool acceptor over
//! [`std::net::TcpListener`] routing the job API onto the shared
//! [`Scheduler`].
//!
//! ## Routes
//!
//! | Route | Purpose |
//! |---|---|
//! | `POST /jobs` | Submit a job spec; 200 cached / 202 accepted / 429 over capacity |
//! | `GET /jobs/<id>` | Progress: status, shards done/total, detections, per-job counters |
//! | `GET /jobs/<id>/trace` | The job's assembled Chrome-trace JSON (open in perfetto) |
//! | `GET /results/<id>` | The finished result body (404 until done) |
//! | `GET /stats` | Serving stats + global deterministic sim counters |
//! | `GET /metrics` | Prometheus-style text exposition (`serve_*` + `sim_*`) |
//! | `GET /debug/flight` | The flight recorder's event ring, newest last |
//! | `GET /healthz` | Liveness probe with uptime and version |
//!
//! A known path answered with the wrong method gets `405 Method Not
//! Allowed` plus an `Allow` header; unknown paths get 404.
//!
//! Every connection carries one request and closes. Handler panics are
//! quarantined per connection — a poisoned request can 500 its own
//! connection but never takes an acceptor thread down. Every 4xx/5xx
//! response also lands in the [`rt::obs::flight`] recorder.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rt::obs::{export, flight, Metrics};

use crate::http::{self, Request};
use crate::jobs::JobSpec;
use crate::json::{self, Value};
use crate::sched::{Admission, Scheduler};

/// Per-connection socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Acceptor threads (each handles one connection at a time).
    pub acceptors: usize,
    /// Worker threads in the shared campaign pool (0 → one per core).
    pub workers: usize,
    /// Admission bound: unfinished jobs beyond this are rejected with
    /// 429 (0 → 64).
    pub queue_limit: usize,
    /// Directory for `.req`/`.ck`/`.res` job state for checkpointed
    /// restart; `None` keeps all state in memory.
    pub state_dir: Option<PathBuf>,
    /// Stall-watchdog floor: a shard is *slow* once its wall clock
    /// exceeds `max(stall_floor, 4 × rolling per-kind average)` and
    /// *stalled* at 4× the slow threshold (0 → 30 s). The floor keeps
    /// the watchdog quiet while the first shards of a kind calibrate
    /// the average.
    pub stall_floor: Duration,
    /// Stall-watchdog rescan period (0 → 250 ms).
    pub watchdog_poll: Duration,
    /// Test hook: while `true`, workers park before each unit of work
    /// — lets tests pin jobs in the queue to exercise admission control
    /// deterministically.
    pub shard_hold: Option<Arc<AtomicBool>>,
    /// Test hook: artificial per-shard delay, for catching a job
    /// mid-flight in kill/restart tests.
    pub shard_delay: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            acceptors: 4,
            workers: 0,
            queue_limit: 0,
            state_dir: None,
            stall_floor: Duration::ZERO,
            watchdog_poll: Duration::ZERO,
            shard_hold: None,
            shard_delay: Duration::ZERO,
        }
    }
}

/// A running server: bound address plus owned acceptor and worker
/// threads. Dropping the handle shuts everything down.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptors: Vec<JoinHandle<()>>,
    _sched: Arc<Scheduler>,
}

impl Server {
    /// Binds the listener, starts the scheduler pool and the acceptor
    /// threads, and (when a state directory is configured) resumes any
    /// unfinished persisted jobs.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable, or the
    /// creation error if the state directory cannot be created.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let started = Instant::now();
        let acceptor_count = cfg.acceptors.max(1);
        let sched = Arc::new(Scheduler::start(cfg)?);
        let stop = Arc::new(AtomicBool::new(false));
        let mut acceptors = Vec::new();
        for i in 0..acceptor_count {
            let listener = listener.try_clone()?;
            let sched = Arc::clone(&sched);
            let stop = Arc::clone(&stop);
            acceptors.push(
                std::thread::Builder::new()
                    .name(format!("serve-accept-{i}"))
                    .spawn(move || accept_loop(&listener, &sched, &stop, started))
                    .expect("acceptor thread spawns"),
            );
        }
        rt::obs::log::info("serve", format!("listening on {addr}"));
        Ok(Server {
            addr,
            stop,
            acceptors,
            _sched: sched,
        })
    }

    /// The bound address (the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful stop: acceptors drain, workers finish (and checkpoint)
    /// their current shard, queued work stays on disk for the next
    /// process.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock every acceptor parked in accept().
        for _ in 0..self.acceptors.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.acceptors.drain(..) {
            let _ = handle.join();
        }
        // The scheduler's own Drop joins the workers once the last Arc
        // goes away; nothing to do here beyond dropping our handle.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

fn accept_loop(
    listener: &TcpListener,
    sched: &Scheduler,
    stop: &Arc<AtomicBool>,
    started: Instant,
) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // A handler panic is a bug in one request's processing, not a
        // reason to stop accepting traffic: quarantine it (which also
        // keeps its half-recorded metrics out of the ambient collector)
        // and answer 500 if the socket is still writable.
        let mut stream = stream;
        if rt::obs::quarantine(|| handle_connection(&mut stream, sched, started)).is_err() {
            flight::record("http_5xx", "500 handler panic");
            let _ = http::write_response(
                &mut stream,
                500,
                "application/json",
                b"{\"error\":\"internal error\"}",
            );
        }
    }
}

/// One HTTP response: status, content type, optional extra headers
/// (the 405 `Allow` line), body.
struct Reply {
    status: u16,
    content_type: &'static str,
    allow: Option<&'static str>,
    body: String,
}

impl Reply {
    fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            allow: None,
            body,
        }
    }

    fn text(status: u16, body: String) -> Reply {
        Reply {
            status,
            content_type: "text/plain; charset=utf-8",
            allow: None,
            body,
        }
    }

    fn method_not_allowed(allow: &'static str) -> Reply {
        Reply {
            allow: Some(allow),
            ..Reply::json(405, error_body("method not allowed"))
        }
    }
}

fn handle_connection(stream: &mut TcpStream, sched: &Scheduler, started: Instant) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let request = match http::read_request(stream) {
        Ok(request) => request,
        Err(e) => {
            let status = e.status();
            flight::record(
                if status >= 500 {
                    "http_5xx"
                } else {
                    "http_4xx"
                },
                format!("{status} (malformed request: {e})"),
            );
            let body = error_body(&e.to_string());
            let _ = http::write_response(stream, status, "application/json", body.as_bytes());
            return;
        }
    };
    let reply = route(&request, sched, started);
    if reply.status >= 400 {
        flight::record(
            if reply.status >= 500 {
                "http_5xx"
            } else {
                "http_4xx"
            },
            format!("{} {} -> {}", request.method, request.path, reply.status),
        );
    }
    let extra: Vec<(&str, &str)> = reply.allow.map(|a| ("Allow", a)).into_iter().collect();
    let _ = http::write_response_with(
        stream,
        reply.status,
        reply.content_type,
        &extra,
        reply.body.as_bytes(),
    );
}

fn error_body(message: &str) -> String {
    let mut m = BTreeMap::new();
    m.insert("error".to_string(), Value::Str(message.to_string()));
    Value::Obj(m).canonical()
}

fn route(request: &Request, sched: &Scheduler, started: Instant) -> Reply {
    let method = request.method.as_str();
    let path = request.path.as_str();
    if path == "/jobs" {
        return if method == "POST" {
            post_job(request, sched)
        } else {
            Reply::method_not_allowed("POST")
        };
    }
    let known_get = matches!(path, "/healthz" | "/stats" | "/metrics" | "/debug/flight")
        || path.starts_with("/jobs/")
        || path.starts_with("/results/");
    if !known_get {
        return Reply::json(404, error_body("no such route"));
    }
    if method != "GET" {
        return Reply::method_not_allowed("GET");
    }
    match path {
        "/healthz" => Reply::json(200, healthz_body(started)),
        "/stats" => Reply::json(200, stats_body(sched)),
        "/metrics" => Reply::text(200, metrics_text(sched, started)),
        "/debug/flight" => Reply::json(200, flight::to_json(&flight::snapshot())),
        _ => {
            if let Some(rest) = path.strip_prefix("/jobs/") {
                if let Some(id) = rest.strip_suffix("/trace") {
                    job_trace(id, sched)
                } else {
                    job_progress(rest, sched)
                }
            } else {
                let id = path
                    .strip_prefix("/results/")
                    .expect("known_get covers this");
                job_result(id, sched)
            }
        }
    }
}

fn post_job(request: &Request, sched: &Scheduler) -> Reply {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Reply::json(400, error_body("body is not UTF-8"));
    };
    let value = match json::parse(text) {
        Ok(value) => value,
        Err(e) => return Reply::json(400, error_body(&e.to_string())),
    };
    let spec = match JobSpec::from_value(&value) {
        Ok(spec) => spec,
        Err(message) => return Reply::json(400, error_body(&message)),
    };
    rt::obs::count("serve.http.post_jobs", 1);
    let (status, fp, disposition) = match sched.submit(spec) {
        Admission::Cached { fp } => (200, fp, "cached"),
        Admission::Accepted { fp, fresh: true } => (202, fp, "accepted"),
        Admission::Accepted { fp, fresh: false } => (202, fp, "coalesced"),
        Admission::Busy => {
            return Reply::json(429, error_body("admission queue full, retry later"));
        }
    };
    let mut m = BTreeMap::new();
    m.insert("id".to_string(), Value::Str(format!("{fp:016x}")));
    m.insert("status".to_string(), Value::Str(disposition.to_string()));
    Reply::json(status, Value::Obj(m).canonical())
}

fn parse_id(id: &str) -> Option<u64> {
    (id.len() == 16)
        .then(|| u64::from_str_radix(id, 16).ok())
        .flatten()
}

fn job_progress(id: &str, sched: &Scheduler) -> Reply {
    let Some(fp) = parse_id(id) else {
        return Reply::json(404, error_body("malformed job id"));
    };
    let Some(progress) = sched.progress(fp) else {
        return Reply::json(404, error_body("unknown job"));
    };
    let mut m = BTreeMap::new();
    m.insert("id".to_string(), Value::Str(format!("{fp:016x}")));
    m.insert(
        "status".to_string(),
        Value::Str(progress.status.to_string()),
    );
    m.insert(
        "shards_done".to_string(),
        Value::Num(progress.shards_done as f64),
    );
    m.insert(
        "shards_total".to_string(),
        Value::Num(progress.shards_total as f64),
    );
    m.insert(
        "detections".to_string(),
        Value::Num(progress.detections as f64),
    );
    if let Some(error) = &progress.error {
        m.insert("error".to_string(), Value::Str(error.clone()));
    }
    // The per-job counters are already a JSON document; splice the
    // parsed form in rather than double-encoding it.
    let counters = json::parse(&progress.metrics).expect("Metrics::to_json emits valid JSON");
    m.insert("counters".to_string(), counters);
    Reply::json(200, Value::Obj(m).canonical())
}

fn job_result(id: &str, sched: &Scheduler) -> Reply {
    let Some(fp) = parse_id(id) else {
        return Reply::json(404, error_body("malformed job id"));
    };
    match sched.result(fp) {
        Some(body) => Reply::json(200, String::from_utf8_lossy(&body).into_owned()),
        None => Reply::json(404, error_body("no result (unknown job or not done)")),
    }
}

fn job_trace(id: &str, sched: &Scheduler) -> Reply {
    let Some(fp) = parse_id(id) else {
        return Reply::json(404, error_body("malformed job id"));
    };
    match sched.trace_json(fp) {
        Some(body) => Reply::json(200, body),
        None => Reply::json(404, error_body("unknown job")),
    }
}

fn healthz_body(started: Instant) -> String {
    let mut m = BTreeMap::new();
    m.insert("status".to_string(), Value::Str("ok".to_string()));
    m.insert(
        "uptime_seconds".to_string(),
        Value::Num(started.elapsed().as_secs() as f64),
    );
    m.insert(
        "version".to_string(),
        Value::Str(env!("CARGO_PKG_VERSION").to_string()),
    );
    Value::Obj(m).canonical()
}

/// The `/metrics` exposition: a `serve_*` section (per-request stats,
/// uptime, watchdog gauges — wall-clock state) followed by a `sim_*`
/// section (the deterministic simulation counters, byte-identical at
/// any worker count and flat across cache hits).
fn metrics_text(sched: &Scheduler, started: Instant) -> String {
    let stats = sched.stats();
    let mut serving = Metrics::new();
    for (name, v) in [
        ("jobs.admitted", stats.admitted),
        ("jobs.cache_hits", stats.cache_hits),
        ("jobs.coalesced", stats.coalesced),
        ("jobs.rejected", stats.rejected),
        ("jobs.completed", stats.completed),
        ("jobs.failed", stats.failed),
        ("shards.resumed", stats.resumed_shards),
        ("jobs.setup_reused", stats.setup_reused),
    ] {
        serving.add(name, v);
    }
    serving.set_gauge("jobs.unfinished", sched.unfinished() as i64);
    let (slow, stalled) = sched.watchdog_gauges();
    serving.set_gauge("shards.slow", slow);
    serving.set_gauge("shards.stalled", stalled);
    serving.set_gauge("uptime.seconds", started.elapsed().as_secs() as i64);
    let mut out = export::render(&serving, "serve_");
    out.push_str(&export::render(&sched.sim_metrics(), "sim_"));
    out
}

fn stats_body(sched: &Scheduler) -> String {
    let stats = sched.stats();
    let mut s = BTreeMap::new();
    for (k, v) in [
        ("admitted", stats.admitted),
        ("cache_hits", stats.cache_hits),
        ("coalesced", stats.coalesced),
        ("rejected", stats.rejected),
        ("completed", stats.completed),
        ("failed", stats.failed),
        ("resumed_shards", stats.resumed_shards),
        ("setup_reused", stats.setup_reused),
        ("unfinished", sched.unfinished() as u64),
    ] {
        s.insert(k.to_string(), Value::Num(v as f64));
    }
    let sim = json::parse(&sched.sim_metrics_json()).expect("Metrics::to_json emits valid JSON");
    let mut m = BTreeMap::new();
    m.insert("serving".to_string(), Value::Obj(s));
    m.insert("sim".to_string(), sim);
    Value::Obj(m).canonical()
}
