//! End-to-end tests of the service observability surface: the
//! `/metrics` exposition (well-formed, deterministic sim section at
//! any worker count), per-job Chrome-trace assembly, the stall
//! watchdog against a held shard, and 405 method handling.

mod common;

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{body_str, get, job_id, post_job, progress, sim_section, wait_done};
use rt::obs::export;
use serve::client;
use serve::json::Value;
use serve::{ServeConfig, Server};

/// Scrapes `/metrics`, asserting the whole exposition parses.
fn scrape(addr: SocketAddr) -> (String, Vec<export::Family>) {
    let r = get(addr, "/metrics");
    assert_eq!(r.status, 200);
    let text = body_str(&r);
    let families =
        export::parse(&text).unwrap_or_else(|e| panic!("malformed exposition: {e}\n{text}"));
    (text, families)
}

fn gauge_value(families: &[export::Family], name: &str) -> i128 {
    families
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no family {name}"))
        .value()
}

#[test]
fn sim_metrics_are_byte_identical_across_worker_counts() {
    let spec = r#"{"kind":"netlist","circuit":"chain_a","vectors":24,"seed":11}"#;
    let mut sections: Vec<(usize, String)> = Vec::new();
    for workers in [1usize, 2, 4, 7] {
        let server = Server::start(ServeConfig {
            workers,
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        let posted = post_job(addr, spec);
        assert_eq!(posted.status, 202, "POST: {}", body_str(&posted));
        wait_done(addr, &job_id(&posted));
        let (text, families) = scrape(addr);
        assert!(
            families.iter().any(|f| f.name.starts_with("sim_")),
            "sim section present at {workers} workers"
        );
        sections.push((workers, sim_section(&text)));
        server.shutdown();
    }
    let (_, reference) = &sections[0];
    for (workers, section) in &sections[1..] {
        assert_eq!(
            section, reference,
            "sim_ lines differ between 1 and {workers} workers"
        );
    }
}

#[test]
fn setup_reuse_is_a_serving_counter_not_a_sim_counter() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr();
    let reused = |families: &[export::Family]| gauge_value(families, "serve_jobs_setup_reused");
    // The first job may or may not build chain A's entry (other tests
    // in this process share it); the second one certainly reuses it.
    let first = post_job(
        addr,
        r#"{"kind":"stuck_at","circuit":"chain_a","vectors":16,"seed":1}"#,
    );
    wait_done(addr, &job_id(&first));
    let (_, before) = scrape(addr);
    let second = post_job(
        addr,
        r#"{"kind":"stuck_at","circuit":"chain_a","vectors":16,"seed":2}"#,
    );
    wait_done(addr, &job_id(&second));
    let (text, after) = scrape(addr);
    assert_eq!(reused(&after), reused(&before) + 1);
    assert!(!sim_section(&text).contains("setup_reused"));
    let stats = common::stats(addr);
    let serving = stats.get("serving").and_then(|s| s.get("setup_reused"));
    assert_eq!(serving.and_then(Value::as_u64), Some(reused(&after) as u64));
    server.shutdown();
}

#[test]
fn job_trace_covers_every_shard_and_labels_lanes() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr();
    let posted = post_job(
        addr,
        r#"{"kind":"netlist","circuit":"chain_a","vectors":24,"seed":5}"#,
    );
    assert_eq!(posted.status, 202, "POST: {}", body_str(&posted));
    let id = job_id(&posted);
    wait_done(addr, &id);

    let total = progress(addr, &id)
        .get("shards_total")
        .and_then(Value::as_u64)
        .expect("progress reports shard total");
    assert!(total >= 2, "chain_a netlist plans multiple shards");

    let r = get(addr, &format!("/jobs/{id}/trace"));
    assert_eq!(r.status, 200, "trace: {}", body_str(&r));
    let trace = body_str(&r);
    // Perfetto-visible structure: metadata names the process after the
    // job and every lane after its worker.
    assert!(trace.contains(&format!("\"name\": \"serve job {id}\"")));
    assert!(trace.contains("\"name\": \"thread_name\""));
    // Every planned shard's span is present, tagged with the job id
    // and its shard index.
    assert!(trace.contains(&format!("\"job\": \"{id}\"")));
    for shard in 0..total {
        assert!(
            trace.contains(&format!("\"shard\": \"{shard}\"")),
            "trace is missing shard {shard} of {total}:\n{trace}"
        );
    }
    // Both fault models ran under distinct span names.
    assert!(trace.contains("shard.stuck_at."), "stuck-at span present");
    assert!(
        trace.contains("shard.transition."),
        "transition span present"
    );

    // Unknown ids 404; the trace of a malformed id 404s too.
    assert_eq!(get(addr, "/jobs/0000000000000000/trace").status, 404);
    assert_eq!(get(addr, "/jobs/zzz/trace").status, 404);
    server.shutdown();
}

#[test]
fn watchdog_flags_a_held_shard_without_failing_the_job() {
    let hold = Arc::new(AtomicBool::new(false));
    let server = Server::start(ServeConfig {
        workers: 1,
        shard_hold: Some(Arc::clone(&hold)),
        shard_delay: Duration::from_millis(30),
        stall_floor: Duration::from_millis(60),
        watchdog_poll: Duration::from_millis(10),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    // A 16-shard sweep: slow enough per shard (delay hook) to catch
    // the worker between shards and park it mid-job.
    let posted = post_job(
        addr,
        r#"{"kind":"ber_sweep","center_ui":0.5,"half_width_ui":0.35,"sigma_ui":0.06,"points":4096}"#,
    );
    assert_eq!(posted.status, 202, "POST: {}", body_str(&posted));
    let id = job_id(&posted);

    // Let setup and at least one shard finish (so the per-kind average
    // exists), then park the worker: it will take the next shard,
    // register it in-flight, and hold before running it.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let p = progress(addr, &id);
        let done = p.get("shards_done").and_then(Value::as_u64).unwrap_or(0);
        let total = p.get("shards_total").and_then(Value::as_u64).unwrap_or(0);
        if done >= 1 && total > 0 && done < total {
            break;
        }
        assert!(
            p.get("status").and_then(Value::as_str) != Some("done"),
            "job finished before the hold; raise the shard delay"
        );
        assert!(Instant::now() < deadline, "job never reached mid-flight");
        std::thread::sleep(Duration::from_millis(2));
    }
    hold.store(true, Ordering::SeqCst);

    // The watchdog escalates the held shard to stalled.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, families) = scrape(addr);
        if gauge_value(&families, "serve_shards_stalled") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watchdog never flagged the shard"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The escalation is on the flight record, naming this job.
    let r = get(addr, "/debug/flight");
    assert_eq!(r.status, 200);
    let flight = body_str(&r);
    assert!(
        flight.contains("shard_stalled") && flight.contains(&format!("job {id}")),
        "flight recorder missing the stall event: {flight}"
    );

    // Releasing the hold lets the job finish; a stall is an
    // observation, never a failure.
    hold.store(false, Ordering::SeqCst);
    wait_done(addr, &id);

    // With nothing in flight the gauges settle back to zero.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, families) = scrape(addr);
        if gauge_value(&families, "serve_shards_stalled") == 0
            && gauge_value(&families, "serve_shards_slow") == 0
        {
            break;
        }
        assert!(Instant::now() < deadline, "gauges never settled");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn wrong_methods_on_known_paths_get_405_with_allow() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr();

    // The regression case: PUT on the submit path.
    let r = client::request(addr, "PUT", "/jobs", Some("{}")).expect("PUT /jobs");
    assert_eq!(r.status, 405, "PUT /jobs: {}", body_str(&r));
    assert_eq!(r.header("allow"), Some("POST"), "405 carries Allow");

    // GET-only paths advertise GET.
    for path in ["/metrics", "/healthz", "/stats", "/debug/flight"] {
        let r = client::request(addr, "POST", path, Some("{}"))
            .unwrap_or_else(|e| panic!("POST {path}: {e}"));
        assert_eq!(r.status, 405, "POST {path}: {}", body_str(&r));
        assert_eq!(r.header("allow"), Some("GET"));
    }
    let r = client::request(addr, "DELETE", "/jobs/0000000000000000", None).expect("DELETE");
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("GET"));

    // Unknown paths stay 404 whatever the method.
    assert_eq!(get(addr, "/nope").status, 404);
    let r = client::request(addr, "PUT", "/nope", None).expect("PUT /nope");
    assert_eq!(r.status, 404);

    // The flight ring is shared across tests in this process, but the
    // 4xx events above must be in it.
    let r = get(addr, "/debug/flight");
    assert_eq!(r.status, 200);
    assert!(body_str(&r).contains("http_4xx"));
    server.shutdown();
}
