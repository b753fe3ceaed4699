//! End-to-end tests of the job server over real loopback sockets: the
//! cache contract under concurrent clients, acceptor survival of
//! malformed traffic, admission control, and kill/restart resume.

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{
    body_str, get, job_id, post_job, progress, sim_metric_lines, sized_netlist_spec, stats,
    wait_done,
};
use serve::client;
use serve::jobs::{JobSpec, MAX_NETLIST_DFFS, MAX_NETLIST_GATES};
use serve::json::{self, Value};
use serve::{ServeConfig, Server};

fn serving_stat(stats: &Value, key: &str) -> u64 {
    stats
        .get("serving")
        .and_then(|s| s.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn concurrent_identical_requests_are_cached_byte_identically() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr();
    let spec = r#"{"kind":"netlist","circuit":"chain_a","vectors":32,"seed":3}"#;

    let first = post_job(addr, spec);
    assert_eq!(first.status, 202, "first POST: {}", body_str(&first));
    let id = job_id(&first);
    wait_done(addr, &id);
    let reference = get(addr, &format!("/results/{id}"));
    assert_eq!(reference.status, 200);

    // Simulation counters now; they must not move below. Capture both
    // forms: the /stats JSON and the /metrics exposition's sim_ lines.
    let sim_before = stats(addr).get("sim").cloned().expect("sim section");
    assert!(
        sim_before.get("dsim.ppsfp.faults").is_some(),
        "the campaign recorded fault-sim work: {}",
        sim_before.canonical()
    );
    let metrics_sim_before = sim_metric_lines(addr);
    assert!(
        !metrics_sim_before.is_empty(),
        "/metrics carries a sim_ section"
    );

    // Hammer the same spec from many threads; every answer must be the
    // cached bytes. Spellings differ (key order, float spelling) to
    // prove canonicalization, not string equality, keys the cache.
    let spellings = [
        r#"{"kind":"netlist","circuit":"chain_a","vectors":32,"seed":3}"#,
        r#"{"seed":3,"vectors":32.0,"circuit":"chain_a","kind":"netlist"}"#,
        r#"{ "circuit" : "chain_a", "kind" : "netlist", "seed" : 3e0, "vectors" : 32 }"#,
    ];
    let mut handles = Vec::new();
    for worker in 0..9 {
        let spec = spellings[worker % spellings.len()].to_string();
        handles.push(std::thread::spawn(move || {
            let posted = post_job(addr, &spec);
            assert_eq!(posted.status, 200, "cached POST: {}", body_str(&posted));
            let reply = json::parse(&body_str(&posted)).expect("reply parses");
            assert_eq!(reply.get("status").and_then(Value::as_str), Some("cached"));
            let id = job_id(&posted);
            let result = get(addr, &format!("/results/{id}"));
            assert_eq!(result.status, 200);
            result.body
        }));
    }
    for handle in handles {
        let body = handle.join().expect("client thread");
        assert_eq!(body, reference.body, "cached bodies are byte-identical");
    }

    let after = stats(addr);
    let sim_after = after.get("sim").cloned().expect("sim section");
    assert_eq!(
        sim_before.canonical(),
        sim_after.canonical(),
        "cache hits re-simulated"
    );
    assert_eq!(
        metrics_sim_before,
        sim_metric_lines(addr),
        "/metrics sim_ lines moved across a cache-hit replay"
    );
    assert!(serving_stat(&after, "cache_hits") >= 9);
    assert_eq!(serving_stat(&after, "completed"), 1);
    server.shutdown();
}

#[test]
fn malformed_traffic_gets_4xx_and_the_acceptor_survives() {
    let server = Server::start(ServeConfig {
        acceptors: 1, // one acceptor: any crash would be fatal to the next request
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Raw non-HTTP bytes straight onto the socket.
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"%%% not http at all %%%\r\n\r\n")
            .expect("write");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read");
        let head = String::from_utf8_lossy(&raw);
        assert!(head.starts_with("HTTP/1.1 400 "), "garbage reply: {head}");
    }
    // Valid HTTP, invalid JSON.
    let r = post_job(addr, "{\"kind\": \"netlist\",");
    assert_eq!(r.status, 400, "bad JSON: {}", body_str(&r));
    assert!(body_str(&r).contains("invalid JSON"));
    // Valid JSON, invalid spec.
    let r = post_job(addr, r#"{"kind":"warp_drive"}"#);
    assert_eq!(r.status, 400, "bad spec: {}", body_str(&r));
    // Valid spec kind, uncompilable netlist: accepted, then fails as a
    // job (visible in progress), not as a connection error.
    let r = post_job(addr, r#"{"kind":"netlist","verilog":"module broken ("}"#);
    assert_eq!(r.status, 202, "bad verilog is a job-level failure");
    let id = job_id(&r);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let p = get(addr, &format!("/jobs/{id}"));
        let v = json::parse(&body_str(&p)).expect("progress parses");
        if v.get("status").and_then(Value::as_str) == Some("failed") {
            assert!(v.get("error").is_some(), "failure carries a message");
            break;
        }
        assert!(Instant::now() < deadline, "bad netlist never failed");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Unknown routes and methods.
    assert_eq!(get(addr, "/jobs/not-a-real-id").status, 404);
    assert_eq!(get(addr, "/nope").status, 404);
    let r = client::request(addr, "DELETE", "/jobs", None).expect("DELETE");
    assert_eq!(r.status, 405);
    // Oversized body.
    let huge = format!(
        r#"{{"kind":"netlist","verilog":"{}"}}"#,
        "x".repeat(300 * 1024)
    );
    let r = post_job(addr, &huge);
    assert_eq!(r.status, 413, "oversized: {}", body_str(&r));

    // The single acceptor still serves real work.
    let r = get(addr, "/healthz");
    assert_eq!(r.status, 200);
    let posted = post_job(
        addr,
        r#"{"kind":"stuck_at","circuit":"chain_a","vectors":16,"seed":1}"#,
    );
    assert_eq!(posted.status, 202);
    wait_done(addr, &job_id(&posted));
    server.shutdown();
}

#[test]
fn cyclic_inline_netlists_fail_as_jobs() {
    // A stuck-at job runs no ATPG, yet its circuit must still be an
    // acyclic single-driver netlist: a cross-coupled NAND latch is
    // accepted as a spec, then fails at setup naming the cycle net.
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr();
    let r = post_job(
        addr,
        r#"{"kind":"stuck_at","verilog":"module latch (s, r, q); input s, r; output q; wire qb; nand g0 (q, s, qb); nand g1 (qb, r, q); endmodule"}"#,
    );
    assert_eq!(r.status, 202, "cyclic netlist: {}", body_str(&r));
    let id = job_id(&r);
    let deadline = Instant::now() + Duration::from_secs(30);
    let error = loop {
        let p = progress(addr, &id);
        match p.get("status").and_then(Value::as_str) {
            Some("failed") => break p.get("error").and_then(Value::as_str).map(str::to_string),
            Some("done") => panic!("a cyclic netlist was simulated"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "cyclic netlist never failed");
        std::thread::sleep(Duration::from_millis(10));
    };
    let error = error.expect("failure carries a message");
    assert!(
        error.contains("combinational cycle through net 'q'"),
        "error names the cycle net: {error}"
    );
    server.shutdown();
}

#[test]
fn oversized_inline_netlists_are_rejected_before_setup() {
    // Exactly at both limits a netlist is a valid spec.
    let at_limit = sized_netlist_spec(MAX_NETLIST_GATES, MAX_NETLIST_DFFS);
    assert!(JobSpec::from_value(&json::parse(&at_limit).unwrap()).is_ok());

    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr();
    for (spec, limit) in [
        (
            sized_netlist_spec(MAX_NETLIST_GATES + 1, 1),
            format!("{MAX_NETLIST_GATES}"),
        ),
        (
            sized_netlist_spec(1, MAX_NETLIST_DFFS + 1),
            format!("{MAX_NETLIST_DFFS}"),
        ),
    ] {
        let r = post_job(addr, &spec);
        assert_eq!(r.status, 400, "over-budget netlist: {}", body_str(&r));
        assert!(
            body_str(&r).contains(&format!("limit {limit}")),
            "the reply names the limit: {}",
            body_str(&r)
        );
    }
    // Neither request became a job, so no ATPG ran.
    assert_eq!(
        stats(addr)
            .get("sim")
            .and_then(|s| s.get("dsim.podem.calls")),
        None
    );
    server.shutdown();
}

#[test]
fn admission_control_rejects_overload_with_429_and_recovers() {
    let hold = Arc::new(AtomicBool::new(true));
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_limit: 2,
        shard_hold: Some(Arc::clone(&hold)),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let spec_for = |seed: u64| {
        format!(r#"{{"kind":"stuck_at","circuit":"chain_a","vectors":16,"seed":{seed}}}"#)
    };

    // Two distinct jobs fill the queue while the worker is held.
    let a = post_job(addr, &spec_for(1));
    assert_eq!(a.status, 202, "A admitted: {}", body_str(&a));
    let b = post_job(addr, &spec_for(2));
    assert_eq!(b.status, 202, "B admitted: {}", body_str(&b));
    // A duplicate of an in-flight job coalesces instead of rejecting.
    let dup = post_job(addr, &spec_for(1));
    assert_eq!(dup.status, 202, "duplicate coalesces: {}", body_str(&dup));
    assert_eq!(
        json::parse(&body_str(&dup))
            .unwrap()
            .get("status")
            .and_then(Value::as_str),
        Some("coalesced")
    );
    // A third distinct job is over capacity.
    let c = post_job(addr, &spec_for(3));
    assert_eq!(c.status, 429, "C rejected: {}", body_str(&c));
    let s = stats(addr);
    assert_eq!(serving_stat(&s, "rejected"), 1);
    assert_eq!(serving_stat(&s, "unfinished"), 2);

    // Release the pool; the queue drains and capacity returns.
    hold.store(false, Ordering::SeqCst);
    wait_done(addr, &job_id(&a));
    wait_done(addr, &job_id(&b));
    let c = post_job(addr, &spec_for(3));
    assert_eq!(c.status, 202, "capacity recovered: {}", body_str(&c));
    wait_done(addr, &job_id(&c));
    server.shutdown();
}

#[test]
fn kill_and_restart_resumes_to_the_same_result() {
    // A 16-shard BER sweep: slow enough (with the delay hook) to kill
    // mid-job, deterministic enough to compare byte-for-byte.
    let spec = r#"{"kind":"ber_sweep","center_ui":0.5,"half_width_ui":0.35,"sigma_ui":0.06,"points":4096}"#;

    // Reference: one uninterrupted run, no persistence.
    let reference = {
        let server = Server::start(ServeConfig::default()).expect("bind");
        let addr = server.addr();
        let posted = post_job(addr, spec);
        assert_eq!(posted.status, 202);
        let id = job_id(&posted);
        wait_done(addr, &id);
        let result = get(addr, &format!("/results/{id}"));
        assert_eq!(result.status, 200);
        server.shutdown();
        (id, result.body)
    };

    // Interrupted run: persistence on, shards slowed, killed mid-job.
    let dir = temp_dir("resume");
    let id = {
        let server = Server::start(ServeConfig {
            workers: 1,
            state_dir: Some(dir.clone()),
            shard_delay: Duration::from_millis(40),
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        let posted = post_job(addr, spec);
        assert_eq!(posted.status, 202);
        let id = job_id(&posted);
        assert_eq!(id, reference.0, "same spec, same content address");
        // Wait until at least one shard checkpointed but the job is
        // still in flight, then kill the server.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let p = get(addr, &format!("/jobs/{id}"));
            let v = json::parse(&body_str(&p)).expect("progress parses");
            let done = v.get("shards_done").and_then(Value::as_u64).unwrap_or(0);
            let total = v.get("shards_total").and_then(Value::as_u64).unwrap_or(0);
            if done >= 1 && done < total {
                break;
            }
            assert!(
                v.get("status").and_then(Value::as_str) != Some("done"),
                "job finished before the kill; raise the shard delay"
            );
            assert!(Instant::now() < deadline, "job never reached mid-flight");
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
        id
    };

    // Restart on the same state directory: the job is re-admitted from
    // its .req, resumes from the checkpoint, and finishes identically.
    let server = Server::start(ServeConfig {
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    wait_done(addr, &id);
    let result = get(addr, &format!("/results/{id}"));
    assert_eq!(result.status, 200);
    assert_eq!(
        result.body, reference.1,
        "resumed result is byte-identical to the uninterrupted run"
    );
    let s = stats(addr);
    assert!(
        serving_stat(&s, "resumed_shards") >= 1,
        "restart recovered checkpointed shards: {}",
        s.canonical()
    );
    // And the finished result now also serves from the disk cache
    // across yet another restart.
    server.shutdown();
    let server = Server::start(ServeConfig {
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let posted = post_job(addr, spec);
    assert_eq!(posted.status, 200, "disk cache: {}", body_str(&posted));
    let result = get(addr, &format!("/results/{id}"));
    assert_eq!(result.body, reference.1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_result_file_is_recomputed_not_served() {
    // A `.res` cut short by a kill mid-write is not a cached result: the
    // restarted server discards it and recomputes the job.
    let spec = r#"{"kind":"stuck_at","circuit":"chain_a","vectors":64,"seed":41}"#;
    let dir = temp_dir("torn_res");
    let start = || {
        Server::start(ServeConfig {
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .expect("bind")
    };

    let server = start();
    let addr = server.addr();
    let id = job_id(&post_job(addr, spec));
    wait_done(addr, &id);
    let original = get(addr, &format!("/results/{id}")).body;
    server.shutdown();

    let res = dir.join(format!("{id}.res"));
    assert_eq!(
        std::fs::read(&res).unwrap(),
        original,
        "the .res holds the body"
    );
    std::fs::write(&res, &original[..original.len() / 2]).unwrap();

    let server = start();
    let addr = server.addr();
    // Recovery may already have re-admitted (or even finished) the job,
    // so the reply is 202 or 200; only the body is the contract.
    assert_eq!(job_id(&post_job(addr, spec)), id);
    wait_done(addr, &id);
    let result = get(addr, &format!("/results/{id}"));
    assert_eq!(result.status, 200);
    assert_eq!(result.body, original, "the recomputed body is the original");
    server.shutdown();
    assert_eq!(
        std::fs::read(&res).unwrap(),
        original,
        "the .res is whole again"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn existing_checkpoint_frames_resume_byte_identically() {
    // Frames in the layout servers have always written — the job's own
    // `run_shard` frames, `records` equal to the shard length — stay
    // valid state across a restart: the server trusts exactly those and
    // recomputes the rest. A frame whose record count is wrong is
    // recomputed even when its payload decodes.
    let body = r#"{"kind":"netlist","circuit":"chain_a","vectors":32,"seed":9}"#;
    let spec = serve::jobs::JobSpec::from_value(&json::parse(body).unwrap()).unwrap();
    let fp = spec.fingerprint();
    let id = format!("{fp:016x}");
    let job = spec.prepare().unwrap();
    let shards = job.shards();
    let half = shards.len() / 2;
    assert!(half >= 1, "the job plans several shards");

    let cold = {
        let server = Server::start(ServeConfig::default()).expect("bind");
        let addr = server.addr();
        let posted = post_job(addr, body);
        assert_eq!(job_id(&posted), id);
        wait_done(addr, &id);
        let result = get(addr, &format!("/results/{id}"));
        server.shutdown();
        result.body
    };

    for lying in [false, true] {
        let frames: Vec<rt::exec::Frame> = shards[..half]
            .iter()
            .map(|shard| {
                let mut frame = job.run_shard(shard);
                assert_eq!(frame.records as usize, shard.len);
                if lying {
                    // Flipped verdicts that would change the body if
                    // trusted.
                    frame.records += 1;
                    frame.payload.iter_mut().for_each(|b| *b ^= 1);
                }
                frame
            })
            .collect();
        let dir = temp_dir(&format!("ck_layout_{lying}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("{id}.req")), spec.canonical()).unwrap();
        std::fs::write(
            dir.join(format!("{id}.ck")),
            rt::exec::encode_checkpoint(fp, &frames).unwrap(),
        )
        .unwrap();

        let server = Server::start(ServeConfig {
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        wait_done(addr, &id);
        let result = get(addr, &format!("/results/{id}"));
        assert_eq!(result.body, cold, "lying frames: {lying}");
        let expected = if lying { 0 } else { frames.len() as u64 };
        assert_eq!(
            serving_stat(&stats(addr), "resumed_shards"),
            expected,
            "lying frames: {lying}"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn uncreatable_state_dir_is_a_start_error() {
    // A state directory under a regular file cannot be created: start
    // reports it as an error instead of panicking.
    let file = temp_dir("state_under_file");
    std::fs::write(&file, b"not a directory").unwrap();
    let started = Server::start(ServeConfig {
        state_dir: Some(file.join("state")),
        ..ServeConfig::default()
    });
    let _ = std::fs::remove_file(&file);
    assert!(
        started.is_err(),
        "start must fail on an uncreatable state dir"
    );
}
