//! Loopback client helpers shared by the serve integration tests.

// Each test binary compiles this module on its own and uses a subset.
#![allow(dead_code)]

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use serve::client::{self, Response};
use serve::json::{self, Value};

pub fn body_str(r: &Response) -> String {
    String::from_utf8_lossy(&r.body).into_owned()
}

pub fn get(addr: SocketAddr, path: &str) -> Response {
    client::request(addr, "GET", path, None).unwrap_or_else(|e| panic!("GET {path}: {e}"))
}

pub fn post_job(addr: SocketAddr, spec: &str) -> Response {
    client::request(addr, "POST", "/jobs", Some(spec)).expect("POST /jobs")
}

pub fn job_id(reply: &Response) -> String {
    json::parse(&body_str(reply))
        .expect("reply parses")
        .get("id")
        .and_then(Value::as_str)
        .expect("reply names a job")
        .to_string()
}

/// `GET /jobs/<id>`, parsed.
pub fn progress(addr: SocketAddr, id: &str) -> Value {
    let p = get(addr, &format!("/jobs/{id}"));
    assert_eq!(p.status, 200, "progress: {}", body_str(&p));
    json::parse(&body_str(&p)).expect("progress parses")
}

/// Polls `GET /jobs/<id>` until the job reports `done`.
pub fn wait_done(addr: SocketAddr, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let p = progress(addr, id);
        match p.get("status").and_then(Value::as_str) {
            Some("done") => return,
            Some("failed") => panic!("job failed: {}", p.canonical()),
            _ => {}
        }
        assert!(Instant::now() < deadline, "job did not finish in time");
        std::thread::sleep(Duration::from_millis(10));
    }
}

pub fn stats(addr: SocketAddr) -> Value {
    let r = get(addr, "/stats");
    assert_eq!(r.status, 200);
    json::parse(&body_str(&r)).expect("stats parse")
}

/// The deterministic `sim_` section of an exposition, as bytes.
pub fn sim_section(text: &str) -> String {
    text.lines()
        .filter(|l| l.starts_with("sim_") || l.starts_with("# TYPE sim_"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The `sim_` section of the `/metrics` exposition — byte-comparable
/// across runs.
pub fn sim_metric_lines(addr: SocketAddr) -> String {
    let r = get(addr, "/metrics");
    assert_eq!(r.status, 200);
    sim_section(&body_str(&r))
}

/// A `"kind":"netlist"` job body whose inline module compiles to
/// `gates` chained inverters and `dffs` flip-flops.
pub fn sized_netlist_spec(gates: usize, dffs: usize) -> String {
    let wires: Vec<String> = (1..gates)
        .map(|i| format!("n{i}"))
        .chain((0..dffs).map(|j| format!("q{j}")))
        .collect();
    let mut src = format!(
        "module sized (a, y);\n  input a;\n  output y;\n  wire {};\n",
        wires.join(", ")
    );
    for i in 0..gates {
        let input = if i == 0 {
            "a".to_string()
        } else {
            format!("n{i}")
        };
        let output = if i + 1 == gates {
            "y".to_string()
        } else {
            format!("n{}", i + 1)
        };
        src += &format!("  not g{i} ({output}, {input});\n");
    }
    for j in 0..dffs {
        src += &format!("  dff f{j} (q{j}, a);\n");
    }
    src += "endmodule\n";
    let mut m = std::collections::BTreeMap::new();
    m.insert("kind".to_string(), Value::Str("netlist".into()));
    m.insert("verilog".to_string(), Value::Str(src));
    Value::Obj(m).canonical()
}
