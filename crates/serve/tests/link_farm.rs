//! End-to-end test of the `link_farm` job kind over a real loopback
//! socket: submission, completion, result-body sanity, and the
//! cache-hit contract (replays leave sim counters flat).

mod common;

use common::{body_str, get, job_id, post_job, sim_metric_lines, stats, wait_done};
use serve::json::{self, Value};
use serve::{ServeConfig, Server};

#[test]
fn link_farm_job_completes_and_cache_hits_leave_sim_counters_flat() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr();
    // A small coupled grid: 2 lengths × 2 couplings, four aggresive
    // lanes, σ = 8 mV mismatch.
    let spec = r#"{"kind":"link_farm","lengths_mm":[5,10],"lanes":[4],
                   "sigmas_mv":[8.0],"segments":[4],"couplings":[0.0,0.08],"seed":7}"#;

    let first = post_job(addr, spec);
    assert_eq!(first.status, 202, "first POST: {}", body_str(&first));
    let id = job_id(&first);
    wait_done(addr, &id);
    let reference = get(addr, &format!("/results/{id}"));
    assert_eq!(reference.status, 200);

    // The result body carries the census: four cells, the coupled half
    // of the grid activating faults the quiet half misses.
    let parsed = json::parse(&body_str(&reference)).expect("result parses");
    assert_eq!(
        parsed.get("kind").and_then(Value::as_str),
        Some("link_farm")
    );
    let summary = parsed.get("summary").expect("summary present");
    assert_eq!(summary.get("cells").and_then(Value::as_u64), Some(4));
    assert!(
        summary
            .get("xtalk_activated")
            .and_then(Value::as_u64)
            .unwrap()
            > 0,
        "coupling must activate faults: {}",
        summary.canonical()
    );
    match parsed.get("cells") {
        Some(Value::Arr(cells)) => assert_eq!(cells.len(), 4),
        other => panic!("cells array missing: {other:?}"),
    }

    // The farm's deterministic counters registered in /metrics…
    let sim_before = sim_metric_lines(addr);
    assert!(
        sim_before.contains("sim_farm_cells"),
        "farm cells counted: {sim_before}"
    );
    let stats_before = stats(addr).get("sim").cloned().expect("sim section");

    // …and a cache-hit replay — different spelling, same canonical
    // spec — returns the bytes without re-simulating anything.
    let respelled = r#"{ "seed": 7.0, "couplings": [0, 8e-2], "kind": "link_farm",
                        "segments": [4], "sigmas_mv": [8], "lanes": [4.0],
                        "lengths_mm": [5.0, 10.0] }"#;
    let cached = post_job(addr, respelled);
    assert_eq!(cached.status, 200, "cached POST: {}", body_str(&cached));
    let reply = json::parse(&body_str(&cached)).expect("reply parses");
    assert_eq!(reply.get("status").and_then(Value::as_str), Some("cached"));
    assert_eq!(job_id(&cached), id, "same canonical spec, same job id");
    let replay = get(addr, &format!("/results/{id}"));
    assert_eq!(replay.body, reference.body, "cached bytes are identical");

    assert_eq!(
        sim_before,
        sim_metric_lines(addr),
        "/metrics sim_ lines moved across a cache-hit replay"
    );
    assert_eq!(
        stats_before.canonical(),
        stats(addr).get("sim").cloned().expect("sim").canonical(),
        "cache hit re-simulated"
    );

    // The per-job Chrome trace covers the farm's shard spans.
    let trace = get(addr, &format!("/jobs/{id}/trace"));
    assert_eq!(trace.status, 200);
    assert!(
        body_str(&trace).contains("shard.link_farm."),
        "trace names farm shards"
    );
}
