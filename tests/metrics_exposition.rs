//! The live telemetry plane, end to end (DESIGN.md §14).
//!
//! 1. **Golden exposition** — a hand-built registry with fixed inputs
//!    renders exactly the committed Prometheus-style text under
//!    `tests/snapshots/metrics_exposition.txt`. The exposition is pure:
//!    sorted by series name, no timestamps, no floating noise —
//!    so it pins the format byte-for-byte. Regenerate after an intended
//!    format change with `UPDATE_SNAPSHOTS=1 cargo test`.
//! 2. **Flight recorder** — the daemon's dump is byte-identical to the
//!    tail of the full decision log, live (`dump` command) and at
//!    shutdown (`ServerOutcome::flight_jsonl`), and so is the
//!    `flight_log` file it rewrites after a fault and at shutdown.
//! 3. **Protocol** — `id` correlation echo on ok and err responses,
//!    `watch` streaming with sample numbering, and a mid-run
//!    `query metrics` scrape.

use std::path::PathBuf;

use arena::prelude::*;
use arena::trace::{FaultEvent, FaultKind};
use arena_server::protocol::{fault_line, submit_line};
use arena_server::{Server, ServerConfig};
use serde::Value;

fn mixed_trace(n: u64, gap_s: f64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            let fam =
                [ModelFamily::Bert, ModelFamily::Moe, ModelFamily::WideResNet][(i % 3) as usize];
            let size = match fam {
                ModelFamily::Bert => [0.76, 1.3][(i % 2) as usize],
                ModelFamily::Moe => [0.69, 1.3][(i % 2) as usize],
                ModelFamily::WideResNet => [0.5, 1.0][(i % 2) as usize],
            };
            JobSpec {
                id: i,
                name: format!("j{i}"),
                submit_s: gap_s * i as f64,
                model: ModelConfig::new(fam, size, 256),
                iterations: 600 + 150 * (i % 4),
                requested_gpus: [2, 4, 8][(i % 3) as usize],
                requested_pool: (i % 2) as usize,
                deadline_s: None,
            }
        })
        .collect()
}

fn server_config(policy: &str) -> ServerConfig {
    ServerConfig::new(
        policy,
        arena::cluster::presets::physical_testbed(),
        SimConfig::new(24.0 * 3600.0),
    )
}

fn field<'a>(response: &'a Value, key: &str) -> &'a Value {
    response.get(key).unwrap_or_else(|| {
        panic!("response missing field {key:?}: {response:?}");
    })
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::U64(n) => *n,
        Value::I64(n) if *n >= 0 => *n as u64,
        Value::F64(f) if *f >= 0.0 && f.fract() == 0.0 => *f as u64,
        other => panic!("not an unsigned integer: {other:?}"),
    }
}

fn as_str(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn assert_ok(v: &Value, ok: bool) {
    assert!(
        matches!(field(v, "ok"), Value::Bool(b) if *b == ok),
        "unexpected ok flag in {v:?}"
    );
}

#[test]
fn exposition_matches_golden_snapshot() {
    // Fixed inputs: the registry's exposition must not depend on
    // timing, iteration order, or platform.
    let reg = MetricsRegistry::new(4);
    reg.counter("sim.event.arrival").incr(3);
    reg.counter("sim.event.round").incr(1);
    reg.counter("server.commands").incr(12);
    reg.gauge("sim.queue_depth").set(2.0);
    reg.gauge("sim.shard.heap_depth{shard=\"0\"}").set(5.0);
    reg.gauge("sim.shard.heap_depth{shard=\"1\"}").set(7.0);
    reg.gauge("sim.estimator.estimate_hit_ratio").set(0.75);
    let schedule = reg.histogram("sim.schedule");
    for v in [1e-6, 2e-6, 0.001953125, 0.5, 1.0] {
        schedule.observe(v);
    }
    reg.histogram("sim.stage.burst_seconds").observe(0.25);
    // An empty histogram still exposes its +Inf bucket, sum and count.
    let _ = reg.histogram("sim.commit");

    let got = reg.expose();
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/metrics_exposition.txt");
    if std::env::var("UPDATE_SNAPSHOTS").is_ok() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing snapshot {path:?} ({e}); regenerate with UPDATE_SNAPSHOTS=1")
    });
    assert_eq!(
        got, want,
        "Prometheus exposition drifted from the committed snapshot; \
         regenerate with UPDATE_SNAPSHOTS=1 cargo test if intended"
    );
    // Rendering twice is stable, and a second registry built the same
    // way renders identically (no instance-dependent state leaks in).
    assert_eq!(reg.expose(), got);
}

#[test]
fn flight_dump_is_byte_identical_to_decision_tail() {
    let jobs = mixed_trace(12, 120.0);
    let mut cfg = server_config("fcfs");
    cfg.flight_capacity = 8;
    let server = Server::start(cfg).expect("server start");
    let handle = server.handle();
    for job in &jobs {
        assert!(handle
            .handle_line(&submit_line(job))
            .contains("\"ok\":true"));
    }
    assert!(handle
        .handle_line("{\"cmd\":\"drain\"}")
        .contains("\"drained\":true"));

    // Live dump at quiescence: the ring holds the last 8 decisions,
    // rendered byte-for-byte as the decision log renders them.
    let dump: Value =
        serde_json::from_str(&handle.handle_line("{\"cmd\":\"dump\"}")).expect("dump parses");
    assert_ok(&dump, true);
    assert_eq!(as_u64(field(&dump, "capacity")), 8);
    let total = as_u64(field(&dump, "total")) as usize;
    let jsonl = as_str(field(&dump, "jsonl")).to_string();

    let full = handle.hub().load().decisions_jsonl_from(0);
    let all_lines: Vec<&str> = full.lines().collect();
    assert_eq!(total, all_lines.len(), "ring total disagrees with log");
    assert!(
        all_lines.len() > 8,
        "fixture too small to overflow the ring ({} decisions)",
        all_lines.len()
    );
    let tail = &all_lines[all_lines.len() - 8..];
    let dumped: Vec<&str> = jsonl.lines().collect();
    assert_eq!(dumped, tail, "flight dump is not the decision-log tail");

    // Shutdown dump: same bytes land in the outcome.
    let outcome = server.join();
    let out_lines: Vec<&str> = outcome.decisions_jsonl.lines().collect();
    let out_tail = &out_lines[out_lines.len() - 8..];
    assert_eq!(
        outcome.flight_jsonl.lines().collect::<Vec<_>>(),
        out_tail,
        "outcome flight dump is not the final decision tail"
    );
}

#[test]
fn flight_log_auto_dumps_on_fault_and_shutdown() {
    let path = std::env::temp_dir().join(format!(
        "arena-flight-log-test-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let jobs = mixed_trace(16, 120.0);
    let mut cfg = server_config("fcfs");
    cfg.flight_capacity = 8;
    cfg.flight_log = Some(path.clone());
    let server = Server::start(cfg).expect("server start");
    let handle = server.handle();
    let submit = |job: &JobSpec| {
        assert!(handle
            .handle_line(&submit_line(job))
            .contains("\"ok\":true"));
    };
    jobs[..12].iter().for_each(submit);

    // An accepted fault rewrites the file with the decision-log tail.
    // It falls between the 12th and 13th arrivals, so the later submits
    // and the drain add decisions after it.
    let fault = FaultEvent {
        time_s: 1400.0,
        pool: 0,
        node: 0,
        kind: FaultKind::Failure,
    };
    assert!(handle
        .handle_line(&fault_line(&fault))
        .contains("\"ok\":true"));
    let query: Value =
        serde_json::from_str(&handle.handle_line("{\"cmd\":\"query\",\"what\":\"decisions\"}"))
            .expect("decisions query parses");
    let log = as_str(field(&query, "jsonl")).to_string();
    let log_lines: Vec<&str> = log.lines().collect();
    assert!(
        log_lines.len() > 8,
        "fixture too small to overflow the flight log ({} decisions)",
        log_lines.len()
    );
    let dumped = std::fs::read_to_string(&path).expect("fault wrote the flight log");
    assert_eq!(
        dumped.lines().collect::<Vec<_>>(),
        &log_lines[log_lines.len() - 8..],
        "flight log after a fault is not the decision-log tail"
    );

    // Shutdown rewrites it with the final tail.
    jobs[12..].iter().for_each(submit);
    assert!(handle
        .handle_line("{\"cmd\":\"drain\"}")
        .contains("\"drained\":true"));
    let outcome = server.join();
    let final_lines: Vec<&str> = outcome.decisions_jsonl.lines().collect();
    assert!(final_lines.len() > log_lines.len());
    let dumped = std::fs::read_to_string(&path).expect("shutdown wrote the flight log");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        dumped.lines().collect::<Vec<_>>(),
        &final_lines[final_lines.len() - 8..],
        "flight log at shutdown is not the final decision-log tail"
    );
}

#[test]
fn request_ids_echo_on_ok_and_err() {
    let server = Server::start(server_config("fcfs")).expect("server start");
    let handle = server.handle();
    let jobs = mixed_trace(1, 0.0);

    // ok path: echo a numeric id.
    let mut line = submit_line(&jobs[0]);
    line.insert_str(1, "\"id\":42,");
    let ok: Value = serde_json::from_str(&handle.handle_line(&line)).unwrap();
    assert_ok(&ok, true);
    assert_eq!(as_u64(field(&ok, "id")), 42);

    // err path: echo a string id on a rejected command.
    let err: Value =
        serde_json::from_str(&handle.handle_line("{\"cmd\":\"bogus\",\"id\":\"req-7\"}")).unwrap();
    assert_ok(&err, false);
    assert_eq!(as_str(field(&err, "id")), "req-7");

    // no id, no echo: the response object gains no null field.
    let bare: Value =
        serde_json::from_str(&handle.handle_line("{\"cmd\":\"query\",\"what\":\"status\"}"))
            .unwrap();
    assert!(bare.get("id").is_none(), "uncorrelated response grew an id");

    assert!(handle
        .handle_line("{\"cmd\":\"drain\"}")
        .contains("\"drained\":true"));
    let _ = server.join();
}

#[test]
fn watch_streams_numbered_samples_and_metrics_scrape_is_well_formed() {
    let jobs = mixed_trace(6, 150.0);
    let server = Server::start(server_config("arena")).expect("server start");
    let handle = server.handle();
    for job in &jobs {
        assert!(handle
            .handle_line(&submit_line(job))
            .contains("\"ok\":true"));
    }

    // Mid-run metrics scrape: the exposition must already carry the
    // decision-loop series.
    let scrape: Value =
        serde_json::from_str(&handle.handle_line("{\"cmd\":\"query\",\"what\":\"metrics\"}"))
            .unwrap();
    let text = as_str(field(&scrape, "metrics")).to_string();
    let text = text.as_str();
    for series in [
        "sim_event_arrival",
        "sim_stage_burst_seconds_count",
        // Memory-ledger gauges publish on the engine's first pass (then
        // on a 1-in-64 clock), so a mid-run scrape already carries
        // cache occupancy.
        "mem_bytes{section=\"estimator.tables\"}",
        "mem_budget_bytes{section=\"plans.cells\"}",
        "mem_evictions{section=\"estimator.tables\"}",
    ] {
        assert!(text.contains(series), "scrape missing {series}:\n{text}");
    }

    // watch = repeated query with sample numbering, streamed via sink.
    let mut samples = Vec::new();
    handle.handle_line_sink(
        "{\"cmd\":\"watch\",\"what\":\"metrics\",\"interval_s\":0.01,\"count\":3,\"id\":9}",
        &mut |line: &str| {
            samples.push(line.to_string());
            true
        },
    );
    assert_eq!(samples.len(), 3, "watch count not honoured: {samples:?}");
    for (i, line) in samples.iter().enumerate() {
        let v: Value = serde_json::from_str(line).expect("watch sample parses");
        assert_ok(&v, true);
        assert_eq!(as_u64(field(&v, "sample")), i as u64);
        assert_eq!(as_u64(field(&v, "id")), 9, "watch sample lost its id");
        assert!(!as_str(field(&v, "metrics")).is_empty());
    }

    // A cancelled sink stops the stream early.
    let mut first_only = Vec::new();
    handle.handle_line_sink(
        "{\"cmd\":\"watch\",\"what\":\"status\",\"interval_s\":0.01,\"count\":10}",
        &mut |line: &str| {
            first_only.push(line.to_string());
            false
        },
    );
    assert_eq!(first_only.len(), 1, "cancelled watch kept streaming");

    assert!(handle
        .handle_line("{\"cmd\":\"drain\"}")
        .contains("\"drained\":true"));
    let _ = server.join();
}
