//! An end-to-end `arena-server` session over TCP.
//!
//! Boots the daemon in-process on an ephemeral port, connects the
//! blocking [`arena_server::Client`], streams a small workload in as
//! JSONL commands interleaved with status queries, injects a node
//! failure and repair, drains the run and reads the decision log back
//! out — the same flow `repro serve` hosts for external clients.
//!
//! Run with: `cargo run --example server_session`

use arena::cluster::presets;
use arena::model::zoo::{ModelConfig, ModelFamily};
use arena::sim::SimConfig;
use arena::trace::{FaultEvent, FaultKind, JobSpec};
use arena_server::{spawn_listener, Client, Server, ServerConfig};
use serde::Value;

fn job(id: u64, submit_s: f64, gpus: usize, pool: usize) -> JobSpec {
    let families = [ModelFamily::Bert, ModelFamily::WideResNet, ModelFamily::Moe];
    let family = families[id as usize % families.len()];
    JobSpec {
        id,
        name: format!("job{id}-{family}"),
        submit_s,
        model: ModelConfig::new(family, family.table2_sizes()[0], 256),
        iterations: 400,
        requested_gpus: gpus,
        requested_pool: pool,
        deadline_s: None,
    }
}

fn main() {
    // A resident daemon scheduling the paper's physical testbed with
    // the Arena policy and a virtual clock.
    let cfg = ServerConfig::new(
        "arena",
        presets::physical_testbed(),
        SimConfig::new(864_000.0),
    );
    let server = Server::start(cfg).expect("server start");
    let (addr, acceptor) =
        spawn_listener(&server.handle(), "127.0.0.1:0").expect("bind ephemeral port");
    println!("daemon listening on {addr}");

    let mut client = Client::connect(addr).expect("connect");

    // Stream a workload in, one command line per event. The daemon
    // consumes the merged submission/fault stream in timestamp order,
    // so events are interleaved exactly as they would happen live.
    for i in 0..4u64 {
        let spec = job(
            i,
            600.0 * i as f64,
            [2, 4, 8][i as usize % 3],
            i as usize % 2,
        );
        let ack = client.submit(&spec).expect("submit accepted");
        println!(
            "submitted job {i}: {}",
            serde_json::to_string(&ack).unwrap()
        );
    }

    // Malformed input is rejected without disturbing the run.
    let bad = client.call("{\"cmd\":\"submit\",\"job\":{\"id\":99}}");
    println!("truncated job spec rejected: {}", bad.unwrap_err());

    // A node fails mid-trace...
    client
        .fault(&FaultEvent {
            time_s: 1_800.0,
            pool: 0,
            node: 1,
            kind: FaultKind::Failure,
        })
        .expect("failure accepted");

    for i in 4..8u64 {
        let spec = job(
            i,
            600.0 * i as f64,
            [2, 4, 8][i as usize % 3],
            i as usize % 2,
        );
        let ack = client.submit(&spec).expect("submit accepted");
        println!(
            "submitted job {i}: {}",
            serde_json::to_string(&ack).unwrap()
        );
    }

    // ...and comes back later.
    client
        .fault(&FaultEvent {
            time_s: 5_400.0,
            pool: 0,
            node: 1,
            kind: FaultKind::Repair,
        })
        .expect("repair accepted");

    // Feeding a fault with a timestamp the clock has already passed is
    // rejected without disturbing the run (reject-and-continue).
    let stale = client.fault(&FaultEvent {
        time_s: 10.0,
        pool: 0,
        node: 0,
        kind: FaultKind::Failure,
    });
    println!("stale fault rejected: {}", stale.unwrap_err());

    // Queries are served from the snapshot hub, not the decision loop.
    let status = client.query("status").expect("status");
    println!(
        "mid-run status: {}",
        serde_json::to_string(&status).unwrap()
    );

    // Close the input and run the decision loop to completion.
    let drained = client.drain().expect("drain");
    println!("drained: {}", serde_json::to_string(&drained).unwrap());

    let status = client.query("status").expect("status");
    let finished = status.get("finished").cloned();
    let decisions = status.get("decisions").cloned();
    println!(
        "final: finished={finished:?} decisions={decisions:?} (policy {:?})",
        status.get("policy")
    );

    // Pull the decision log and show the first few records.
    let log = client.query("decisions").expect("decisions");
    if let Some(Value::Str(jsonl)) = log.get("jsonl") {
        for line in jsonl.lines().take(3) {
            println!("decision: {line}");
        }
    }

    client.shutdown().expect("shutdown");
    let _ = acceptor.join();
    let outcome = server.join();
    println!(
        "daemon stopped; drained={} events_logged={}",
        outcome.state.drained,
        outcome.event_log.len()
    );
    assert!(outcome.state.drained);
    assert!(outcome.result.is_some());
}
