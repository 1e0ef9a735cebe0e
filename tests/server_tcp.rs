//! The daemon over a real socket.
//!
//! The other server suites call `handle_line` in process; these tests
//! cross loopback TCP through `spawn_listener` and the blocking
//! `Client`, and pin the wire framing: every response line leaves in a
//! single write ending in a single `\n`. A reply written in two parts
//! (body, then newline) waits on Nagle's algorithm for the client's
//! delayed ACK, about 40 ms per round trip.

use std::io::{Cursor, Write};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use arena::prelude::*;
use arena::sched::policy_by_name;
use arena_server::protocol::submit_line;
use arena_server::{serve_lines, spawn_listener, Client, Server, ServerConfig};
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
                iterations: 300 + 150 * (i % 4),
                requested_gpus: [2, 4, 8][(i % 3) as usize],
                requested_pool: (i % 2) as usize,
                deadline_s: None,
            }
        })
        .collect()
}

fn server(policy: &str, cfg: &SimConfig) -> Server {
    Server::start(
        ServerConfig::new(
            policy,
            arena::cluster::presets::physical_testbed(),
            cfg.clone(),
        )
        .with_shards(1),
    )
    .expect("server start")
}

fn batch(policy: &str, jobs: &[JobSpec], cfg: &SimConfig) -> SimResult {
    let cluster = arena::cluster::presets::physical_testbed();
    let mut p = policy_by_name(policy, 1).expect("known policy");
    let service = PlanService::new(&cluster, CostParams::default(), 17);
    let plan = ShardPlan::per_pool(&cluster)
        .with_shards(1)
        .with_workers(WorkerPool::new(1));
    Run::new(&cluster, p.as_mut(), &service, cfg)
        .plan(&plan)
        .batch(jobs)
}

/// A numeric field of a `query jobs` entry; `null` reads as `None`.
fn num(job: &Value, key: &str) -> Option<f64> {
    match job.get(key)? {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

/// Joins an acceptor after shutdown, failing instead of hanging if the
/// shutdown request did not wake it out of `accept`.
fn join_acceptor(acceptor: JoinHandle<()>) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !acceptor.is_finished() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        acceptor.is_finished(),
        "acceptor still blocked in accept after shutdown"
    );
    acceptor.join().expect("acceptor thread");
}

/// Records every `write` call as one chunk.
#[derive(Default)]
struct Writes(Vec<Vec<u8>>);

impl Write for Writes {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn every_response_line_is_one_write() {
    let server = server("fcfs", &SimConfig::new(86_400.0));
    let input = [
        "{\"cmd\":\"query\",\"what\":\"status\"}".to_string(),
        submit_line(&mixed_trace(1, 0.0)[0]),
        "{\"cmd\":\"submit\",\"job\":{\"id\":".to_string(),
        "{\"cmd\":\"watch\",\"what\":\"status\",\"interval_s\":0,\"count\":3}".to_string(),
    ]
    .map(|line| line + "\n")
    .concat();
    let mut writes = Writes::default();
    serve_lines(&server.handle(), Cursor::new(input), &mut writes).expect("serve");
    let _ = server.join();

    // status, submit, the malformed line's rejection, three samples.
    assert_eq!(writes.0.len(), 6, "one write per response line");
    let oks: Vec<bool> = writes
        .0
        .iter()
        .map(|w| {
            let text = std::str::from_utf8(w).expect("responses are UTF-8");
            assert!(text.ends_with('\n'), "write without its newline: {text:?}");
            assert_eq!(text.matches('\n').count(), 1, "write of many lines");
            let v: Value = serde_json::from_str(text.trim_end()).expect("response parses");
            v.get("ok") == Some(&Value::Bool(true))
        })
        .collect();
    assert_eq!(oks, [true, true, false, true, true, true]);
}

#[test]
fn tcp_session_matches_batch_job_by_job() {
    let jobs = mixed_trace(24, 150.0);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let server = server("fcfs", &cfg);
    let (addr, acceptor) = spawn_listener(&server.handle(), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(addr).expect("connect");

    let mut rtts = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let started = Instant::now();
        client.submit(job).expect("submit accepted");
        rtts.push(started.elapsed());
    }
    let drained = client.drain().expect("drain");
    assert_eq!(drained.get("drained"), Some(&Value::Bool(true)));
    let online = client.query("jobs").expect("query jobs");
    let online = online
        .get("jobs")
        .and_then(Value::as_array)
        .expect("jobs array");

    let records = batch("fcfs", &jobs, &cfg).records;
    assert_eq!(online.len(), records.len());
    for rec in &records {
        let job = online
            .iter()
            .find(|j| num(j, "id") == Some(rec.id as f64))
            .unwrap_or_else(|| panic!("job {} missing from `query jobs`", rec.id));
        assert_eq!(num(job, "submit_s"), Some(rec.submit_s), "job {}", rec.id);
        assert_eq!(num(job, "start_s"), rec.start_s, "job {}", rec.id);
        assert_eq!(num(job, "finish_s"), rec.finish_s, "job {}", rec.id);
        assert_eq!(
            num(job, "restarts"),
            Some(f64::from(rec.restarts)),
            "job {}",
            rec.id
        );
    }

    // Applying a submit takes well under a millisecond; a stalled reply
    // takes the client's 40 ms delayed-ACK timer.
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median submit round trip {median:?}: replies wait on delayed ACKs"
    );

    client.shutdown().expect("shutdown");
    drop(client);
    join_acceptor(acceptor);
    assert!(server.join().state.drained);
}

#[test]
fn acceptor_exits_when_the_server_joins() {
    let server = server("fcfs", &SimConfig::new(86_400.0));
    let (addr, acceptor) = spawn_listener(&server.handle(), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(addr).expect("connect");
    client.query("status").expect("status");
    drop(client);

    let _ = server.join();
    join_acceptor(acceptor);
}
