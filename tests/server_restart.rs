//! Graceful shutdown and replay-based recovery.
//!
//! The daemon appends every accepted mutating command to its event log.
//! Closing the server mid-trace must drain in-flight decisions (the
//! current burst completes; state is published) and flush the decision
//! JSONL; a second server resuming from the flushed event log, fed the
//! rest of the trace, must reproduce the batch fingerprint byte for
//! byte — the online run survives a restart without observable drift.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use arena::prelude::*;
use arena::sched::policy_by_name;
use arena::trace::FaultEvent;
use arena_server::protocol::{fault_line, submit_line};
use arena_server::{Server, ServerConfig};

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

fn fingerprint(mut r: SimResult) -> String {
    r.metrics.avg_decision_s = 0.0;
    format!(
        "policy={}\nmetrics={}\nrecords={:?}\ntimeline={:?}\nraw={:?}\ndecisions=\n{}\nevents={:?}\nnodes={:?}",
        r.policy,
        serde_json::to_string(&r.metrics).expect("metrics serialise"),
        r.records,
        r.timeline,
        r.raw_timeline,
        r.trace.decisions_jsonl(),
        r.trace.timeline.events,
        r.trace.timeline.nodes,
    )
}

fn batch_fingerprint(
    policy: &str,
    jobs: &[JobSpec],
    faults: &[FaultEvent],
    cfg: &SimConfig,
) -> String {
    let cluster = arena::cluster::presets::physical_testbed();
    let mut p = policy_by_name(policy, 1).expect("known policy");
    let service = PlanService::new(&cluster, CostParams::default(), 17);
    let obs = Obs::enabled();
    fingerprint(
        Run::new(&cluster, p.as_mut(), &service, cfg)
            .faults(faults)
            .obs(&obs)
            .batch(jobs),
    )
}

fn command_stream(jobs: &[JobSpec], faults: &[FaultEvent]) -> Vec<String> {
    let mut lines = Vec::with_capacity(jobs.len() + faults.len());
    let (mut ji, mut fi) = (0, 0);
    while ji < jobs.len() || fi < faults.len() {
        let take_job =
            fi >= faults.len() || (ji < jobs.len() && jobs[ji].submit_s <= faults[fi].time_s);
        if take_job {
            lines.push(submit_line(&jobs[ji]));
            ji += 1;
        } else {
            lines.push(fault_line(&faults[fi]));
            fi += 1;
        }
    }
    lines
}

/// A unique scratch path per call (the test binary may run these tests
/// concurrently).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "arena-server-test-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

fn config(policy: &str, cfg: &SimConfig) -> ServerConfig {
    ServerConfig::new(
        policy,
        arena::cluster::presets::physical_testbed(),
        cfg.clone(),
    )
}

#[test]
fn restart_from_event_log_reproduces_batch_fingerprint() {
    let jobs = mixed_trace(12, 150.0);
    let faults = arena::trace::generate_faults(
        &arena::trace::FaultConfig::with_mtbf(9_000.0),
        &[16, 16],
        24.0 * 3600.0,
    );
    let cfg = SimConfig::new(24.0 * 3600.0);
    let batch = batch_fingerprint("arena", &jobs, &faults, &cfg);
    // The daemon refuses input at or past its horizon. The batch run
    // keeps the whole generated schedule, whose late repairs fall past
    // the horizon and never fire there either.
    let live: Vec<FaultEvent> = faults
        .iter()
        .filter(|f| f.time_s < cfg.horizon_s)
        .cloned()
        .collect();
    let stream = command_stream(&jobs, &live);
    let split = stream.len() / 2;
    let log_path = scratch("restart");

    // First server: feed half the trace, then shut down mid-run.
    {
        let mut sc = config("arena", &cfg);
        sc.event_log = Some(log_path.clone());
        let server = Server::start(sc).expect("server A start");
        let handle = server.handle();
        for line in &stream[..split] {
            assert!(handle.handle_line(line).contains("\"ok\":true"), "{line}");
        }
        let outcome = server.join();
        // Mid-trace shutdown: not drained, but state is coherent and the
        // decision log so far was flushed.
        assert!(!outcome.state.drained);
        assert!(outcome.result.is_none());
        assert_eq!(outcome.event_log.len(), split);
        assert!(
            !outcome.decisions_jsonl.is_empty(),
            "decision JSONL not flushed"
        );
    }

    // Second server: resume from the flushed log, feed the rest, drain.
    let online = {
        let mut sc = config("arena", &cfg);
        sc.resume = Some(log_path.clone());
        sc.event_log = Some(log_path.clone());
        let server = Server::start(sc).expect("server B start");
        let handle = server.handle();
        // Replay restored the clock and state.
        let snap = handle.hub().load();
        assert_eq!(
            snap.state.submitted,
            stream[..split]
                .iter()
                .filter(|l| l.contains("\"cmd\":\"submit\""))
                .count()
        );
        for line in &stream[split..] {
            assert!(handle.handle_line(line).contains("\"ok\":true"), "{line}");
        }
        assert!(handle
            .handle_line("{\"cmd\":\"drain\"}")
            .contains("\"drained\":true"));
        let outcome = server.join();
        // The log now holds the full accepted stream (drain included).
        assert_eq!(outcome.event_log.len(), stream.len() + 1);
        fingerprint(outcome.result.expect("drained"))
    };
    let _ = std::fs::remove_file(&log_path);
    assert_eq!(online, batch, "restarted run diverged from batch");
}

#[test]
fn replay_tolerates_a_truncated_trailing_line() {
    // A crash can leave a half-written last line in the log; recovery
    // skips it and replays the intact prefix.
    let jobs = mixed_trace(6, 150.0);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let log_path = scratch("truncated");
    {
        let mut sc = config("fcfs", &cfg);
        sc.event_log = Some(log_path.clone());
        let server = Server::start(sc).expect("server start");
        let handle = server.handle();
        for job in &jobs {
            assert!(handle
                .handle_line(&submit_line(job))
                .contains("\"ok\":true"));
        }
        let _ = server.join();
    }
    // Simulate the crash: chop the last line in half.
    let text = std::fs::read_to_string(&log_path).expect("log readable");
    let intact: Vec<&str> = text.lines().collect();
    let last = intact.last().expect("log has lines");
    let truncated = format!(
        "{}\n{}",
        intact[..intact.len() - 1].join("\n"),
        &last[..last.len() / 2]
    );
    std::fs::write(&log_path, truncated).expect("rewrite log");

    let mut sc = config("fcfs", &cfg);
    sc.resume = Some(log_path.clone());
    let server = Server::start(sc).expect("resume start");
    let handle = server.handle();
    let snap = handle.hub().load();
    assert_eq!(
        snap.state.submitted,
        jobs.len() - 1,
        "truncated line was not skipped"
    );
    // The daemon keeps accepting input after a lossy recovery.
    assert!(handle
        .handle_line(&submit_line(&jobs[jobs.len() - 1]))
        .contains("\"ok\":true"));
    assert!(handle
        .handle_line("{\"cmd\":\"drain\"}")
        .contains("\"drained\":true"));
    let outcome = server.join();
    assert!(outcome.state.drained);
    assert_eq!(outcome.state.submitted, jobs.len());
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn replay_skips_a_non_utf8_line() {
    // A torn write can leave bytes that are not UTF-8. Replay skips that
    // line like any other unparseable one and keeps every accepted
    // command around it.
    let jobs = mixed_trace(2, 150.0);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let log_path = scratch("non-utf8");
    let mut bytes = submit_line(&jobs[0]).into_bytes();
    bytes.extend_from_slice(b"\n\xff\xfe garbage\n");
    bytes.extend_from_slice(submit_line(&jobs[1]).as_bytes());
    bytes.push(b'\n');
    std::fs::write(&log_path, bytes).expect("write log");

    let mut sc = config("fcfs", &cfg);
    sc.resume = Some(log_path.clone());
    let server = Server::start(sc).expect("resume start");
    let handle = server.handle();
    let status = handle.handle_line("{\"cmd\":\"query\",\"what\":\"status\"}");
    assert!(status.contains("\"submitted\":2"), "{status}");
    let drain = "{\"cmd\":\"drain\"}";
    assert!(handle.handle_line(drain).contains("\"drained\":true"));
    let outcome = server.join();
    let _ = std::fs::remove_file(&log_path);
    assert_eq!(outcome.state.finished, 2);
    let want = vec![
        submit_line(&jobs[0]),
        submit_line(&jobs[1]),
        drain.to_string(),
    ];
    assert_eq!(outcome.event_log, want, "garbage reached the new event log");
}

#[test]
fn unreadable_resume_log_fails_start() {
    // Only a missing resume log counts as empty; one that exists but
    // cannot be read (here: a directory) refuses to start rather than
    // silently dropping every accepted command.
    let cfg = SimConfig::new(24.0 * 3600.0);
    let mut sc = config("fcfs", &cfg);
    sc.resume = Some(std::env::temp_dir());
    let err = Server::start(sc).err().expect("start must fail");
    assert!(err.contains("resume log"), "{err}");
    let mut sc = config("fcfs", &cfg);
    sc.resume = Some(scratch("missing"));
    let server = Server::start(sc).expect("a missing resume log is empty");
    assert_eq!(server.handle().hub().load().state.submitted, 0);
    let _ = server.join();
}

#[test]
fn shutdown_flushes_decision_log_to_disk() {
    let jobs = mixed_trace(8, 120.0);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let decisions_path = scratch("decisions");
    let mut sc = config("fcfs", &cfg);
    sc.decision_log = Some(decisions_path.clone());
    let server = Server::start(sc).expect("server start");
    let handle = server.handle();
    for job in &jobs {
        assert!(handle
            .handle_line(&submit_line(job))
            .contains("\"ok\":true"));
    }
    assert!(handle
        .handle_line("{\"cmd\":\"drain\"}")
        .contains("\"drained\":true"));
    let outcome = server.join();
    let on_disk = std::fs::read_to_string(&decisions_path).expect("decision log written");
    assert_eq!(on_disk, outcome.decisions_jsonl);
    assert!(!on_disk.is_empty());
    for line in on_disk.lines() {
        let v: serde::Value = serde_json::from_str(line).expect("decision line parses");
        assert!(v.get("seq").is_some());
    }
    let _ = std::fs::remove_file(&decisions_path);
}

#[test]
fn in_memory_event_log_replays_identically() {
    // The outcome's in-memory event log alone (no files) is enough to
    // reproduce a run: feed it to a fresh daemon line by line.
    let jobs = mixed_trace(10, 130.0);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let first = {
        let server = Server::start(config("gavel", &cfg)).expect("server start");
        let handle = server.handle();
        for job in &jobs {
            assert!(handle
                .handle_line(&submit_line(job))
                .contains("\"ok\":true"));
        }
        assert!(handle
            .handle_line("{\"cmd\":\"drain\"}")
            .contains("\"drained\":true"));
        server.join()
    };
    let replayed = {
        let server = Server::start(config("gavel", &cfg)).expect("replay start");
        let handle = server.handle();
        for line in &first.event_log {
            assert!(handle.handle_line(line).contains("\"ok\":true"), "{line}");
        }
        server.join()
    };
    assert!(
        replayed.state.drained,
        "event log did not include the drain"
    );
    let (a, b) = (
        fingerprint(first.result.expect("drained")),
        fingerprint(replayed.result.expect("drained")),
    );
    assert_eq!(a, b, "in-memory replay diverged");
}

#[test]
fn refused_submits_stay_out_of_the_event_log() {
    // Well-formed submits the engine cannot run: a BERT size outside
    // Table 2, an MoE size between two Table-2 sizes, and a pool the
    // testbed does not have. They are stamped after the valid job, so a
    // refused submit that still moved the clock would refuse it too.
    let mut valid = mixed_trace(1, 0.0).remove(0);
    valid.submit_s = 100.0;
    let refused = |id: u64, family: ModelFamily, params_b: f64, pool: usize| JobSpec {
        id,
        name: format!("bad{id}"),
        submit_s: 600.0,
        model: ModelConfig::new(family, params_b, 256),
        requested_pool: pool,
        ..valid.clone()
    };
    let bad = [
        (refused(1, ModelFamily::Bert, -1.0, 0), "Table-2"),
        (refused(2, ModelFamily::Moe, 7.7, 0), "Table-2"),
        (refused(3, ModelFamily::Bert, 1.3, 99), "no pool 99"),
    ];
    let cfg = SimConfig::new(24.0 * 3600.0);
    let log_path = scratch("refused");
    let drain = "{\"cmd\":\"drain\"}";

    let first = {
        let mut sc = config("fcfs", &cfg);
        sc.event_log = Some(log_path.clone());
        let server = Server::start(sc).expect("server start");
        let handle = server.handle();
        for (job, why) in &bad {
            let r = handle.handle_line(&submit_line(job));
            assert!(r.contains("\"ok\":false") && r.contains(why), "{r}");
        }
        assert!(handle
            .handle_line(&submit_line(&valid))
            .contains("\"ok\":true"));
        assert!(handle.handle_line(drain).contains("\"drained\":true"));
        server.join()
    };
    let logged = std::fs::read_to_string(&log_path).expect("log written");
    let want = vec![submit_line(&valid), drain.to_string()];
    assert_eq!(logged.lines().collect::<Vec<_>>(), want);
    assert_eq!(first.event_log, want);

    let resumed = {
        let mut sc = config("fcfs", &cfg);
        sc.resume = Some(log_path.clone());
        let server = Server::start(sc).expect("resume start");
        let snap = server.handle().hub().load();
        assert!(snap.state.drained, "replay did not reach the drain");
        assert_eq!(snap.state.submitted, 1);
        server.join()
    };
    let _ = std::fs::remove_file(&log_path);
    let first = fingerprint(first.result.expect("drained"));
    assert_eq!(fingerprint(resumed.result.expect("drained")), first);
    assert_eq!(
        batch_fingerprint("fcfs", &[valid], &[], &cfg),
        first,
        "served run diverged from batch"
    );
}
