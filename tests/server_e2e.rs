//! End-to-end service equivalence: the resident daemon against a batch
//! run.
//!
//! `arena-server` drives the same `Engine` a batch run (`Run::batch`)
//! drives, so replaying a trace as an online command stream — one
//! JSONL `submit`/`fault` line at a time, in timestamp order, in any
//! interleaving with read-only queries — then draining must produce
//! output *byte-identical* to a batch run of the whole trace: every
//! record, timeline sample, decision line and traced event. These tests
//! pin that contract for all five policies, with and without fault
//! injection — extending the engine equivalence guarantee across the
//! batch/online boundary.

use arena::prelude::*;
use arena::sched::{policy_by_name, POLICY_NAMES};
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

/// Everything observable about a run except wall-clock decision timing.
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

/// The trace as the daemon would receive it live: submissions and
/// faults merged into one timestamp-ordered JSONL command stream.
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

fn server_config(policy: &str, cfg: &SimConfig) -> ServerConfig {
    ServerConfig::new(
        policy,
        arena::cluster::presets::physical_testbed(),
        cfg.clone(),
    )
}

/// Boots the daemon, feeds the command stream, optionally interleaving
/// a status query after every command, drains, and returns the final
/// fingerprint.
fn server_fingerprint(
    policy: &str,
    jobs: &[JobSpec],
    faults: &[FaultEvent],
    cfg: &SimConfig,
    query_between: bool,
) -> String {
    // The daemon refuses input at or past its horizon. The batch run
    // keeps the whole generated schedule, whose late repairs fall past
    // the horizon and never fire there either.
    let faults: Vec<FaultEvent> = faults
        .iter()
        .filter(|f| f.time_s < cfg.horizon_s)
        .cloned()
        .collect();
    let server = Server::start(server_config(policy, cfg)).expect("server start");
    let handle = server.handle();
    for line in command_stream(jobs, &faults) {
        let response = handle.handle_line(&line);
        assert!(
            response.contains("\"ok\":true"),
            "command rejected: {line} -> {response}"
        );
        if query_between {
            let status = handle.handle_line("{\"cmd\":\"query\",\"what\":\"status\"}");
            assert!(status.contains("\"ok\":true"), "status failed: {status}");
            let jobs_view = handle.handle_line("{\"cmd\":\"query\",\"what\":\"jobs\"}");
            assert!(jobs_view.contains("\"ok\":true"));
        }
    }
    let drained = handle.handle_line("{\"cmd\":\"drain\"}");
    assert!(
        drained.contains("\"drained\":true"),
        "drain did not complete: {drained}"
    );
    let outcome = server.join();
    assert!(outcome.state.drained);
    fingerprint(outcome.result.expect("drained run yields a SimResult"))
}

fn fault_fixture() -> Vec<FaultEvent> {
    let faults = arena::trace::generate_faults(
        &arena::trace::FaultConfig::with_mtbf(9_000.0),
        &[16, 16],
        24.0 * 3600.0,
    );
    assert!(!faults.is_empty(), "fixture produced no faults");
    faults
}

#[test]
fn online_stream_matches_batch_all_policies_unfaulted() {
    let jobs = mixed_trace(12, 150.0);
    let cfg = SimConfig::new(24.0 * 3600.0);
    for policy in POLICY_NAMES {
        let batch = batch_fingerprint(policy, &jobs, &[], &cfg);
        let online = server_fingerprint(policy, &jobs, &[], &cfg, false);
        assert_eq!(online, batch, "online {policy} diverged from batch");
    }
}

#[test]
fn online_stream_matches_batch_all_policies_faulted() {
    let jobs = mixed_trace(12, 150.0);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let faults = fault_fixture();
    for policy in POLICY_NAMES {
        let batch = batch_fingerprint(policy, &jobs, &faults, &cfg);
        let online = server_fingerprint(policy, &jobs, &faults, &cfg, false);
        assert_eq!(
            online, batch,
            "online {policy} (faulted) diverged from batch"
        );
    }
}

#[test]
fn interleaved_queries_do_not_perturb_the_run() {
    // Reads are served from snapshots; hammering status/jobs queries
    // between every command must leave the fingerprint untouched.
    let jobs = mixed_trace(10, 130.0);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let faults = fault_fixture();
    for policy in ["fcfs", "arena"] {
        let batch = batch_fingerprint(policy, &jobs, &faults, &cfg);
        let online = server_fingerprint(policy, &jobs, &faults, &cfg, true);
        assert_eq!(online, batch, "queries perturbed the {policy} run");
    }
}

#[test]
fn horizon_cutoff_matches_batch() {
    // A horizon slicing through running jobs exercises the open-segment
    // flush paths across the service boundary.
    let jobs = mixed_trace(8, 60.0);
    let cfg = SimConfig::new(2_500.0);
    for policy in POLICY_NAMES {
        let batch = batch_fingerprint(policy, &jobs, &[], &cfg);
        let online = server_fingerprint(policy, &jobs, &[], &cfg, false);
        assert_eq!(online, batch, "horizon cutoff diverged for {policy}");
    }
}

#[test]
fn rejected_input_leaves_the_run_untouched() {
    // Streams interspersed with garbage (malformed JSON, unknown
    // commands, duplicate ids, stale timestamps) must yield the same
    // bytes as the clean stream: reject-and-continue, never corrupt.
    let jobs = mixed_trace(10, 130.0);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let batch = batch_fingerprint("arena", &jobs, &[], &cfg);

    let server = Server::start(server_config("arena", &cfg)).expect("server start");
    let handle = server.handle();
    for (i, line) in command_stream(&jobs, &[]).iter().enumerate() {
        assert!(handle.handle_line(line).contains("\"ok\":true"));
        // Garbage after every accepted command.
        for bad in [
            "not json at all",
            "{\"cmd\":\"submit\"}",
            "{\"cmd\":\"frobnicate\"}",
            "{\"cmd\":\"advance\",\"to_s\":\"soon\"}",
        ] {
            let r = handle.handle_line(bad);
            assert!(r.contains("\"ok\":false"), "garbage accepted: {bad} -> {r}");
        }
        // A duplicate of an already-submitted job id is rejected.
        let dup = handle.handle_line(&submit_line(&jobs[i]));
        assert!(dup.contains("\"ok\":false"), "duplicate id accepted: {dup}");
        // A submission from the past is rejected.
        if i > 1 {
            let mut stale = jobs[0].clone();
            stale.id = 999;
            let r = handle.handle_line(&submit_line(&stale));
            assert!(r.contains("\"ok\":false"), "stale submit accepted: {r}");
        }
    }
    assert!(handle
        .handle_line("{\"cmd\":\"drain\"}")
        .contains("\"drained\":true"));
    let outcome = server.join();
    let online = fingerprint(outcome.result.expect("drained"));
    assert_eq!(online, batch, "rejected input perturbed the run");
}

#[test]
fn cancel_drops_a_running_job() {
    // `cancel` has no batch counterpart: it releases the job's GPUs,
    // marks it dropped and lets the policy react. Check the drained
    // state accounts for it.
    let jobs = mixed_trace(6, 120.0);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let server = Server::start(server_config("fcfs", &cfg)).expect("server start");
    let handle = server.handle();
    for job in &jobs {
        assert!(handle
            .handle_line(&submit_line(job))
            .contains("\"ok\":true"));
    }
    let r = handle.handle_line(&format!(
        "{{\"cmd\":\"cancel\",\"time_s\":{},\"job\":2}}",
        jobs.last().unwrap().submit_s + 60.0
    ));
    assert!(r.contains("\"ok\":true"), "cancel rejected: {r}");
    // Cancelling an unknown job is rejected without effect.
    let r = handle.handle_line("{\"cmd\":\"cancel\",\"time_s\":99999,\"job\":777}");
    assert!(r.contains("\"ok\":false"));
    assert!(handle
        .handle_line("{\"cmd\":\"drain\"}")
        .contains("\"drained\":true"));
    let outcome = server.join();
    assert!(outcome.state.drained);
    assert_eq!(
        outcome.state.finished + outcome.state.dropped,
        jobs.len(),
        "every job must end terminal"
    );
    assert!(outcome.state.dropped >= 1, "cancelled job not dropped");
    let cancelled = outcome
        .state
        .jobs
        .iter()
        .find(|j| j.id == 2)
        .expect("job 2 present");
    assert_eq!(cancelled.phase.label(), "dropped");
}

#[test]
fn decision_log_query_returns_the_full_jsonl() {
    let jobs = mixed_trace(8, 100.0);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let server = Server::start(server_config("fcfs", &cfg)).expect("server start");
    let handle = server.handle();
    for job in &jobs {
        assert!(handle
            .handle_line(&submit_line(job))
            .contains("\"ok\":true"));
    }
    assert!(handle
        .handle_line("{\"cmd\":\"drain\"}")
        .contains("\"drained\":true"));
    let snap = handle.hub().load();
    let jsonl = snap.decisions_jsonl_from(0);
    assert!(!jsonl.is_empty(), "no decisions published");
    assert_eq!(jsonl.lines().count(), snap.decision_count());
    // Chunked reads compose to the same bytes.
    let mid = snap.decision_count() / 2;
    let head: String = jsonl.lines().take(mid).map(|l| format!("{l}\n")).collect();
    assert_eq!(format!("{head}{}", snap.decisions_jsonl_from(mid)), jsonl);
    let outcome = server.join();
    // The published decision log is exactly the drained run's log.
    assert_eq!(jsonl, outcome.decisions_jsonl);
}
