//! Concurrent snapshot readers against a draining decision loop.
//!
//! N query threads hammer the RCU snapshot hub while the daemon drains
//! a loaded trace. Every snapshot a reader observes must be internally
//! consistent — the conservation invariants hold on each one, because a
//! snapshot is built by the single writer between two bursts and never
//! mutated after publication — and the sequence numbers each thread
//! observes must be monotone (RCU readers can lag, never go back).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use arena::prelude::*;
use arena_server::protocol::submit_line;
use arena_server::{Server, ServerConfig, ServerSnapshot};

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

/// The conservation invariants from `tests/properties.rs`, applied to
/// one published snapshot.
fn assert_consistent(s: &ServerSnapshot) {
    let st = &s.state;
    assert_eq!(
        st.submitted,
        st.pending + st.queued + st.starting + st.running + st.finished + st.dropped,
        "job conservation violated on snapshot seq {}",
        s.seq
    );
    // Job list agrees with the scalar counts.
    assert_eq!(
        st.jobs.len(),
        st.submitted,
        "job list drifted (seq {})",
        s.seq
    );
    let held: usize = st
        .jobs
        .iter()
        .filter(|j| matches!(j.phase.label(), "starting" | "running"))
        .map(|j| j.gpus)
        .sum();
    let used: usize = st.pools.iter().map(|p| p.used_gpus).sum();
    assert_eq!(
        held, used,
        "GPU books disagree with job table (seq {})",
        s.seq
    );
    for p in &st.pools {
        assert_eq!(
            p.free_gpus + p.used_gpus + p.failed_gpus,
            p.total_gpus,
            "pool {} books do not balance (seq {})",
            p.pool,
            s.seq
        );
    }
    // Terminal jobs hold nothing.
    for j in &st.jobs {
        if matches!(j.phase.label(), "finished" | "dropped") {
            assert_eq!(
                j.gpus, 0,
                "terminal job {} holds GPUs (seq {})",
                j.id, s.seq
            );
        }
    }
    // The decision mirror is a prefix-consistent chunk list: strictly
    // increasing seq numbers across chunk boundaries.
    let mut expect = 0u64;
    for chunk in &s.decisions {
        for d in chunk.iter() {
            assert_eq!(d.seq, expect, "decision log not contiguous (seq {})", s.seq);
            expect += 1;
        }
    }
}

#[test]
fn readers_observe_only_consistent_monotone_snapshots() {
    let jobs = mixed_trace(16, 90.0);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let mut server_cfg =
        ServerConfig::new("arena", arena::cluster::presets::physical_testbed(), cfg);
    // Publish very often so readers race many distinct snapshots.
    server_cfg.publish_every = 1;
    let server = Server::start(server_cfg).expect("server start");
    let handle = server.handle();

    const READERS: usize = 6;
    let stop = Arc::new(AtomicBool::new(false));
    let observed = Arc::new(AtomicUsize::new(0));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let observed = Arc::clone(&observed);
            std::thread::spawn(move || {
                let mut last_seq = 0u64;
                let mut distinct = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let snap = handle.hub().load();
                    assert!(
                        snap.seq >= last_seq,
                        "snapshot sequence went backwards: {} -> {}",
                        last_seq,
                        snap.seq
                    );
                    if snap.seq != last_seq {
                        distinct += 1;
                        assert_consistent(&snap);
                    }
                    last_seq = snap.seq;
                }
                observed.fetch_add(distinct, Ordering::SeqCst);
                // Final snapshot is terminal and consistent too.
                let last = handle.hub().load();
                assert_consistent(&last);
                last.seq
            })
        })
        .collect();

    // Writer: feed the trace and drain while the readers hammer.
    for job in &jobs {
        let r = handle.handle_line(&submit_line(job));
        assert!(r.contains("\"ok\":true"), "submit rejected: {r}");
    }
    let drained = handle.handle_line("{\"cmd\":\"drain\"}");
    assert!(drained.contains("\"drained\":true"));

    stop.store(true, Ordering::SeqCst);
    let final_seqs: Vec<u64> = readers
        .into_iter()
        .map(|t| t.join().expect("reader panicked"))
        .collect();
    let outcome = server.join();
    assert!(outcome.state.drained);
    assert!(outcome.result.is_some());

    // The run published at least one snapshot per command, and readers
    // saw real intermediate states, not just the final one.
    assert!(
        observed.load(Ordering::SeqCst) > 0,
        "readers never observed a snapshot change"
    );
    for seq in final_seqs {
        assert!(seq > 0, "reader never saw a published snapshot");
    }
}

#[test]
fn metrics_reader_sees_monotone_live_series_during_drain() {
    // A telemetry scraper polls the lock-free registry while the daemon
    // drains a loaded trace. Each counter and each histogram's
    // count/sum are single monotone atomics, so every polled value must
    // be >= the previous poll — a decrease means the record path
    // corrupted a cell. Cross-field equalities are only checked at
    // quiescence (fields are distinct relaxed atomics, so a mid-burst
    // poll may see one updated before the other).
    let jobs = mixed_trace(16, 90.0);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let mut server_cfg =
        ServerConfig::new("arena", arena::cluster::presets::physical_testbed(), cfg);
    server_cfg.publish_every = 1;
    let server = Server::start(server_cfg).expect("server start");
    let handle = server.handle();

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let metrics = Arc::clone(handle.metrics());
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last_counters: BTreeMap<String, u64> = BTreeMap::new();
            let mut last_hists: BTreeMap<String, (u64, f64)> = BTreeMap::new();
            let mut polls = 0usize;
            while !stop.load(Ordering::SeqCst) {
                let counters = metrics.counters_snapshot();
                for (name, &v) in &counters {
                    if let Some(&prev) = last_counters.get(name) {
                        assert!(v >= prev, "counter {name} went backwards: {prev} -> {v}");
                    }
                }
                last_counters = counters;
                for (name, h) in metrics.histograms_snapshot() {
                    assert!(
                        h.sum.is_finite() && h.sum >= 0.0,
                        "histogram {name} has a bad sum: {}",
                        h.sum
                    );
                    if let Some(&(pc, ps)) = last_hists.get(&name) {
                        assert!(
                            h.count >= pc,
                            "histogram {name} count went backwards: {pc} -> {}",
                            h.count
                        );
                        assert!(
                            h.sum >= ps - 1e-9,
                            "histogram {name} sum went backwards: {ps} -> {}",
                            h.sum
                        );
                    }
                    last_hists.insert(name, (h.count, h.sum));
                }
                // The exposition renderer must never panic or emit
                // non-text while the writers are live.
                let text = metrics.expose();
                assert!(text.is_ascii(), "exposition produced non-ASCII output");
                polls += 1;
            }
            polls
        })
    };

    for job in &jobs {
        let r = handle.handle_line(&submit_line(job));
        assert!(r.contains("\"ok\":true"), "submit rejected: {r}");
    }
    let drained = handle.handle_line("{\"cmd\":\"drain\"}");
    assert!(drained.contains("\"drained\":true"));
    stop.store(true, Ordering::SeqCst);
    let polls = reader.join().expect("metrics reader panicked");
    assert!(polls > 0, "metrics reader never polled");

    // Quiescent cross-field consistency: the drain is done, so sums
    // must sit inside [min*count, max*count] for every series, and the
    // decision loop must actually have recorded activity.
    let metrics = Arc::clone(handle.metrics());
    let counters = metrics.counters_snapshot();
    assert!(
        counters.get("sim.event.arrival").copied().unwrap_or(0) >= jobs.len() as u64,
        "arrival counter undercounts: {counters:?}"
    );
    let hists = metrics.histograms_snapshot();
    let burst = hists
        .get("sim.stage.burst_seconds")
        .expect("burst histogram registered");
    assert!(burst.count > 0, "no bursts recorded");
    for (name, h) in &hists {
        if h.count == 0 {
            continue;
        }
        let slack = 1e-6 * h.count as f64;
        assert!(
            h.sum <= h.max * h.count as f64 + slack && h.sum >= h.min * h.count as f64 - slack,
            "histogram {name} sum {} outside [{}, {}]",
            h.sum,
            h.min * h.count as f64,
            h.max * h.count as f64
        );
    }
    let _ = server.join();
}

#[test]
fn snapshots_outlive_later_publications() {
    // RCU semantics: a reader may hold an old snapshot arbitrarily long
    // after newer ones are published; it must stay valid and unchanged.
    let jobs = mixed_trace(6, 120.0);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let server = Server::start(ServerConfig::new(
        "fcfs",
        arena::cluster::presets::physical_testbed(),
        cfg,
    ))
    .expect("server start");
    let handle = server.handle();

    assert!(handle
        .handle_line(&submit_line(&jobs[0]))
        .contains("\"ok\":true"));
    let early = handle.hub().load();
    let early_seq = early.seq;
    let early_submitted = early.state.submitted;

    for job in &jobs[1..] {
        assert!(handle
            .handle_line(&submit_line(job))
            .contains("\"ok\":true"));
    }
    assert!(handle
        .handle_line("{\"cmd\":\"drain\"}")
        .contains("\"drained\":true"));

    let late = handle.hub().load();
    assert!(late.seq > early_seq, "no publications after the first");
    // The old snapshot is untouched by everything that happened since.
    assert_eq!(early.seq, early_seq);
    assert_eq!(early.state.submitted, early_submitted);
    assert_consistent(&early);
    assert_consistent(&late);
    let _ = server.join();
}
