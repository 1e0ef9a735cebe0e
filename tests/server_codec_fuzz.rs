//! Fuzz-style property tests over the JSONL command codec.
//!
//! The daemon's contract for adversarial input is **reject-and-continue**:
//! truncated lines, unknown commands/fields, out-of-order timestamps,
//! duplicate job ids, bad node coordinates, jobs no pool can run, input
//! at or past the horizon, negative deadlines —
//! every malformed or invalid line yields exactly one `ok:false`
//! response, never a panic, and never corrupts engine state. After any garbage barrage the daemon
//! still accepts clean input, drains, and its final state balances.

use std::io::Cursor;

use proptest::prelude::*;

use arena::model::zoo::{ModelConfig, ModelFamily};
use arena::sim::SimConfig;
use arena::trace::JobSpec;
use arena_server::protocol::submit_line;
use arena_server::{serve_lines, Server, ServerConfig};

fn job(id: u64, submit_s: f64) -> JobSpec {
    JobSpec {
        id,
        name: format!("j{id}"),
        submit_s,
        model: ModelConfig::new(ModelFamily::Bert, 0.76, 256),
        iterations: 200,
        requested_gpus: 2,
        requested_pool: 0,
        deadline_s: None,
    }
}

fn server() -> Server {
    // Horizon comfortably past the clean-trace timestamps (1e6 s) so the
    // post-soup jobs can run to completion.
    Server::start(ServerConfig::new(
        "fcfs",
        arena::cluster::presets::physical_testbed(),
        SimConfig::new(2_000_000.0),
    ))
    .expect("server start")
}

/// A timestamp at or past the server's 2,000,000 s horizon.
fn past_horizon(a: u64, b: u64) -> f64 {
    if a.is_multiple_of(2) {
        1e300
    } else {
        2_000_000.0 + b as f64
    }
}

/// Deterministically maps a fuzz tuple to one adversarial input line.
fn adversarial_line(kind: usize, a: u64, b: u64) -> String {
    match kind {
        // Valid submissions mixed into the soup (monotone ids/times are
        // NOT guaranteed here — duplicates and regressions are the point).
        0 => submit_line(&job(a % 8, (b % 10_000) as f64)),
        // Truncated JSON: a valid line cut mid-way.
        1 => {
            let full = submit_line(&job(a, b as f64));
            let cut = 1 + (b as usize % (full.len() - 1));
            full[..cut].to_string()
        }
        // Unknown command / query discriminators.
        2 => format!("{{\"cmd\":\"cmd{a}\"}}"),
        3 => format!("{{\"cmd\":\"query\",\"what\":\"what{a}\"}}"),
        // Unknown extra fields are tolerated on known commands.
        4 => format!(
            "{{\"cmd\":\"advance\",\"to_s\":{},\"priority\":\"max\",\"x{a}\":1}}",
            (b % 10_000) as f64
        ),
        // Wrong field types.
        5 => "{\"cmd\":\"advance\",\"to_s\":\"soon\"}".to_string(),
        6 => format!("{{\"cmd\":\"cancel\",\"time_s\":{b},\"job\":\"j{a}\"}}"),
        // Fault with a bad kind or absurd node coordinates.
        7 => format!(
            "{{\"cmd\":\"fault\",\"time_s\":{b},\"pool\":0,\"node\":0,\"kind\":\"melt{a}\"}}"
        ),
        8 => format!(
            "{{\"cmd\":\"fault\",\"time_s\":{b},\"pool\":{},\"node\":{},\"kind\":\"failure\"}}",
            a % 100,
            b % 1_000
        ),
        // Non-finite / absurd timestamps.
        9 => "{\"cmd\":\"advance\",\"to_s\":1e400}".to_string(),
        // Structural garbage.
        10 => "[1,2,3]".to_string(),
        11 => format!("garbage {a} \u{1F980} {b}"),
        // Well-formed submits no pool can run: no GPUs, more GPUs than
        // the pool has (the testbed's pools hold 32), no iterations, an
        // empty batch.
        12 => {
            let mut spec = job(10_000 + a, (b % 10_000) as f64);
            match a % 4 {
                0 => spec.requested_gpus = 0,
                1 => spec.requested_gpus = 33 + (b as usize % 100_000),
                2 => spec.iterations = 0,
                _ => spec.model.global_batch = 0,
            }
            submit_line(&spec)
        }
        // Well-formed input the engine can never run: a submit at or
        // past the horizon, a negative deadline, a fault at or past the
        // horizon. Accepting a timestamp past the horizon would raise
        // the watermark past the clean jobs submitted after the soup.
        13 => submit_line(&job(20_000 + a, past_horizon(a, b))),
        14 => {
            let mut spec = job(30_000 + a, (b % 10_000) as f64);
            spec.deadline_s = Some(-1.0 - b as f64);
            submit_line(&spec)
        }
        15 => format!(
            "{{\"cmd\":\"fault\",\"time_s\":{},\"pool\":0,\"node\":0,\"kind\":\"failure\"}}",
            past_horizon(a, b)
        ),
        _ => "   ".to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any barrage of adversarial lines: one JSON response per line,
    /// no panic, and the daemon still runs a clean trace to completion.
    #[test]
    fn adversarial_streams_reject_and_continue(
        soup in proptest::collection::vec((0_usize..17, 0_u64..1000, 0_u64..100_000), 1..60)
    ) {
        let server = server();
        let handle = server.handle();
        for (kind, a, b) in soup {
            let line = adversarial_line(kind, a, b);
            let response = handle.handle_line(&line);
            // Every response is one complete JSON object with `ok`.
            let v: serde::Value = serde_json::from_str(&response)
                .unwrap_or_else(|e| panic!("unparseable response `{response}`: {e}"));
            let ok = v.get("ok");
            prop_assert!(
                matches!(ok, Some(serde::Value::Bool(_))),
                "response missing ok: {}", response
            );
            // Definitely-bad categories must be rejected.
            if matches!(kind, 1 | 2 | 3 | 5 | 6 | 7 | 9 | 10 | 11 | 12 | 13 | 14 | 15 | 16) {
                prop_assert!(
                    response.contains("\"ok\":false"),
                    "bad line accepted: {} -> {}", line, response
                );
            }
        }
        // The snapshot the barrage left behind still balances.
        let snap = handle.hub().load();
        let st = &snap.state;
        prop_assert_eq!(
            st.submitted,
            st.pending + st.queued + st.starting + st.running + st.finished + st.dropped
        );
        // And the daemon still serves a clean run: fresh ids, fresh
        // timestamps past anything the soup reached.
        let base = 1_000_000.0;
        for i in 0..3u64 {
            let r = handle.handle_line(&submit_line(&job(500 + i, base + 60.0 * i as f64)));
            prop_assert!(r.contains("\"ok\":true"), "clean submit rejected: {}", r);
        }
        let drained = handle.handle_line("{\"cmd\":\"drain\"}");
        prop_assert!(drained.contains("\"drained\":true"), "drain failed: {}", drained);
        let outcome = server.join();
        prop_assert!(outcome.state.drained);
        prop_assert!(outcome.state.finished >= 3, "clean jobs did not finish");
    }

    /// The same soup through the `--stdin` transport: the line loop
    /// yields exactly one response line per input line.
    #[test]
    fn stdin_transport_is_line_accurate(
        soup in proptest::collection::vec((0_usize..17, 0_u64..1000, 0_u64..100_000), 1..40)
    ) {
        let server = server();
        let handle = server.handle();
        let n = soup.len();
        let input: String = soup
            .into_iter()
            .map(|(k, a, b)| format!("{}\n", adversarial_line(k, a, b)))
            .collect();
        let mut output = Vec::new();
        serve_lines(&handle, Cursor::new(input), &mut output).expect("serve");
        let text = String::from_utf8(output).expect("responses are UTF-8");
        prop_assert_eq!(text.lines().count(), n);
        for line in text.lines() {
            let v: serde::Value = serde_json::from_str(line).expect("response parses");
            prop_assert!(v.get("ok").is_some());
        }
        let _ = server.join();
    }
}

#[test]
fn duplicate_ids_and_time_regressions_are_rejected() {
    let server = server();
    let handle = server.handle();
    assert!(handle
        .handle_line(&submit_line(&job(1, 100.0)))
        .contains("\"ok\":true"));
    // Same id again, later time: duplicate.
    let r = handle.handle_line(&submit_line(&job(1, 200.0)));
    assert!(r.contains("\"ok\":false") && r.contains("duplicate"), "{r}");
    // New id, earlier time: unsorted.
    let r = handle.handle_line(&submit_line(&job(2, 50.0)));
    assert!(r.contains("\"ok\":false"), "{r}");
    // Still healthy.
    assert!(handle
        .handle_line(&submit_line(&job(3, 300.0)))
        .contains("\"ok\":true"));
    assert!(handle
        .handle_line("{\"cmd\":\"drain\"}")
        .contains("\"drained\":true"));
    let outcome = server.join();
    assert_eq!(
        outcome.state.submitted, 2,
        "rejected lines leaked into state"
    );
}

#[test]
fn input_after_drain_is_rejected_cleanly() {
    let server = server();
    let handle = server.handle();
    assert!(handle
        .handle_line(&submit_line(&job(0, 0.0)))
        .contains("\"ok\":true"));
    assert!(handle
        .handle_line("{\"cmd\":\"drain\"}")
        .contains("\"drained\":true"));
    let r = handle.handle_line(&submit_line(&job(1, 500.0)));
    assert!(
        r.contains("\"ok\":false"),
        "submit after drain accepted: {r}"
    );
    // Queries still work after the input is closed.
    let status = handle.handle_line("{\"cmd\":\"query\",\"what\":\"status\"}");
    assert!(status.contains("\"ok\":true") && status.contains("\"drained\":true"));
    let _ = server.join();
}
