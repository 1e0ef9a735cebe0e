//! The newline-delimited JSON command protocol.
//!
//! One command per line, one response line per command. Every command is
//! an object with a `cmd` discriminator:
//!
//! | line | meaning |
//! |---|---|
//! | `{"cmd":"submit","job":{…JobSpec…}}` | queue a job submission (timestamp = `job.submit_s`) |
//! | `{"cmd":"fault","time_s":T,"pool":P,"node":N,"kind":"failure"\|"repair"}` | node-health event |
//! | `{"cmd":"cancel","time_s":T,"job":ID}` | operator-initiated completion of a job |
//! | `{"cmd":"advance","to_s":T}` | advance the virtual clock: run every burst strictly before `T` |
//! | `{"cmd":"drain"}` | close the input stream and run the decision loop to completion |
//! | `{"cmd":"query","what":…}` | read-only query served from the latest snapshot |
//! | `{"cmd":"watch","what":…,"interval_s":S,"count":N}` | stream query samples every `S` seconds (`count` 0 = until shutdown) |
//! | `{"cmd":"dump"}` | the last N decisions of the published log as JSONL |
//! | `{"cmd":"shutdown"}` | flush logs and stop the daemon |
//!
//! Query `what` values: `"status"`, `"jobs"`, `"queue"`, `"cluster"`,
//! `"metrics"`, `"job"` (with `"id":ID`), `"decisions"` (with optional
//! `"from":N`).
//!
//! Responses are JSON objects with an `ok` boolean; failures carry an
//! `error` string. Parsing is **reject-and-continue**: a malformed line
//! produces an error response and leaves the daemon state untouched.
//!
//! **Correlation ids:** any command may carry a top-level `"id"` field
//! (any JSON value); the response line echoes it back verbatim so
//! pipelined clients can match responses to requests. `query job` also
//! names its *job* id `"id"` — that value is both the lookup key and
//! the echoed correlation id.

use arena_trace::{FaultEvent, FaultKind, JobSpec};
use serde::{Deserialize, Serialize, Value};

/// A read-only query, answered from the current snapshot without
/// touching the decision thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Scalar run status: clock, counts, drain state.
    Status,
    /// Every job's status record.
    Jobs,
    /// One job's status record.
    Job(u64),
    /// Queued jobs only (ascending submission order).
    Queue,
    /// Per-pool capacity books.
    Cluster,
    /// Decision log entries from sequence `from` on, as JSONL.
    Decisions {
        /// First decision sequence number to include.
        from: usize,
    },
    /// Counters in Prometheus-style exposition text.
    Metrics,
}

/// One parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Queue a job submission.
    Submit(JobSpec),
    /// Queue a node-health event.
    Fault(FaultEvent),
    /// Cancel a job at a point in virtual time.
    Cancel {
        /// When the cancellation takes effect.
        time_s: f64,
        /// The job to cancel.
        job: u64,
    },
    /// Advance the virtual clock.
    Advance {
        /// Run every burst strictly earlier than this instant.
        to_s: f64,
    },
    /// Close the input stream and drain the run to completion.
    Drain,
    /// A read-only snapshot query.
    Query(Query),
    /// A streaming subscription: re-answer `what` every `interval_s`
    /// seconds. Non-mutating; terminated by `count` or shutdown.
    Watch {
        /// The query to sample.
        what: Query,
        /// Seconds between samples.
        interval_s: f64,
        /// Number of samples to emit; `0` streams until shutdown.
        count: u64,
    },
    /// The last N decisions of the published log as JSONL.
    Dump,
    /// Stop the daemon.
    Shutdown,
}

impl Command {
    /// Whether the command mutates engine state — exactly the commands
    /// the daemon appends to its event log for replay-based recovery.
    #[must_use]
    pub fn is_mutating(&self) -> bool {
        matches!(
            self,
            Command::Submit(_)
                | Command::Fault(_)
                | Command::Cancel { .. }
                | Command::Advance { .. }
                | Command::Drain
        )
    }
}

fn get_f64(v: &Value, name: &str) -> Result<f64, String> {
    v.get(name)
        .ok_or_else(|| format!("missing field `{name}`"))
        .and_then(|f| f64::from_value(f).map_err(|e| e.to_string()))
}

fn get_u64(v: &Value, name: &str) -> Result<u64, String> {
    v.get(name)
        .ok_or_else(|| format!("missing field `{name}`"))
        .and_then(|f| u64::from_value(f).map_err(|e| e.to_string()))
}

fn get_str<'a>(v: &'a Value, name: &str) -> Result<&'a str, String> {
    match v.get(name) {
        Some(Value::Str(s)) => Ok(s),
        Some(_) => Err(format!("field `{name}` is not a string")),
        None => Err(format!("missing field `{name}`")),
    }
}

/// Parses one command line. Unknown `cmd`/`what`/`kind` discriminators,
/// missing fields and malformed JSON are all `Err` — the caller responds
/// with the message and continues.
///
/// # Errors
///
/// Returns a human-readable description of the first problem found.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("malformed JSON: {e}"))?;
    if v.as_object().is_none() {
        return Err("command must be a JSON object".to_string());
    }
    let cmd = get_str(&v, "cmd")?;
    match cmd {
        "submit" => {
            let job = v.get("job").ok_or("missing field `job`")?;
            let spec = JobSpec::from_value(job).map_err(|e| format!("bad job spec: {e}"))?;
            Ok(Command::Submit(spec))
        }
        "fault" => {
            let kind = match get_str(&v, "kind")? {
                "failure" | "Failure" => FaultKind::Failure,
                "repair" | "Repair" => FaultKind::Repair,
                other => return Err(format!("unknown fault kind `{other}`")),
            };
            Ok(Command::Fault(FaultEvent {
                time_s: get_f64(&v, "time_s")?,
                pool: usize::try_from(get_u64(&v, "pool")?)
                    .map_err(|_| "pool out of range".to_string())?,
                node: usize::try_from(get_u64(&v, "node")?)
                    .map_err(|_| "node out of range".to_string())?,
                kind,
            }))
        }
        "cancel" => Ok(Command::Cancel {
            time_s: get_f64(&v, "time_s")?,
            job: get_u64(&v, "job")?,
        }),
        "advance" => Ok(Command::Advance {
            to_s: get_f64(&v, "to_s")?,
        }),
        "drain" => Ok(Command::Drain),
        "query" => Ok(Command::Query(parse_query(&v)?)),
        "watch" => {
            let interval_s = match v.get("interval_s") {
                Some(f) => f64::from_value(f).map_err(|e| e.to_string())?,
                None => 1.0,
            };
            if !interval_s.is_finite() || interval_s < 0.0 {
                return Err(format!("bad watch interval {interval_s}"));
            }
            let count = match v.get("count") {
                Some(f) => u64::from_value(f).map_err(|e| e.to_string())?,
                None => 0,
            };
            Ok(Command::Watch {
                what: parse_query(&v)?,
                interval_s,
                count,
            })
        }
        "dump" => Ok(Command::Dump),
        "shutdown" => Ok(Command::Shutdown),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Parses the `what` selector shared by `query` and `watch`.
fn parse_query(v: &Value) -> Result<Query, String> {
    let what = get_str(v, "what")?;
    match what {
        "status" => Ok(Query::Status),
        "jobs" => Ok(Query::Jobs),
        "queue" => Ok(Query::Queue),
        "cluster" => Ok(Query::Cluster),
        "metrics" => Ok(Query::Metrics),
        "job" => Ok(Query::Job(get_u64(v, "id")?)),
        "decisions" => Ok(Query::Decisions {
            from: v.get("from").map_or(Ok(0), |f| {
                u64::from_value(f)
                    .map_err(|e| e.to_string())
                    .and_then(|n| usize::try_from(n).map_err(|_| "from out of range".to_string()))
            })?,
        }),
        other => Err(format!("unknown query `{other}`")),
    }
}

/// Best-effort extraction of the optional top-level correlation `"id"`
/// from a command line. Works even when the command itself fails
/// validation, so error responses carry the id too; returns `None` for
/// non-JSON input (those error lines cannot be correlated anyway).
#[must_use]
pub fn request_id(line: &str) -> Option<Value> {
    let v: Value = serde_json::from_str(line).ok()?;
    v.get("id").cloned()
}

/// Renders `value` as one compact JSON line. This is the crate's one
/// serialiser. It cannot fail: `serde_json::to_string` returns `Ok` for
/// every value of the data model, and renders a non-finite float as
/// `null` rather than refusing it.
pub(crate) fn json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("serialising to a string cannot fail")
}

/// Appends the echoed correlation id to a finished response line. The
/// response is one of our own `ok_line`/`err_line` objects, so the
/// re-parse cannot fail; anything else is returned untouched.
#[must_use]
pub fn with_request_id(response: &str, id: &Value) -> String {
    match serde_json::from_str(response) {
        Ok(Value::Object(mut fields)) => {
            fields.retain(|(k, _)| k != "id");
            fields.push(("id".to_string(), id.clone()));
            json(&Value::Object(fields))
        }
        _ => response.to_string(),
    }
}

/// Renders a job-submission command line for `spec` — the inverse of
/// [`parse_command`] for the `submit` shape (client/test helper).
#[must_use]
pub fn submit_line(spec: &JobSpec) -> String {
    let job = json(spec);
    format!("{{\"cmd\":\"submit\",\"job\":{job}}}")
}

/// Renders a fault command line (client/test helper).
#[must_use]
pub fn fault_line(fault: &FaultEvent) -> String {
    let kind = match fault.kind {
        FaultKind::Failure => "failure",
        FaultKind::Repair => "repair",
    };
    format!(
        "{{\"cmd\":\"fault\",\"time_s\":{},\"pool\":{},\"node\":{},\"kind\":\"{kind}\"}}",
        json(&fault.time_s),
        fault.pool,
        fault.node
    )
}

/// A successful response line with extra fields.
#[must_use]
pub fn ok_line(extra: Vec<(String, Value)>) -> String {
    let mut fields = vec![("ok".to_string(), Value::Bool(true))];
    fields.extend(extra);
    json(&Value::Object(fields))
}

/// An error response line. The daemon state is unchanged whenever a
/// client sees one of these.
#[must_use]
pub fn err_line(msg: &str) -> String {
    json(&Value::Object(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Str(msg.to_string())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arena_model::{ModelConfig, ModelFamily};

    fn spec() -> JobSpec {
        JobSpec {
            id: 7,
            name: "j7".to_string(),
            submit_s: 120.0,
            model: ModelConfig::new(ModelFamily::Bert, 0.76, 256),
            iterations: 300,
            requested_gpus: 4,
            requested_pool: 1,
            deadline_s: None,
        }
    }

    #[test]
    fn submit_round_trips() {
        let line = submit_line(&spec());
        match parse_command(&line) {
            Ok(Command::Submit(s)) => {
                assert_eq!(s.id, 7);
                assert_eq!(s.requested_gpus, 4);
                assert_eq!(s.submit_s, 120.0);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn fault_round_trips() {
        let f = FaultEvent {
            time_s: 9_000.0,
            pool: 1,
            node: 3,
            kind: FaultKind::Failure,
        };
        assert_eq!(parse_command(&fault_line(&f)), Ok(Command::Fault(f)));
    }

    #[test]
    fn malformed_lines_reject_with_messages() {
        for bad in [
            "",
            "{",
            "[1,2]",
            "{\"cmd\":\"warp\"}",
            "{\"cmd\":\"submit\"}",
            "{\"cmd\":\"fault\",\"time_s\":1.0,\"pool\":0,\"node\":0,\"kind\":\"melt\"}",
            "{\"cmd\":\"query\",\"what\":\"vibes\"}",
            "{\"cmd\":\"advance\"}",
        ] {
            assert!(parse_command(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn queries_parse() {
        assert_eq!(
            parse_command("{\"cmd\":\"query\",\"what\":\"status\"}"),
            Ok(Command::Query(Query::Status))
        );
        assert_eq!(
            parse_command("{\"cmd\":\"query\",\"what\":\"job\",\"id\":3}"),
            Ok(Command::Query(Query::Job(3)))
        );
        assert_eq!(
            parse_command("{\"cmd\":\"query\",\"what\":\"decisions\"}"),
            Ok(Command::Query(Query::Decisions { from: 0 }))
        );
        assert_eq!(
            parse_command("{\"cmd\":\"query\",\"what\":\"decisions\",\"from\":12}"),
            Ok(Command::Query(Query::Decisions { from: 12 }))
        );
    }

    #[test]
    fn watch_and_dump_parse() {
        assert_eq!(
            parse_command("{\"cmd\":\"watch\",\"what\":\"metrics\"}"),
            Ok(Command::Watch {
                what: Query::Metrics,
                interval_s: 1.0,
                count: 0,
            })
        );
        assert_eq!(
            parse_command(
                "{\"cmd\":\"watch\",\"what\":\"status\",\"interval_s\":0.25,\"count\":3}"
            ),
            Ok(Command::Watch {
                what: Query::Status,
                interval_s: 0.25,
                count: 3,
            })
        );
        assert_eq!(parse_command("{\"cmd\":\"dump\"}"), Ok(Command::Dump));
        for bad in [
            "{\"cmd\":\"watch\"}",
            "{\"cmd\":\"watch\",\"what\":\"vibes\"}",
            "{\"cmd\":\"watch\",\"what\":\"status\",\"interval_s\":-1.0}",
            "{\"cmd\":\"watch\",\"what\":\"status\",\"interval_s\":\"soon\"}",
        ] {
            assert!(parse_command(bad).is_err(), "accepted: {bad}");
        }
        // watch and dump never reach the daemon's event log.
        assert!(!parse_command("{\"cmd\":\"dump\"}").unwrap().is_mutating());
    }

    #[test]
    fn request_ids_are_extracted_and_echoed() {
        assert_eq!(
            request_id("{\"cmd\":\"drain\",\"id\":7}"),
            Some(Value::U64(7))
        );
        assert_eq!(
            request_id("{\"cmd\":\"drain\",\"id\":\"req-1\"}"),
            Some(Value::Str("req-1".to_string()))
        );
        assert_eq!(request_id("{\"cmd\":\"drain\"}"), None);
        // Best-effort: ids survive commands that fail validation...
        assert_eq!(
            request_id("{\"cmd\":\"warp\",\"id\":3}"),
            Some(Value::U64(3))
        );
        // ...but non-JSON lines have no id to echo.
        assert_eq!(request_id("not json"), None);

        let ok = ok_line(vec![("now_s".to_string(), Value::F64(1.0))]);
        let tagged = with_request_id(&ok, &Value::Str("req-1".to_string()));
        assert!(tagged.contains("\"ok\":true"));
        assert!(tagged.ends_with("\"id\":\"req-1\"}"));
        let err = with_request_id(&err_line("nope"), &Value::U64(9));
        assert!(err.contains("\"ok\":false"));
        assert!(err.ends_with("\"id\":9}"));
    }
}
