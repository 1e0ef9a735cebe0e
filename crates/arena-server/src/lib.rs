//! Resident scheduling daemon for the Arena reproduction.
//!
//! Where a batch run ([`arena_sim::Run::batch`]) consumes a whole trace
//! and returns a [`arena_sim::SimResult`], this crate keeps the same
//! [`arena_sim::Engine`] *resident*: a single daemon thread owns the
//! decision loop and applies newline-delimited JSON commands — job
//! submissions, node-health events, cancellations, clock advances —
//! as they arrive over TCP or stdin. Reads never wait for the decision
//! loop: after every applied command the daemon publishes an immutable
//! [`ServerSnapshot`] into the [`SnapshotHub`], and query threads
//! answer status/queue/job/cluster/decision-log requests from the
//! latest snapshot (and `metrics` from the live registry).
//!
//! The daemon also carries an always-on **telemetry plane**
//! (DESIGN.md §14): an [`arena_obs::MetricsRegistry`] of atomic series
//! records per-stage decision-loop latencies and event-loop gauges.
//! `query metrics` renders a deterministic Prometheus-style scrape,
//! `watch` streams any query on an interval, `dump` returns the last N
//! decisions of the published log, and every command may carry an
//! `"id"` echoed on its response.
//!
//! The load-bearing property is **online/batch equivalence**: feeding
//! a trace to the daemon one command at a time, in any interleaving
//! with queries, then draining, produces byte-identical output
//! (records, timelines, decision JSONL, metrics) to handing the whole
//! trace to a batch run. `tests/server_e2e.rs`
//! pins this for every policy, with and without fault injection, and
//! the restart suite pins that replaying the daemon's event log
//! reproduces the same bytes after a mid-trace shutdown.
//!
//! Module map:
//!
//! * [`protocol`] — command/query grammar, parsing, response builders.
//! * [`snapshot`] — [`ServerSnapshot`], the [`SnapshotHub`]
//!   publication point, and query answering.
//! * [`daemon`] — the writer thread, event-log recovery, lifecycle.
//! * [`net`] — TCP listener and stdin line loop.
//! * [`client`] — a small blocking client for tests and examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod net;
pub mod protocol;
pub mod snapshot;

pub use client::Client;
pub use daemon::{Server, ServerConfig, ServerHandle, ServerOutcome};
pub use net::{serve_lines, spawn_listener};
pub use protocol::{parse_command, Command, Query};
pub use snapshot::{answer_query, ServerSnapshot, SnapshotHub};
