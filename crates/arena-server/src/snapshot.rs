//! Immutable server snapshots and the hub that publishes them.
//!
//! The daemon thread is the single writer: after every applied command
//! (and periodically while draining) it builds a [`ServerSnapshot`] and
//! swaps it into the [`SnapshotHub`]. Query threads [`SnapshotHub::load`]
//! the current snapshot and answer from it. Either side holds the hub's
//! lock only to clone or swap an `Arc`, never while the decision loop
//! runs, and a snapshot never changes after publication, so every
//! answer is internally consistent (all counts taken between the same
//! two bursts). `metrics` is the one query answered from the live
//! [`MetricsRegistry`] instead: its series are atomics, readable at any
//! moment without a snapshot.
//!
//! The decision log is mirrored as a vector of immutable chunks
//! (`Arc<Vec<Decision>>`): each publish appends at most one new chunk,
//! so no decision is copied twice. A publish still grows with the run:
//! it clones the chunk list (one `Arc` per earlier publish that recorded
//! decisions) and rebuilds the engine state (one `JobStatus`, with its
//! name cloned, per job ever submitted).

use std::sync::{Arc, PoisonError, RwLock};

use arena_obs::{Decision, MetricsRegistry};
use arena_sim::{EngineState, JobPhase};
use serde::{Serialize, Value};

use crate::protocol::{err_line, ok_line, Query};

/// One published, immutable view of the daemon.
#[derive(Debug, Clone)]
pub struct ServerSnapshot {
    /// Publication sequence number, strictly increasing.
    pub seq: u64,
    /// Active policy name.
    pub policy: String,
    /// Engine state between two bursts.
    pub state: EngineState,
    /// Decision log as immutable chunks, in record order.
    pub decisions: Vec<Arc<Vec<Decision>>>,
}

impl ServerSnapshot {
    /// Total decisions recorded at publication time.
    #[must_use]
    pub fn decision_count(&self) -> usize {
        self.decisions.iter().map(|c| c.len()).sum()
    }

    /// Decision records from global index `from` on, as JSON Lines.
    #[must_use]
    pub fn decisions_jsonl_from(&self, from: usize) -> String {
        let mut out = String::new();
        let mut base = 0usize;
        for chunk in &self.decisions {
            let end = base + chunk.len();
            if end > from {
                for d in &chunk[from.saturating_sub(base).min(chunk.len())..] {
                    out.push_str(&d.to_json());
                    out.push('\n');
                }
            }
            base = end;
        }
        out
    }

    /// The last `n` decision records as JSON Lines.
    #[must_use]
    pub fn decisions_tail_jsonl(&self, n: usize) -> String {
        self.decisions_jsonl_from(self.decision_count().saturating_sub(n))
    }
}

/// Single-writer/many-reader publication point for
/// [`ServerSnapshot`]s.
pub struct SnapshotHub {
    current: RwLock<Arc<ServerSnapshot>>,
}

impl SnapshotHub {
    /// Creates a hub holding `initial` as the first published snapshot.
    #[must_use]
    pub fn new(initial: ServerSnapshot) -> Self {
        SnapshotHub {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// The latest published snapshot. Holds the read lock only to
    /// clone the `Arc`; every write is one `Arc` swap, so a poisoned
    /// lock still guards a valid snapshot.
    #[must_use]
    pub fn load(&self) -> Arc<ServerSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes a new snapshot. Single-writer: only the daemon thread
    /// calls this.
    pub fn publish(&self, snap: ServerSnapshot) {
        let snap = Arc::new(snap);
        let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(snap.seq > current.seq, "snapshot seq must increase");
        let previous = std::mem::replace(&mut *current, snap);
        drop(current);
        // A snapshot no reader holds is freed here, after the lock.
        drop(previous);
    }
}

/// Answers a read-only query: `metrics` from the live registry,
/// everything else from a snapshot. Always returns a complete response
/// line (`ok:true` or `ok:false`).
#[must_use]
pub fn answer_query(q: &Query, snap: &ServerSnapshot, metrics: &MetricsRegistry) -> String {
    match q {
        Query::Status => ok_line(vec![
            ("seq".to_string(), Value::U64(snap.seq)),
            ("policy".to_string(), Value::Str(snap.policy.clone())),
            ("now_s".to_string(), Value::F64(snap.state.now_s)),
            (
                "submitted".to_string(),
                Value::U64(snap.state.submitted as u64),
            ),
            ("pending".to_string(), Value::U64(snap.state.pending as u64)),
            ("queued".to_string(), Value::U64(snap.state.queued as u64)),
            (
                "starting".to_string(),
                Value::U64(snap.state.starting as u64),
            ),
            ("running".to_string(), Value::U64(snap.state.running as u64)),
            (
                "finished".to_string(),
                Value::U64(snap.state.finished as u64),
            ),
            ("dropped".to_string(), Value::U64(snap.state.dropped as u64)),
            (
                "input_closed".to_string(),
                Value::Bool(snap.state.input_closed),
            ),
            ("drained".to_string(), Value::Bool(snap.state.drained)),
            (
                "decisions".to_string(),
                Value::U64(snap.decision_count() as u64),
            ),
        ]),
        Query::Jobs => ok_line(vec![(
            "jobs".to_string(),
            Value::Array(snap.state.jobs.iter().map(Serialize::to_value).collect()),
        )]),
        Query::Job(id) => match snap.state.jobs.iter().find(|j| j.id == *id) {
            Some(j) => ok_line(vec![("job".to_string(), j.to_value())]),
            None => err_line(&format!("no such job {id}")),
        },
        Query::Queue => ok_line(vec![(
            "queue".to_string(),
            Value::Array(
                snap.state
                    .jobs
                    .iter()
                    .filter(|j| j.phase == JobPhase::Queued)
                    .map(Serialize::to_value)
                    .collect(),
            ),
        )]),
        Query::Cluster => ok_line(vec![(
            "pools".to_string(),
            Value::Array(snap.state.pools.iter().map(Serialize::to_value).collect()),
        )]),
        Query::Decisions { from } => ok_line(vec![
            (
                "total".to_string(),
                Value::U64(snap.decision_count() as u64),
            ),
            (
                "jsonl".to_string(),
                Value::Str(snap.decisions_jsonl_from(*from)),
            ),
        ]),
        Query::Metrics => ok_line(vec![("metrics".to_string(), Value::Str(metrics.expose()))]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_state() -> EngineState {
        EngineState {
            now_s: 0.0,
            submitted: 0,
            pending: 0,
            queued: 0,
            starting: 0,
            running: 0,
            finished: 0,
            dropped: 0,
            input_closed: false,
            drained: false,
            pools: Vec::new(),
            jobs: Vec::new(),
        }
    }

    fn snap(seq: u64) -> ServerSnapshot {
        ServerSnapshot {
            seq,
            policy: "fcfs".to_string(),
            state: empty_state(),
            decisions: Vec::new(),
        }
    }

    #[test]
    fn hub_publishes_monotone_snapshots() {
        let hub = SnapshotHub::new(snap(0));
        assert_eq!(hub.load().seq, 0);
        hub.publish(snap(1));
        hub.publish(snap(2));
        assert_eq!(hub.load().seq, 2);
    }

    #[test]
    fn old_snapshots_stay_valid_after_publish() {
        let hub = SnapshotHub::new(snap(0));
        let old = hub.load();
        hub.publish(snap(1));
        assert_eq!(old.seq, 0);
        assert_eq!(hub.load().seq, 1);
    }

    #[test]
    fn decisions_jsonl_from_respects_chunk_boundaries() {
        let mk = |seq: u64| {
            let mut d = Decision::place(seq, 0, 1);
            d.seq = seq;
            d
        };
        let mut s = snap(3);
        let a: Vec<Decision> = (0..3).map(mk).collect();
        let b: Vec<Decision> = (3..5).map(mk).collect();
        s.decisions = vec![Arc::new(a), Arc::new(b)];
        assert_eq!(s.decision_count(), 5);
        let all = s.decisions_jsonl_from(0);
        assert_eq!(all.lines().count(), 5);
        let tail = s.decisions_jsonl_from(4);
        assert_eq!(tail.lines().count(), 1);
        assert!(tail.contains("\"seq\":4"));
        assert!(s.decisions_jsonl_from(5).is_empty());
        assert!(s.decisions_jsonl_from(99).is_empty());
        assert_eq!(s.decisions_tail_jsonl(2), s.decisions_jsonl_from(3));
        assert_eq!(s.decisions_tail_jsonl(99), all);
    }

    #[test]
    fn status_answer_is_ok_json() {
        let metrics = MetricsRegistry::new(4);
        let line = answer_query(&Query::Status, &snap(7), &metrics);
        assert!(line.contains("\"ok\":true"));
        assert!(line.contains("\"seq\":7"));
        let missing = answer_query(&Query::Job(42), &snap(7), &metrics);
        assert!(missing.contains("\"ok\":false"));
    }
}
