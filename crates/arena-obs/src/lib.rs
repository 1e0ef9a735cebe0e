//! Deterministic observability for the Arena stack.
//!
//! Every layer of the reproduction — the simulator's event loop, each
//! scheduling policy, the Cell estimator — answers the same questions
//! through this crate: *why* was a job placed, dropped or requeued, how
//! often do the caches hit, and where does wall-time go. It is built from
//! four primitives:
//!
//! * [`Decision`] — a structured provenance record, one per scheduling
//!   action (and per engine-side eviction/requeue), carrying the chosen
//!   pool/GPU count, the candidate score and a static reason string.
//! * **Counters** ([`Obs::incr`]) — monotonically increasing event tallies.
//! * **Gauges** ([`Obs::gauge`]) — the current value of a level, e.g.
//!   queue depth at the latest scheduling pass.
//! * **Spans** ([`Obs::span`]) and **histograms** ([`Obs::observe`]) —
//!   wall-clock timers and value distributions in log2 buckets.
//!
//! Decisions and the job-lifecycle [`Timeline`] form the trace a run
//! returns as a [`TraceReport`]. The other three primitives live only in
//! the handle's [`MetricsRegistry`], one store with one meaning per
//! series: [`Obs::enabled`] records the trace plus a registry of its
//! own, and [`Obs::metrics_only`] records into a shared registry without
//! the trace.
//!
//! The handle is cheap to clone and defaults to [`Obs::disabled`], in
//! which every recording call is a no-op returning immediately: the
//! instrumented code paths compute nothing extra, so a disabled run is
//! bitwise identical to an uninstrumented one. Everything except span
//! wall-times is **deterministic**: two runs of the same simulation
//! produce the same decision log, timeline and counters; the
//! golden-trace test harness snapshots the first two.
//!
//! # Example
//!
//! ```
//! use arena_obs::{Decision, Obs};
//!
//! let obs = Obs::enabled();
//! obs.context(5.0, "Arena", "arrival");
//! obs.decision(Decision::place(7, 0, 8).with_score(0.93).why("best-cell"));
//! obs.incr("sched.pass", 1);
//! let report = obs.report();
//! assert_eq!(report.decisions.len(), 1);
//! assert_eq!(report.decisions[0].policy, "Arena");
//! let registry = obs.metrics().expect("a traced handle carries a registry");
//! assert_eq!(registry.counter("sched.pass").get(), 1);
//! ```

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

pub mod metrics;
pub mod timeline;

pub use metrics::{
    labeled, publish_mem_sections, Counter, Gauge, HistSnapshot, Histogram, MetricsRegistry,
};
pub use timeline::{
    AllocEvent, JobAccount, JobEvent, JobEventKind, JobInterval, JobState, NodeSlot, StopCause,
    Timeline, UtilSample,
};

/// What kind of action a [`Decision`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DecisionKind {
    /// A job was (re)placed on a pool at a GPU count.
    Place,
    /// A job was stopped and returned to the queue by the policy.
    Evict,
    /// A job was permanently rejected.
    Drop,
    /// The engine returned a job to the queue (node failure, capacity
    /// race, infeasible placement) — provenance the policy never sees.
    Requeue,
}

impl DecisionKind {
    /// Stable lowercase label used in logs and snapshots.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionKind::Place => "place",
            DecisionKind::Evict => "evict",
            DecisionKind::Drop => "drop",
            DecisionKind::Requeue => "requeue",
        }
    }
}

/// One scheduling decision with full provenance.
///
/// Built with [`Decision::place`] / [`Decision::evict`] /
/// [`Decision::drop`] / [`Decision::requeue`] plus the builder methods;
/// `seq`, `time_s`, `policy` and `trigger` are stamped by
/// [`Obs::decision`] from the context the engine set.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Global sequence number within the run (stamped on record).
    pub seq: u64,
    /// Simulation time of the scheduling pass, seconds (stamped).
    pub time_s: f64,
    /// Deciding policy's display name (stamped), `"engine"` for
    /// engine-originated records.
    pub policy: &'static str,
    /// The event that fired the pass (stamped): `arrival`, `departure`,
    /// `round`, `node-failure`, `node-repair`.
    pub trigger: &'static str,
    /// Action kind.
    pub kind: DecisionKind,
    /// Subject job id.
    pub job: u64,
    /// Target pool (placements only).
    pub pool: Option<usize>,
    /// Target GPU count (placements only).
    pub gpus: Option<usize>,
    /// Whether the placement is opportunistic (evictable backfill).
    pub opportunistic: bool,
    /// The candidate score the decision was taken on (policy-specific:
    /// normalised throughput for Arena, profiled rate for Gavel, …).
    pub score: Option<f64>,
    /// Pool the job held *before* this decision (rescales/migrations of
    /// active jobs only).
    pub prev_pool: Option<usize>,
    /// GPU count held before this decision (rescales/migrations only).
    pub prev_gpus: Option<usize>,
    /// Why: a stable, policy-specific reason label.
    pub reason: &'static str,
    /// The subject job's home shard: the pool it requested. A property
    /// of the job, not of how the simulator executes.
    pub shard: Option<u32>,
}

impl Decision {
    fn new(kind: DecisionKind, job: u64) -> Self {
        Decision {
            seq: 0,
            time_s: 0.0,
            policy: "",
            trigger: "",
            kind,
            job,
            pool: None,
            gpus: None,
            opportunistic: false,
            score: None,
            prev_pool: None,
            prev_gpus: None,
            reason: "",
            shard: None,
        }
    }

    /// A placement of `job` on `gpus` devices of `pool`.
    #[must_use]
    pub fn place(job: u64, pool: usize, gpus: usize) -> Self {
        let mut d = Self::new(DecisionKind::Place, job);
        d.pool = Some(pool);
        d.gpus = Some(gpus);
        d
    }

    /// A policy eviction of `job`.
    #[must_use]
    pub fn evict(job: u64) -> Self {
        Self::new(DecisionKind::Evict, job)
    }

    /// A permanent rejection of `job`.
    #[must_use]
    pub fn drop(job: u64) -> Self {
        Self::new(DecisionKind::Drop, job)
    }

    /// An engine-side requeue of `job`.
    #[must_use]
    pub fn requeue(job: u64) -> Self {
        Self::new(DecisionKind::Requeue, job)
    }

    /// Attaches the candidate score the decision was taken on.
    #[must_use]
    pub fn with_score(mut self, score: f64) -> Self {
        self.score = Some(score);
        self
    }

    /// Marks the placement opportunistic.
    #[must_use]
    pub fn opportunistic(mut self) -> Self {
        self.opportunistic = true;
        self
    }

    /// Attaches the placement the job is moving *from* — making the
    /// record a rescale (same pool, different GPU count) or migration
    /// (different pool) with both endpoints visible.
    #[must_use]
    pub fn moving_from(mut self, pool: usize, gpus: usize) -> Self {
        self.prev_pool = Some(pool);
        self.prev_gpus = Some(gpus);
        self
    }

    /// Attaches the reason label.
    #[must_use]
    pub fn why(mut self, reason: &'static str) -> Self {
        self.reason = reason;
        self
    }

    /// Attaches the job's home shard (its requested pool).
    #[must_use]
    pub fn on_shard(mut self, shard: u32) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Stable `kind/reason` key used for per-reason accounting.
    #[must_use]
    pub fn reason_key(&self) -> String {
        format!("{}/{}", self.kind.as_str(), self.reason)
    }

    /// One-line JSON object (hand-rolled: this crate is dependency-free).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        s.push('{');
        let _ = write!(s, "\"seq\":{}", self.seq);
        let _ = write!(s, ",\"time_s\":{}", json_f64(self.time_s));
        let _ = write!(s, ",\"policy\":\"{}\"", json_escape(self.policy));
        let _ = write!(s, ",\"trigger\":\"{}\"", json_escape(self.trigger));
        let _ = write!(s, ",\"kind\":\"{}\"", self.kind.as_str());
        let _ = write!(s, ",\"job\":{}", self.job);
        match self.pool {
            Some(p) => {
                let _ = write!(s, ",\"pool\":{p}");
            }
            None => s.push_str(",\"pool\":null"),
        }
        match self.gpus {
            Some(g) => {
                let _ = write!(s, ",\"gpus\":{g}");
            }
            None => s.push_str(",\"gpus\":null"),
        }
        let _ = write!(s, ",\"opportunistic\":{}", self.opportunistic);
        match self.score {
            Some(v) => {
                let _ = write!(s, ",\"score\":{}", json_f64(v));
            }
            None => s.push_str(",\"score\":null"),
        }
        if let (Some(p), Some(g)) = (self.prev_pool, self.prev_gpus) {
            let _ = write!(s, ",\"prev_pool\":{p},\"prev_gpus\":{g}");
        }
        if let Some(shard) = self.shard {
            let _ = write!(s, ",\"shard\":{shard}");
        }
        let _ = write!(s, ",\"reason\":\"{}\"", json_escape(self.reason));
        s.push('}');
        s
    }

    /// Compact one-line rendering for snapshots and debugging.
    #[must_use]
    pub fn compact(&self) -> String {
        let mut s = format!(
            "t={} {} {} {} j{}",
            trim_f64(self.time_s),
            self.policy,
            self.trigger,
            self.kind.as_str(),
            self.job
        );
        if let (Some(p), Some(g)) = (self.pool, self.gpus) {
            let _ = write!(s, " pool={p} gpus={g}");
        }
        if let (Some(p), Some(g)) = (self.prev_pool, self.prev_gpus) {
            let _ = write!(s, " from={p}/{g}");
        }
        if self.opportunistic {
            s.push_str(" opp");
        }
        if let Some(shard) = self.shard {
            let _ = write!(s, " shard={shard}");
        }
        let _ = write!(s, " reason={}", self.reason);
        s
    }
}

pub(crate) fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// JSON-safe float rendering (`null` for non-finite values).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Deterministic short float rendering for snapshot lines: times in this
/// simulator are sums of exact config constants, so plain `{}` printing
/// is stable across runs and platforms.
pub(crate) fn trim_f64(v: f64) -> String {
    format!("{v}")
}

/// Summary of one histogram: moments plus percentile summaries, so
/// reports render distributions without dumping raw samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistStats {
    /// Recorded values.
    pub count: u64,
    /// Sum of values.
    pub sum: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Median: the upper bound of the log2 bucket holding the
    /// nearest-rank sample, clamped into `[min, max]` (see
    /// [`HistSnapshot::quantile`]).
    pub p50: f64,
    /// 95th percentile, as a bucket bound like `p50`.
    pub p95: f64,
    /// 99th percentile, as a bucket bound like `p50`.
    pub p99: f64,
}

impl HistStats {
    /// Mean value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    // Context stamped onto decisions.
    time_s: f64,
    policy: &'static str,
    trigger: &'static str,
    seq: u64,
    decisions: Vec<Decision>,
    timeline: Timeline,
}

/// The observability handle.
///
/// Cheap to clone (two `Option<Arc>`s) and in one of three modes:
/// [`Obs::disabled`] carries no state at all and makes every recording
/// method a no-op; [`Obs::metrics_only`] records counters, gauges,
/// histograms and spans into a [`MetricsRegistry`]; [`Obs::enabled`]
/// also keeps the trace (decisions and the timeline).
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Mutex<Inner>>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Obs {
    /// The default no-op handle: nothing is recorded, nothing is paid.
    #[must_use]
    pub fn disabled() -> Self {
        Obs {
            inner: None,
            metrics: None,
        }
    }

    /// A recording handle with an empty trace and a fresh registry of
    /// its own ([`Obs::with_metrics`] swaps in a shared one).
    #[must_use]
    pub fn enabled() -> Self {
        Obs {
            inner: Some(Arc::new(Mutex::new(Inner::default()))),
            metrics: Some(Arc::new(MetricsRegistry::default())),
        }
    }

    /// A handle that records *only* into the registry:
    /// counters, gauges, histograms and span timings, but no decision
    /// log, no timeline, no trace mutex. This is the "telemetry plane
    /// only" mode the overhead bench compares against
    /// [`Obs::disabled`].
    #[must_use]
    pub fn metrics_only(registry: Arc<MetricsRegistry>) -> Self {
        Obs {
            inner: None,
            metrics: Some(registry),
        }
    }

    /// Records into `registry` instead of the handle's own (builder
    /// style: call it before anything is recorded).
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// The registry holding this handle's counters, gauges, histograms
    /// and spans; `None` only for a disabled handle.
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Whether this handle records full traces (decisions, timeline).
    /// A metrics-only handle answers `false`: instrumented code may
    /// skip building decision/timeline payloads entirely.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, Inner>> {
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Sets the decision-stamping context: simulation time, deciding
    /// policy and the event that fired the pass. The engine calls this
    /// before every dispatch; recorded decisions inherit the values.
    pub fn context(&self, time_s: f64, policy: &'static str, trigger: &'static str) {
        if let Some(mut g) = self.lock() {
            g.time_s = time_s;
            g.policy = policy;
            g.trigger = trigger;
        }
    }

    /// Records a decision, stamping seq/time/policy/trigger from the
    /// current context.
    pub fn decision(&self, mut d: Decision) {
        if let Some(mut g) = self.lock() {
            d.seq = g.seq;
            g.seq += 1;
            d.time_s = g.time_s;
            d.policy = g.policy;
            d.trigger = g.trigger;
            g.decisions.push(d);
        }
    }

    /// Number of decisions recorded so far.
    #[must_use]
    pub fn decision_count(&self) -> usize {
        self.lock().map_or(0, |g| g.decisions.len())
    }

    /// Clones the decisions recorded at or after index `from`.
    #[must_use]
    pub fn decisions_after(&self, from: usize) -> Vec<Decision> {
        self.lock().map_or_else(Vec::new, |g| {
            g.decisions.get(from..).unwrap_or(&[]).to_vec()
        })
    }

    /// Increments a registry counter: a read-locked map lookup plus one
    /// `fetch_add`.
    pub fn incr(&self, name: &str, by: u64) {
        if let Some(reg) = &self.metrics {
            reg.incr(name, by);
        }
    }

    /// Sets a registry gauge to its current value (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(reg) = &self.metrics {
            reg.set_gauge(name, value);
        }
    }

    /// Records a value into a registry histogram (log2 buckets, so
    /// percentiles are bucket bounds; see [`HistStats`]).
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(reg) = &self.metrics {
            reg.observe(name, value);
        }
    }

    /// Registers the cluster's node layout for timeline accounting:
    /// `(pool, node, capacity)` triples. The engine calls this once at
    /// the start of a traced run.
    pub fn timeline_nodes(&self, nodes: &[(usize, usize, usize)]) {
        if let Some(mut g) = self.lock() {
            g.timeline.nodes = nodes
                .iter()
                .map(|&(pool, node, capacity)| NodeSlot {
                    pool,
                    node,
                    capacity,
                })
                .collect();
        }
    }

    /// Records one job-state transition on the timeline.
    pub fn job_event(&self, time_s: f64, job: u64, kind: JobEventKind) {
        if let Some(mut g) = self.lock() {
            let seq = g.timeline.events.len() as u64;
            g.timeline.events.push(JobEvent {
                seq,
                time_s,
                job,
                kind,
            });
            g.timeline.end_s = g.timeline.end_s.max(time_s);
        }
    }

    /// Records one GPU acquire/release with its node layout.
    pub fn alloc_event(
        &self,
        time_s: f64,
        job: u64,
        pool: usize,
        node_gpus: &[(usize, usize)],
        acquire: bool,
    ) {
        if let Some(mut g) = self.lock() {
            g.timeline.allocs.push(AllocEvent {
                time_s,
                job,
                pool,
                node_gpus: node_gpus.to_vec(),
                acquire,
            });
            g.timeline.end_s = g.timeline.end_s.max(time_s);
        }
    }

    /// Closes the timeline at the run's final time; open job intervals
    /// end here.
    pub fn timeline_close(&self, end_s: f64) {
        if let Some(mut g) = self.lock() {
            g.timeline.end_s = g.timeline.end_s.max(end_s);
        }
    }

    /// Starts a wall-clock span; the guard records its elapsed seconds
    /// into the registry histogram `name` on drop. Disabled handles
    /// never read the clock.
    #[must_use]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span {
            started: self.metrics.as_deref().map(|reg| (reg, Instant::now())),
            name,
        }
    }

    /// Snapshots the trace recorded so far (decisions and timeline)
    /// into a [`TraceReport`]; empty for a handle without a trace.
    #[must_use]
    pub fn report(&self) -> TraceReport {
        self.lock()
            .map_or_else(TraceReport::default, |g| TraceReport {
                decisions: g.decisions.clone(),
                timeline: g.timeline.clone(),
            })
    }
}

/// RAII wall-clock span; records its elapsed time on drop.
pub struct Span<'a> {
    started: Option<(&'a MetricsRegistry, Instant)>,
    name: &'static str,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((reg, start)) = self.started.take() {
            reg.observe(self.name, start.elapsed().as_secs_f64());
        }
    }
}

/// The trace one run recorded, returned alongside the metrics.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// The full decision log, in recording order.
    pub decisions: Vec<Decision>,
    /// Job-lifecycle timeline and GPU allocation events.
    pub timeline: Timeline,
}

impl TraceReport {
    /// Whether nothing was recorded (the disabled-run report).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty() && self.timeline.is_empty()
    }

    /// Decision counts per `kind/reason` key, sorted by key.
    #[must_use]
    pub fn decision_counts(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for d in &self.decisions {
            *out.entry(d.reason_key()).or_insert(0) += 1;
        }
        out
    }

    /// The full decision log as JSON Lines (one object per decision).
    #[must_use]
    pub fn decisions_jsonl(&self) -> String {
        let mut out = String::new();
        for d in &self.decisions {
            out.push_str(&d.to_json());
            out.push('\n');
        }
        out
    }

    /// Deterministic snapshot text for the golden-trace harness: decision
    /// counts per `kind/reason`, the first and last `edge` decisions in
    /// compact form, then the timeline's time-in-state footer.
    #[must_use]
    pub fn golden_summary(&self, edge: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "decisions total {}", self.decisions.len());
        for (key, n) in self.decision_counts() {
            let _ = writeln!(out, "count {key} {n}");
        }
        let head = self.decisions.iter().take(edge);
        for d in head {
            let _ = writeln!(out, "first {}", d.compact());
        }
        if self.decisions.len() > edge {
            let tail_from = self.decisions.len().saturating_sub(edge).max(edge);
            for d in &self.decisions[tail_from..] {
                let _ = writeln!(out, "last {}", d.compact());
            }
        }
        // Compact per-run time-in-state footer: timeline regressions
        // fail the snapshot just like decision regressions do.
        if !self.timeline.is_empty() {
            out.push_str(&self.timeline.golden_footer());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        assert!(obs.metrics().is_none());
        obs.context(1.0, "p", "round");
        obs.decision(Decision::place(1, 0, 4));
        obs.incr("c", 3);
        obs.gauge("g", 1.0);
        obs.observe("h", 2.0);
        obs.timeline_nodes(&[(0, 0, 8)]);
        obs.job_event(0.0, 1, JobEventKind::Submit);
        obs.alloc_event(1.0, 1, 0, &[(0, 4)], true);
        obs.timeline_close(10.0);
        drop(obs.span("s"));
        assert_eq!(obs.decision_count(), 0);
        assert!(obs.report().is_empty());
    }

    #[test]
    fn decisions_are_stamped_in_order() {
        let obs = Obs::enabled();
        obs.context(10.0, "Arena", "arrival");
        obs.decision(Decision::place(1, 0, 8).with_score(0.9).why("best-cell"));
        obs.context(20.0, "Arena", "round");
        obs.decision(Decision::drop(2).why("no-feasible-cell"));
        let r = obs.report();
        assert_eq!(r.decisions.len(), 2);
        assert_eq!(r.decisions[0].seq, 0);
        assert_eq!(r.decisions[0].time_s, 10.0);
        assert_eq!(r.decisions[0].trigger, "arrival");
        assert_eq!(r.decisions[1].seq, 1);
        assert_eq!(r.decisions[1].kind, DecisionKind::Drop);
        assert_eq!(r.decisions[1].reason, "no-feasible-cell");
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.context(0.0, "p", "round");
        clone.decision(Decision::evict(5).why("pressure"));
        assert_eq!(obs.decision_count(), 1);
        assert_eq!(obs.decisions_after(0)[0].job, 5);
        assert!(obs.decisions_after(1).is_empty());
    }

    #[test]
    fn counters_gauges_histograms() {
        let obs = Obs::enabled();
        obs.incr("a", 1);
        obs.incr("a", 2);
        obs.gauge("q", 3.0);
        obs.gauge("q", 4.0);
        obs.observe("h", 1.0);
        obs.observe("h", 5.0);
        let reg = obs.metrics().expect("an enabled handle carries a registry");
        assert_eq!(reg.counter("a").get(), 3);
        assert_eq!(reg.gauge("q").get(), 4.0);
        let h = reg.histograms_snapshot()["h"];
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 5.0);
        assert_eq!(h.mean(), 3.0);
        // None of it lands in the trace.
        assert!(obs.report().is_empty());
    }

    #[test]
    fn shared_registry_and_metrics_only_mode() {
        // A shared registry swapped in by `with_metrics` takes the
        // handle's counters; the decisions stay in the trace.
        let reg = Arc::new(MetricsRegistry::new(8));
        let obs = Obs::enabled().with_metrics(Arc::clone(&reg));
        obs.incr("sched.pass", 1);
        obs.gauge("depth", 4.0);
        assert_eq!(reg.counter("sched.pass").get(), 1);
        assert_eq!(reg.gauge("depth").get(), 4.0);
        obs.context(9.0, "Arena", "round");
        obs.decision(Decision::place(3, 0, 4).with_score(0.5).why("best-cell"));
        assert_eq!(obs.decision_count(), 1);
        // Metrics-only mode records no decisions but keeps counters.
        let lite = Obs::metrics_only(Arc::new(MetricsRegistry::new(8)));
        assert!(!lite.is_enabled());
        lite.decision(Decision::drop(1).why("r"));
        lite.incr("c", 5);
        assert_eq!(lite.decision_count(), 0);
        let lite_reg = lite.metrics().expect("metrics-only handle");
        assert_eq!(lite_reg.counters_snapshot()["c"], 5);
        drop(lite.span("stage"));
        assert_eq!(lite_reg.histograms_snapshot()["stage"].count, 1);
    }

    #[test]
    fn timeline_records_through_handle() {
        let obs = Obs::enabled();
        obs.timeline_nodes(&[(0, 0, 8), (0, 1, 8)]);
        obs.job_event(0.0, 3, JobEventKind::Submit);
        obs.job_event(
            5.0,
            3,
            JobEventKind::Place {
                pool: 0,
                gpus: 4,
                prev: None,
                opportunistic: false,
            },
        );
        obs.alloc_event(5.0, 3, 0, &[(0, 4)], true);
        obs.job_event(10.0, 3, JobEventKind::RunStart);
        obs.timeline_close(50.0);
        let t = obs.report().timeline;
        t.validate().unwrap();
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.allocs.len(), 1);
        assert_eq!(t.end_s, 50.0);
        let acc = t.accounts()[&3];
        assert_eq!(acc.queue_s, 5.0);
        assert_eq!(acc.placed_s, 5.0);
        assert_eq!(acc.run_s, 40.0);
    }

    #[test]
    fn moving_from_serialises_and_renders() {
        let d = Decision::place(4, 1, 8).moving_from(0, 4).why("rescale");
        let js = d.to_json();
        assert!(js.contains("\"prev_pool\":0,\"prev_gpus\":4"));
        assert!(d.compact().contains("from=0/4"));
        // Without a previous placement neither field appears.
        let plain = Decision::place(4, 1, 8).why("x");
        assert!(!plain.to_json().contains("prev_pool"));
        assert!(!plain.compact().contains("from="));
    }

    #[test]
    fn spans_record_on_drop() {
        let obs = Obs::enabled();
        {
            let _g = obs.span("work");
        }
        {
            let _g = obs.span("work");
        }
        let reg = obs.metrics().expect("an enabled handle carries a registry");
        let s = reg.histograms_snapshot()["work"];
        assert_eq!(s.count, 2);
        assert!(s.sum >= 0.0);
        assert!(s.max <= s.sum + 1e-12);
    }

    #[test]
    fn json_line_is_wellformed() {
        let obs = Obs::enabled();
        obs.context(2.5, "Gavel", "round");
        obs.decision(Decision::place(3, 1, 4).with_score(0.5).why("best-rate"));
        obs.decision(Decision::requeue(3).why("capacity-race"));
        let jsonl = obs.report().decisions_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        assert!(lines[0].contains("\"kind\":\"place\""));
        assert!(lines[0].contains("\"score\":0.5"));
        assert!(lines[1].contains("\"pool\":null"));
        assert!(lines[1].contains("\"reason\":\"capacity-race\""));
    }

    #[test]
    fn non_finite_scores_serialise_as_null() {
        let d = Decision::place(1, 0, 2).with_score(f64::INFINITY);
        assert!(d.to_json().contains("\"score\":null"));
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn golden_summary_counts_and_edges() {
        let obs = Obs::enabled();
        obs.context(0.0, "FCFS", "round");
        for i in 0..12 {
            obs.decision(Decision::place(i, 0, 2).why("head-of-line"));
        }
        obs.decision(Decision::drop(99).why("infeasible"));
        let s = obs.report().golden_summary(5);
        assert!(s.contains("decisions total 13"));
        assert!(s.contains("count place/head-of-line 12"));
        assert!(s.contains("count drop/infeasible 1"));
        assert_eq!(s.matches("first ").count(), 5);
        assert_eq!(s.matches("last ").count(), 5);
    }

    #[test]
    fn golden_summary_short_log_has_no_overlap() {
        let obs = Obs::enabled();
        obs.context(0.0, "p", "round");
        for i in 0..3 {
            obs.decision(Decision::drop(i).why("r"));
        }
        let s = obs.report().golden_summary(5);
        assert_eq!(s.matches("first ").count(), 3);
        assert_eq!(s.matches("last ").count(), 0);
    }
}
