//! The simulation engine: the one event loop behind every batch run,
//! streaming run and the resident daemon.
//!
//! [`Engine`] owns the whole simulation state — job table, event heap
//! and membership indexes, cluster books, fault log, timelines — and
//! exposes the event loop one *burst* at a time. Inputs
//! (job submissions, fault events) arrive through [`Engine::submit`] /
//! [`Engine::inject_fault`] at any point; [`Engine::advance_before`]
//! processes every burst strictly earlier than a given instant so a
//! caller replaying a timestamped command stream can interleave
//! injection and advancement; [`Engine::close_input`] +
//! [`Engine::run_to_end`] drain the remainder; [`Engine::finish`] folds
//! the tail (conformance asserts, fault log close-out, metric
//! aggregation) into a [`SimResult`]. Whole-trace runs go through the
//! [`crate::Run`] builder, which loads a sorted trace up front and
//! drains it.
//!
//! The loop is event-indexed (see `DESIGN.md` §11): a lazy-deletion
//! min-heap predicts the next job event, `BTreeSet` membership indexes
//! replace full job-table scans, and jobs advance lazily — only
//! `Running` members of the active set, and only when time actually
//! moves. Every floating-point accumulation happens with the same
//! operands in the same (ascending job-index) order as the pre-index
//! reference loop preserved in [`crate::reference`], which the
//! `engine_equivalence` suite holds this file to byte-for-byte.
//!
//! **Equivalence contract.** Feeding a sorted trace through
//! `submit`/`inject_fault` in any interleaving consistent with
//! `advance_before(event time)` — including all-up-front, which is
//! literally what [`crate::Run::batch`] does — produces byte-identical
//! output. The argument is the burst-window lemma: a burst at time `te`
//! consumes an arrival at `s` iff `s <= te + EPS`, i.e. `te >= s - EPS`;
//! `advance_before(s)` stops at exactly the first burst with
//! `te >= s - EPS`, so every burst it runs could not have seen the
//! arrival, and the first burst that could runs after injection.
//! `tests/server_e2e.rs` pins this across the batch/online boundary for
//! all five policies, with and without faults.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use arena_cluster::{Allocation, Cluster, GpuTypeId};
use arena_model::{ModelConfig, ModelFamily};
use arena_obs::{
    Counter, Decision, Gauge, Histogram, JobEventKind, MetricsRegistry, Obs, StopCause, TraceReport,
};
use arena_sched::PlanService;
use arena_sched::{
    Action, JobView, PlacementView, PlanMode, Policy, SchedEvent, SchedView, ShardQueue,
};
use arena_trace::{FaultEvent, FaultKind, JobSpec};

use crate::heap::EventHeap;
use crate::metrics::{aggregate, DecisionStats, FaultLog, FoldedRecords, JobRecord, Metrics};
use crate::store::JobStore;
use crate::stream::StreamSummary;
use serde::Serialize;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Scheduling-round interval, seconds (§7: 5 minutes).
    pub round_interval_s: f64,
    /// Fixed (re)start overhead per placement, seconds (process launch,
    /// NCCL bootstrap).
    pub restart_overhead_s: f64,
    /// Shared-storage bandwidth for checkpoint save + restore, bytes/s;
    /// restarting a job additionally costs `2 x checkpoint / bandwidth`,
    /// so shuffling big models is proportionally more expensive.
    pub checkpoint_bw_bps: f64,
    /// Periodic checkpoint interval while running, seconds. A node
    /// failure rolls the victim's progress back to its last checkpoint,
    /// so shorter intervals lose less work (but real systems pay more
    /// checkpoint stalls; that trade-off is not modelled here).
    pub checkpoint_interval_s: f64,
    /// Hard stop; jobs still queued/running are recorded as unfinished.
    pub horizon_s: f64,
}

impl SimConfig {
    /// The defaults used throughout the evaluation.
    #[must_use]
    pub fn new(horizon_s: f64) -> Self {
        SimConfig {
            round_interval_s: 300.0,
            restart_overhead_s: 30.0,
            checkpoint_bw_bps: 2.0e9,
            checkpoint_interval_s: 600.0,
            horizon_s,
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The policy's display name.
    pub policy: String,
    /// Final per-job records.
    pub records: Vec<JobRecord>,
    /// `(time, normalised cluster throughput)` at every round.
    pub timeline: Vec<(f64, f64)>,
    /// `(time, raw cluster throughput in samples/s)` at every round.
    pub raw_timeline: Vec<(f64, f64)>,
    /// Aggregated metrics.
    pub metrics: Metrics,
    /// The decision log and timeline the run recorded. Empty unless the
    /// run recorded into an enabled [`Obs`] (see [`crate::Run::obs`]);
    /// counters, gauges, histograms and spans are in that handle's
    /// registry ([`Obs::metrics`]).
    pub trace: TraceReport,
}

/// Why the engine refused an input. Rejection happens *before* the input
/// touches any engine state, so a caller can drop the bad input and keep
/// going — the server's reject-and-continue contract.
#[derive(Debug, Clone, PartialEq)]
pub enum InputError {
    /// Input stream already closed via [`Engine::close_input`].
    InputClosed,
    /// The timestamp is NaN or infinite.
    NonFiniteTime(f64),
    /// Submissions must be non-decreasing in `submit_s`.
    UnsortedSubmission {
        /// Watermark of the latest accepted submission.
        last_s: f64,
        /// The offending submission time.
        got_s: f64,
    },
    /// Fault events must be non-decreasing in `time_s`.
    UnsortedFault {
        /// Watermark of the latest accepted fault.
        last_s: f64,
        /// The offending fault time.
        got_s: f64,
    },
    /// The input is timestamped earlier than the engine clock: the
    /// burst that would consume it has already run.
    TimeRegression {
        /// Current engine clock.
        now_s: f64,
        /// The offending timestamp.
        got_s: f64,
    },
    /// A job with this id was already accepted.
    DuplicateJobId(u64),
    /// The fault names a pool/node the cluster does not have.
    NoSuchNode {
        /// Pool index from the fault event.
        pool: usize,
        /// Node index from the fault event.
        node: usize,
    },
    /// [`Engine::drop_job`] named a job the engine has never seen.
    UnknownJob(u64),
    /// The job's model size is not one of its family's Table-2 sizes.
    UnknownModel {
        /// The job's model family.
        family: ModelFamily,
        /// The offending nominal size, billions of parameters.
        params_b: f64,
    },
    /// The job requests a pool the cluster does not have.
    NoSuchPool(usize),
    /// The job requests no GPUs, or more than its pool has.
    UnsatisfiableGpus {
        /// GPUs requested.
        requested: usize,
        /// The requested pool's GPU count, failed nodes included.
        pool_gpus: usize,
    },
    /// The job has no iterations to run.
    ZeroIterations,
    /// The job's global batch is empty.
    ZeroBatch,
    /// The input is timestamped at or past the horizon, where the engine
    /// stops: it could never take effect.
    PastHorizon {
        /// The engine's horizon.
        horizon_s: f64,
        /// The offending timestamp.
        got_s: f64,
    },
    /// The job's deadline is negative or not finite.
    InvalidDeadline(f64),
}

impl std::fmt::Display for InputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InputError::InputClosed => write!(f, "input stream is closed"),
            InputError::NonFiniteTime(t) => write!(f, "non-finite timestamp {t}"),
            InputError::UnsortedSubmission { last_s, got_s } => {
                write!(f, "submission at {got_s}s after watermark {last_s}s")
            }
            InputError::UnsortedFault { last_s, got_s } => {
                write!(f, "fault at {got_s}s after watermark {last_s}s")
            }
            InputError::TimeRegression { now_s, got_s } => {
                write!(f, "input at {got_s}s but engine clock is {now_s}s")
            }
            InputError::DuplicateJobId(id) => write!(f, "duplicate job id {id}"),
            InputError::NoSuchNode { pool, node } => {
                write!(f, "no node {node} in pool {pool}")
            }
            InputError::UnknownJob(id) => write!(f, "unknown job id {id}"),
            InputError::UnknownModel { family, params_b } => {
                write!(f, "{family}-{params_b}B is not a Table-2 configuration")
            }
            InputError::NoSuchPool(pool) => write!(f, "no pool {pool}"),
            InputError::UnsatisfiableGpus {
                requested,
                pool_gpus,
            } => write!(
                f,
                "{requested} GPUs requested from a pool of {pool_gpus} GPUs"
            ),
            InputError::ZeroIterations => write!(f, "job has zero iterations"),
            InputError::ZeroBatch => write!(f, "job has a zero global batch"),
            InputError::PastHorizon { horizon_s, got_s } => {
                write!(
                    f,
                    "input at {got_s}s is at or past the horizon {horizon_s}s"
                )
            }
            InputError::InvalidDeadline(d) => write!(f, "invalid deadline {d}s"),
        }
    }
}

impl std::error::Error for InputError {}

/// A job's lifecycle phase as exposed in [`EngineState`] snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum JobPhase {
    /// Accepted but not yet due (submit time in the engine's future).
    Pending,
    /// Waiting in the scheduler queue.
    Queued,
    /// Holds GPUs, paying restart/profile overhead before running.
    Starting,
    /// Making progress.
    Running,
    /// Completed all iterations.
    Finished,
    /// Rejected or cancelled.
    Dropped,
}

impl JobPhase {
    /// Stable lowercase label (used by the server's JSON encoding).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobPhase::Pending => "pending",
            JobPhase::Queued => "queued",
            JobPhase::Starting => "starting",
            JobPhase::Running => "running",
            JobPhase::Finished => "finished",
            JobPhase::Dropped => "dropped",
        }
    }
}

/// One job's externally-visible status inside an [`EngineState`].
#[derive(Debug, Clone, Serialize)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// Job name.
    pub name: String,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Pool holding the job's GPUs (meaningful while Starting/Running).
    pub pool: usize,
    /// GPUs currently held (0 unless Starting/Running).
    pub gpus: usize,
    /// Restart count so far.
    pub restarts: u32,
    /// Submission time, seconds.
    pub submit_s: f64,
    /// First progress time, if any.
    pub start_s: Option<f64>,
    /// Completion time, if any.
    pub finish_s: Option<f64>,
    /// Iterations still to run.
    pub remaining_iters: f64,
}

/// Per-pool capacity books inside an [`EngineState`].
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PoolSnapshot {
    /// Pool index.
    pub pool: usize,
    /// Nameplate GPUs.
    pub total_gpus: usize,
    /// GPUs free on healthy nodes.
    pub free_gpus: usize,
    /// GPUs allocated to jobs.
    pub used_gpus: usize,
    /// GPUs on failed nodes.
    pub failed_gpus: usize,
}

/// An immutable, internally-consistent view of the engine between two
/// bursts — what the server publishes through its snapshot hub. Built by
/// the single writer thread, so every count is taken from the same
/// instant; the conservation invariants (`submitted` equals the sum of
/// the six phase counts, per-pool `free + used + failed == total`, and
/// `used == Σ gpus` over jobs holding GPUs) hold by construction and
/// are pinned by the concurrent-reader suite.
#[derive(Debug, Clone, Serialize)]
pub struct EngineState {
    /// Engine clock, seconds.
    pub now_s: f64,
    /// Jobs accepted (arrived or still pending).
    pub submitted: usize,
    /// Jobs accepted but not yet due.
    pub pending: usize,
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Jobs holding GPUs but not yet running.
    pub starting: usize,
    /// Jobs making progress.
    pub running: usize,
    /// Jobs completed.
    pub finished: usize,
    /// Jobs dropped or cancelled.
    pub dropped: usize,
    /// Whether the input stream is closed.
    pub input_closed: bool,
    /// Whether the run has fully drained (no further bursts possible).
    pub drained: bool,
    /// Per-pool capacity books.
    pub pools: Vec<PoolSnapshot>,
    /// Per-job statuses, ascending submission order (arrived jobs
    /// first, then pending ones).
    pub jobs: Vec<JobStatus>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum JState {
    Queued,
    /// Restarting/exploring until the given time; holds GPUs, no progress.
    Starting(f64),
    Running,
    Finished,
    Dropped,
}

pub(crate) struct SJob {
    pub(crate) spec: Arc<JobSpec>,
    pub(crate) state: JState,
    /// Epoch for this job's event-heap entries: bumped on every
    /// transition that invalidates a predicted event, so stale heap
    /// entries identify themselves by generation mismatch.
    pub(crate) generation: u64,
    /// Simulation time this job's progress was last advanced to. Lags
    /// the clock only across zero-width event bursts, where an advance
    /// would be an exact no-op.
    pub(crate) last_update_s: f64,
    pub(crate) remaining: f64,
    pub(crate) alloc: Option<Allocation>,
    pub(crate) pool: usize,
    pub(crate) gpus: usize,
    pub(crate) opportunistic: bool,
    pub(crate) sps: f64,
    pub(crate) iter_time: f64,
    pub(crate) start_s: Option<f64>,
    pub(crate) finish_s: Option<f64>,
    pub(crate) restarts: u32,
    pub(crate) profiled: bool,
    /// Wall-clock spent running since the last checkpoint; on a node
    /// failure this much progress is lost.
    pub(crate) since_ckpt_s: f64,
    /// Set when a failure evicts the job; cleared (and recorded) when it
    /// runs again.
    pub(crate) recovering_since: Option<f64>,
    /// Start of the current `Running` segment; flushed into the totals
    /// when the job stops, finishes, or the run ends.
    pub(crate) run_since: Option<f64>,
    /// Start of the current GPU-holding segment (`Starting` or
    /// `Running`); flushed like `run_since`.
    pub(crate) alloc_since: Option<f64>,
    /// Total wall-clock spent running.
    pub(crate) run_s: f64,
    /// GPU-seconds spent making progress (`Running` only).
    pub(crate) productive_gpu_s: f64,
    /// GPU-seconds held, productive or not (`Starting` + `Running`).
    pub(crate) allocated_gpu_s: f64,
}

impl SJob {
    pub(crate) fn active(&self) -> bool {
        matches!(self.state, JState::Starting(_) | JState::Running)
    }

    /// Closes the current `Running` segment at `t`. The accumulation —
    /// one `(t - since) * gpus` product added per segment, in
    /// chronological order — mirrors [`arena_obs::Timeline::accounts`]
    /// exactly, so the two stay bitwise equal.
    pub(crate) fn flush_run(&mut self, t: f64) {
        if let Some(since) = self.run_since.take() {
            let dt = t - since;
            self.run_s += dt;
            self.productive_gpu_s += dt * self.gpus as f64;
        }
    }

    /// Closes the current GPU-holding segment at `t` (see
    /// [`SJob::flush_run`]).
    pub(crate) fn flush_alloc(&mut self, t: f64) {
        if let Some(since) = self.alloc_since.take() {
            self.allocated_gpu_s += (t - since) * self.gpus as f64;
        }
    }

    /// The one release path: closes the job's open segments at `t`,
    /// returns its GPUs (if it holds any) to `cluster` and records the
    /// release.
    pub(crate) fn release(&mut self, t: f64, cluster: &mut Cluster, obs: &Obs) {
        self.flush_run(t);
        self.flush_alloc(t);
        if let Some(alloc) = self.alloc.take() {
            // Cannot fail: `cluster` granted this allocation, and
            // `take()` hands it back exactly once.
            cluster
                .release(&alloc)
                .expect("the cluster granted this allocation");
            obs.alloc_event(t, self.spec.id, alloc.pool.0, &alloc.node_gpus, false);
        }
    }
}

/// The engine's membership indexes over the job table plus its
/// pending-event heap.
///
/// Invariants: `queued` holds exactly the `Queued` job indices and
/// `active` exactly the `Starting`/`Running` ones — both iterate in
/// ascending index order, which is submission order, the same order the
/// reference loop's full-table scans visit jobs in. Every active job has
/// exactly one *fresh* heap entry (generation matches) carrying its next
/// predicted event; everything else in the heap is stale and discarded
/// lazily.
#[derive(Default)]
pub(crate) struct EventIndex {
    pub(crate) queued: BTreeSet<usize>,
    pub(crate) active: BTreeSet<usize>,
    pub(crate) heap: EventHeap,
}

impl EventIndex {
    /// Queued or active -> holding a fresh grant (`Starting`): schedules
    /// the start deadline and invalidates any previous prediction.
    pub(crate) fn place(&mut self, j: &mut SJob, idx: usize, ready_at: f64) {
        self.queued.remove(&idx);
        self.active.insert(idx);
        j.generation += 1;
        self.heap.push(ready_at, j.generation, idx);
    }

    /// Active (or already queued, after a capacity race) -> `Queued`.
    pub(crate) fn requeue(&mut self, j: &mut SJob, idx: usize) {
        self.active.remove(&idx);
        self.queued.insert(idx);
        j.generation += 1;
    }

    /// Any state -> terminal (`Finished` / `Dropped`).
    pub(crate) fn retire(&mut self, j: &mut SJob, idx: usize) {
        self.queued.remove(&idx);
        self.active.remove(&idx);
        j.generation += 1;
    }
}

/// Burst window: events within this many seconds of a burst's time
/// fire in that burst.
pub(crate) const EPS: f64 = 1e-6;

/// Pre-registered live-telemetry handles for the decision loop
/// (DESIGN.md §14). Present whenever the engine's [`Obs`] records
/// anything, since every recording handle carries a
/// [`MetricsRegistry`]; every update is a handful of relaxed atomic
/// ops, so the plane stays on even inside the hot path.
struct EngineTelemetry {
    /// Wall-clock of one full burst (advance + events + dispatch).
    burst: Histogram,
    /// Event-heap depth after each burst.
    heap_depth: Gauge,
    /// Estimator table-cache hit ratio, refreshed after every dispatch.
    est_table_ratio: Gauge,
    /// Cumulative wall-clock spent computing estimates, seconds.
    est_seconds: Gauge,
    /// Per-stage burst latency. Held as resolved handles: the
    /// per-event path must never pay a name-routed lookup. The view
    /// build (which also releases the previous pass's views) keeps its
    /// `sim.shard.merge` name and the prepare pass its
    /// `sim.shard.prepare` name because the end-to-end benchmark
    /// (`e2ebench/`) reads them.
    stage_merge: Histogram,
    stage_prepare: Histogram,
    stage_schedule: Histogram,
    stage_commit: Histogram,
    /// The advance walk plus starts and completions (burst steps 1–2).
    stage_advance: Histogram,
    /// Arrivals (burst step 3).
    stage_arrive: Histogram,
    /// The round-boundary throughput sample (burst step 6).
    stage_sample: Histogram,
    /// Actions emitted per scheduling pass.
    actions_per_pass: Histogram,
    /// Queue / running lengths at each dispatch.
    queue_depth: Gauge,
    running_jobs: Gauge,
    /// One counter per scheduling event kind.
    ev_arrival: Counter,
    ev_departure: Counter,
    ev_round: Counter,
    ev_failure: Counter,
    ev_repair: Counter,
}

impl EngineTelemetry {
    fn new(reg: &MetricsRegistry) -> Self {
        EngineTelemetry {
            burst: reg.histogram("sim.stage.burst_seconds"),
            heap_depth: reg.gauge("sim.heap_depth"),
            est_table_ratio: reg.gauge("sim.estimator.table_hit_ratio"),
            est_seconds: reg.gauge("sim.estimator.estimate_seconds"),
            stage_merge: reg.histogram("sim.shard.merge"),
            stage_prepare: reg.histogram("sim.shard.prepare"),
            stage_schedule: reg.histogram("sim.schedule"),
            stage_commit: reg.histogram("sim.commit"),
            stage_advance: reg.histogram("sim.advance"),
            stage_arrive: reg.histogram("sim.arrive"),
            stage_sample: reg.histogram("sim.sample"),
            actions_per_pass: reg.histogram("sim.actions_per_pass"),
            queue_depth: reg.gauge("sim.queue_depth"),
            running_jobs: reg.gauge("sim.running_jobs"),
            ev_arrival: reg.counter("sim.event.arrival"),
            ev_departure: reg.counter("sim.event.departure"),
            ev_round: reg.counter("sim.event.round"),
            ev_failure: reg.counter("sim.event.node-failure"),
            ev_repair: reg.counter("sim.event.node-repair"),
        }
    }

    /// The pre-resolved counter of `sim.event.<label>` for an event.
    fn event_counter(&self, ev: SchedEvent) -> &Counter {
        match ev {
            SchedEvent::Arrival(_) => &self.ev_arrival,
            SchedEvent::Departure(_) => &self.ev_departure,
            SchedEvent::Round => &self.ev_round,
            SchedEvent::NodeFailure { .. } => &self.ev_failure,
            SchedEvent::NodeRepair { .. } => &self.ev_repair,
        }
    }

    /// Refreshes the estimator gauges from a cache-stats snapshot.
    fn observe_estimator(&self, est: &arena_estimator::CacheStatsSnapshot) {
        let lookups = est.table_hits + est.table_misses;
        self.est_table_ratio.set(if lookups == 0 {
            0.0
        } else {
            est.table_hits as f64 / lookups as f64
        });
        self.est_seconds.set(est.estimate_ns as f64 / 1e9);
    }
}

/// RAII stage timer for the decision loop: on drop the stage's
/// wall-clock lands in a pre-resolved registry histogram (a few relaxed
/// atomic ops, no name lookup).
struct StageGuard(Histogram, std::time::Instant);

impl Drop for StageGuard {
    fn drop(&mut self) {
        self.0.observe(self.1.elapsed().as_secs_f64());
    }
}

/// The argument [`Engine::new`] still takes in place of the removed
/// executor-shard plan. It carries nothing and changes nothing; it
/// remains only because the end-to-end benchmark (`e2ebench/`) builds
/// engines with `ShardPlan::per_pool`, and goes with the next change to
/// that benchmark.
#[derive(Debug)]
pub struct ShardPlan;

impl ShardPlan {
    /// The (only) plan: one event loop over the whole cluster.
    #[must_use]
    pub fn per_pool(_cluster: &Cluster) -> Self {
        ShardPlan
    }
}

/// The simulation engine. See the module docs for the API shape and the
/// equivalence contract.
pub struct Engine<'a> {
    cluster: Cluster,
    cfg: SimConfig,
    obs: Obs,
    policy: &'a mut dyn Policy,
    service: &'a PlanService,
    sjobs: JobStore,
    id_of: HashMap<u64, usize>,
    seen_ids: HashSet<u64>,
    index: EventIndex,
    // Scratch for the burst walks that edit the active set they walk:
    // a copy of it in ascending index order.
    order: Vec<usize>,
    // The policy's queued and running views, refilled every pass (see
    // `fill_views`); kept between passes so the release of the previous
    // pass's views falls inside the view-build stage.
    view_queued: Vec<JobView>,
    view_running: Vec<JobView>,
    // Every (configuration, GPUs, pool) a placement has acquired a plan
    // for: only the first placement of each pays the acquisition wall.
    acquired: HashSet<(ModelConfig, usize, usize)>,
    t: f64,
    flog: FaultLog,
    next_round: f64,
    timeline: Vec<(f64, f64)>,
    raw_timeline: Vec<(f64, f64)>,
    pending_jobs: VecDeque<JobSpec>,
    pending_faults: VecDeque<FaultEvent>,
    last_submit_s: f64,
    last_fault_s: f64,
    input_open: bool,
    stopped: bool,
    cluster_gpu_capacity: usize,
    tele: Option<EngineTelemetry>,
    // Record-fold mode (streaming runs): terminal jobs fold into a
    // constant-memory aggregate and release their job-table slot at the
    // end of the burst that terminated them. Off by default — batch and
    // daemon runs keep every record for `finish`.
    fold_records: bool,
    folded: FoldedRecords,
    reclaim_pending: Vec<usize>,
    decision_stats: DecisionStats,
    peak_live_jobs: usize,
    // Scheduling passes since construction; clocks the memory-ledger
    // gauge refresh (see the dispatch tail).
    mem_clock: u64,
}

impl<'a> Engine<'a> {
    /// A fresh engine over a cluster, ready to accept inputs at `t = 0`.
    /// `_plan` is unused (see [`ShardPlan`]).
    #[must_use]
    pub fn new(
        cluster: &Cluster,
        policy: &'a mut dyn Policy,
        service: &'a PlanService,
        cfg: &SimConfig,
        obs: &Obs,
        _plan: &ShardPlan,
    ) -> Self {
        if obs.is_enabled() {
            let nodes: Vec<(usize, usize, usize)> = cluster
                .pool_ids()
                .flat_map(|pool| {
                    let cap = cluster.spec(pool).gpus_per_node;
                    (0..cluster.num_nodes(pool)).map(move |node| (pool.0, node, cap))
                })
                .collect();
            obs.timeline_nodes(&nodes);
        }
        Engine {
            cluster: cluster.clone(),
            cfg: cfg.clone(),
            obs: obs.clone(),
            policy,
            service,
            sjobs: JobStore::new(),
            id_of: HashMap::new(),
            seen_ids: HashSet::new(),
            index: EventIndex::default(),
            order: Vec::new(),
            view_queued: Vec::new(),
            view_running: Vec::new(),
            acquired: HashSet::new(),
            t: 0.0,
            flog: FaultLog::default(),
            next_round: cfg.round_interval_s,
            timeline: Vec::new(),
            raw_timeline: Vec::new(),
            pending_jobs: VecDeque::new(),
            pending_faults: VecDeque::new(),
            last_submit_s: f64::NEG_INFINITY,
            last_fault_s: f64::NEG_INFINITY,
            input_open: true,
            stopped: false,
            cluster_gpu_capacity: cluster.total_gpus(),
            tele: obs.metrics().map(|reg| EngineTelemetry::new(reg)),
            fold_records: false,
            folded: FoldedRecords::default(),
            reclaim_pending: Vec::new(),
            decision_stats: DecisionStats::default(),
            peak_live_jobs: 0,
            mem_clock: 0,
        }
    }

    /// Switches the engine into record-fold mode for streaming runs:
    /// terminal jobs fold into a [`FoldedRecords`] aggregate and their
    /// job-table slot is reclaimed at the end of the burst that
    /// terminated them, so resident memory follows the *live* job count
    /// instead of the trace length. The duplicate-id ledger is skipped
    /// too (streaming drivers feed pre-validated sources), which means
    /// [`Engine::submit`] / [`Engine::drop_job`] lose duplicate/unknown
    /// detection — fold mode is for [`crate::stream`] drivers, not the
    /// daemon. Finish such a run with [`Engine::finish_stream`].
    ///
    /// Folding is invisible in scheduling output: a reclaimed job is
    /// terminal, so every engine path already treated it as inert
    /// (stale heap entries, id-miss `continue`s in the executor).
    ///
    /// # Panics
    ///
    /// Panics if any job was already submitted.
    pub fn enable_record_fold(&mut self) {
        assert!(
            self.sjobs.is_empty() && self.pending_jobs.is_empty(),
            "record-fold mode must be enabled before any submission"
        );
        self.fold_records = true;
    }

    /// Engine clock, seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.t
    }

    /// Whether the run has fully drained: no further burst can fire.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.stopped
    }

    /// Whether the input stream is still open.
    #[must_use]
    pub fn input_open(&self) -> bool {
        self.input_open
    }

    /// Queues a job submission. Validation happens before any state is
    /// touched; on `Err` the engine is exactly as it was.
    ///
    /// # Errors
    ///
    /// See [`Engine::check_submit`].
    pub fn submit(&mut self, spec: JobSpec) -> Result<(), InputError> {
        self.check_submit(&spec)?;
        self.push_job_unchecked(spec);
        Ok(())
    }

    /// Every check [`Engine::submit`] applies, without submitting. A
    /// caller that advances the clock to a submission's timestamp before
    /// submitting it (the daemon) checks first, so a refused job moves
    /// nothing. Advancing never turns an accepted job into a refused one:
    /// `advance_before(s)` leaves the clock more than `EPS` short of `s`.
    ///
    /// # Errors
    ///
    /// Rejects closed input, non-finite/unsorted/past timestamps and
    /// timestamps at or past the horizon, negative or non-finite
    /// deadlines, duplicate job ids, model sizes outside the family's
    /// Table-2 list (the only sizes the model builders accept), pools the
    /// cluster does not have, GPU requests of zero or above the pool's
    /// GPU count (failed nodes included, so a repair can always satisfy
    /// the job), zero iterations and a zero global batch.
    pub fn check_submit(&self, spec: &JobSpec) -> Result<(), InputError> {
        if !self.input_open {
            return Err(InputError::InputClosed);
        }
        self.check_time(spec.submit_s)?;
        if let Some(d) = spec.deadline_s {
            if !d.is_finite() || d < 0.0 {
                return Err(InputError::InvalidDeadline(d));
            }
        }
        if spec.submit_s < self.last_submit_s {
            return Err(InputError::UnsortedSubmission {
                last_s: self.last_submit_s,
                got_s: spec.submit_s,
            });
        }
        if spec.submit_s < self.t - EPS {
            return Err(InputError::TimeRegression {
                now_s: self.t,
                got_s: spec.submit_s,
            });
        }
        if self.seen_ids.contains(&spec.id) {
            return Err(InputError::DuplicateJobId(spec.id));
        }
        let model = &spec.model;
        if !model.family.has_table2_size(model.params_b) {
            return Err(InputError::UnknownModel {
                family: model.family,
                params_b: model.params_b,
            });
        }
        if spec.requested_pool >= self.cluster.num_pools() {
            return Err(InputError::NoSuchPool(spec.requested_pool));
        }
        let pool = GpuTypeId(spec.requested_pool);
        let pool_gpus = self.cluster.num_nodes(pool) * self.cluster.spec(pool).gpus_per_node;
        if spec.requested_gpus == 0 || spec.requested_gpus > pool_gpus {
            return Err(InputError::UnsatisfiableGpus {
                requested: spec.requested_gpus,
                pool_gpus,
            });
        }
        if spec.iterations == 0 {
            return Err(InputError::ZeroIterations);
        }
        if model.global_batch == 0 {
            return Err(InputError::ZeroBatch);
        }
        Ok(())
    }

    /// Queues a fault event.
    ///
    /// # Errors
    ///
    /// Rejects closed input, non-finite/unsorted/past timestamps,
    /// timestamps at or past the horizon and pool/node coordinates the
    /// cluster does not have.
    pub fn inject_fault(&mut self, fault: FaultEvent) -> Result<(), InputError> {
        if !self.input_open {
            return Err(InputError::InputClosed);
        }
        self.check_time(fault.time_s)?;
        if fault.time_s < self.last_fault_s {
            return Err(InputError::UnsortedFault {
                last_s: self.last_fault_s,
                got_s: fault.time_s,
            });
        }
        if fault.time_s < self.t - EPS {
            return Err(InputError::TimeRegression {
                now_s: self.t,
                got_s: fault.time_s,
            });
        }
        if fault.pool >= self.cluster.num_pools()
            || fault.node >= self.cluster.num_nodes(GpuTypeId(fault.pool))
        {
            return Err(InputError::NoSuchNode {
                pool: fault.pool,
                node: fault.node,
            });
        }
        self.push_fault_unchecked(fault);
        Ok(())
    }

    /// Refuses an input timestamp that is not finite or lies at or past
    /// the horizon. Accepting either would raise the input's watermark
    /// past every timestamp the engine can still run.
    fn check_time(&self, t: f64) -> Result<(), InputError> {
        if !t.is_finite() {
            return Err(InputError::NonFiniteTime(t));
        }
        if t >= self.cfg.horizon_s {
            return Err(InputError::PastHorizon {
                horizon_s: self.cfg.horizon_s,
                got_s: t,
            });
        }
        Ok(())
    }

    /// Enqueues a job bypassing validation — [`crate::Run`] feeds
    /// pre-asserted traces through this to keep the batch semantics
    /// (including tolerated duplicate ids) bit-for-bit.
    pub(crate) fn push_job_unchecked(&mut self, spec: JobSpec) {
        self.last_submit_s = self.last_submit_s.max(spec.submit_s);
        if !self.fold_records {
            // The ledger is O(trace length); fold-mode sources are
            // pre-validated, so streaming runs skip it.
            self.seen_ids.insert(spec.id);
        }
        self.pending_jobs.push_back(spec);
    }

    /// Enqueues a fault bypassing validation ([`crate::Run`]).
    pub(crate) fn push_fault_unchecked(&mut self, fault: FaultEvent) {
        self.last_fault_s = self.last_fault_s.max(fault.time_s);
        self.pending_faults.push_back(fault);
    }

    /// Declares the input stream complete: the drain loop may now
    /// terminate once the queues empty. Idempotent.
    pub fn close_input(&mut self) {
        self.input_open = false;
    }

    /// Cancels a job online: releases its GPUs, marks it dropped and
    /// lets the policy react to the departure. This is the engine-level
    /// mirror of [`arena_sched::Action::Drop`] for operator-initiated
    /// completions; it has no batch counterpart and therefore no place
    /// in the equivalence fingerprint.
    ///
    /// # Errors
    ///
    /// Rejects ids the engine has never accepted.
    pub fn drop_job(&mut self, id: u64) -> Result<(), InputError> {
        if !self.seen_ids.contains(&id) {
            return Err(InputError::UnknownJob(id));
        }
        if let Some(&idx) = self.id_of.get(&id) {
            let t = self.t;
            let j = &mut self.sjobs[idx];
            if matches!(j.state, JState::Finished | JState::Dropped) {
                return Ok(());
            }
            j.release(t, &mut self.cluster, &self.obs);
            j.state = JState::Dropped;
            self.obs.job_event(t, id, JobEventKind::Drop);
            self.index.retire(j, idx);
            if self.fold_records {
                self.reclaim_pending.push(idx);
            }
            self.dispatch(SchedEvent::Departure(id));
            self.process_reclaims();
        } else {
            // Accepted but not yet arrived: cancel it in the input queue.
            self.pending_jobs.retain(|s| s.id != id);
        }
        Ok(())
    }

    /// Runs bursts while the next burst time is strictly earlier than
    /// `s - EPS` — i.e. while the burst could not consume an input
    /// timestamped at `s` (see the module docs for the lemma). A caller
    /// replaying a timestamped command stream calls
    /// `advance_before(cmd.time)` then injects the command.
    pub fn advance_before(&mut self, s: f64) {
        while !self.stopped {
            let te = self.peek_te();
            if !te.is_finite() {
                self.stopped = true;
                break;
            }
            if te >= s - EPS {
                break;
            }
            self.burst_timed(te);
        }
    }

    /// Runs one burst. Returns `false` once the run has drained.
    pub fn step(&mut self) -> bool {
        if self.stopped {
            return false;
        }
        let te = self.peek_te();
        if !te.is_finite() {
            self.stopped = true;
            return false;
        }
        self.burst_timed(te);
        !self.stopped
    }

    /// Drains every remaining burst.
    pub fn run_to_end(&mut self) {
        while self.step() {}
    }

    /// Builds an immutable status snapshot of the current state.
    #[must_use]
    pub fn state(&self) -> EngineState {
        let mut jobs: Vec<JobStatus> =
            Vec::with_capacity(self.sjobs.live() + self.pending_jobs.len());
        let (mut queued, mut starting, mut running, mut finished, mut dropped) = (0, 0, 0, 0, 0);
        for (_, j) in self.sjobs.iter() {
            let phase = match j.state {
                JState::Queued => {
                    queued += 1;
                    JobPhase::Queued
                }
                JState::Starting(_) => {
                    starting += 1;
                    JobPhase::Starting
                }
                JState::Running => {
                    running += 1;
                    JobPhase::Running
                }
                JState::Finished => {
                    finished += 1;
                    JobPhase::Finished
                }
                JState::Dropped => {
                    dropped += 1;
                    JobPhase::Dropped
                }
            };
            let holds = j.active();
            jobs.push(JobStatus {
                id: j.spec.id,
                name: j.spec.name.clone(),
                phase,
                pool: if holds { j.pool } else { 0 },
                gpus: if holds { j.gpus } else { 0 },
                restarts: j.restarts,
                submit_s: j.spec.submit_s,
                start_s: j.start_s,
                finish_s: j.finish_s,
                remaining_iters: j.remaining,
            });
        }
        for spec in &self.pending_jobs {
            jobs.push(JobStatus {
                id: spec.id,
                name: spec.name.clone(),
                phase: JobPhase::Pending,
                pool: 0,
                gpus: 0,
                restarts: 0,
                submit_s: spec.submit_s,
                start_s: None,
                finish_s: None,
                remaining_iters: spec.iterations as f64,
            });
        }
        let pools = self
            .cluster
            .pool_stats()
            .iter()
            .map(|p| PoolSnapshot {
                pool: p.id.0,
                total_gpus: p.total_gpus,
                free_gpus: p.free_gpus,
                used_gpus: p.total_gpus - p.free_gpus - p.failed_gpus,
                failed_gpus: p.failed_gpus,
            })
            .collect();
        // Folded (reclaimed) jobs keep counting toward the totals so the
        // conservation invariant survives record-fold mode; their
        // per-job statuses are gone by design.
        EngineState {
            now_s: self.t,
            submitted: self.sjobs.live() + self.folded.jobs as usize + self.pending_jobs.len(),
            pending: self.pending_jobs.len(),
            queued,
            starting,
            running,
            finished: finished + self.folded.finished as usize,
            dropped: dropped + self.folded.dropped as usize,
            input_closed: !self.input_open,
            drained: self.stopped,
            pools,
            jobs,
        }
    }

    /// Folds the drained run into a [`SimResult`]: conformance asserts,
    /// fault-log close-out, open-segment flushes, metric aggregation,
    /// estimator counter export.
    ///
    /// # Panics
    ///
    /// Panics if a terminal job still holds GPUs (engine invariant), or
    /// if the engine runs in record-fold mode (use
    /// [`Engine::finish_stream`], which returns the folded aggregate
    /// instead of per-job records).
    #[must_use]
    pub fn finish(mut self) -> SimResult {
        assert!(
            !self.fold_records,
            "record-fold runs finish via finish_stream"
        );
        // Conformance: terminal jobs hold no GPUs, and the membership
        // indexes agree with the job table.
        for (i, j) in self.sjobs.iter() {
            if matches!(j.state, JState::Finished | JState::Dropped) {
                assert!(j.alloc.is_none(), "terminal job {} holds GPUs", j.spec.id);
            }
            debug_assert_eq!(
                self.index.queued.contains(&i),
                j.state == JState::Queued,
                "queued index out of sync for job {}",
                j.spec.id
            );
            debug_assert_eq!(
                self.index.active.contains(&i),
                j.active(),
                "active index out of sync for job {}",
                j.spec.id
            );
        }
        self.flog.elapsed_s = self.t.min(self.cfg.horizon_s);
        self.flog.gpu_capacity_s = self.cluster_gpu_capacity as f64 * self.flog.elapsed_s;
        let t_end = self.flog.elapsed_s;
        for (_, j) in self.sjobs.iter_mut() {
            j.flush_run(t_end);
            j.flush_alloc(t_end);
        }
        self.obs.timeline_close(t_end);

        let records: Vec<JobRecord> = self.sjobs.iter().map(|(_, j)| job_record(j)).collect();
        let metrics = aggregate(
            &records,
            &self.timeline,
            &self.raw_timeline,
            &self.decision_stats,
            &self.flog,
        );
        if self.obs.is_enabled() {
            let est = self.service.estimator_stats();
            self.obs
                .incr("estimator.estimate.misses", est.estimate_misses);
            self.obs
                .incr("estimator.profile.misses", est.profile_misses);
            self.obs.incr("estimator.table.hits", est.table_hits);
            self.obs.incr("estimator.table.misses", est.table_misses);
        }
        SimResult {
            policy: self.policy.name().to_string(),
            records,
            timeline: self.timeline,
            raw_timeline: self.raw_timeline,
            metrics,
            trace: self.obs.report(),
        }
    }

    /// Folds a drained record-fold run into a [`StreamSummary`] — the
    /// batch tail of [`Engine::finish`] without ever materialising the
    /// record vector: residual (non-terminal) jobs flush their open
    /// segments at `t_end` and fold like everything that already
    /// terminated mid-run.
    ///
    /// # Panics
    ///
    /// Panics unless [`Engine::enable_record_fold`] was called, or if a
    /// terminal job still holds GPUs (engine invariant).
    #[must_use]
    pub fn finish_stream(mut self) -> StreamSummary {
        assert!(
            self.fold_records,
            "finish_stream requires record-fold mode (enable_record_fold)"
        );
        self.process_reclaims();
        self.flog.elapsed_s = self.t.min(self.cfg.horizon_s);
        self.flog.gpu_capacity_s = self.cluster_gpu_capacity as f64 * self.flog.elapsed_s;
        let t_end = self.flog.elapsed_s;
        let residual: Vec<usize> = self.sjobs.iter().map(|(i, _)| i).collect();
        for idx in residual {
            let j = &mut self.sjobs[idx];
            if matches!(j.state, JState::Finished | JState::Dropped) {
                assert!(j.alloc.is_none(), "terminal job {} holds GPUs", j.spec.id);
            }
            j.flush_run(t_end);
            j.flush_alloc(t_end);
            let rec = job_record(&self.sjobs[idx]);
            self.folded.fold(&rec);
            self.sjobs.reclaim(idx);
        }
        self.obs.timeline_close(t_end);
        let folded = self.folded;
        let flog = &self.flog;
        StreamSummary {
            policy: self.policy.name().to_string(),
            fingerprint: folded.fingerprint(),
            jobs: folded,
            decisions: self.decision_stats,
            // Fault-log derived rates, mirroring `aggregate`.
            goodput_sps: if flog.elapsed_s > 0.0 {
                (flog.samples_processed - flog.samples_lost).max(0.0) / flog.elapsed_s
            } else {
                0.0
            },
            work_lost_frac: if flog.samples_processed > 0.0 {
                flog.samples_lost / flog.samples_processed
            } else {
                0.0
            },
            failure_evictions: flog.failure_evictions,
            mean_recovery_s: if flog.recovery_times_s.is_empty() {
                0.0
            } else {
                flog.recovery_times_s.iter().sum::<f64>() / flog.recovery_times_s.len() as f64
            },
            cluster_util_frac: if flog.gpu_capacity_s > 0.0 {
                folded.productive_gpu_s / flog.gpu_capacity_s
            } else {
                0.0
            },
            elapsed_s: flog.elapsed_s,
            peak_live_jobs: self.peak_live_jobs,
            timeline: self.timeline,
            raw_timeline: self.raw_timeline,
        }
    }

    /// Folds every job queued for reclamation into the aggregate and
    /// frees its slot. Deferred to burst end (and input-command
    /// boundaries) so action lists and event handling inside the
    /// terminating burst still resolve the job by id — between the
    /// terminal transition and the reclaim, every path already treats
    /// the job as inert.
    fn process_reclaims(&mut self) {
        while let Some(idx) = self.reclaim_pending.pop() {
            let rec = {
                let j = &self.sjobs[idx];
                debug_assert!(
                    matches!(j.state, JState::Finished | JState::Dropped),
                    "reclaiming a non-terminal job"
                );
                job_record(j)
            };
            // A tolerated duplicate id maps to its first slot; only the
            // mapping owner removes it.
            if self.id_of.get(&rec.id).is_some_and(|&m| m == idx) {
                self.id_of.remove(&rec.id);
            }
            self.folded.fold(&rec);
            self.sjobs.reclaim(idx);
        }
    }

    /// Heap maintenance plus the next-event computation. The heap's
    /// fresh minimum is the value the reference loop's scan folds to.
    /// Maintenance (lazy-deletion compaction) is purely a memory cap:
    /// stale entries below the top cannot affect `next_fresh`.
    fn peek_te(&mut self) -> f64 {
        let sjobs = &self.sjobs;
        let index = &mut self.index;
        if index.heap.len() > 1024 && index.heap.len() > 8 * (index.active.len() + 1) {
            index
                .heap
                .compact(|job, generation| sjobs.is_fresh(job, generation));
        }
        let next_arrival = self.pending_jobs.front().map(|j| j.submit_s);
        let next_fault = self
            .pending_faults
            .front()
            .map_or(f64::INFINITY, |f| f.time_s);
        let next_job_event = index
            .heap
            .next_fresh(|job, generation| sjobs.is_fresh(job, generation));
        [
            next_arrival.unwrap_or(f64::INFINITY),
            next_fault,
            self.next_round,
            next_job_event,
            self.cfg.horizon_s,
        ]
        .into_iter()
        .fold(f64::INFINITY, f64::min)
    }

    /// [`Engine::burst`] wrapped in live telemetry: burst wall-clock
    /// plus the heap-depth gauge. A no-op wrapper
    /// when no registry is attached, so a registry-less run pays nothing.
    fn burst_timed(&mut self, te: f64) {
        let timer = self
            .tele
            .as_ref()
            .map(|tele| (tele.burst.clone(), std::time::Instant::now()));
        self.burst(te);
        if let Some((hist, started)) = timer {
            hist.observe(started.elapsed().as_secs_f64());
            if let Some(tele) = &self.tele {
                tele.heap_depth.set(self.index.heap.len() as f64);
            }
        }
    }

    /// One burst at `te`: advance, start, finish, fault, arrive, tick,
    /// dispatch, sample.
    #[allow(clippy::too_many_lines)]
    fn burst(&mut self, te: f64) {
        // Every walk visits the active set in ascending index (submission)
        // order, the reference loop's job order for `flog`, cluster
        // releases and obs events.
        let advance = stage(self.tele.as_ref(), |tele| &tele.stage_advance);

        // Advance running jobs to `te`. Lazy on two axes, both exact:
        // only Running members of the active set step (everything else
        // was a no-op in the reference loop), and zero-width bursts skip
        // the walk entirely (`x + 0.0 == x`, `x % m == x` for
        // `0 <= x < m`). Each advanced job's completion prediction is
        // refreshed here — `te + remaining * iter_time` is exactly the
        // value the reference scan would recompute next iteration.
        let dt = (te - self.t).max(0.0);
        if dt > 0.0 {
            for &i in &self.index.active {
                let j = &mut self.sjobs[i];
                if j.state == JState::Running && j.iter_time > 0.0 {
                    j.remaining = (j.remaining - dt / j.iter_time).max(0.0);
                    self.flog.samples_processed += dt * j.sps;
                    j.since_ckpt_s += dt;
                    if self.cfg.checkpoint_interval_s > 0.0
                        && self.cfg.checkpoint_interval_s.is_finite()
                    {
                        j.since_ckpt_s %= self.cfg.checkpoint_interval_s;
                    }
                    debug_assert!(j.last_update_s <= te, "job advanced backwards");
                    j.last_update_s = te;
                    j.generation += 1;
                    self.index
                        .heap
                        .push(te + j.remaining * j.iter_time, j.generation, i);
                }
            }
        }
        self.t = te;
        let t = te;
        if t >= self.cfg.horizon_s - EPS {
            self.stopped = true;
            return;
        }

        // 1. Starting -> Running transitions due now. The heap wakes the
        // loop at the earliest deadline; the EPS window means later
        // deadlines can fire in the same burst, so the walk re-checks
        // every active job rather than popping the heap.
        for &i in &self.index.active {
            let j = &mut self.sjobs[i];
            if let JState::Starting(r) = j.state {
                if r <= t + EPS {
                    j.state = JState::Running;
                    j.start_s.get_or_insert(t);
                    j.since_ckpt_s = 0.0;
                    // Split the allocation segment at the run boundary so
                    // the accumulation order matches the timeline's
                    // Placed/Running interval split bitwise.
                    j.flush_alloc(t);
                    j.alloc_since = Some(t);
                    j.run_since = Some(t);
                    j.last_update_s = t;
                    if let Some(since) = j.recovering_since.take() {
                        self.flog.recovery_times_s.push(t - since);
                    }
                    self.obs.job_event(t, j.spec.id, JobEventKind::RunStart);
                    // Retire the start deadline, predict completion.
                    j.generation += 1;
                    self.index
                        .heap
                        .push(t + j.remaining * j.iter_time, j.generation, i);
                }
            }
        }

        // 2. Completions due now (free resources before anything else).
        // Finishing one job never changes whether another is due, so
        // testing each job as the walk reaches it is the same as
        // collecting the due set first. Retiring edits the active set,
        // so the walk runs over a copy of it.
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(&self.index.active);
        let mut event: Option<SchedEvent> = None;
        for &i in &order {
            let j = &mut self.sjobs[i];
            if j.state == JState::Running && j.remaining <= EPS {
                j.state = JState::Finished;
                j.finish_s = Some(t);
                j.release(t, &mut self.cluster, &self.obs);
                self.obs.job_event(t, j.spec.id, JobEventKind::Finish);
                event = Some(SchedEvent::Departure(j.spec.id));
                self.index.retire(j, i);
                if self.fold_records {
                    self.reclaim_pending.push(i);
                }
            }
        }
        drop(advance);

        // 2b. Fault events due now. Each gets its own scheduling pass so
        // the policy can react to every transition individually.
        while self
            .pending_faults
            .front()
            .is_some_and(|f| f.time_s <= t + EPS)
        {
            let fault = self.pending_faults.pop_front().expect("front checked");
            let pool = GpuTypeId(fault.pool);
            let ev = match fault.kind {
                FaultKind::Failure => {
                    self.cluster
                        .fail_node(pool, fault.node)
                        .expect("fault schedule names a node the cluster has");
                    self.obs.context(t, "engine", "node-failure");
                    self.obs.incr("sim.fault.failure", 1);
                    // Victims in index order, so requeue provenance is
                    // the reference loop's; evicting one job never makes
                    // another a victim. Requeueing edits the active set,
                    // so the walk runs over a copy of it.
                    order.clear();
                    order.extend(&self.index.active);
                    for &i in &order {
                        let j = &mut self.sjobs[i];
                        if !j
                            .alloc
                            .as_ref()
                            .is_some_and(|a| a.uses_node(pool, fault.node))
                        {
                            continue;
                        }
                        j.release(t, &mut self.cluster, &self.obs);
                        // A running victim loses everything since its
                        // last checkpoint; a starting one had nothing to
                        // lose (its checkpoint was saved at placement).
                        let mut rollback = 0.0;
                        if j.state == JState::Running && j.iter_time > 0.0 {
                            let lost_iters = (j.since_ckpt_s / j.iter_time)
                                .min(j.spec.iterations as f64 - j.remaining);
                            j.remaining += lost_iters;
                            self.flog.samples_lost += lost_iters * j.iter_time * j.sps;
                            rollback = lost_iters;
                        }
                        self.obs.job_event(
                            t,
                            j.spec.id,
                            JobEventKind::Stop {
                                cause: StopCause::NodeFailure,
                                lost_iters: rollback,
                            },
                        );
                        j.state = JState::Queued;
                        j.restarts += 1;
                        j.opportunistic = false;
                        j.since_ckpt_s = 0.0;
                        // Keep the earliest failure time if the job is
                        // knocked over again while restarting.
                        j.recovering_since.get_or_insert(t);
                        self.flog.failure_evictions += 1;
                        self.obs.decision(
                            Decision::requeue(j.spec.id)
                                .on_shard(j.spec.requested_pool as u32)
                                .why("node-failure-evict"),
                        );
                        self.index.requeue(j, i);
                    }
                    SchedEvent::NodeFailure {
                        pool,
                        node: fault.node,
                    }
                }
                FaultKind::Repair => {
                    self.cluster
                        .repair_node(pool, fault.node)
                        .expect("fault schedule names a node the cluster has");
                    self.obs.incr("sim.fault.repair", 1);
                    SchedEvent::NodeRepair {
                        pool,
                        node: fault.node,
                    }
                }
            };
            self.dispatch(ev);
        }
        self.order = order;

        // 3. Arrivals due now.
        let arrive = stage(self.tele.as_ref(), |tele| &tele.stage_arrive);
        while self
            .pending_jobs
            .front()
            .is_some_and(|s| s.submit_s <= t + EPS)
        {
            let spec = Arc::new(self.pending_jobs.pop_front().expect("front checked"));
            let iters = spec.iterations as f64;
            let id = spec.id;
            let idx = self.sjobs.push(SJob {
                spec,
                state: JState::Queued,
                generation: 0,
                last_update_s: t,
                remaining: iters,
                alloc: None,
                pool: 0,
                gpus: 0,
                opportunistic: false,
                sps: 0.0,
                iter_time: 0.0,
                start_s: None,
                finish_s: None,
                restarts: 0,
                profiled: false,
                since_ckpt_s: 0.0,
                recovering_since: None,
                run_since: None,
                alloc_since: None,
                run_s: 0.0,
                productive_gpu_s: 0.0,
                allocated_gpu_s: 0.0,
            });
            self.id_of.entry(id).or_insert(idx);
            self.index.queued.insert(idx);
            self.obs.job_event(t, id, JobEventKind::Submit);
            event = Some(SchedEvent::Arrival(id));
        }
        drop(arrive);

        // 4. Round tick.
        if self.next_round <= t + EPS {
            self.next_round += self.cfg.round_interval_s;
            event.get_or_insert(SchedEvent::Round);
        }

        // 5. Let the policy react.
        if let Some(ev) = event {
            self.dispatch(ev);
        }

        // 6. Sample the throughput timeline at round boundaries: both
        // sums fold the running jobs in ascending index, the reference
        // loop's accumulation order.
        if matches!(event, Some(SchedEvent::Round)) {
            let _sample = stage(self.tele.as_ref(), |tele| &tele.stage_sample);
            let running = || {
                self.index
                    .active
                    .iter()
                    .map(|&i| &self.sjobs[i])
                    .filter(|j| j.state == JState::Running)
            };
            let norm: f64 = running()
                .map(|j| j.sps / self.service.ideal_sps(&j.spec))
                .sum();
            let raw: f64 = running().map(|j| j.sps).sum();
            self.timeline.push((t, norm));
            self.raw_timeline.push((t, raw));
        }

        // Termination: input closed, no arrivals left, nothing queued or
        // active.
        if !self.input_open
            && self.pending_jobs.is_empty()
            && self.index.queued.is_empty()
            && self.index.active.is_empty()
        {
            self.stopped = true;
        }

        // Burst end: record the live high-water mark (the streaming
        // memory-model's working-set measure) and return terminal jobs'
        // slots in record-fold mode.
        let live = self.index.queued.len() + self.index.active.len();
        self.peak_live_jobs = self.peak_live_jobs.max(live);
        if !self.reclaim_pending.is_empty() {
            self.process_reclaims();
        }
    }

    /// Builds the policy's view, runs the policy's pre-pass and
    /// scheduling pass, and executes the actions.
    fn dispatch(&mut self, ev: SchedEvent) {
        let t = self.t;
        let service = self.service;
        let mut queued = std::mem::take(&mut self.view_queued);
        let mut running = std::mem::take(&mut self.view_running);
        let actions = {
            debug_assert!(
                self.index
                    .queued
                    .iter()
                    .all(|&i| self.sjobs[i].state == JState::Queued),
                "queued index holds a non-queued job"
            );
            debug_assert!(
                self.index.active.iter().all(|&i| self.sjobs[i].active()),
                "active index holds an inactive job"
            );
            self.fill_views(&mut queued, &mut running);
            let pools = self.cluster.pool_stats();
            if self.obs.is_enabled() {
                self.obs.context(t, self.policy.name(), ev.label());
            }
            if let Some(tele) = &self.tele {
                tele.event_counter(ev).incr(1);
                tele.queue_depth.set(queued.len() as f64);
                tele.running_jobs.set(running.len() as f64);
            }
            let view = SchedView {
                now_s: t,
                queued: &queued,
                running: &running,
                pools: &pools,
                service,
                obs: self.obs.clone(),
            };
            // Pre-pass: policies may warm caches concurrently but must
            // not change what `schedule` returns. The whole queue, in
            // arrival order, is lent as shard 0.
            {
                let _prepare = stage(self.tele.as_ref(), |tele| &tele.stage_prepare);
                let whole = [ShardQueue {
                    shard: 0,
                    queued: &queued,
                }];
                self.policy.prepare_shards(&whole, &view);
            }
            // The decision-latency clock doubles as the `sim.schedule`
            // stage timer.
            let started = std::time::Instant::now();
            let actions = self.policy.schedule(ev, &view);
            let decision_s = started.elapsed().as_secs_f64();
            self.decision_stats.observe(decision_s);
            if let Some(tele) = &self.tele {
                tele.stage_schedule.observe(decision_s);
                tele.actions_per_pass.observe(actions.len() as f64);
            }
            actions
        };
        self.view_queued = queued;
        self.view_running = running;
        {
            // Commit stage: action execution against the cluster books.
            let _commit = stage(self.tele.as_ref(), |tele| &tele.stage_commit);
            self.execute(&actions);
        }
        if let Some(tele) = &self.tele {
            tele.observe_estimator(&self.service.estimator_stats());
        }
        // Memory-ledger gauges refresh on a 1-in-64 pass clock (first
        // pass included, so a scrape right after the first submit
        // already carries the series): the section walk allocates its
        // report, so riding every burst showed up on the loaded
        // telemetry bench, while this cadence keeps a daemon's
        // `query metrics` scrape at most a few dozen decisions stale.
        // Registry-less runs skip the ledger walk entirely.
        let publish_mem = self.mem_clock.is_multiple_of(64);
        self.mem_clock += 1;
        if !publish_mem {
            return;
        }
        if let Some(reg) = self.obs.metrics() {
            let mut sections = self.service.estimator().mem_report();
            sections.extend(self.service.mem_report());
            arena_obs::publish_mem_sections(reg, &sections);
        }
    }

    /// Refills the policy's queued and running views, each in ascending
    /// index (submission) order, timed as `sim.shard.merge` (see
    /// [`EngineTelemetry`] for why the name stays). Clearing releases
    /// the previous pass's views inside the stage.
    fn fill_views(&self, queued: &mut Vec<JobView>, running: &mut Vec<JobView>) {
        let _build = stage(self.tele.as_ref(), |tele| &tele.stage_merge);
        let fill = |out: &mut Vec<JobView>, set: &BTreeSet<usize>| {
            out.clear();
            out.extend(set.iter().map(|&i| job_view(&self.sjobs[i])));
        };
        fill(queued, &self.index.queued);
        fill(running, &self.index.active);
    }

    /// Executes scheduling actions in the policy's emission order.
    #[allow(clippy::too_many_lines)]
    fn execute(&mut self, actions: &[Action]) {
        let t = self.t;
        for action in actions {
            match *action {
                Action::Drop { job } => {
                    let Some(&idx) = self.id_of.get(&job) else {
                        continue;
                    };
                    let j = &mut self.sjobs[idx];
                    if matches!(j.state, JState::Finished | JState::Dropped) {
                        continue;
                    }
                    j.release(t, &mut self.cluster, &self.obs);
                    j.state = JState::Dropped;
                    self.obs.job_event(t, job, JobEventKind::Drop);
                    self.index.retire(j, idx);
                    if self.fold_records {
                        self.reclaim_pending.push(idx);
                    }
                }
                Action::Evict { job } => {
                    let Some(&idx) = self.id_of.get(&job) else {
                        continue;
                    };
                    let j = &mut self.sjobs[idx];
                    if j.active() {
                        j.release(t, &mut self.cluster, &self.obs);
                        j.state = JState::Queued;
                        j.restarts += 1;
                        j.opportunistic = false;
                        self.obs.job_event(
                            t,
                            job,
                            JobEventKind::Stop {
                                cause: StopCause::Preemption,
                                lost_iters: 0.0,
                            },
                        );
                        self.index.requeue(j, idx);
                    }
                }
                Action::Place {
                    job,
                    pool,
                    gpus,
                    opportunistic,
                } => {
                    let Some(&idx) = self.id_of.get(&job) else {
                        continue;
                    };
                    let j = &mut self.sjobs[idx];
                    if matches!(j.state, JState::Finished | JState::Dropped) {
                        continue;
                    }
                    // No-op placement: already running exactly like this.
                    if j.active() && j.pool == pool.0 && j.gpus == gpus {
                        continue;
                    }
                    let run = match self.policy.plan_mode() {
                        PlanMode::Adaptive => self.service.adaptive_run(&j.spec.model, gpus, pool),
                        PlanMode::Cell => self.service.arena_run(&j.spec.model, gpus, pool),
                    };
                    let Some(run) = run else {
                        self.obs.incr("sim.place.infeasible", 1);
                        self.obs.decision(
                            Decision::requeue(job)
                                .on_shard(j.spec.requested_pool as u32)
                                .why("infeasible-placement"),
                        );
                        continue;
                    };
                    let was_active = j.active();
                    let prev_grant = was_active.then_some((j.pool, j.gpus));
                    j.release(t, &mut self.cluster, &self.obs);
                    match self.cluster.allocate(pool, gpus) {
                        Ok(alloc) => {
                            if was_active {
                                j.restarts += 1;
                            }
                            self.obs.alloc_event(t, job, pool.0, &alloc.node_gpus, true);
                            let first = self.acquired.insert((j.spec.model, gpus, pool.0));
                            let state_bytes =
                                8.0 * self.service.graph(&j.spec.model).total_param_bytes();
                            let ckpt = 2.0 * state_bytes / self.cfg.checkpoint_bw_bps;
                            let delay = self.cfg.restart_overhead_s
                                + ckpt
                                + if first { run.acquire_wall_s } else { 0.0 };
                            j.profiled = true;
                            j.alloc = Some(alloc);
                            j.pool = pool.0;
                            j.gpus = gpus;
                            j.opportunistic = opportunistic;
                            j.sps = run.throughput_sps;
                            j.iter_time = run.iter_time_s;
                            j.state = JState::Starting(t + delay);
                            j.alloc_since = Some(t);
                            self.obs.incr("sim.place.ok", 1);
                            self.obs.job_event(
                                t,
                                job,
                                JobEventKind::Place {
                                    pool: pool.0,
                                    gpus,
                                    prev: prev_grant,
                                    opportunistic,
                                },
                            );
                            self.index.place(j, idx, t + delay);
                        }
                        Err(_) => {
                            // Capacity race: job returns to the queue.
                            if was_active {
                                j.restarts += 1;
                                self.obs.job_event(
                                    t,
                                    job,
                                    JobEventKind::Stop {
                                        cause: StopCause::CapacityRace,
                                        lost_iters: 0.0,
                                    },
                                );
                            }
                            j.state = JState::Queued;
                            self.obs.incr("sim.place.capacity_race", 1);
                            self.obs.decision(
                                Decision::requeue(job)
                                    .on_shard(j.spec.requested_pool as u32)
                                    .why("capacity-race"),
                            );
                            self.index.requeue(j, idx);
                        }
                    }
                }
            }
        }
    }
}

/// The stage timer for one decision-loop stage; `None` (nothing timed)
/// when the engine records no telemetry.
fn stage(
    tele: Option<&EngineTelemetry>,
    hist: fn(&EngineTelemetry) -> &Histogram,
) -> Option<StageGuard> {
    tele.map(|tele| StageGuard(hist(tele).clone(), std::time::Instant::now()))
}

/// The policy's view of one job.
pub(crate) fn job_view(j: &SJob) -> JobView {
    JobView {
        spec: Arc::clone(&j.spec),
        remaining_iters: j.remaining,
        #[allow(clippy::unnecessary_lazy_evaluations)]
        placement: j.active().then(|| PlacementView {
            pool: GpuTypeId(j.pool),
            gpus: j.gpus,
            throughput_sps: j.sps,
            opportunistic: j.opportunistic,
        }),
    }
}

/// The final record of one job, read off its (flushed) engine state.
/// `finish` builds these for every job after the end-of-run flush;
/// record-fold mode builds them at the terminal transition, where the
/// flushes have already run and every field is final — the two paths
/// produce bitwise-identical records.
fn job_record(j: &SJob) -> JobRecord {
    JobRecord {
        id: j.spec.id,
        name: j.spec.name.clone(),
        submit_s: j.spec.submit_s,
        start_s: j.start_s,
        finish_s: j.finish_s,
        dropped: j.state == JState::Dropped,
        restarts: j.restarts,
        run_s: j.run_s,
        productive_gpu_s: j.productive_gpu_s,
        allocated_gpu_s: j.allocated_gpu_s,
        deadline_met: j
            .spec
            .deadline_s
            .map(|d| j.finish_s.is_some_and(|f| f <= d)),
    }
}
