//! The policy interface between schedulers and the simulator.

use std::sync::Arc;

use arena_cluster::{GpuTypeId, PoolStats};
use arena_obs::Obs;
use arena_trace::JobSpec;

use crate::service::PlanService;

/// How the simulator acquires a run plan for a policy's placements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Full adaptive-parallelism exploration at (re)start — what the
    /// baselines' jobs do (§8.1).
    Adaptive,
    /// Cell estimation + Cell-guided pruned tuning — Arena's path.
    Cell,
}

/// What a running job currently holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementView {
    /// Pool the job runs in.
    pub pool: GpuTypeId,
    /// GPUs held.
    pub gpus: usize,
    /// Achieved throughput, samples/second.
    pub throughput_sps: f64,
    /// Whether the job was placed opportunistically (evictable first).
    pub opportunistic: bool,
}

/// A job as a policy sees it.
///
/// `spec` is shared, not owned: the simulator builds fresh view vectors
/// for every scheduling pass, and an `Arc` clone is a refcount bump
/// instead of a deep copy of the spec's strings and model config. Field
/// access is unchanged for policies (`job.spec.model` auto-derefs).
#[derive(Debug, Clone)]
pub struct JobView {
    /// The submitted job.
    pub spec: Arc<JobSpec>,
    /// Iterations still to run.
    pub remaining_iters: f64,
    /// Current placement, if running.
    pub placement: Option<PlacementView>,
}

impl JobView {
    /// Job id shorthand.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.spec.id
    }

    /// The job's home shard: its requested pool. Decision provenance
    /// stamps this id (`shard=`), so a decision names the pool the job
    /// asked for.
    #[must_use]
    pub fn home_shard(&self) -> u32 {
        self.spec.requested_pool as u32
    }
}

/// The cluster as a policy sees it at a scheduling point.
pub struct SchedView<'a> {
    /// Current simulation time, seconds.
    pub now_s: f64,
    /// Jobs waiting to run, in arrival order.
    pub queued: &'a [JobView],
    /// Jobs currently running.
    pub running: &'a [JobView],
    /// Per-pool capacity and free GPUs.
    pub pools: &'a [PoolStats],
    /// Gateway to performance data.
    pub service: &'a PlanService,
    /// Observability sink for decision provenance. `Obs::disabled()`
    /// (the default) makes every recording call a no-op.
    pub obs: Obs,
}

impl SchedView<'_> {
    /// Free GPUs in a pool.
    #[must_use]
    pub fn free(&self, pool: GpuTypeId) -> usize {
        self.pools
            .iter()
            .find(|p| p.id == pool)
            .map_or(0, |p| p.free_gpus)
    }
}

/// What fires a scheduling pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// A new job arrived (its id).
    Arrival(u64),
    /// A job finished (its id).
    Departure(u64),
    /// The periodic scheduling round (every 5 minutes, §7).
    Round,
    /// A node crashed; its jobs are already back in the queue with
    /// progress rolled back to their last checkpoint.
    NodeFailure {
        /// Pool of the failed node.
        pool: GpuTypeId,
        /// Node index within the pool.
        node: usize,
    },
    /// A node returned to service; its capacity is free again.
    NodeRepair {
        /// Pool of the repaired node.
        pool: GpuTypeId,
        /// Node index within the pool.
        node: usize,
    },
}

impl SchedEvent {
    /// Stable label used as the `trigger` field of recorded decisions.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SchedEvent::Arrival(_) => "arrival",
            SchedEvent::Departure(_) => "departure",
            SchedEvent::Round => "round",
            SchedEvent::NodeFailure { .. } => "node-failure",
            SchedEvent::NodeRepair { .. } => "node-repair",
        }
    }
}

/// A scheduling decision. The simulator executes evictions/drops before
/// placements and ignores placements that exceed capacity or have no
/// feasible plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Run `job` on `gpus` devices of `pool` (re-placing if running).
    Place {
        /// Job id.
        job: u64,
        /// Target pool.
        pool: GpuTypeId,
        /// Target GPU count.
        gpus: usize,
        /// Mark the placement opportunistic (Arena's starvation valve).
        opportunistic: bool,
    },
    /// Stop `job` and return it to the queue.
    Evict {
        /// Job id.
        job: u64,
    },
    /// Permanently reject `job` (infeasible or deadline-hopeless).
    Drop {
        /// Job id.
        job: u64,
    },
}

/// The queue as handed to [`Policy::prepare_shards`] by the simulation
/// engine before a scheduling pass: always one entry, shard 0, holding
/// the whole queue. The type and its `shard` field outlive the removed
/// executor shards and in-decision worker fan-out only because the
/// end-to-end benchmark (`e2ebench/`) implements `prepare_shards`
/// against them; both go with the next change to that benchmark.
#[derive(Debug)]
pub struct ShardQueue<'a> {
    /// Always 0.
    pub shard: usize,
    /// Every queued job, in arrival order, borrowed from the policy's
    /// queued view.
    pub queued: &'a [JobView],
}

/// A cluster scheduling policy.
///
/// `Send` is a supertrait so boxed policies can move onto worker threads
/// (the `repro` driver fans whole policy runs out over a
/// [`arena_runtime::WorkerPool`]); every policy here is plain data.
pub trait Policy: Send {
    /// Display name used in experiment output.
    fn name(&self) -> &'static str;

    /// How run plans are acquired for this policy's placements.
    fn plan_mode(&self) -> PlanMode;

    /// Produces scheduling actions for an event.
    fn schedule(&mut self, event: SchedEvent, view: &SchedView<'_>) -> Vec<Action>;

    /// Pre-pass hook of the simulation engine, called once before every
    /// [`Policy::schedule`] with the whole queue as the single shard 0.
    /// No policy here overrides the default no-op; the hook is kept for
    /// the benchmark (see [`ShardQueue`]). An override MUST NOT change
    /// any observable scheduling output.
    fn prepare_shards(&mut self, _shards: &[ShardQueue<'_>], _view: &SchedView<'_>) {}
}
