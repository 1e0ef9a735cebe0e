//! Executor shards: per-partition event heaps and indexes with a
//! deterministic merge round.
//!
//! The cluster's pools are grouped into *partitions* by an
//! [`arena_cluster::PartitionMap`] (canonically one per pool); a
//! [`ShardPlan`] folds those partitions onto `S` *executor shards*, each
//! owning its own event heap and membership indexes over the jobs homed
//! to it (a job's home is its requested pool's partition, fixed at
//! arrival). Heavy per-shard work — building the policy's view fragments,
//! and the policy's own per-shard candidate prefetch via
//! [`arena_sched::Policy::prepare_shards`] — runs concurrently on an
//! [`arena_runtime::WorkerPool`]. [`crate::Run`] defaults to one shard
//! with sequential workers; [`crate::Run::plan`] picks another plan.
//!
//! **The merge round is what keeps every observable output byte-identical
//! at any shard count.** Per-shard index sets partition the global job
//! table, and within a shard every set iterates in ascending global job
//! index (= submission order). Wherever the engine walks jobs and folds
//! non-associative state (floating-point throughput sums, `FaultLog`
//! accumulation, obs event order, cluster book mutations), it first
//! k-way merges the per-shard index streams back into ascending global
//! order with [`arena_runtime::merge_by_index`]; with one shard the
//! shard's own order already is that order and nothing is merged. The
//! executor shard count is thereby an execution knob only;
//! `tests/shard_equivalence.rs` pins the byte-identity at shard counts
//! 1/2/4/8, and `DESIGN.md` §12 spells out the argument.

use arena_cluster::{Cluster, PartitionMap};
use arena_runtime::{shards_from_env_or, WorkerPool};

/// How a sharded run partitions the cluster and executes the shards.
///
/// The partition map is semantic (decision provenance records home
/// partitions); the executor shard count and worker pool are execution
/// knobs that must never show up in any observable output. Partitions are
/// folded onto executor shards round-robin (`partition % shards`), so
/// any shard count from 1 (fully serial decisions) to the partition
/// count (one shard per partition) is valid — as are larger counts,
/// which simply leave trailing shards empty.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    partition: PartitionMap,
    shards: usize,
    workers: WorkerPool,
}

impl ShardPlan {
    /// The canonical plan for a cluster: one partition per pool, one
    /// executor shard per partition, inline (sequential) workers.
    #[must_use]
    pub fn per_pool(cluster: &Cluster) -> Self {
        let partition = PartitionMap::for_cluster(cluster);
        let shards = partition.partitions();
        ShardPlan {
            partition,
            shards,
            workers: WorkerPool::sequential(),
        }
    }

    /// Reads `ARENA_SHARDS` for the executor shard count (defaulting to
    /// one shard per partition) and `ARENA_WORKER_THREADS` for the worker
    /// pool (defaulting to sequential).
    #[must_use]
    pub fn from_env(cluster: &Cluster) -> Self {
        let plan = Self::per_pool(cluster);
        let shards = shards_from_env_or(plan.partition.partitions());
        plan.with_shards(shards)
            .with_workers(WorkerPool::from_env_or(1))
    }

    /// Overrides the executor shard count (clamped to at least 1).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Overrides the partition map.
    #[must_use]
    pub fn with_partition(mut self, partition: PartitionMap) -> Self {
        self.partition = partition;
        self
    }

    /// Overrides the worker pool running per-shard work.
    #[must_use]
    pub fn with_workers(mut self, workers: WorkerPool) -> Self {
        self.workers = workers;
        self
    }

    /// Executor shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The worker pool running per-shard work.
    #[must_use]
    pub fn workers(&self) -> &WorkerPool {
        &self.workers
    }

    /// The pool-to-partition map.
    #[must_use]
    pub fn partition(&self) -> &PartitionMap {
        &self.partition
    }

    /// Executor shard owning `pool`: its partition folded round-robin
    /// onto the shard grid.
    #[must_use]
    pub fn shard_of_pool(&self, pool: usize) -> usize {
        self.partition.partition_of(pool) % self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Run, SimConfig, SimResult};
    use arena_cluster::presets;
    use arena_model::zoo::{ModelConfig, ModelFamily};
    use arena_obs::Obs;
    use arena_perf::CostParams;
    use arena_sched::{ArenaPolicy, FcfsPolicy, PlanService};
    use arena_trace::JobSpec;

    fn tiny_trace() -> Vec<JobSpec> {
        let mk = |id: u64, submit: f64, size: f64, gpus: usize, pool: usize| JobSpec {
            id,
            name: format!("j{id}"),
            submit_s: submit,
            model: ModelConfig::new(ModelFamily::Bert, size, 256),
            iterations: 300,
            requested_gpus: gpus,
            requested_pool: pool,
            deadline_s: None,
        };
        vec![
            mk(0, 0.0, 0.76, 4, 0),
            mk(1, 100.0, 1.3, 8, 1),
            mk(2, 200.0, 0.76, 2, 0),
            mk(3, 2000.0, 1.3, 4, 1),
        ]
    }

    /// A fresh-service FCFS run of the tiny trace under `plan`.
    fn fcfs(plan: &ShardPlan, obs: &Obs) -> SimResult {
        let cluster = presets::physical_testbed();
        let service = PlanService::new(&cluster, CostParams::default(), 11);
        let cfg = SimConfig::new(48.0 * 3600.0);
        Run::new(&cluster, &mut FcfsPolicy::new(), &service, &cfg)
            .obs(obs)
            .plan(plan)
            .batch(&tiny_trace())
    }

    #[test]
    fn plan_folds_partitions_onto_shards() {
        let cluster = presets::physical_testbed();
        let plan = ShardPlan::per_pool(&cluster);
        assert_eq!(plan.shards(), 2);
        assert_eq!(plan.shard_of_pool(0), 0);
        assert_eq!(plan.shard_of_pool(1), 1);
        let folded = plan.clone().with_shards(1);
        assert_eq!(folded.shard_of_pool(0), 0);
        assert_eq!(folded.shard_of_pool(1), 0);
        // More shards than partitions: trailing shards stay empty.
        let wide = plan.with_shards(8);
        assert_eq!(wide.shard_of_pool(1), 1);
    }

    #[test]
    fn sharded_run_matches_the_default_run() {
        let cluster = presets::physical_testbed();
        let jobs = tiny_trace();
        let cfg = SimConfig::new(48.0 * 3600.0);
        let one = {
            let service = PlanService::new(&cluster, CostParams::default(), 11);
            Run::new(&cluster, &mut FcfsPolicy::new(), &service, &cfg).batch(&jobs)
        };
        for shards in [1, 2, 4] {
            let plan = ShardPlan::per_pool(&cluster).with_shards(shards);
            let r = fcfs(&plan, &Obs::disabled());
            assert_eq!(r.metrics.avg_jct_s, one.metrics.avg_jct_s, "{shards}");
            assert_eq!(r.timeline, one.timeline, "{shards} shards");
            assert_eq!(r.raw_timeline, one.raw_timeline, "{shards} shards");
        }
    }

    #[test]
    fn telemetry_plane_is_invisible_in_output() {
        use arena_obs::MetricsRegistry;
        use std::sync::Arc;
        let cluster = presets::physical_testbed();
        for shards in [1, 2] {
            let plan = ShardPlan::per_pool(&cluster).with_shards(shards);
            let off = fcfs(&plan, &Obs::disabled());
            let registry = Arc::new(MetricsRegistry::new(64));
            let on = fcfs(&plan, &Obs::metrics_only(Arc::clone(&registry)));
            // The live plane must not perturb a single simulated byte.
            assert_eq!(on.metrics.avg_jct_s, off.metrics.avg_jct_s);
            assert_eq!(on.timeline, off.timeline);
            assert_eq!(on.raw_timeline, off.raw_timeline);
            // ... while the registry fills with per-stage / per-shard
            // data, the merge stage included even where one shard has
            // nothing to merge.
            let counters = registry.counters_snapshot();
            assert!(counters["sim.event.arrival"] >= tiny_trace().len() as u64);
            assert!(counters.contains_key("sim.place.ok"));
            let hists = registry.histograms_snapshot();
            for stage in [
                "sim.stage.burst_seconds",
                "sim.shard.merge",
                "sim.shard.prepare",
                "sim.schedule",
                "sim.commit",
            ] {
                assert!(hists[stage].count > 0, "{shards} shards: {stage} empty");
            }
            let text = registry.expose();
            assert!(text.contains("sim_shard_heap_depth{shard=\"0\"}"));
            assert!(text.contains("sim_estimator_estimate_hit_ratio"));
            assert_eq!(
                text.contains("sim_shard_queue_len{shard=\"1\"}"),
                shards == 2,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn sharded_run_is_deterministic_across_worker_pools() {
        let cluster = presets::physical_testbed();
        let jobs = tiny_trace();
        let cfg = SimConfig::new(48.0 * 3600.0);
        let go = |workers: usize| {
            let service = PlanService::new(&cluster, CostParams::default(), 11);
            let plan = ShardPlan::per_pool(&cluster)
                .with_shards(2)
                .with_workers(WorkerPool::new(workers));
            Run::new(
                &cluster,
                &mut ArenaPolicy::new().with_worker_threads(workers),
                &service,
                &cfg,
            )
            .plan(&plan)
            .batch(&jobs)
        };
        let seq = go(1);
        let par = go(4);
        assert_eq!(seq.metrics.avg_jct_s, par.metrics.avg_jct_s);
        assert_eq!(seq.timeline, par.timeline);
    }
}
