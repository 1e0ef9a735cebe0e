//! The plan-acquisition service: the single gateway to performance data.
//!
//! Every scheduler sees job performance exclusively through this service,
//! which enforces the paper's experimental setup (§8.1):
//!
//! * **Baselines schedule on data-parallel profiles** —
//!   [`PlanService::dp_profile`] measures the best plan whose every stage
//!   is data-parallel only (no tensor sharding), so their memory picture
//!   overestimates large jobs' minimum share.
//! * **Every job runs with adaptive parallelism** —
//!   [`PlanService::adaptive_run`] explores the full parallelism space at
//!   (re)start and returns the genuinely best plan, together with the
//!   exploration wall-clock the job pays before making progress.
//! * **Arena schedules on Cell estimates** —
//!   [`PlanService::cell_choice`] prices a job's Cells agilely;
//!   [`PlanService::arena_run`] then tunes the chosen Cell with the
//!   pruned search, paying far less wall-clock than full exploration.
//!
//! All results are memoised by `(model, batch, gpus, pool)`: identical
//! configurations are explored once, exactly as a real cluster caches
//! profiling databases. The memo maps are byte-accounted
//! [`BudgetedMap`]s: under a configured budget
//! ([`PlanService::set_mem_budget`]) the plan database sheds its
//! oldest entries and recomputes them on demand — every entry is a
//! pure function of its key, so eviction changes wall-clock and hit
//! rates, never a returned plan.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use arena_cluster::{Cluster, GpuTypeId, NodeSpec};
use arena_estimator::{best_estimate, Cell, CellEstimator, Favor};
use arena_model::{ModelConfig, ModelGraph};
use arena_parallelism::{PipelinePlan, PlanSpace, StageAssignment, StagePlan};
use arena_perf::{CostParams, GroundTruth, HwTarget, SampledSearch};
use arena_runtime::{BudgetedMap, MemSection, MemSize};
use arena_trace::JobSpec;
use arena_tuner::tune_in_space;

/// Wall-clock cap on one full adaptive exploration. Alpa reports ~40 min
/// per exploration (§2.1); its DP/ILP search visits far fewer candidates
/// than brute force, so exploration wall time is capped at that figure.
pub const EXPLORE_WALL_CAP_S: f64 = 2400.0;

/// Plans sampled per stage-count space during exploration.
const EXPLORE_SAMPLE_CAP: usize = 192;

/// A plan a job actually runs with.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// Seconds per iteration (measured).
    pub iter_time_s: f64,
    /// Samples per second (measured).
    pub throughput_sps: f64,
    /// Wall-clock the job spends acquiring this plan before training
    /// (exploration or tuning), seconds.
    pub acquire_wall_s: f64,
    /// Compact plan label for logs.
    pub plan_label: String,
}

/// Arena's scheduling-time view of a job's best Cell on some resources.
#[derive(Debug, Clone)]
pub struct CellChoice {
    /// Stage count of the winning Cell.
    pub stages: usize,
    /// Estimated seconds per iteration.
    pub iter_time_s: f64,
    /// Estimated samples per second.
    pub throughput_sps: f64,
    /// The winning Cell's per-stage favors, which prune its tuning
    /// (§5.2). Shared, so the copy every lookup returns never allocates.
    pub favors: Arc<[Favor]>,
}

impl MemSize for RunPlan {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.plan_label.len()
    }
}

impl MemSize for CellChoice {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of_val(&*self.favors)
    }
}

type Key = (String, usize, usize, usize);

/// The plan-acquisition service.
pub struct PlanService {
    gt: GroundTruth,
    estimator: CellEstimator,
    specs: Vec<NodeSpec>,
    graphs: RwLock<HashMap<String, Arc<ModelGraph>>>,
    adaptive: RwLock<BudgetedMap<Key, Option<RunPlan>>>,
    dp: RwLock<BudgetedMap<Key, Option<f64>>>,
    pure_dp: RwLock<BudgetedMap<Key, Option<f64>>>,
    cells: RwLock<BudgetedMap<Key, Option<CellChoice>>>,
    arena_runs: RwLock<BudgetedMap<Key, Option<RunPlan>>>,
    ideal: RwLock<BudgetedMap<(String, usize, usize), f64>>,
}

impl std::fmt::Debug for PlanService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanService")
            .field("pools", &self.specs.len())
            .finish()
    }
}

impl PlanService {
    /// Creates a service for `cluster` with the given cost constants.
    ///
    /// Honours `ARENA_MEM_BUDGET_BYTES` at construction, so every entry
    /// point — `repro`, the daemon, the benches — runs budgeted under
    /// the same operator knob. A later [`Self::set_mem_budget`] call
    /// overrides it.
    #[must_use]
    pub fn new(cluster: &Cluster, params: CostParams, seed: u64) -> Self {
        let specs = cluster.pool_ids().map(|id| cluster.spec(id)).collect();
        let service = PlanService {
            gt: GroundTruth::new(params.clone(), seed),
            estimator: CellEstimator::new(params, seed),
            specs,
            graphs: RwLock::new(HashMap::new()),
            adaptive: RwLock::new(BudgetedMap::new(None)),
            dp: RwLock::new(BudgetedMap::new(None)),
            pure_dp: RwLock::new(BudgetedMap::new(None)),
            cells: RwLock::new(BudgetedMap::new(None)),
            arena_runs: RwLock::new(BudgetedMap::new(None)),
            ideal: RwLock::new(BudgetedMap::new(None)),
        };
        service.apply_env_budget();
        service
    }

    /// Applies a total byte budget to the plan database (split evenly
    /// across its six memo maps), sweeping oldest-first immediately;
    /// `None` lifts it. The operator-graph cache is exempt: it is
    /// bounded by the model zoo, not the trace. Evicted entries
    /// recompute deterministically on the next lookup, so scheduling
    /// output is unchanged — only wall-clock and hit rates move.
    pub fn set_mem_budget(&self, total: Option<usize>) {
        let share = total.map(|t| t / 6);
        self.adaptive.write().set_budget(share);
        self.dp.write().set_budget(share);
        self.pure_dp.write().set_budget(share);
        self.cells.write().set_budget(share);
        self.arena_runs.write().set_budget(share);
        self.ideal.write().set_budget(share);
    }

    /// Applies the `ARENA_MEM_BUDGET_BYTES` environment knob, when set:
    /// the whole total goes to the plan database (the estimator's one
    /// cache, its communication tables, holds one entry per node class).
    /// Returns the budget read, for logging. With the variable unset
    /// this is a no-op (budgets keep their current values, so a
    /// programmatic budget set earlier survives).
    pub fn apply_env_budget(&self) -> Option<usize> {
        let total = arena_runtime::mem_budget_from_env()?;
        self.set_mem_budget(Some(total));
        Some(total)
    }

    /// The plan database's memory ledger (plus the unbudgeted graph
    /// cache), one [`MemSection`] per map. The estimator's own ledger is
    /// separate — see [`arena_estimator::CellEstimator::mem_report`].
    #[must_use]
    pub fn mem_report(&self) -> Vec<MemSection> {
        let graphs = self.graphs.read();
        let graph_bytes: usize = graphs
            .values()
            .map(|g| {
                std::mem::size_of::<ModelGraph>()
                    + g.name.len()
                    + g.ops.len() * g.ops.first().map_or(0, std::mem::size_of_val)
            })
            .sum();
        let mut out = vec![MemSection::unbudgeted(
            "plans.graphs",
            graph_bytes,
            graphs.len(),
        )];
        drop(graphs);
        out.push(self.adaptive.read().section("plans.adaptive"));
        out.push(self.dp.read().section("plans.dp"));
        out.push(self.pure_dp.read().section("plans.pure_dp"));
        out.push(self.cells.read().section("plans.cells"));
        out.push(self.arena_runs.read().section("plans.arena_runs"));
        out.push(self.ideal.read().section("plans.ideal"));
        out
    }

    /// The ground truth backing this service.
    #[must_use]
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.gt
    }

    /// The Cell estimator backing this service.
    #[must_use]
    pub fn estimator(&self) -> &CellEstimator {
        &self.estimator
    }

    /// A snapshot of the estimator's cache hit/miss counters.
    #[must_use]
    pub fn estimator_stats(&self) -> arena_estimator::CacheStatsSnapshot {
        self.estimator.stats().snapshot()
    }

    /// Number of pools the service knows.
    #[must_use]
    pub fn num_pools(&self) -> usize {
        self.specs.len()
    }

    /// The hardware target of a pool (assuming packed allocations).
    #[must_use]
    pub fn hw(&self, pool: GpuTypeId) -> HwTarget {
        HwTarget::new(self.specs[pool.0])
    }

    /// The (cached) operator graph of a model configuration.
    #[must_use]
    pub fn graph(&self, model: &ModelConfig) -> Arc<ModelGraph> {
        let key = model.name();
        if let Some(g) = self.graphs.read().get(&key) {
            return g.clone();
        }
        let built = Arc::new(model.build());
        self.graphs.write().insert(key, built.clone());
        built
    }

    fn key(model: &ModelConfig, gpus: usize, pool: GpuTypeId) -> Key {
        (model.name(), model.global_batch, gpus, pool.0)
    }

    /// Full adaptive-parallelism exploration: the best plan over every
    /// stage count and `(dp, tp)` combination, plus the exploration
    /// wall-clock. This is what a baseline's job does at every (re)start.
    #[must_use]
    pub fn adaptive_run(
        &self,
        model: &ModelConfig,
        gpus: usize,
        pool: GpuTypeId,
    ) -> Option<RunPlan> {
        let key = Self::key(model, gpus, pool);
        if let Some(r) = self.adaptive.read().get(&key) {
            return r.clone();
        }
        let graph = self.graph(model);
        let hw = self.hw(pool);
        let mut wall = 0.0;
        // The fastest plan so far (the first of equals wins), labelled
        // once per stage count that improved it.
        let mut best: Option<(String, f64)> = None;
        for cell in Cell::generate(&graph, gpus) {
            let space = PlanSpace::new(cell.partition);
            let search = SampledSearch::new(&self.gt, &graph, model.global_batch, &space, &hw);
            let bound = best.as_ref().map(|&(_, t)| t);
            let fastest = search.fastest(EXPLORE_SAMPLE_CAP, bound, |t| {
                wall += self.gt.trial_wall_s(t);
            });
            if let Some((idx, t)) = fastest {
                best = Some((space.plan_at_index(idx).short_label(), t));
            }
        }
        let result = best.map(|(plan_label, iter_time_s)| RunPlan {
            iter_time_s,
            throughput_sps: model.global_batch as f64 / iter_time_s,
            acquire_wall_s: wall.min(EXPLORE_WALL_CAP_S),
            plan_label,
        });
        self.adaptive.write().insert(key, result.clone());
        result
    }

    /// The best *data-parallel-only* throughput (samples/s) of a job on
    /// `gpus` GPUs of `pool` — the only number baselines may schedule on.
    ///
    /// Stages are allowed (DP+PP), tensor parallelism is not; memory
    /// requirements are therefore those of pure data parallelism.
    #[must_use]
    pub fn dp_profile(&self, model: &ModelConfig, gpus: usize, pool: GpuTypeId) -> Option<f64> {
        let key = Self::key(model, gpus, pool);
        if let Some(r) = self.dp.read().get(&key) {
            return *r;
        }
        let graph = self.graph(model);
        let hw = self.hw(pool);
        let mut best: Option<f64> = None;
        for cell in Cell::generate(&graph, gpus) {
            let plan = PipelinePlan {
                stages: cell
                    .partition
                    .ranges
                    .iter()
                    .zip(&cell.partition.gpus)
                    .map(|(r, &g)| StageAssignment {
                        op_range: r.clone(),
                        plan: StagePlan::dp_only(g),
                    })
                    .collect(),
            };
            if let Ok(perf) = self.gt.measure(&graph, model.global_batch, &plan, &hw) {
                if best.is_none_or(|b| perf.throughput_sps > b) {
                    best = Some(perf.throughput_sps);
                }
            }
        }
        self.dp.write().insert(key, best);
        best
    }

    /// Throughput of the *pure* data-parallel plan (one stage, `gpus`
    /// replicas) — what a serverless-DP system like ElasticFlow profiles.
    /// Every replica holds the full optimizer state, so this is the most
    /// memory-hungry plan: large models are infeasible at any width, the
    /// paper's "overestimates the minimum required share" effect (§8.3).
    #[must_use]
    pub fn pure_dp_profile(
        &self,
        model: &ModelConfig,
        gpus: usize,
        pool: GpuTypeId,
    ) -> Option<f64> {
        let key = Self::key(model, gpus, pool);
        if let Some(r) = self.pure_dp.read().get(&key) {
            return *r;
        }
        let graph = self.graph(model);
        let hw = self.hw(pool);
        let plan = PipelinePlan {
            stages: vec![StageAssignment {
                op_range: 0..graph.len(),
                plan: StagePlan::dp_only(gpus),
            }],
        };
        // Plain DDP does not gradient-accumulate: profile at the default
        // micro-batch count only.
        let best = self
            .gt
            .measure_at(&graph, model.global_batch, &plan, &hw, plan.microbatches())
            .ok()
            .map(|perf| perf.throughput_sps);
        self.pure_dp.write().insert(key, best);
        best
    }

    /// Arena's scheduling-time estimate: the best Cell (over stage counts)
    /// for `gpus` GPUs of `pool`, priced by the agile estimator.
    ///
    /// Every Cell of the ladder is estimated once, in stage-count order,
    /// and the winner picked by [`best_estimate`]: the first strictly
    /// highest throughput, with NaN throughputs never selectable. The
    /// choice keeps the winner's favors, so tuning it
    /// ([`PlanService::arena_run`]) needs no second estimate.
    #[must_use]
    pub fn cell_choice(
        &self,
        model: &ModelConfig,
        gpus: usize,
        pool: GpuTypeId,
    ) -> Option<CellChoice> {
        let key = Self::key(model, gpus, pool);
        if let Some(r) = self.cells.read().get(&key) {
            return r.clone();
        }
        let graph = self.graph(model);
        let hw = self.hw(pool);
        let cells = Cell::generate(&graph, gpus);
        let estimates: Vec<_> = cells
            .iter()
            .map(|cell| {
                self.estimator
                    .estimate(&graph, model.global_batch, cell, &hw)
            })
            .collect();
        let best = best_estimate(&estimates).map(|i| {
            let e = estimates[i].as_ref().expect("winning index is Some");
            CellChoice {
                stages: cells[i].num_stages,
                iter_time_s: e.iter_time_s,
                throughput_sps: e.throughput_sps,
                favors: e.favors.as_slice().into(),
            }
        });
        self.cells.write().insert(key, best.clone());
        best
    }

    /// Arena's run path: take the chosen Cell, tune it with the search
    /// its favors prune, and return the measured plan plus the tuning
    /// wall-clock.
    /// That wall-clock is summed from the tuning's own trials, so the
    /// result is a pure function of the key: what the service tuned
    /// before, or whether an evicted entry is being tuned again, cannot
    /// change it.
    #[must_use]
    pub fn arena_run(&self, model: &ModelConfig, gpus: usize, pool: GpuTypeId) -> Option<RunPlan> {
        let key = Self::key(model, gpus, pool);
        if let Some(r) = self.arena_runs.read().get(&key) {
            return r.clone();
        }
        let result = self.arena_run_uncached(model, gpus, pool);
        self.arena_runs.write().insert(key, result.clone());
        result
    }

    fn arena_run_uncached(
        &self,
        model: &ModelConfig,
        gpus: usize,
        pool: GpuTypeId,
    ) -> Option<RunPlan> {
        let choice = self.cell_choice(model, gpus, pool)?;
        let graph = self.graph(model);
        let hw = self.hw(pool);
        let cell = Cell::new(&graph, gpus, choice.stages)?;
        let space = arena_tuner::pruned_space(&cell, &choice.favors);
        let tuned = tune_in_space(
            &self.gt,
            &graph,
            model.global_batch,
            &space,
            &hw,
            arena_tuner::DEFAULT_TUNE_CAP,
        )?;
        Some(RunPlan {
            iter_time_s: tuned.perf.iter_time_s,
            throughput_sps: tuned.perf.throughput_sps,
            acquire_wall_s: tuned.wall_seconds.min(EXPLORE_WALL_CAP_S),
            plan_label: tuned.plan.short_label(),
        })
    }

    /// One-time profiling wall-clock Arena pays when a job arrives: two
    /// ~30 s single-GPU profiles per Cell, three GPU-count variants,
    /// `log N_G` stage counts, with per-GPU-type profiling in parallel
    /// (§6.1/§8.2). Bounded by the paper's 30-minute guarantee.
    #[must_use]
    pub fn arena_profile_wall(&self, requested_gpus: usize) -> f64 {
        let log_ng = (requested_gpus.max(2) as f64).log2().ceil();
        (3.0 * log_ng * 60.0).min(1800.0)
    }

    /// A job's ideal throughput: the best adaptive throughput on its
    /// requested GPU count across all pools. Used to normalise cluster
    /// throughput across heterogeneous model families.
    #[must_use]
    pub fn ideal_sps(&self, spec: &JobSpec) -> f64 {
        let key = (
            spec.model.name(),
            spec.model.global_batch,
            spec.requested_gpus,
        );
        if let Some(&v) = self.ideal.read().get(&key) {
            return v;
        }
        let mut best = 0.0_f64;
        for pool in 0..self.specs.len() {
            for gpus in [spec.requested_gpus, spec.requested_gpus * 2] {
                if let Some(r) = self.adaptive_run(&spec.model, gpus, GpuTypeId(pool)) {
                    best = best.max(r.throughput_sps);
                }
            }
        }
        let v = if best > 0.0 { best } else { 1.0 };
        self.ideal.write().insert(key, v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arena_cluster::presets;
    use arena_model::zoo::ModelFamily;

    /// Every cache sits behind a lock, so one `&PlanService` may be
    /// shared across threads.
    #[test]
    fn plan_service_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<PlanService>();
    }

    fn service() -> PlanService {
        PlanService::new(&presets::physical_testbed(), CostParams::default(), 7)
    }

    fn bert13() -> ModelConfig {
        ModelConfig::new(ModelFamily::Bert, 1.3, 256)
    }

    #[test]
    fn adaptive_beats_dp_profile() {
        let s = service();
        let m = bert13();
        // On PCIe/IB A40 nodes the adaptive plan should beat DP-only.
        let adaptive = s.adaptive_run(&m, 8, GpuTypeId(0)).unwrap();
        let dp = s.dp_profile(&m, 8, GpuTypeId(0)).unwrap();
        assert!(adaptive.throughput_sps >= dp * 0.999);
        assert!(adaptive.acquire_wall_s > 0.0);
    }

    #[test]
    fn exploration_wall_is_capped() {
        let s = service();
        let m = ModelConfig::new(ModelFamily::Moe, 2.4, 512);
        let r = s.adaptive_run(&m, 16, GpuTypeId(0)).unwrap();
        assert!(r.acquire_wall_s <= EXPLORE_WALL_CAP_S);
    }

    #[test]
    fn arena_tuning_is_cheaper_than_exploration() {
        let s = service();
        let m = bert13();
        let adaptive = s.adaptive_run(&m, 8, GpuTypeId(0)).unwrap();
        let arena = s.arena_run(&m, 8, GpuTypeId(0)).unwrap();
        assert!(
            arena.acquire_wall_s < adaptive.acquire_wall_s,
            "arena {} >= adaptive {}",
            arena.acquire_wall_s,
            adaptive.acquire_wall_s
        );
        // And the tuned plan is close to the adaptive optimum.
        let ratio = arena.throughput_sps / adaptive.throughput_sps;
        assert!(ratio > 0.85, "tuned plan only {ratio} of optimal");
    }

    #[test]
    fn arena_run_is_independent_of_earlier_tunings() {
        // The tuning wall is summed from the tuning's own trials, so a
        // key tunes to the same bits on a fresh service and on one whose
        // meter already holds another tuning's charges.
        let cluster = presets::physical_testbed();
        let bits = |r: RunPlan| {
            (
                r.iter_time_s.to_bits(),
                r.throughput_sps.to_bits(),
                r.acquire_wall_s.to_bits(),
                r.plan_label,
            )
        };
        let fresh = PlanService::new(&cluster, CostParams::default(), 17);
        let want = fresh.arena_run(&bert13(), 8, GpuTypeId(0)).map(bits);
        assert!(want.is_some());
        let warmed = PlanService::new(&cluster, CostParams::default(), 17);
        let moe = ModelConfig::new(ModelFamily::Moe, 1.3, 256);
        assert!(warmed.arena_run(&moe, 4, GpuTypeId(0)).is_some());
        assert_eq!(warmed.arena_run(&bert13(), 8, GpuTypeId(0)).map(bits), want);
    }

    #[test]
    fn dp_profile_overestimates_memory_needs() {
        // BERT-6.7B on 4 x A10 (24 GiB): feasible with TP via adaptive
        // plans, infeasible under DP-only profiling.
        let s = service();
        let m = ModelConfig::new(ModelFamily::Bert, 6.7, 128);
        let pool_a10 = GpuTypeId(1);
        assert!(s.dp_profile(&m, 4, pool_a10).is_none());
        assert!(s.adaptive_run(&m, 8, pool_a10).is_some());
    }

    #[test]
    fn cell_choice_close_to_adaptive_optimum() {
        let s = service();
        let m = bert13();
        let choice = s.cell_choice(&m, 8, GpuTypeId(0)).unwrap();
        let adaptive = s.adaptive_run(&m, 8, GpuTypeId(0)).unwrap();
        let ratio = choice.throughput_sps / adaptive.throughput_sps;
        assert!(ratio > 0.7 && ratio < 1.3, "estimate off by {ratio}");
    }

    #[test]
    fn results_are_cached() {
        let s = service();
        let m = bert13();
        let a = s.adaptive_run(&m, 4, GpuTypeId(0)).unwrap();
        let b = s.adaptive_run(&m, 4, GpuTypeId(0)).unwrap();
        assert_eq!(a.iter_time_s, b.iter_time_s);
        assert_eq!(a.plan_label, b.plan_label);
    }

    #[test]
    fn ideal_sps_positive_and_pool_aware() {
        let s = service();
        let spec = arena_trace::JobSpec {
            id: 0,
            name: "t".into(),
            submit_s: 0.0,
            model: bert13(),
            iterations: 10,
            requested_gpus: 4,
            requested_pool: 1,
            deadline_s: None,
        };
        assert!(s.ideal_sps(&spec) > 0.0);
    }

    #[test]
    fn profile_wall_bounded_by_paper_guarantee() {
        let s = service();
        for ng in [1, 2, 8, 64] {
            let w = s.arena_profile_wall(ng);
            assert!(w > 0.0 && w <= 1800.0, "wall {w} for NG={ng}");
        }
    }
}
