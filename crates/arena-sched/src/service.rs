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
//! All results are memoised by `(model configuration, gpus, pool)`:
//! identical configurations are explored once, exactly as a real cluster
//! caches profiling databases (§6.1). The memo maps are plain hash maps
//! that keep every entry: the set of keys a workload asks about is
//! small, and [`PlanService::mem_report`] reads their byte ledger from
//! the live maps. Every entry is a pure function of its key, so a warm
//! service answers exactly as a fresh one does.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use arena_cluster::{Cluster, GpuTypeId, NodeSpec};
use arena_estimator::{best_estimate, Cell, CellEstimator, Favor};
use arena_model::{ModelConfig, ModelFamily, ModelGraph};
use arena_parallelism::{PipelinePlan, PlanSpace, StageAssignment, StagePlan};
use arena_perf::{CostParams, GroundTruth, HwTarget, SampledSearch};
use arena_runtime::{MemSection, MemSize};
use arena_trace::JobSpec;
use arena_tuner::tune_in_space;

/// Wall-clock cap on one full adaptive exploration. Alpa reports ~40 min
/// per exploration (§2.1); its DP/ILP search visits far fewer candidates
/// than brute force, so exploration wall time is capped at that figure.
/// Every trial costs at least `direct_profile_setup_s` (60 s by default),
/// so 40 trials reach the cap.
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

/// A plan-database key: a configuration on `gpus` GPUs of `pool` — a
/// [`GpuTypeId`] for the per-pool maps, `()` for `ideal`, which spans
/// every pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey<P> {
    model: ModelConfig,
    gpus: usize,
    pool: P,
}

impl<P> MemSize for PlanKey<P> {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

type Key = PlanKey<GpuTypeId>;

/// The plan-acquisition service.
pub struct PlanService {
    gt: GroundTruth,
    estimator: CellEstimator,
    specs: Vec<NodeSpec>,
    /// Keyed by family and `params_b` bits: the graph does not depend
    /// on the batch.
    graphs: RwLock<HashMap<(ModelFamily, u64), Arc<ModelGraph>>>,
    adaptive: RwLock<HashMap<Key, Option<RunPlan>>>,
    dp: RwLock<HashMap<Key, Option<f64>>>,
    pure_dp: RwLock<HashMap<Key, Option<f64>>>,
    cells: RwLock<HashMap<Key, Option<CellChoice>>>,
    arena_runs: RwLock<HashMap<Key, Option<RunPlan>>>,
    ideal: RwLock<HashMap<PlanKey<()>, f64>>,
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
    #[must_use]
    pub fn new(cluster: &Cluster, params: CostParams, seed: u64) -> Self {
        PlanService {
            gt: GroundTruth::new(params.clone(), seed),
            estimator: CellEstimator::new(params, seed),
            specs: cluster.pool_ids().map(|id| cluster.spec(id)).collect(),
            graphs: RwLock::default(),
            adaptive: RwLock::default(),
            dp: RwLock::default(),
            pure_dp: RwLock::default(),
            cells: RwLock::default(),
            arena_runs: RwLock::default(),
            ideal: RwLock::default(),
        }
    }

    /// The plan database's memory ledger, one [`MemSection`] per map,
    /// read from the live maps. The estimator's own ledger is separate —
    /// see [`arena_estimator::CellEstimator::mem_report`].
    #[must_use]
    pub fn mem_report(&self) -> Vec<MemSection> {
        let graphs = {
            let graphs = self.graphs.read();
            let bytes = graphs
                .values()
                .map(|g| {
                    std::mem::size_of::<ModelGraph>()
                        + g.name.len()
                        + g.ops.len() * g.ops.first().map_or(0, std::mem::size_of_val)
                })
                .sum();
            MemSection::new("plans.graphs", bytes, graphs.len())
        };
        vec![
            graphs,
            MemSection::of_map("plans.adaptive", &self.adaptive.read()),
            MemSection::of_map("plans.dp", &self.dp.read()),
            MemSection::of_map("plans.pure_dp", &self.pure_dp.read()),
            MemSection::of_map("plans.cells", &self.cells.read()),
            MemSection::of_map("plans.arena_runs", &self.arena_runs.read()),
            MemSection::of_map("plans.ideal", &self.ideal.read()),
        ]
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
        let key = (model.family, model.params_b.to_bits());
        if let Some(g) = self.graphs.read().get(&key) {
            return g.clone();
        }
        let built = Arc::new(model.build());
        self.graphs.write().insert(key, built.clone());
        built
    }

    fn key(model: &ModelConfig, gpus: usize, pool: GpuTypeId) -> Key {
        PlanKey {
            model: *model,
            gpus,
            pool,
        }
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
        let floor = self.gt.noise_floor();
        let mut wall = 0.0;
        // The fastest plan so far (the first of equals wins), labelled
        // once per stage count that improved it.
        let mut best: Option<(String, f64)> = None;
        for cell in Cell::generate(&graph, gpus) {
            let space = PlanSpace::new(cell.partition);
            let search = SampledSearch::new(&self.gt, &graph, model.global_batch, &space, &hw);
            let bound = best.as_ref().map(|&(_, t)| t);
            // Once the wall is capped, later trials cannot change it, so
            // a stage count none of whose plans can beat the best, even
            // at the noise floor, is skipped: the result keeps its bits.
            if wall >= EXPLORE_WALL_CAP_S {
                match search.lower_bound() {
                    Some(lb) if bound.is_none_or(|b| lb * floor < b) => {}
                    _ => continue,
                }
            }
            let fastest = search.fastest(EXPLORE_SAMPLE_CAP, bound, |t| {
                wall += self.gt.trial_wall_s(t);
                wall < EXPLORE_WALL_CAP_S
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
            // `best_estimate` returns only the index of a `Some` entry.
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
    /// before cannot change it.
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

    /// A job's ideal throughput: the best adaptive throughput over every
    /// pool at its requested GPU count and at twice that count (an
    /// [`adaptive_run`](Self::adaptive_run) per pool and count), or 1.0
    /// when none is feasible. Used to normalise cluster throughput across
    /// heterogeneous model families.
    #[must_use]
    pub fn ideal_sps(&self, spec: &JobSpec) -> f64 {
        let key = PlanKey {
            model: spec.model,
            gpus: spec.requested_gpus,
            pool: (),
        };
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
    fn every_lookup_is_independent_of_earlier_lookups() {
        // Every plan-database entry is a pure function of its key (the
        // tuning and exploration walls are summed from their own
        // trials), so all six lookups return the same bits on a fresh
        // service and on one that first answered unrelated keys and then
        // the same keys in reverse.
        let cluster = presets::table1_simulated();
        let moe24 = ModelConfig::new(ModelFamily::Moe, 2.4, 512);
        let keys = [
            (bert13(), 8, 0),
            // Capped: its exploration reaches EXPLORE_WALL_CAP_S, so the
            // later stage counts go through the pruned path.
            (moe24, 16, 0),
            (ModelConfig::new(ModelFamily::WideResNet, 1.0, 256), 4, 3),
            // Pure DP is infeasible on 8 of the 24 GiB A10s; no plan at
            // all fits on 4.
            (ModelConfig::new(ModelFamily::Bert, 6.7, 128), 8, 2),
            (ModelConfig::new(ModelFamily::Bert, 6.7, 128), 4, 2),
            (ModelConfig::new(ModelFamily::Moe, 0.69, 256), 2, 1),
        ];
        let unrelated = [
            (ModelConfig::new(ModelFamily::Moe, 1.3, 256), 4, 1),
            (ModelConfig::new(ModelFamily::WideResNet, 0.5, 256), 8, 3),
            (ModelConfig::new(ModelFamily::Bert, 2.6, 256), 16, 2),
        ];
        let run_bits = |r: RunPlan| {
            (
                r.iter_time_s.to_bits(),
                r.throughput_sps.to_bits(),
                r.acquire_wall_s.to_bits(),
                r.plan_label,
            )
        };
        let answer = |s: &PlanService, &(model, gpus, pool): &(ModelConfig, usize, usize)| {
            let spec = arena_trace::JobSpec {
                id: 0,
                name: "t".into(),
                submit_s: 0.0,
                model,
                iterations: 10,
                requested_gpus: gpus,
                requested_pool: pool,
                deadline_s: None,
            };
            let pool = GpuTypeId(pool);
            (
                s.adaptive_run(&model, gpus, pool).map(run_bits),
                s.dp_profile(&model, gpus, pool).map(f64::to_bits),
                s.pure_dp_profile(&model, gpus, pool).map(f64::to_bits),
                s.cell_choice(&model, gpus, pool).map(|c| {
                    (
                        c.stages,
                        c.iter_time_s.to_bits(),
                        c.throughput_sps.to_bits(),
                        c.favors.to_vec(),
                    )
                }),
                s.arena_run(&model, gpus, pool).map(run_bits),
                s.ideal_sps(&spec).to_bits(),
            )
        };
        let fresh = PlanService::new(&cluster, CostParams::default(), 17);
        let want: Vec<_> = keys.iter().map(|k| answer(&fresh, k)).collect();
        let capped = fresh.adaptive_run(&moe24, 16, GpuTypeId(0)).unwrap();
        assert_eq!(capped.acquire_wall_s, EXPLORE_WALL_CAP_S);
        // Feasible and infeasible answers are both cached.
        assert!(want.iter().any(|a| a.4.is_none()) && want.iter().any(|a| a.4.is_some()));

        let warmed = PlanService::new(&cluster, CostParams::default(), 17);
        for k in &unrelated {
            let _ = answer(&warmed, k);
        }
        let mut got: Vec<_> = keys.iter().rev().map(|k| answer(&warmed, k)).collect();
        got.reverse();
        assert_eq!(got, want);
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
}
