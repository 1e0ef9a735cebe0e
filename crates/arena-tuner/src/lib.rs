//! Cell-guided parallelism tuning (§5.2).
//!
//! Once a Cell is scheduled, the job needs the *optimal* plan inside the
//! Cell's exploration space, not the estimator's grid sample. Exhaustive
//! exploration (Alpa-style) profiles every `(dp, tp)` combination on the
//! job's full allocation — expensive, and re-triggered on every
//! reschedule. Arena instead prunes each stage's exploration axis to the
//! half containing the parallelism the estimator favoured (Fig. 11):
//! a stage favouring data parallelism is tuned only from DP-only to
//! half-hybrid (`tp ≤ √g`), and symmetrically for tensor parallelism.
//!
//! Both the pruned and the unpruned search profile every plan they try
//! on the job's full allocation, and a [`TuneResult`] sums the search's
//! own trials ([`GroundTruth::trial_wall_s`]), so the tuning-time
//! reductions of Fig. 13(b) fall out of the accounting, and a result is
//! a pure function of its search.

#![forbid(unsafe_code)]

use arena_estimator::{Cell, CellEstimate, Favor};
use arena_model::ModelGraph;
use arena_parallelism::{stage_plan_options, PipelinePlan, PlanSpace, StagePlan};
use arena_perf::{GroundTruth, HwTarget, PlanPerf, SampledSearch};

/// Outcome of one tuning run.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The best plan found.
    pub plan: PipelinePlan,
    /// Its measured performance.
    pub perf: PlanPerf,
    /// Plans directly profiled during the search.
    pub trials: u64,
    /// GPU-seconds of this search's trials, summed trial by trial in
    /// sample order.
    pub gpu_seconds: f64,
    /// Wall-clock seconds of this search's trials, summed the same way.
    pub wall_seconds: f64,
}

/// Builds the pruned exploration space for a Cell given its per-stage
/// favors (Fig. 11).
///
/// For a stage with `g = 2^k` GPUs the full axis runs from DP-only
/// (`tp = 2^0`) to TP-only (`tp = 2^k`), with half-hybrid at
/// `tp = √g`. A DP favor keeps `tp ≤ 2^⌊k/2⌋`; a TP favor keeps
/// `tp ≥ 2^⌈k/2⌉` — both halves include the half-hybrid point.
///
/// # Panics
///
/// Panics if `favors.len()` differs from the Cell's stage count.
#[must_use]
pub fn pruned_space(cell: &Cell, favors: &[Favor]) -> PlanSpace {
    assert_eq!(favors.len(), cell.num_stages, "one favor per stage");
    let options: Vec<Vec<StagePlan>> = cell
        .partition
        .gpus
        .iter()
        .zip(favors)
        .map(|(&g, favor)| {
            let all = stage_plan_options(g);
            if !g.is_power_of_two() {
                return all;
            }
            let k = g.trailing_zeros() as usize;
            let kept: Vec<StagePlan> = match favor {
                Favor::Dp => all
                    .into_iter()
                    .filter(|p| p.tp.trailing_zeros() as usize <= k / 2)
                    .collect(),
                Favor::Tp => all
                    .into_iter()
                    .filter(|p| p.tp.trailing_zeros() as usize >= k.div_ceil(2))
                    .collect(),
            };
            kept
        })
        .collect();
    PlanSpace::with_options(cell.partition.clone(), options)
}

/// Searches a plan space by directly profiling candidates, returning the
/// best feasible plan.
///
/// When the space holds more than `cap` plans the search profiles an
/// evenly strided sample of `cap` of them (the space is a grid, so a
/// stride covers it uniformly); the cap exists to bound a pathological
/// deep-pipeline search and is far above any space the evaluation visits.
#[must_use]
pub fn tune_in_space(
    gt: &GroundTruth,
    graph: &ModelGraph,
    global_batch: usize,
    space: &PlanSpace,
    hw: &HwTarget,
    cap: usize,
) -> Option<TuneResult> {
    let gpus = space.plan_at_index(0).total_gpus() as f64;
    let (mut trials, mut gpu_seconds, mut wall_seconds) = (0, 0.0, 0.0);
    let search = SampledSearch::new(gt, graph, global_batch, space, hw);
    let (plan, perf) = search.profile_best(cap, |t| {
        let wall = gt.trial_wall_s(t);
        trials += 1;
        gpu_seconds += wall * gpus;
        wall_seconds += wall;
    })?;
    Some(TuneResult {
        plan,
        perf,
        trials,
        gpu_seconds,
        wall_seconds,
    })
}

/// Default cap on profiled plans per tuning run.
pub const DEFAULT_TUNE_CAP: usize = 4096;

/// Unpruned baseline: explores the Cell's full exploration space.
#[must_use]
pub fn tune_full(
    gt: &GroundTruth,
    graph: &ModelGraph,
    global_batch: usize,
    cell: &Cell,
    hw: &HwTarget,
) -> Option<TuneResult> {
    let space = PlanSpace::new(cell.partition.clone());
    tune_in_space(gt, graph, global_batch, &space, hw, DEFAULT_TUNE_CAP)
}

/// Cell-guided tuning: explores only the half-spaces selected by the
/// estimate's favors.
///
/// # Examples
///
/// ```
/// use arena_cluster::{GpuSpec, NodeSpec};
/// use arena_estimator::{Cell, CellEstimator};
/// use arena_model::zoo::{ModelConfig, ModelFamily};
/// use arena_perf::{CostParams, GroundTruth, HwTarget};
/// use arena_tuner::tune_pruned;
///
/// let graph = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
/// let cell = Cell::new(&graph, 8, 2).unwrap();
/// let hw = HwTarget::new(NodeSpec::with_default_links(GpuSpec::A100, 4));
/// let estimator = CellEstimator::new(CostParams::default(), 7);
/// let estimate = estimator.estimate(&graph, 256, &cell, &hw).unwrap();
///
/// let gt = GroundTruth::new(CostParams::default(), 7);
/// let tuned = tune_pruned(&gt, &graph, 256, &cell, &estimate, &hw).unwrap();
/// assert!(tuned.plan.is_valid_for(&graph));
/// assert!(tuned.trials >= 1);
/// ```
#[must_use]
pub fn tune_pruned(
    gt: &GroundTruth,
    graph: &ModelGraph,
    global_batch: usize,
    cell: &Cell,
    estimate: &CellEstimate,
    hw: &HwTarget,
) -> Option<TuneResult> {
    let space = pruned_space(cell, &estimate.favors);
    tune_in_space(gt, graph, global_batch, &space, hw, DEFAULT_TUNE_CAP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arena_cluster::{GpuSpec, NodeSpec};
    use arena_estimator::CellEstimator;
    use arena_model::zoo::{ModelConfig, ModelFamily};
    use arena_perf::CostParams;

    fn a100() -> HwTarget {
        HwTarget::new(NodeSpec::with_default_links(GpuSpec::A100, 4))
    }

    fn setup(size: f64, gb: usize) -> (GroundTruth, CellEstimator, ModelGraph) {
        let params = CostParams::default();
        (
            GroundTruth::new(params.clone(), 42),
            CellEstimator::new(params, 42),
            ModelConfig::new(ModelFamily::Bert, size, gb).build(),
        )
    }

    #[test]
    fn pruned_space_is_half_per_stage() {
        let (_, est, g) = setup(1.3, 256);
        let cell = Cell::new(&g, 16, 2).unwrap();
        let e = est.estimate(&g, 256, &cell, &a100()).unwrap();
        let full = PlanSpace::new(cell.partition.clone()).len();
        let pruned = pruned_space(&cell, &e.favors).len();
        // 8 GPUs per stage: 4 options full, 2 kept -> 16 vs 4.
        assert_eq!(full, 16);
        assert_eq!(pruned, 4);
    }

    #[test]
    fn pruned_halves_contain_half_hybrid() {
        let (_, _, g) = setup(1.3, 256);
        let cell = Cell::new(&g, 16, 1).unwrap(); // one stage of 16 GPUs
        for favor in [Favor::Dp, Favor::Tp] {
            let sp = pruned_space(&cell, &[favor]);
            let has_half = sp
                .iter()
                .any(|p| p.stages[0].plan == StagePlan { dp: 4, tp: 4 });
            assert!(has_half, "{favor:?} half-space lost the half-hybrid");
        }
    }

    #[test]
    fn tuning_finds_a_plan_and_costs_gpu_time() {
        let (gt, est, g) = setup(1.3, 256);
        let cell = Cell::new(&g, 8, 2).unwrap();
        let e = est.estimate(&g, 256, &cell, &a100()).unwrap();
        let r = tune_pruned(&gt, &g, 256, &cell, &e, &a100()).unwrap();
        assert!(r.trials > 0);
        assert!(r.gpu_seconds > 0.0);
        assert!(r.plan.is_valid_for(&g));
        assert!(r.perf.throughput_sps > 0.0);
    }

    #[test]
    fn pruned_tuning_is_cheaper_than_full() {
        let (gt, est, g) = setup(1.3, 512);
        let cell = Cell::new(&g, 16, 4).unwrap();
        let e = est.estimate(&g, 512, &cell, &a100()).unwrap();
        let full = tune_full(&gt, &g, 512, &cell, &a100()).unwrap();
        let pruned = tune_pruned(&gt, &g, 512, &cell, &e, &a100()).unwrap();
        assert!(
            pruned.gpu_seconds < full.gpu_seconds,
            "pruned {} >= full {}",
            pruned.gpu_seconds,
            full.gpu_seconds
        );
        assert!(pruned.trials < full.trials);
    }

    #[test]
    fn pruned_tuning_is_nearly_as_good_as_full() {
        let (gt, est, g) = setup(2.6, 256);
        let hw = a100();
        let cell = Cell::new(&g, 8, 2).unwrap();
        let e = est.estimate(&g, 256, &cell, &hw).unwrap();
        let full = tune_full(&gt, &g, 256, &cell, &hw).unwrap();
        let pruned = tune_pruned(&gt, &g, 256, &cell, &e, &hw).unwrap();
        let acc = pruned.perf.throughput_sps / full.perf.throughput_sps;
        assert!(acc > 0.85, "tuning accuracy {acc} too low");
        assert!(acc <= 1.0 + 1e-9);
    }

    #[test]
    fn infeasible_everywhere_returns_none() {
        let params = CostParams::default();
        let gt = GroundTruth::new(params, 1);
        let g = ModelConfig::new(ModelFamily::Moe, 27.0, 256).build();
        let cell = Cell::new(&g, 2, 1).unwrap();
        let hw = HwTarget::new(NodeSpec::with_default_links(GpuSpec::A10, 2));
        assert!(tune_full(&gt, &g, 256, &cell, &hw).is_none());
    }

    #[test]
    #[should_panic(expected = "one favor per stage")]
    fn favor_count_mismatch_panics() {
        let (_, _, g) = setup(1.3, 256);
        let cell = Cell::new(&g, 8, 4).unwrap();
        let _ = pruned_space(&cell, &[Favor::Dp]);
    }
}
