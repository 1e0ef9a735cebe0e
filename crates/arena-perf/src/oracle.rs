//! The ground-truth facade: "running" and "profiling" plans.

use std::fmt::Display;
use std::sync::Arc;

use arena_model::ModelGraph;
use arena_parallelism::{write_plan_label, PipelinePlan, PlanSpace};

use crate::meter::ProfilingMeter;
use crate::noise::{NoiseModel, PrefixedNoise};
use crate::params::CostParams;
use crate::pipeline::{Infeasible, PerfModel, PlanPerf};
use crate::sampled::SampledSearch;
use crate::target::HwTarget;

/// Ground-truth performance: the analytical model plus deterministic
/// measurement noise and profiling-cost accounting.
///
/// Everything the paper does *on real hardware* goes through this type:
///
/// * [`measure`](GroundTruth::measure) — the performance a job actually
///   achieves when it runs (free: running a job is not profiling).
/// * [`profile_direct`](GroundTruth::profile_direct) — an Alpa-style
///   trial: compile + warm-up + measured iterations on the plan's full
///   allocation, charged to the [`ProfilingMeter`].
/// * [`explore`](GroundTruth::explore) — full adaptive-parallelism
///   exploration of a plan space: directly profiles every plan and
///   returns the best, exactly the expensive workflow of Fig. 2.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    model: PerfModel,
    noise: NoiseModel,
    meter: Arc<ProfilingMeter>,
}

impl GroundTruth {
    /// Creates ground truth with the given constants and noise seed.
    #[must_use]
    pub fn new(params: CostParams, seed: u64) -> Self {
        let noise = NoiseModel::new(params.noise_sigma, seed);
        GroundTruth {
            model: PerfModel::new(params),
            noise,
            meter: Arc::new(ProfilingMeter::new()),
        }
    }

    /// Ground truth without measurement noise (for tests and analyses).
    #[must_use]
    pub fn noiseless(params: CostParams) -> Self {
        GroundTruth {
            model: PerfModel::new(params),
            noise: NoiseModel::disabled(),
            meter: Arc::new(ProfilingMeter::new()),
        }
    }

    /// The underlying noise-free analytical model.
    #[must_use]
    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    /// The shared profiling meter.
    #[must_use]
    pub fn meter(&self) -> &Arc<ProfilingMeter> {
        &self.meter
    }

    /// The cost constants in use.
    #[must_use]
    pub fn params(&self) -> &CostParams {
        &self.model.params
    }

    /// The smallest factor measurement noise multiplies a noise-free
    /// iteration time by ([`NoiseModel::floor`]), always positive: a plan
    /// whose noise-free time is `t` measures at least `t × noise_floor()`.
    #[must_use]
    pub fn noise_floor(&self) -> f64 {
        self.noise.floor()
    }

    /// The measurement noise of plans of `graph` at `global_batch` on
    /// `hw`.
    pub(crate) fn plan_noise(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        hw: &HwTarget,
    ) -> PlanNoise {
        PlanNoise {
            noise: self
                .noise
                .prefixed(&format!("{}|{}|", graph.name, global_batch)),
            rest: String::new(),
            suffix: format!("|{}|{}", hw.name(), hw.packed_gpn),
        }
    }

    /// Measures a plan as the hardware would: analytical cost perturbed by
    /// deterministic noise. No profiling cost is charged.
    ///
    /// # Errors
    ///
    /// Returns [`Infeasible`] as [`PerfModel::evaluate`] does.
    pub fn measure(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        plan: &PipelinePlan,
        hw: &HwTarget,
    ) -> Result<PlanPerf, Infeasible> {
        let perf = self.model.evaluate(graph, global_batch, plan, hw)?;
        Ok(self.perturb_plan(graph, global_batch, plan, hw, perf))
    }

    /// Measures a plan at a fixed micro-batch count (no gradient
    /// accumulation), as a plain DDP-style runtime would execute it.
    ///
    /// # Errors
    ///
    /// Returns [`Infeasible`] as [`PerfModel::evaluate_at`] does.
    pub fn measure_at(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        plan: &PipelinePlan,
        hw: &HwTarget,
        b: usize,
    ) -> Result<PlanPerf, Infeasible> {
        let perf = self.model.evaluate_at(graph, global_batch, plan, hw, b)?;
        Ok(self.perturb_plan(graph, global_batch, plan, hw, perf))
    }

    fn perturb_plan(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        plan: &PipelinePlan,
        hw: &HwTarget,
        mut perf: PlanPerf,
    ) -> PlanPerf {
        self.plan_noise(graph, global_batch, hw).perturb(
            plan.stages.iter().map(|s| s.plan),
            &mut perf.iter_time_s,
            &mut perf.throughput_sps,
        );
        perf
    }

    /// Wall-clock of one direct-profiling trial: compile + warm-up +
    /// measured iterations at `iter_time_s`, or the compilation alone
    /// when the plan proved infeasible (`None`).
    #[must_use]
    pub fn trial_wall_s(&self, iter_time_s: Option<f64>) -> f64 {
        let p = self.params();
        match iter_time_s {
            Some(t) => p.direct_profile_setup_s + p.direct_profile_iters * t,
            None => p.direct_profile_setup_s,
        }
    }

    /// Charges one direct-profiling trial on `gpus` GPUs to the meter
    /// (see [`trial_wall_s`](Self::trial_wall_s)).
    pub(crate) fn charge_trial(&self, iter_time_s: Option<f64>, gpus: usize) {
        self.meter.charge(self.trial_wall_s(iter_time_s), gpus);
    }

    /// Directly profiles a plan on its full allocation (Alpa-style trial),
    /// charging compile + warm-up + measured iterations on every GPU.
    ///
    /// Infeasible plans still pay the compilation part of the trial — a
    /// real tuner discovers OOM only after building the executable.
    ///
    /// # Errors
    ///
    /// Returns [`Infeasible`] as [`measure`](Self::measure) does.
    pub fn profile_direct(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        plan: &PipelinePlan,
        hw: &HwTarget,
    ) -> Result<PlanPerf, Infeasible> {
        let perf = self.measure(graph, global_batch, plan, hw);
        self.charge_trial(perf.as_ref().ok().map(|p| p.iter_time_s), plan.total_gpus());
        perf
    }

    /// Full adaptive-parallelism exploration: directly profiles every plan
    /// in `space` and returns the best `(plan, perf)` by throughput.
    ///
    /// Returns `None` when no plan in the space is feasible.
    #[must_use]
    pub fn explore(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        space: &PlanSpace,
        hw: &HwTarget,
    ) -> Option<(PipelinePlan, PlanPerf)> {
        SampledSearch::new(self, graph, global_batch, space, hw).profile_best(usize::MAX, |_| {})
    }

    /// The best plan in `space` by *true* performance, without charging
    /// the meter — the omniscient reference used to score estimation and
    /// tuning accuracy.
    #[must_use]
    pub fn best_silent(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        space: &PlanSpace,
        hw: &HwTarget,
    ) -> Option<(PipelinePlan, PlanPerf)> {
        SampledSearch::new(self, graph, global_batch, space, hw).best_silent(usize::MAX)
    }
}

/// The measurement noise of plans of one model and batch on one hardware
/// target.
///
/// A measurement's noise key is
/// `"{model}|{batch}|{plan label}|{gpu}|{packed_gpn}"`. The
/// `"{model}|{batch}|"` prefix is hashed once; the rest is rendered into
/// one reused buffer.
#[derive(Debug)]
pub(crate) struct PlanNoise {
    noise: PrefixedNoise,
    rest: String,
    suffix: String,
}

impl PlanNoise {
    /// Perturbs a noise-free `(iter_time_s, throughput_sps)` of the plan
    /// whose stages render as `stages` by its noise factor.
    pub(crate) fn perturb<L: Display>(
        &mut self,
        stages: impl ExactSizeIterator<Item = L>,
        iter_time_s: &mut f64,
        throughput_sps: &mut f64,
    ) {
        self.rest.clear();
        write_plan_label(&mut self.rest, stages).expect("writing to a String cannot fail");
        self.rest.push_str(&self.suffix);
        let f = self.noise.factor(&self.rest);
        *iter_time_s *= f;
        *throughput_sps /= f;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arena_cluster::{GpuSpec, NodeSpec};
    use arena_model::zoo::{ModelConfig, ModelFamily};
    use arena_parallelism::determine_stages;

    fn setup() -> (GroundTruth, ModelGraph, HwTarget) {
        let gt = GroundTruth::new(CostParams::default(), 7);
        let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
        let hw = HwTarget::new(NodeSpec::with_default_links(GpuSpec::A100, 4));
        (gt, g, hw)
    }

    fn space(g: &ModelGraph, gpus: usize, stages: usize) -> PlanSpace {
        PlanSpace::new(determine_stages(g, gpus, stages).unwrap())
    }

    #[test]
    fn measurement_is_deterministic_and_noisy() {
        let (gt, g, hw) = setup();
        let plan = space(&g, 4, 2).iter().next().unwrap();
        let a = gt.measure(&g, 256, &plan, &hw).unwrap();
        let b = gt.measure(&g, 256, &plan, &hw).unwrap();
        assert_eq!(a.iter_time_s, b.iter_time_s);
        let exact = gt.model().evaluate(&g, 256, &plan, &hw).unwrap();
        assert_ne!(a.iter_time_s, exact.iter_time_s);
        let rel = (a.iter_time_s - exact.iter_time_s).abs() / exact.iter_time_s;
        assert!(rel < 0.1, "noise {rel} too large");
    }

    #[test]
    fn direct_profiling_charges_gpu_time() {
        let (gt, g, hw) = setup();
        let plan = space(&g, 4, 1).iter().next().unwrap();
        assert_eq!(gt.meter().gpu_seconds(), 0.0);
        let perf = gt.profile_direct(&g, 256, &plan, &hw).unwrap();
        let expected = (gt.params().direct_profile_setup_s
            + gt.params().direct_profile_iters * perf.iter_time_s)
            * 4.0;
        let charged = gt.meter().gpu_seconds();
        assert!((charged - expected).abs() < 1e-9);
    }

    #[test]
    fn infeasible_trials_still_cost_setup() {
        let gt = GroundTruth::new(CostParams::default(), 7);
        let g = ModelConfig::new(ModelFamily::Bert, 6.7, 128).build();
        let hw = HwTarget::new(NodeSpec::with_default_links(GpuSpec::A10, 2));
        let plan = space(&g, 2, 1).iter().next().unwrap(); // hopeless on 24 GiB
        let r = gt.profile_direct(&g, 128, &plan, &hw);
        assert!(r.is_err());
        assert!(gt.meter().gpu_seconds() > 0.0);
    }

    #[test]
    fn explore_finds_best_and_charges_everything() {
        let (gt, g, hw) = setup();
        let sp = space(&g, 4, 2);
        let (_, best) = gt.explore(&g, 256, &sp, &hw).unwrap();
        // Exploration profiled every plan in the space.
        assert_eq!(gt.meter().trials(), sp.len() as u64);
        // Silent best agrees with explored best (same noise model).
        let (_, silent) = gt.best_silent(&g, 256, &sp, &hw).unwrap();
        assert_eq!(best.throughput_sps, silent.throughput_sps);
    }

    #[test]
    fn noiseless_matches_model_exactly() {
        let gt = GroundTruth::noiseless(CostParams::default());
        let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
        let hw = HwTarget::new(NodeSpec::with_default_links(GpuSpec::A100, 4));
        let plan = space(&g, 4, 1).iter().next().unwrap();
        let a = gt.measure(&g, 256, &plan, &hw).unwrap();
        let b = gt.model().evaluate(&g, 256, &plan, &hw).unwrap();
        assert_eq!(a.iter_time_s, b.iter_time_s);
    }
}
