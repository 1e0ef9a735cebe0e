//! The ground-truth facade: "running" and "profiling" plans.

use std::fmt::Display;

use arena_model::ModelGraph;
use arena_parallelism::{write_plan_label, PipelinePlan};

use crate::noise::{NoiseModel, PrefixedNoise};
use crate::params::CostParams;
use crate::pipeline::{Infeasible, PerfModel, PlanPerf};
use crate::target::HwTarget;

/// Ground-truth performance: the analytical model plus deterministic
/// measurement noise and the price of profiling.
///
/// Everything the paper does *on real hardware* goes through this type:
///
/// * [`measure`](GroundTruth::measure) — the performance a plan
///   achieves when it runs. An Alpa-style direct-profiling trial
///   measures the same thing.
/// * [`trial_wall_s`](GroundTruth::trial_wall_s) — the wall-clock that
///   trial occupies the plan's full allocation for: compile + warm-up +
///   measured iterations. A search sums its own trials, so its cost is
///   a pure function of the search.
///
/// Full exploration of a plan space, the expensive workflow of Fig. 2,
/// is [`SampledSearch::profile_best`](crate::SampledSearch::profile_best)
/// over every plan.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    model: PerfModel,
    noise: NoiseModel,
}

impl GroundTruth {
    /// Creates ground truth with the given constants and noise seed.
    #[must_use]
    pub fn new(params: CostParams, seed: u64) -> Self {
        let noise = NoiseModel::new(params.noise_sigma, seed);
        GroundTruth {
            model: PerfModel::new(params),
            noise,
        }
    }

    /// Ground truth without measurement noise (for tests and analyses).
    #[must_use]
    pub fn noiseless(params: CostParams) -> Self {
        GroundTruth {
            model: PerfModel::new(params),
            noise: NoiseModel::disabled(),
        }
    }

    /// The underlying noise-free analytical model.
    #[must_use]
    pub fn model(&self) -> &PerfModel {
        &self.model
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
    /// deterministic noise. A direct-profiling trial of the plan reads
    /// this and costs [`trial_wall_s`](Self::trial_wall_s).
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
    /// when the plan proved infeasible (`None`): a real tuner discovers
    /// OOM only after building the executable. The trial occupies every
    /// GPU of the plan, so its GPU-seconds are this times the plan's GPU
    /// count.
    #[must_use]
    pub fn trial_wall_s(&self, iter_time_s: Option<f64>) -> f64 {
        let p = self.params();
        match iter_time_s {
            Some(t) => p.direct_profile_setup_s + p.direct_profile_iters * t,
            None => p.direct_profile_setup_s,
        }
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
    use arena_parallelism::{determine_stages, PlanSpace};

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
    fn infeasible_trials_still_cost_setup() {
        let gt = GroundTruth::new(CostParams::default(), 7);
        let g = ModelConfig::new(ModelFamily::Bert, 6.7, 128).build();
        let hw = HwTarget::new(NodeSpec::with_default_links(GpuSpec::A10, 2));
        let plan = space(&g, 2, 1).iter().next().unwrap(); // hopeless on 24 GiB
        assert!(gt.measure(&g, 128, &plan, &hw).is_err());
        let setup = gt.params().direct_profile_setup_s;
        assert!(setup > 0.0);
        assert_eq!(gt.trial_wall_s(None), setup);
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
