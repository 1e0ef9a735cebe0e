//! End-to-end plan evaluation: the GPipe composition of Fig. 10.

use arena_model::{ModelGraph, Operator};
use arena_parallelism::{PipelinePlan, StageAssignment};

use crate::collective;
use crate::compute::stage_compute_times;
use crate::memory::stage_memory_parts_from;
use crate::params::CostParams;
use crate::target::{Channel, HwTarget};

/// Why a plan cannot run on the given hardware.
#[derive(Debug, Clone, PartialEq)]
pub enum Infeasible {
    /// A stage's per-GPU footprint exceeds usable device memory.
    OutOfMemory {
        /// Index of the offending stage.
        stage: usize,
        /// Bytes the stage needs per GPU.
        needed: f64,
        /// Usable bytes per GPU.
        budget: f64,
    },
    /// The global batch cannot feed `B × dp` micro-batch slots with at
    /// least one sample each.
    MicrobatchTooSmall {
        /// Index of the offending stage.
        stage: usize,
        /// The stage's data-parallel degree.
        dp: usize,
    },
    /// The plan has no stages or does not cover the model.
    InvalidPlan,
}

impl std::fmt::Display for Infeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Infeasible::OutOfMemory {
                stage,
                needed,
                budget,
            } => write!(
                f,
                "stage {stage} needs {:.1} GiB but only {:.1} GiB usable",
                needed / (1 << 30) as f64,
                budget / (1 << 30) as f64
            ),
            Infeasible::MicrobatchTooSmall { stage, dp } => {
                write!(f, "stage {stage} with dp={dp} starves its micro-batches")
            }
            Infeasible::InvalidPlan => write!(f, "plan does not cover the model"),
        }
    }
}

impl std::error::Error for Infeasible {}

/// Cost breakdown of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCost {
    /// Micro-batch size in samples on one replica.
    pub mb_samples: f64,
    /// Forward + backward computation per micro-batch, seconds.
    pub compute_s: f64,
    /// Tensor-parallel activation collectives per micro-batch, seconds.
    pub tp_comm_s: f64,
    /// Expert-dispatch all-to-all per micro-batch, seconds.
    pub dispatch_s: f64,
    /// Activation transfer from the previous stage per micro-batch,
    /// seconds (zero for stage 0).
    pub boundary_in_s: f64,
    /// End-of-iteration data-parallel gradient all-reduce, seconds.
    pub dp_sync_s: f64,
    /// Per-GPU memory footprint, bytes.
    pub mem_bytes: f64,
}

impl StageCost {
    /// The stage's per-micro-batch latency including communication.
    #[must_use]
    pub fn latency_s(&self) -> f64 {
        self.compute_s + self.tp_comm_s + self.dispatch_s + self.boundary_in_s
    }

    /// The stage's per-micro-batch busy time excluding the (overlappable)
    /// boundary transfer.
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        self.compute_s + self.tp_comm_s + self.dispatch_s
    }

    /// The stage's steady-state occupancy: boundary transfers overlap
    /// with computation, but the link is a serial resource — a stage can
    /// never stream micro-batches faster than its inbound transfer.
    #[must_use]
    pub fn steady_s(&self) -> f64 {
        self.busy_s().max(self.boundary_in_s)
    }
}

/// Evaluated performance of a plan on a hardware target.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanPerf {
    /// Seconds per training iteration (one global batch).
    pub iter_time_s: f64,
    /// Training throughput in samples per second.
    pub throughput_sps: f64,
    /// Index of the steady-state bottleneck stage.
    pub bottleneck: usize,
    /// Largest per-GPU memory footprint across stages, bytes.
    pub max_mem_bytes: f64,
    /// Effective micro-batches per iteration (>= the GPipe default when
    /// gradient accumulation kicked in).
    pub microbatches: usize,
    /// Per-stage cost breakdown.
    pub stages: Vec<StageCost>,
}

/// The analytical performance model (exact, noise-free).
#[derive(Debug, Clone, Default)]
pub struct PerfModel {
    /// Model constants.
    pub params: CostParams,
}

impl PerfModel {
    /// Creates a model with the given constants.
    #[must_use]
    pub fn new(params: CostParams) -> Self {
        PerfModel { params }
    }

    /// Full cost breakdown of stage `idx` of `plan` at the plan's default
    /// micro-batch count (`B = 4 × stages`).
    ///
    /// Exposed separately because the agile estimator profiles stages
    /// individually (§5.1).
    ///
    /// # Errors
    ///
    /// Returns [`Infeasible`] if the stage starves its micro-batches or
    /// exceeds device memory.
    pub fn stage_cost(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        plan: &PipelinePlan,
        idx: usize,
        hw: &HwTarget,
    ) -> Result<StageCost, Infeasible> {
        self.stage_cost_at(graph, global_batch, plan, idx, hw, plan.microbatches())
    }

    /// [`stage_cost`](Self::stage_cost) at an explicit micro-batch count
    /// `b` (gradient accumulation raises `b` above the GPipe default):
    /// the stage-local part plus the inbound boundary term.
    ///
    /// # Errors
    ///
    /// Returns [`Infeasible`] if the stage starves its micro-batches or
    /// exceeds device memory.
    pub fn stage_cost_at(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        plan: &PipelinePlan,
        idx: usize,
        hw: &HwTarget,
        b: usize,
    ) -> Result<StageCost, Infeasible> {
        let st = &plan.stages[idx];
        let sums = OpSums::new(&graph.ops[st.op_range.clone()]);
        let [local] = self.stage_local_costs(graph, global_batch, idx, st, &sums, hw, b);
        let mut cost = local?;
        if idx > 0 {
            let same_layout = plan.stages[idx - 1].plan == st.plan && st.plan.tp == 1;
            let ch = hw.channel_for(plan.total_gpus());
            cost.boundary_in_s =
                self.boundary_in_s(graph, global_batch, st.op_range.start, b, ch, same_layout);
        }
        Ok(cost)
    }

    /// Everything in a stage's cost that depends on the stage alone: the
    /// [`StageCost`]s of stage `idx`, assigned `st` (whose operators sum to
    /// `sums`), at `b`, `2b`, … (`N` doublings) micro-batches, with
    /// `boundary_in_s` left at zero. `idx` only labels errors.
    #[allow(clippy::too_many_arguments)] // Two callers: `stage_cost_at` and the sampled-search table.
    pub(crate) fn stage_local_costs<const N: usize>(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        idx: usize,
        st: &StageAssignment,
        sums: &OpSums,
        hw: &HwTarget,
        b: usize,
    ) -> [Result<StageCost, Infeasible>; N] {
        let p = &self.params;
        let (dp, tp) = (st.plan.dp, st.plan.tp);
        let mb_at = |b: usize| global_batch as f64 / (b * dp) as f64;
        let starved = || Err(Infeasible::MicrobatchTooSmall { stage: idx, dp });
        // More micro-batches only shrink each one.
        if mb_at(b) < 1.0 {
            return std::array::from_fn(|_| starved());
        }
        let gpu = &hw.node.gpu;
        let compute = stage_compute_times::<N>(p, graph, st.op_range.clone(), mb_at(b), tp, gpu);
        let tp_channel = hw.channel_for(tp);
        // Expert dispatch spans the whole stage group (GShard shards
        // experts across every device of the stage).
        let group = st.gpus();
        let group_channel = hw.channel_for(group);
        // Gradient all-reduce across replicas of this stage's TP shards.
        let grad_bytes = sums.param_bytes / tp as f64;
        let dp_sync_s = collective::allreduce(grad_bytes, dp, group_channel);
        let budget = gpu.mem_bytes() as f64 * p.usable_mem_frac;
        std::array::from_fn(|k| {
            let b = b << k;
            let mb = mb_at(b);
            if mb < 1.0 {
                return starved();
            }
            let compute_s = compute[k];

            // Forward + backward activation collectives for tensor sharding.
            let tp_payload = sums.tp_comm_bytes * mb * 2.0;
            let tp_comm_s = collective::allreduce(tp_payload, tp, tp_channel);

            let dispatch_payload = sums.dispatch_bytes * mb * 2.0;
            let dispatch_s = collective::alltoall(dispatch_payload, group, group_channel);

            let (fixed_mem, scalable_mem) =
                stage_memory_parts_from(p, graph, st.op_range.start, sums, mb, st.plan, b);
            let mem_bytes = fixed_mem + scalable_mem;
            if mem_bytes > budget {
                return Err(Infeasible::OutOfMemory {
                    stage: idx,
                    needed: mem_bytes,
                    budget,
                });
            }

            Ok(StageCost {
                mb_samples: mb,
                compute_s,
                tp_comm_s,
                dispatch_s,
                boundary_in_s: 0.0,
                dp_sync_s,
                mem_bytes,
            })
        })
    }

    /// The activation transfer into a non-first stage whose first
    /// operator is `start`, at `b` micro-batches: the full global
    /// micro-batch crosses `ch` (the whole plan's channel), resharded
    /// unless both sides of the cut are data-parallel with the same
    /// split (`same_layout`).
    pub(crate) fn boundary_in_s(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        start: usize,
        b: usize,
        ch: Channel,
        same_layout: bool,
    ) -> f64 {
        let bytes = graph.ops[start - 1].out_bytes * global_batch as f64 / b as f64;
        let factor = if same_layout {
            1.0
        } else {
            self.params.reshard_factor
        };
        collective::p2p(bytes * factor, ch)
    }

    /// Evaluates a full plan on a hardware target (Fig. 10 composition).
    ///
    /// Iteration time is the first micro-batch's traversal of every stage
    /// plus `B − 1` rounds of the slowest stage (boundary communication
    /// overlaps in steady state), plus the non-overlapped fraction of the
    /// slowest data-parallel gradient synchronisation.
    ///
    /// # Examples
    ///
    /// ```
    /// use arena_cluster::{GpuSpec, NodeSpec};
    /// use arena_model::zoo::{ModelConfig, ModelFamily};
    /// use arena_parallelism::{determine_stages, PlanSpace};
    /// use arena_perf::{HwTarget, PerfModel};
    ///
    /// let graph = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
    /// let space = PlanSpace::new(determine_stages(&graph, 4, 2).unwrap());
    /// let hw = HwTarget::new(NodeSpec::with_default_links(GpuSpec::A100, 4));
    /// let model = PerfModel::default();
    /// let perf = model.evaluate(&graph, 256, &space.iter().next().unwrap(), &hw).unwrap();
    /// assert!(perf.throughput_sps > 0.0);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`Infeasible`] for structurally invalid, memory-infeasible
    /// or batch-starved plans.
    pub fn evaluate(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        plan: &PipelinePlan,
        hw: &HwTarget,
    ) -> Result<PlanPerf, Infeasible> {
        if !plan.is_valid_for(graph) {
            return Err(Infeasible::InvalidPlan);
        }
        escalate(
            plan.microbatches(),
            |_, b| self.evaluate_at(graph, global_batch, plan, hw, b),
            |perf| perf.iter_time_s,
        )
    }

    /// [`evaluate`](Self::evaluate) at a fixed micro-batch count.
    ///
    /// # Errors
    ///
    /// Returns [`Infeasible`] for structurally invalid, memory-infeasible
    /// or batch-starved plans.
    pub fn evaluate_at(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        plan: &PipelinePlan,
        hw: &HwTarget,
        b: usize,
    ) -> Result<PlanPerf, Infeasible> {
        let mut stages = Vec::with_capacity(plan.num_stages());
        for idx in 0..plan.num_stages() {
            stages.push(self.stage_cost_at(graph, global_batch, plan, idx, hw, b)?);
        }
        let mut comp = Composition::default();
        for st in &stages {
            comp.push(st);
        }
        Ok(comp.perf(&self.params, global_batch, b, stages))
    }
}

/// The Fig. 10 composition of one plan's stage costs, folded in stage
/// order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Composition {
    stages: usize,
    /// Sum of the stages' latencies: the first micro-batch's traversal.
    fill_s: f64,
    /// The slowest steady-state occupancy (the last of equals).
    steady_s: f64,
    bottleneck: usize,
    /// The slowest data-parallel gradient synchronisation.
    sync_s: f64,
    max_mem_bytes: f64,
}

impl Composition {
    /// Folds in the next stage.
    pub(crate) fn push(&mut self, st: &StageCost) {
        self.fill_s += st.latency_s();
        let steady = st.steady_s();
        if self.stages == 0
            || steady
                .partial_cmp(&self.steady_s)
                .expect("stage costs are never NaN")
                .is_ge()
        {
            self.steady_s = steady;
            self.bottleneck = self.stages;
        }
        self.sync_s = self.sync_s.max(st.dp_sync_s);
        self.max_mem_bytes = self.max_mem_bytes.max(st.mem_bytes);
        self.stages += 1;
    }

    /// The plan's performance at `b` micro-batches, with breakdown
    /// `stages`. An iteration is the fill, `B − 1` rounds of the slowest
    /// stage (boundary communication overlaps in steady state), and the
    /// non-overlapped part of the slowest gradient synchronisation.
    ///
    /// # Panics
    ///
    /// Panics if no stage was pushed.
    pub(crate) fn perf(
        &self,
        params: &CostParams,
        global_batch: usize,
        b: usize,
        stages: Vec<StageCost>,
    ) -> PlanPerf {
        assert!(self.stages > 0, "plan has at least one stage");
        let sync = self.sync_s * (1.0 - params.dp_overlap);
        let iter_time_s = self.fill_s + (b as f64 - 1.0) * self.steady_s + sync;
        PlanPerf {
            iter_time_s,
            throughput_sps: global_batch as f64 / iter_time_s,
            bottleneck: self.bottleneck,
            max_mem_bytes: self.max_mem_bytes,
            microbatches: b,
            stages,
        }
    }
}

/// Sums over one stage's operators, which neither the stage's split nor
/// the micro-batch count changes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpSums {
    /// Tensor-parallel activation bytes per sample.
    pub tp_comm_bytes: f64,
    /// Expert-dispatch bytes per sample.
    pub dispatch_bytes: f64,
    /// FP16 weight bytes.
    pub param_bytes: f64,
    /// Live activation bytes per sample.
    pub act_bytes: f64,
}

impl OpSums {
    /// Sums `ops` left to right, each total in its own accumulator.
    pub(crate) fn new(ops: &[Operator]) -> Self {
        let mut sums = OpSums {
            tp_comm_bytes: 0.0,
            dispatch_bytes: 0.0,
            param_bytes: 0.0,
            act_bytes: 0.0,
        };
        for o in ops {
            sums.tp_comm_bytes += o.tp_comm_bytes;
            sums.dispatch_bytes += o.dispatch_bytes;
            sums.param_bytes += o.param_bytes();
            sums.act_bytes += o.act_bytes;
        }
        sums
    }
}

/// Micro-batch counts [`PerfModel::evaluate`] tries: the GPipe default
/// and four doublings.
pub(crate) const ACCUMULATION_STEPS: usize = 5;

/// The gradient-accumulation escalation of [`PerfModel::evaluate`] over
/// any evaluator `at(step, b)` of one micro-batch count: tries
/// `b = microbatches × 2^step` for each of the [`ACCUMULATION_STEPS`] in
/// order (doubling shrinks per-micro-batch memory and the pipeline
/// bubble, at the cost of launch overhead and boundary-link saturation)
/// and keeps the first fastest feasible result by `iter_time`. Batch
/// starvation only worsens with more micro-batches, so it ends the
/// escalation; with no feasible count the error is the last one seen
/// (starvation only if it came first).
pub(crate) fn escalate<T>(
    microbatches: usize,
    mut at: impl FnMut(usize, usize) -> Result<T, Infeasible>,
    iter_time: impl Fn(&T) -> f64,
) -> Result<T, Infeasible> {
    let mut best: Option<T> = None;
    let mut last = Infeasible::InvalidPlan;
    for step in 0..ACCUMULATION_STEPS {
        match at(step, microbatches << step) {
            Ok(perf) => {
                if best
                    .as_ref()
                    .is_none_or(|p| iter_time(&perf) < iter_time(p))
                {
                    best = Some(perf);
                }
            }
            Err(e @ Infeasible::MicrobatchTooSmall { .. }) => {
                if step == 0 {
                    last = e;
                }
                break;
            }
            Err(e) => last = e,
        }
    }
    best.ok_or(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arena_cluster::{GpuSpec, NodeSpec};
    use arena_model::zoo::{ModelConfig, ModelFamily};
    use arena_parallelism::{determine_stages, PlanSpace, StagePlan};

    fn a100x4() -> HwTarget {
        HwTarget::new(NodeSpec::with_default_links(GpuSpec::A100, 4))
    }

    fn plan_for(graph: &ModelGraph, gpus: usize, stages: usize) -> PlanSpace {
        PlanSpace::new(determine_stages(graph, gpus, stages).unwrap())
    }

    fn dp_only_plan(graph: &ModelGraph, gpus: usize, stages: usize) -> PipelinePlan {
        let part = determine_stages(graph, gpus, stages).unwrap();
        let plan_stages = part
            .ranges
            .iter()
            .zip(&part.gpus)
            .map(|(r, &g)| StageAssignment {
                op_range: r.clone(),
                plan: StagePlan::dp_only(g),
            })
            .collect();
        PipelinePlan {
            stages: plan_stages,
        }
    }

    #[test]
    fn evaluate_returns_consistent_perf() {
        let m = PerfModel::default();
        let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
        let plan = dp_only_plan(&g, 4, 1);
        let perf = m.evaluate(&g, 256, &plan, &a100x4()).unwrap();
        assert!(perf.iter_time_s > 0.0);
        assert!((perf.throughput_sps - 256.0 / perf.iter_time_s).abs() < 1e-9);
        assert_eq!(perf.stages.len(), 1);
        assert!(perf.max_mem_bytes > 0.0);
    }

    #[test]
    fn more_gpus_are_faster_within_a_node() {
        let m = PerfModel::default();
        let g = ModelConfig::new(ModelFamily::Bert, 0.76, 128).build();
        let hw = a100x4();
        let t1 = m
            .evaluate(&g, 128, &dp_only_plan(&g, 1, 1), &hw)
            .unwrap()
            .iter_time_s;
        let t4 = m
            .evaluate(&g, 128, &dp_only_plan(&g, 4, 1), &hw)
            .unwrap()
            .iter_time_s;
        assert!(t4 < t1, "t1={t1} t4={t4}");
        assert!(t4 > t1 / 4.5, "scaling is implausibly superlinear");
    }

    #[test]
    fn oversized_dp_starves_microbatches() {
        let m = PerfModel::default();
        let g = ModelConfig::new(ModelFamily::Bert, 0.76, 128).build();
        // dp=64 with B=4 requires 256 samples but the batch has 128.
        let plan = dp_only_plan(&g, 64, 1);
        assert_eq!(
            m.evaluate(&g, 128, &plan, &a100x4()),
            Err(Infeasible::MicrobatchTooSmall { stage: 0, dp: 64 })
        );
    }

    #[test]
    fn big_model_dp_only_goes_oom() {
        let m = PerfModel::default();
        let g = ModelConfig::new(ModelFamily::Bert, 6.7, 128).build();
        let plan = dp_only_plan(&g, 4, 1);
        assert!(matches!(
            m.evaluate(&g, 128, &plan, &a100x4()),
            Err(Infeasible::OutOfMemory { .. })
        ));
    }

    #[test]
    fn some_plan_fits_big_model_via_pipeline() {
        let m = PerfModel::default();
        let g = ModelConfig::new(ModelFamily::Bert, 6.7, 128).build();
        let hw = a100x4();
        let feasible = plan_for(&g, 8, 4)
            .iter()
            .filter(|p| m.evaluate(&g, 128, p, &hw).is_ok())
            .count();
        assert!(feasible > 0, "no feasible plan for BERT-6.7B on 8xA100");
    }

    #[test]
    fn pipeline_beats_dp_across_slow_fabric() {
        // On 2-GPU-per-node PCIe + InfiniBand A40 servers, an 8-GPU job
        // should prefer pipelining over pure data parallelism, whose
        // gradient all-reduce crosses the fabric with the full model.
        let m = PerfModel::default();
        let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
        let hw = HwTarget::new(NodeSpec::with_default_links(GpuSpec::A40, 2));
        let dp = m
            .evaluate(&g, 256, &dp_only_plan(&g, 8, 1), &hw)
            .unwrap()
            .iter_time_s;
        let pp = plan_for(&g, 8, 4)
            .iter()
            .filter_map(|p| m.evaluate(&g, 256, &p, &hw).ok())
            .map(|perf| perf.iter_time_s)
            .fold(f64::INFINITY, f64::min);
        assert!(pp < dp, "pipeline {pp} not faster than wide DP {dp}");
    }

    #[test]
    fn tp_cheaper_on_nvlink_than_pcie() {
        let m = PerfModel::default();
        let g = ModelConfig::new(ModelFamily::Bert, 2.6, 128).build();
        let part = determine_stages(&g, 4, 1).unwrap();
        let tp_plan = PipelinePlan {
            stages: vec![StageAssignment {
                op_range: part.ranges[0].clone(),
                plan: StagePlan::tp_only(4),
            }],
        };
        let nvlink = m
            .evaluate(&g, 128, &tp_plan, &a100x4())
            .unwrap()
            .iter_time_s;
        // Same silicon speed, PCIe interconnect: build a fake A100-PCIe.
        let mut pcie_node = NodeSpec::with_default_links(GpuSpec::A100, 4);
        pcie_node.intra_link = arena_cluster::LinkKind::Pcie4;
        let pcie = m
            .evaluate(&g, 128, &tp_plan, &HwTarget::new(pcie_node))
            .unwrap()
            .iter_time_s;
        assert!(pcie > 1.2 * nvlink, "nvlink={nvlink} pcie={pcie}");
    }

    #[test]
    fn invalid_plan_rejected() {
        let m = PerfModel::default();
        let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
        let plan = PipelinePlan { stages: vec![] };
        assert_eq!(
            m.evaluate(&g, 256, &plan, &a100x4()),
            Err(Infeasible::InvalidPlan)
        );
    }

    #[test]
    fn stage_cost_breakdown_sums() {
        let m = PerfModel::default();
        let g = ModelConfig::new(ModelFamily::Moe, 1.3, 256).build();
        let part = determine_stages(&g, 8, 2).unwrap();
        let plan = PipelinePlan {
            stages: part
                .ranges
                .iter()
                .zip(&part.gpus)
                .map(|(r, &gp)| StageAssignment {
                    op_range: r.clone(),
                    plan: StagePlan { dp: gp / 2, tp: 2 },
                })
                .collect(),
        };
        let perf = m.evaluate(&g, 256, &plan, &a100x4()).unwrap();
        for (i, st) in perf.stages.iter().enumerate() {
            assert!(st.compute_s > 0.0);
            assert!(st.tp_comm_s > 0.0, "stage {i} lost its TP collectives");
            assert!(
                (st.latency_s() - st.busy_s() - st.boundary_in_s).abs() < 1e-12,
                "latency/busy decomposition broken"
            );
        }
        // MoE layers live somewhere, so some stage pays dispatch.
        assert!(perf.stages.iter().any(|s| s.dispatch_s > 0.0));
    }
}
