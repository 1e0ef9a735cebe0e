//! Per-stage computation time.

use std::ops::Range;

use arena_cluster::{GpuArch, GpuSpec};
use arena_model::ModelGraph;

use crate::params::CostParams;

/// Computation time of one pipeline stage for one micro-batch (forward +
/// backward), on one tensor-parallel shard.
///
/// Each operator contributes a roofline term — total FLOPs divided by the
/// device's peak scaled by an achievable-efficiency cap — plus an additive
/// launch overhead. Tensor parallelism divides the FLOPs across `tp`
/// shards but pays a fragmentation penalty and the same launch overheads,
/// so efficiency degrades as per-GPU work shrinks: the mechanism behind
/// the performance ceiling of Fig. 4(a).
#[must_use]
pub fn stage_compute_time(
    p: &CostParams,
    graph: &ModelGraph,
    range: Range<usize>,
    mb_samples: f64,
    tp: usize,
    gpu: &GpuSpec,
) -> f64 {
    let [t] = stage_compute_times::<1>(p, graph, range, mb_samples, tp, gpu);
    t
}

/// [`stage_compute_time`] at micro-batch sizes `mb_samples`,
/// `mb_samples / 2`, … (`N` halvings) in one walk over the operators.
/// Halving is exact in binary floating point, so each operator's term at
/// `mb_samples / 2^k` is its term at `mb_samples` times `2^-k`, bit for
/// bit, and each total sums the same terms in the same order as a
/// separate call.
#[must_use]
pub(crate) fn stage_compute_times<const N: usize>(
    p: &CostParams,
    graph: &ModelGraph,
    range: Range<usize>,
    mb_samples: f64,
    tp: usize,
    gpu: &GpuSpec,
) -> [f64; N] {
    let arch_eff = match gpu.arch {
        GpuArch::Ampere => 1.0,
        GpuArch::Volta => p.volta_eff,
    };
    let frag = 1.0 + p.tp_fragmentation * (tp as f64 - 1.0);
    // Loop-invariant factors hoisted out of the op walk. Each hoisted
    // value is exactly the scalar the old per-op expression produced,
    // multiplied in the same position, so the sum is bitwise unchanged.
    let bwd = 1.0 + p.bwd_ratio;
    let tpf = tp as f64;
    let peak = gpu.peak_flops();
    let halvings: [f64; N] = std::array::from_fn(|k| 1.0 / (1_u64 << k) as f64);
    let mut totals = [0.0; N];
    for op in &graph.ops[range] {
        let work = bwd * op.flops_fwd * mb_samples / tpf;
        let eff = p.eff_for(op.kind) * arch_eff / frag;
        let term = work / (peak * eff);
        for (total, h) in totals.iter_mut().zip(halvings) {
            *total += term * h + p.launch_overhead_s;
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use arena_model::zoo::{ModelConfig, ModelFamily};

    fn bert() -> ModelGraph {
        ModelConfig::new(ModelFamily::Bert, 1.3, 256).build()
    }

    #[test]
    fn time_scales_with_microbatch() {
        let p = CostParams::default();
        let g = bert();
        let t1 = stage_compute_time(&p, &g, 0..g.len(), 1.0, 1, &GpuSpec::A100);
        let t8 = stage_compute_time(&p, &g, 0..g.len(), 8.0, 1, &GpuSpec::A100);
        assert!(t8 > 6.0 * t1 && t8 < 8.0 * t1, "t1={t1} t8={t8}");
    }

    #[test]
    fn tensor_parallelism_is_sublinear() {
        // TP over 8 shards must be faster than 1 shard but slower than the
        // ideal 8x, because of fragmentation and launch overhead.
        let p = CostParams::default();
        let g = bert();
        let t1 = stage_compute_time(&p, &g, 0..g.len(), 8.0, 1, &GpuSpec::A100);
        let t8 = stage_compute_time(&p, &g, 0..g.len(), 8.0, 8, &GpuSpec::A100);
        assert!(t8 < t1);
        assert!(t8 > t1 / 8.0);
    }

    #[test]
    fn faster_gpu_is_faster() {
        let p = CostParams::default();
        let g = bert();
        let a100 = stage_compute_time(&p, &g, 0..g.len(), 4.0, 1, &GpuSpec::A100);
        let v100 = stage_compute_time(&p, &g, 0..g.len(), 4.0, 1, &GpuSpec::V100);
        assert!(v100 > 2.0 * a100);
    }

    #[test]
    fn tiny_work_is_overhead_bound() {
        // With negligible per-op work, the launch overhead dominates and
        // stage time approaches ops x overhead.
        let p = CostParams::default();
        let g = bert();
        let t = stage_compute_time(&p, &g, 0..g.len(), 1e-9, 1, &GpuSpec::A100);
        let floor = g.len() as f64 * p.launch_overhead_s;
        assert!((t - floor) / floor < 0.01);
    }

    #[test]
    fn halved_walk_matches_separate_calls() {
        let p = CostParams::default();
        let g = bert();
        for (mb, tp) in [(8.0, 1), (3.0, 2), (256.0 / 12.0, 4)] {
            let batched = stage_compute_times::<5>(&p, &g, 2..g.len(), mb, tp, &GpuSpec::V100);
            for (k, t) in batched.iter().enumerate() {
                let single = stage_compute_time(
                    &p,
                    &g,
                    2..g.len(),
                    mb / (1 << k) as f64,
                    tp,
                    &GpuSpec::V100,
                );
                assert_eq!(t.to_bits(), single.to_bits(), "mb {mb} tp {tp} step {k}");
            }
        }
    }

    #[test]
    fn realistic_magnitude() {
        // A full BERT-1.3B fwd+bwd micro-batch of 4 samples on one A100
        // should take on the order of tens of milliseconds.
        let p = CostParams::default();
        let g = bert();
        let t = stage_compute_time(&p, &g, 0..g.len(), 4.0, 1, &GpuSpec::A100);
        assert!(t > 0.01 && t < 1.0, "t={t}");
    }
}
