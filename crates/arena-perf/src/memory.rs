//! Per-GPU memory model.

use std::ops::Range;

use arena_model::ModelGraph;
use arena_parallelism::StagePlan;

use crate::params::CostParams;
use crate::pipeline::OpSums;

/// Per-GPU memory (bytes) of one pipeline stage.
///
/// * Static state — FP16 weights, FP16 gradients and FP32 Adam state
///   (16 bytes per parameter, i.e. 8× the FP16 weight bytes) — is sharded
///   by tensor parallelism only: every data-parallel replica keeps a full
///   copy. This is why data parallelism is the memory-hungry choice and
///   why ElasticFlow's DP-only profiles overestimate large jobs' minimum
///   GPU share (§8.3).
/// * Activations: each in-flight micro-batch buffers its stage input
///   (GPipe retains one input per micro-batch for recomputation), and the
///   live micro-batch holds the full intermediate footprint.
///
/// `mb_samples` is the stage's micro-batch size in samples (already
/// divided by the data-parallel degree); `microbatches` is the pipeline's
/// in-flight micro-batch count `B`.
#[must_use]
pub fn stage_memory_bytes(
    p: &CostParams,
    graph: &ModelGraph,
    range: Range<usize>,
    mb_samples: f64,
    tp: usize,
    microbatches: usize,
) -> f64 {
    let (fixed, scalable) = stage_memory_parts_dp(p, graph, range, mb_samples, 1, tp, microbatches);
    fixed + scalable
}

/// The stage memory split into a *fixed* part (parameter/optimizer state
/// plus input buffers, which do not shrink under gradient accumulation)
/// and a *scalable* part (live activations, proportional to the
/// micro-batch size).
///
/// Input buffering is fixed because `B × mb` is the per-replica batch: as
/// accumulation raises `B`, each buffered input shrinks proportionally.
#[must_use]
pub fn stage_memory_parts(
    p: &CostParams,
    graph: &ModelGraph,
    range: Range<usize>,
    mb_samples: f64,
    tp: usize,
    microbatches: usize,
) -> (f64, f64) {
    stage_memory_parts_dp(p, graph, range, mb_samples, 1, tp, microbatches)
}

/// [`stage_memory_parts`] with an explicit data-parallel degree, which
/// only matters under ZeRO-1 ([`CostParams::zero1`]): the optimizer state
/// (FP32 master weights and Adam moments, 12 of the 16 bytes/param) is
/// then sharded across the `dp` replicas rather than replicated.
#[must_use]
pub fn stage_memory_parts_dp(
    p: &CostParams,
    graph: &ModelGraph,
    range: Range<usize>,
    mb_samples: f64,
    dp: usize,
    tp: usize,
    microbatches: usize,
) -> (f64, f64) {
    let sums = OpSums::new(&graph.ops[range.clone()]);
    let plan = StagePlan { dp, tp };
    stage_memory_parts_from(p, graph, range.start, &sums, mb_samples, plan, microbatches)
}

/// [`stage_memory_parts_dp`] of the stage whose operators start at
/// `start` and sum to `sums`, split `plan`.
pub(crate) fn stage_memory_parts_from(
    p: &CostParams,
    graph: &ModelGraph,
    start: usize,
    sums: &OpSums,
    mb_samples: f64,
    plan: StagePlan,
    microbatches: usize,
) -> (f64, f64) {
    let tpf = plan.tp as f64;
    let param_bytes = sums.param_bytes;
    // Of the 8x FP16-weight-bytes of training state, weights + FP16 grads
    // are 2x and the optimizer state is the remaining 6x.
    let static_bytes = if p.zero1 {
        let weights_grads = 2.0 * param_bytes / tpf;
        let optimizer = (p.state_bytes_per_param_byte - 2.0) * param_bytes / (tpf * plan.dp as f64);
        weights_grads + optimizer
    } else {
        p.state_bytes_per_param_byte * param_bytes / tpf
    };

    let live_acts = sums.act_bytes * mb_samples;
    let input_bytes = if start == 0 {
        // Raw input data is negligible next to hidden activations.
        0.0
    } else {
        graph.ops[start - 1].out_bytes * mb_samples
    };
    let buffered = microbatches as f64 * input_bytes;

    (static_bytes + buffered / tpf, live_acts / tpf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arena_model::zoo::{ModelConfig, ModelFamily};

    fn bert26() -> ModelGraph {
        ModelConfig::new(ModelFamily::Bert, 2.6, 256).build()
    }

    #[test]
    fn tensor_parallelism_shards_memory() {
        let p = CostParams::default();
        let g = bert26();
        let m1 = stage_memory_bytes(&p, &g, 0..g.len(), 8.0, 1, 4);
        let m4 = stage_memory_bytes(&p, &g, 0..g.len(), 8.0, 4, 4);
        assert!((m1 / m4 - 4.0).abs() < 0.2, "ratio {}", m1 / m4);
    }

    #[test]
    fn static_state_dominates_for_big_models_small_batches() {
        let p = CostParams::default();
        let g = bert26();
        let m = stage_memory_bytes(&p, &g, 0..g.len(), 1.0, 1, 4);
        let static_expected = p.state_bytes_per_param_byte * g.total_param_bytes();
        assert!(m > static_expected);
        assert!(m < 1.2 * static_expected);
    }

    #[test]
    fn bert26_needs_tp_on_v100_class_memory() {
        // The paper's Fig. 3(b) observation: BERT-2.6B cannot run data-
        // parallel-only within 32 GiB but fits with TP=2.
        let p = CostParams::default();
        let g = bert26();
        let budget = 32.0 * (1 << 30) as f64 * p.usable_mem_frac;
        let dp_only = stage_memory_bytes(&p, &g, 0..g.len(), 8.0, 1, 4);
        let tp2 = stage_memory_bytes(&p, &g, 0..g.len(), 8.0, 2, 4);
        assert!(dp_only > budget, "DP-only unexpectedly fits");
        assert!(tp2 < budget, "TP=2 unexpectedly does not fit");
    }

    #[test]
    fn later_stage_pays_input_buffering() {
        let p = CostParams::default();
        let g = bert26();
        let cut = g.len() / 2;
        let no_buffer = stage_memory_bytes(&p, &g, cut..g.len(), 4.0, 1, 0);
        let buffered = stage_memory_bytes(&p, &g, cut..g.len(), 4.0, 1, 16);
        assert!(buffered > no_buffer);
    }

    #[test]
    fn zero1_shards_optimizer_state_across_replicas() {
        let mut p = CostParams::default();
        let g = bert26();
        let (replicated, _) = stage_memory_parts_dp(&p, &g, 0..g.len(), 8.0, 8, 1, 4);
        p.zero1 = true;
        let (fixed8, _) = stage_memory_parts_dp(&p, &g, 0..g.len(), 8.0, 8, 1, 4);
        let (fixed1, _) = stage_memory_parts_dp(&p, &g, 0..g.len(), 8.0, 1, 1, 4);
        // dp=1 ZeRO degenerates to replication; dp=8 shards 6/8 of the
        // training state (weights+grads stay, optimizer shards).
        assert!((fixed1 - replicated).abs() / replicated < 1e-9);
        let expected = replicated * (2.0 + 6.0 / 8.0) / 8.0;
        assert!(
            (fixed8 - expected).abs() / expected < 1e-9,
            "fixed8 {fixed8} vs expected {expected}"
        );
        // BERT-2.6B pure-DP becomes feasible on 32 GiB with ZeRO-1 at dp=8.
        let budget = 32.0 * (1 << 30) as f64 * p.usable_mem_frac;
        assert!(fixed8 < budget && replicated > budget);
    }

    #[test]
    fn activations_scale_with_microbatch() {
        let p = CostParams::default();
        let g = ModelConfig::new(ModelFamily::WideResNet, 1.0, 512).build();
        let m1 = stage_memory_bytes(&p, &g, 0..g.len(), 1.0, 1, 4);
        let m64 = stage_memory_bytes(&p, &g, 0..g.len(), 256.0, 1, 4);
        // WideResNet is activation-heavy: 256x the micro-batch should blow
        // memory up by far more than 2x.
        assert!(m64 > 2.0 * m1);
    }
}
