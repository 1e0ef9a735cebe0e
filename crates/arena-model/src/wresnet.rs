//! WideResNet graphs (Table 2: 0.5B – 6.8B parameters).

use crate::graph::ModelGraph;
use crate::op::{OpKind, Operator};
use crate::zoo::ModelFamily;

/// Bottleneck-block structure of ResNet-50: blocks per stage.
const BLOCKS: [usize; 4] = [3, 4, 6, 3];
/// Internal (3×3) widths of each stage at width multiplier 1.
const BASE_WIDTH: [usize; 4] = [64, 128, 256, 512];
/// Output spatial extent (H = W) of each stage on a 224×224 input.
const SPATIAL: [usize; 4] = [56, 28, 14, 7];

/// Architecture of one WideResNet configuration: ResNet-50 structure with
/// all channel counts scaled by `width`.
#[derive(Debug, Clone, Copy)]
pub struct WResNetConfig {
    /// Channel width multiplier applied to every convolution.
    pub width: f64,
}

/// Parameter count of the WRN-50-`width` architecture.
#[must_use]
pub fn param_count(width: f64) -> u64 {
    build_ops(width).iter().map(|o| o.params).sum()
}

/// Finds the width multiplier whose realised parameter count hits
/// `target_params` (binary search; parameters grow monotonically in width).
#[must_use]
pub fn width_for_params(target_params: f64) -> f64 {
    let (mut lo, mut hi) = (1.0_f64, 64.0_f64);
    for _ in 0..48 {
        let mid = 0.5 * (lo + hi);
        if (param_count(mid) as f64) < target_params {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Returns the architecture used for a nominal Table-2 size.
///
/// # Panics
///
/// Panics on a size that is not listed in Table 2.
#[must_use]
pub fn config_for(params_b: f64) -> WResNetConfig {
    assert!(
        ModelFamily::WideResNet.has_table2_size(params_b),
        "WRes-{params_b}B is not a Table-2 configuration"
    );
    WResNetConfig {
        width: width_for_params(params_b * 1e9),
    }
}

/// Rounded channel count at a given width multiplier.
fn ch(base: usize, width: f64) -> u64 {
    ((base as f64 * width).round() as u64).max(1)
}

/// Builds the operator list for WRN-50-`width`.
fn build_ops(width: f64) -> Vec<Operator> {
    let mut ops = Vec::with_capacity(2 + BLOCKS.iter().sum::<usize>());

    // Stem: 7×7 stride-2 convolution to 112×112, then pooling to 56×56.
    let stem_out = ch(64, width);
    let stem_params = 3 * 49 * stem_out;
    ops.push(Operator {
        name: "stem".into(),
        kind: OpKind::Embedding,
        flops_fwd: 2.0 * stem_params as f64 * 112.0 * 112.0,
        params: stem_params,
        out_bytes: (stem_out * 56 * 56) as f64 * 2.0,
        tp_comm_bytes: 0.0,
        dispatch_bytes: 0.0,
        act_bytes: (stem_out * 112 * 112) as f64 * 2.0 * 2.0,
    });

    let mut cin = stem_out;
    for (stage, (&nblocks, (&bw, &sp))) in BLOCKS
        .iter()
        .zip(BASE_WIDTH.iter().zip(SPATIAL.iter()))
        .enumerate()
    {
        let w = ch(bw, width);
        let cout = 4 * w;
        for b in 0..nblocks {
            // Bottleneck: 1×1 cin→w, 3×3 w→w, 1×1 w→cout (+ projection on
            // the first block of a stage).
            let mut params = cin * w + 9 * w * w + w * cout;
            if b == 0 {
                params += cin * cout;
            }
            let hw = (sp * sp) as f64;
            ops.push(Operator {
                name: format!("s{stage}b{b}"),
                kind: OpKind::ConvBlock,
                flops_fwd: 2.0 * params as f64 * hw,
                params,
                out_bytes: cout as f64 * hw * 2.0,
                // Channel-sharded convolutions all-reduce the block output.
                tp_comm_bytes: cout as f64 * hw * 2.0,
                dispatch_bytes: 0.0,
                // Beyond the raw block tensors, convolution stacks retain
                // BN statistics, pre-activation copies and im2col buffers;
                // the 1.6x factor calibrates the live footprint so that
                // WRes-2B cannot fit on 2 x 40 GiB devices (Fig. 3).
                act_bytes: (cin + 2 * w + cout) as f64 * hw * 2.0 * 1.6,
            });
            cin = cout;
        }
    }

    // Classifier head on pooled features.
    let feat = cin;
    ops.push(Operator {
        name: "fc".into(),
        kind: OpKind::Head,
        flops_fwd: 2.0 * (feat * 1000) as f64,
        params: feat * 1000,
        out_bytes: 1000.0 * 4.0,
        tp_comm_bytes: 0.0,
        dispatch_bytes: 0.0,
        act_bytes: (feat + 1000) as f64 * 2.0,
    });

    ops
}

/// Builds the operator graph for a nominal Table-2 WideResNet size.
#[must_use]
pub fn build(params_b: f64) -> ModelGraph {
    let cfg = config_for(params_b);
    ModelGraph::new(
        format!("WRes-{params_b}B"),
        ModelFamily::WideResNet,
        build_ops(cfg.width),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realised_params_match_nominal() {
        for &size in &[0.5, 1.0, 2.0, 4.0, 6.8] {
            let g = build(size);
            let realised = g.params_billion();
            let err = (realised - size).abs() / size;
            assert!(
                err < 0.02,
                "WRes-{size}B realises {realised:.3}B params ({:.1}% off)",
                err * 100.0
            );
        }
    }

    #[test]
    fn width_search_is_monotone() {
        assert!(width_for_params(1e9) > width_for_params(0.5e9));
        assert!(width_for_params(6.8e9) > width_for_params(4e9));
    }

    #[test]
    fn block_structure() {
        let g = build(1.0);
        let blocks = g.ops.iter().filter(|o| o.kind == OpKind::ConvBlock).count();
        assert_eq!(blocks, BLOCKS.iter().sum::<usize>());
        assert_eq!(g.ops.len(), blocks + 2);
    }

    #[test]
    fn early_stages_have_larger_activations() {
        // Convolutional nets move most activation bytes early: the first
        // stage boundary must carry more traffic than the last.
        let g = build(2.0);
        let first = g.boundary_bytes(1);
        let last = g.boundary_bytes(g.len() - 3);
        assert!(first > last);
    }

    #[test]
    #[should_panic(expected = "not a Table-2 configuration")]
    fn unknown_size_panics() {
        let _ = config_for(3.0);
    }
}
