//! Single-device distributed profiling (§5.1, Fig. 10).
//!
//! For each stage of a Cell, the estimator compiles the stage's
//! computation as it would execute under the DP-only and TP-only plans
//! (distributed-equivalent compilation) and measures it on *one* GPU.
//! Communication operators are never executed — they are priced later
//! from the offline tables. Each per-parallelism profile charges roughly
//! `setup + iters × stage time` of a single GPU to the estimator's meter,
//! which is where the paper's "≈30 s per parallelism, ≈1 min per Cell"
//! budget comes from (§8.2).
//!
//! A profile is written straight into the struct-of-arrays columns the
//! assembly reads ([`SoaProfiles`]) and is not kept afterwards: the plan
//! service memoises the Cell choice built from it, so a job is profiled
//! once per GPU type (§6.1) without a profile cache.

use arena_model::ModelGraph;
use arena_perf::noise::NoiseModel;
use arena_perf::{compute, memory, CostParams, HwTarget, ProfilingMeter};

use crate::cell::{Cell, Favor};

/// One Cell's stage profiles as struct-of-arrays columns: every field
/// the assembly loop reads, each in one contiguous buffer indexed
/// `2 * stage + mode` (mode 0 = DP-only, 1 = TP-only).
///
/// [`profile_cell`] writes the profiles straight into these columns,
/// clearing (never shrinking) them first, so a buffer reused across
/// Cells stops allocating once it has grown to the largest stage count
/// seen, and the `2^Ns` assembly touches only dense arrays.
#[derive(Debug, Default)]
pub struct SoaProfiles {
    /// Measured per-micro-batch compute on one device, seconds.
    pub compute_s: Vec<f64>,
    /// The per-micro-batch kernel-launch floor (visible in the CUPTI
    /// timeline as inter-kernel gaps); does not shrink when gradient
    /// accumulation reduces the micro-batch.
    pub fixed_compute_s: Vec<f64>,
    /// Recorded per-GPU footprint at the profiled micro-batch, bytes.
    pub mem_bytes: Vec<f64>,
    /// Memory that does not shrink under gradient accumulation
    /// (parameters, optimizer state, input buffers), bytes.
    pub fixed_mem_bytes: Vec<f64>,
    /// Live-activation memory, proportional to the micro-batch, bytes.
    pub scalable_mem_bytes: Vec<f64>,
    /// Micro-batch size in samples.
    pub mb_samples: Vec<f64>,
    /// Whether the global batch can feed this mode's micro-batch slots.
    pub batch_ok: Vec<bool>,
    /// Tensor-parallel collective payload per micro-batch (fwd+bwd), bytes.
    pub tp_payload: Vec<f64>,
    /// Expert-dispatch payload per micro-batch (fwd+bwd), bytes.
    pub dispatch_payload: Vec<f64>,
    /// Gradient bytes per TP shard (the DP all-reduce payload).
    pub grad_bytes: Vec<f64>,
}

impl SoaProfiles {
    /// Number of flattened `(stage, mode)` slots (`2 × stages`).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.compute_s.len()
    }

    fn clear(&mut self) {
        self.compute_s.clear();
        self.fixed_compute_s.clear();
        self.mem_bytes.clear();
        self.fixed_mem_bytes.clear();
        self.scalable_mem_bytes.clear();
        self.mb_samples.clear();
        self.batch_ok.clear();
        self.tp_payload.clear();
        self.dispatch_payload.clear();
        self.grad_bytes.clear();
    }
}

/// Profiles one stage under one pure parallelism and appends its slot
/// to every column of `out`.
#[allow(clippy::too_many_arguments)] // One call site; mirrors the profiling request tuple.
fn profile_stage(
    p: &CostParams,
    noise: &NoiseModel,
    graph: &ModelGraph,
    global_batch: usize,
    cell: &Cell,
    stage: usize,
    mode: Favor,
    hw: &HwTarget,
    out: &mut SoaProfiles,
) {
    let range = cell.partition.ranges[stage].clone();
    let g = cell.partition.gpus[stage];
    let b = 4 * cell.num_stages;
    let (dp, tp) = match mode {
        Favor::Dp => (g, 1),
        Favor::Tp => (1, g),
    };
    let mb = global_batch as f64 / (b * dp) as f64;

    // Distributed-equivalent compilation measures the per-device program.
    let key = format!(
        "profile|{}|{}|{}|{}|{:?}|{}",
        graph.name,
        global_batch,
        cell.label(),
        stage,
        mode,
        hw.name()
    );
    out.compute_s.push(
        compute::stage_compute_time(p, graph, range.clone(), mb.max(1.0), tp, &hw.node.gpu)
            * noise.factor(&key),
    );
    out.fixed_compute_s
        .push(range.len() as f64 * p.launch_overhead_s);
    let (fixed_mem_bytes, scalable_mem_bytes) =
        memory::stage_memory_parts_dp(p, graph, range.clone(), mb.max(1.0), dp, tp, b);
    out.mem_bytes.push(fixed_mem_bytes + scalable_mem_bytes);
    out.fixed_mem_bytes.push(fixed_mem_bytes);
    out.scalable_mem_bytes.push(scalable_mem_bytes);
    out.mb_samples.push(mb);
    out.batch_ok.push(mb >= 1.0);

    let ops = &graph.ops[range];
    out.tp_payload.push(if tp > 1 {
        ops.iter().map(|o| o.tp_comm_bytes).sum::<f64>() * mb.max(1.0) * 2.0
    } else {
        0.0
    });
    out.dispatch_payload
        .push(ops.iter().map(|o| o.dispatch_bytes).sum::<f64>() * mb.max(1.0) * 2.0);
    out.grad_bytes.push(
        ops.iter()
            .map(arena_model::Operator::param_bytes)
            .sum::<f64>()
            / tp as f64,
    );
}

/// Profiles every stage of `cell` under DP-only and TP-only on one
/// device into `out` (replacing what it held), charging two
/// per-parallelism trials to `meter`.
#[allow(clippy::too_many_arguments)] // Mirrors the estimation request tuple plus its meter and output.
pub fn profile_cell(
    p: &CostParams,
    noise: &NoiseModel,
    meter: &ProfilingMeter,
    graph: &ModelGraph,
    global_batch: usize,
    cell: &Cell,
    hw: &HwTarget,
    out: &mut SoaProfiles,
) {
    out.clear();
    for s in 0..cell.num_stages {
        profile_stage(p, noise, graph, global_batch, cell, s, Favor::Dp, hw, out);
        profile_stage(p, noise, graph, global_batch, cell, s, Favor::Tp, hw, out);
    }
    // One trial per parallelism: compile once, run the measured iterations
    // of every stage back-to-back on the single profiling GPU.
    for mode in 0..2 {
        let measured: f64 = out.compute_s.iter().skip(mode).step_by(2).sum();
        meter.charge(
            p.agile_profile_setup_s + p.agile_profile_iters * measured,
            1,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arena_cluster::{GpuSpec, NodeSpec};
    use arena_model::zoo::{ModelConfig, ModelFamily};

    fn setup() -> (CostParams, NoiseModel, ModelGraph, HwTarget) {
        (
            CostParams::default(),
            NoiseModel::new(0.03, 5),
            ModelConfig::new(ModelFamily::Bert, 1.3, 256).build(),
            HwTarget::new(NodeSpec::with_default_links(GpuSpec::A100, 4)),
        )
    }

    fn profiled(
        (p, n, g, hw): &(CostParams, NoiseModel, ModelGraph, HwTarget),
        meter: &ProfilingMeter,
        batch: usize,
        cell: &Cell,
    ) -> SoaProfiles {
        let mut out = SoaProfiles::default();
        profile_cell(p, n, meter, g, batch, cell, hw, &mut out);
        out
    }

    #[test]
    fn profiles_cover_both_modes_per_stage() {
        let setup = setup();
        let cell = Cell::new(&setup.2, 8, 4).unwrap();
        let prof = profiled(&setup, &ProfilingMeter::new(), 256, &cell);
        assert_eq!(prof.slots(), 8);
        for s in 0..4 {
            let (dp, tp) = (2 * s, 2 * s + 1);
            assert!(prof.compute_s[dp] > 0.0 && prof.compute_s[tp] > 0.0);
            // Only TP-only shards activations, so only it pays a TP
            // collective per micro-batch.
            assert!(prof.tp_payload[dp] == 0.0);
            assert!(prof.tp_payload[tp] > 0.0);
            // TP shards parameters, so its DP-sync payload is smaller.
            assert!(prof.grad_bytes[tp] < prof.grad_bytes[dp]);
        }
    }

    #[test]
    fn profiling_charges_two_single_gpu_trials() {
        let setup = setup();
        let p = &setup.0;
        let cell = Cell::new(&setup.2, 8, 2).unwrap();
        let meter = ProfilingMeter::new();
        let _ = profiled(&setup, &meter, 256, &cell);
        assert_eq!(meter.trials(), 2);
        // Two setups plus measured iterations, all on one GPU.
        assert!(meter.gpu_seconds() >= 2.0 * p.agile_profile_setup_s);
        assert!(meter.gpu_seconds() < 2.0 * p.agile_profile_setup_s + 60.0);
        assert_eq!(meter.gpu_seconds(), meter.wall_seconds());
    }

    #[test]
    fn starved_dp_mode_is_flagged() {
        let setup = setup();
        // 64 GPUs, 1 stage: DP-only needs 4x64 = 256 microbatch slots with
        // batch 128 -> starved; TP-only stays fine.
        let cell = Cell::new(&setup.2, 64, 1).unwrap();
        let prof = profiled(&setup, &ProfilingMeter::new(), 128, &cell);
        assert_eq!(prof.batch_ok, [false, true]);
    }

    #[test]
    fn profile_is_deterministic_and_replaces_a_used_buffer() {
        let setup = setup();
        let (p, n, g, hw) = &setup;
        let cell = Cell::new(g, 4, 2).unwrap();
        let fresh = profiled(&setup, &ProfilingMeter::new(), 256, &cell);
        // A buffer that last held a deeper Cell's columns.
        let mut reused = profiled(
            &setup,
            &ProfilingMeter::new(),
            256,
            &Cell::new(g, 8, 4).unwrap(),
        );
        profile_cell(p, n, &ProfilingMeter::new(), g, 256, &cell, hw, &mut reused);
        assert_eq!(reused.slots(), 4);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (a, b) in [
            (&fresh.compute_s, &reused.compute_s),
            (&fresh.fixed_compute_s, &reused.fixed_compute_s),
            (&fresh.mem_bytes, &reused.mem_bytes),
            (&fresh.fixed_mem_bytes, &reused.fixed_mem_bytes),
            (&fresh.scalable_mem_bytes, &reused.scalable_mem_bytes),
            (&fresh.mb_samples, &reused.mb_samples),
            (&fresh.tp_payload, &reused.tp_payload),
            (&fresh.dispatch_payload, &reused.dispatch_payload),
            (&fresh.grad_bytes, &reused.grad_bytes),
        ] {
            assert_eq!(bits(a), bits(b));
        }
        assert_eq!(fresh.batch_ok, reused.batch_ok);
    }
}
