//! Quickstart: estimate, tune and schedule one training job with Arena.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full Arena pipeline on a single BERT-1.3B fine-tuning job:
//! build the model graph, generate its Cells, estimate them agilely,
//! tune the winning Cell, and compare against exhaustive exploration.

use arena::estimator::{Cell, SoaProfiles};
use arena::prelude::*;
use arena::tuner::{tune_full, tune_pruned};

fn main() {
    // A heterogeneous cluster: the paper's 64-GPU physical testbed
    // (16 nodes x 2 A40, 16 nodes x 2 A10).
    let cluster = arena::cluster::presets::physical_testbed();
    println!(
        "cluster: {} GPUs in {} pools",
        cluster.total_gpus(),
        cluster.num_pools()
    );

    // The job: BERT-1.3B, global batch 256, on 8 A40 GPUs.
    let model = ModelConfig::new(ModelFamily::Bert, 1.3, 256);
    let graph = model.build();
    println!(
        "model: {} ({:.2}B params, {} operators)",
        graph.name,
        graph.params_billion(),
        graph.len()
    );

    let params = CostParams::default();
    let gt = GroundTruth::new(params.clone(), 42);
    let estimator = CellEstimator::new(params, 42);
    let hw = HwTarget::new(cluster.spec(GpuTypeId(0)));

    // 1. Generate the job's Cells: one per power-of-two stage count.
    let cells = Cell::generate(&graph, 8);
    println!("\ncells for 8 GPUs:");

    // 2. Estimate each Cell agilely: profile it (two single-GPU trials),
    //    then assemble its plan grid from the profile.
    let mut best: Option<(Cell, arena::estimator::CellEstimate)> = None;
    let mut profile = SoaProfiles::default();
    let mut profile_gpu_s = 0.0;
    for cell in cells {
        estimator.profile(&graph, model.global_batch, &cell, &hw, &mut profile);
        for trial in profile.trial_walls_s(estimator.params()) {
            profile_gpu_s += trial;
        }
        match estimator.assemble(&profile, &graph, model.global_batch, &cell, &hw) {
            Some(e) => {
                println!(
                    "  {}: est {:.1} samples/s via {} (favors {:?})",
                    cell.label(),
                    e.throughput_sps,
                    e.plan.short_label(),
                    e.favors
                );
                if best
                    .as_ref()
                    .is_none_or(|(_, b)| e.throughput_sps > b.throughput_sps)
                {
                    best = Some((cell, e));
                }
            }
            None => println!("  {}: infeasible", cell.label()),
        }
    }
    let (cell, estimate) = best.expect("some cell is feasible");
    println!("estimation cost: {profile_gpu_s:.0} GPU-seconds on one device");

    // 3. Tune the winning Cell with the pruned (Cell-guided) search.
    let tuned = tune_pruned(&gt, &graph, model.global_batch, &cell, &estimate, &hw)
        .expect("pruned search finds a plan");
    println!(
        "\nCell-guided tuning: {} -> {:.1} samples/s ({} trials, {:.0} GPU-s)",
        tuned.plan.short_label(),
        tuned.perf.throughput_sps,
        tuned.trials,
        tuned.gpu_seconds
    );

    // 4. Compare against exhaustive exploration of the same Cell.
    let full =
        tune_full(&gt, &graph, model.global_batch, &cell, &hw).expect("full search finds a plan");
    println!(
        "full exploration:   {} -> {:.1} samples/s ({} trials, {:.0} GPU-s)",
        full.plan.short_label(),
        full.perf.throughput_sps,
        full.trials,
        full.gpu_seconds
    );
    println!(
        "tuning accuracy {:.1}% at {:.1}x less tuning GPU-time",
        100.0 * tuned.perf.throughput_sps / full.perf.throughput_sps,
        full.gpu_seconds / tuned.gpu_seconds
    );
}
