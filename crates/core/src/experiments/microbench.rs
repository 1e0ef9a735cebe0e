//! Micro-benchmarks of the Cell machinery: Figs. 12 and 13 and the §8.2
//! profiling-time budget.

use serde::Serialize;

use arena_cluster::{GpuSpec, NodeSpec};
use arena_estimator::{Cell, CellEstimator, SoaProfiles};
use arena_model::zoo::{ModelConfig, ModelFamily};
use arena_perf::{CostParams, GroundTruth, HwTarget};
use arena_tuner::{tune_full, tune_pruned};

use crate::report::{f1, f3, pct, Table};

/// The nine configurations of Figs. 12/13: model size grows with the GPU
/// count, as in the paper.
#[must_use]
pub fn fig12_configs() -> Vec<(ModelConfig, usize)> {
    vec![
        (ModelConfig::new(ModelFamily::WideResNet, 1.0, 512), 4),
        (ModelConfig::new(ModelFamily::WideResNet, 2.0, 512), 8),
        (ModelConfig::new(ModelFamily::WideResNet, 4.0, 1024), 16),
        (ModelConfig::new(ModelFamily::Bert, 1.3, 256), 4),
        (ModelConfig::new(ModelFamily::Bert, 2.6, 256), 8),
        (ModelConfig::new(ModelFamily::Bert, 6.7, 512), 16),
        (ModelConfig::new(ModelFamily::Moe, 1.3, 512), 4),
        (ModelConfig::new(ModelFamily::Moe, 2.4, 512), 8),
        (ModelConfig::new(ModelFamily::Moe, 10.0, 1024), 16),
    ]
}

/// The A100 hardware target used by the micro-benchmarks.
#[must_use]
pub fn a100_target() -> HwTarget {
    HwTarget::new(NodeSpec::with_default_links(GpuSpec::A100, 4))
}

/// One configuration's estimation quality and cost (Fig. 12).
#[derive(Debug, Clone, Serialize)]
pub struct Fig12Row {
    /// Configuration label, e.g. `"BERT-2.6B@8"`.
    pub config: String,
    /// Estimated iteration time of the Cell's best assembled plan.
    pub estimated_s: f64,
    /// Directly measured iteration time of the same plan.
    pub measured_s: f64,
    /// Paper's estimation accuracy: `1 − (Tₑ − T_d)/T_d`.
    pub accuracy: f64,
    /// GPU-seconds paid by the agile estimator.
    pub agile_gpu_s: f64,
    /// GPU-seconds a direct profiling of the plan would pay.
    pub direct_gpu_s: f64,
    /// GPU-time reduction (`direct / agile`).
    pub reduction: f64,
}

/// Fig. 12: estimation accuracy and GPU-time reduction of the agile Cell
/// estimator versus directly profiling the job.
#[must_use]
pub fn fig12() -> Vec<Fig12Row> {
    let hw = a100_target();
    fig12_configs()
        .into_iter()
        .enumerate()
        .map(|(i, (model, gpus))| {
            let params = CostParams::default();
            let gt = GroundTruth::new(params.clone(), 500 + i as u64);
            let est = CellEstimator::new(params, 500 + i as u64);
            let graph = model.build();

            // Best Cell by estimate: the figure compares the cost of
            // acquiring ONE Cell's performance data agilely vs directly.
            let (cell, e) = Cell::generate(&graph, gpus)
                .into_iter()
                .filter_map(|c| {
                    est.estimate(&graph, model.global_batch, &c, &hw)
                        .map(|e| (c, e))
                })
                .max_by(|a, b| a.1.throughput_sps.partial_cmp(&b.1.throughput_sps).unwrap())
                .expect("some cell is feasible");
            // The winning Cell's profile: two trials on one GPU.
            let mut profile = SoaProfiles::default();
            est.profile(&graph, model.global_batch, &cell, &hw, &mut profile);
            let agile_gpu_s: f64 = profile.trial_walls_s(est.params()).iter().sum();

            // One direct trial of the same plan on its full allocation.
            let measured = gt
                .measure(&graph, model.global_batch, &e.plan, &hw)
                .expect("estimated plan is feasible");
            let direct_gpu_s =
                gt.trial_wall_s(Some(measured.iter_time_s)) * e.plan.total_gpus() as f64;

            let accuracy = 1.0 - (e.iter_time_s - measured.iter_time_s) / measured.iter_time_s;
            Fig12Row {
                config: format!("{}@{}", model.name(), gpus),
                estimated_s: e.iter_time_s,
                measured_s: measured.iter_time_s,
                accuracy,
                agile_gpu_s,
                direct_gpu_s,
                reduction: direct_gpu_s / agile_gpu_s,
            }
        })
        .collect()
}

/// Renders Fig. 12.
#[must_use]
pub fn fig12_table(rows: &[Fig12Row]) -> Table {
    let mut t = Table::new(
        "Fig 12: agile Cell estimation accuracy and GPU-time reduction",
        &[
            "config",
            "est (s)",
            "measured (s)",
            "accuracy",
            "agile GPU-s",
            "direct GPU-s",
            "reduction",
        ],
    );
    for r in rows {
        t.row(vec![
            r.config.clone(),
            f3(r.estimated_s),
            f3(r.measured_s),
            pct(r.accuracy),
            f1(r.agile_gpu_s),
            f1(r.direct_gpu_s),
            format!("{:.2}x", r.reduction),
        ]);
    }
    let avg_acc = rows.iter().map(|r| r.accuracy).sum::<f64>() / rows.len() as f64;
    let avg_red = rows.iter().map(|r| r.reduction).sum::<f64>() / rows.len() as f64;
    t.row(vec![
        "average".into(),
        "-".into(),
        "-".into(),
        pct(avg_acc),
        "-".into(),
        "-".into(),
        format!("{avg_red:.2}x"),
    ]);
    t
}

/// One configuration's tuning quality and cost (Fig. 13).
#[derive(Debug, Clone, Serialize)]
pub struct Fig13Row {
    /// Configuration label.
    pub config: String,
    /// Iteration time found by the unpruned full search.
    pub full_s: f64,
    /// Iteration time found by Cell-guided pruned search.
    pub pruned_s: f64,
    /// Paper's tuning accuracy: `1 − (T_c − T_o)/T_o`.
    pub accuracy: f64,
    /// GPU-seconds of the full search.
    pub full_gpu_s: f64,
    /// GPU-seconds of the pruned search.
    pub pruned_gpu_s: f64,
    /// Tuning-time reduction (`full / pruned`).
    pub reduction: f64,
    /// Plans profiled by each search.
    pub full_trials: u64,
    /// Plans profiled by the pruned search.
    pub pruned_trials: u64,
}

/// Fig. 13: Cell-guided tuning accuracy and tuning-time reduction versus
/// unpruned full-space search.
#[must_use]
pub fn fig13() -> Vec<Fig13Row> {
    let hw = a100_target();
    fig12_configs()
        .into_iter()
        .enumerate()
        .map(|(i, (model, gpus))| {
            let params = CostParams::default();
            let gt = GroundTruth::new(params.clone(), 700 + i as u64);
            let est = CellEstimator::new(params, 700 + i as u64);
            let graph = model.build();
            let (cell, e) = Cell::generate(&graph, gpus)
                .into_iter()
                .filter_map(|c| {
                    est.estimate(&graph, model.global_batch, &c, &hw)
                        .map(|e| (c, e))
                })
                .max_by(|a, b| a.1.throughput_sps.partial_cmp(&b.1.throughput_sps).unwrap())
                .expect("some cell is feasible");

            let full = tune_full(&gt, &graph, model.global_batch, &cell, &hw)
                .expect("full search finds a plan");
            let pruned = tune_pruned(&gt, &graph, model.global_batch, &cell, &e, &hw)
                .expect("pruned search finds a plan");

            let accuracy =
                1.0 - (pruned.perf.iter_time_s - full.perf.iter_time_s) / full.perf.iter_time_s;
            Fig13Row {
                config: format!("{}@{}", model.name(), gpus),
                full_s: full.perf.iter_time_s,
                pruned_s: pruned.perf.iter_time_s,
                accuracy,
                full_gpu_s: full.gpu_seconds,
                pruned_gpu_s: pruned.gpu_seconds,
                reduction: full.gpu_seconds / pruned.gpu_seconds,
                full_trials: full.trials,
                pruned_trials: pruned.trials,
            }
        })
        .collect()
}

/// Renders Fig. 13.
#[must_use]
pub fn fig13_table(rows: &[Fig13Row]) -> Table {
    let mut t = Table::new(
        "Fig 13: Cell-guided tuning accuracy and time reduction",
        &[
            "config",
            "full (s)",
            "pruned (s)",
            "accuracy",
            "trials full/pruned",
            "reduction",
        ],
    );
    for r in rows {
        t.row(vec![
            r.config.clone(),
            f3(r.full_s),
            f3(r.pruned_s),
            pct(r.accuracy),
            format!("{}/{}", r.full_trials, r.pruned_trials),
            format!("{:.2}x", r.reduction),
        ]);
    }
    let avg_acc = rows.iter().map(|r| r.accuracy).sum::<f64>() / rows.len() as f64;
    let avg_red = rows.iter().map(|r| r.reduction).sum::<f64>() / rows.len() as f64;
    t.row(vec![
        "average".into(),
        "-".into(),
        "-".into(),
        pct(avg_acc),
        "-".into(),
        format!("{avg_red:.2}x"),
    ]);
    t
}

/// §8.2: the profiling-time budget of one job.
#[derive(Debug, Clone, Serialize)]
pub struct ProfilingBudget {
    /// Mean wall-clock of one per-parallelism stage profile, seconds.
    pub per_parallelism_s: f64,
    /// Mean wall-clock per Cell (two parallelisms), seconds.
    pub per_cell_s: f64,
    /// Worst-case per-job profiling wall-clock, seconds.
    pub per_job_worst_s: f64,
}

/// Measures the per-parallelism / per-Cell / per-job profiling budget
/// (§8.2: ≈30 s / ≈1 min / ≤30 min).
#[must_use]
pub fn profiling_budget() -> ProfilingBudget {
    let hw = a100_target();
    let params = CostParams::default();
    let mut profile = SoaProfiles::default();
    let mut cells = 0_u64;
    let mut total = 0.0;
    for (model, gpus) in fig12_configs() {
        let est = CellEstimator::new(params.clone(), 900);
        let graph = model.build();
        // Every Cell is profiled, feasible or not; the trials run one
        // after another.
        let mut wall = 0.0;
        for cell in Cell::generate(&graph, gpus) {
            est.profile(&graph, model.global_batch, &cell, &hw, &mut profile);
            for trial in profile.trial_walls_s(&params) {
                wall += trial;
            }
            cells += 1;
        }
        total += wall;
    }
    let per_cell_s = total / cells as f64;
    ProfilingBudget {
        per_parallelism_s: per_cell_s / 2.0,
        per_cell_s,
        // A job profiles 3 GPU-count variants x log2(64) stage counts at
        // worst, per-GPU-type profiling running in parallel.
        per_job_worst_s: per_cell_s * 3.0 * 6.0,
    }
}

/// Renders the profiling budget.
#[must_use]
pub fn budget_table(b: &ProfilingBudget) -> Table {
    let mut t = Table::new("§8.2: profiling-time budget", &["quantity", "seconds"]);
    t.row(vec!["per parallelism".into(), f1(b.per_parallelism_s)]);
    t.row(vec!["per Cell".into(), f1(b.per_cell_s)]);
    t.row(vec!["per job (worst case)".into(), f1(b.per_job_worst_s)]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_accuracy_in_paper_band() {
        let rows = fig12();
        assert_eq!(rows.len(), 9);
        let avg = rows.iter().map(|r| r.accuracy).sum::<f64>() / 9.0;
        let worst = rows
            .iter()
            .map(|r| r.accuracy)
            .fold(f64::INFINITY, f64::min);
        assert!(avg > 0.85, "avg accuracy {avg}");
        assert!(worst > 0.70, "worst accuracy {worst}");
        // Paper: 93.4% average, 90.5% worst; we require the same regime.
        assert!(avg < 1.1, "accuracy suspiciously above 1: {avg}");
    }

    #[test]
    fn fig12_reduction_is_substantial() {
        let rows = fig12();
        let avg = rows.iter().map(|r| r.reduction).sum::<f64>() / 9.0;
        let min = rows
            .iter()
            .map(|r| r.reduction)
            .fold(f64::INFINITY, f64::min);
        assert!(avg > 4.0, "avg reduction {avg}");
        assert!(min > 1.5, "min reduction {min}");
    }

    #[test]
    fn fig13_tuning_accuracy_and_reduction() {
        let rows = fig13();
        let avg_acc = rows.iter().map(|r| r.accuracy).sum::<f64>() / 9.0;
        let avg_red = rows.iter().map(|r| r.reduction).sum::<f64>() / 9.0;
        assert!(avg_acc > 0.9, "avg tuning accuracy {avg_acc}");
        assert!(avg_red > 1.5, "avg tuning reduction {avg_red}");
        for r in &rows {
            assert!(r.pruned_trials <= r.full_trials, "{}", r.config);
        }
    }

    #[test]
    fn budget_matches_section_8_2() {
        let b = profiling_budget();
        assert!(b.per_parallelism_s > 10.0 && b.per_parallelism_s < 120.0);
        assert!(b.per_cell_s > 20.0 && b.per_cell_s < 240.0);
        assert!(b.per_job_worst_s < 1900.0, "per-job {}", b.per_job_worst_s);
    }
}
