//! Ablations of the reproduction's own design choices (beyond the
//! paper's Fig. 20): estimator noise robustness, opportunistic execution,
//! queue discipline, and checkpoint-bandwidth sensitivity.

use serde::Serialize;

use arena_cluster::presets;
use arena_estimator::{Cell, CellEstimator};
use arena_perf::{CostParams, GroundTruth};
use arena_sched::{ArenaPolicy, ArenaSolverPolicy, PlanService, Policy, QueueOrder};
use arena_sim::{Run, SimConfig};
use arena_trace::{generate, TraceConfig, TraceKind};

use crate::experiments::microbench::{a100_target, fig12_configs};
use crate::report::{f3, hms, pct, Table};

/// Estimation accuracy under one noise setting.
#[derive(Debug, Clone, Serialize)]
pub struct NoiseRow {
    /// Measurement-noise sigma.
    pub sigma: f64,
    /// Mean estimation accuracy over the Fig. 12 configurations.
    pub avg_accuracy: f64,
    /// Worst-case accuracy.
    pub worst_accuracy: f64,
}

/// Sweeps measurement noise and reports estimation accuracy: the
/// estimator's error should be driven by noise and grid sampling, not by
/// a modelling gap (at `sigma = 0` accuracy approaches 100%).
#[must_use]
pub fn noise_sensitivity() -> Vec<NoiseRow> {
    let hw = a100_target();
    [0.0, 0.01, 0.03, 0.06, 0.10]
        .into_iter()
        .map(|sigma| {
            let mut accs = Vec::new();
            for (i, (model, gpus)) in fig12_configs().into_iter().enumerate() {
                let params = CostParams {
                    noise_sigma: sigma,
                    table_sigma: sigma * 2.0 / 3.0,
                    ..CostParams::default()
                };
                let gt = GroundTruth::new(params.clone(), 800 + i as u64);
                let est = CellEstimator::new(params, 800 + i as u64);
                let graph = model.build();
                let Some((_, e)) = Cell::generate(&graph, gpus)
                    .into_iter()
                    .filter_map(|c| {
                        est.estimate(&graph, model.global_batch, &c, &hw)
                            .map(|e| (c, e))
                    })
                    .max_by(|a, b| a.1.throughput_sps.partial_cmp(&b.1.throughput_sps).unwrap())
                else {
                    continue;
                };
                let Ok(m) = gt.measure(&graph, model.global_batch, &e.plan, &hw) else {
                    continue;
                };
                accs.push(1.0 - (e.iter_time_s - m.iter_time_s).abs() / m.iter_time_s);
            }
            NoiseRow {
                sigma,
                avg_accuracy: accs.iter().sum::<f64>() / accs.len().max(1) as f64,
                worst_accuracy: accs.iter().copied().fold(f64::INFINITY, f64::min),
            }
        })
        .collect()
}

/// Renders the noise sweep.
#[must_use]
pub fn noise_table(rows: &[NoiseRow]) -> Table {
    let mut t = Table::new(
        "Ablation: estimation accuracy vs measurement noise",
        &["sigma", "avg accuracy", "worst accuracy"],
    );
    for r in rows {
        t.row(vec![
            format!("{:.2}", r.sigma),
            pct(r.avg_accuracy),
            pct(r.worst_accuracy),
        ]);
    }
    t
}

/// One Arena-mechanism variant's outcome on the testbed trace.
#[derive(Debug, Clone, Serialize)]
pub struct MechanismRow {
    /// Variant label.
    pub variant: String,
    /// Mean JCT, seconds.
    pub avg_jct_s: f64,
    /// Mean queueing time, seconds.
    pub avg_queue_s: f64,
    /// Time-averaged normalised throughput.
    pub avg_throughput: f64,
    /// Finished jobs.
    pub finished: usize,
}

/// Ablates Arena's scheduling mechanisms on the Fig. 14 testbed trace:
/// opportunistic execution off, and the shortest-work-first queue
/// discipline as an alternative objective.
#[must_use]
pub fn mechanism_ablation() -> Vec<MechanismRow> {
    let cluster = presets::physical_testbed();
    let cfg = TraceConfig::new(
        TraceKind::PhillyHeavy,
        6.0 * 3600.0,
        cluster.total_gpus(),
        vec![48.0, 24.0],
    );
    let jobs = generate(&cfg);
    let service = PlanService::new(&cluster, CostParams::default(), 14);
    let sim_cfg = SimConfig::new(36.0 * 3600.0);

    let variants: Vec<(String, ArenaPolicy)> = vec![
        ("Arena".into(), ArenaPolicy::new()),
        (
            "Arena (no opportunistic)".into(),
            ArenaPolicy::new().without_opportunistic(),
        ),
        (
            "Arena (shortest-first)".into(),
            ArenaPolicy::new().with_queue_order(QueueOrder::ShortestFirst),
        ),
    ];
    variants
        .into_iter()
        .map(|(label, mut policy)| {
            let r = Run::new(&cluster, &mut policy, &service, &sim_cfg).batch(&jobs);
            MechanismRow {
                variant: label,
                avg_jct_s: r.metrics.avg_jct_s,
                avg_queue_s: r.metrics.avg_queue_s,
                avg_throughput: r.metrics.avg_throughput,
                finished: r.metrics.finished,
            }
        })
        .collect()
}

/// Renders the mechanism ablation.
#[must_use]
pub fn mechanism_table(rows: &[MechanismRow]) -> Table {
    let mut t = Table::new(
        "Ablation: Arena scheduling mechanisms (testbed trace)",
        &["variant", "avg JCT", "avg queue", "avg thpt", "finished"],
    );
    for r in rows {
        t.row(vec![
            r.variant.clone(),
            hms(r.avg_jct_s),
            hms(r.avg_queue_s),
            f3(r.avg_throughput),
            r.finished.to_string(),
        ]);
    }
    t
}

/// One checkpoint-bandwidth setting's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct CheckpointRow {
    /// Shared-storage bandwidth, GB/s.
    pub bw_gbps: f64,
    /// Arena's mean JCT, seconds.
    pub arena_jct_s: f64,
    /// Arena's mean restarts per job.
    pub arena_restarts: f64,
    /// ElasticFlow-LS's mean JCT, seconds.
    pub ef_jct_s: f64,
    /// ElasticFlow-LS's mean restarts per job.
    pub ef_restarts: f64,
}

/// Sweeps checkpoint bandwidth: slower storage makes every restart more
/// expensive, so restart-happy policies degrade faster than Arena.
#[must_use]
pub fn checkpoint_sensitivity() -> Vec<CheckpointRow> {
    let cluster = presets::physical_testbed();
    let cfg = TraceConfig::new(
        TraceKind::PhillyHeavy,
        4.0 * 3600.0,
        cluster.total_gpus(),
        vec![48.0, 24.0],
    );
    let jobs = generate(&cfg);
    let service = PlanService::new(&cluster, CostParams::default(), 15);

    [8.0, 2.0, 0.5]
        .into_iter()
        .map(|bw_gbps| {
            let mut sim_cfg = SimConfig::new(36.0 * 3600.0);
            sim_cfg.checkpoint_bw_bps = bw_gbps * 1e9;
            let mut arena = ArenaPolicy::new();
            let ra = Run::new(&cluster, &mut arena, &service, &sim_cfg).batch(&jobs);
            let mut ef = arena_sched::ElasticFlowPolicy::loosened();
            let re = Run::new(&cluster, &mut ef, &service, &sim_cfg).batch(&jobs);
            CheckpointRow {
                bw_gbps,
                arena_jct_s: ra.metrics.avg_jct_s,
                arena_restarts: ra.metrics.avg_restarts,
                ef_jct_s: re.metrics.avg_jct_s,
                ef_restarts: re.metrics.avg_restarts,
            }
        })
        .collect()
}

/// Renders the checkpoint-bandwidth sweep.
#[must_use]
pub fn checkpoint_table(rows: &[CheckpointRow]) -> Table {
    let mut t = Table::new(
        "Ablation: checkpoint-bandwidth sensitivity",
        &[
            "ckpt BW (GB/s)",
            "Arena JCT",
            "Arena restarts",
            "EF-LS JCT",
            "EF-LS restarts",
        ],
    );
    for r in rows {
        t.row(vec![
            format!("{:.1}", r.bw_gbps),
            hms(r.arena_jct_s),
            f3(r.arena_restarts),
            hms(r.ef_jct_s),
            f3(r.ef_restarts),
        ]);
    }
    t
}

/// One row of the ZeRO-1 ablation.
#[derive(Debug, Clone, Serialize)]
pub struct ZeroRow {
    /// Whether ZeRO-1 optimizer sharding is on.
    pub zero1: bool,
    /// Policy label.
    pub policy: String,
    /// Mean JCT, seconds.
    pub avg_jct_s: f64,
    /// Time-averaged normalised throughput.
    pub avg_throughput: f64,
    /// Finished jobs.
    pub finished: usize,
}

/// Turns on ZeRO-1 optimizer-state sharding (an extension the paper's
/// systems lack) and re-runs the testbed comparison for Arena and
/// ElasticFlow-LS: sharded optimizer state narrows the DP-memory gap that
/// the paper's ElasticFlow critique (§8.3) rests on, so EF closes part of
/// the distance while Arena keeps its scheduling-quality edge.
#[must_use]
pub fn zero1_ablation() -> Vec<ZeroRow> {
    let cluster = presets::physical_testbed();
    let cfg = TraceConfig::new(
        TraceKind::PhillyHeavy,
        4.0 * 3600.0,
        cluster.total_gpus(),
        vec![48.0, 24.0],
    );
    let jobs = generate(&cfg);
    let mut out = Vec::new();
    for zero1 in [false, true] {
        let params = CostParams {
            zero1,
            ..CostParams::default()
        };
        let service = PlanService::new(&cluster, params, 17);
        let sim_cfg = SimConfig::new(36.0 * 3600.0);
        let mut policies: Vec<Box<dyn Policy>> = vec![
            Box::new(arena_sched::ElasticFlowPolicy::loosened()),
            Box::new(ArenaPolicy::new()),
        ];
        for policy in &mut policies {
            let r = Run::new(&cluster, policy.as_mut(), &service, &sim_cfg).batch(&jobs);
            out.push(ZeroRow {
                zero1,
                policy: r.policy.clone(),
                avg_jct_s: r.metrics.avg_jct_s,
                avg_throughput: r.metrics.avg_throughput,
                finished: r.metrics.finished,
            });
        }
    }
    out
}

/// Renders the ZeRO-1 ablation.
#[must_use]
pub fn zero1_table(rows: &[ZeroRow]) -> Table {
    let mut t = Table::new(
        "Ablation: ZeRO-1 optimizer sharding",
        &["ZeRO-1", "policy", "avg JCT", "avg thpt", "finished"],
    );
    for r in rows {
        t.row(vec![
            if r.zero1 { "on" } else { "off" }.into(),
            r.policy.clone(),
            hms(r.avg_jct_s),
            f3(r.avg_throughput),
            r.finished.to_string(),
        ]);
    }
    t
}

/// One row of the solver-extension comparison.
#[derive(Debug, Clone, Serialize)]
pub struct SolverRow {
    /// Policy label.
    pub policy: String,
    /// Mean JCT, seconds.
    pub avg_jct_s: f64,
    /// Mean queueing time, seconds.
    pub avg_queue_s: f64,
    /// Time-averaged normalised throughput.
    pub avg_throughput: f64,
    /// Mean restarts per job.
    pub avg_restarts: f64,
    /// Mean wall-clock per scheduling decision, milliseconds.
    pub decision_ms: f64,
}

/// Compares greedy Arena (Algorithm 1) with the solver-enhanced variant
/// the paper sketches in §6, across beam widths.
#[must_use]
pub fn solver_extension() -> Vec<SolverRow> {
    let cluster = presets::physical_testbed();
    let cfg = TraceConfig::new(
        TraceKind::PhillyHeavy,
        6.0 * 3600.0,
        cluster.total_gpus(),
        vec![48.0, 24.0],
    );
    let jobs = generate(&cfg);
    let service = PlanService::new(&cluster, CostParams::default(), 16);
    let sim_cfg = SimConfig::new(36.0 * 3600.0);

    let mut policies: Vec<(String, Box<dyn Policy>)> = vec![
        ("Arena (greedy)".into(), Box::new(ArenaPolicy::new())),
        (
            "Arena-Solver (beam 8)".into(),
            Box::new(ArenaSolverPolicy::new().with_beam_width(8)),
        ),
        (
            "Arena-Solver (beam 64)".into(),
            Box::new(ArenaSolverPolicy::new().with_beam_width(64)),
        ),
    ];
    policies
        .iter_mut()
        .map(|(label, policy)| {
            let r = Run::new(&cluster, policy.as_mut(), &service, &sim_cfg).batch(&jobs);
            SolverRow {
                policy: label.clone(),
                avg_jct_s: r.metrics.avg_jct_s,
                avg_queue_s: r.metrics.avg_queue_s,
                avg_throughput: r.metrics.avg_throughput,
                avg_restarts: r.metrics.avg_restarts,
                decision_ms: r.metrics.avg_decision_s * 1e3,
            }
        })
        .collect()
}

/// Renders the solver comparison.
#[must_use]
pub fn solver_table(rows: &[SolverRow]) -> Table {
    let mut t = Table::new(
        "Extension: solver-enhanced scheduling (testbed trace)",
        &[
            "policy",
            "avg JCT",
            "avg queue",
            "avg thpt",
            "restarts",
            "decision (ms)",
        ],
    );
    for r in rows {
        t.row(vec![
            r.policy.clone(),
            hms(r.avg_jct_s),
            hms(r.avg_queue_s),
            f3(r.avg_throughput),
            f3(r.avg_restarts),
            format!("{:.3}", r.decision_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_estimation_is_nearly_exact() {
        let rows = noise_sensitivity();
        let zero = &rows[0];
        assert_eq!(zero.sigma, 0.0);
        assert!(
            zero.avg_accuracy > 0.97,
            "noise-free accuracy only {}",
            zero.avg_accuracy
        );
        // Accuracy must degrade (weakly) as noise grows.
        let last = rows.last().unwrap();
        assert!(last.avg_accuracy < zero.avg_accuracy + 1e-9);
    }

    #[test]
    #[ignore = "multi-minute cluster simulation; run via the repro binary"]
    fn opportunistic_execution_helps() {
        let rows = mechanism_ablation();
        assert!(rows[0].avg_queue_s <= rows[1].avg_queue_s * 1.05);
    }
}
