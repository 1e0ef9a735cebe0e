//! Fault-injection ablation: how gracefully each policy degrades as node
//! failures become more frequent.
//!
//! The sweep runs the testbed trace under increasingly hostile MTBF
//! settings (from the zero-fault baseline down to a failure every two
//! hours per node) and reports goodput — samples that contributed to
//! final progress — against raw throughput, the fraction of work re-done
//! after checkpoint rollbacks, and recovery latency.

use serde::Serialize;

use arena_cluster::presets;
use arena_perf::CostParams;
use arena_sched::{ArenaPolicy, FcfsPolicy, PlanService, Policy};
use arena_sim::{Run, SimConfig};
use arena_trace::{generate, generate_faults, FaultConfig, TraceConfig, TraceKind};

use crate::report::{f3, hms, pct, Table};

/// One `(MTBF, policy)` cell of the fault sweep.
#[derive(Debug, Clone, Serialize)]
pub struct FaultRow {
    /// Human-readable MTBF setting.
    pub mtbf_label: String,
    /// Per-node mean time between failures, seconds (`None` = no faults).
    pub mtbf_s: Option<f64>,
    /// Policy display name.
    pub policy: String,
    /// Useful samples per second (work lost to failures excluded).
    pub goodput_sps: f64,
    /// Raw processed samples per second, including re-done work.
    pub throughput_sps: f64,
    /// Fraction of processed samples re-done after rollbacks.
    pub work_lost_frac: f64,
    /// Failure-caused job evictions.
    pub failure_evictions: usize,
    /// Mean failure-to-running-again latency, seconds.
    pub mean_recovery_s: f64,
    /// Mean JCT over finished jobs, seconds.
    pub avg_jct_s: f64,
    /// Jobs finished before the horizon.
    pub finished: usize,
}

/// The MTBF settings of the sweep, harshest last.
#[must_use]
pub fn mtbf_sweep() -> Vec<(String, Option<f64>)> {
    vec![
        ("no faults".into(), None),
        ("24 h".into(), Some(24.0 * 3600.0)),
        ("8 h".into(), Some(8.0 * 3600.0)),
        ("2 h".into(), Some(2.0 * 3600.0)),
    ]
}

/// Runs the fault sweep on the physical-testbed trace for Arena and the
/// FCFS baseline.
#[must_use]
pub fn fault_ablation(quick: bool) -> Vec<FaultRow> {
    let cluster = presets::physical_testbed();
    let hours = if quick { 2.0 } else { 4.0 };
    let trace_cfg = TraceConfig::new(
        TraceKind::PhillyHeavy,
        hours * 3600.0,
        cluster.total_gpus(),
        vec![48.0, 24.0],
    );
    let jobs = generate(&trace_cfg);
    let service = PlanService::new(&cluster, CostParams::default(), 14);
    let sim_cfg = SimConfig::new(36.0 * 3600.0);
    let pool_nodes: Vec<usize> = cluster.pool_ids().map(|p| cluster.num_nodes(p)).collect();

    let mut rows = Vec::new();
    for (label, mtbf_s) in mtbf_sweep() {
        let faults = match mtbf_s {
            None => Vec::new(),
            Some(m) => generate_faults(&FaultConfig::with_mtbf(m), &pool_nodes, sim_cfg.horizon_s),
        };
        let mut policies: Vec<Box<dyn Policy>> =
            vec![Box::new(FcfsPolicy::new()), Box::new(ArenaPolicy::new())];
        for policy in &mut policies {
            let r = Run::new(&cluster, policy.as_mut(), &service, &sim_cfg)
                .faults(&faults)
                .batch(&jobs);
            rows.push(FaultRow {
                mtbf_label: label.clone(),
                mtbf_s,
                policy: r.policy.clone(),
                goodput_sps: r.metrics.goodput_sps,
                throughput_sps: r.metrics.avg_raw_throughput_sps,
                work_lost_frac: r.metrics.work_lost_frac,
                failure_evictions: r.metrics.failure_evictions,
                mean_recovery_s: r.metrics.mean_recovery_s,
                avg_jct_s: r.metrics.avg_jct_s,
                finished: r.metrics.finished,
            });
        }
    }
    rows
}

/// Renders the fault sweep.
#[must_use]
pub fn fault_table(rows: &[FaultRow]) -> Table {
    let mut t = Table::new(
        "Ablation: fault injection (MTBF sweep, testbed trace)",
        &[
            "MTBF",
            "policy",
            "goodput (sps)",
            "thpt (sps)",
            "work lost",
            "evictions",
            "mean recovery",
            "avg JCT",
            "finished",
        ],
    );
    for r in rows {
        t.row(vec![
            r.mtbf_label.clone(),
            r.policy.clone(),
            f3(r.goodput_sps),
            f3(r.throughput_sps),
            pct(r.work_lost_frac),
            r.failure_evictions.to_string(),
            hms(r.mean_recovery_s),
            hms(r.avg_jct_s),
            r.finished.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_at_least_three_fault_settings() {
        let sweep = mtbf_sweep();
        assert!(sweep.iter().filter(|(_, m)| m.is_some()).count() >= 3);
        // Harshest last: MTBFs strictly decrease.
        let mtbfs: Vec<f64> = sweep.iter().filter_map(|(_, m)| *m).collect();
        assert!(mtbfs.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    #[ignore = "multi-minute cluster simulation; run via the repro binary"]
    fn arena_goodput_degrades_gracefully() {
        let rows = fault_ablation(true);
        let arena: Vec<&FaultRow> = rows.iter().filter(|r| r.policy == "Arena").collect();
        assert_eq!(arena.len(), mtbf_sweep().len());
        assert_eq!(arena[0].work_lost_frac, 0.0, "zero-fault row lost work");
        // Goodput decreases (weakly) as failures grow more frequent.
        assert!(
            arena
                .windows(2)
                .all(|w| w[1].goodput_sps <= w[0].goodput_sps * 1.001),
            "goodput not monotone: {arena:#?}"
        );
    }
}
