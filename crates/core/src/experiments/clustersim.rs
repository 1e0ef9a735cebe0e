//! Cluster-level experiments: Figs. 14–18 and the §8.3 fidelity check.

use serde::Serialize;

use arena_cluster::{presets, Cluster};
use arena_estimator::{Cell, CellEstimator};
use arena_model::zoo::{ModelConfig, ModelFamily};
use arena_perf::{CostParams, GroundTruth};
use arena_runtime::WorkerPool;
use arena_sim::SimConfig;
use arena_trace::{generate, JobSpec, TraceConfig, TraceKind};

use super::{run_policies_parallel, summary_table, PolicySummary};
use crate::report::{f3, pct, Table};

/// A cluster-comparison experiment's full output.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterExperiment {
    /// Experiment label.
    pub name: String,
    /// Jobs in the trace.
    pub num_jobs: usize,
    /// Per-policy aggregate results.
    pub summaries: Vec<PolicySummary>,
    /// Per-policy normalised-throughput timelines, downsampled hourly:
    /// `(policy, Vec<(hour, throughput)>)`.
    pub timelines: Vec<(String, Vec<(f64, f64)>)>,
}

impl ClusterExperiment {
    /// Renders the summary comparison table.
    #[must_use]
    pub fn table(&self) -> Table {
        summary_table(&self.name, &self.summaries)
    }

    /// The Arena summary.
    ///
    /// # Panics
    ///
    /// Panics if Arena was not part of the comparison.
    #[must_use]
    pub fn arena(&self) -> &PolicySummary {
        self.summaries
            .iter()
            .find(|s| s.policy.starts_with("Arena"))
            .expect("Arena ran")
    }

    /// The best baseline (non-Arena) value of a metric.
    #[must_use]
    pub fn best_baseline<F: Fn(&PolicySummary) -> f64>(&self, f: F, minimise: bool) -> f64 {
        let it = self
            .summaries
            .iter()
            .filter(|s| !s.policy.starts_with("Arena"))
            .map(f);
        if minimise {
            it.fold(f64::INFINITY, f64::min)
        } else {
            it.fold(0.0, f64::max)
        }
    }
}

fn pool_mems(cluster: &Cluster) -> Vec<f64> {
    cluster
        .pool_stats()
        .iter()
        .map(|p| p.spec.gpu.mem_gib)
        .collect()
}

fn downsample_hourly(timeline: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let mut hour = 0_usize;
    let mut acc = 0.0;
    let mut n = 0;
    for &(t, v) in timeline {
        let h = (t / 3600.0) as usize;
        if h != hour && n > 0 {
            out.push((hour as f64, acc / f64::from(n)));
            acc = 0.0;
            n = 0;
            hour = h;
        }
        acc += v;
        n += 1;
    }
    if n > 0 {
        out.push((hour as f64, acc / f64::from(n)));
    }
    out
}

fn run_comparison(
    name: &str,
    cluster: &Cluster,
    jobs: &[JobSpec],
    policies: Vec<Box<dyn arena_sched::Policy>>,
    horizon_s: f64,
    seed: u64,
) -> ClusterExperiment {
    // One policy per worker; each gets a freshly seeded service (same
    // ground truth, fair comparison) so nothing is shared across threads.
    let results = run_policies_parallel(
        cluster,
        jobs,
        policies,
        &CostParams::default(),
        seed,
        &SimConfig::new(horizon_s),
        &WorkerPool::per_core(),
    );
    let mut summaries: Vec<PolicySummary> = results.iter().map(PolicySummary::from).collect();
    super::fill_common_jct(&results, &mut summaries);
    ClusterExperiment {
        name: name.to_string(),
        num_jobs: jobs.len(),
        summaries,
        timelines: results
            .iter()
            .map(|r| (r.policy.clone(), downsample_hourly(&r.timeline)))
            .collect(),
    }
}

/// Fig. 14: the five-policy comparison on the 64-GPU physical testbed
/// with a 6-hour Philly trace (§8.3).
#[must_use]
pub fn fig14(quick: bool) -> ClusterExperiment {
    let cluster = presets::physical_testbed();
    let hours = if quick { 2.0 } else { 6.0 };
    let cfg = TraceConfig::new(
        TraceKind::PhillyHeavy,
        hours * 3600.0,
        cluster.total_gpus(),
        pool_mems(&cluster),
    );
    let jobs = generate(&cfg);
    run_comparison(
        "Fig 14: physical-testbed comparison (Philly, 64 GPUs)",
        &cluster,
        &jobs,
        super::comparison_policies(),
        hours * 3600.0 * 6.0,
        14,
    )
}

/// §8.3 simulation fidelity: how closely scheduling-time estimates track
/// the measured ground truth over the testbed's configuration grid.
#[derive(Debug, Clone, Serialize)]
pub struct Fidelity {
    /// Mean relative error of estimated throughput.
    pub avg_throughput_err: f64,
    /// Mean relative error of estimated iteration time (JCT proxy).
    pub avg_iter_time_err: f64,
    /// Configurations compared.
    pub configs: usize,
}

/// Measures estimate-vs-measured fidelity across the testbed grid.
#[must_use]
pub fn fidelity() -> Fidelity {
    let cluster = presets::physical_testbed();
    let params = CostParams::default();
    let gt = GroundTruth::new(params.clone(), 31);
    let est = CellEstimator::new(params, 31);
    let mut errs_thpt = Vec::new();
    let mut errs_iter = Vec::new();
    let models = [
        ModelConfig::new(ModelFamily::WideResNet, 1.0, 512),
        ModelConfig::new(ModelFamily::Bert, 1.3, 256),
        ModelConfig::new(ModelFamily::Bert, 2.6, 256),
        ModelConfig::new(ModelFamily::Moe, 1.3, 512),
        ModelConfig::new(ModelFamily::Moe, 2.4, 512),
    ];
    for pool in cluster.pool_ids() {
        let hw = arena_perf::HwTarget::new(cluster.spec(pool));
        for model in &models {
            let graph = model.build();
            for gpus in [4_usize, 8] {
                for cell in Cell::generate(&graph, gpus) {
                    let Some(e) = est.estimate(&graph, model.global_batch, &cell, &hw) else {
                        continue;
                    };
                    let Ok(m) = gt.measure(&graph, model.global_batch, &e.plan, &hw) else {
                        continue;
                    };
                    errs_thpt.push((e.throughput_sps - m.throughput_sps).abs() / m.throughput_sps);
                    errs_iter.push((e.iter_time_s - m.iter_time_s).abs() / m.iter_time_s);
                }
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    Fidelity {
        avg_throughput_err: mean(&errs_thpt),
        avg_iter_time_err: mean(&errs_iter),
        configs: errs_thpt.len(),
    }
}

/// Renders the fidelity result.
#[must_use]
pub fn fidelity_table(f: &Fidelity) -> Table {
    let mut t = Table::new("§8.3: estimate-vs-measured fidelity", &["metric", "value"]);
    t.row(vec!["configurations".into(), f.configs.to_string()]);
    t.row(vec![
        "avg throughput error".into(),
        pct(f.avg_throughput_err),
    ]);
    t.row(vec![
        "avg iteration-time error".into(),
        pct(f.avg_iter_time_err),
    ]);
    t
}

/// The large-scale trace used by Figs. 15–17 (and 20): 1,280-GPU cluster,
/// heavy Philly workload, multi-hour pre-training jobs.
#[must_use]
pub fn large_scale_trace(days: f64, seed: u64) -> (Cluster, Vec<JobSpec>) {
    let cluster = presets::table1_simulated();
    let mut cfg = TraceConfig::new(
        TraceKind::PhillyHeavy,
        days * 86_400.0,
        cluster.total_gpus(),
        pool_mems(&cluster),
    );
    cfg.duration_scale = 50.0;
    cfg.seed = seed;
    let jobs = generate(&cfg);
    (cluster, jobs)
}

/// Fig. 15: the distribution of model sizes in the large-scale workload.
#[derive(Debug, Clone, Serialize)]
pub struct Fig15Row {
    /// Model size bucket, billions of parameters.
    pub params_b: f64,
    /// Jobs in the bucket.
    pub count: usize,
    /// Fraction of the workload.
    pub fraction: f64,
}

/// Computes the Fig. 15 histogram.
#[must_use]
pub fn fig15() -> Vec<Fig15Row> {
    let (_, jobs) = large_scale_trace(7.0, 15);
    let mut buckets: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    for j in &jobs {
        *buckets
            .entry((j.model.params_b * 100.0) as u64)
            .or_insert(0) += 1;
    }
    buckets
        .into_iter()
        .map(|(k, count)| Fig15Row {
            params_b: k as f64 / 100.0,
            count,
            fraction: count as f64 / jobs.len() as f64,
        })
        .collect()
}

/// Renders Fig. 15.
#[must_use]
pub fn fig15_table(rows: &[Fig15Row]) -> Table {
    let mut t = Table::new(
        "Fig 15: model-size distribution in the large-scale workload",
        &["size (B params)", "jobs", "fraction"],
    );
    for r in rows {
        t.row(vec![
            format!("{}", r.params_b),
            r.count.to_string(),
            pct(r.fraction),
        ]);
    }
    t
}

/// Figs. 16–17: the five-policy comparison on the 1,280-GPU simulated
/// cluster over a heavy Philly week (one day in `quick` mode).
#[must_use]
pub fn fig16_17(quick: bool) -> ClusterExperiment {
    let days = if quick { 0.5 } else { 7.0 };
    let (cluster, jobs) = large_scale_trace(days, 16);
    run_comparison(
        "Fig 16/17: large-scale simulation (Philly, 1280 GPUs)",
        &cluster,
        &jobs,
        super::comparison_policies(),
        days * 86_400.0 + 3.0 * 86_400.0,
        16,
    )
}

/// Fig. 18: Helios Venus (moderate) and PAI (low) one-day traces on the
/// simulated cluster.
#[must_use]
pub fn fig18(quick: bool) -> Vec<ClusterExperiment> {
    let cluster = presets::table1_simulated();
    let days = if quick { 0.25 } else { 1.0 };
    [
        (TraceKind::HeliosModerate, "Fig 18: Helios Venus (moderate)"),
        (TraceKind::PaiLow, "Fig 18: PAI (low)"),
    ]
    .into_iter()
    .map(|(kind, name)| {
        let mut cfg = TraceConfig::new(
            kind,
            days * 86_400.0,
            cluster.total_gpus(),
            pool_mems(&cluster),
        );
        cfg.duration_scale = 30.0;
        cfg.seed = 18;
        let jobs = generate(&cfg);
        run_comparison(
            name,
            &cluster,
            &jobs,
            super::comparison_policies(),
            days * 86_400.0 + 2.0 * 86_400.0,
            18,
        )
    })
    .collect()
}

/// Renders a Fig. 16 throughput timeline (hourly means) as a table.
#[must_use]
pub fn timeline_table(exp: &ClusterExperiment) -> Table {
    let mut headers: Vec<&str> = vec!["hour"];
    let names: Vec<String> = exp.timelines.iter().map(|(n, _)| n.clone()).collect();
    for n in &names {
        headers.push(n);
    }
    let mut t = Table::new(
        &format!("{} — hourly throughput timeline", exp.name),
        &headers,
    );
    let hours: Vec<f64> = exp
        .timelines
        .first()
        .map(|(_, tl)| tl.iter().map(|&(h, _)| h).collect())
        .unwrap_or_default();
    for (i, h) in hours.iter().enumerate() {
        let mut row = vec![format!("{h}")];
        for (_, tl) in &exp.timelines {
            row.push(tl.get(i).map_or("-".into(), |&(_, v)| f3(v)));
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_is_high() {
        let f = fidelity();
        assert!(f.configs > 20);
        // Paper: 3.16% throughput error, 7.31% JCT error. Same regime.
        assert!(
            f.avg_throughput_err < 0.12,
            "thpt err {}",
            f.avg_throughput_err
        );
        assert!(
            f.avg_iter_time_err < 0.12,
            "iter err {}",
            f.avg_iter_time_err
        );
    }

    #[test]
    fn fig15_small_models_dominate() {
        let rows = fig15();
        assert!(rows.len() >= 8, "only {} size buckets", rows.len());
        let small: f64 = rows
            .iter()
            .filter(|r| r.params_b <= 1.3)
            .map(|r| r.fraction)
            .sum();
        let large: f64 = rows
            .iter()
            .filter(|r| r.params_b >= 6.7)
            .map(|r| r.fraction)
            .sum();
        assert!(small > large, "small {small} <= large {large}");
        let total: f64 = rows.iter().map(|r| r.fraction).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    #[ignore = "multi-minute cluster simulation; run via the repro binary"]
    fn fig14_arena_wins() {
        let exp = fig14(true);
        let arena = exp.arena();
        let best_jct = exp.best_baseline(|s| s.avg_jct_s, true);
        assert!(arena.avg_jct_s < best_jct * 1.05);
    }
}
