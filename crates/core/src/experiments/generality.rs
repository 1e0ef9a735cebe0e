//! Generality experiments: deadline awareness (Fig. 19), the
//! adaptivity/heterogeneity ablation (Fig. 20) and search-depth
//! sensitivity (Fig. 21).

use serde::Serialize;

use arena_cluster::presets;
use arena_sched::{ArenaPolicy, ArenaVariant, ElasticFlowPolicy, PlanService, Policy};
use arena_sim::{Run, SimConfig};
use arena_trace::{generate, TraceConfig, TraceKind};

use super::{fill_common_jct, run_policies, PolicySummary};
use crate::experiments::clustersim::ClusterExperiment;
use crate::report::{f3, hms, pct, Table};

fn pool_mems(cluster: &arena_cluster::Cluster) -> Vec<f64> {
    cluster
        .pool_stats()
        .iter()
        .map(|p| p.spec.gpu.mem_gib)
        .collect()
}

/// Fig. 19: deadline-aware Arena-DDL versus ElasticFlow's primary
/// deadline policy, on a fully deadline-carrying workload.
#[must_use]
pub fn fig19(quick: bool) -> ClusterExperiment {
    let cluster = if quick {
        presets::physical_testbed()
    } else {
        presets::table1_simulated()
    };
    let hours = if quick { 3.0 } else { 24.0 };
    let mut cfg = TraceConfig::new(
        TraceKind::HeliosModerate,
        hours * 3600.0,
        cluster.total_gpus(),
        pool_mems(&cluster),
    );
    cfg.deadline_fraction = 1.0;
    cfg.duration_scale = if quick { 1.0 } else { 20.0 };
    cfg.seed = 19;
    let jobs = generate(&cfg);

    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(ElasticFlowPolicy::deadline()),
        Box::new(ArenaPolicy::with_variant(ArenaVariant::Deadline)),
    ];
    let service = PlanService::new(&cluster, arena_perf::CostParams::default(), 19);
    let results = run_policies(
        &cluster,
        &jobs,
        policies,
        &service,
        &SimConfig::new(hours * 3600.0 * 4.0),
    );
    let mut summaries: Vec<PolicySummary> = results.iter().map(PolicySummary::from).collect();
    fill_common_jct(&results, &mut summaries);
    ClusterExperiment {
        name: "Fig 19: deadline-aware scheduling".into(),
        num_jobs: jobs.len(),
        summaries,
        timelines: Vec::new(),
    }
}

/// Renders Fig. 19 with the deadline-satisfaction column front and
/// centre.
#[must_use]
pub fn fig19_table(exp: &ClusterExperiment) -> Table {
    let mut t = Table::new(
        &exp.name,
        &[
            "policy",
            "ddl satisfied",
            "avg JCT",
            "avg thpt",
            "peak thpt",
            "dropped",
        ],
    );
    for s in &exp.summaries {
        t.row(vec![
            s.policy.clone(),
            pct(s.deadline_satisfaction),
            hms(s.avg_jct_s),
            f3(s.avg_throughput),
            f3(s.peak_throughput),
            s.dropped.to_string(),
        ]);
    }
    t
}

/// Fig. 20: ablation of adaptivity scaling (Arena-NA) and heterogeneity
/// scaling (Arena-NH) against full Arena.
#[must_use]
pub fn fig20(quick: bool) -> ClusterExperiment {
    let cluster = if quick {
        presets::physical_testbed()
    } else {
        presets::table1_simulated()
    };
    let hours = if quick { 3.0 } else { 48.0 };
    let mut cfg = TraceConfig::new(
        TraceKind::PhillyHeavy,
        hours * 3600.0,
        cluster.total_gpus(),
        pool_mems(&cluster),
    );
    cfg.duration_scale = if quick { 1.0 } else { 40.0 };
    cfg.load_scale = 1.25;
    cfg.seed = 20;
    let jobs = generate(&cfg);

    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(ArenaPolicy::new()),
        Box::new(ArenaPolicy::with_variant(ArenaVariant::NoAdaptivity)),
        Box::new(ArenaPolicy::with_variant(ArenaVariant::NoHeterogeneity)),
    ];
    let service = PlanService::new(&cluster, arena_perf::CostParams::default(), 20);
    let results = run_policies(
        &cluster,
        &jobs,
        policies,
        &service,
        &SimConfig::new(hours * 3600.0 * 4.0),
    );
    let mut summaries: Vec<PolicySummary> = results.iter().map(PolicySummary::from).collect();
    fill_common_jct(&results, &mut summaries);
    ClusterExperiment {
        name: "Fig 20: adaptivity / heterogeneity ablation".into(),
        num_jobs: jobs.len(),
        summaries,
        timelines: Vec::new(),
    }
}

/// Renders Fig. 20 with metrics normalised to full Arena.
#[must_use]
pub fn fig20_table(exp: &ClusterExperiment) -> Table {
    let full = &exp.summaries[0];
    let mut t = Table::new(
        &exp.name,
        &[
            "variant",
            "JCT vs Arena",
            "finished",
            "avg thpt vs Arena",
            "peak thpt vs Arena",
        ],
    );
    for s in &exp.summaries {
        t.row(vec![
            s.policy.clone(),
            format!("{:.2}x", s.avg_jct_s / full.avg_jct_s.max(1e-9)),
            s.finished.to_string(),
            pct(s.avg_throughput / full.avg_throughput.max(1e-9)),
            pct(s.peak_throughput / full.peak_throughput.max(1e-9)),
        ]);
    }
    t
}

/// One search-depth data point (Fig. 21).
#[derive(Debug, Clone, Serialize)]
pub struct Fig21Row {
    /// Search depth.
    pub depth: usize,
    /// Mean wall-clock per scheduling decision, seconds.
    pub avg_decision_s: f64,
    /// Mean JCT, seconds.
    pub avg_jct_s: f64,
    /// Time-averaged normalised throughput.
    pub avg_throughput: f64,
}

/// Fig. 21: scheduling overhead and efficiency across search depths under
/// an extremely heavy workload.
#[must_use]
pub fn fig21(quick: bool) -> Vec<Fig21Row> {
    let cluster = presets::physical_testbed();
    let hours = if quick { 2.0 } else { 6.0 };
    let mut cfg = TraceConfig::new(
        TraceKind::PhillyHeavy,
        hours * 3600.0,
        cluster.total_gpus(),
        pool_mems(&cluster),
    );
    cfg.load_scale = 1.5; // "Increase the density of job submissions."
    cfg.seed = 21;
    let jobs = generate(&cfg);
    let service = PlanService::new(&cluster, arena_perf::CostParams::default(), 21);

    // Warm the service caches with one throwaway run so per-decision
    // timings measure scheduling logic, not first-touch exploration.
    let sim_cfg = SimConfig::new(hours * 3600.0 * 6.0);
    {
        let mut policy = ArenaPolicy::new().with_search_depth(3);
        let _ = Run::new(&cluster, &mut policy, &service, &sim_cfg).batch(&jobs);
    }

    (1..=5)
        .map(|depth| {
            let mut policy = ArenaPolicy::new().with_search_depth(depth);
            let r = Run::new(&cluster, &mut policy, &service, &sim_cfg).batch(&jobs);
            Fig21Row {
                depth,
                avg_decision_s: r.metrics.avg_decision_s,
                avg_jct_s: r.metrics.avg_jct_s,
                avg_throughput: r.metrics.avg_throughput,
            }
        })
        .collect()
}

/// Renders Fig. 21.
#[must_use]
pub fn fig21_table(rows: &[Fig21Row]) -> Table {
    let mut t = Table::new(
        "Fig 21: search-depth sensitivity (heavy workload)",
        &["depth", "decision wall (ms)", "avg JCT", "avg thpt"],
    );
    for r in rows {
        t.row(vec![
            r.depth.to_string(),
            format!("{:.3}", r.avg_decision_s * 1e3),
            hms(r.avg_jct_s),
            f3(r.avg_throughput),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "multi-minute cluster simulation; run via the repro binary"]
    fn fig19_arena_ddl_dominates() {
        let exp = fig19(true);
        let ef = &exp.summaries[0];
        let arena = &exp.summaries[1];
        assert!(arena.deadline_satisfaction >= ef.deadline_satisfaction);
    }

    #[test]
    #[ignore = "multi-minute cluster simulation; run via the repro binary"]
    fn fig21_depth_increases_decision_time() {
        let rows = fig21(true);
        assert!(rows.last().unwrap().avg_decision_s >= rows[0].avg_decision_s * 0.5);
    }
}
