//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each experiment is a pure function returning a serialisable result
//! struct with a `table()` (or `tables()`) renderer; the `arena-bench`
//! crate's `repro` binary drives them from the command line and records
//! outputs for `EXPERIMENTS.md`.
//!
//! | Function | Paper artefact |
//! |---|---|
//! | [`tables::table1`] | Table 1 (simulated cluster) |
//! | [`tables::table2`] | Table 2 (model zoo) |
//! | [`motivation::fig1`] | Fig. 1 (scaling/exchanging cases) |
//! | [`motivation::fig3`] | Fig. 3 (scheduling opportunities) |
//! | [`motivation::fig4`] | Fig. 4 (optimal-plan variation) |
//! | [`microbench::fig12`] | Fig. 12 (estimation accuracy/overhead) |
//! | [`microbench::fig13`] | Fig. 13 (tuning accuracy/overhead) |
//! | [`microbench::profiling_budget`] | §8.2 profiling-time budget |
//! | [`clustersim::fig14`] | Fig. 14 (physical-testbed comparison) |
//! | [`clustersim::fidelity`] | §8.3 simulation fidelity |
//! | [`clustersim::fig15`] | Fig. 15 (model-size distribution) |
//! | [`clustersim::fig16_17`] | Figs. 16–17 (large-scale Philly) |
//! | [`clustersim::fig18`] | Fig. 18 (Helios / PAI traces) |
//! | [`generality::fig19`] | Fig. 19 (deadline-aware Arena-DDL) |
//! | [`generality::fig20`] | Fig. 20 (adaptivity/heterogeneity ablation) |
//! | [`generality::fig21`] | Fig. 21 (search-depth sensitivity) |
//! | [`ablations`] | reproduction-level ablations (noise, mechanisms, checkpoints) |
//! | [`faults`] | fault-injection MTBF sweep (reproduction extension) |
//! | [`observability`] | traced conformance workload (decision provenance) |

pub mod ablations;
pub mod clustersim;
pub mod faults;
pub mod generality;
pub mod microbench;
pub mod motivation;
pub mod observability;
pub mod tables;

use serde::Serialize;

use arena_perf::CostParams;
use arena_runtime::WorkerPool;
use arena_sched::{PlanService, Policy};
use arena_sim::{Run, SimConfig, SimResult};
use arena_trace::JobSpec;

use crate::report::{f3, hms, Table};

/// One policy's aggregate results in a cluster experiment.
#[derive(Debug, Clone, Serialize)]
pub struct PolicySummary {
    /// Policy display name.
    pub policy: String,
    /// Mean JCT, seconds.
    pub avg_jct_s: f64,
    /// Median JCT, seconds.
    pub median_jct_s: f64,
    /// Max JCT, seconds.
    pub max_jct_s: f64,
    /// Mean queueing time, seconds.
    pub avg_queue_s: f64,
    /// Finished / dropped / unfinished job counts.
    pub finished: usize,
    /// Jobs rejected by the policy.
    pub dropped: usize,
    /// Jobs alive at the horizon.
    pub unfinished: usize,
    /// Time-averaged normalised cluster throughput.
    pub avg_throughput: f64,
    /// Peak normalised cluster throughput.
    pub peak_throughput: f64,
    /// Mean restarts per started job.
    pub avg_restarts: f64,
    /// Deadline satisfaction ratio.
    pub deadline_satisfaction: f64,
    /// Mean wall-clock per scheduling decision, seconds.
    pub avg_decision_s: f64,
    /// Mean JCT over the jobs finished by *every* compared policy —
    /// immune to survivorship bias from policies that drop hard jobs.
    pub avg_jct_common_s: f64,
}

impl From<&SimResult> for PolicySummary {
    fn from(r: &SimResult) -> Self {
        let m = &r.metrics;
        PolicySummary {
            policy: r.policy.clone(),
            avg_jct_s: m.avg_jct_s,
            median_jct_s: m.median_jct_s,
            max_jct_s: m.max_jct_s,
            avg_queue_s: m.avg_queue_s,
            finished: m.finished,
            dropped: m.dropped,
            unfinished: m.unfinished,
            avg_throughput: m.avg_throughput,
            peak_throughput: m.peak_throughput,
            avg_restarts: m.avg_restarts,
            deadline_satisfaction: m.deadline_satisfaction,
            avg_decision_s: m.avg_decision_s,
            avg_jct_common_s: 0.0,
        }
    }
}

/// Computes each policy's mean JCT over the set of jobs that finished in
/// every run, writing it into the summaries.
pub fn fill_common_jct(results: &[SimResult], summaries: &mut [PolicySummary]) {
    let mut common: Option<std::collections::HashSet<u64>> = None;
    for r in results {
        let finished: std::collections::HashSet<u64> = r
            .records
            .iter()
            .filter(|rec| rec.finish_s.is_some())
            .map(|rec| rec.id)
            .collect();
        common = Some(match common {
            None => finished,
            Some(c) => c.intersection(&finished).copied().collect(),
        });
    }
    let common = common.unwrap_or_default();
    for (r, s) in results.iter().zip(summaries.iter_mut()) {
        let jcts: Vec<f64> = r
            .records
            .iter()
            .filter(|rec| common.contains(&rec.id))
            .filter_map(crate::sim::JobRecord::jct_s)
            .collect();
        s.avg_jct_common_s = if jcts.is_empty() {
            0.0
        } else {
            jcts.iter().sum::<f64>() / jcts.len() as f64
        };
    }
}

/// Runs several policies over the same trace on the same cluster, sharing
/// one [`PlanService`] (same ground truth, fair comparison).
#[must_use]
pub fn run_policies(
    cluster: &arena_cluster::Cluster,
    jobs: &[JobSpec],
    policies: Vec<Box<dyn Policy>>,
    service: &PlanService,
    cfg: &SimConfig,
) -> Vec<SimResult> {
    policies
        .into_iter()
        .map(|mut p| Run::new(cluster, p.as_mut(), service, cfg).batch(jobs))
        .collect()
}

/// Runs several policies concurrently over the same trace, one policy per
/// worker thread, merging results in the policies' submission order.
///
/// Each policy gets its *own* [`PlanService`] built from the same
/// `(params, seed)` pair. The service is a pure function of cluster,
/// cost parameters and seed, so every run still sees identical ground
/// truth and no state is shared across threads: apart from
/// `avg_decision_s` (wall-clock) the results are identical to a
/// sequential run, at any worker-pool size.
#[must_use]
pub fn run_policies_parallel(
    cluster: &arena_cluster::Cluster,
    jobs: &[JobSpec],
    policies: Vec<Box<dyn Policy>>,
    params: &CostParams,
    seed: u64,
    cfg: &SimConfig,
    pool: &WorkerPool,
) -> Vec<SimResult> {
    let tasks: Vec<_> = policies
        .into_iter()
        .map(|mut p| {
            move || {
                let service = PlanService::new(cluster, params.clone(), seed);
                Run::new(cluster, p.as_mut(), &service, cfg).batch(jobs)
            }
        })
        .collect();
    pool.run_all(tasks)
}

/// The paper's five-way policy comparison set (§8.1).
#[must_use]
pub fn comparison_policies() -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(arena_sched::FcfsPolicy::new()),
        Box::new(arena_sched::GandivaPolicy::new()),
        Box::new(arena_sched::GavelPolicy::new()),
        Box::new(arena_sched::ElasticFlowPolicy::loosened()),
        Box::new(arena_sched::ArenaPolicy::new()),
    ]
}

/// Renders a policy-summary comparison table.
#[must_use]
pub fn summary_table(title: &str, summaries: &[PolicySummary]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "policy",
            "avg JCT",
            "JCT (common)",
            "median JCT",
            "avg queue",
            "finished",
            "dropped",
            "avg thpt",
            "peak thpt",
            "restarts",
        ],
    );
    for s in summaries {
        t.row(vec![
            s.policy.clone(),
            hms(s.avg_jct_s),
            hms(s.avg_jct_common_s),
            hms(s.median_jct_s),
            hms(s.avg_queue_s),
            s.finished.to_string(),
            s.dropped.to_string(),
            f3(s.avg_throughput),
            f3(s.peak_throughput),
            f3(s.avg_restarts),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use arena_perf::CostParams;

    #[test]
    fn comparison_set_has_five_distinct_policies() {
        let names: Vec<&str> = comparison_policies().iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 5);
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 5);
        assert!(names.contains(&"Arena"));
    }

    #[test]
    fn run_policies_produces_one_result_each() {
        let cluster = arena_cluster::presets::physical_testbed();
        let service = PlanService::new(&cluster, CostParams::default(), 1);
        let jobs: Vec<JobSpec> = Vec::new();
        let out = run_policies(
            &cluster,
            &jobs,
            comparison_policies(),
            &service,
            &SimConfig::new(600.0),
        );
        assert_eq!(out.len(), 5);
    }
}
