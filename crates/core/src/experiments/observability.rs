//! Observability conformance workload: the five-way policy comparison
//! run with decision tracing enabled.
//!
//! Every policy schedules the same testbed trace while an [`Obs`] handle
//! records a [`Decision`](arena_sim::Decision) for each place / evict /
//! drop / requeue it takes, plus engine counters (event mix, queue-depth
//! gauges) and estimator cache statistics. The output is one provenance
//! summary per policy and the full decision log as JSON Lines — the
//! workload the golden-trace test harness snapshots.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use arena_cluster::presets;
use arena_perf::CostParams;
use arena_runtime::WorkerPool;
use arena_sched::PlanService;
use arena_sim::{DecisionKind, Obs, Run, SimConfig, SimResult, Timeline};
use arena_trace::{generate, TraceConfig, TraceKind};

use crate::report::{count_table, f3, Table};

/// One policy's decision-provenance summary from the traced workload.
#[derive(Debug, Clone, Serialize)]
pub struct TraceSummary {
    /// Policy display name.
    pub policy: String,
    /// Total recorded decisions (policy + engine provenance).
    pub decisions: usize,
    /// Placement decisions.
    pub places: usize,
    /// Placements flagged opportunistic (evictable backfill).
    pub opportunistic_places: usize,
    /// Eviction decisions.
    pub evictions: usize,
    /// Job-rejection decisions.
    pub drops: usize,
    /// Engine requeue provenance (failure evictions, capacity races).
    pub requeues: usize,
    /// Distinct `kind/reason` labels observed.
    pub distinct_reasons: usize,
    /// Scheduling passes (completed `sim.schedule` spans).
    pub sched_passes: u64,
    /// Decision counts per `kind/reason` key.
    pub reason_counts: BTreeMap<String, usize>,
}

/// One traced policy run: its summary plus the exported decision log.
#[derive(Debug, Clone, Serialize)]
pub struct TraceRun {
    /// Per-policy provenance summary.
    pub summary: TraceSummary,
    /// The full decision log as JSON Lines (one object per decision).
    pub jsonl: String,
}

/// Runs the five-way comparison with tracing enabled.
///
/// Each policy gets a fresh [`PlanService`] built from the same seed, so
/// all runs see identical ground truth *and* the estimator counters in
/// each run's registry cover exactly that run.
#[must_use]
pub fn conformance_workload(quick: bool) -> Vec<TraceRun> {
    let cluster = presets::physical_testbed();
    let hours = if quick { 1.0 } else { 2.0 };
    let trace_cfg = TraceConfig::new(
        TraceKind::PhillyHeavy,
        hours * 3600.0,
        cluster.total_gpus(),
        vec![48.0, 24.0],
    );
    let jobs = generate(&trace_cfg);
    let sim_cfg = SimConfig::new(if quick { 12.0 * 3600.0 } else { 24.0 * 3600.0 });

    // One traced run per worker thread: each policy already gets its own
    // service and Obs sink, so runs are independent; the pool merges them
    // back in the comparison set's order.
    let n = crate::experiments::comparison_policies().len();
    WorkerPool::per_core().map_indices(n, |i| {
        let mut policy = crate::experiments::comparison_policies()
            .into_iter()
            .nth(i)
            .expect("policy index in range");
        let service = PlanService::new(&cluster, CostParams::default(), 27);
        let obs = Obs::enabled();
        let r = Run::new(&cluster, policy.as_mut(), &service, &sim_cfg)
            .obs(&obs)
            .batch(&jobs);
        let t = &r.trace;
        let registry = obs.metrics().expect("an enabled handle carries a registry");
        let kind_count = |k: DecisionKind| t.decisions.iter().filter(|d| d.kind == k).count();
        let summary = TraceSummary {
            policy: r.policy.clone(),
            decisions: t.decisions.len(),
            places: kind_count(DecisionKind::Place),
            opportunistic_places: t.decisions.iter().filter(|d| d.opportunistic).count(),
            evictions: kind_count(DecisionKind::Evict),
            drops: kind_count(DecisionKind::Drop),
            requeues: kind_count(DecisionKind::Requeue),
            distinct_reasons: t.decision_counts().len(),
            sched_passes: registry
                .histograms_snapshot()
                .get("sim.schedule")
                .map_or(0, |h| h.count),
            reason_counts: t.decision_counts(),
        };
        TraceRun {
            summary,
            jsonl: t.decisions_jsonl(),
        }
    })
}

/// Renders the per-policy provenance comparison.
#[must_use]
pub fn trace_table(runs: &[TraceRun]) -> Table {
    let mut t = Table::new(
        "Observability: decision provenance per policy (traced workload)",
        &[
            "policy",
            "decisions",
            "place",
            "opp",
            "evict",
            "drop",
            "requeue",
            "reasons",
            "passes",
        ],
    );
    for run in runs {
        let s = &run.summary;
        t.row(vec![
            s.policy.clone(),
            s.decisions.to_string(),
            s.places.to_string(),
            s.opportunistic_places.to_string(),
            s.evictions.to_string(),
            s.drops.to_string(),
            s.requeues.to_string(),
            s.distinct_reasons.to_string(),
            s.sched_passes.to_string(),
        ]);
    }
    t
}

/// Renders one policy's `kind/reason` breakdown.
#[must_use]
pub fn reason_table(run: &TraceRun) -> Table {
    count_table(
        &format!("Decision reasons: {}", run.summary.policy),
        &run.summary.reason_counts,
    )
}

/// One job's slice of a timeline summary (interval accounting + JCT).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobTimelineSummary {
    /// Job id.
    pub id: u64,
    /// Total queueing delay, seconds (all visits to `Queued`).
    pub queue_s: f64,
    /// Restart/acquisition overhead, seconds (time in `Placed`).
    pub placed_s: f64,
    /// Time making progress, seconds.
    pub run_s: f64,
    /// GPU-seconds making progress.
    pub productive_gpu_s: f64,
    /// GPU-seconds held (productive + restart stalls).
    pub allocated_gpu_s: f64,
    /// Placements out of the queue or while active.
    pub placements: u32,
    /// Rescales/migrations of an active job.
    pub moves: u32,
    /// Times the job lost its GPUs and re-queued.
    pub preemptions: u32,
    /// Completion time minus submission, seconds (None if unfinished).
    pub jct_s: Option<f64>,
}

/// One policy's timeline summary: time-in-state, utilization and the
/// per-job accounting. Serialised to `results/` by `repro timeline` and
/// consumed back by `arena-analyze summarize` / `diff`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineSummary {
    /// Policy display name.
    pub policy: String,
    /// Close time of the timeline, seconds.
    pub end_s: f64,
    /// Recorded job-state transitions.
    pub events: usize,
    /// Recorded GPU acquire/release events.
    pub allocs: usize,
    /// Total job-time per state, seconds.
    pub time_in_state: BTreeMap<String, f64>,
    /// Time-weighted mean busy fraction of the cluster.
    pub mean_util_frac: f64,
    /// Time-weighted mean fragmentation (free GPUs stranded on
    /// partially-busy nodes).
    pub mean_frag_frac: f64,
    /// GPU-seconds making progress, summed over jobs.
    pub productive_gpu_s: f64,
    /// GPU-seconds held, summed over jobs.
    pub allocated_gpu_s: f64,
    /// Productive GPU-seconds over nameplate capacity.
    pub cluster_util_frac: f64,
    /// Mean JCT over finished jobs, seconds.
    pub avg_jct_s: f64,
    /// Jobs finished before the horizon.
    pub finished: usize,
    /// Per-job accounting, ordered by job id.
    pub jobs: Vec<JobTimelineSummary>,
}

/// One traced policy run with its exported timeline artifacts.
#[derive(Debug, Clone, Serialize)]
pub struct TimelineRun {
    /// The summary `arena-analyze` consumes.
    pub summary: TimelineSummary,
    /// Chrome-trace/Perfetto JSON (load in `chrome://tracing` or
    /// ui.perfetto.dev).
    pub perfetto_json: String,
    /// Utilization time-series as JSON Lines.
    pub utilization_jsonl: String,
}

/// Time-weighted mean of the fragmentation series.
fn mean_frag(tl: &Timeline) -> f64 {
    let series = tl.utilization();
    let (mut area, mut span) = (0.0, 0.0);
    for w in series.windows(2) {
        let dt = w[1].time_s - w[0].time_s;
        area += w[0].frag_frac * dt;
        span += dt;
    }
    if span > 0.0 {
        area / span
    } else {
        0.0
    }
}

/// Builds the summary + exports for one traced run.
#[must_use]
pub fn summarize_run(r: &SimResult) -> TimelineRun {
    let tl = &r.trace.timeline;
    let accounts = tl.accounts();
    let jobs: Vec<JobTimelineSummary> = r
        .records
        .iter()
        .map(|rec| {
            let acc = accounts.get(&rec.id).copied().unwrap_or_default();
            JobTimelineSummary {
                id: rec.id,
                queue_s: acc.queue_s,
                placed_s: acc.placed_s,
                run_s: acc.run_s,
                productive_gpu_s: acc.productive_gpu_s,
                allocated_gpu_s: acc.allocated_gpu_s,
                placements: acc.placements,
                moves: acc.moves,
                preemptions: acc.preemptions,
                jct_s: rec.jct_s(),
            }
        })
        .collect();
    let summary = TimelineSummary {
        policy: r.policy.clone(),
        end_s: tl.end_s,
        events: tl.events.len(),
        allocs: tl.allocs.len(),
        time_in_state: tl
            .time_in_state()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        mean_util_frac: tl.mean_utilization(),
        mean_frag_frac: mean_frag(tl),
        productive_gpu_s: r.metrics.productive_gpu_s,
        allocated_gpu_s: r.metrics.allocated_gpu_s,
        cluster_util_frac: r.metrics.cluster_util_frac,
        avg_jct_s: r.metrics.avg_jct_s,
        finished: r.metrics.finished,
        jobs,
    };
    TimelineRun {
        summary,
        perfetto_json: tl.perfetto_json(&r.policy),
        utilization_jsonl: tl.utilization_jsonl(),
    }
}

/// Runs the five-way comparison with tracing enabled and collects each
/// policy's timeline summary plus its Perfetto / utilization exports.
/// Same workload and seed as [`conformance_workload`], so the decision
/// logs and timelines describe the same runs.
#[must_use]
pub fn timeline_workload(quick: bool) -> Vec<TimelineRun> {
    let cluster = presets::physical_testbed();
    let hours = if quick { 1.0 } else { 2.0 };
    let trace_cfg = TraceConfig::new(
        TraceKind::PhillyHeavy,
        hours * 3600.0,
        cluster.total_gpus(),
        vec![48.0, 24.0],
    );
    let jobs = generate(&trace_cfg);
    let sim_cfg = SimConfig::new(if quick { 12.0 * 3600.0 } else { 24.0 * 3600.0 });

    let n = crate::experiments::comparison_policies().len();
    WorkerPool::per_core().map_indices(n, |i| {
        let mut policy = crate::experiments::comparison_policies()
            .into_iter()
            .nth(i)
            .expect("policy index in range");
        let service = PlanService::new(&cluster, CostParams::default(), 27);
        let obs = Obs::enabled();
        let r = Run::new(&cluster, policy.as_mut(), &service, &sim_cfg)
            .obs(&obs)
            .batch(&jobs);
        r.trace
            .timeline
            .validate()
            .expect("engine emits a legal timeline");
        summarize_run(&r)
    })
}

/// Renders the per-policy time-in-state + utilization comparison.
#[must_use]
pub fn timeline_summary_table(summaries: &[TimelineSummary]) -> Table {
    let mut t = Table::new(
        "Observability: per-policy time-in-state and utilization",
        &[
            "policy",
            "events",
            "queued_s",
            "placed_s",
            "running_s",
            "util",
            "frag",
            "prod/alloc",
            "cluster util",
            "avg JCT s",
        ],
    );
    for s in summaries {
        let state = |k: &str| s.time_in_state.get(k).copied().unwrap_or(0.0);
        let eff = if s.allocated_gpu_s > 0.0 {
            s.productive_gpu_s / s.allocated_gpu_s
        } else {
            0.0
        };
        t.row(vec![
            s.policy.clone(),
            s.events.to_string(),
            format!("{:.0}", state("Queued")),
            format!("{:.0}", state("Placed")),
            format!("{:.0}", state("Running")),
            f3(s.mean_util_frac),
            f3(s.mean_frag_frac),
            f3(eff),
            f3(s.cluster_util_frac),
            format!("{:.0}", s.avg_jct_s),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabricated() -> TraceRun {
        TraceRun {
            summary: TraceSummary {
                policy: "Test".into(),
                decisions: 3,
                places: 2,
                opportunistic_places: 1,
                evictions: 0,
                drops: 1,
                requeues: 0,
                distinct_reasons: 2,
                sched_passes: 5,
                reason_counts: [
                    ("place/best-cell".to_string(), 2),
                    ("drop/x".to_string(), 1),
                ]
                .into_iter()
                .collect(),
            },
            jsonl: String::new(),
        }
    }

    #[test]
    fn tables_render() {
        let runs = vec![fabricated()];
        let t = trace_table(&runs);
        assert_eq!(t.num_rows(), 1);
        assert!(t.render().contains("Test"), "policy column");
        let rt = reason_table(&runs[0]);
        assert_eq!(rt.num_rows(), 2);
        assert!(rt.render().contains("place/best-cell"));
    }

    #[test]
    fn summarize_run_accounts_for_a_tiny_traced_run() {
        use arena_trace::JobSpec;
        let cluster = presets::physical_testbed();
        let service = PlanService::new(&cluster, CostParams::default(), 27);
        let jobs: Vec<JobSpec> = (0..3)
            .map(|i| JobSpec {
                id: i,
                name: format!("j{i}"),
                submit_s: 60.0 * i as f64,
                model: arena_model::zoo::ModelConfig::new(
                    arena_model::zoo::ModelFamily::Bert,
                    0.76,
                    256,
                ),
                iterations: 300,
                requested_gpus: 4,
                requested_pool: 0,
                deadline_s: None,
            })
            .collect();
        let obs = Obs::enabled();
        let cfg = SimConfig::new(24.0 * 3600.0);
        let r = Run::new(
            &cluster,
            &mut arena_sched::FcfsPolicy::new(),
            &service,
            &cfg,
        )
        .obs(&obs)
        .batch(&jobs);
        let run = summarize_run(&r);
        assert_eq!(run.summary.jobs.len(), 3);
        assert!(run.summary.events >= 3, "at least one event per job");
        assert!(run.summary.productive_gpu_s > 0.0);
        assert!(run.summary.mean_util_frac > 0.0);
        for job in &run.summary.jobs {
            assert!(job.placements >= 1, "job {} never placed", job.id);
            assert!(job.allocated_gpu_s >= job.productive_gpu_s);
        }
        assert!(run.perfetto_json.starts_with('{'));
        assert!(run.perfetto_json.contains("\"traceEvents\":["));
        assert!(run.perfetto_json.trim_end().ends_with('}'));
        assert!(!run.utilization_jsonl.is_empty());
        let table = timeline_summary_table(std::slice::from_ref(&run.summary));
        assert_eq!(table.num_rows(), 1);
        assert!(table.render().contains("FCFS"));
        // Round-trips through JSON for arena-analyze.
        let json = serde_json::to_string(&run.summary).unwrap();
        let back: TimelineSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.policy, run.summary.policy);
        assert_eq!(back.jobs.len(), 3);
    }

    #[test]
    #[ignore = "multi-minute cluster simulation; run via the repro binary"]
    fn workload_produces_nonempty_logs_for_every_policy() {
        let runs = conformance_workload(true);
        assert_eq!(runs.len(), 5);
        for run in &runs {
            assert!(
                run.summary.decisions > 0,
                "{} recorded no decisions",
                run.summary.policy
            );
            assert!(!run.jsonl.is_empty());
            assert_eq!(run.jsonl.lines().count(), run.summary.decisions);
        }
    }
}
