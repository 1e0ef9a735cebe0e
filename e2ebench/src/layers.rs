//! Per-layer metrics of a traced run and the attribution artifact.
//!
//! Each layer is measured from outside, at its public functions:
//! spans around `Engine::step`, the timing `Policy` decorator, the
//! engine's own stage histograms read from a metrics-only registry,
//! plan-service ledgers, and cold replays of the workload's own keys on
//! fresh services.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use arena::cluster::{Cluster, GpuTypeId};
use arena::estimator::{CacheStatsSnapshot, Cell};
use arena::model::ModelConfig;
use arena::parallelism::PlanSpace;
use arena::perf::{CostParams, GroundTruth, HwTarget};
use arena::sched::{PlanService, POLICY_NAMES};
use arena::sim::MetricsRegistry;
use arena::trace::JobSpec;

use crate::probe::{PolicyStats, Tracer};
use crate::report::{median, quantile, tail_q, Report};

/// Plans sampled per Cell in the plan-space replay (the service's own
/// exploration cap).
const SPACE_SAMPLES: usize = 192;
/// Plans measured per Cell in the cost-model replay.
const MEASURED_PER_CELL: usize = 8;

/// Client-side and scraped daemon timings (daemon workload only).
#[derive(Default)]
pub struct ServerLayer {
    /// Submit round trips.
    pub cmd_s: Vec<f64>,
    pub ttfb_s: Vec<f64>,
    pub tail_s: Vec<f64>,
    pub apply_p50_s: f64,
    pub publish_p50_s: f64,
    pub query_status_s: Vec<f64>,
    pub query_metrics_s: Vec<f64>,
    pub drain_s: f64,
    pub connect_s: Vec<f64>,
    pub snapshot_jobs: usize,
}

impl ServerLayer {
    /// Every reader round trip, `status` and `metrics` alike.
    pub fn query_s(&self) -> Vec<f64> {
        [&self.query_status_s[..], &self.query_metrics_s[..]].concat()
    }
}

#[derive(Default)]
struct Replay {
    ideal_sps_s: f64,
    adaptive_run_s: Vec<f64>,
    measure_s: Vec<f64>,
    stages_s: Vec<f64>,
    space_sample_s: Vec<f64>,
    cell_choice_s: Vec<f64>,
    arena_run_s: Vec<f64>,
    build_s: Vec<f64>,
}

/// Everything a traced run learns, layer by layer.
#[derive(Default)]
pub struct Layers {
    pub tracer: Option<Tracer>,
    pub registry: Option<Arc<MetricsRegistry>>,
    policies: BTreeMap<&'static str, (PolicyStats, f64)>,
    /// `(model, gpus, pool)` of every baseline placement.
    places: Vec<(ModelConfig, usize, usize)>,
    pub peak_live_jobs: usize,
    plan_entries: BTreeMap<String, (usize, usize)>,
    est: CacheStatsSnapshot,
    pub wall_untraced_s: f64,
    pub wall_traced_s: f64,
    pub pull_s: f64,
    pub server: Option<ServerLayer>,
    replay: Replay,
}

impl Layers {
    /// Folds one finished run's plan-database ledger and estimator
    /// counters into the totals.
    pub fn absorb_service(&mut self, service: &PlanService) {
        for s in service.mem_report() {
            let e = self.plan_entries.entry(s.name).or_insert((0, 0));
            e.0 += s.entries;
            e.1 += s.bytes;
        }
        let s = service.estimator_stats();
        let e = &mut self.est;
        e.estimate_hits += s.estimate_hits;
        e.estimate_misses += s.estimate_misses;
        e.profile_hits += s.profile_hits;
        e.profile_misses += s.profile_misses;
        e.table_hits += s.table_hits;
        e.table_misses += s.table_misses;
    }

    /// Folds one policy run's decorator statistics (and the policy time
    /// of its warm replay) into the policy's totals. Placements resolve
    /// to models through `jobs`, the run's trace, when it is given.
    pub fn add_policy(
        &mut self,
        name: &'static str,
        mut stats: PolicyStats,
        warm_busy_s: f64,
        jobs: Option<&[JobSpec]>,
    ) {
        if let Some(jobs) = jobs {
            for &(id, pool, gpus) in &stats.places {
                if let Some(job) = usize::try_from(id).ok().and_then(|i| jobs.get(i)) {
                    if job.id == id {
                        self.places.push((job.model, gpus, pool));
                    }
                }
            }
        }
        stats.places = Vec::new();
        let (acc, warm) = self.policies.entry(name).or_default();
        acc.passes += stats.passes;
        acc.busy_s += stats.busy_s;
        acc.pass_s.extend(stats.pass_s);
        acc.place_actions += stats.place_actions;
        acc.views += stats.views;
        *warm += warm_busy_s;
    }

    /// Cold replays of the workload's own keys on fresh services: the
    /// plan database, the cost model, stage partitioning, plan-space
    /// sampling, Cell estimation, pruned tuning and model building.
    pub fn replay(&mut self, cluster: &Cluster, jobs: &[&JobSpec], service_seed: u64) {
        let pools = cluster.num_pools();
        let r = &mut self.replay;
        // Distinct keys, in first-seen order.
        let mut seen_jobs = BTreeSet::new();
        let mut key_jobs: Vec<&JobSpec> = Vec::new();
        let mut seen_models = BTreeSet::new();
        let mut models: Vec<ModelConfig> = Vec::new();
        for &j in jobs {
            let name = j.model.name();
            if seen_jobs.insert((name.clone(), j.model.global_batch, j.requested_gpus)) {
                key_jobs.push(j);
            }
            if seen_models.insert((name, j.model.global_batch)) {
                models.push(j.model);
            }
        }

        for m in &models {
            let started = Instant::now();
            std::hint::black_box(m.build());
            r.build_s.push(started.elapsed().as_secs_f64());
        }

        let params = CostParams::default();
        let fresh = || PlanService::new(cluster, params.clone(), service_seed);
        let service = fresh();
        let started = Instant::now();
        for j in &key_jobs {
            std::hint::black_box(service.ideal_sps(j));
        }
        r.ideal_sps_s = started.elapsed().as_secs_f64();

        // Every adaptive exploration the runs asked for: the ones behind
        // `ideal_sps` plus the baselines' placements.
        let mut adaptive: Vec<(ModelConfig, usize, usize)> = Vec::new();
        let mut seen = BTreeSet::new();
        let explored = key_jobs.iter().flat_map(|j| {
            (0..pools).flat_map(move |p| {
                [j.requested_gpus, 2 * j.requested_gpus].map(|g| (j.model, g, p))
            })
        });
        for (m, g, p) in explored.chain(self.places.iter().copied()) {
            if seen.insert((m.name(), m.global_batch, g, p)) {
                adaptive.push((m, g, p));
            }
        }
        let service = fresh();
        for (m, g, p) in &adaptive {
            let started = Instant::now();
            std::hint::black_box(service.adaptive_run(m, *g, GpuTypeId(*p)));
            r.adaptive_run_s.push(started.elapsed().as_secs_f64());
        }

        // Stage partitioning, plan-space sampling and the ground-truth
        // cost model over the workload's Cells.
        let gt = GroundTruth::new(params.clone(), service_seed);
        for j in &key_jobs {
            let graph = j.model.build();
            for p in 0..pools {
                let hw = HwTarget::new(cluster.spec(GpuTypeId(p)));
                let mut stages = 1;
                while stages <= j.requested_gpus && stages <= graph.len() {
                    let started = Instant::now();
                    let cell = Cell::new(&graph, j.requested_gpus, stages);
                    r.stages_s.push(started.elapsed().as_secs_f64());
                    stages *= 2;
                    let Some(cell) = cell else { continue };
                    let space = PlanSpace::new(cell.partition);
                    let started = Instant::now();
                    let plans: Vec<_> = space.sample(SPACE_SAMPLES).collect();
                    r.space_sample_s.push(started.elapsed().as_secs_f64());
                    for plan in plans.iter().take(MEASURED_PER_CELL) {
                        let started = Instant::now();
                        let _ = std::hint::black_box(gt.measure(
                            &graph,
                            j.model.global_batch,
                            plan,
                            &hw,
                        ));
                        r.measure_s.push(started.elapsed().as_secs_f64());
                    }
                }
            }
        }

        // Arena's candidates: trace models × {N/2, N, 2N} GPUs × pools,
        // estimated cold, then tuned with the Cells already chosen.
        let mut candidates = Vec::new();
        let mut seen = BTreeSet::new();
        for j in &key_jobs {
            let n = j.requested_gpus;
            for g in [n / 2, n, 2 * n] {
                for p in 0..pools {
                    if g >= 1 && seen.insert((j.model.name(), j.model.global_batch, g, p)) {
                        candidates.push((j.model, g, p));
                    }
                }
            }
        }
        let service = fresh();
        let mut chosen = Vec::new();
        for (m, g, p) in &candidates {
            let started = Instant::now();
            let choice = service.cell_choice(m, *g, GpuTypeId(*p));
            r.cell_choice_s.push(started.elapsed().as_secs_f64());
            if choice.is_some() {
                chosen.push((*m, *g, *p));
            }
        }
        for (m, g, p) in &chosen {
            let started = Instant::now();
            std::hint::black_box(service.arena_run(m, *g, GpuTypeId(*p)));
            r.arena_run_s.push(started.elapsed().as_secs_f64());
        }
    }

    fn tracer_stat(&self, name: &str) -> (u64, f64, f64, &[f64]) {
        match self.tracer.as_ref().map(|t| t.stat(name)) {
            Some(s) => (s.count, s.total_s, s.self_s, &s.durations_s),
            None => (0, 0.0, 0.0, &[]),
        }
    }

    /// Self time of every span the timed phase records, over the traced
    /// run's timed wall-clock.
    fn coverage(&self) -> f64 {
        let Some(t) = &self.tracer else { return 0.0 };
        let covered: f64 = t.stats.values().map(|s| s.self_s).sum();
        if self.wall_traced_s > 0.0 {
            covered / self.wall_traced_s
        } else {
            0.0
        }
    }

    fn hist_sum(&self, name: &str) -> f64 {
        self.registry
            .as_ref()
            .and_then(|r| r.histograms_snapshot().get(name).map(|h| h.sum))
            .unwrap_or(0.0)
    }

    fn counter(&self, name: &str) -> u64 {
        self.registry
            .as_ref()
            .and_then(|r| r.counters_snapshot().get(name).copied())
            .unwrap_or(0)
    }

    fn entries(&self, section: &str) -> f64 {
        self.plan_entries.get(section).map_or(0.0, |e| e.0 as f64)
    }

    /// Prints every per-layer metric. A layer the workload does not
    /// exercise reports zero work.
    pub fn emit(&self, report: &mut Report) {
        let (bursts, _, step_self, step_d) = self.tracer_stat("sim.step");
        report.metric("sim.bursts", bursts as f64, "count");
        report.metric("sim.burst_p50_us", quantile(step_d, 0.5) * 1e6, "us");
        report.metric(
            "sim.burst_p99_us",
            quantile(step_d, tail_q(step_d.len())) * 1e6,
            "us",
        );
        report.metric("sim.self_s", step_self, "s");
        let (passes, views) = self
            .policies
            .values()
            .fold((0, 0), |a, (s, _)| (a.0 + s.passes, a.1 + s.views));
        report.metric(
            "sim.views_per_pass",
            views as f64 / passes.max(1) as f64,
            "count",
        );
        report.metric("sim.merge_s", self.hist_sum("sim.shard.merge"), "s");
        report.metric("sim.commit_s", self.hist_sum("sim.commit"), "s");
        let ok = self.counter("sim.place.ok");
        let tried =
            ok + self.counter("sim.place.infeasible") + self.counter("sim.place.capacity_race");
        report.metric(
            "sim.place_ok_ratio",
            if tried == 0 {
                0.0
            } else {
                ok as f64 / tried as f64
            },
            "ratio",
        );
        report.metric("sim.peak_live_jobs", self.peak_live_jobs as f64, "count");

        for p in POLICY_NAMES {
            let empty = (PolicyStats::default(), 0.0);
            let (s, warm) = self.policies.get(p).unwrap_or(&empty);
            report.metric(&format!("sched.{p}.passes"), s.passes as f64, "count");
            report.metric(&format!("sched.{p}.busy_s"), s.busy_s, "s");
            report.metric(
                &format!("sched.{p}.pass_p50_us"),
                quantile(&s.pass_s, 0.5) * 1e6,
                "us",
            );
            report.metric(
                &format!("sched.{p}.pass_p99_us"),
                quantile(&s.pass_s, tail_q(s.pass_s.len())) * 1e6,
                "us",
            );
            report.metric(&format!("sched.{p}.self_s"), *warm, "s");
            report.metric(
                &format!("sched.{p}.place_actions"),
                s.place_actions as f64,
                "count",
            );
        }

        let r = &self.replay;
        report.metric("plans.ideal_sps_s", r.ideal_sps_s, "s");
        report.metric(
            "plans.adaptive_run_ms",
            median(&r.adaptive_run_s) * 1e3,
            "ms",
        );
        report.metric(
            "plans.adaptive_entries",
            self.entries("plans.adaptive"),
            "count",
        );
        report.metric("plans.ideal_entries", self.entries("plans.ideal"), "count");
        report.metric("plans.cell_entries", self.entries("plans.cells"), "count");
        report.metric(
            "plans.arena_run_entries",
            self.entries("plans.arena_runs"),
            "count",
        );
        let bytes: usize = self.plan_entries.values().map(|e| e.1).sum();
        report.metric("plans.mem_bytes", bytes as f64, "bytes");
        report.metric("perf.measure_us", median(&r.measure_s) * 1e6, "us");
        report.metric("parallelism.stages_us", median(&r.stages_s) * 1e6, "us");
        report.metric(
            "parallelism.space_sample_us",
            median(&r.space_sample_s) * 1e6,
            "us",
        );
        report.metric(
            "estimator.cell_choice_us",
            median(&r.cell_choice_s) * 1e6,
            "us",
        );
        let e = &self.est;
        report.metric(
            "estimator.estimate_misses",
            e.estimate_misses as f64,
            "count",
        );
        let looked = e.estimate_hits + e.estimate_misses;
        report.metric(
            "estimator.estimate_hit_ratio",
            if looked == 0 {
                0.0
            } else {
                e.estimate_hits as f64 / looked as f64
            },
            "ratio",
        );
        report.metric("estimator.profile_misses", e.profile_misses as f64, "count");
        report.metric("estimator.table_misses", e.table_misses as f64, "count");
        report.metric("tuner.arena_run_ms", median(&r.arena_run_s) * 1e3, "ms");
        report.metric("model.build_us", median(&r.build_s) * 1e6, "us");
        report.metric("trace.pull_s", self.pull_s, "s");
        report.metric(
            "obs.overhead_ratio",
            if self.wall_untraced_s > 0.0 {
                self.wall_traced_s / self.wall_untraced_s
            } else {
                0.0
            },
            "ratio",
        );
        report.metric("obs.span_coverage", self.coverage(), "ratio");

        let empty = ServerLayer::default();
        let s = self.server.as_ref().unwrap_or(&empty);
        report.metric(
            "server.cmd_p95_ms",
            quantile(&s.cmd_s, tail_q(s.cmd_s.len())) * 1e3,
            "ms",
        );
        report.metric("server.ttfb_p50_ms", median(&s.ttfb_s) * 1e3, "ms");
        report.metric("server.tail_p50_ms", median(&s.tail_s) * 1e3, "ms");
        report.metric("server.apply_p50_ms", s.apply_p50_s * 1e3, "ms");
        report.metric("server.publish_p50_ms", s.publish_p50_s * 1e3, "ms");
        report.metric(
            "server.query_status_p50_ms",
            median(&s.query_status_s) * 1e3,
            "ms",
        );
        report.metric(
            "server.query_metrics_p50_ms",
            median(&s.query_metrics_s) * 1e3,
            "ms",
        );
        report.metric(
            "server.query_p95_ms",
            quantile(&s.query_s(), 0.95) * 1e3,
            "ms",
        );
        report.metric("server.drain_ms", s.drain_s * 1e3, "ms");
        report.metric("server.connect_ms", median(&s.connect_s) * 1e3, "ms");
        report.metric("server.snapshot_jobs", s.snapshot_jobs as f64, "count");
    }

    /// Writes the traced run's spans, per-layer self times and tracing
    /// overhead as one JSON artifact.
    pub fn write_artifact(&self, out: &Path, workload: &str, seed: u64) {
        let mut j = String::new();
        let _ = write!(
            j,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"wall_untraced_s\": {}, \
             \"wall_traced_s\": {}, \"overhead_ratio\": {}, \"span_coverage\": {}",
            self.wall_untraced_s,
            self.wall_traced_s,
            self.wall_traced_s / self.wall_untraced_s.max(f64::MIN_POSITIVE),
            self.coverage()
        );
        if let Some(t) = &self.tracer {
            j.push_str(", \"self_s_by_layer\": {");
            for (i, (layer, s)) in t.self_by_layer().iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(j, "{sep}\"{layer}\": {s}");
            }
            j.push_str("}, \"spans_by_name\": {");
            for (i, (name, s)) in t.stats.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    j,
                    "{sep}\"{name}\": {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
                    s.count, s.total_s, s.self_s
                );
            }
            let _ = write!(
                j,
                "}}, \"engine_stages_s\": {{\"merge\": {}, \"prepare\": {}, \"schedule\": {}, \
                 \"commit\": {}}}",
                self.hist_sum("sim.shard.merge"),
                self.hist_sum("sim.shard.prepare"),
                self.hist_sum("sim.schedule"),
                self.hist_sum("sim.commit"),
            );
            let _ = write!(j, ", \"spans_dropped\": {}, \"spans\": [", t.dropped);
            for (i, s) in t.raw.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                let _ = write!(
                    j,
                    "{sep}{{\"id\": {}, \"parent\": {parent}, \"run\": {}, \"name\": \"{}\", \
                     \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                    s.id, s.run, s.name, s.start_us, s.end_us
                );
            }
            j.push(']');
        }
        j.push_str("}\n");
        let path = out.join(format!("attribution-{workload}-seed{seed}.json"));
        if let Err(e) = std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, j)) {
            eprintln!("cannot write {}: {e}", path.display());
        } else {
            eprintln!("  attribution artifact: {}", path.display());
        }
    }
}
