//! The pre-index reference engine: the event loop exactly as it was
//! before the event-indexed core landed, kept as the bitwise-equality
//! oracle for `tests/engine_equivalence.rs`, which holds the one
//! [`crate::Engine`] to it.
//!
//! Every per-event pass here is a linear scan over the whole job table
//! and the plan-database key is a heap-allocated `String` tuple — the
//! O(jobs) shape the indexed engine replaces. Apart from storing job
//! specs behind `Arc` (required by the shared policy view types, and
//! invisible to the simulation), this file must stay a frozen copy of
//! the old serial loop: any behavioural fix belongs in the real engine
//! first, with the equivalence suite deciding whether the oracle moves.
//!
//! Not part of the public API; hidden from docs on purpose.

use std::sync::Arc;

use arena_cluster::{Allocation, Cluster, GpuTypeId};
use arena_obs::{Decision, JobEventKind, Obs, StopCause};
use arena_sched::PlanService;
use arena_sched::{Action, JobView, PlacementView, PlanMode, Policy, SchedEvent, SchedView};
use arena_trace::{FaultEvent, FaultKind, JobSpec};

use crate::incremental::{SimConfig, SimResult};
use crate::metrics::{aggregate, FaultLog, JobRecord};

#[derive(Debug, Clone, Copy, PartialEq)]
enum JState {
    Queued,
    Starting(f64),
    Running,
    Finished,
    Dropped,
}

struct SJob {
    spec: Arc<JobSpec>,
    state: JState,
    remaining: f64,
    alloc: Option<Allocation>,
    pool: usize,
    gpus: usize,
    opportunistic: bool,
    sps: f64,
    iter_time: f64,
    start_s: Option<f64>,
    finish_s: Option<f64>,
    restarts: u32,
    profiled: bool,
    since_ckpt_s: f64,
    recovering_since: Option<f64>,
    run_since: Option<f64>,
    alloc_since: Option<f64>,
    run_s: f64,
    productive_gpu_s: f64,
    allocated_gpu_s: f64,
}

impl SJob {
    fn active(&self) -> bool {
        matches!(self.state, JState::Starting(_) | JState::Running)
    }

    fn flush_run(&mut self, t: f64) {
        if let Some(since) = self.run_since.take() {
            let dt = t - since;
            self.run_s += dt;
            self.productive_gpu_s += dt * self.gpus as f64;
        }
    }

    fn flush_alloc(&mut self, t: f64) {
        if let Some(since) = self.alloc_since.take() {
            self.allocated_gpu_s += (t - since) * self.gpus as f64;
        }
    }
}

const EPS: f64 = 1e-6;

/// A batch run with a fault schedule ([`crate::Run::batch`]) on the
/// reference loop.
#[must_use]
pub fn simulate_with_faults(
    cluster: &Cluster,
    jobs: &[JobSpec],
    policy: &mut dyn Policy,
    service: &PlanService,
    cfg: &SimConfig,
    faults: &[FaultEvent],
) -> SimResult {
    simulate_with_faults_traced(
        cluster,
        jobs,
        policy,
        service,
        cfg,
        faults,
        &Obs::disabled(),
    )
}

/// [`simulate_with_faults`], recording into `obs` ([`crate::Run::obs`]).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn simulate_with_faults_traced(
    cluster: &Cluster,
    jobs: &[JobSpec],
    policy: &mut dyn Policy,
    service: &PlanService,
    cfg: &SimConfig,
    faults: &[FaultEvent],
    obs: &Obs,
) -> SimResult {
    assert!(
        jobs.windows(2).all(|w| w[0].submit_s <= w[1].submit_s),
        "trace must be sorted by submission time"
    );
    assert!(
        faults.windows(2).all(|w| w[0].time_s <= w[1].time_s),
        "fault schedule must be sorted by time"
    );
    let cluster_gpu_capacity = cluster.total_gpus();
    if obs.is_enabled() {
        let nodes: Vec<(usize, usize, usize)> = cluster
            .pool_ids()
            .flat_map(|pool| {
                let cap = cluster.spec(pool).gpus_per_node;
                (0..cluster.num_nodes(pool)).map(move |node| (pool.0, node, cap))
            })
            .collect();
        obs.timeline_nodes(&nodes);
    }
    let mut cluster = cluster.clone();
    let mut sjobs: Vec<SJob> = Vec::with_capacity(jobs.len());
    let mut acquired: std::collections::HashSet<(String, usize, usize, usize)> =
        std::collections::HashSet::new();
    let mut t = 0.0_f64;
    let mut arrival_idx = 0;
    let mut fault_idx = 0;
    let mut flog = FaultLog::default();
    let mut next_round = cfg.round_interval_s;
    let mut timeline: Vec<(f64, f64)> = Vec::new();
    let mut raw_timeline: Vec<(f64, f64)> = Vec::new();
    let mut decisions: Vec<f64> = Vec::new();

    loop {
        // Next event candidates: a full scan over the job table.
        let next_arrival = jobs.get(arrival_idx).map(|j| j.submit_s);
        let next_fault = faults.get(fault_idx).map_or(f64::INFINITY, |f| f.time_s);
        let next_job_event = sjobs
            .iter()
            .filter_map(|j| match j.state {
                JState::Starting(r) => Some(r),
                JState::Running => Some(t + j.remaining * j.iter_time),
                _ => None,
            })
            .fold(f64::INFINITY, f64::min);
        let te = [
            next_arrival.unwrap_or(f64::INFINITY),
            next_fault,
            next_round,
            next_job_event,
            cfg.horizon_s,
        ]
        .into_iter()
        .fold(f64::INFINITY, f64::min);

        if !te.is_finite() {
            break;
        }

        // Advance running jobs to `te`.
        let dt = (te - t).max(0.0);
        for j in &mut sjobs {
            if j.state == JState::Running && j.iter_time > 0.0 {
                j.remaining = (j.remaining - dt / j.iter_time).max(0.0);
                flog.samples_processed += dt * j.sps;
                j.since_ckpt_s += dt;
                if cfg.checkpoint_interval_s > 0.0 && cfg.checkpoint_interval_s.is_finite() {
                    j.since_ckpt_s %= cfg.checkpoint_interval_s;
                }
            }
        }
        t = te;
        if t >= cfg.horizon_s - EPS {
            break;
        }

        // 1. Starting -> Running transitions due now.
        for j in &mut sjobs {
            if let JState::Starting(r) = j.state {
                if r <= t + EPS {
                    j.state = JState::Running;
                    j.start_s.get_or_insert(t);
                    j.since_ckpt_s = 0.0;
                    j.flush_alloc(t);
                    j.alloc_since = Some(t);
                    j.run_since = Some(t);
                    if let Some(since) = j.recovering_since.take() {
                        flog.recovery_times_s.push(t - since);
                    }
                    obs.job_event(t, j.spec.id, JobEventKind::RunStart);
                }
            }
        }

        // 2. Completions due now (free resources before anything else).
        let mut event: Option<SchedEvent> = None;
        for j in &mut sjobs {
            if j.state == JState::Running && j.remaining <= EPS {
                j.state = JState::Finished;
                j.finish_s = Some(t);
                j.flush_run(t);
                j.flush_alloc(t);
                if let Some(alloc) = j.alloc.take() {
                    cluster.release(&alloc).expect("release finished job");
                    obs.alloc_event(t, j.spec.id, alloc.pool.0, &alloc.node_gpus, false);
                }
                obs.job_event(t, j.spec.id, JobEventKind::Finish);
                event = Some(SchedEvent::Departure(j.spec.id));
            }
        }

        // 2b. Fault events due now.
        while fault_idx < faults.len() && faults[fault_idx].time_s <= t + EPS {
            let fault = &faults[fault_idx];
            fault_idx += 1;
            let pool = GpuTypeId(fault.pool);
            let ev = match fault.kind {
                FaultKind::Failure => {
                    cluster
                        .fail_node(pool, fault.node)
                        .expect("fault schedule names a node the cluster has");
                    obs.context(t, "engine", "node-failure");
                    obs.incr("sim.fault.failure", 1);
                    for j in &mut sjobs {
                        let hit = j.active()
                            && j.alloc
                                .as_ref()
                                .is_some_and(|a| a.uses_node(pool, fault.node));
                        if !hit {
                            continue;
                        }
                        let alloc = j.alloc.take().expect("active job holds an allocation");
                        cluster.release(&alloc).expect("release crashed job");
                        j.flush_run(t);
                        j.flush_alloc(t);
                        obs.alloc_event(t, j.spec.id, alloc.pool.0, &alloc.node_gpus, false);
                        let mut rollback = 0.0;
                        if j.state == JState::Running && j.iter_time > 0.0 {
                            let lost_iters = (j.since_ckpt_s / j.iter_time)
                                .min(j.spec.iterations as f64 - j.remaining);
                            j.remaining += lost_iters;
                            flog.samples_lost += lost_iters * j.iter_time * j.sps;
                            rollback = lost_iters;
                        }
                        obs.job_event(
                            t,
                            j.spec.id,
                            JobEventKind::Stop {
                                cause: StopCause::NodeFailure,
                                lost_iters: rollback,
                            },
                        );
                        j.state = JState::Queued;
                        j.restarts += 1;
                        j.opportunistic = false;
                        j.since_ckpt_s = 0.0;
                        j.recovering_since.get_or_insert(t);
                        flog.failure_evictions += 1;
                        obs.decision(
                            Decision::requeue(j.spec.id)
                                .on_shard(j.spec.requested_pool as u32)
                                .why("node-failure-evict"),
                        );
                    }
                    SchedEvent::NodeFailure {
                        pool,
                        node: fault.node,
                    }
                }
                FaultKind::Repair => {
                    cluster
                        .repair_node(pool, fault.node)
                        .expect("fault schedule names a node the cluster has");
                    obs.incr("sim.fault.repair", 1);
                    SchedEvent::NodeRepair {
                        pool,
                        node: fault.node,
                    }
                }
            };
            dispatch(
                ev,
                &mut sjobs,
                &mut cluster,
                service,
                policy,
                cfg,
                t,
                &mut acquired,
                &mut decisions,
                obs,
            );
        }

        // 3. Arrivals due now.
        while arrival_idx < jobs.len() && jobs[arrival_idx].submit_s <= t + EPS {
            let spec = Arc::new(jobs[arrival_idx].clone());
            arrival_idx += 1;
            let iters = spec.iterations as f64;
            let id = spec.id;
            sjobs.push(SJob {
                spec,
                state: JState::Queued,
                remaining: iters,
                alloc: None,
                pool: 0,
                gpus: 0,
                opportunistic: false,
                sps: 0.0,
                iter_time: 0.0,
                start_s: None,
                finish_s: None,
                restarts: 0,
                profiled: false,
                since_ckpt_s: 0.0,
                recovering_since: None,
                run_since: None,
                alloc_since: None,
                run_s: 0.0,
                productive_gpu_s: 0.0,
                allocated_gpu_s: 0.0,
            });
            obs.job_event(t, id, JobEventKind::Submit);
            event = Some(SchedEvent::Arrival(id));
        }

        // 4. Round tick.
        if next_round <= t + EPS {
            next_round += cfg.round_interval_s;
            event.get_or_insert(SchedEvent::Round);
        }

        // 5. Let the policy react.
        if let Some(ev) = event {
            dispatch(
                ev,
                &mut sjobs,
                &mut cluster,
                service,
                policy,
                cfg,
                t,
                &mut acquired,
                &mut decisions,
                obs,
            );
        }

        // 6. Sample the throughput timeline at round boundaries.
        if matches!(event, Some(SchedEvent::Round)) {
            timeline.push((t, normalized_throughput(&sjobs, service)));
            raw_timeline.push((t, raw_throughput(&sjobs)));
        }

        // Termination: no arrivals left, nothing queued or active.
        let live = sjobs.iter().any(|j| {
            matches!(
                j.state,
                JState::Queued | JState::Starting(_) | JState::Running
            )
        });
        if arrival_idx >= jobs.len() && !live {
            break;
        }
    }

    for j in &sjobs {
        if matches!(j.state, JState::Finished | JState::Dropped) {
            assert!(j.alloc.is_none(), "terminal job {} holds GPUs", j.spec.id);
        }
    }
    flog.elapsed_s = t.min(cfg.horizon_s);
    flog.gpu_capacity_s = cluster_gpu_capacity as f64 * flog.elapsed_s;
    let t_end = flog.elapsed_s;
    for j in &mut sjobs {
        j.flush_run(t_end);
        j.flush_alloc(t_end);
    }
    obs.timeline_close(t_end);

    let records: Vec<JobRecord> = sjobs
        .iter()
        .map(|j| JobRecord {
            id: j.spec.id,
            name: j.spec.name.clone(),
            submit_s: j.spec.submit_s,
            start_s: j.start_s,
            finish_s: j.finish_s,
            dropped: j.state == JState::Dropped,
            restarts: j.restarts,
            run_s: j.run_s,
            productive_gpu_s: j.productive_gpu_s,
            allocated_gpu_s: j.allocated_gpu_s,
            deadline_met: j
                .spec
                .deadline_s
                .map(|d| j.finish_s.is_some_and(|f| f <= d)),
        })
        .collect();
    let metrics = aggregate(&records, &timeline, &raw_timeline, &decisions, &flog);
    if obs.is_enabled() {
        let est = service.estimator_stats();
        obs.incr("estimator.estimate.hits", est.estimate_hits);
        obs.incr("estimator.estimate.misses", est.estimate_misses);
        obs.incr("estimator.profile.hits", est.profile_hits);
        obs.incr("estimator.profile.misses", est.profile_misses);
        obs.incr("estimator.table.hits", est.table_hits);
        obs.incr("estimator.table.misses", est.table_misses);
    }
    SimResult {
        policy: policy.name().to_string(),
        records,
        timeline,
        raw_timeline,
        metrics,
        trace: obs.report(),
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch(
    ev: SchedEvent,
    sjobs: &mut [SJob],
    cluster: &mut Cluster,
    service: &PlanService,
    policy: &mut dyn Policy,
    cfg: &SimConfig,
    t: f64,
    acquired: &mut std::collections::HashSet<(String, usize, usize, usize)>,
    decisions: &mut Vec<f64>,
    obs: &Obs,
) {
    let actions = {
        let queued: Vec<JobView> = sjobs
            .iter()
            .filter(|j| j.state == JState::Queued)
            .map(job_view)
            .collect();
        let running: Vec<JobView> = sjobs.iter().filter(|j| j.active()).map(job_view).collect();
        let pools = cluster.pool_stats();
        if obs.is_enabled() {
            obs.context(t, policy.name(), ev.label());
            obs.incr(&format!("sim.event.{}", ev.label()), 1);
            obs.gauge("sim.queue_depth", t, queued.len() as f64);
            obs.gauge("sim.running_jobs", t, running.len() as f64);
        }
        let view = SchedView {
            now_s: t,
            queued: &queued,
            running: &running,
            pools: &pools,
            service,
            obs: obs.clone(),
        };
        let started = std::time::Instant::now();
        let actions = {
            let _span = obs.span("sim.schedule");
            policy.schedule(ev, &view)
        };
        decisions.push(started.elapsed().as_secs_f64());
        obs.observe("sim.actions_per_pass", actions.len() as f64);
        actions
    };
    execute(
        &actions, sjobs, cluster, service, policy, cfg, t, acquired, obs,
    );
}

fn job_view(j: &SJob) -> JobView {
    JobView {
        spec: Arc::clone(&j.spec),
        remaining_iters: j.remaining,
        #[allow(clippy::unnecessary_lazy_evaluations)]
        placement: j.active().then(|| PlacementView {
            pool: arena_cluster::GpuTypeId(j.pool),
            gpus: j.gpus,
            throughput_sps: j.sps,
            opportunistic: j.opportunistic,
        }),
    }
}

fn raw_throughput(sjobs: &[SJob]) -> f64 {
    sjobs
        .iter()
        .filter(|j| j.state == JState::Running)
        .map(|j| j.sps)
        .sum()
}

fn normalized_throughput(sjobs: &[SJob], service: &PlanService) -> f64 {
    sjobs
        .iter()
        .filter(|j| j.state == JState::Running)
        .map(|j| j.sps / service.ideal_sps(&j.spec))
        .sum()
}

#[allow(clippy::too_many_arguments)]
fn execute(
    actions: &[Action],
    sjobs: &mut [SJob],
    cluster: &mut Cluster,
    service: &PlanService,
    policy: &dyn Policy,
    cfg: &SimConfig,
    t: f64,
    acquired: &mut std::collections::HashSet<(String, usize, usize, usize)>,
    obs: &Obs,
) {
    for action in actions {
        match *action {
            Action::Drop { job } => {
                let Some(j) = sjobs.iter_mut().find(|j| j.spec.id == job) else {
                    continue;
                };
                if matches!(j.state, JState::Finished | JState::Dropped) {
                    continue;
                }
                j.flush_run(t);
                j.flush_alloc(t);
                if let Some(alloc) = j.alloc.take() {
                    cluster.release(&alloc).expect("release dropped job");
                    obs.alloc_event(t, job, alloc.pool.0, &alloc.node_gpus, false);
                }
                j.state = JState::Dropped;
                obs.job_event(t, job, JobEventKind::Drop);
            }
            Action::Evict { job } => {
                let Some(j) = sjobs.iter_mut().find(|j| j.spec.id == job) else {
                    continue;
                };
                if j.active() {
                    j.flush_run(t);
                    j.flush_alloc(t);
                    if let Some(alloc) = j.alloc.take() {
                        cluster.release(&alloc).expect("release evicted job");
                        obs.alloc_event(t, job, alloc.pool.0, &alloc.node_gpus, false);
                    }
                    j.state = JState::Queued;
                    j.restarts += 1;
                    j.opportunistic = false;
                    obs.job_event(
                        t,
                        job,
                        JobEventKind::Stop {
                            cause: StopCause::Preemption,
                            lost_iters: 0.0,
                        },
                    );
                }
            }
            Action::Place {
                job,
                pool,
                gpus,
                opportunistic,
            } => {
                let Some(j) = sjobs.iter_mut().find(|j| j.spec.id == job) else {
                    continue;
                };
                if matches!(j.state, JState::Finished | JState::Dropped) {
                    continue;
                }
                if j.active() && j.pool == pool.0 && j.gpus == gpus {
                    continue;
                }
                let run = match policy.plan_mode() {
                    PlanMode::Adaptive => service.adaptive_run(&j.spec.model, gpus, pool),
                    PlanMode::Cell => service.arena_run(&j.spec.model, gpus, pool),
                };
                let Some(run) = run else {
                    obs.incr("sim.place.infeasible", 1);
                    obs.decision(
                        Decision::requeue(job)
                            .on_shard(j.spec.requested_pool as u32)
                            .why("infeasible-placement"),
                    );
                    continue;
                };
                let was_active = j.active();
                let prev_grant = was_active.then_some((j.pool, j.gpus));
                j.flush_run(t);
                j.flush_alloc(t);
                if let Some(alloc) = j.alloc.take() {
                    cluster.release(&alloc).expect("release re-placed job");
                    obs.alloc_event(t, job, alloc.pool.0, &alloc.node_gpus, false);
                }
                match cluster.allocate(pool, gpus) {
                    Ok(alloc) => {
                        if was_active {
                            j.restarts += 1;
                        }
                        obs.alloc_event(t, job, pool.0, &alloc.node_gpus, true);
                        let key = (j.spec.model.name(), j.spec.model.global_batch, gpus, pool.0);
                        let first = acquired.insert(key);
                        let state_bytes = 8.0 * service.graph(&j.spec.model).total_param_bytes();
                        let ckpt = 2.0 * state_bytes / cfg.checkpoint_bw_bps;
                        let delay = cfg.restart_overhead_s
                            + ckpt
                            + if first { run.acquire_wall_s } else { 0.0 };
                        j.profiled = true;
                        j.alloc = Some(alloc);
                        j.pool = pool.0;
                        j.gpus = gpus;
                        j.opportunistic = opportunistic;
                        j.sps = run.throughput_sps;
                        j.iter_time = run.iter_time_s;
                        j.state = JState::Starting(t + delay);
                        j.alloc_since = Some(t);
                        obs.incr("sim.place.ok", 1);
                        obs.job_event(
                            t,
                            job,
                            JobEventKind::Place {
                                pool: pool.0,
                                gpus,
                                prev: prev_grant,
                                opportunistic,
                            },
                        );
                    }
                    Err(_) => {
                        if was_active {
                            j.restarts += 1;
                            obs.job_event(
                                t,
                                job,
                                JobEventKind::Stop {
                                    cause: StopCause::CapacityRace,
                                    lost_iters: 0.0,
                                },
                            );
                        }
                        j.state = JState::Queued;
                        obs.incr("sim.place.capacity_race", 1);
                        obs.decision(
                            Decision::requeue(job)
                                .on_shard(j.spec.requested_pool as u32)
                                .why("capacity-race"),
                        );
                    }
                }
            }
        }
    }
}
