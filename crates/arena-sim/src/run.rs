//! The run builder: one whole-trace simulation over [`Engine`].
//!
//! Every experiment, bench and test drives the simulator through
//! [`Run`]: pick the cluster, policy, plan service and configuration,
//! optionally add a fault schedule ([`Run::faults`]) or an
//! observability handle ([`Run::obs`]), then run a sorted trace to
//! completion ([`Run::batch`]) or stream one from a [`TraceSource`] in
//! bounded memory ([`Run::stream`]). Both drive the same [`Engine`] the
//! daemon drives one command at a time.

use arena_cluster::Cluster;
use arena_obs::Obs;
use arena_sched::{PlanService, Policy};
use arena_trace::{FaultEvent, JobSpec, TraceSource};

use crate::incremental::{Engine, ShardPlan, SimConfig, SimResult};
use crate::stream::{self, StreamSummary};

/// A simulation run being configured; see the module docs.
///
/// # Examples
///
/// ```
/// use arena_cluster::presets;
/// use arena_perf::CostParams;
/// use arena_sched::{FcfsPolicy, PlanService};
/// use arena_sim::{Run, SimConfig};
/// use arena_trace::{generate, TraceConfig, TraceKind};
///
/// let cluster = presets::physical_testbed();
/// let service = PlanService::new(&cluster, CostParams::default(), 1);
/// let trace = TraceConfig::new(TraceKind::PaiLow, 1800.0, 64, vec![48.0, 24.0]);
/// let jobs = generate(&trace);
/// let cfg = SimConfig::new(24.0 * 3600.0);
/// let result = Run::new(&cluster, &mut FcfsPolicy::new(), &service, &cfg).batch(&jobs);
/// assert_eq!(
///     result.metrics.finished + result.metrics.dropped + result.metrics.unfinished,
///     jobs.len()
/// );
/// ```
pub struct Run<'a> {
    cluster: &'a Cluster,
    policy: &'a mut dyn Policy,
    service: &'a PlanService,
    cfg: &'a SimConfig,
    faults: &'a [FaultEvent],
    obs: Obs,
}

impl<'a> Run<'a> {
    /// A fault-free, unobserved run.
    #[must_use]
    pub fn new(
        cluster: &'a Cluster,
        policy: &'a mut dyn Policy,
        service: &'a PlanService,
        cfg: &'a SimConfig,
    ) -> Self {
        Run {
            cluster,
            policy,
            service,
            cfg,
            faults: &[],
            obs: Obs::disabled(),
        }
    }

    /// Injects a node-failure schedule (see
    /// [`arena_trace::generate_faults`]), sorted by time.
    ///
    /// A `Failure` event marks the node failed in the cluster books,
    /// evicts every job whose allocation touches it, rolls each victim's
    /// progress back to its last checkpoint (`checkpoint_interval_s`),
    /// requeues the victims and notifies the policy with
    /// [`arena_sched::SchedEvent::NodeFailure`]; a `Repair` restores the
    /// node's capacity and fires [`arena_sched::SchedEvent::NodeRepair`].
    /// An empty schedule is exactly a fault-free run.
    #[must_use]
    pub fn faults(mut self, faults: &'a [FaultEvent]) -> Self {
        self.faults = faults;
        self
    }

    /// Records decision provenance and the job timeline into `obs`,
    /// which a batch run returns in [`SimResult::trace`], and spans,
    /// counters, gauges and histograms into its registry
    /// ([`Obs::metrics`]). Engine-side provenance — node-failure
    /// evictions, capacity races, infeasible placements — is recorded as
    /// [`arena_obs::DecisionKind::Requeue`] decisions so it never mixes
    /// with the policies' own records. `Obs::disabled()`, the default,
    /// records nothing and changes no output.
    #[must_use]
    pub fn obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Runs `jobs`, sorted by submission time (trace generators produce
    /// this order), to completion or the horizon.
    ///
    /// # Panics
    ///
    /// Panics if the trace or the fault schedule is unsorted, if a fault
    /// names a node the cluster does not have, or if the cluster books
    /// are corrupted by inconsistent policy actions (a bug, not an input
    /// error).
    #[must_use]
    pub fn batch(self, jobs: &[JobSpec]) -> SimResult {
        assert!(
            jobs.windows(2).all(|w| w[0].submit_s <= w[1].submit_s),
            "trace must be sorted by submission time"
        );
        let faults = self.faults;
        let mut engine = self.engine();
        // The trace was checked above; bypassing the per-input checks
        // keeps the batch semantics (e.g. tolerated duplicate ids).
        for job in jobs {
            engine.push_job_unchecked(job.clone());
        }
        for fault in faults {
            engine.push_fault_unchecked(fault.clone());
        }
        engine.close_input();
        engine.run_to_end();
        engine.finish()
    }

    /// Pulls arrivals from `source` and runs them in record-fold mode:
    /// resident memory follows the live job count, not the trace length
    /// (see [`crate::stream`]). Schedules byte-identically to
    /// [`Run::batch`] on the same trace.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the trace source.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Run::batch`].
    pub fn stream(self, source: &mut dyn TraceSource) -> std::io::Result<StreamSummary> {
        let faults = self.faults;
        let mut engine = self.engine();
        engine.enable_record_fold();
        stream::pump(&mut engine, source, faults)?;
        Ok(engine.finish_stream())
    }

    fn engine(self) -> Engine<'a> {
        assert!(
            self.faults.windows(2).all(|w| w[0].time_s <= w[1].time_s),
            "fault schedule must be sorted by time"
        );
        Engine::new(
            self.cluster,
            self.policy,
            self.service,
            self.cfg,
            &self.obs,
            &ShardPlan,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arena_cluster::presets;
    use arena_model::zoo::{ModelConfig, ModelFamily};
    use arena_obs::{JobEventKind, StopCause};
    use arena_perf::CostParams;
    use arena_sched::{ArenaPolicy, FcfsPolicy, GavelPolicy};
    use arena_trace::FaultKind;

    fn tiny_trace() -> Vec<JobSpec> {
        let mk = |id: u64, submit: f64, size: f64, gpus: usize, iters: u64| JobSpec {
            id,
            name: format!("j{id}"),
            submit_s: submit,
            model: ModelConfig::new(ModelFamily::Bert, size, 256),
            iterations: iters,
            requested_gpus: gpus,
            requested_pool: 0,
            deadline_s: None,
        };
        vec![
            mk(0, 0.0, 0.76, 4, 300),
            mk(1, 100.0, 1.3, 8, 200),
            mk(2, 200.0, 0.76, 2, 400),
            mk(3, 2000.0, 1.3, 4, 200),
        ]
    }

    /// The tiny trace on the testbed under `cfg`, with a fresh service.
    fn go(policy: &mut dyn Policy, cfg: &SimConfig, faults: &[FaultEvent], obs: &Obs) -> SimResult {
        let cluster = presets::physical_testbed();
        let service = PlanService::new(&cluster, CostParams::default(), 11);
        Run::new(&cluster, policy, &service, cfg)
            .faults(faults)
            .obs(obs)
            .batch(&tiny_trace())
    }

    fn run(policy: &mut dyn Policy) -> SimResult {
        go(
            policy,
            &SimConfig::new(48.0 * 3600.0),
            &[],
            &Obs::disabled(),
        )
    }

    /// Fails `nodes` nodes of pool 0 at `fail_t`, repairs them at
    /// `repair_t`.
    fn pool0_outage(fail_t: f64, repair_t: f64, nodes: usize) -> Vec<FaultEvent> {
        let mut evs: Vec<FaultEvent> = (0..nodes)
            .map(|n| FaultEvent {
                time_s: fail_t,
                pool: 0,
                node: n,
                kind: FaultKind::Failure,
            })
            .collect();
        evs.extend((0..nodes).map(|n| FaultEvent {
            time_s: repair_t,
            pool: 0,
            node: n,
            kind: FaultKind::Repair,
        }));
        evs
    }

    /// No checkpoints: a crash loses everything since the run began.
    fn never_checkpoint() -> SimConfig {
        let mut cfg = SimConfig::new(48.0 * 3600.0);
        cfg.checkpoint_interval_s = f64::INFINITY;
        cfg
    }

    #[test]
    fn fcfs_finishes_everything() {
        let r = run(&mut FcfsPolicy::new());
        assert_eq!(r.metrics.finished, 4, "records: {:#?}", r.records);
        assert_eq!(r.metrics.dropped, 0);
        assert_eq!(r.metrics.unfinished, 0);
        for rec in &r.records {
            let jct = rec.jct_s().unwrap();
            assert!(jct > 0.0);
            let q = rec.queue_s().unwrap();
            assert!(q >= 0.0 && q <= jct);
        }
    }

    #[test]
    fn arena_finishes_everything_and_beats_or_matches_fcfs_jct() {
        let fcfs = run(&mut FcfsPolicy::new());
        let arena = run(&mut ArenaPolicy::new());
        assert_eq!(arena.metrics.finished, 4);
        // On this under-loaded toy trace both finish everything; Arena
        // must not be wildly worse despite its profiling delays.
        assert!(
            arena.metrics.avg_jct_s < 2.5 * fcfs.metrics.avg_jct_s,
            "arena {} vs fcfs {}",
            arena.metrics.avg_jct_s,
            fcfs.metrics.avg_jct_s
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = run(&mut GavelPolicy::new());
        let b = run(&mut GavelPolicy::new());
        assert_eq!(a.metrics.avg_jct_s, b.metrics.avg_jct_s);
        assert_eq!(a.metrics.finished, b.metrics.finished);
        assert_eq!(a.timeline.len(), b.timeline.len());
    }

    #[test]
    fn timeline_is_sampled_and_bounded() {
        let r = run(&mut FcfsPolicy::new());
        assert!(!r.timeline.is_empty());
        for &(time, v) in &r.timeline {
            assert!(time >= 0.0);
            // Normalised throughput of 4 jobs can never exceed ~4 plus
            // noise slack.
            assert!((0.0..=5.0).contains(&v), "throughput {v} at {time}");
        }
    }

    #[test]
    fn horizon_cuts_off_unfinished_jobs() {
        let r = go(
            &mut FcfsPolicy::new(),
            &SimConfig::new(2500.0),
            &[],
            &Obs::disabled(),
        );
        assert!(r.metrics.finished < 4);
        assert_eq!(
            r.metrics.finished + r.metrics.unfinished + r.metrics.dropped,
            4
        );
    }

    #[test]
    fn slower_checkpoints_stretch_jcts() {
        let with_bw = |bw: f64| {
            let mut cfg = SimConfig::new(48.0 * 3600.0);
            cfg.checkpoint_bw_bps = bw;
            go(&mut FcfsPolicy::new(), &cfg, &[], &Obs::disabled())
        };
        let fast = with_bw(20.0e9);
        let slow = with_bw(0.1e9);
        assert!(
            slow.metrics.avg_jct_s > fast.metrics.avg_jct_s,
            "slow {} <= fast {}",
            slow.metrics.avg_jct_s,
            fast.metrics.avg_jct_s
        );
    }

    #[test]
    fn empty_fault_schedule_matches_a_fault_free_run() {
        let cluster = presets::physical_testbed();
        let service = PlanService::new(&cluster, CostParams::default(), 11);
        let cfg = SimConfig::new(48.0 * 3600.0);
        let a = Run::new(&cluster, &mut FcfsPolicy::new(), &service, &cfg).batch(&tiny_trace());
        let b = go(
            &mut FcfsPolicy::new(),
            &SimConfig::new(48.0 * 3600.0),
            &[],
            &Obs::disabled(),
        );
        assert_eq!(a.metrics.avg_jct_s, b.metrics.avg_jct_s);
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(b.metrics.failure_evictions, 0);
        assert_eq!(b.metrics.work_lost_frac, 0.0);
        assert_eq!(b.metrics.mean_recovery_s, 0.0);
        assert!(b.metrics.goodput_sps > 0.0);
    }

    #[test]
    fn node_failures_evict_roll_back_and_recover() {
        let faults = pool0_outage(1000.0, 5000.0, 16);
        let r = go(
            &mut FcfsPolicy::new(),
            &never_checkpoint(),
            &faults,
            &Obs::disabled(),
        );
        assert!(
            r.metrics.failure_evictions > 0,
            "outage hit nobody: {:#?}",
            r.records
        );
        assert!(r.metrics.work_lost_frac > 0.0);
        assert!(r.metrics.mean_recovery_s > 0.0);
        assert_eq!(r.metrics.finished, 4, "records: {:#?}", r.records);
        // Goodput excludes the re-done work, so it sits strictly below
        // the zero-fault run's.
        let baseline = run(&mut FcfsPolicy::new());
        assert!(r.metrics.goodput_sps > 0.0);
        assert!(r.metrics.avg_jct_s > baseline.metrics.avg_jct_s);
    }

    #[test]
    fn shorter_checkpoint_interval_loses_less_work() {
        let faults = pool0_outage(1000.0, 5000.0, 16);
        let run_with = |interval: f64| {
            let mut cfg = SimConfig::new(48.0 * 3600.0);
            cfg.checkpoint_interval_s = interval;
            go(&mut FcfsPolicy::new(), &cfg, &faults, &Obs::disabled())
        };
        let short = run_with(300.0);
        let never = run_with(f64::INFINITY);
        assert!(never.metrics.work_lost_frac > 0.0);
        assert!(
            short.metrics.work_lost_frac < never.metrics.work_lost_frac,
            "short {} vs never {}",
            short.metrics.work_lost_frac,
            never.metrics.work_lost_frac
        );
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let faults = arena_trace::generate_faults(
            &arena_trace::FaultConfig::with_mtbf(20_000.0),
            &[16, 16],
            48.0 * 3600.0,
        );
        assert!(!faults.is_empty());
        let cfg = SimConfig::new(48.0 * 3600.0);
        let a = go(&mut GavelPolicy::new(), &cfg, &faults, &Obs::disabled());
        let b = go(&mut GavelPolicy::new(), &cfg, &faults, &Obs::disabled());
        assert_eq!(a.metrics.avg_jct_s, b.metrics.avg_jct_s);
        assert_eq!(a.metrics.failure_evictions, b.metrics.failure_evictions);
        assert_eq!(a.metrics.goodput_sps, b.metrics.goodput_sps);
        assert_eq!(a.timeline, b.timeline);
        let ra: Vec<u32> = a.records.iter().map(|r| r.restarts).collect();
        let rb: Vec<u32> = b.records.iter().map(|r| r.restarts).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn traced_run_produces_a_valid_timeline_with_matching_gpu_seconds() {
        let r = go(
            &mut FcfsPolicy::new(),
            &SimConfig::new(48.0 * 3600.0),
            &[],
            &Obs::enabled(),
        );
        let tl = &r.trace.timeline;
        assert!(!tl.is_empty(), "traced run recorded no timeline");
        tl.validate().expect("timeline passes the state machine");
        assert_eq!(tl.nodes.len(), 32, "testbed has 2 pools x 16 nodes");
        let accounts = tl.accounts();
        for rec in &r.records {
            let acc = &accounts[&rec.id];
            assert_eq!(acc.productive_gpu_s, rec.productive_gpu_s, "job {}", rec.id);
            assert_eq!(acc.allocated_gpu_s, rec.allocated_gpu_s, "job {}", rec.id);
            assert_eq!(acc.run_s, rec.run_s, "job {}", rec.id);
            assert!(rec.allocated_gpu_s >= rec.productive_gpu_s);
        }
        assert!(r.metrics.productive_gpu_s > 0.0);
        assert!(r.metrics.cluster_util_frac > 0.0);
        assert!(r.metrics.cluster_util_frac <= 1.0);
        let util = tl.utilization();
        assert!(!util.is_empty());
        assert!(util.iter().all(|s| s.busy_gpus <= s.total_gpus));
    }

    #[test]
    fn faulted_timeline_records_node_failure_stops() {
        let faults = pool0_outage(1000.0, 5000.0, 16);
        let r = go(
            &mut FcfsPolicy::new(),
            &never_checkpoint(),
            &faults,
            &Obs::enabled(),
        );
        let tl = &r.trace.timeline;
        tl.validate().unwrap();
        let stops: Vec<f64> = tl
            .events
            .iter()
            .filter_map(|e| match e.kind {
                JobEventKind::Stop {
                    cause: StopCause::NodeFailure,
                    lost_iters,
                } => Some(lost_iters),
                _ => None,
            })
            .collect();
        assert_eq!(stops.len(), r.metrics.failure_evictions);
        assert!(
            stops.iter().any(|&l| l > 0.0),
            "no rollback recorded: {stops:?}"
        );
        let accounts = tl.accounts();
        for rec in &r.records {
            assert_eq!(
                accounts[&rec.id].productive_gpu_s, rec.productive_gpu_s,
                "job {}",
                rec.id
            );
        }
    }

    #[test]
    fn admission_refuses_unsatisfiable_jobs() {
        use crate::incremental::InputError;
        let cluster = presets::physical_testbed();
        let service = PlanService::new(&cluster, CostParams::default(), 11);
        let cfg = SimConfig::new(1000.0);
        let mut policy = FcfsPolicy::new();
        let mut engine = Engine::new(
            &cluster,
            &mut policy,
            &service,
            &cfg,
            &Obs::disabled(),
            &ShardPlan,
        );
        // A failed node still counts toward its pool's 32 GPUs: a repair
        // can bring them back.
        engine
            .inject_fault(pool0_outage(0.0, 500.0, 1).remove(0))
            .expect("known node");
        engine.advance_before(1.0);
        let with = |edit: fn(&mut JobSpec)| {
            let mut spec = tiny_trace().remove(0);
            edit(&mut spec);
            spec
        };
        let gpus = |requested| InputError::UnsatisfiableGpus {
            requested,
            pool_gpus: 32,
        };
        assert_eq!(
            engine.check_submit(&with(|s| s.requested_gpus = 32)),
            Ok(())
        );
        assert_eq!(
            engine.check_submit(&with(|s| s.requested_gpus = 33)),
            Err(gpus(33))
        );
        assert_eq!(
            engine.check_submit(&with(|s| s.requested_gpus = 0)),
            Err(gpus(0))
        );
        assert_eq!(
            engine.check_submit(&with(|s| s.iterations = 0)),
            Err(InputError::ZeroIterations)
        );
        assert_eq!(
            engine.check_submit(&with(|s| s.model.global_batch = 0)),
            Err(InputError::ZeroBatch)
        );
    }

    #[test]
    fn admission_refuses_inputs_at_or_past_the_horizon() {
        use crate::incremental::InputError;
        let cluster = presets::physical_testbed();
        let service = PlanService::new(&cluster, CostParams::default(), 11);
        let cfg = SimConfig::new(1000.0);
        let mut policy = FcfsPolicy::new();
        let mut engine = Engine::new(
            &cluster,
            &mut policy,
            &service,
            &cfg,
            &Obs::disabled(),
            &ShardPlan,
        );
        let job = |id: u64, submit_s: f64, deadline_s: Option<f64>| JobSpec {
            id,
            submit_s,
            deadline_s,
            ..tiny_trace().remove(0)
        };
        let past = |got_s| InputError::PastHorizon {
            horizon_s: 1000.0,
            got_s,
        };
        assert_eq!(engine.check_submit(&job(0, 999.0, None)), Ok(()));
        for t in [1000.0, 1e300] {
            assert_eq!(engine.submit(job(0, t, None)), Err(past(t)));
        }
        for d in [-5.0, f64::INFINITY, f64::NAN] {
            let refused = engine.submit(job(0, 0.0, Some(d)));
            assert!(
                matches!(refused, Err(InputError::InvalidDeadline(got)) if got.to_bits() == d.to_bits()),
                "deadline {d}: {refused:?}"
            );
        }
        let fault = |time_s| FaultEvent {
            time_s,
            ..pool0_outage(0.0, 1.0, 1).remove(0)
        };
        assert_eq!(engine.inject_fault(fault(1000.0)), Err(past(1000.0)));
        // Refused inputs moved no watermark: valid input still lands.
        assert_eq!(engine.inject_fault(fault(500.0)), Ok(()));
        assert_eq!(engine.submit(job(0, 10.0, Some(0.0))), Ok(()));
        assert_eq!(engine.submit(job(1, 999.0, None)), Ok(()));
    }

    #[test]
    fn telemetry_plane_is_invisible_in_output() {
        use arena_obs::MetricsRegistry;
        use std::sync::Arc;
        let cfg = SimConfig::new(48.0 * 3600.0);
        let off = go(&mut FcfsPolicy::new(), &cfg, &[], &Obs::disabled());
        let registry = Arc::new(MetricsRegistry::new(64));
        let on = go(
            &mut FcfsPolicy::new(),
            &cfg,
            &[],
            &Obs::metrics_only(Arc::clone(&registry)),
        );
        // The live plane must not perturb a single simulated byte.
        assert_eq!(on.metrics.avg_jct_s, off.metrics.avg_jct_s);
        assert_eq!(on.timeline, off.timeline);
        assert_eq!(on.raw_timeline, off.raw_timeline);
        // ... while the registry fills with per-stage data, every stage
        // of the decision loop included.
        let counters = registry.counters_snapshot();
        assert!(counters["sim.event.arrival"] >= tiny_trace().len() as u64);
        assert!(counters.contains_key("sim.place.ok"));
        let hists = registry.histograms_snapshot();
        for stage in [
            "sim.stage.burst_seconds",
            "sim.shard.merge",
            "sim.shard.prepare",
            "sim.schedule",
            "sim.commit",
            "sim.sample",
            "sim.advance",
            "sim.arrive",
        ] {
            assert!(hists[stage].count > 0, "{stage} empty");
        }
        let text = registry.expose();
        assert!(text.contains("sim_heap_depth "));
        assert!(text.contains("sim_estimator_table_hit_ratio"));
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_fault_schedule_rejected() {
        let mut faults = pool0_outage(1000.0, 5000.0, 2);
        faults.reverse();
        let _ = go(
            &mut FcfsPolicy::new(),
            &SimConfig::new(1000.0),
            &faults,
            &Obs::disabled(),
        );
    }

    #[test]
    #[should_panic(expected = "sorted by submission")]
    fn unsorted_trace_rejected() {
        let cluster = presets::physical_testbed();
        let service = PlanService::new(&cluster, CostParams::default(), 11);
        let mut jobs = tiny_trace();
        jobs.swap(0, 3);
        let _ = Run::new(
            &cluster,
            &mut FcfsPolicy::new(),
            &service,
            &SimConfig::new(1000.0),
        )
        .batch(&jobs);
    }
}
