//! Determinism contracts for the scheduling hot path.
//!
//! The worker pool, the estimator's caches and the candidate memo are
//! pure performance features: none of them may change a single byte of
//! scheduler output. These tests pin that down:
//!
//! 1. **Ignored worker argument** — `policy_by_name("arena", n)` builds
//!    the same policy at any `n` (decision log, job records, timelines,
//!    metrics; only the wall-clock decision timer is exempt).
//! 2. **Memo invariance** — an Arena policy keeping its candidate memo
//!    across runs on one plan service, with and without faults, emits
//!    exactly what a fresh policy per pass emits.
//! 3. **Policy fan-out invariance** — `run_policies_parallel` returns
//!    the same results at any pool size, in submission order.
//! 4. **One estimate per Cell choice** — once a round has chosen its
//!    Cells, further rounds and the tuning of a placed job make no
//!    estimator lookup.

use arena::cluster::{GpuSpec, NodeSpec};
use arena::experiments::run_policies_parallel;
use arena::prelude::*;
use arena::sched::{
    policy_by_name, Action, ArenaVariant, JobView, PlanMode, SchedEvent, SchedView,
};
use arena::trace::{generate_faults, FaultConfig, FaultEvent};

fn steady_trace(n: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            let fam =
                [ModelFamily::Bert, ModelFamily::Moe, ModelFamily::WideResNet][(i % 3) as usize];
            let size = match fam {
                ModelFamily::Bert => [0.76, 1.3][(i % 2) as usize],
                ModelFamily::Moe => [0.69, 1.3][(i % 2) as usize],
                ModelFamily::WideResNet => [0.5, 1.0][(i % 2) as usize],
            };
            JobSpec {
                id: i,
                name: format!("j{i}"),
                submit_s: 120.0 * i as f64,
                model: ModelConfig::new(fam, size, 256),
                iterations: 2500 + 600 * (i % 4),
                requested_gpus: [2, 4, 8][(i % 3) as usize],
                requested_pool: (i % 2) as usize,
                deadline_s: None,
            }
        })
        .collect()
}

/// Everything observable about a run except wall-clock decision timing,
/// as one comparable string.
fn fingerprint(mut r: SimResult) -> String {
    r.metrics.avg_decision_s = 0.0;
    format!(
        "policy={}\nmetrics={}\nrecords={:?}\ntimeline={:?}\nraw={:?}\ndecisions=\n{}",
        r.policy,
        serde_json::to_string(&r.metrics).expect("metrics serialise"),
        r.records,
        r.timeline,
        r.raw_timeline,
        r.trace.decisions_jsonl(),
    )
}

fn traced_arena_run(policy: &mut dyn Policy) -> SimResult {
    let cluster = arena::cluster::presets::physical_testbed();
    let service = PlanService::new(&cluster, CostParams::default(), 33);
    traced_run_on(&cluster, &service, policy, &steady_trace(16), &[])
}

fn traced_run_on(
    cluster: &Cluster,
    service: &PlanService,
    policy: &mut dyn Policy,
    jobs: &[JobSpec],
    faults: &[FaultEvent],
) -> SimResult {
    let cfg = SimConfig::new(24.0 * 3600.0);
    let obs = Obs::enabled();
    Run::new(cluster, policy, service, &cfg)
        .obs(&obs)
        .faults(faults)
        .batch(jobs)
}

/// Arena with a cold candidate memo on every pass: each `schedule` call
/// goes to a fresh `ArenaPolicy` of the variant, whose only state is
/// that memo.
struct FreshArena(ArenaVariant);

impl Policy for FreshArena {
    fn name(&self) -> &'static str {
        ArenaPolicy::with_variant(self.0).name()
    }

    fn plan_mode(&self) -> PlanMode {
        ArenaPolicy::with_variant(self.0).plan_mode()
    }

    fn schedule(&mut self, event: SchedEvent, view: &SchedView<'_>) -> Vec<Action> {
        ArenaPolicy::with_variant(self.0).schedule(event, view)
    }
}

/// `policy_by_name`'s second argument once sized Arena's in-decision
/// worker pool; it is ignored now and must stay so until it is removed.
#[test]
fn policy_by_name_ignores_the_worker_argument() {
    let run = |workers: usize| {
        let mut policy = policy_by_name("arena", workers).expect("arena is a policy name");
        fingerprint(traced_arena_run(policy.as_mut()))
    };
    assert_eq!(
        run(1),
        run(8),
        "the worker argument changed scheduler output"
    );
}

#[test]
fn memo_cold_and_warm_paths_are_identical() {
    // Two identical pools: a candidate scores the same in both, so the
    // pools' failures decide the failure-aware ranking.
    let node = NodeSpec::with_default_links(GpuSpec::A40, 2);
    let cluster = Cluster::new(&[(node, 16), (node, 16)]);
    let service = PlanService::new(&cluster, CostParams::default(), 33);
    let mut cfg = FaultConfig::with_mtbf(4.0 * 3600.0);
    cfg.repair_median_s = 900.0;
    let faults = generate_faults(&cfg, &[16, 16], 24.0 * 3600.0);
    // Every model configuration is requested at each GPU count and in
    // both pools, so a memo key that dropped a class field would hand
    // one class's candidates to another (the requested pool matters to
    // Arena-NH only).
    let jobs: Vec<JobSpec> = steady_trace(24)
        .into_iter()
        .map(|mut j| {
            j.requested_gpus = [2, 4, 8][(j.id / 6 % 3) as usize];
            j.requested_pool = (j.id / 2 % 2) as usize;
            j
        })
        .collect();
    for variant in [ArenaVariant::Full, ArenaVariant::NoHeterogeneity] {
        // One policy for every run: its memo fills on the fault-free
        // runs and is read warm while faults degrade pools.
        let mut policy = ArenaPolicy::with_variant(variant);
        for faults in [&[][..], &faults[..]] {
            let fresh = traced_run_on(&cluster, &service, &mut FreshArena(variant), &jobs, faults);
            if !faults.is_empty() {
                assert!(
                    fresh.metrics.failure_evictions > 0,
                    "the fault schedule never hit a running job"
                );
            }
            let fresh = fingerprint(fresh);
            for pass in ["first", "second"] {
                let memo = fingerprint(traced_run_on(
                    &cluster,
                    &service,
                    &mut policy,
                    &jobs,
                    faults,
                ));
                assert_eq!(
                    memo,
                    fresh,
                    "the memo changed {variant:?}'s output ({pass} run, {} faults)",
                    faults.len()
                );
            }
        }
    }
}

#[test]
fn policy_fanout_matches_sequential_pool() {
    let cluster = arena::cluster::presets::physical_testbed();
    let jobs = steady_trace(10);
    let cfg = SimConfig::new(12.0 * 3600.0);
    let run = |threads: usize| -> Vec<String> {
        run_policies_parallel(
            &cluster,
            &jobs,
            arena::experiments::comparison_policies(),
            &CostParams::default(),
            7,
            &cfg,
            &WorkerPool::new(threads),
        )
        .into_iter()
        .map(fingerprint)
        .collect()
    };
    let sequential = run(1);
    let parallel = run(4);
    assert_eq!(sequential.len(), 5);
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s, p, "policy fan-out changed a result");
    }
}

#[test]
fn steady_rounds_make_no_estimator_lookups() {
    let cluster = arena::cluster::presets::physical_testbed();
    let service = PlanService::new(&cluster, CostParams::default(), 9);
    let queued: Vec<JobView> = steady_trace(8)
        .into_iter()
        .map(|spec| JobView {
            remaining_iters: spec.iterations as f64,
            spec: std::sync::Arc::new(spec),
            placement: None,
        })
        .collect();
    let pools = cluster.pool_stats();
    // A fresh policy per round, so every round enumerates its candidates
    // through `PlanService::cell_choice` with a cold candidate memo.
    let round = || {
        let view = SchedView {
            now_s: 0.0,
            queued: &queued,
            running: &[],
            pools: &pools,
            service: &service,
            obs: Obs::disabled(),
        };
        ArenaPolicy::new().schedule(SchedEvent::Round, &view)
    };
    let lookups = || {
        let stats = service.estimator_stats();
        stats.estimate_hits + stats.estimate_misses
    };
    let first = round();
    let cold = lookups();
    assert!(cold > 0, "the first round never reached the estimator");
    for _ in 0..29 {
        let _ = round();
    }
    // Tuning a placed job reads the favors its Cell choice carries.
    let (job, pool, gpus) = first
        .iter()
        .find_map(|a| match *a {
            Action::Place {
                job, pool, gpus, ..
            } => Some((job, pool, gpus)),
            _ => None,
        })
        .expect("the first round places a job");
    let model = queued
        .iter()
        .find(|v| v.spec.id == job)
        .expect("placed job is queued")
        .spec
        .model;
    assert!(service.arena_run(&model, gpus, pool).is_some());
    assert_eq!(
        lookups(),
        cold,
        "steady rounds or a warm arena_run re-estimated a Cell the plan \
         database already chose"
    );
}
