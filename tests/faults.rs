//! Fault-injection hardening: health-aware allocator invariants, bitwise
//! determinism of faulty simulations, and the policy conformance matrix
//! under node failures.

use proptest::prelude::*;

use arena::cluster::{Allocation, Cluster, GpuSpec, GpuTypeId, NodeHealth, NodeSpec};
use arena::prelude::*;
use arena::trace::{generate_faults, FaultConfig, FaultEvent, FaultKind};

fn two_pool_cluster() -> Cluster {
    Cluster::new(&[
        (NodeSpec::with_default_links(GpuSpec::A100, 4), 3),
        (NodeSpec::with_default_links(GpuSpec::A10, 2), 4),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of allocate / release / fail_node / repair_node
    /// conserves GPUs (free + allocated + failed == capacity per pool)
    /// and never grants an allocation touching a failed node.
    #[test]
    fn health_books_balance(ops in proptest::collection::vec((0_usize..4, 0_usize..24), 1..80)) {
        let mut cluster = two_pool_cluster();
        let totals = [12_usize, 8];
        let nodes = [3_usize, 4];
        let mut live: Vec<Allocation> = Vec::new();
        for (sel, n) in ops {
            match sel {
                0 | 1 => {
                    let pool = GpuTypeId(sel);
                    let want = n % 8 + 1;
                    match cluster.allocate(pool, want) {
                        Ok(a) => {
                            prop_assert_eq!(a.total_gpus(), want);
                            // Grants never touch non-healthy nodes.
                            for &(node, _) in &a.node_gpus {
                                prop_assert_eq!(
                                    cluster.node_health(pool, node).unwrap(),
                                    NodeHealth::Healthy
                                );
                            }
                            live.push(a);
                        }
                        Err(_) => {
                            // May only fail when healthy capacity is short.
                            prop_assert!(cluster.free_gpus(pool) < want);
                        }
                    }
                }
                2 => {
                    if !live.is_empty() {
                        let a = live.swap_remove(n % live.len());
                        cluster.release(&a).expect("release succeeds");
                    }
                }
                _ => {
                    let pool = GpuTypeId(n % 2);
                    let node = n % nodes[pool.0];
                    match cluster.node_health(pool, node).unwrap() {
                        NodeHealth::Healthy => cluster.fail_node(pool, node).unwrap(),
                        _ => cluster.repair_node(pool, node).unwrap(),
                    }
                }
            }
            // Conservation holds after every operation.
            for (i, &total) in totals.iter().enumerate() {
                let id = GpuTypeId(i);
                prop_assert_eq!(
                    cluster.free_gpus(id) + cluster.used_gpus(id) + cluster.failed_gpus(id),
                    total
                );
            }
        }
        // Releasing everything and repairing all nodes restores capacity.
        for a in live.drain(..) {
            cluster.release(&a).expect("final release");
        }
        for (i, &count) in nodes.iter().enumerate() {
            for node in 0..count {
                let _ = cluster.repair_node(GpuTypeId(i), node);
            }
        }
        for (i, &total) in totals.iter().enumerate() {
            prop_assert_eq!(cluster.free_gpus(GpuTypeId(i)), total);
        }
    }
}

fn small_trace(n: u64) -> Vec<JobSpec> {
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
                submit_s: 60.0 * i as f64,
                model: ModelConfig::new(fam, size, 256),
                iterations: 150 + 40 * (i % 4),
                requested_gpus: [2, 4, 8][(i % 3) as usize],
                requested_pool: (i % 2) as usize,
                deadline_s: None,
            }
        })
        .collect()
}

fn testbed_faults(horizon_s: f64) -> Vec<FaultEvent> {
    let mut cfg = FaultConfig::with_mtbf(4.0 * 3600.0);
    cfg.repair_median_s = 900.0;
    generate_faults(&cfg, &[16, 16], horizon_s)
}

#[test]
fn faulty_simulation_is_bitwise_deterministic() {
    let cluster = arena::cluster::presets::physical_testbed();
    let jobs = small_trace(10);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let faults = testbed_faults(cfg.horizon_s);
    assert!(
        faults.iter().any(|f| f.kind == FaultKind::Failure),
        "fault schedule is empty"
    );
    let run = || {
        let service = PlanService::new(&cluster, CostParams::default(), 77);
        Run::new(&cluster, &mut ArenaPolicy::new(), &service, &cfg)
            .faults(&faults)
            .batch(&jobs)
    };
    let (a, b) = (run(), run());
    // Timelines and per-job lifecycles must be identical to the bit.
    assert_eq!(a.timeline, b.timeline);
    assert_eq!(a.raw_timeline, b.raw_timeline);
    for (ra, rb) in a.records.iter().zip(b.records.iter()) {
        assert_eq!(ra.id, rb.id);
        assert_eq!(ra.start_s, rb.start_s);
        assert_eq!(ra.finish_s, rb.finish_s);
        assert_eq!(ra.restarts, rb.restarts, "job {} restarts differ", ra.id);
        assert_eq!(ra.dropped, rb.dropped);
    }
    // Every metric except the wall-clock decision timer is bitwise equal.
    let (mut ma, mut mb) = (a.metrics.clone(), b.metrics.clone());
    ma.avg_decision_s = 0.0;
    mb.avg_decision_s = 0.0;
    assert_eq!(format!("{ma:?}"), format!("{mb:?}"));
}

#[test]
fn all_policies_survive_node_failures() {
    let cluster = arena::cluster::presets::physical_testbed();
    let service = PlanService::new(&cluster, CostParams::default(), 2);
    let jobs = small_trace(12);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let faults = testbed_faults(cfg.horizon_s);

    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(FcfsPolicy::new()),
        Box::new(GandivaPolicy::new()),
        Box::new(GavelPolicy::new()),
        Box::new(ElasticFlowPolicy::loosened()),
        Box::new(ArenaPolicy::new()),
    ];
    for mut p in policies {
        let r = Run::new(&cluster, p.as_mut(), &service, &cfg)
            .faults(&faults)
            .batch(&jobs);
        let m = &r.metrics;
        assert_eq!(
            m.finished + m.dropped + m.unfinished,
            jobs.len(),
            "{} lost jobs under faults",
            r.policy
        );
        assert_eq!(r.records.len(), jobs.len());
        assert!(
            m.work_lost_frac.is_finite() && m.work_lost_frac >= 0.0,
            "{}: bad work_lost_frac",
            r.policy
        );
        assert!(m.goodput_sps.is_finite() && m.goodput_sps >= 0.0);
        for rec in &r.records {
            if let (Some(q), Some(j)) = (rec.queue_s(), rec.jct_s()) {
                assert!(
                    q >= 0.0 && q <= j + 1e-6,
                    "{}: queue {q} > jct {j}",
                    r.policy
                );
            }
        }
    }
}

#[test]
fn zero_fault_schedule_reproduces_baseline() {
    // An empty fault schedule must match a run without one exactly —
    // the seed experiments stay unchanged.
    let cluster = arena::cluster::presets::physical_testbed();
    let jobs = small_trace(8);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let service = PlanService::new(&cluster, CostParams::default(), 5);
    let base = Run::new(&cluster, &mut ArenaPolicy::new(), &service, &cfg).batch(&jobs);
    let service2 = PlanService::new(&cluster, CostParams::default(), 5);
    let faulty = Run::new(&cluster, &mut ArenaPolicy::new(), &service2, &cfg)
        .faults(&[])
        .batch(&jobs);
    assert_eq!(base.timeline, faulty.timeline);
    assert_eq!(base.metrics.avg_jct_s, faulty.metrics.avg_jct_s);
    assert_eq!(base.metrics.finished, faulty.metrics.finished);
    assert_eq!(faulty.metrics.failure_evictions, 0);
    assert_eq!(faulty.metrics.work_lost_frac, 0.0);
}

#[test]
fn failures_cost_real_progress() {
    // A mid-run cluster-wide outage must show up in the fault metrics:
    // evictions, lost work, recovery latency — and still finish the jobs.
    let cluster = arena::cluster::presets::physical_testbed();
    let service = PlanService::new(&cluster, CostParams::default(), 2);
    let jobs = small_trace(6);
    let mut cfg = SimConfig::new(24.0 * 3600.0);
    cfg.checkpoint_interval_s = f64::INFINITY;
    let mut faults: Vec<FaultEvent> = (0..16)
        .map(|n| FaultEvent {
            time_s: 1500.0,
            pool: 0,
            node: n,
            kind: FaultKind::Failure,
        })
        .collect();
    faults.extend((0..16).map(|n| FaultEvent {
        time_s: 6000.0,
        pool: 0,
        node: n,
        kind: FaultKind::Repair,
    }));
    let r = Run::new(&cluster, &mut GavelPolicy::new(), &service, &cfg)
        .faults(&faults)
        .batch(&jobs);
    assert!(r.metrics.failure_evictions > 0, "{:#?}", r.records);
    assert!(r.metrics.mean_recovery_s > 0.0);
    assert_eq!(
        r.metrics.finished + r.metrics.dropped + r.metrics.unfinished,
        jobs.len()
    );
}

#[test]
fn fault_evictions_carry_decision_provenance() {
    // A traced faulty run must attribute every failure eviction to an
    // engine-originated requeue decision, stamped with the node-failure
    // trigger — and the decision log must agree with the fault metrics.
    let cluster = arena::cluster::presets::physical_testbed();
    let service = PlanService::new(&cluster, CostParams::default(), 2);
    let jobs = small_trace(6);
    let mut cfg = SimConfig::new(24.0 * 3600.0);
    cfg.checkpoint_interval_s = f64::INFINITY;
    let mut faults: Vec<FaultEvent> = (0..16)
        .map(|n| FaultEvent {
            time_s: 1500.0,
            pool: 0,
            node: n,
            kind: FaultKind::Failure,
        })
        .collect();
    faults.extend((0..16).map(|n| FaultEvent {
        time_s: 6000.0,
        pool: 0,
        node: n,
        kind: FaultKind::Repair,
    }));
    let obs = Obs::enabled();
    let r = Run::new(&cluster, &mut GavelPolicy::new(), &service, &cfg)
        .faults(&faults)
        .obs(&obs)
        .batch(&jobs);
    assert!(r.metrics.failure_evictions > 0);

    let failure_requeues: Vec<&Decision> = r
        .trace
        .decisions
        .iter()
        .filter(|d| d.kind == DecisionKind::Requeue && d.reason == "node-failure-evict")
        .collect();
    assert_eq!(
        failure_requeues.len(),
        r.metrics.failure_evictions,
        "decision log disagrees with fault metrics"
    );
    for d in &failure_requeues {
        assert_eq!(d.policy, "engine", "fault evictions are engine-originated");
        assert_eq!(d.trigger, "node-failure");
        let spec = jobs
            .iter()
            .find(|j| j.id == d.job)
            .unwrap_or_else(|| panic!("unknown job {}", d.job));
        // Requeues carry the victim's home shard: its requested pool.
        assert_eq!(d.shard, Some(spec.requested_pool as u32));
    }
    // The engine's fault counters line up with the schedule. (Repairs
    // are scheduled after the failures; the loop may legitimately end —
    // all jobs terminal — before processing them all.)
    let counters = obs.metrics().expect("registry").counters_snapshot();
    assert_eq!(counters.get("sim.fault.failure"), Some(&16));
    assert!(counters.get("sim.fault.repair").copied().unwrap_or(0) <= 16);
    // Requeue provenance is engine-only: it never pollutes the policy's
    // place/drop decision stream.
    assert!(r
        .trace
        .decisions
        .iter()
        .filter(|d| d.policy == "engine")
        .all(|d| d.kind == DecisionKind::Requeue));
}
