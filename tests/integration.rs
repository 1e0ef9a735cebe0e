//! Cross-crate integration tests: the full estimate → tune → schedule →
//! simulate pipeline on small but real configurations.

use arena::estimator::Cell;
use arena::prelude::*;
use arena::sched::{ArenaSolverPolicy, QueueOrder};
use arena::tuner::{tune_full, tune_pruned};

fn small_trace(n: u64) -> Vec<JobSpec> {
    let mk = |id: u64, submit: f64, fam, size, gpus: usize, pool: usize, iters: u64| JobSpec {
        id,
        name: format!("j{id}"),
        submit_s: submit,
        model: ModelConfig::new(fam, size, 256),
        iterations: iters,
        requested_gpus: gpus,
        requested_pool: pool,
        deadline_s: None,
    };
    (0..n)
        .map(|i| {
            let fam =
                [ModelFamily::Bert, ModelFamily::Moe, ModelFamily::WideResNet][(i % 3) as usize];
            let size = match fam {
                ModelFamily::Bert => [0.76, 1.3][(i % 2) as usize],
                ModelFamily::Moe => [0.69, 1.3][(i % 2) as usize],
                ModelFamily::WideResNet => [0.5, 1.0][(i % 2) as usize],
            };
            mk(
                i,
                60.0 * i as f64,
                fam,
                size,
                [2, 4, 8][(i % 3) as usize],
                (i % 2) as usize,
                150 + 40 * (i % 4),
            )
        })
        .collect()
}

#[test]
fn full_pipeline_estimate_tune_run() {
    // Estimate a Cell, tune it, and confirm the tuned plan's measured
    // performance is close to the exhaustive optimum — the paper's core
    // correctness claim, end to end.
    let params = CostParams::default();
    let gt = GroundTruth::new(params.clone(), 1);
    let est = CellEstimator::new(params, 1);
    let model = ModelConfig::new(ModelFamily::Moe, 2.4, 512);
    let graph = model.build();
    let hw = HwTarget::new(NodeSpec::with_default_links(GpuSpec::A100, 4));

    let (cell, e) = Cell::generate(&graph, 8)
        .into_iter()
        .filter_map(|c| est.estimate(&graph, 512, &c, &hw).map(|e| (c, e)))
        .max_by(|a, b| a.1.throughput_sps.partial_cmp(&b.1.throughput_sps).unwrap())
        .expect("feasible cell");

    let pruned = tune_pruned(&gt, &graph, 512, &cell, &e, &hw).expect("pruned tunes");
    let full = tune_full(
        &GroundTruth::new(gt.params().clone(), 1),
        &graph,
        512,
        &cell,
        &hw,
    )
    .expect("full tunes");

    let accuracy = pruned.perf.throughput_sps / full.perf.throughput_sps;
    assert!(accuracy > 0.85, "tuning accuracy {accuracy}");
    assert!(pruned.trials <= full.trials);
    // The estimate itself is in the right ballpark of the tuned truth.
    let est_err =
        (e.throughput_sps - pruned.perf.throughput_sps).abs() / pruned.perf.throughput_sps;
    assert!(est_err < 0.35, "estimate error {est_err}");
}

#[test]
fn all_policies_conserve_jobs_and_capacity() {
    let cluster = arena::cluster::presets::physical_testbed();
    let service = PlanService::new(&cluster, CostParams::default(), 2);
    let jobs = small_trace(12);
    let cfg = SimConfig::new(24.0 * 3600.0);

    let policies: Vec<fn() -> Box<dyn Policy>> = vec![
        || Box::new(FcfsPolicy::new()),
        || Box::new(GandivaPolicy::new()),
        || Box::new(GavelPolicy::new()),
        || Box::new(ElasticFlowPolicy::loosened()),
        || Box::new(ArenaPolicy::new()),
        || Box::new(ArenaSolverPolicy::new()),
        || Box::new(ArenaPolicy::new().with_queue_order(QueueOrder::ShortestFirst)),
    ];
    for make in policies {
        let mut p = make();
        let r = Run::new(&cluster, p.as_mut(), &service, &cfg).batch(&jobs);
        let m = &r.metrics;
        assert_eq!(
            m.finished + m.dropped + m.unfinished,
            jobs.len(),
            "{} lost jobs",
            r.policy
        );
        assert_eq!(r.records.len(), jobs.len());
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
fn arena_beats_fcfs_under_contention() {
    let cluster = arena::cluster::presets::physical_testbed();
    let service = PlanService::new(&cluster, CostParams::default(), 3);
    // Compress arrivals so the queue builds up.
    let mut jobs = small_trace(10);
    for j in &mut jobs {
        j.submit_s /= 6.0;
    }
    let cfg = SimConfig::new(24.0 * 3600.0);

    let fcfs = Run::new(&cluster, &mut FcfsPolicy::new(), &service, &cfg).batch(&jobs);
    let arena = Run::new(&cluster, &mut ArenaPolicy::new(), &service, &cfg).batch(&jobs);
    assert!(arena.metrics.finished >= fcfs.metrics.finished);
    assert!(
        arena.metrics.avg_jct_s <= fcfs.metrics.avg_jct_s * 1.05,
        "arena {} vs fcfs {}",
        arena.metrics.avg_jct_s,
        fcfs.metrics.avg_jct_s
    );
}

#[test]
fn memory_cliff_is_pool_dependent() {
    // The Fig. 1 Case-B asymmetry end-to-end: BERT-6.7B has no feasible
    // plan on 4 x 24 GiB Ampere-PCIe but runs on 4 x V100-NVLink.
    let cluster = arena::cluster::Cluster::new(&[
        (NodeSpec::with_default_links(GpuSpec::A10, 4), 1),
        (NodeSpec::with_default_links(GpuSpec::V100, 4), 1),
    ]);
    let service = PlanService::new(&cluster, CostParams::default(), 4);
    let bert = ModelConfig::new(ModelFamily::Bert, 6.7, 128);
    assert!(service.adaptive_run(&bert, 4, GpuTypeId(0)).is_none());
    assert!(service.adaptive_run(&bert, 4, GpuTypeId(1)).is_some());
}

#[test]
fn deadline_variant_drops_hopeless_and_meets_more() {
    let cluster = arena::cluster::presets::physical_testbed();
    let service = PlanService::new(&cluster, CostParams::default(), 5);
    let mut jobs = small_trace(8);
    for (i, j) in jobs.iter_mut().enumerate() {
        // Half get generous deadlines, half impossible ones.
        j.deadline_s = Some(if i % 2 == 0 {
            j.submit_s + 48.0 * 3600.0
        } else {
            j.submit_s + 1.0
        });
    }
    let cfg = SimConfig::new(24.0 * 3600.0);
    let mut ddl = ArenaPolicy::with_variant(ArenaVariant::Deadline);
    let r = Run::new(&cluster, &mut ddl, &service, &cfg).batch(&jobs);
    assert!(r.metrics.dropped >= 4, "hopeless jobs were not dropped");
    // Every finished job with a generous deadline met it.
    for rec in &r.records {
        if rec.finish_s.is_some() {
            assert_eq!(rec.deadline_met, Some(true), "{} missed", rec.name);
        }
    }
}

#[test]
fn trace_serialises_to_json() {
    let jobs = small_trace(3);
    let body = serde_json::to_string_pretty(&jobs).expect("serialise");
    assert!(body.contains("requested_gpus"));
    assert!(body.contains("BERT") || body.contains("params_b"));
}

#[test]
fn simulation_results_are_reproducible_across_services() {
    // Two independently constructed services with the same seed must
    // produce identical simulations (full determinism).
    let cluster = arena::cluster::presets::physical_testbed();
    let jobs = small_trace(6);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let run = || {
        let service = PlanService::new(&cluster, CostParams::default(), 77);
        Run::new(&cluster, &mut ArenaPolicy::new(), &service, &cfg).batch(&jobs)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.metrics.avg_jct_s, b.metrics.avg_jct_s);
    assert_eq!(a.metrics.finished, b.metrics.finished);
    assert_eq!(a.timeline, b.timeline);
}
