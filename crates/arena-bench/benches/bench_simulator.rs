//! Criterion: end-to-end simulator throughput — one full testbed trace
//! replay per iteration, per policy (the engine behind Figs. 14–21).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use arena::prelude::*;

fn bench_replay(c: &mut Criterion) {
    let cluster = arena::cluster::presets::physical_testbed();
    let cfg = TraceConfig::new(TraceKind::PhillyHeavy, 2.0 * 3600.0, 64, vec![48.0, 24.0]);
    let jobs = generate(&cfg);
    let service = PlanService::new(&cluster, CostParams::default(), 77);
    let sim_cfg = SimConfig::new(24.0 * 3600.0);

    // Warm the plan caches once; the bench then measures the event loop
    // and policy logic, as in a long-running scheduler process.
    let _ = Run::new(&cluster, &mut ArenaPolicy::new(), &service, &sim_cfg).batch(&jobs);

    let mut group = c.benchmark_group("simulator/replay_2h_trace");
    group.sample_size(10);
    group.bench_function("fcfs", |b| {
        b.iter(|| {
            let mut p = FcfsPolicy::new();
            black_box(Run::new(&cluster, &mut p, &service, &sim_cfg).batch(black_box(&jobs)))
        })
    });
    group.bench_function("elasticflow_ls", |b| {
        b.iter(|| {
            let mut p = ElasticFlowPolicy::loosened();
            black_box(Run::new(&cluster, &mut p, &service, &sim_cfg).batch(black_box(&jobs)))
        })
    });
    group.bench_function("arena", |b| {
        b.iter(|| {
            let mut p = ArenaPolicy::new();
            black_box(Run::new(&cluster, &mut p, &service, &sim_cfg).batch(black_box(&jobs)))
        })
    });
    group.bench_function("arena_solver", |b| {
        b.iter(|| {
            let mut p = ArenaSolverPolicy::new();
            black_box(Run::new(&cluster, &mut p, &service, &sim_cfg).batch(black_box(&jobs)))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
