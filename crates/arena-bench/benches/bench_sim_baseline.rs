//! Custom-harness baseline bench: machine-readable timings for the hot
//! paths of the stack — Cell estimation (cold and warm cache), Arena
//! scheduling decisions under load (memoized vs sequential baseline, and
//! a 500-job round at worker-pool sizes 1/4/8), and a full 500-job
//! simulation — written to `BENCH_sim.json` at the workspace root for CI
//! trend tracking via `arena-analyze bench-check`.
//!
//! Run with `cargo bench -p arena-bench --bench bench_sim_baseline`.
//! `BENCH_SMOKE=1` drops every loop to a single iteration (the CI mode:
//! proves the paths run, not how fast).

use std::hint::black_box;
use std::time::Instant;

use arena::prelude::*;
use arena::sched::{JobView, Obs, PlacementView, SchedEvent, SchedView};
use arena::trace::TakeSource;
use arena_bench::{git_rev, time_loop, vm_hwm_bytes, write_bench_report, BenchEntry, BenchReport};

fn make_jobs(n: u64, base_gpus: usize, submit_gap_s: f64, num_pools: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            let fam =
                [ModelFamily::Bert, ModelFamily::Moe, ModelFamily::WideResNet][(i % 3) as usize];
            let size = match fam {
                ModelFamily::Bert => 1.3,
                ModelFamily::Moe => 1.3,
                ModelFamily::WideResNet => 1.0,
            };
            JobSpec {
                id: i,
                name: format!("j{i}"),
                submit_s: submit_gap_s * i as f64,
                model: ModelConfig::new(fam, size, 256),
                iterations: 400 + 100 * (i % 4),
                requested_gpus: base_gpus,
                requested_pool: i as usize % num_pools,
                deadline_s: None,
            }
        })
        .collect()
}

fn queued_views(specs: &[JobSpec]) -> Vec<JobView> {
    specs
        .iter()
        .map(|s| JobView {
            spec: std::sync::Arc::new(s.clone()),
            remaining_iters: s.iterations as f64,
            placement: None,
        })
        .collect()
}

fn bench_estimate(smoke: bool) -> Vec<BenchEntry> {
    let cluster = arena::cluster::presets::physical_testbed();
    let hw = arena::perf::HwTarget::new(cluster.spec(GpuTypeId(0)));
    let est = CellEstimator::new(CostParams::default(), 51);
    let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
    let cell = Cell::new(&g, 8, 4).expect("feasible cell");
    // Warm profile/table caches so the loop measures plan assembly.
    let _ = est.estimate(&g, 256, &cell, &hw);
    let iters = if smoke { 1 } else { 200 };
    vec![
        time_loop("estimator/estimate_uncached", iters, || {
            black_box(est.estimate_bypassing_cache(black_box(&g), 256, black_box(&cell), &hw));
        }),
        // The estimate cache's hit path: a prehashed struct-key lookup.
        time_loop("estimator/estimate_warm", iters, || {
            black_box(est.estimate(black_box(&g), 256, black_box(&cell), &hw));
        }),
    ]
}

/// The loaded-round fixture: 6 running jobs holding most of the testbed,
/// 8 queued.
struct LoadedRound {
    cluster: arena::cluster::Cluster,
    service: PlanService,
    running: Vec<JobView>,
    queued: Vec<JobView>,
}

impl LoadedRound {
    fn new() -> Self {
        let cluster = arena::cluster::presets::physical_testbed();
        let service = PlanService::new(&cluster, CostParams::default(), 51);
        let specs = make_jobs(14, 8, 0.0, 2);
        let running: Vec<JobView> = specs[..6]
            .iter()
            .enumerate()
            .map(|(i, s)| JobView {
                spec: std::sync::Arc::new(s.clone()),
                remaining_iters: 300.0,
                placement: Some(PlacementView {
                    pool: GpuTypeId(i % 2),
                    gpus: 8,
                    throughput_sps: 100.0,
                    opportunistic: false,
                }),
            })
            .collect();
        let queued = queued_views(&specs[6..]);
        LoadedRound {
            cluster,
            service,
            running,
            queued,
        }
    }

    fn pools(&self) -> Vec<arena::cluster::PoolStats> {
        let mut pools = self.cluster.pool_stats();
        pools[0].free_gpus = 8;
        pools[1].free_gpus = 8;
        pools
    }

    fn view<'a>(&'a self, pools: &'a [arena::cluster::PoolStats]) -> SchedView<'a> {
        SchedView {
            now_s: 0.0,
            queued: &self.queued,
            running: &self.running,
            pools,
            service: &self.service,
            obs: Obs::disabled(),
        }
    }
}

/// The memoized decision loop (candidate memo on, the shipping default)
/// against the sequential re-enumeration baseline (`_seq`, memo off) —
/// the pair `bench-check` holds the ≥2× speedup claim against.
fn bench_arena_schedule(smoke: bool) -> Vec<BenchEntry> {
    let fixture = LoadedRound::new();
    let pools = fixture.pools();
    let iters = if smoke { 1 } else { 50 };

    let mut policy = ArenaPolicy::new();
    let _ = policy.schedule(SchedEvent::Round, &fixture.view(&pools)); // warm
    let loaded = time_loop("sched/arena_decision_loaded", iters, || {
        black_box(policy.schedule(SchedEvent::Round, &fixture.view(&pools)));
    });

    let mut seq = ArenaPolicy::new().without_candidate_memo();
    let _ = seq.schedule(SchedEvent::Round, &fixture.view(&pools)); // warm
    let loaded_seq = time_loop("sched/arena_decision_loaded_seq", iters, || {
        black_box(seq.schedule(SchedEvent::Round, &fixture.view(&pools)));
    });
    vec![loaded, loaded_seq]
}

/// One scheduling round over a 500-job queue on the 4-pool simulated
/// cluster, cold (fresh service + policy per iteration) at worker-pool
/// sizes 1/4/8, plus the warm-estimate variant.
fn bench_arena_500(smoke: bool) -> Vec<BenchEntry> {
    let cluster = arena::cluster::presets::table1_simulated();
    let n = if smoke { 40 } else { 500 };
    let queued = queued_views(&make_jobs(n, 8, 0.0, 4));
    let pools = cluster.pool_stats();
    let iters = if smoke { 1 } else { 5 };
    let mut entries = Vec::new();
    for workers in [1_usize, 4, 8] {
        entries.push(time_loop(
            &format!("sched/arena_decision_{n}_cold_w{workers}"),
            iters,
            || {
                let service = PlanService::new(&cluster, CostParams::default(), 51);
                let mut policy = ArenaPolicy::new().with_worker_threads(workers);
                let view = SchedView {
                    now_s: 0.0,
                    queued: &queued,
                    running: &[],
                    pools: &pools,
                    service: &service,
                    obs: Obs::disabled(),
                };
                black_box(policy.schedule(SchedEvent::Round, &view));
            },
        ));
    }
    // Warm: shared pre-warmed service, fresh policy per iteration — the
    // cost of a round when only the candidate memo is cold.
    let service = PlanService::new(&cluster, CostParams::default(), 51);
    let _ = ArenaPolicy::new().schedule(SchedEvent::Round, &round_view(&queued, &pools, &service));
    entries.push(time_loop(
        &format!("sched/arena_decision_{n}_warm"),
        iters,
        || {
            let mut policy = ArenaPolicy::new();
            black_box(policy.schedule(SchedEvent::Round, &round_view(&queued, &pools, &service)));
        },
    ));
    entries
}

fn round_view<'a>(
    queued: &'a [JobView],
    pools: &'a [arena::cluster::PoolStats],
    service: &'a PlanService,
) -> SchedView<'a> {
    SchedView {
        now_s: 0.0,
        queued,
        running: &[],
        pools,
        service,
        obs: Obs::disabled(),
    }
}

fn bench_simulate_500(smoke: bool) -> BenchEntry {
    let cluster = arena::cluster::presets::physical_testbed();
    let service = PlanService::new(&cluster, CostParams::default(), 51);
    let n = if smoke { 60 } else { 500 };
    let jobs = make_jobs(n, 4, 120.0, 2);
    let cfg = SimConfig::new(14.0 * 24.0 * 3600.0);
    // Warm the plan caches once.
    let _ = Run::new(&cluster, &mut ArenaPolicy::new(), &service, &cfg).batch(&jobs);
    let iters = if smoke { 1 } else { 5 };
    time_loop(&format!("sim/simulate_{n}_jobs_arena"), iters, || {
        let mut p = ArenaPolicy::new();
        black_box(Run::new(&cluster, &mut p, &service, &cfg).batch(black_box(&jobs)));
    })
}

/// The loaded engine round: a 5000-job trace under a generated
/// node-failure schedule, replayed with FCFS so the event loop — not the
/// policy — dominates. This is the bench the CI speedup gate holds the
/// event-indexed core's ≥3x claim against (`BENCH_sim_pre_event_core.json`
/// records the pre-change engine on the same fixture).
fn bench_simulate_loaded(smoke: bool) -> BenchEntry {
    let cluster = arena::cluster::presets::physical_testbed();
    let service = PlanService::new(&cluster, CostParams::default(), 51);
    let n = if smoke { 200 } else { 5000 };
    let jobs = make_jobs(n, 4, 30.0, 2);
    let fault_span_s = n as f64 * 30.0 * 1.4;
    let faults = arena::trace::generate_faults(
        &arena::trace::FaultConfig::with_mtbf(60_000.0),
        &[16, 16],
        fault_span_s,
    );
    let cfg = SimConfig::new(30.0 * 24.0 * 3600.0);
    let run = |p: &mut FcfsPolicy| {
        Run::new(&cluster, p, &service, &cfg)
            .faults(&faults)
            .batch(black_box(&jobs))
    };
    // Warm the plan caches once.
    let _ = run(&mut FcfsPolicy::new());
    let iters = if smoke { 1 } else { 3 };
    time_loop(
        &format!("sim/simulate_{n}_jobs_faulted_fcfs"),
        iters,
        || {
            black_box(run(&mut FcfsPolicy::new()));
        },
    )
}

/// The loaded engine round on the per-pool shard plan — the plan the
/// daemon runs by default — once with `Obs::disabled()` and once with
/// the live plane attached (`Obs::metrics_only` + a `MetricsRegistry`):
/// every burst timed, per-shard gauges stored, event counters bumped,
/// estimator ratios refreshed, stage spans recorded into lock-free
/// histograms. The pair
/// is the overhead gate — telemetry-on must stay within 5% of
/// telemetry-off, enforced in CI by `arena-analyze bench-check
/// BENCH_sim_telemetry_off.json <committed BENCH_sim.json> --threshold
/// 0.05` (the `_off` file freezes the off mean under the telemetry
/// entry's name; both entries land in `BENCH_sim.json` too).
fn bench_simulate_loaded_telemetry(smoke: bool) -> (Vec<BenchEntry>, BenchEntry) {
    let cluster = arena::cluster::presets::physical_testbed();
    let service = PlanService::new(&cluster, CostParams::default(), 51);
    let n = if smoke { 200 } else { 5000 };
    let jobs = make_jobs(n, 4, 30.0, 2);
    let fault_span_s = n as f64 * 30.0 * 1.4;
    let faults = arena::trace::generate_faults(
        &arena::trace::FaultConfig::with_mtbf(60_000.0),
        &[16, 16],
        fault_span_s,
    );
    let cfg = SimConfig::new(30.0 * 24.0 * 3600.0);
    let plan = ShardPlan::per_pool(&cluster);
    let run = |p: &mut FcfsPolicy, obs: &Obs| {
        Run::new(&cluster, p, &service, &cfg)
            .faults(&faults)
            .obs(obs)
            .plan(&plan)
            .batch(black_box(&jobs))
    };
    // Warm the plan caches once.
    let _ = run(&mut FcfsPolicy::new(), &Obs::disabled());
    // More iterations than the other loaded benches: the overhead gate
    // compares these two means at a 5% threshold, well inside this
    // host's run-to-run noise at 3 iterations.
    let iters = if smoke { 1 } else { 8 };
    let off = time_loop(
        &format!("sim/simulate_{n}_jobs_faulted_fcfs_sharded"),
        iters,
        || {
            black_box(run(&mut FcfsPolicy::new(), &Obs::disabled()));
        },
    );
    let registry = std::sync::Arc::new(MetricsRegistry::new(256));
    let obs = Obs::metrics_only(std::sync::Arc::clone(&registry));
    let name_on = format!("sim/simulate_{n}_jobs_faulted_fcfs_telemetry");
    let on = time_loop(&name_on, iters, || {
        black_box(run(&mut FcfsPolicy::new(), &obs));
    });
    // The run must actually have fed the plane, or the gate is a no-op.
    assert!(
        registry
            .counters_snapshot()
            .get("sim.event.arrival")
            .copied()
            >= Some(n),
        "telemetry bench ran without populating the registry"
    );
    // The off mean under the on entry's name: the frozen left-hand side
    // of the CI overhead gate.
    let mut gate = off.clone();
    gate.name = name_on;
    (vec![off, on], gate)
}

/// A class-diverse burst for the multi-pool sharded bench: families,
/// sizes and GPU requests all vary, so the queue spans many distinct
/// candidate classes, and arrivals compress into a burst so the queue
/// stays deep while the estimator is still cold.
fn multipool_burst(n: u64, num_pools: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            // Decouple the class axes (family, size, batch, GPUs) so the
            // burst spans hundreds of distinct candidate classes rather
            // than a dozen correlated ones.
            let fam =
                [ModelFamily::Bert, ModelFamily::Moe, ModelFamily::WideResNet][(i % 3) as usize];
            let size = match fam {
                ModelFamily::Bert => [0.76, 1.3, 2.6][((i / 3) % 3) as usize],
                ModelFamily::Moe => [0.69, 1.3, 2.4][((i / 3) % 3) as usize],
                ModelFamily::WideResNet => [0.5, 1.0, 2.0][((i / 3) % 3) as usize],
            };
            JobSpec {
                id: i,
                name: format!("j{i}"),
                submit_s: 0.1 * i as f64,
                model: ModelConfig::new(fam, size, 128 << ((i / 9) % 3)),
                iterations: 20_000 + 500 * (i % 4),
                requested_gpus: [2, 4, 8][((i / 27) % 3) as usize],
                requested_pool: i as usize % num_pools,
                deadline_s: None,
            }
        })
        .collect()
}

/// The loaded multi-pool pair: a deep, class-diverse Arena-scheduled
/// burst over the 4-pool simulated cluster, cold (fresh `PlanService`
/// per iteration, like the cold decision-round benches), run on the
/// default one-shard plan and on the sharded decision loop (one shard per
/// pool, workers sized to the machine). The sharded loop's
/// `prepare_shards` pre-pass batches each flush round's cold candidate
/// estimation into one fan-out instead of the one-shard run's job-by-job
/// fills; with more than one hardware thread that fan-out is a real
/// wall-clock win, and on a single-core host the pool sizes itself to
/// one worker and the sharded loop must track the one-shard run to
/// within its bookkeeping overhead. Output is byte-identical either
/// way. `BENCH_sim_unsharded.json` freezes the one-shard mean under the
/// sharded entry's name so CI can gate the committed ratio with
/// `bench-check`.
fn bench_simulate_multipool(smoke: bool) -> Vec<BenchEntry> {
    let cluster = arena::cluster::presets::table1_simulated();
    let n = if smoke { 60 } else { 600 };
    let jobs = multipool_burst(n, 4);
    // A few loaded rounds: the burst keeps the queue deep for the whole
    // horizon, so cold candidate estimation and per-round decision cost
    // dominate the run.
    let cfg = SimConfig::new(2.0 * 3600.0);
    let workers = WorkerPool::from_env_or(
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(4),
    );
    let threads = workers.threads();
    let plan = ShardPlan::per_pool(&cluster).with_workers(workers);
    // Pin byte-identity on this fixture before timing anything, at a
    // fixed worker count so the check exercises the concurrent path
    // even on single-core hosts.
    {
        let service = PlanService::new(&cluster, CostParams::default(), 51);
        let one = Run::new(&cluster, &mut ArenaPolicy::new(), &service, &cfg).batch(&jobs);
        let service = PlanService::new(&cluster, CostParams::default(), 51);
        let check = ShardPlan::per_pool(&cluster).with_workers(WorkerPool::new(4));
        let sharded = Run::new(
            &cluster,
            &mut ArenaPolicy::new().with_worker_threads(4),
            &service,
            &cfg,
        )
        .plan(&check)
        .batch(&jobs);
        assert_eq!(
            one.timeline, sharded.timeline,
            "sharded bench fixture diverged from the one-shard run"
        );
    }
    let iters = if smoke { 1 } else { 5 };
    vec![
        time_loop("sim/simulate_multipool_arena_serial", iters, || {
            let service = PlanService::new(&cluster, CostParams::default(), 51);
            let mut p = ArenaPolicy::new();
            black_box(Run::new(&cluster, &mut p, &service, &cfg).batch(black_box(&jobs)));
        }),
        time_loop("sim/simulate_multipool_arena_sharded", iters, || {
            let service = PlanService::new(&cluster, CostParams::default(), 51);
            let mut p = ArenaPolicy::new().with_worker_threads(threads);
            black_box(
                Run::new(&cluster, &mut p, &service, &cfg)
                    .plan(&plan)
                    .batch(black_box(&jobs)),
            );
        }),
    ]
}

/// The fleet-scale streaming pair: an open-ended synthetic PAI-load
/// trace on a 2,048-GPU cluster pumped straight from the generator into
/// the record-folding engine — no materialised trace, no per-job record
/// vector, terminal jobs reclaimed as they drain. Two consecutive runs
/// in this process, 100k jobs then 1M (50k/100k in smoke mode), each
/// entry stamped with the process peak RSS (`VmHWM`). The watermark is
/// monotone over the process lifetime, so the big run's peak staying
/// within 1.2x the small run's pins the memory model: resident state
/// follows the *live* job count, not the trace length. Must run before
/// every other bench so the watermark reflects the streaming runs and
/// not an earlier fixture's transient. `ARENA_MEM_BUDGET_BYTES`, when
/// set, additionally caps the plan/estimator caches (the CI fleet-scale
/// job runs this bench under a budget).
fn bench_stream_fleet(smoke: bool) -> Vec<BenchEntry> {
    let cluster = arena::cluster::presets::tiny_a100(256, 8);
    // Open-ended trace: the duration never binds; TakeSource cuts the
    // arrival stream at an exact job count instead.
    let trace_cfg = TraceConfig::new(TraceKind::PaiLow, 4.0e9, cluster.total_gpus(), vec![40.0]);
    // The smoke sizes both sit past the allocator's warmup plateau
    // (~50k jobs on this fixture) so the flatness gate measures the
    // steady state, not malloc arena growth.
    let (small, big) = if smoke {
        (50_000_u64, 100_000_u64)
    } else {
        (100_000, 1_000_000)
    };
    let mut entries = Vec::new();
    let mut peaks = Vec::new();
    for n in [small, big] {
        let service = PlanService::new(&cluster, CostParams::default(), 51);
        if let Some(budget) = service.apply_env_budget() {
            println!("stream_fleet: cache budget {budget} bytes (ARENA_MEM_BUDGET_BYTES)");
        }
        let plan = ShardPlan::per_pool(&cluster);
        let cfg = SimConfig::new(4.1e9);
        let mut policy = FcfsPolicy::new();
        let mut source = TakeSource::new(GenSource::new(&trace_cfg), n);
        let t0 = Instant::now();
        let summary = Run::new(&cluster, &mut policy, &service, &cfg)
            .plan(&plan)
            .stream(&mut source)
            .expect("generator-backed source cannot fail");
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(summary.jobs.jobs, n, "generator ran dry before the cap");
        let peak = vm_hwm_bytes();
        println!(
            "sim/stream_fleet_{n}: {n} jobs in {wall:.2}s ({:.0} jobs/s), \
             peak RSS {} MiB, peak live jobs {}, fingerprint {:016x}",
            n as f64 / wall,
            peak.unwrap_or(0) >> 20,
            summary.peak_live_jobs,
            summary.fingerprint,
        );
        entries.push(BenchEntry {
            name: format!("sim/stream_fleet_{n}_fcfs"),
            iters: 1,
            mean_s: wall,
            min_s: wall,
            max_s: wall,
            peak_rss_bytes: peak,
            allocs_per_iter: None,
        });
        peaks.push(peak);
        black_box(summary);
    }
    // The flatness gate itself: the larger trace may not move the
    // high-water mark by more than 20%.
    if let [Some(first), Some(second)] = peaks[..] {
        assert!(
            second as f64 <= 1.2 * first as f64,
            "streaming peak RSS grew with trace length: {small} jobs -> {first} B, \
             {big} jobs -> {second} B"
        );
    }
    entries
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let mut benches = Vec::new();
    // First, before any other fixture touches the high-water mark.
    benches.extend(bench_stream_fleet(smoke));
    benches.extend(bench_estimate(smoke));
    benches.extend(bench_arena_schedule(smoke));
    benches.extend(bench_arena_500(smoke));
    benches.push(bench_simulate_500(smoke));
    benches.push(bench_simulate_loaded(smoke));
    let (telemetry, telemetry_gate) = bench_simulate_loaded_telemetry(smoke);
    benches.extend(telemetry);
    benches.extend(bench_simulate_multipool(smoke));

    if !smoke {
        let mean = |name: &str| {
            benches
                .iter()
                .find(|b| b.name == name)
                .map(|b| b.mean_s)
                .unwrap_or(f64::NAN)
        };
        let fast = mean("sched/arena_decision_loaded");
        let seq = mean("sched/arena_decision_loaded_seq");
        assert!(
            fast * 2.0 <= seq,
            "memoized decision loop must be ≥2× the sequential baseline \
             (got {fast:.6}s vs {seq:.6}s)"
        );
    }

    let report = BenchReport {
        smoke,
        git_rev: git_rev(),
        policies: vec!["Arena".to_string()],
        benches,
    };
    write_bench_report("BENCH_sim.json", &report).expect("write BENCH_sim.json");
    // The telemetry-off reference for the CI overhead gate. Smoke runs
    // must not clobber the committed full-scale numbers.
    if !smoke {
        let gate = BenchReport {
            smoke,
            git_rev: git_rev(),
            policies: vec!["Arena".to_string()],
            benches: vec![telemetry_gate],
        };
        write_bench_report("BENCH_sim_telemetry_off.json", &gate)
            .expect("write BENCH_sim_telemetry_off.json");
        // The one-shard reference for the sharded decision-loop
        // gate, refreshed from this same run so both sides of the
        // comparison come off the same machine under the same load —
        // a stale frozen number drifts with host speed and fails the
        // gate spuriously. The one-shard entry is renamed to the sharded
        // entry's name, which is how bench-check pairs them.
        let serial = report
            .benches
            .iter()
            .find(|b| b.name == "sim/simulate_multipool_arena_serial")
            .expect("serial multipool entry present in full runs");
        let unsharded = BenchReport {
            smoke,
            git_rev: git_rev(),
            policies: vec!["Arena".to_string()],
            benches: vec![BenchEntry {
                name: "sim/simulate_multipool_arena_sharded".to_string(),
                ..serial.clone()
            }],
        };
        write_bench_report("BENCH_sim_unsharded.json", &unsharded)
            .expect("write BENCH_sim_unsharded.json");
        // The one-worker reference for the fan-out-granularity gate:
        // the cold 500-job decision round at w4/w8 must not be slower
        // than at w1 (chunked fan-out makes extra workers at worst
        // free). Same same-machine refresh pattern as the unsharded
        // gate; bench-check pairs entries by name, so the w1 entry is
        // renamed to the w4 and w8 entry names.
        let w1 = report
            .benches
            .iter()
            .find(|b| b.name == "sched/arena_decision_500_cold_w1")
            .expect("w1 cold decision entry present in full runs");
        let w1_gate = BenchReport {
            smoke,
            git_rev: git_rev(),
            policies: vec!["Arena".to_string()],
            benches: vec![
                BenchEntry {
                    name: "sched/arena_decision_500_cold_w4".to_string(),
                    ..w1.clone()
                },
                BenchEntry {
                    name: "sched/arena_decision_500_cold_w8".to_string(),
                    ..w1.clone()
                },
            ],
        };
        write_bench_report("BENCH_sim_w1.json", &w1_gate).expect("write BENCH_sim_w1.json");
    }
}
