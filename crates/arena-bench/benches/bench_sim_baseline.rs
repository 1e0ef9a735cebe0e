//! The one bench binary: machine-readable timings for every layer of the
//! stack, written to `BENCH_sim.json` at the workspace root for
//! `arena-analyze bench-check`. Each entry name starts with its layer:
//!
//! * `stream/` — fleet-scale streaming, stamped with peak RSS;
//! * `perf/`, `parallelism/` — the cost model and stage partitioning;
//! * `estimator/`, `tuner/`, `plans/` — Cell estimation, pruned tuning
//!   and cold plan exploration;
//! * `sched/<policy>/` — one decision pass of each of the five policies
//!   on a loaded cluster, Arena across Algorithm 1's search depths (the
//!   Fig. 21(a) axis);
//! * `sim/` — whole simulations;
//! * `engine/` — the engine's stages, read from the registry of the
//!   telemetry-on runs of the loaded fixture;
//! * `ratio/` — A/B ratios timed as interleaved pairs in this process;
//!   `ratio/telemetry_on_off` is the always-on telemetry gate.
//!
//! Run with `cargo bench -p arena-bench --bench bench_sim_baseline`.
//! `BENCH_SMOKE=1` drops every loop to a single iteration and the
//! telemetry ratio to one unbounded pair (the CI mode: proves the paths
//! run, not how fast). Both modes run the same fixtures and write the
//! same entry names, so a smoke file compares against the committed one
//! name by name.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use arena::cluster::{presets, PoolStats};
use arena::estimator::{CommTables, SoaProfiles};
use arena::parallelism::determine_stages;
use arena::perf::noise::NoiseModel;
use arena::perf::PerfModel;
use arena::prelude::*;
use arena::sched::{JobView, PlacementView, SchedEvent, SchedView, POLICY_NAMES};
use arena::trace::TakeSource;
use arena::tuner::{tune_full, tune_pruned};
use arena_bench::{
    git_rev, time_loop, vm_hwm_bytes, write_bench_report, BenchEntry, BenchReport, RatioEntry,
};

/// The telemetry plane's always-on claim: the loaded run with a live
/// registry attached may take at most 5% longer than without.
const TELEMETRY_BOUND: f64 = 1.05;

/// Off/on pairs behind `ratio/telemetry_on_off` in a full run. Single
/// pair ratios spread widely on a shared host, so the median is taken
/// over 60 pairs, not 20, which narrows its own spread about √3-fold.
const TELEMETRY_PAIRS: usize = 60;

/// The engine's per-burst stages, by entry suffix and histogram name.
/// Together they must cover at least [`MIN_STAGE_COVERAGE`] of
/// `sim.stage.burst_seconds`.
const ENGINE_STAGES: [(&str, &str); 7] = [
    ("advance", "sim.advance"),
    ("arrive", "sim.arrive"),
    ("merge", "sim.shard.merge"),
    ("prepare", "sim.shard.prepare"),
    ("schedule", "sim.schedule"),
    ("commit", "sim.commit"),
    ("sample", "sim.sample"),
];

const BURST: &str = "sim.stage.burst_seconds";

const MIN_STAGE_COVERAGE: f64 = 0.9;

fn iters(smoke: bool, full: usize) -> usize {
    if smoke {
        1
    } else {
        full
    }
}

fn a100_node() -> HwTarget {
    HwTarget::new(NodeSpec::with_default_links(GpuSpec::A100, 4))
}

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
            spec: Arc::new(s.clone()),
            remaining_iters: s.iterations as f64,
            placement: None,
        })
        .collect()
}

/// Times `f` against a fresh (cold) plan service per iteration. The
/// services are built before and dropped after the timed loop.
fn time_cold<F: FnMut(&PlanService)>(
    name: &str,
    iters: usize,
    cluster: &Cluster,
    mut f: F,
) -> BenchEntry {
    let mut fresh: Vec<PlanService> = (0..iters)
        .map(|_| PlanService::new(cluster, CostParams::default(), 51))
        .collect();
    let mut spent = Vec::with_capacity(iters);
    let entry = time_loop(name, iters, || {
        let service = fresh.pop().expect("one service per iteration");
        f(&service);
        spent.push(service);
    });
    drop(spent);
    entry
}

/// The fleet-scale streaming pair: an open-ended synthetic PAI-load
/// trace on a 2,048-GPU cluster pumped straight from the generator into
/// the record-folding engine — no materialised trace, no per-job record
/// vector, terminal jobs reclaimed as they drain. Two consecutive runs
/// in this process, 100k jobs then 1M, each entry stamped with the
/// process peak RSS (`VmHWM`). The watermark is
/// monotone over the process lifetime, so the big run's peak staying
/// within 1.2x the small run's pins the memory model: resident state
/// follows the *live* job count, not the trace length. Must run before
/// every other bench so the watermark reflects the streaming runs and
/// not an earlier fixture's transient.
fn bench_stream_fleet() -> Vec<BenchEntry> {
    let cluster = presets::tiny_a100(256, 8);
    // Open-ended trace: the duration never binds; TakeSource cuts the
    // arrival stream at an exact job count instead.
    let trace_cfg = TraceConfig::new(TraceKind::PaiLow, 4.0e9, cluster.total_gpus(), vec![40.0]);
    // Both sizes sit past the allocator's warmup plateau (~50k jobs on
    // this fixture) so the flatness gate measures the steady state, not
    // malloc arena growth.
    let (small, big) = (100_000_u64, 1_000_000_u64);
    let mut entries = Vec::new();
    let mut peaks = Vec::new();
    for n in [small, big] {
        let service = PlanService::new(&cluster, CostParams::default(), 51);
        let cfg = SimConfig::new(4.1e9);
        let mut policy = FcfsPolicy::new();
        let mut source = TakeSource::new(GenSource::new(&trace_cfg), n);
        let t0 = Instant::now();
        let summary = Run::new(&cluster, &mut policy, &service, &cfg)
            .stream(&mut source)
            .expect("generator-backed source cannot fail");
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(summary.jobs.jobs, n, "generator ran dry before the cap");
        let peak = vm_hwm_bytes();
        println!(
            "stream/fleet_{n}: {n} jobs in {wall:.2}s ({:.0} jobs/s), \
             peak RSS {} MiB, peak live jobs {}, fingerprint {:016x}",
            n as f64 / wall,
            peak.unwrap_or(0) >> 20,
            summary.peak_live_jobs,
            summary.fingerprint,
        );
        entries.push(BenchEntry {
            peak_rss_bytes: peak,
            ..BenchEntry::from_samples(&format!("stream/fleet_{n}_fcfs"), &[wall])
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

/// The analytical cost model (plan evaluation, and the noisy
/// ground-truth measurement built on it) and stage partitioning.
fn bench_perf_and_parallelism(smoke: bool) -> Vec<BenchEntry> {
    let model = PerfModel::new(CostParams::default());
    let gt = GroundTruth::new(CostParams::default(), 51);
    let hw = a100_node();
    let n = iters(smoke, 2000);
    let mut out = Vec::new();
    for (name, fam, size, gpus, stages) in [
        ("bert1.3_4g_1s", ModelFamily::Bert, 1.3, 4, 1),
        ("bert2.6_8g_4s", ModelFamily::Bert, 2.6, 8, 4),
        ("moe10_16g_8s", ModelFamily::Moe, 10.0, 16, 8),
    ] {
        let graph = ModelConfig::new(fam, size, 256).build();
        let plan = PlanSpace::new(determine_stages(&graph, gpus, stages).expect("feasible"))
            .iter()
            .next()
            .expect("non-empty plan space");
        out.push(time_loop(&format!("perf/evaluate/{name}"), n, || {
            let _ = black_box(model.evaluate(&graph, 256, black_box(&plan), &hw));
        }));
        if name == "bert2.6_8g_4s" {
            out.push(time_loop("perf/measure", n, || {
                let _ = black_box(gt.measure(&graph, 256, black_box(&plan), &hw));
            }));
        }
    }
    let n = iters(smoke, 200);
    for (name, fam, size) in [
        ("wres2", ModelFamily::WideResNet, 2.0),
        ("bert6.7", ModelFamily::Bert, 6.7),
        ("moe27", ModelFamily::Moe, 27.0),
    ] {
        let graph = ModelConfig::new(fam, size, 256).build();
        out.push(time_loop(
            &format!("parallelism/determine_stages/{name}"),
            n,
            || {
                black_box(determine_stages(black_box(&graph), 16, 4));
            },
        ));
    }
    out
}

/// The agile Cell estimator (Fig. 12's machinery): the two steps of an
/// estimate apart — plan assembly from a profile taken once, on warm
/// tables (`estimate_uncached`, the SoA gate's entry), and profiling
/// one Cell (`profile`) — then offline communication-table
/// construction.
fn bench_estimator(smoke: bool) -> Vec<BenchEntry> {
    let cluster = presets::physical_testbed();
    let hw = HwTarget::new(cluster.spec(GpuTypeId(0)));
    let est = CellEstimator::new(CostParams::default(), 51);
    let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
    let cell = Cell::new(&g, 8, 4).expect("feasible cell");
    // Profile once and warm the tables, so the first loop measures the
    // assembly step alone.
    let mut profiles = SoaProfiles::default();
    est.profile(&g, 256, &cell, &hw, &mut profiles);
    let _ = est.assemble(&profiles, &g, 256, &cell, &hw);
    let n = iters(smoke, 200);
    // Named `estimate_uncached` because the frozen SoA baseline
    // (`BENCH_sim_pre_soa.json`) and CI's SoA gate are keyed on it.
    let mut out = vec![
        time_loop("estimator/estimate_uncached", n, || {
            black_box(est.assemble(black_box(&profiles), &g, 256, black_box(&cell), &hw));
        }),
        time_loop("estimator/profile", n, || {
            est.profile(black_box(&g), 256, black_box(&cell), &hw, &mut profiles);
        }),
    ];
    let hw = a100_node();
    let n = iters(smoke, 30);
    let noise = NoiseModel::new(0.02, 1);
    out.push(time_loop("estimator/comm_tables_build_64", n, || {
        black_box(CommTables::build(&hw, 64, &noise));
    }));
    out
}

/// Cell-guided pruned tuning against the unpruned search (Fig. 13's
/// machinery), each on a fresh ground truth.
fn bench_tuner(smoke: bool) -> Vec<BenchEntry> {
    let hw = a100_node();
    let graph = ModelConfig::new(ModelFamily::Bert, 2.6, 512).build();
    let cell = Cell::new(&graph, 16, 4).expect("feasible cell");
    let estimate = CellEstimator::new(CostParams::default(), 9)
        .estimate(&graph, 512, &cell, &hw)
        .expect("cell estimates");
    let n = iters(smoke, 20);
    vec![
        time_loop("tuner/full_16g_4s", n, || {
            let gt = GroundTruth::new(CostParams::default(), 9);
            black_box(tune_full(&gt, &graph, 512, black_box(&cell), &hw));
        }),
        time_loop("tuner/pruned_16g_4s", n, || {
            let gt = GroundTruth::new(CostParams::default(), 9);
            black_box(tune_pruned(
                &gt,
                &graph,
                512,
                black_box(&cell),
                &estimate,
                &hw,
            ));
        }),
    ]
}

/// Cold plan exploration on the Table-1 cluster: one adaptive-parallelism
/// search, and the ideal throughput every policy normalises by (an
/// adaptive search per pool at the requested and doubled GPU count).
fn bench_plans(smoke: bool) -> Vec<BenchEntry> {
    let cluster = presets::table1_simulated();
    let model = ModelConfig::new(ModelFamily::Bert, 1.3, 256);
    let spec = make_jobs(1, 8, 0.0, 1).remove(0);
    let n = iters(smoke, 20);
    vec![
        time_cold("plans/adaptive_run_cold", n, &cluster, |s| {
            black_box(s.adaptive_run(&model, 8, GpuTypeId(0)));
        }),
        time_cold("plans/ideal_sps_cold", n, &cluster, |s| {
            black_box(s.ideal_sps(&spec));
        }),
    ]
}

/// The loaded-round fixture: 6 running jobs holding most of the testbed,
/// 8 queued.
struct LoadedRound {
    service: PlanService,
    running: Vec<JobView>,
    queued: Vec<JobView>,
    pools: Vec<PoolStats>,
}

impl LoadedRound {
    fn new() -> Self {
        let cluster = presets::physical_testbed();
        let service = PlanService::new(&cluster, CostParams::default(), 51);
        let specs = make_jobs(14, 8, 0.0, 2);
        let running: Vec<JobView> = specs[..6]
            .iter()
            .enumerate()
            .map(|(i, s)| JobView {
                spec: Arc::new(s.clone()),
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
        let mut pools = cluster.pool_stats();
        pools[0].free_gpus = 8;
        pools[1].free_gpus = 8;
        LoadedRound {
            service,
            running,
            queued,
            pools,
        }
    }

    fn view(&self) -> SchedView<'_> {
        SchedView {
            now_s: 0.0,
            queued: &self.queued,
            running: &self.running,
            pools: &self.pools,
            service: &self.service,
            obs: Obs::disabled(),
        }
    }

    /// One warm-up pass (the service and the policy's memo warm, as in
    /// a long-running scheduler), then `iters` timed passes.
    fn time(&self, name: &str, iters: usize, policy: &mut dyn Policy) -> BenchEntry {
        let _ = policy.schedule(SchedEvent::Round, &self.view());
        time_loop(name, iters, || {
            black_box(policy.schedule(SchedEvent::Round, &self.view()));
        })
    }
}

/// One decision pass of every policy on the loaded round: the four
/// baselines, Arena at search depths 1–5 (Fig. 21(a)), and Arena at the
/// default depth with a fresh policy per pass, so its candidate memo is
/// cold — the pair the in-process ≥2× memo assert holds.
fn bench_decisions(smoke: bool) -> Vec<BenchEntry> {
    let fixture = LoadedRound::new();
    let n = iters(smoke, 50);
    let baselines: [(&str, Box<dyn Policy>); 4] = [
        ("fcfs", Box::new(FcfsPolicy::new())),
        ("gandiva", Box::new(GandivaPolicy::new())),
        ("gavel", Box::new(GavelPolicy::new())),
        ("elasticflow", Box::new(ElasticFlowPolicy::loosened())),
    ];
    let mut out: Vec<BenchEntry> = baselines
        .into_iter()
        .map(|(slug, mut policy)| {
            fixture.time(&format!("sched/{slug}/decision_loaded"), n, policy.as_mut())
        })
        .collect();
    for depth in 1..=5 {
        out.push(fixture.time(
            &format!("sched/arena/depth_{depth}"),
            n,
            &mut ArenaPolicy::new().with_search_depth(depth),
        ));
    }
    // The service is warm from the entries above; only the memo is cold.
    out.push(time_loop("sched/arena/depth_3_cold", n, || {
        black_box(ArenaPolicy::new().schedule(SchedEvent::Round, &fixture.view()));
    }));
    out
}

/// One Arena round over a 500-job queue on the 4-pool simulated
/// cluster: cold (fresh service and policy per iteration) and warm
/// (pre-warmed service, fresh policy: only the candidate memo is cold).
fn bench_arena_round(smoke: bool) -> Vec<BenchEntry> {
    let cluster = presets::table1_simulated();
    let queued = queued_views(&make_jobs(500, 8, 0.0, 4));
    let pools = cluster.pool_stats();
    let k = iters(smoke, 5);
    let cold = time_cold("sched/arena/round_500_cold", k, &cluster, |s| {
        black_box(ArenaPolicy::new().schedule(SchedEvent::Round, &round_view(&queued, &pools, s)));
    });
    let service = PlanService::new(&cluster, CostParams::default(), 51);
    let warm_view = round_view(&queued, &pools, &service);
    let _ = ArenaPolicy::new().schedule(SchedEvent::Round, &warm_view);
    let warm = time_loop("sched/arena/round_500_warm", k, || {
        black_box(ArenaPolicy::new().schedule(SchedEvent::Round, &warm_view));
    });
    vec![cold, warm]
}

fn round_view<'a>(
    queued: &'a [JobView],
    pools: &'a [PoolStats],
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
    let cluster = presets::physical_testbed();
    let service = PlanService::new(&cluster, CostParams::default(), 51);
    let jobs = make_jobs(500, 4, 120.0, 2);
    let cfg = SimConfig::new(14.0 * 24.0 * 3600.0);
    // Warm the plan caches once.
    let _ = Run::new(&cluster, &mut ArenaPolicy::new(), &service, &cfg).batch(&jobs);
    time_loop("sim/simulate_500_jobs_arena", iters(smoke, 5), || {
        let mut p = ArenaPolicy::new();
        black_box(Run::new(&cluster, &mut p, &service, &cfg).batch(black_box(&jobs)));
    })
}

/// One full testbed replay of a 2-hour Philly-heavy trace per policy
/// (the engine behind Figs. 14–21), on warm plan caches.
fn bench_replay(smoke: bool) -> Vec<BenchEntry> {
    let cluster = presets::physical_testbed();
    let trace = TraceConfig::new(TraceKind::PhillyHeavy, 2.0 * 3600.0, 64, vec![48.0, 24.0]);
    let jobs = generate(&trace);
    let service = PlanService::new(&cluster, CostParams::default(), 77);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let _ = Run::new(&cluster, &mut ArenaPolicy::new(), &service, &cfg).batch(&jobs);
    let make = |slug: &str| -> Box<dyn Policy> {
        match slug {
            "fcfs" => Box::new(FcfsPolicy::new()),
            "elasticflow" => Box::new(ElasticFlowPolicy::loosened()),
            "arena" => Box::new(ArenaPolicy::new()),
            _ => Box::new(ArenaSolverPolicy::new()),
        }
    };
    ["fcfs", "elasticflow", "arena", "arena_solver"]
        .into_iter()
        .map(|slug| {
            time_loop(&format!("sim/replay_2h/{slug}"), iters(smoke, 5), || {
                let mut p = make(slug);
                black_box(Run::new(&cluster, p.as_mut(), &service, &cfg).batch(black_box(&jobs)));
            })
        })
        .collect()
}

/// A class-diverse burst for the multi-pool bench: families,
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

/// The loaded multi-pool run: a deep, class-diverse Arena-scheduled
/// burst over the 4-pool simulated cluster, cold (fresh `PlanService`
/// per iteration), so cold candidate estimation and per-round decision
/// cost dominate. After the timed loop, one untimed run with a registry
/// attached reports how much of its burst wall-clock the engine stages
/// cover.
fn bench_simulate_multipool(smoke: bool) -> BenchEntry {
    let cluster = presets::table1_simulated();
    let jobs = multipool_burst(600, 4);
    // A few loaded rounds: the burst keeps the queue deep for the whole
    // horizon.
    let cfg = SimConfig::new(2.0 * 3600.0);
    let run = |service: &PlanService, obs: &Obs| {
        let mut p = ArenaPolicy::new();
        black_box(
            Run::new(&cluster, &mut p, service, &cfg)
                .obs(obs)
                .batch(black_box(&jobs)),
        );
    };
    let entry = time_cold(
        "sim/simulate_multipool_arena",
        iters(smoke, 5),
        &cluster,
        |s| {
            run(s, &Obs::disabled());
        },
    );
    let registry = Arc::new(MetricsRegistry::new(256));
    let service = PlanService::new(&cluster, CostParams::default(), 51);
    run(&service, &Obs::metrics_only(Arc::clone(&registry)));
    let (stages, burst) = stage_seconds(&BTreeMap::new(), &hist_sums(&registry));
    check_coverage("sim/simulate_multipool_arena", &stages, burst, smoke);
    entry
}

/// Every histogram's running sum, seconds.
fn hist_sums(registry: &MetricsRegistry) -> BTreeMap<String, f64> {
    registry
        .histograms_snapshot()
        .into_iter()
        .map(|(name, h)| (name, h.sum))
        .collect()
}

/// Per-stage seconds and burst seconds recorded between two
/// [`hist_sums`] snapshots.
fn stage_seconds(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> (Vec<f64>, f64) {
    let sum = |snap: &BTreeMap<String, f64>, name: &str| snap.get(name).copied().unwrap_or(0.0);
    let delta = |name: &str| sum(after, name) - sum(before, name);
    let stages = ENGINE_STAGES.iter().map(|&(_, name)| delta(name)).collect();
    (stages, delta(BURST))
}

/// Prints each stage's share of burst wall-clock and, in a full run,
/// asserts that the stages together cover at least
/// [`MIN_STAGE_COVERAGE`] of it.
fn check_coverage(fixture: &str, stages: &[f64], burst_s: f64, smoke: bool) {
    let covered = stages.iter().sum::<f64>() / burst_s;
    let shares: Vec<String> = ENGINE_STAGES
        .iter()
        .zip(stages)
        .map(|(&(stage, _), s)| format!("{stage} {:.1}%", 100.0 * s / burst_s))
        .collect();
    println!(
        "{fixture}: engine stages cover {:.1}% of {burst_s:.3}s burst ({})",
        100.0 * covered,
        shares.join(", ")
    );
    assert!(
        smoke || covered >= MIN_STAGE_COVERAGE,
        "{fixture}: engine stages cover only {:.1}% of burst wall-clock (need {:.0}%)",
        100.0 * covered,
        100.0 * MIN_STAGE_COVERAGE
    );
}

/// The loaded engine fixture: a 5000-job trace under a generated
/// node-failure schedule, replayed with FCFS so the event loop — not the
/// policy — dominates. Timed as interleaved pairs, one run with
/// `Obs::disabled()` and one with the live plane attached
/// (`Obs::metrics_only` + a `MetricsRegistry`), alternating which side
/// runs first. The off runs are `sim/simulate_5000_jobs_faulted_fcfs`,
/// the entry the event-core gate holds against
/// `BENCH_sim_pre_event_core.json`; the per-pair on/off ratios are
/// `ratio/telemetry_on_off`, gated at [`TELEMETRY_BOUND`]; the on runs'
/// registry yields the `engine/<stage>` entries.
fn bench_simulate_loaded(smoke: bool) -> (Vec<BenchEntry>, RatioEntry) {
    let cluster = presets::physical_testbed();
    let service = PlanService::new(&cluster, CostParams::default(), 51);
    let n = 5000;
    let jobs = make_jobs(n, 4, 30.0, 2);
    let fault_span_s = n as f64 * 30.0 * 1.4;
    let faults = arena::trace::generate_faults(
        &arena::trace::FaultConfig::with_mtbf(60_000.0),
        &[16, 16],
        fault_span_s,
    );
    let cfg = SimConfig::new(30.0 * 24.0 * 3600.0);
    let run = |obs: &Obs| {
        let t0 = Instant::now();
        black_box(
            Run::new(&cluster, &mut FcfsPolicy::new(), &service, &cfg)
                .faults(&faults)
                .obs(obs)
                .batch(black_box(&jobs)),
        );
        t0.elapsed().as_secs_f64()
    };
    // Warm the plan caches once.
    let _ = run(&Obs::disabled());
    let registry = Arc::new(MetricsRegistry::new(256));
    let on_obs = Obs::metrics_only(Arc::clone(&registry));
    let pairs = iters(smoke, TELEMETRY_PAIRS);
    let (mut off, mut on, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_stage = vec![Vec::new(); ENGINE_STAGES.len()];
    let mut burst = Vec::new();
    for i in 0..pairs {
        let before = hist_sums(&registry);
        let (off_s, on_s) = if i % 2 == 0 {
            let off_s = run(&Obs::disabled());
            (off_s, run(&on_obs))
        } else {
            let on_s = run(&on_obs);
            (run(&Obs::disabled()), on_s)
        };
        let (stages, burst_s) = stage_seconds(&before, &hist_sums(&registry));
        for (samples, s) in per_stage.iter_mut().zip(stages) {
            samples.push(s);
        }
        burst.push(burst_s);
        println!(
            "telemetry pair {i}: off {off_s:.4}s on {on_s:.4}s ratio {:.4}",
            on_s / off_s
        );
        off.push(off_s);
        on.push(on_s);
        ratios.push(on_s / off_s);
    }
    // The runs must actually have fed the plane, or the gate is a no-op.
    assert!(
        registry
            .counters_snapshot()
            .get("sim.event.arrival")
            .copied()
            >= Some(n),
        "telemetry runs did not populate the registry"
    );
    let totals: Vec<f64> = per_stage.iter().map(|s| s.iter().sum()).collect();
    let name = "sim/simulate_5000_jobs_faulted_fcfs";
    check_coverage(name, &totals, burst.iter().sum(), smoke);

    let mut entries = vec![
        BenchEntry::from_samples(name, &off),
        BenchEntry::from_samples(&format!("{name}_telemetry"), &on),
        BenchEntry::from_samples("engine/burst", &burst),
    ];
    for (&(stage, _), samples) in ENGINE_STAGES.iter().zip(&per_stage) {
        entries.push(BenchEntry::from_samples(
            &format!("engine/{stage}"),
            samples,
        ));
    }
    let ratio = RatioEntry::from_pairs(
        "ratio/telemetry_on_off",
        &ratios,
        (!smoke).then_some(TELEMETRY_BOUND),
    );
    println!(
        "{}: median {:.4} (quartiles {:.4}-{:.4}) over {} pairs",
        ratio.name, ratio.median, ratio.q1, ratio.q3, ratio.pairs
    );
    (entries, ratio)
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let mut benches = Vec::new();
    // First, before any other fixture touches the high-water mark.
    benches.extend(bench_stream_fleet());
    benches.extend(bench_perf_and_parallelism(smoke));
    benches.extend(bench_estimator(smoke));
    benches.extend(bench_tuner(smoke));
    benches.extend(bench_plans(smoke));
    benches.extend(bench_decisions(smoke));
    benches.extend(bench_arena_round(smoke));
    benches.push(bench_simulate_500(smoke));
    benches.extend(bench_replay(smoke));
    let (loaded, telemetry) = bench_simulate_loaded(smoke);
    benches.extend(loaded);
    benches.push(bench_simulate_multipool(smoke));

    if !smoke {
        let mean = |name: &str| {
            benches
                .iter()
                .find(|b| b.name == name)
                .map_or(f64::NAN, |b| b.mean_s)
        };
        let warm = mean("sched/arena/depth_3");
        let cold = mean("sched/arena/depth_3_cold");
        assert!(
            warm * 2.0 <= cold,
            "a warm candidate memo must make the decision pass ≥2× faster \
             than a cold one (got {warm:.6}s vs {cold:.6}s)"
        );
    }

    let report = BenchReport {
        smoke,
        git_rev: git_rev(),
        policies: POLICY_NAMES.iter().map(|p| (*p).to_string()).collect(),
        benches,
        ratios: vec![telemetry],
    };
    write_bench_report("BENCH_sim.json", &report).expect("write BENCH_sim.json");
}
