//! The sampled-search kernel measures exactly what the per-plan path
//! measures.
//!
//! `SampledSearch` composes each sampled plan from a per-partition
//! stage-cost table instead of calling `GroundTruth::measure`. These tests
//! hold it to `measure` bit for bit over every Table-2 configuration, and
//! hold the explorations built on it (`PlanService::adaptive_run` and
//! `arena_run`, `SampledSearch::profile_best`, `tune_in_space`) to loops
//! over `measure`, trial walls included. Exact ties go to the first plan.
//! The work `fastest` and `adaptive_run` skip once the exploration wall
//! is capped must not change a returned bit: the skipped samples' winner
//! is the full scan's, and no plan is faster than its space's
//! `lower_bound`.

use arena::cluster::{presets, Cluster, GpuTypeId, MeshShape};
use arena::estimator::Cell;
use arena::model::zoo::{table2_configs, table2_full_grid, ModelFamily};
use arena::model::{ModelConfig, ModelGraph, OpKind, Operator};
use arena::parallelism::{PipelinePlan, PlanSpace, StagePartition, StagePlan};
use arena::perf::{CostParams, GroundTruth, HwTarget, Infeasible, PlanPerf, SampledSearch};
use arena::sched::service::EXPLORE_WALL_CAP_S;
use arena::sched::PlanService;
use arena::tuner::{pruned_space, tune_in_space, DEFAULT_TUNE_CAP};

/// GPU counts covered, non-powers of two included: their stages keep
/// only the DP-only and TP-only options.
const GPUS: [usize; 9] = [1, 2, 3, 6, 8, 12, 32, 64, 128];

/// Plans `PlanService::adaptive_run` samples per stage count.
const EXPLORE_SAMPLES: usize = 192;

/// Every pool of both presets, plus one allocation scattered one GPU
/// per node.
fn targets() -> Vec<HwTarget> {
    let mut out: Vec<HwTarget> = [presets::table1_simulated(), presets::physical_testbed()]
        .iter()
        .flat_map(|c| c.pool_ids().map(|id| HwTarget::new(c.spec(id))))
        .collect();
    let scattered = MeshShape {
        nodes: 8,
        max_gpus_per_node: 1,
        total_gpus: 8,
    };
    out.push(HwTarget::with_mesh(
        presets::table1_simulated().spec(GpuTypeId(0)),
        scattered,
    ));
    out
}

/// The plan spaces `adaptive_run` explores: one per power-of-two stage
/// count the model and GPU count admit.
fn spaces(graph: &ModelGraph, gpus: usize) -> Vec<PlanSpace> {
    let mut out = Vec::new();
    let mut stages = 1;
    while stages <= gpus && stages <= graph.len() {
        if let Some(cell) = Cell::new(graph, gpus, stages) {
            out.push(PlanSpace::new(cell.partition));
        }
        stages *= 2;
    }
    out
}

/// Which behaviours of `evaluate` the compared samples exercised.
#[derive(Debug, Default)]
struct Coverage {
    feasible: u64,
    non_pow2_stage: u64,
    /// Starved at the GPipe micro-batch count.
    starved: u64,
    out_of_memory: u64,
    /// Infeasible at a stage other than the first.
    later_stage_error: u64,
    /// Two stages infeasible at the same micro-batch count: the first
    /// in stage order decides.
    competing_errors: u64,
    /// Feasible, with gradient accumulation raising the micro-batch
    /// count.
    accumulated: u64,
    /// Feasible, the escalation ended by starvation.
    ended_by_starvation: u64,
}

impl Coverage {
    fn record(
        &mut self,
        gt: &GroundTruth,
        graph: &ModelGraph,
        global_batch: usize,
        plan: &PipelinePlan,
        hw: &HwTarget,
        result: &Result<PlanPerf, Infeasible>,
    ) {
        if plan.stages.iter().any(|s| !s.gpus().is_power_of_two()) {
            self.non_pow2_stage += 1;
        }
        let model = gt.model();
        let b = plan.microbatches();
        let failing = (0..plan.num_stages())
            .filter_map(|i| {
                model
                    .stage_cost_at(graph, global_batch, plan, i, hw, b)
                    .err()
            })
            .count();
        if failing > 1 {
            self.competing_errors += 1;
        }
        match result {
            Ok(perf) => {
                self.feasible += 1;
                if perf.microbatches > b {
                    self.accumulated += 1;
                }
                if perf.microbatches < 16 * b {
                    let next =
                        model.evaluate_at(graph, global_batch, plan, hw, 2 * perf.microbatches);
                    if matches!(next, Err(Infeasible::MicrobatchTooSmall { .. })) {
                        self.ended_by_starvation += 1;
                    }
                }
            }
            Err(Infeasible::MicrobatchTooSmall { stage, .. }) => {
                self.starved += 1;
                self.later_stage_error += u64::from(*stage > 0);
            }
            Err(Infeasible::OutOfMemory { stage, .. }) => {
                self.out_of_memory += 1;
                self.later_stage_error += u64::from(*stage > 0);
            }
            Err(Infeasible::InvalidPlan) => panic!("a sampled plan must cover the model"),
        }
    }
}

/// Every sample of `space.sample(192)`: the kernel's index, iteration
/// time and throughput against `measure` of the materialised plan, by
/// bits; an infeasible plan must yield the same error.
fn compare_space(
    gt: &GroundTruth,
    graph: &ModelGraph,
    global_batch: usize,
    space: &PlanSpace,
    hw: &HwTarget,
    seen: &mut Coverage,
) {
    let search = SampledSearch::new(gt, graph, global_batch, space, hw);
    let got: Vec<_> = search.samples(EXPLORE_SAMPLES).collect();
    let plans: Vec<PipelinePlan> = space.sample(EXPLORE_SAMPLES).collect();
    assert_eq!(got.len(), plans.len());
    for ((idx, got), plan) in got.iter().zip(&plans) {
        assert_eq!(&space.plan_at_index(*idx), plan);
        let want = gt.measure(graph, global_batch, plan, hw);
        let ctx = || format!("{} on {} {}", graph.name, hw.name(), plan.label());
        match (got, &want) {
            (Ok(m), Ok(p)) => {
                assert_eq!(
                    m.iter_time_s.to_bits(),
                    p.iter_time_s.to_bits(),
                    "{}",
                    ctx()
                );
                assert_eq!(
                    m.throughput_sps.to_bits(),
                    p.throughput_sps.to_bits(),
                    "{}",
                    ctx()
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{}", ctx()),
            (got, want) => panic!("{}: kernel {got:?}, measure {want:?}", ctx()),
        }
        seen.record(gt, graph, global_batch, plan, hw, &want);
    }
}

#[test]
fn kernel_matches_measure_on_every_table2_config() {
    let targets = targets();
    let zero1 = CostParams {
        zero1: true,
        ..CostParams::default()
    };
    let truths = [
        GroundTruth::new(CostParams::default(), 7),
        GroundTruth::new(zero1, 7),
    ];
    let mut seen = Coverage::default();
    let mut case = 0;
    for model in table2_full_grid() {
        let graph = model.build();
        for gpus in GPUS {
            // Rotate hardware and cost constants so every target and
            // both parameter sets meet every family and GPU count.
            let hw = &targets[case % targets.len()];
            let gt = &truths[(case / targets.len()) % truths.len()];
            case += 1;
            for space in spaces(&graph, gpus) {
                compare_space(gt, &graph, model.global_batch, &space, hw, &mut seen);
            }
        }
    }
    let Coverage {
        feasible,
        non_pow2_stage,
        starved,
        out_of_memory,
        later_stage_error,
        competing_errors,
        accumulated,
        ended_by_starvation,
    } = seen;
    for (what, count) in [
        ("feasible", feasible),
        ("non-power-of-two stage", non_pow2_stage),
        ("starved", starved),
        ("out of memory", out_of_memory),
        ("later-stage error", later_stage_error),
        ("competing stage errors", competing_errors),
        ("accumulated", accumulated),
        ("ended by starvation", ended_by_starvation),
    ] {
        assert!(count > 0, "no sample exercised: {what} ({seen:?})");
    }
}

/// `PlanService::adaptive_run` as a loop over `measure`: the fastest
/// plan by iteration time (strict `<`, the first of equals wins) plus
/// the wall-clock of profiling every sample.
fn reference_adaptive(
    gt: &GroundTruth,
    graph: &ModelGraph,
    model: &ModelConfig,
    gpus: usize,
    hw: &HwTarget,
) -> Option<(f64, f64, f64, String)> {
    let p = gt.params();
    let mut wall = 0.0;
    let mut best: Option<(PipelinePlan, f64)> = None;
    for space in spaces(graph, gpus) {
        for plan in space.sample(EXPLORE_SAMPLES) {
            match gt.measure(graph, model.global_batch, &plan, hw) {
                Ok(perf) => {
                    wall += p.direct_profile_setup_s + p.direct_profile_iters * perf.iter_time_s;
                    if best.as_ref().is_none_or(|&(_, t)| perf.iter_time_s < t) {
                        best = Some((plan, perf.iter_time_s));
                    }
                }
                Err(_) => wall += p.direct_profile_setup_s,
            }
        }
    }
    best.map(|(plan, t)| {
        (
            t,
            model.global_batch as f64 / t,
            wall.min(EXPLORE_WALL_CAP_S),
            plan.short_label(),
        )
    })
}

/// The best of `plans` by throughput (strict `>`, the first of equals
/// wins).
fn reference_best(
    gt: &GroundTruth,
    graph: &ModelGraph,
    global_batch: usize,
    plans: impl Iterator<Item = PipelinePlan>,
    hw: &HwTarget,
) -> Option<(PipelinePlan, PlanPerf)> {
    let mut best: Option<(PipelinePlan, PlanPerf)> = None;
    for plan in plans {
        if let Ok(perf) = gt.measure(graph, global_batch, &plan, hw) {
            if best
                .as_ref()
                .is_none_or(|(_, b)| perf.throughput_sps > b.throughput_sps)
            {
                best = Some((plan, perf));
            }
        }
    }
    best
}

fn assert_same_perf(got: &PlanPerf, want: &PlanPerf) {
    assert_eq!(got.iter_time_s.to_bits(), want.iter_time_s.to_bits());
    assert_eq!(got.throughput_sps.to_bits(), want.throughput_sps.to_bits());
    assert_eq!(got, want);
}

/// Adaptive and Arena runs of a few models on every pool of `cluster`,
/// field by field against the reference loops.
fn compare_runs(cluster: &Cluster) {
    let params = CostParams::default();
    let service = PlanService::new(cluster, params.clone(), 7);
    let reference = GroundTruth::new(params, 7);
    for model in table2_configs().into_iter().step_by(3) {
        let graph = service.graph(&model);
        for pool in cluster.pool_ids() {
            let hw = service.hw(pool);
            // 8 GPUs take 30 trials; from 16 on, explorations reach the
            // wall cap, after which `adaptive_run` skips work. At 16,
            // WRes-4B on V100 and MoE-10B on A100 each have a stage
            // count whose lower bound is above the best time so far but
            // within the noise floor of it, and that stage count wins.
            let mut counts = vec![1, 3, 8, 16, 32, 64];
            if pool == GpuTypeId(0) {
                counts.push(128);
            }
            for gpus in counts {
                let got = service.adaptive_run(&model, gpus, pool).map(|r| {
                    (
                        r.iter_time_s.to_bits(),
                        r.throughput_sps.to_bits(),
                        r.acquire_wall_s.to_bits(),
                        r.plan_label,
                    )
                });
                let want = reference_adaptive(&reference, &graph, &model, gpus, &hw).map(
                    |(t, sps, wall, label)| (t.to_bits(), sps.to_bits(), wall.to_bits(), label),
                );
                assert_eq!(
                    got,
                    want,
                    "adaptive {} x{gpus} pool {}",
                    model.name(),
                    pool.0
                );

                let got = service.arena_run(&model, gpus, pool);
                let want = service.cell_choice(&model, gpus, pool).and_then(|choice| {
                    let cell = Cell::new(&graph, gpus, choice.stages)?;
                    let estimate =
                        service
                            .estimator()
                            .estimate(&graph, model.global_batch, &cell, &hw)?;
                    let space = pruned_space(&cell, &estimate.favors);
                    let plans = space.sample(DEFAULT_TUNE_CAP);
                    let (plan, perf) =
                        reference_best(&reference, &graph, model.global_batch, plans, &hw)?;
                    // The tuning profiles every sampled plan once, and
                    // sums its own trials in sample order from zero.
                    let walls: Vec<f64> = space
                        .sample(DEFAULT_TUNE_CAP)
                        .map(|plan| {
                            let t = reference.measure(&graph, model.global_batch, &plan, &hw);
                            reference.trial_wall_s(t.ok().map(|p| p.iter_time_s))
                        })
                        .collect();
                    let wall = walls.iter().fold(0.0, |sum, w| sum + w);
                    let gpu_s = walls.iter().fold(0.0, |sum, w| sum + w * gpus as f64);
                    let tuned = tune_in_space(
                        &reference,
                        &graph,
                        model.global_batch,
                        &space,
                        &hw,
                        DEFAULT_TUNE_CAP,
                    )?;
                    assert_eq!(tuned.trials, walls.len() as u64);
                    assert_eq!(tuned.wall_seconds.to_bits(), wall.to_bits());
                    assert_eq!(tuned.gpu_seconds.to_bits(), gpu_s.to_bits());
                    Some((plan, perf, wall))
                });
                match (got, want) {
                    (Some(r), Some((plan, perf, wall))) => {
                        assert_eq!(r.iter_time_s.to_bits(), perf.iter_time_s.to_bits());
                        assert_eq!(r.throughput_sps.to_bits(), perf.throughput_sps.to_bits());
                        assert_eq!(
                            r.acquire_wall_s.to_bits(),
                            wall.min(EXPLORE_WALL_CAP_S).to_bits()
                        );
                        assert_eq!(r.plan_label, plan.short_label());
                    }
                    (None, None) => {}
                    (got, want) => panic!("arena run {got:?} vs reference {want:?}"),
                }
            }
        }
    }
}

#[test]
fn explorations_match_reference_loops() {
    compare_runs(&presets::table1_simulated());
    compare_runs(&presets::physical_testbed());
}

#[test]
fn profile_best_matches_reference_loop() {
    let hw = HwTarget::new(presets::physical_testbed().spec(GpuTypeId(0)));
    let gt = GroundTruth::new(CostParams::default(), 7);
    for model in table2_configs().into_iter().step_by(4) {
        let graph = model.build();
        let gb = model.global_batch;
        for space in spaces(&graph, 8) {
            // One trial per plan, in sample order, seeing what `measure`
            // returns for it.
            let mut trials = Vec::new();
            let got = SampledSearch::new(&gt, &graph, gb, &space, &hw)
                .profile_best(usize::MAX, |t| trials.push(t.map(f64::to_bits)));
            let want_trials: Vec<_> = space
                .iter()
                .map(|plan| {
                    let t = gt.measure(&graph, gb, &plan, &hw);
                    t.ok().map(|p| p.iter_time_s.to_bits())
                })
                .collect();
            assert_eq!(trials, want_trials);
            let want = reference_best(&gt, &graph, gb, space.iter(), &hw);
            assert_eq!(got.as_ref().map(|b| &b.0), want.as_ref().map(|b| &b.0));
            if let (Some((_, got)), Some((_, want))) = (&got, &want) {
                assert_same_perf(got, want);
            }
        }
    }
}

#[test]
fn ties_go_to_the_first_plan() {
    // Weightless operators with no collectives and nothing crossing a
    // stage cut, under a cost model without a tensor-parallel penalty:
    // every split of a stage costs the same to the bit, so every plan of
    // the space ties.
    let op = Operator {
        name: "layer".to_string(),
        kind: OpKind::TransformerLayer,
        flops_fwd: 1e11,
        params: 0,
        out_bytes: 0.0,
        tp_comm_bytes: 0.0,
        dispatch_bytes: 0.0,
        act_bytes: 1e6,
    };
    let graph = ModelGraph::new("uniform".to_string(), ModelFamily::Bert, vec![op; 4]);
    let space = PlanSpace::new(StagePartition {
        ranges: vec![0..2, 2..4],
        gpus: vec![4, 4],
    });
    let params = CostParams {
        noise_sigma: 0.0,
        tp_fragmentation: 0.0,
        ..CostParams::default()
    };
    let gt = GroundTruth::new(params, 7);
    let hw = HwTarget::new(presets::physical_testbed().spec(GpuTypeId(0)));
    // Large enough that no split starves before the escalation ends.
    let gb = 1024;
    let search = SampledSearch::new(&gt, &graph, gb, &space, &hw);
    let times: Vec<u64> = search
        .samples(usize::MAX)
        .map(|(_, r)| r.expect("feasible").iter_time_s.to_bits())
        .collect();
    assert_eq!(times.len(), 9);
    assert!(times.iter().all(|&t| t == times[0]), "the plans must tie");
    let tie = f64::from_bits(times[0]);

    let first = space.plan_at_index(0);
    assert_eq!(search.fastest(usize::MAX, None, |_| true), Some((0, tie)));
    assert_eq!(search.fastest(usize::MAX, Some(tie), |_| true), None);
    assert_eq!(
        search
            .profile_best(usize::MAX, |_| {})
            .map(|b| b.0)
            .as_ref(),
        Some(&first)
    );
    let tuned = tune_in_space(&gt, &graph, gb, &space, &hw, DEFAULT_TUNE_CAP).expect("feasible");
    assert_eq!(tuned.plan, first);
}

/// The fastest of `samples` (strict `<`, the first of equals wins) that
/// beats `bound`, as `(index, time bits)`.
fn full_scan(
    samples: &[(u128, Result<f64, Infeasible>)],
    bound: Option<f64>,
) -> Option<(u128, u64)> {
    let mut best_t = bound;
    let mut winner = None;
    for &(idx, ref t) in samples {
        if let Ok(t) = *t {
            if best_t.is_none_or(|b| t < b) {
                best_t = Some(t);
                winner = Some((idx, t.to_bits()));
            }
        }
    }
    winner
}

#[test]
fn fastest_returns_the_full_scan_winner_whenever_timing_stops() {
    let targets = targets();
    let gt = GroundTruth::new(CostParams::default(), 7);
    let mut case = 0;
    let mut spaces_seen = 0;
    for model in table2_configs() {
        let graph = model.build();
        for gpus in GPUS {
            let hw = &targets[case % targets.len()];
            case += 1;
            for space in spaces(&graph, gpus) {
                let search = SampledSearch::new(&gt, &graph, model.global_batch, &space, hw);
                let samples: Vec<_> = search
                    .samples(EXPLORE_SAMPLES)
                    .map(|(idx, r)| (idx, r.map(|m| m.iter_time_s)))
                    .collect();
                // No bound, the winner's time (nothing beats it), and a
                // bound a little above it (few samples need measuring).
                let winner = full_scan(&samples, None).map(|(_, t)| f64::from_bits(t));
                for bound in [None, winner, winner.map(|t| t * 1.01)] {
                    let want = full_scan(&samples, bound);
                    for k in [0, 1, 40, usize::MAX] {
                        let mut seen = 0;
                        let got = search.fastest(EXPLORE_SAMPLES, bound, |t| {
                            let (_, want) = &samples[seen];
                            assert_eq!(
                                t.map(f64::to_bits),
                                want.as_ref().ok().map(|t| t.to_bits())
                            );
                            seen += 1;
                            seen <= k
                        });
                        let ctx = || {
                            format!(
                                "{} x{gpus} on {}: k {k}, bound {bound:?}",
                                graph.name,
                                hw.name()
                            )
                        };
                        assert_eq!(got.map(|(idx, t)| (idx, t.to_bits())), want, "{}", ctx());
                        // Timed until the callback declined, never after.
                        assert_eq!(seen, samples.len().min(k.saturating_add(1)), "{}", ctx());
                    }
                }
                spaces_seen += 1;
            }
        }
    }
    assert!(spaces_seen > 300, "only {spaces_seen} spaces compared");
}

/// Whether `space` holds a feasible plan: one whose every stage takes its
/// first option that is feasible at one shared micro-batch count, of the
/// five the escalation tries. A stage's feasibility depends on its own
/// option alone, and batch starvation only worsens with more
/// micro-batches, so if no such plan is feasible at any count, none is.
fn feasible_plan(
    gt: &GroundTruth,
    graph: &ModelGraph,
    global_batch: usize,
    space: &PlanSpace,
    hw: &HwTarget,
) -> bool {
    let model = gt.model();
    let base = space.plan_at_index(0);
    (0..5).any(|step| {
        let b = base.microbatches() << step;
        let mut plan = base.clone();
        for (s, options) in space.options().iter().enumerate() {
            let fits = |&&option: &&StagePlan| {
                let mut probe = base.clone();
                probe.stages[s].plan = option;
                model
                    .stage_cost_at(graph, global_batch, &probe, s, hw, b)
                    .is_ok()
            };
            match options.iter().find(fits) {
                Some(&option) => plan.stages[s].plan = option,
                None => return false,
            }
        }
        model.evaluate(graph, global_batch, &plan, hw).is_ok()
    })
}

#[test]
fn lower_bound_is_below_every_sampled_plan() {
    let gt = GroundTruth::new(CostParams::default(), 7);
    let (mut plans, mut infeasible_spaces) = (0, 0);
    for model in table2_configs() {
        let graph = model.build();
        let gb = model.global_batch;
        for hw in targets() {
            for gpus in GPUS {
                for space in spaces(&graph, gpus) {
                    let bound = SampledSearch::new(&gt, &graph, gb, &space, &hw).lower_bound();
                    let mut feasible = false;
                    for plan in space.sample(EXPLORE_SAMPLES) {
                        let Ok(perf) = gt.model().evaluate(&graph, gb, &plan, &hw) else {
                            continue;
                        };
                        feasible = true;
                        plans += 1;
                        let lb = bound.unwrap_or_else(|| {
                            panic!("{} feasible on {} with no bound", plan.label(), hw.name())
                        });
                        assert!(
                            lb <= perf.iter_time_s,
                            "{} on {}: bound {lb} above {}",
                            plan.label(),
                            hw.name(),
                            perf.iter_time_s
                        );
                    }
                    // A strided sample can miss every feasible plan of
                    // the space; the bound speaks for the whole space.
                    let feasible = feasible || feasible_plan(&gt, &graph, gb, &space, &hw);
                    assert_eq!(
                        bound.is_some(),
                        feasible,
                        "{} x{gpus} on {}: bound {bound:?}",
                        graph.name,
                        hw.name()
                    );
                    infeasible_spaces += u64::from(!feasible);
                }
            }
        }
    }
    assert!(plans > 100_000, "only {plans} feasible plans compared");
    assert!(infeasible_spaces > 0, "no space without a feasible plan");
}
