//! Property-based tests over the core invariants of the stack.

use proptest::prelude::*;

use arena::cluster::PartitionMap;
use arena::cluster::{Cluster, GpuSpec, GpuTypeId, NodeSpec};
use arena::model::zoo::{ModelConfig, ModelFamily};
use arena::parallelism::stages::pow2_composition;
use arena::parallelism::{determine_stages, stage_plan_options, PipelinePlan, PlanSpace};
use arena::perf::target::Channel;
use arena::perf::{collective, noise::NoiseModel, CostParams, HwTarget, PerfModel};
use arena::runtime::WorkerPool;
use arena::sched::{FcfsPolicy, PlanService};
use arena::sim::{JobState, Obs, Run, ShardPlan, SimConfig};
use arena::trace::{FaultEvent, FaultKind, JobSpec};

fn family(ix: usize) -> (ModelFamily, f64) {
    let table = [
        (ModelFamily::WideResNet, 0.5),
        (ModelFamily::WideResNet, 1.0),
        (ModelFamily::Bert, 0.76),
        (ModelFamily::Bert, 1.3),
        (ModelFamily::Moe, 0.69),
        (ModelFamily::Moe, 1.3),
    ];
    table[ix % table.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The allocator's books always balance: any sequence of allocations
    /// and releases leaves free-GPU counts consistent and within bounds.
    #[test]
    fn allocator_books_balance(ops in proptest::collection::vec((0_usize..3, 1_usize..12), 1..40)) {
        let mut cluster = Cluster::new(&[
            (NodeSpec::with_default_links(GpuSpec::A100, 4), 3),
            (NodeSpec::with_default_links(GpuSpec::A10, 2), 4),
        ]);
        let totals = [12_usize, 8];
        let mut live: Vec<arena::cluster::Allocation> = Vec::new();
        let mut used = [0_usize; 2];
        for (sel, n) in ops {
            if sel == 2 && !live.is_empty() {
                let a = live.swap_remove(n % live.len());
                used[a.pool.0] -= a.total_gpus();
                cluster.release(&a).expect("release succeeds");
            } else {
                let pool = GpuTypeId(sel % 2);
                match cluster.allocate(pool, n) {
                    Ok(a) => {
                        prop_assert_eq!(a.total_gpus(), n);
                        used[pool.0] += n;
                        live.push(a);
                    }
                    Err(_) => {
                        // Allocation may only fail when capacity is short.
                        prop_assert!(used[pool.0] + n > totals[pool.0]);
                    }
                }
            }
            for (i, &total) in totals.iter().enumerate() {
                prop_assert_eq!(cluster.free_gpus(GpuTypeId(i)), total - used[i]);
            }
        }
    }

    /// Power-of-two compositions exist iff `parts <= total`, sum exactly,
    /// and every part is a power of two.
    #[test]
    fn pow2_composition_invariants(total in 1_usize..200, parts in 1_usize..24) {
        match pow2_composition(total, parts) {
            Some(v) => {
                prop_assert_eq!(v.len(), parts);
                prop_assert_eq!(v.iter().sum::<usize>(), total);
                prop_assert!(v.iter().all(|p| p.is_power_of_two()));
            }
            None => prop_assert!(
                parts > total || (total.count_ones() as usize) > parts
            ),
        }
    }

    /// Stage determination covers the whole graph exactly once with
    /// power-of-two stage sizes summing to the allocation.
    #[test]
    fn stage_determination_invariants(ix in 0_usize..6, gpus_log in 0_u32..7, stages_log in 0_u32..5) {
        let (fam, size) = family(ix);
        let graph = ModelConfig::new(fam, size, 256).build();
        let gpus = 1_usize << gpus_log;
        let stages = 1_usize << stages_log;
        if let Some(p) = determine_stages(&graph, gpus, stages) {
            prop_assert_eq!(p.num_stages(), stages);
            prop_assert_eq!(p.total_gpus(), gpus);
            let mut next = 0;
            for r in &p.ranges {
                prop_assert_eq!(r.start, next);
                prop_assert!(!r.is_empty());
                next = r.end;
            }
            prop_assert_eq!(next, graph.len());
            prop_assert!(p.gpus.iter().all(|g| g.is_power_of_two()));
        } else {
            prop_assert!(stages > gpus || stages > graph.len());
        }
    }

    /// Every option of a stage's exploration axis uses exactly its GPUs,
    /// and the axis runs from DP-only to TP-only.
    #[test]
    fn stage_options_conserve_gpus(g_log in 0_u32..7) {
        let g = 1_usize << g_log;
        let opts = stage_plan_options(g);
        prop_assert_eq!(opts.len(), g_log as usize + 1);
        prop_assert!(opts.iter().all(|p| p.gpus() == g));
        prop_assert_eq!(opts.first().unwrap().dp, g);
        prop_assert_eq!(opts.last().unwrap().tp, g);
    }

    /// Indexed access into a plan space agrees with iteration, and every
    /// plan in the space is valid for the graph.
    #[test]
    fn plan_space_indexing(ix in 0_usize..6, gpus_log in 1_u32..5, stages_log in 0_u32..3) {
        let (fam, size) = family(ix);
        let graph = ModelConfig::new(fam, size, 256).build();
        let gpus = 1_usize << gpus_log;
        let stages = 1_usize << stages_log;
        prop_assume!(stages <= gpus && stages <= graph.len());
        let Some(part) = determine_stages(&graph, gpus, stages) else {
            return Ok(());
        };
        let space = PlanSpace::new(part);
        let by_iter: Vec<String> = space.iter().map(|p| p.label()).collect();
        for (i, label) in by_iter.iter().enumerate() {
            let plan = space.plan_at_index(i as u128);
            prop_assert_eq!(&plan.label(), label);
            prop_assert!(plan.is_valid_for(&graph));
            prop_assert_eq!(plan.total_gpus(), gpus);
        }
    }

    /// Collective costs are non-negative and monotone in volume.
    #[test]
    fn collectives_monotone(bytes in 1.0e3_f64..1.0e11, n in 2_usize..64) {
        let ch = Channel::from_link(arena::cluster::LinkKind::IbCx5);
        for f in [
            collective::allreduce, collective::allgather, collective::alltoall,
        ] {
            let t1 = f(bytes, n, ch);
            let t2 = f(bytes * 2.0, n, ch);
            prop_assert!(t1 > 0.0);
            prop_assert!(t2 > t1);
        }
        prop_assert!(collective::p2p(bytes * 2.0, ch) > collective::p2p(bytes, ch));
    }

    /// Plan evaluation keeps throughput = batch / iteration time and
    /// reports a max memory equal to the max over stages.
    #[test]
    fn evaluation_consistency(ix in 0_usize..6, gpus_log in 1_u32..4, stages_log in 0_u32..3) {
        let (fam, size) = family(ix);
        let gb = 256;
        let graph = ModelConfig::new(fam, size, gb).build();
        let gpus = 1_usize << gpus_log;
        let stages = 1_usize << stages_log;
        prop_assume!(stages <= gpus && stages <= graph.len());
        let Some(part) = determine_stages(&graph, gpus, stages) else {
            return Ok(());
        };
        let model = PerfModel::new(CostParams::default());
        let hw = HwTarget::new(NodeSpec::with_default_links(GpuSpec::A100, 4));
        for plan in PlanSpace::new(part).iter() {
            if let Ok(perf) = model.evaluate(&graph, gb, &plan, &hw) {
                prop_assert!(perf.iter_time_s > 0.0);
                prop_assert!(
                    (perf.throughput_sps - gb as f64 / perf.iter_time_s).abs() < 1e-9
                );
                let max_stage = perf.stages.iter().map(|s| s.mem_bytes).fold(0.0, f64::max);
                prop_assert_eq!(perf.max_mem_bytes, max_stage);
                prop_assert!(perf.microbatches >= plan.microbatches());
                let budget = hw.node.gpu.mem_bytes() as f64
                    * model.params.usable_mem_frac;
                prop_assert!(perf.max_mem_bytes <= budget);
            }
        }
    }

    /// Noise factors are deterministic, bounded, and identity when off.
    #[test]
    fn noise_bounds(seed in 0_u64..1000, key in "[a-z]{1,16}") {
        let n = NoiseModel::new(0.05, seed);
        let f = n.factor(&key);
        prop_assert_eq!(f, n.factor(&key));
        prop_assert!((0.85..=1.15).contains(&f));
        prop_assert_eq!(NoiseModel::disabled().factor(&key), 1.0);
    }

    /// Assembled plans are always a subset of the full exploration space.
    #[test]
    fn assembled_subset_of_space(ix in 0_usize..6, stages_log in 0_u32..3) {
        let (fam, size) = family(ix);
        let graph = ModelConfig::new(fam, size, 256).build();
        let stages = 1_usize << stages_log;
        let Some(part) = determine_stages(&graph, 8, stages) else {
            return Ok(());
        };
        let full: std::collections::HashSet<String> =
            PlanSpace::new(part.clone()).iter().map(|p| p.label()).collect();
        let assembled = arena::parallelism::assembled_plans(&part);
        prop_assert_eq!(assembled.len(), 1 << stages);
        for p in &assembled {
            prop_assert!(full.contains(&p.label()));
        }
    }

    /// Plan labels round-trip the structure they describe (distinct plans
    /// get distinct labels within a space).
    #[test]
    fn plan_labels_unique(stages_log in 0_u32..3) {
        let graph = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
        let stages = 1_usize << stages_log;
        let Some(part) = determine_stages(&graph, 8, stages) else {
            return Ok(());
        };
        let labels: Vec<String> = PlanSpace::new(part).iter().map(|p| p.label()).collect();
        let set: std::collections::HashSet<&String> = labels.iter().collect();
        prop_assert_eq!(set.len(), labels.len());
    }
}

/// A small two-pool cluster that keeps each simulated timeline case
/// cheap while still exercising multi-node spans and a fault domain.
fn timeline_cluster() -> Cluster {
    Cluster::new(&[
        (NodeSpec::with_default_links(GpuSpec::A100, 4), 3),
        (NodeSpec::with_default_links(GpuSpec::A10, 4), 2),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Traced runs produce a legal timeline under arbitrary small
    /// workloads and fault schedules: per-job intervals are
    /// chronological and non-overlapping, only active states hold GPUs,
    /// and the timeline's `Running` GPU-second accounting equals the
    /// engine's `Metrics` exactly (bitwise), faulted or not.
    #[test]
    fn timeline_intervals_legal_and_gpu_seconds_exact(
        job_gen in proptest::collection::vec((0_usize..3, 30_u64..200, 0_u32..400), 1..6),
        fault in (0_u32..2, 300_u32..3000, 1_usize..3),
    ) {
        let cluster = timeline_cluster();
        let service = PlanService::new(&cluster, CostParams::default(), 11);
        let mut submit = 0.0;
        let jobs: Vec<JobSpec> = job_gen
            .iter()
            .enumerate()
            .map(|(i, &(sel, iters, gap))| {
                submit += f64::from(gap);
                JobSpec {
                    id: i as u64,
                    name: format!("j{i}"),
                    submit_s: submit,
                    model: ModelConfig::new(ModelFamily::Bert, 0.76, 256),
                    iterations: iters,
                    requested_gpus: [1, 2, 4][sel],
                    requested_pool: 0,
                    deadline_s: None,
                }
            })
            .collect();
        // `fault.0` toggles the schedule so the unfaulted path gets the
        // same coverage as the faulted one.
        let (inject, fail_t, nodes) = fault;
        let mut faults: Vec<FaultEvent> = Vec::new();
        if inject == 1 {
            let fail = f64::from(fail_t);
            faults.extend((0..nodes).map(|n| FaultEvent {
                time_s: fail,
                pool: 0,
                node: n,
                kind: FaultKind::Failure,
            }));
            faults.extend((0..nodes).map(|n| FaultEvent {
                time_s: fail + 1800.0,
                pool: 0,
                node: n,
                kind: FaultKind::Repair,
            }));
        }
        let obs = Obs::enabled();
        let r = Run::new(&cluster, &mut FcfsPolicy::new(), &service, &SimConfig::new(24.0 * 3600.0)).faults(&faults).obs(&obs).batch(&jobs);
        let tl = &r.trace.timeline;
        prop_assert!(tl.validate().is_ok(), "invalid timeline: {:?}", tl.validate());
        for (job, ivs) in tl.job_intervals() {
            for w in ivs.windows(2) {
                prop_assert!(w[0].end_s <= w[1].start_s, "job {} overlaps: {:?}", job, w);
            }
            for iv in &ivs {
                prop_assert!(iv.end_s >= iv.start_s);
                match iv.state {
                    JobState::Placed | JobState::Running => prop_assert!(iv.gpus > 0),
                    _ => prop_assert_eq!(iv.gpus, 0),
                }
            }
        }
        let accounts = tl.accounts();
        for rec in &r.records {
            let acc = accounts[&rec.id];
            prop_assert_eq!(acc.productive_gpu_s, rec.productive_gpu_s);
            prop_assert_eq!(acc.allocated_gpu_s, rec.allocated_gpu_s);
            prop_assert_eq!(acc.run_s, rec.run_s);
            prop_assert!(acc.allocated_gpu_s >= acc.productive_gpu_s);
        }
        // Summing the timeline's per-job Running GPU-seconds in record
        // order reproduces the aggregate exactly, not approximately.
        let productive: f64 = r.records.iter().map(|rec| accounts[&rec.id].productive_gpu_s).sum();
        prop_assert_eq!(productive, r.metrics.productive_gpu_s);
        let allocated: f64 = r.records.iter().map(|rec| accounts[&rec.id].allocated_gpu_s).sum();
        prop_assert_eq!(allocated, r.metrics.allocated_gpu_s);
    }
}

/// Adversarial partition maps for a two-pool cluster: `partitions` may
/// exceed the pool count (leaving shards empty), both pools may share a
/// partition (funnelling all jobs through one shard), and any shard may
/// end up owning a single node's worth of capacity. The strategy emits
/// the assignment plus a deliberately mismatched executor shard count.
fn adversarial_partition_maps() -> impl Strategy<Value = (PartitionMap, usize, usize)> {
    (
        proptest::collection::vec(0_usize..6, 2..3),
        1_usize..7,
        1_usize..5,
    )
        .prop_map(|(raw, shards, workers)| {
            let partitions = raw.iter().copied().max().unwrap_or(0) + 1;
            (
                PartitionMap::with_partitions(raw, partitions),
                shards,
                workers,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sharding is conservative and invisible under adversarial
    /// partition maps: per-shard capacity stats always sum to the
    /// cluster's books, and the sharded run reproduces the one-shard
    /// run byte-for-byte — twice, so the sharded run is also
    /// deterministic against itself.
    #[test]
    fn adversarial_partitions_conserve_and_reproduce(
        plan_gen in adversarial_partition_maps(),
        job_gen in proptest::collection::vec((0_usize..3, 40_u64..160, 0_u32..300), 1..5),
    ) {
        let (map, shards, workers) = plan_gen;
        let cluster = timeline_cluster();
        // Conservation: shard capacity stats partition the cluster books.
        let stats = map.shard_stats(&cluster);
        prop_assert_eq!(stats.len(), map.partitions());
        let total: usize = stats.iter().map(|s| s.total_gpus).sum();
        let free: usize = stats.iter().map(|s| s.free_gpus).sum();
        let pools: usize = stats.iter().map(|s| s.pools).sum();
        prop_assert_eq!(total, cluster.total_gpus());
        prop_assert_eq!(
            free,
            (0..cluster.num_pools())
                .map(|p| cluster.free_gpus(arena::cluster::GpuTypeId(p)))
                .sum::<usize>()
        );
        prop_assert_eq!(pools, cluster.num_pools());

        let mut submit = 0.0;
        let jobs: Vec<JobSpec> = job_gen
            .iter()
            .enumerate()
            .map(|(i, &(sel, iters, gap))| {
                submit += f64::from(gap);
                JobSpec {
                    id: i as u64,
                    name: format!("j{i}"),
                    submit_s: submit,
                    model: ModelConfig::new(ModelFamily::Bert, 0.76, 256),
                    iterations: iters,
                    requested_gpus: [1, 2, 4][sel],
                    requested_pool: i % 2,
                    deadline_s: None,
                }
            })
            .collect();
        let cfg = SimConfig::new(24.0 * 3600.0);
        let fingerprint = |r: arena::sim::SimResult| {
            format!(
                "{}|{:?}|{:?}|{:?}|{}",
                serde_json::to_string(&r.metrics).expect("metrics serialise"),
                r.records,
                r.timeline,
                r.raw_timeline,
                r.trace.decisions_jsonl(),
            )
        };
        let serial = {
            let service = PlanService::new(&cluster, CostParams::default(), 11);
            let mut r = Run::new(&cluster, &mut FcfsPolicy::new(), &service, &cfg).obs(&Obs::enabled()).batch(&jobs);
            r.metrics.avg_decision_s = 0.0;
            fingerprint(r)
        };
        let sharded = || {
            let service = PlanService::new(&cluster, CostParams::default(), 11);
            let plan = ShardPlan::per_pool(&cluster)
                .with_partition(map.clone())
                .with_shards(shards)
                .with_workers(WorkerPool::new(workers));
            let mut r = Run::new(&cluster, &mut FcfsPolicy::new(), &service, &cfg).obs(&Obs::enabled()).plan(&plan).batch(&jobs);
            r.metrics.avg_decision_s = 0.0;
            fingerprint(r)
        };
        let first = sharded();
        prop_assert_eq!(&first, &serial);
        prop_assert_eq!(&sharded(), &first);
    }
}

/// Non-proptest sanity: `PipelinePlan::short_label` is stable for the
/// uniform case (used by experiment output).
#[test]
fn short_label_format() {
    let graph = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
    let part = determine_stages(&graph, 4, 2).unwrap();
    let plan: PipelinePlan = PlanSpace::new(part).iter().next().unwrap();
    assert!(plan.short_label().starts_with('D') || plan.short_label().starts_with('P'));
}
