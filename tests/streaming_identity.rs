//! Streaming-vs-resident identity: a fleet-scale streaming run
//! (`Run::stream` — pull-based arrivals, record-fold engine, reclaimed
//! job slots) must schedule *byte-identically* to a batch run
//! (`Run::batch`) that materialises the whole trace. These tests pin the
//! identity across every comparison policy and faulted/unfaulted
//! schedules, plus the memory-budget contract: cache
//! eviction under an arbitrarily tiny `set_mem_budget` is semantically
//! invisible — it forces recomputation, never a different answer.
//!
//! What "identical" means here: the order-free record fingerprint, both
//! throughput timelines and every integer counter are exact equality;
//! floating-point *sums* (avg JCT) agree only to rounding, because the
//! streaming engine folds records in termination order while the batch
//! run folds the submission-ordered record vector (see
//! `FoldedRecords`).

use arena::prelude::*;
use arena::sched::{policy_by_name, POLICY_NAMES};
use arena::sim::record_fingerprint;
use arena::trace::{FaultEvent, FaultKind, VecSource};
use proptest::prelude::*;

fn mixed_trace(n: u64, gap_s: f64) -> Vec<JobSpec> {
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
                submit_s: gap_s * i as f64,
                model: ModelConfig::new(fam, size, 256),
                iterations: 300 + 150 * (i % 4),
                requested_gpus: [2, 4, 8][(i % 3) as usize],
                requested_pool: (i % 2) as usize,
                deadline_s: None,
            }
        })
        .collect()
}

fn fault_schedule() -> Vec<FaultEvent> {
    vec![
        FaultEvent {
            time_s: 500.0,
            pool: 0,
            node: 0,
            kind: FaultKind::Failure,
        },
        FaultEvent {
            time_s: 1500.0,
            pool: 1,
            node: 1,
            kind: FaultKind::Failure,
        },
        FaultEvent {
            time_s: 5000.0,
            pool: 0,
            node: 0,
            kind: FaultKind::Repair,
        },
        FaultEvent {
            time_s: 9000.0,
            pool: 1,
            node: 1,
            kind: FaultKind::Repair,
        },
    ]
}

/// Runs one (policy, fault schedule) scenario both ways and asserts
/// the streaming summary reproduces the resident run.
fn assert_stream_matches_batch(policy_name: &str, jobs: &[JobSpec], faults: &[FaultEvent]) {
    let cluster = arena::cluster::presets::physical_testbed();
    let cfg = SimConfig::new(48.0 * 3600.0);

    let batch = {
        let service = PlanService::new(&cluster, CostParams::default(), 17);
        let mut policy = policy_by_name(policy_name, 1).expect("known policy");
        Run::new(&cluster, policy.as_mut(), &service, &cfg)
            .faults(faults)
            .batch(jobs)
    };
    let stream = {
        let service = PlanService::new(&cluster, CostParams::default(), 17);
        let mut policy = policy_by_name(policy_name, 1).expect("known policy");
        Run::new(&cluster, policy.as_mut(), &service, &cfg)
            .faults(faults)
            .stream(&mut VecSource::new(jobs.to_vec()))
            .expect("in-memory source cannot fail")
    };

    let ctx = format!("policy={policy_name} faults={}", faults.len());
    assert_eq!(
        stream.fingerprint,
        record_fingerprint(&batch.records),
        "record fingerprint diverged ({ctx})"
    );
    assert_eq!(stream.timeline, batch.timeline, "timeline diverged ({ctx})");
    assert_eq!(
        stream.raw_timeline, batch.raw_timeline,
        "raw timeline diverged ({ctx})"
    );
    assert_eq!(stream.jobs.jobs as usize, batch.records.len(), "{ctx}");
    assert_eq!(stream.jobs.finished, batch.metrics.finished as u64, "{ctx}");
    assert_eq!(stream.jobs.dropped, batch.metrics.dropped as u64, "{ctx}");
    assert_eq!(
        stream.failure_evictions, batch.metrics.failure_evictions,
        "{ctx}"
    );
    assert_eq!(stream.goodput_sps, batch.metrics.goodput_sps, "{ctx}");
    // Float sums fold in termination order, not record order, so they
    // agree only up to rounding; everything above is exact.
    let jct_err = (stream.jobs.avg_jct_s() - batch.metrics.avg_jct_s).abs();
    assert!(jct_err < 1e-6, "avg JCT drifted by {jct_err} ({ctx})");
}

/// Every comparison policy, fault-free.
#[test]
fn streaming_identity_all_policies_unfaulted() {
    let jobs = mixed_trace(36, 200.0);
    for name in POLICY_NAMES {
        assert_stream_matches_batch(name, &jobs, &[]);
    }
}

/// Same matrix under a four-event failure/repair schedule that lands
/// mid-trace on both pools.
#[test]
fn streaming_identity_all_policies_faulted() {
    let jobs = mixed_trace(36, 200.0);
    let faults = fault_schedule();
    for name in POLICY_NAMES {
        assert_stream_matches_batch(name, &jobs, &faults);
    }
}

/// Runs the streaming driver with the given plan-database budget (None =
/// unlimited) and returns the summary plus the total evictions the
/// budgeted maps performed.
fn run_with_budget(
    jobs: &[JobSpec],
    budget: Option<usize>,
    policy_name: &str,
) -> (StreamSummary, u64) {
    let cluster = arena::cluster::presets::physical_testbed();
    let cfg = SimConfig::new(48.0 * 3600.0);
    let service = PlanService::new(&cluster, CostParams::default(), 17);
    service.set_mem_budget(budget);
    let mut policy = policy_by_name(policy_name, 1).expect("known policy");
    let summary = Run::new(&cluster, policy.as_mut(), &service, &cfg)
        .stream(&mut VecSource::new(jobs.to_vec()))
        .expect("in-memory source cannot fail");
    let evictions = service.mem_report().iter().map(|s| s.evictions).sum();
    (summary, evictions)
}

/// Nine Arena jobs that repeat two tuning keys between others: under a
/// tiny budget their tunings are evicted and run again after other keys
/// have charged the profiling meter, which must not change the result.
fn retuning_trace() -> Vec<JobSpec> {
    [
        (ModelFamily::Bert, 1.3, 8, 0),
        (ModelFamily::Moe, 1.3, 4, 1),
        (ModelFamily::Bert, 1.3, 8, 0),
        (ModelFamily::WideResNet, 1.0, 2, 0),
        (ModelFamily::Moe, 0.69, 4, 1),
        (ModelFamily::Bert, 1.3, 8, 0),
        (ModelFamily::Bert, 0.76, 2, 1),
        (ModelFamily::Moe, 1.3, 4, 1),
        (ModelFamily::WideResNet, 0.5, 4, 0),
    ]
    .into_iter()
    .zip(0_u64..)
    .map(|((fam, size, gpus, pool), id)| JobSpec {
        id,
        name: format!("j{id}"),
        submit_s: 100.0 * id as f64,
        model: ModelConfig::new(fam, size, 256),
        iterations: 2000,
        requested_gpus: gpus,
        requested_pool: pool,
        deadline_s: None,
    })
    .collect()
}

/// Deterministic vacuousness guard for the property below: a byte-scale
/// budget on a real trace must actually evict — and still reproduce the
/// unbudgeted run exactly.
#[test]
fn tiny_budget_evicts_without_changing_output() {
    for jobs in [mixed_trace(24, 300.0), retuning_trace()] {
        let (free, _) = run_with_budget(&jobs, None, "arena");
        let (tight, evictions) = run_with_budget(&jobs, Some(2048), "arena");
        assert!(evictions > 0, "2 KiB budget never evicted: vacuous test");
        assert_eq!(free.fingerprint, tight.fingerprint);
        assert_eq!(free.timeline, tight.timeline);
        assert_eq!(free.raw_timeline, tight.raw_timeline);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cache eviction is semantically invisible at *any* budget: a run
    /// whose plan database is squeezed to a few hundred bytes
    /// schedules exactly like an unbudgeted one. Eviction may only cost
    /// recomputation, never change an answer.
    #[test]
    fn budget_eviction_never_changes_scheduling(
        budget in 256_usize..16_384,
        n in 8_u64..28,
        gap in 150_u64..600,
        policy_ix in 0_usize..POLICY_NAMES.len(),
    ) {
        let jobs = mixed_trace(n, gap as f64);
        let name = POLICY_NAMES[policy_ix];
        let (free, _) = run_with_budget(&jobs, None, name);
        let (tight, _) = run_with_budget(&jobs, Some(budget), name);
        prop_assert_eq!(free.fingerprint, tight.fingerprint);
        prop_assert_eq!(free.timeline, tight.timeline);
        prop_assert_eq!(free.raw_timeline, tight.raw_timeline);
        prop_assert_eq!(free.jobs.finished, tight.jobs.finished);
        prop_assert_eq!(free.jobs.dropped, tight.jobs.dropped);
    }
}
