//! The event-indexed engine against the pre-index reference loop.
//!
//! `arena::sim::reference` is a frozen copy of the engine as it was
//! before the event-indexed core (lazy-deletion event heap, membership
//! indexes, lazy advance, interned plan keys): full-table scans
//! everywhere. The rewrite's contract is that none of that machinery is
//! observable — not merely statistically close, but *byte-identical*
//! output: every record, every timeline sample, every decision line,
//! every traced job event. These tests hold the two loops together:
//!
//! 1. across all five comparison policies, unfaulted and faulted, with
//!    observability enabled (so the traced event stream is compared
//!    too), and
//! 2. under proptest-generated arrival/fault schedules, where any heap
//!    desync — a stale entry surviving a generation bump, a missed
//!    refresh after an advance — would surface as a divergent timeline.

use arena::prelude::*;
use arena::sim::reference;
use arena::trace::FaultEvent;
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

/// Everything observable about a run except wall-clock decision timing:
/// metrics, per-job records, both throughput timelines, the decision
/// log, and the traced job-event timeline.
fn fingerprint(mut r: SimResult) -> String {
    r.metrics.avg_decision_s = 0.0;
    format!(
        "policy={}\nmetrics={}\nrecords={:?}\ntimeline={:?}\nraw={:?}\ndecisions=\n{}\nevents={:?}\nnodes={:?}",
        r.policy,
        serde_json::to_string(&r.metrics).expect("metrics serialise"),
        r.records,
        r.timeline,
        r.raw_timeline,
        r.trace.decisions_jsonl(),
        r.trace.timeline.events,
        r.trace.timeline.nodes,
    )
}

/// Runs the same scenario through both engines (fresh policy + service
/// each, so no cache state crosses over) and asserts byte equality.
fn assert_equivalent(jobs: &[JobSpec], faults: &[FaultEvent], cfg: &SimConfig, traced: bool) {
    let cluster = arena::cluster::presets::physical_testbed();
    let run = |engine_new: bool| -> Vec<String> {
        arena::experiments::comparison_policies()
            .into_iter()
            .map(|mut policy| {
                let service = PlanService::new(&cluster, CostParams::default(), 17);
                let obs = if traced {
                    Obs::enabled()
                } else {
                    Obs::disabled()
                };
                let r = if engine_new {
                    Run::new(&cluster, policy.as_mut(), &service, cfg)
                        .faults(faults)
                        .obs(&obs)
                        .batch(jobs)
                } else {
                    reference::simulate_with_faults_traced(
                        &cluster,
                        jobs,
                        policy.as_mut(),
                        &service,
                        cfg,
                        faults,
                        &obs,
                    )
                };
                fingerprint(r)
            })
            .collect()
    };
    let indexed = run(true);
    let referenced = run(false);
    assert_eq!(indexed.len(), 5);
    for (new, old) in indexed.iter().zip(&referenced) {
        assert_eq!(new, old, "indexed engine diverged from the reference loop");
    }
}

#[test]
fn all_policies_match_reference_unfaulted() {
    let jobs = mixed_trace(12, 150.0);
    let cfg = SimConfig::new(24.0 * 3600.0);
    assert_equivalent(&jobs, &[], &cfg, true);
}

#[test]
fn all_policies_match_reference_faulted() {
    let jobs = mixed_trace(12, 150.0);
    let cfg = SimConfig::new(24.0 * 3600.0);
    let faults = arena::trace::generate_faults(
        &arena::trace::FaultConfig::with_mtbf(9_000.0),
        &[16, 16],
        24.0 * 3600.0,
    );
    assert!(!faults.is_empty(), "fixture produced no faults");
    assert_equivalent(&jobs, &faults, &cfg, true);
}

#[test]
fn horizon_cutoff_matches_reference() {
    // A horizon that slices through running jobs exercises the
    // unfinished-job paths (open segments flushed at the cutoff).
    let jobs = mixed_trace(8, 60.0);
    let cfg = SimConfig::new(2_500.0);
    assert_equivalent(&jobs, &[], &cfg, true);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random arrival spacings and fault-schedule densities: whatever
    /// interleaving of failures, repairs, arrivals and completions
    /// results, the heap-driven loop must never desync from the
    /// reference scan (FCFS keeps the policy side cheap so the engine
    /// paths dominate).
    #[test]
    fn random_schedules_never_desync(
        n in 2_u64..10,
        gap_s in 20.0_f64..400.0,
        mtbf_s in 4_000.0_f64..40_000.0,
        fault_seed in 0_u64..1_000,
    ) {
        let jobs = mixed_trace(n, gap_s);
        let mut fault_cfg = arena::trace::FaultConfig::with_mtbf(mtbf_s);
        fault_cfg.seed = fault_seed;
        let horizon_s = 12.0 * 3600.0;
        let faults = arena::trace::generate_faults(&fault_cfg, &[16, 16], horizon_s);
        let cfg = SimConfig::new(horizon_s);
        let cluster = arena::cluster::presets::physical_testbed();
        let run = |engine_new: bool| {
            let service = PlanService::new(&cluster, CostParams::default(), 17);
            let mut policy = FcfsPolicy::new();
            let r = if engine_new {
                Run::new(&cluster, &mut policy, &service, &cfg).faults(&faults).batch(&jobs)
            } else {
                reference::simulate_with_faults(&cluster, &jobs, &mut policy, &service, &cfg, &faults)
            };
            fingerprint(r)
        };
        prop_assert_eq!(run(true), run(false));
    }
}
