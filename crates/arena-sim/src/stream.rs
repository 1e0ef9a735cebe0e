//! Streaming runs: million-job traces in bounded memory.
//!
//! A batch run ([`crate::Run::batch`]) materialises the whole trace
//! (`&[JobSpec]`), loads it into the engine's pending queue, and keeps a
//! terminal `SJob` plus a `JobRecord` for every job to the end of the
//! run — all O(trace length). A streaming run ([`crate::Run::stream`])
//! holds none of that:
//!
//! * arrivals are *pulled* one at a time from an
//!   [`arena_trace::TraceSource`] and injected through the burst-window
//!   seam ([`crate::Engine::advance_before`]), so the pending queue
//!   holds at most one undelivered job;
//! * the engine runs in record-fold mode
//!   ([`crate::Engine::enable_record_fold`]): a terminal job folds into
//!   a constant-memory [`FoldedRecords`] aggregate and its job-table
//!   slot is reclaimed, so resident memory follows the *live* job count
//!   (offered load × service time), not the trace length.
//!
//! **Equivalence.** The interleaving is exactly the one the burst-window
//! lemma licenses (see [`crate::incremental`] module docs), and folding
//! only ever touches jobs every engine path already treats as inert —
//! so a streaming run schedules byte-identically to a batch run on the
//! same trace. The summary's [`StreamSummary::fingerprint`] is an
//! order-free hash over per-job records, comparable against
//! [`crate::record_fingerprint`] of the batch run's record vector;
//! `tests/streaming_identity.rs` pins the identity across policies
//! and fault schedules.

use arena_trace::{FaultEvent, TraceSource};
use serde::Serialize;

use crate::incremental::Engine;
use crate::metrics::{DecisionStats, FoldedRecords};

/// What a streaming run yields instead of a [`crate::SimResult`]:
/// constant-memory aggregates plus the round-sampled throughput
/// timelines (bounded by horizon / round interval, not job count).
#[derive(Debug, Clone, Serialize)]
pub struct StreamSummary {
    /// The policy's display name.
    pub policy: String,
    /// Folded per-job aggregates (counts, JCT/queue sums, GPU-seconds).
    pub jobs: FoldedRecords,
    /// Order-free fingerprint of the folded record multiset — equals
    /// [`crate::record_fingerprint`] over a batch run's records iff the
    /// two runs produced identical per-job outcomes.
    pub fingerprint: u64,
    /// Scheduler decision-latency fold (count / total / max).
    pub decisions: DecisionStats,
    /// Useful samples per second over the run (processed minus
    /// failure-lost work).
    pub goodput_sps: f64,
    /// Fraction of processed samples re-done after failure rollbacks.
    pub work_lost_frac: f64,
    /// Jobs evicted by node failures.
    pub failure_evictions: usize,
    /// Mean failure-to-running-again wall-clock, seconds.
    pub mean_recovery_s: f64,
    /// Productive GPU-seconds over nameplate capacity GPU-seconds.
    pub cluster_util_frac: f64,
    /// Wall-clock span of the run, seconds.
    pub elapsed_s: f64,
    /// High-water mark of concurrently live (queued + active) jobs —
    /// the working set the streaming memory model is sized by.
    pub peak_live_jobs: usize,
    /// `(time, normalised cluster throughput)` at every round.
    pub timeline: Vec<(f64, f64)>,
    /// `(time, raw cluster throughput in samples/s)` at every round.
    pub raw_timeline: Vec<(f64, f64)>,
}

/// Pumps `source` into a record-fold engine, merging arrivals with the
/// fault schedule in global time order and advancing the engine up to
/// (but never past) each injection point; once the source runs dry the
/// remaining faults load up front and the run drains exactly as a batch
/// run does.
///
/// The fault schedule stays a slice: fault events are a few bytes each
/// and their count follows cluster size × horizon, not trace length.
///
/// # Panics
///
/// Panics if the source yields out-of-order submissions.
pub(crate) fn pump(
    engine: &mut Engine<'_>,
    source: &mut dyn TraceSource,
    faults: &[FaultEvent],
) -> std::io::Result<()> {
    let mut fault_idx = 0usize;
    let mut next_job = source.next_job()?;
    let mut last_submit_s = f64::NEG_INFINITY;
    while let Some(spec) = next_job.take() {
        assert!(
            spec.submit_s >= last_submit_s,
            "trace must be sorted by submission time ({} after {})",
            spec.submit_s,
            last_submit_s
        );
        last_submit_s = spec.submit_s;
        // Faults strictly earlier than this arrival inject first, each
        // through its own burst-window seam; a fault tied with the
        // arrival can wait (both land in their pending queue before
        // the burst that consumes them fires).
        while faults
            .get(fault_idx)
            .is_some_and(|f| f.time_s < spec.submit_s)
        {
            let fault = faults[fault_idx].clone();
            fault_idx += 1;
            engine.advance_before(fault.time_s);
            engine.push_fault_unchecked(fault);
        }
        engine.advance_before(spec.submit_s);
        engine.push_job_unchecked(spec);
        next_job = source.next_job()?;
    }
    // Source exhausted: the rest of the fault schedule is loaded up
    // front and the input closes *before* the drain — exactly a batch
    // run's end-game, including its termination semantics (a drained
    // run stops even with later faults still pending).
    for fault in &faults[fault_idx..] {
        engine.push_fault_unchecked(fault.clone());
    }
    engine.close_input();
    engine.run_to_end();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::record_fingerprint;
    use crate::{Run, SimConfig};
    use arena_cluster::presets;
    use arena_model::zoo::{ModelConfig, ModelFamily};
    use arena_perf::CostParams;
    use arena_sched::{FcfsPolicy, PlanService};
    use arena_trace::{FaultKind, JobSpec, VecSource};

    fn trace() -> Vec<JobSpec> {
        let mk = |id: u64, submit: f64, size: f64, gpus: usize, pool: usize| JobSpec {
            id,
            name: format!("j{id}"),
            submit_s: submit,
            model: ModelConfig::new(ModelFamily::Bert, size, 256),
            iterations: 300,
            requested_gpus: gpus,
            requested_pool: pool,
            deadline_s: None,
        };
        vec![
            mk(0, 0.0, 0.76, 4, 0),
            mk(1, 100.0, 1.3, 8, 1),
            mk(2, 200.0, 0.76, 2, 0),
            mk(3, 2000.0, 1.3, 4, 1),
        ]
    }

    fn faults() -> Vec<FaultEvent> {
        vec![
            FaultEvent {
                time_s: 400.0,
                pool: 0,
                node: 0,
                kind: FaultKind::Failure,
            },
            FaultEvent {
                time_s: 4000.0,
                pool: 0,
                node: 0,
                kind: FaultKind::Repair,
            },
        ]
    }

    #[test]
    fn streaming_matches_the_batch_driver() {
        let cluster = presets::physical_testbed();
        let jobs = trace();
        let flt = faults();
        let cfg = SimConfig::new(48.0 * 3600.0);
        let batch = {
            let service = PlanService::new(&cluster, CostParams::default(), 11);
            Run::new(&cluster, &mut FcfsPolicy::new(), &service, &cfg)
                .faults(&flt)
                .batch(&jobs)
        };
        let stream = {
            let service = PlanService::new(&cluster, CostParams::default(), 11);
            Run::new(&cluster, &mut FcfsPolicy::new(), &service, &cfg)
                .faults(&flt)
                .stream(&mut VecSource::new(jobs.clone()))
                .unwrap()
        };
        assert_eq!(stream.fingerprint, record_fingerprint(&batch.records));
        assert_eq!(stream.timeline, batch.timeline);
        assert_eq!(stream.raw_timeline, batch.raw_timeline);
        assert_eq!(stream.jobs.jobs as usize, batch.records.len());
        assert_eq!(stream.jobs.finished, batch.metrics.finished as u64);
        assert_eq!(stream.jobs.dropped, batch.metrics.dropped as u64);
        // Float sums fold in termination order, not record order, so
        // they agree only up to rounding; counts and hashes are exact.
        let jct_err = (stream.jobs.avg_jct_s() - batch.metrics.avg_jct_s).abs();
        assert!(jct_err < 1e-6, "avg JCT drifted by {jct_err}");
        assert_eq!(stream.failure_evictions, batch.metrics.failure_evictions);
        assert_eq!(stream.goodput_sps, batch.metrics.goodput_sps);
        assert!(stream.peak_live_jobs >= 1 && stream.peak_live_jobs <= jobs.len());
    }

    #[test]
    fn fingerprint_detects_a_changed_outcome() {
        let cluster = presets::physical_testbed();
        let jobs = trace();
        let run = |horizon: f64| {
            let service = PlanService::new(&cluster, CostParams::default(), 11);
            Run::new(
                &cluster,
                &mut FcfsPolicy::new(),
                &service,
                &SimConfig::new(horizon),
            )
            .stream(&mut VecSource::new(jobs.clone()))
            .unwrap()
        };
        let full = run(48.0 * 3600.0);
        // A horizon cutting the last job short yields different records.
        let cut = run(3000.0);
        assert_ne!(full.fingerprint, cut.fingerprint);
    }
}
