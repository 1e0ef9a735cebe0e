//! Metric collection and aggregation.

use serde::Serialize;

/// Final record of one job's life.
#[derive(Debug, Clone, Serialize)]
pub struct JobRecord {
    /// Job id.
    pub id: u64,
    /// Job name.
    pub name: String,
    /// Submission time, seconds.
    pub submit_s: f64,
    /// First time the job began making progress (None if never started).
    pub start_s: Option<f64>,
    /// Completion time (None if unfinished at the horizon or dropped).
    pub finish_s: Option<f64>,
    /// Whether the scheduler rejected the job.
    pub dropped: bool,
    /// Times the job was restarted (evicted, rescaled or migrated).
    pub restarts: u32,
    /// Wall-clock the job spent making progress, seconds.
    pub run_s: f64,
    /// GPU-seconds spent making progress (running time × GPUs held).
    pub productive_gpu_s: f64,
    /// GPU-seconds held in total, including restart/profiling stalls
    /// where the GPUs were allocated but idle.
    pub allocated_gpu_s: f64,
    /// Deadline satisfaction (None for jobs without deadlines).
    pub deadline_met: Option<bool>,
}

impl JobRecord {
    /// Job completion time, if the job finished.
    #[must_use]
    pub fn jct_s(&self) -> Option<f64> {
        self.finish_s.map(|f| f - self.submit_s)
    }

    /// Queueing time (submission to first progress), if it ever started.
    #[must_use]
    pub fn queue_s(&self) -> Option<f64> {
        self.start_s.map(|s| s - self.submit_s)
    }
}

/// Order-independent hash of one job record over a canonical field
/// encoding (ids and counters little-endian, floats by IEEE bit
/// pattern, `Option`s tagged). Two records hash equal iff every
/// observable field is bitwise equal.
fn record_hash(r: &JobRecord) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    let opt_f64 = |v: Option<f64>| match v {
        None => [0u8; 9],
        Some(x) => {
            let mut out = [0u8; 9];
            out[0] = 1;
            out[1..].copy_from_slice(&x.to_bits().to_le_bytes());
            out
        }
    };
    eat(&r.id.to_le_bytes());
    eat(&(r.name.len() as u64).to_le_bytes());
    eat(r.name.as_bytes());
    eat(&r.submit_s.to_bits().to_le_bytes());
    eat(&opt_f64(r.start_s));
    eat(&opt_f64(r.finish_s));
    eat(&[u8::from(r.dropped)]);
    eat(&r.restarts.to_le_bytes());
    eat(&r.run_s.to_bits().to_le_bytes());
    eat(&r.productive_gpu_s.to_bits().to_le_bytes());
    eat(&r.allocated_gpu_s.to_bits().to_le_bytes());
    eat(&[match r.deadline_met {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    }]);
    h
}

/// Fingerprint of a whole record set, independent of record order.
/// Streaming runs fold records as jobs terminate while batch runs emit
/// them in submission order; because the combination is a commutative
/// fold (wrapping sum + xor of per-record hashes), both orders produce
/// the same fingerprint exactly when the record *multisets* are equal.
#[must_use]
pub fn record_fingerprint(records: &[JobRecord]) -> u64 {
    let mut folded = FoldedRecords::default();
    for r in records {
        folded.fold(r);
    }
    folded.fingerprint()
}

/// Constant-memory aggregate of job records — what a streaming run
/// keeps instead of a `Vec<JobRecord>`. Every field is a commutative
/// fold over per-record contributions, so folding records as jobs
/// terminate (streaming order) matches folding the batch engine's
/// submission-ordered record vector, except that floating-point *sums*
/// may differ in final bits across fold orders; the integer counters
/// and the [`FoldedRecords::fingerprint`] are exactly order-free.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct FoldedRecords {
    /// Records folded in total.
    pub jobs: u64,
    /// Records with a finish time.
    pub finished: u64,
    /// Dropped records.
    pub dropped: u64,
    /// Neither finished nor dropped (ran out the horizon).
    pub unfinished: u64,
    /// Records that ever started.
    pub started: u64,
    /// Total restarts.
    pub restarts: u64,
    /// Sum of JCTs over finished records, seconds.
    pub jct_sum_s: f64,
    /// Max JCT over finished records, seconds.
    pub jct_max_s: f64,
    /// Sum of queueing times over started records, seconds.
    pub queue_sum_s: f64,
    /// Total wall-clock spent running, seconds.
    pub run_sum_s: f64,
    /// Total productive GPU-seconds.
    pub productive_gpu_s: f64,
    /// Total allocated GPU-seconds.
    pub allocated_gpu_s: f64,
    /// Records carrying a deadline.
    pub deadline_total: u64,
    /// Deadline-carrying records that met it.
    pub deadline_met: u64,
    fp_sum: u64,
    fp_xor: u64,
}

impl FoldedRecords {
    /// Folds one record into the aggregate.
    pub fn fold(&mut self, r: &JobRecord) {
        self.jobs += 1;
        if r.dropped {
            self.dropped += 1;
        } else if r.finish_s.is_none() {
            self.unfinished += 1;
        }
        if let Some(jct) = r.jct_s() {
            self.finished += 1;
            self.jct_sum_s += jct;
            self.jct_max_s = self.jct_max_s.max(jct);
        }
        if let Some(q) = r.queue_s() {
            self.started += 1;
            self.queue_sum_s += q;
        }
        self.restarts += u64::from(r.restarts);
        self.run_sum_s += r.run_s;
        self.productive_gpu_s += r.productive_gpu_s;
        self.allocated_gpu_s += r.allocated_gpu_s;
        match r.deadline_met {
            None => {}
            Some(met) => {
                self.deadline_total += 1;
                self.deadline_met += u64::from(met);
            }
        }
        let fp = record_hash(r);
        self.fp_sum = self.fp_sum.wrapping_add(fp);
        self.fp_xor ^= fp;
    }

    /// Order-independent fingerprint of the folded record multiset —
    /// comparable against [`record_fingerprint`] of a batch run's
    /// record vector.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fp_sum ^ self.fp_xor.rotate_left(32)
    }

    /// Mean JCT over finished records, seconds.
    #[must_use]
    pub fn avg_jct_s(&self) -> f64 {
        ratio(self.jct_sum_s, self.finished)
    }

    /// Mean queueing time over started records, seconds.
    #[must_use]
    pub fn avg_queue_s(&self) -> f64 {
        ratio(self.queue_sum_s, self.started)
    }

    /// Mean restarts per started record.
    #[must_use]
    pub fn avg_restarts(&self) -> f64 {
        ratio(self.restarts as f64, self.started)
    }

    /// Fraction of deadline-carrying records that met their deadline
    /// (vacuously 1 with none).
    #[must_use]
    pub fn deadline_satisfaction(&self) -> f64 {
        if self.deadline_total == 0 {
            1.0
        } else {
            self.deadline_met as f64 / self.deadline_total as f64
        }
    }
}

fn ratio(sum: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Streaming fold of per-decision scheduler latencies: count, total and
/// max, which is all [`aggregate`] needs for its mean. Every engine
/// mode (and the reference loop) folds into one of these.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct DecisionStats {
    /// Scheduling passes observed.
    pub count: u64,
    /// Total decision wall-clock, seconds.
    pub total_s: f64,
    /// Worst single decision, seconds.
    pub max_s: f64,
}

impl DecisionStats {
    /// Folds one decision latency.
    pub fn observe(&mut self, s: f64) {
        self.count += 1;
        self.total_s += s;
        self.max_s = self.max_s.max(s);
    }

    /// Mean decision wall-clock, seconds.
    #[must_use]
    pub fn mean_s(&self) -> f64 {
        ratio(self.total_s, self.count)
    }
}

/// Raw fault-recovery counters the engine accumulates during a run and
/// hands to [`aggregate`]. A zero-fault run leaves everything except
/// `samples_processed` and `elapsed_s` at zero.
#[derive(Debug, Clone, Default)]
pub struct FaultLog {
    /// Samples the cluster processed, including work later lost.
    pub samples_processed: f64,
    /// Samples re-done because a failure rolled progress back to the
    /// last checkpoint.
    pub samples_lost: f64,
    /// Jobs evicted by node failures (counted per eviction).
    pub failure_evictions: usize,
    /// Per-eviction wall-clock from failure to the job running again.
    pub recovery_times_s: Vec<f64>,
    /// Wall-clock span of the run, seconds.
    pub elapsed_s: f64,
    /// Nameplate capacity × elapsed time, GPU-seconds (denominator of
    /// cluster utilization).
    pub gpu_capacity_s: f64,
}

/// Aggregated metrics of one simulation run.
#[derive(Debug, Clone, Serialize)]
pub struct Metrics {
    /// Mean JCT over finished jobs, seconds.
    pub avg_jct_s: f64,
    /// Median JCT over finished jobs, seconds.
    pub median_jct_s: f64,
    /// Max JCT over finished jobs, seconds.
    pub max_jct_s: f64,
    /// Mean queueing time over started jobs, seconds.
    pub avg_queue_s: f64,
    /// Jobs finished before the horizon.
    pub finished: usize,
    /// Jobs rejected by the scheduler.
    pub dropped: usize,
    /// Jobs still queued or running at the horizon.
    pub unfinished: usize,
    /// Time-average of normalised cluster throughput.
    pub avg_throughput: f64,
    /// Peak of the normalised cluster-throughput timeline.
    pub peak_throughput: f64,
    /// Time-average of raw cluster throughput, samples/s (the paper's
    /// metric; incommensurable across model families but reported for
    /// completeness).
    pub avg_raw_throughput_sps: f64,
    /// Mean restarts per started job.
    pub avg_restarts: f64,
    /// Fraction of deadline-carrying jobs that met their deadline.
    pub deadline_satisfaction: f64,
    /// Mean wall-clock (this process) per scheduling decision, seconds.
    pub avg_decision_s: f64,
    /// Useful samples per second: processed minus failure-lost work over
    /// the run's wall-clock. Equals raw throughput when nothing fails.
    pub goodput_sps: f64,
    /// Fraction of processed samples re-done after failure rollbacks.
    pub work_lost_frac: f64,
    /// Jobs evicted by node failures (per-eviction count).
    pub failure_evictions: usize,
    /// Mean failure-to-running-again wall-clock, seconds (0 with no
    /// failures).
    pub mean_recovery_s: f64,
    /// GPU-seconds spent making progress, summed over all jobs.
    pub productive_gpu_s: f64,
    /// GPU-seconds held by jobs (productive + restart/profiling stalls).
    pub allocated_gpu_s: f64,
    /// Productive GPU-seconds over nameplate capacity GPU-seconds.
    pub cluster_util_frac: f64,
}

/// Aggregates job records and a throughput timeline into [`Metrics`].
#[must_use]
pub fn aggregate(
    records: &[JobRecord],
    timeline: &[(f64, f64)],
    raw_timeline: &[(f64, f64)],
    decisions: &DecisionStats,
    faults: &FaultLog,
) -> Metrics {
    let mut jcts: Vec<f64> = records.iter().filter_map(JobRecord::jct_s).collect();
    jcts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let queues: Vec<f64> = records.iter().filter_map(JobRecord::queue_s).collect();
    let started = records.iter().filter(|r| r.start_s.is_some()).count();
    let restarts: u32 = records.iter().map(|r| r.restarts).sum();
    let ddl_total = records.iter().filter(|r| r.deadline_met.is_some()).count();
    let ddl_met = records
        .iter()
        .filter(|r| r.deadline_met == Some(true))
        .count();

    // Time-weighted averages over the (piecewise-constant) timelines.
    let time_avg = |tl: &[(f64, f64)]| -> (f64, f64) {
        let (mut area, mut span, mut peak) = (0.0, 0.0, 0.0_f64);
        for w in tl.windows(2) {
            let dt = w[1].0 - w[0].0;
            area += w[0].1 * dt;
            span += dt;
            peak = peak.max(w[0].1);
        }
        if let Some(last) = tl.last() {
            peak = peak.max(last.1);
        }
        (if span > 0.0 { area / span } else { 0.0 }, peak)
    };
    let (avg_norm, peak_norm) = time_avg(timeline);
    let (avg_raw, _) = time_avg(raw_timeline);

    Metrics {
        avg_jct_s: mean(&jcts),
        median_jct_s: if jcts.is_empty() {
            0.0
        } else {
            jcts[jcts.len() / 2]
        },
        max_jct_s: jcts.last().copied().unwrap_or(0.0),
        avg_queue_s: mean(&queues),
        finished: records.iter().filter(|r| r.finish_s.is_some()).count(),
        dropped: records.iter().filter(|r| r.dropped).count(),
        unfinished: records
            .iter()
            .filter(|r| !r.dropped && r.finish_s.is_none())
            .count(),
        avg_throughput: avg_norm,
        peak_throughput: peak_norm,
        avg_raw_throughput_sps: avg_raw,
        avg_restarts: if started > 0 {
            f64::from(restarts) / started as f64
        } else {
            0.0
        },
        deadline_satisfaction: if ddl_total > 0 {
            ddl_met as f64 / ddl_total as f64
        } else {
            1.0
        },
        avg_decision_s: decisions.mean_s(),
        goodput_sps: if faults.elapsed_s > 0.0 {
            (faults.samples_processed - faults.samples_lost).max(0.0) / faults.elapsed_s
        } else {
            0.0
        },
        work_lost_frac: if faults.samples_processed > 0.0 {
            faults.samples_lost / faults.samples_processed
        } else {
            0.0
        },
        failure_evictions: faults.failure_evictions,
        mean_recovery_s: mean(&faults.recovery_times_s),
        productive_gpu_s: records.iter().map(|r| r.productive_gpu_s).sum(),
        allocated_gpu_s: records.iter().map(|r| r.allocated_gpu_s).sum(),
        cluster_util_frac: if faults.gpu_capacity_s > 0.0 {
            records.iter().map(|r| r.productive_gpu_s).sum::<f64>() / faults.gpu_capacity_s
        } else {
            0.0
        },
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, submit: f64, start: Option<f64>, finish: Option<f64>) -> JobRecord {
        JobRecord {
            id,
            name: format!("j{id}"),
            submit_s: submit,
            start_s: start,
            finish_s: finish,
            dropped: false,
            restarts: 0,
            run_s: 0.0,
            productive_gpu_s: 0.0,
            allocated_gpu_s: 0.0,
            deadline_met: None,
        }
    }

    #[test]
    fn jct_and_queue() {
        let r = rec(1, 10.0, Some(25.0), Some(100.0));
        assert_eq!(r.jct_s(), Some(90.0));
        assert_eq!(r.queue_s(), Some(15.0));
        assert_eq!(rec(2, 0.0, None, None).jct_s(), None);
    }

    #[test]
    fn aggregate_counts() {
        let records = vec![
            rec(1, 0.0, Some(5.0), Some(50.0)),
            rec(2, 0.0, Some(10.0), Some(110.0)),
            rec(3, 0.0, Some(20.0), None),
            JobRecord {
                dropped: true,
                ..rec(4, 0.0, None, None)
            },
        ];
        let timeline = vec![(0.0, 2.0), (50.0, 4.0), (100.0, 0.0)];
        let mut decisions = DecisionStats::default();
        decisions.observe(0.1);
        decisions.observe(0.3);
        let m = aggregate(
            &records,
            &timeline,
            &timeline,
            &decisions,
            &FaultLog::default(),
        );
        assert_eq!(m.finished, 2);
        assert_eq!(m.dropped, 1);
        assert_eq!(m.unfinished, 1);
        assert_eq!(m.avg_jct_s, (50.0 + 110.0) / 2.0);
        assert_eq!(m.max_jct_s, 110.0);
        assert!((m.avg_queue_s - 35.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.peak_throughput, 4.0);
        assert!((m.avg_throughput - 3.0).abs() < 1e-9);
        assert!((m.avg_decision_s - 0.2).abs() < 1e-12);
    }

    #[test]
    fn deadline_satisfaction() {
        let mut a = rec(1, 0.0, Some(1.0), Some(10.0));
        a.deadline_met = Some(true);
        let mut b = rec(2, 0.0, Some(1.0), Some(10.0));
        b.deadline_met = Some(false);
        let m = aggregate(
            &[a, b],
            &[],
            &[],
            &DecisionStats::default(),
            &FaultLog::default(),
        );
        assert_eq!(m.deadline_satisfaction, 0.5);
        // No deadline jobs: vacuously satisfied.
        let m2 = aggregate(
            &[rec(1, 0.0, None, None)],
            &[],
            &[],
            &DecisionStats::default(),
            &FaultLog::default(),
        );
        assert_eq!(m2.deadline_satisfaction, 1.0);
    }

    #[test]
    fn goodput_and_work_lost() {
        let faults = FaultLog {
            samples_processed: 1000.0,
            samples_lost: 250.0,
            failure_evictions: 3,
            recovery_times_s: vec![10.0, 30.0],
            elapsed_s: 100.0,
            gpu_capacity_s: 0.0,
        };
        let m = aggregate(&[], &[], &[], &DecisionStats::default(), &faults);
        assert!((m.goodput_sps - 7.5).abs() < 1e-12);
        assert!((m.work_lost_frac - 0.25).abs() < 1e-12);
        assert_eq!(m.failure_evictions, 3);
        assert!((m.mean_recovery_s - 20.0).abs() < 1e-12);
    }

    #[test]
    fn gpu_second_aggregation_and_utilization() {
        let mut a = rec(1, 0.0, Some(0.0), Some(100.0));
        a.productive_gpu_s = 300.0;
        a.allocated_gpu_s = 400.0;
        let mut b = rec(2, 0.0, Some(0.0), Some(100.0));
        b.productive_gpu_s = 100.0;
        b.allocated_gpu_s = 100.0;
        let faults = FaultLog {
            elapsed_s: 100.0,
            gpu_capacity_s: 1600.0,
            ..FaultLog::default()
        };
        let m = aggregate(&[a, b], &[], &[], &DecisionStats::default(), &faults);
        assert_eq!(m.productive_gpu_s, 400.0);
        assert_eq!(m.allocated_gpu_s, 500.0);
        assert!((m.cluster_util_frac - 0.25).abs() < 1e-12);
        // Without a capacity denominator the fraction stays at zero.
        let m0 = aggregate(
            &[],
            &[],
            &[],
            &DecisionStats::default(),
            &FaultLog::default(),
        );
        assert_eq!(m0.cluster_util_frac, 0.0);
    }

    #[test]
    fn fingerprint_is_order_free_and_field_sensitive() {
        let records = vec![
            rec(1, 0.0, Some(5.0), Some(50.0)),
            rec(2, 10.0, Some(20.0), None),
            JobRecord {
                dropped: true,
                ..rec(3, 30.0, None, None)
            },
        ];
        let mut reversed = records.clone();
        reversed.reverse();
        assert_eq!(record_fingerprint(&records), record_fingerprint(&reversed));
        // Any field change moves the fingerprint.
        let mut tweaked = records.clone();
        tweaked[0].restarts = 1;
        assert_ne!(record_fingerprint(&records), record_fingerprint(&tweaked));
        let mut tweaked = records.clone();
        tweaked[1].finish_s = Some(90.0);
        assert_ne!(record_fingerprint(&records), record_fingerprint(&tweaked));
        // A missing record is visible even when sums happen to agree.
        assert_ne!(
            record_fingerprint(&records),
            record_fingerprint(&records[..2])
        );
    }

    #[test]
    fn folded_records_match_aggregate_counts() {
        let mut with_deadline = rec(4, 0.0, Some(2.0), Some(9.0));
        with_deadline.deadline_met = Some(true);
        let records = vec![
            rec(1, 0.0, Some(5.0), Some(50.0)),
            rec(2, 0.0, Some(10.0), Some(110.0)),
            rec(3, 0.0, Some(20.0), None),
            JobRecord {
                dropped: true,
                ..rec(5, 0.0, None, None)
            },
            with_deadline,
        ];
        let mut folded = FoldedRecords::default();
        for r in &records {
            folded.fold(r);
        }
        let m = aggregate(
            &records,
            &[],
            &[],
            &DecisionStats::default(),
            &FaultLog::default(),
        );
        assert_eq!(folded.jobs as usize, records.len());
        assert_eq!(folded.finished as usize, m.finished);
        assert_eq!(folded.dropped as usize, m.dropped);
        assert_eq!(folded.unfinished as usize, m.unfinished);
        assert_eq!(folded.avg_jct_s(), m.avg_jct_s);
        assert_eq!(folded.jct_max_s, m.max_jct_s);
        assert_eq!(folded.avg_queue_s(), m.avg_queue_s);
        assert_eq!(folded.avg_restarts(), m.avg_restarts);
        assert_eq!(folded.deadline_satisfaction(), m.deadline_satisfaction);
        assert_eq!(folded.fingerprint(), record_fingerprint(&records));
    }

    #[test]
    fn decision_stats_fold_matches_vec_mean() {
        let times = [0.1, 0.3, 0.2];
        let mut stats = DecisionStats::default();
        for t in times {
            stats.observe(t);
        }
        assert_eq!(stats.count, 3);
        assert_eq!(stats.max_s, 0.3);
        assert_eq!(stats.mean_s(), times.iter().sum::<f64>() / 3.0);
        assert_eq!(DecisionStats::default().mean_s(), 0.0);
    }

    #[test]
    fn zero_fault_log_is_clean() {
        let faults = FaultLog {
            samples_processed: 500.0,
            elapsed_s: 50.0,
            ..FaultLog::default()
        };
        let m = aggregate(&[], &[], &[], &DecisionStats::default(), &faults);
        assert!((m.goodput_sps - 10.0).abs() < 1e-12);
        assert_eq!(m.work_lost_frac, 0.0);
        assert_eq!(m.failure_evictions, 0);
        assert_eq!(m.mean_recovery_s, 0.0);
    }
}
