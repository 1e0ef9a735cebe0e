//! ElasticFlow-style elastic baseline.

use arena_cluster::GpuTypeId;
use arena_obs::Decision;

use crate::policy::{Action, JobView, PlanMode, Policy, SchedEvent, SchedView};

/// Max-heap entry for the marginal-gain distribution loop.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    gain: f64,
    idx: usize,
    at_k: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.gain == other.gain && self.idx == other.idx && self.at_k == other.at_k
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.gain
            .partial_cmp(&other.gain)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.idx.cmp(&other.idx))
            .then(self.at_k.cmp(&other.at_k))
    }
}

/// ElasticFlow: elastic power-of-two GPU-count scaling driven by
/// data-parallel profiles, designed for a homogeneous cluster (jobs stay
/// on their requested pool).
///
/// * The primary (deadline) mode admits a job only at the smallest GPU
///   count that still meets its deadline, and rejects hopeless jobs.
/// * The **-LS** mode (loosened deadlines, §8.3) is throughput-oriented:
///   every job is admitted at its DP-feasible minimum share and spare
///   GPUs are dealt out by marginal throughput gain.
///
/// Because minimum shares come from DP-only profiles — which replicate
/// the full optimizer state on every GPU — ElasticFlow systematically
/// *overestimates* large jobs' minimum requirements (§8.3).
#[derive(Debug)]
pub struct ElasticFlowPolicy {
    /// Loosened-deadline (throughput) mode: the ElasticFlow-LS baseline.
    loosened: bool,
}

impl ElasticFlowPolicy {
    /// The primary deadline-aware policy.
    #[must_use]
    pub fn deadline() -> Self {
        ElasticFlowPolicy { loosened: false }
    }

    /// The ElasticFlow-LS throughput-oriented variant.
    #[must_use]
    pub fn loosened() -> Self {
        ElasticFlowPolicy { loosened: true }
    }

    /// The throughput profile ElasticFlow schedules on: pure DP when it
    /// fits, otherwise the DP+PP profile (the job's runtime will use
    /// adaptive parallelism anyway, §8.1).
    fn profile(view: &SchedView<'_>, job: &JobView, k: usize, pool: GpuTypeId) -> Option<f64> {
        view.service
            .pure_dp_profile(&job.spec.model, k, pool)
            .or_else(|| view.service.dp_profile(&job.spec.model, k, pool))
    }

    /// Smallest power-of-two GPU count that is DP-feasible on `pool`.
    ///
    /// When no pure-DP width fits (optimizer state replicated on every
    /// GPU), ElasticFlow falls back to twice the pipeline-assisted
    /// minimum — the systematic overestimation of large jobs' minimum
    /// share the paper calls out (§8.3).
    fn min_share(view: &SchedView<'_>, job: &JobView, pool: GpuTypeId) -> Option<usize> {
        let mut k = 1;
        while k <= 64 {
            if view
                .service
                .pure_dp_profile(&job.spec.model, k, pool)
                .is_some()
            {
                return Some(k);
            }
            k *= 2;
        }
        let mut k = 1;
        while k <= 64 {
            if view.service.dp_profile(&job.spec.model, k, pool).is_some() {
                // The DP memory picture doubles the pipeline-assisted
                // minimum: every replica still holds far more state than a
                // tensor-sharded plan would (§8.3's overestimation).
                return Some((k * 2).min(64));
            }
            k *= 2;
        }
        None
    }

    /// Smallest power-of-two count meeting the job's deadline (deadline
    /// mode), given remaining iterations.
    fn min_deadline_share(
        view: &SchedView<'_>,
        job: &JobView,
        pool: GpuTypeId,
        now_s: f64,
    ) -> Option<usize> {
        let deadline = job.spec.deadline_s?;
        let mut k = Self::min_share(view, job, pool)?;
        while k <= 64 {
            if let Some(sps) = Self::profile(view, job, k, pool) {
                let finish = now_s + job.remaining_iters * job.spec.model.global_batch as f64 / sps;
                if finish <= deadline {
                    return Some(k);
                }
            }
            k *= 2;
        }
        None
    }
}

impl Policy for ElasticFlowPolicy {
    fn name(&self) -> &'static str {
        if self.loosened {
            "ElasticFlow-LS"
        } else {
            "ElasticFlow"
        }
    }

    fn plan_mode(&self) -> PlanMode {
        PlanMode::Adaptive
    }

    fn schedule(&mut self, _event: SchedEvent, view: &SchedView<'_>) -> Vec<Action> {
        let mut actions = Vec::new();
        // Rebuild the target allocation per pool from scratch: admitted
        // jobs at their minimum share, then spare GPUs by marginal gain.
        // `want[job] = (pool, gpus)`.
        let mut want: Vec<(u64, GpuTypeId, usize)> = Vec::new();
        let mut free: Vec<usize> = view.pools.iter().map(|p| p.total_gpus).collect();

        // Running jobs first (admitted already), then the queue in order.
        let all: Vec<&JobView> = view.running.iter().chain(view.queued.iter()).collect();
        for job in &all {
            let pool = GpuTypeId(job.spec.requested_pool);
            let min = if self.loosened || job.spec.deadline_s.is_none() {
                Self::min_share(view, job, pool)
            } else {
                Self::min_deadline_share(view, job, pool, view.now_s)
            };
            match min {
                Some(k) if free[pool.0] >= k => {
                    free[pool.0] -= k;
                    want.push((job.id(), pool, k));
                }
                Some(_) => {
                    // Not enough capacity now; deadline jobs that can no
                    // longer make it even at full cluster are rejected.
                    if !self.loosened {
                        if let Some(d) = job.spec.deadline_s {
                            let best = Self::profile(view, job, 64, pool);
                            let hopeless = match best {
                                Some(sps) => {
                                    view.now_s
                                        + job.remaining_iters * job.spec.model.global_batch as f64
                                            / sps
                                        > d
                                }
                                None => true,
                            };
                            if hopeless {
                                view.obs.decision(
                                    Decision::drop(job.id())
                                        .on_shard(job.home_shard())
                                        .why("deadline-hopeless"),
                                );
                                actions.push(Action::Drop { job: job.id() });
                            }
                        }
                    }
                }
                None => {
                    // DP-infeasible at any share on its pool: rejected.
                    view.obs.decision(
                        Decision::drop(job.id())
                            .on_shard(job.home_shard())
                            .why("dp-infeasible"),
                    );
                    actions.push(Action::Drop { job: job.id() });
                }
            }
        }

        // Deal out spare GPUs by marginal DP-throughput gain per GPU,
        // using a lazy max-heap: an entry is revalidated against the
        // job's current share when popped, so each doubling costs
        // O(log n) instead of a full rescan.
        let gain_of = |job: &JobView, pool: GpuTypeId, k: usize| -> Option<f64> {
            let cur = Self::profile(view, job, k, pool)?;
            let next = Self::profile(view, job, 2 * k, pool)?;
            let gain = (next - cur) / k as f64;
            (gain > 0.0).then_some(gain)
        };
        let mut heap: std::collections::BinaryHeap<HeapEntry> = want
            .iter()
            .enumerate()
            .filter_map(|(i, &(id, pool, k))| {
                let job = all.iter().find(|j| j.id() == id)?;
                gain_of(job, pool, k).map(|gain| HeapEntry {
                    gain,
                    idx: i,
                    at_k: k,
                })
            })
            .collect();
        while let Some(entry) = heap.pop() {
            let (id, pool, k_cur) = want[entry.idx];
            // Stale entry (the job grew since this was pushed).
            if entry.at_k != k_cur || k_cur >= 64 || free[pool.0] < k_cur {
                continue;
            }
            free[pool.0] -= k_cur;
            want[entry.idx].2 = 2 * k_cur;
            // `want` holds only ids taken from `all`. A search, not an
            // index, so that duplicate ids (which `Run::batch` tolerates)
            // resolve to the first job.
            let job = all.iter().find(|j| j.id() == id).expect("job exists");
            if let Some(gain) = gain_of(job, pool, 2 * k_cur) {
                heap.push(HeapEntry {
                    gain,
                    idx: entry.idx,
                    at_k: 2 * k_cur,
                });
            }
        }

        // Emit the diff against current placements.
        for (id, pool, k) in want {
            // `want` holds only ids taken from `all` (see above).
            let job = all.iter().find(|j| j.id() == id).expect("job exists");
            let unchanged = job
                .placement
                .is_some_and(|pl| pl.pool == pool && pl.gpus == k);
            if !unchanged {
                if view.obs.is_enabled() {
                    let mut d = Decision::place(id, pool.0, k)
                        .on_shard(job.home_shard())
                        .why("target-share");
                    if let Some(pl) = job.placement {
                        d = d.moving_from(pl.pool.0, pl.gpus);
                    }
                    if let Some(sps) = Self::profile(view, job, k, pool) {
                        d = d.with_score(sps);
                    }
                    view.obs.decision(d);
                }
                actions.push(Action::Place {
                    job: id,
                    pool,
                    gpus: k,
                    opportunistic: false,
                });
            }
        }
        actions
    }
}
