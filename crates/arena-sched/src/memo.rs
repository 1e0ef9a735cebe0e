//! Candidate-list memoization with dirty-set invalidation.
//!
//! Arena re-enumerates every queued job's candidate list on every
//! scheduling event — and twice per job per pass (feasibility screen +
//! placement). The ranked list is a pure function of the job's class
//! (model, batch, requested size/pool) and the per-pool
//! free/failed/total GPU counts, so [`CandidateMemo`] caches it keyed by
//! job class and guarded by a *pool signature* hashed over those counts.
//! Any allocation, release or fault event changes some pool's counts,
//! changes the signature, and flushes the memo; quiet rounds (and
//! repeated same-class jobs inside one pass) skip re-enumeration
//! entirely.
//!
//! Unlike the plan database's maps, which keep every entry, the memo
//! holds at most one list per job class seen since the last capacity
//! change, and the next allocation, release or fault empties it.

use std::collections::HashMap;
use std::sync::Arc;

use arena_cluster::PoolStats;
use arena_model::ModelConfig;
use arena_trace::JobSpec;

use crate::arena::Candidate;

/// Everything a job's candidate list depends on besides pool state: its
/// model configuration, requested GPU count and requested pool.
pub(crate) type JobClass = (ModelConfig, usize, usize);

/// The class `spec` schedules as.
pub(crate) fn job_class(spec: &JobSpec) -> JobClass {
    (spec.model, spec.requested_gpus, spec.requested_pool)
}

/// Order-sensitive hash of every pool's capacity counts — the memo's
/// dirty bit. Placements, departures, evictions, node failures and
/// repairs all move `free_gpus`/`failed_gpus`, so any of them produces a
/// fresh signature.
pub(crate) fn pool_signature(pools: &[PoolStats]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    for p in pools {
        mix(p.id.0 as u64);
        mix(p.total_gpus as u64);
        mix(p.free_gpus as u64);
        mix(p.failed_gpus as u64);
    }
    h
}

/// Hit/miss/invalidation counters, readable for tests and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateMemoStats {
    /// Candidate lists served from the memo.
    pub hits: u64,
    /// Candidate lists enumerated fresh.
    pub misses: u64,
    /// Whole-memo flushes triggered by a pool-signature change.
    pub invalidations: u64,
}

/// Per-policy memo of ranked candidate lists. Not shared across threads:
/// each policy owns one behind a `RefCell`.
#[derive(Debug, Default)]
pub(crate) struct CandidateMemo {
    pool_sig: Option<u64>,
    entries: HashMap<JobClass, Arc<Vec<Candidate>>>,
    stats: CandidateMemoStats,
}

impl CandidateMemo {
    /// Revalidates the memo against the pool state a scheduling pass
    /// sees, flushing every entry when the signature moved.
    pub(crate) fn begin_pass(&mut self, pools: &[PoolStats]) {
        let sig = pool_signature(pools);
        if self.pool_sig != Some(sig) {
            if self.pool_sig.is_some() && !self.entries.is_empty() {
                self.stats.invalidations += 1;
            }
            self.entries.clear();
            self.pool_sig = Some(sig);
        }
    }

    pub(crate) fn get(&mut self, key: &JobClass) -> Option<Arc<Vec<Candidate>>> {
        let hit = self.entries.get(key).cloned();
        if hit.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    pub(crate) fn put(&mut self, key: JobClass, value: Arc<Vec<Candidate>>) {
        self.entries.insert(key, value);
    }

    pub(crate) fn stats(&self) -> CandidateMemoStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arena_cluster::{GpuSpec, GpuTypeId, NodeSpec};
    use arena_model::zoo::ModelFamily;

    fn pools() -> Vec<PoolStats> {
        let spec = NodeSpec::with_default_links(GpuSpec::A40, 4);
        vec![
            PoolStats {
                id: GpuTypeId(0),
                spec,
                total_gpus: 32,
                free_gpus: 16,
                failed_gpus: 0,
            },
            PoolStats {
                id: GpuTypeId(1),
                spec,
                total_gpus: 32,
                free_gpus: 32,
                failed_gpus: 0,
            },
        ]
    }

    fn spec(id: u64) -> JobSpec {
        JobSpec {
            id,
            name: format!("j{id}"),
            submit_s: 0.0,
            model: ModelConfig::new(ModelFamily::Bert, 1.3, 256),
            iterations: 100,
            requested_gpus: 8,
            requested_pool: 0,
            deadline_s: None,
        }
    }

    #[test]
    fn same_class_jobs_share_a_key() {
        // Different ids and names, same scheduling class.
        assert_eq!(job_class(&spec(1)), job_class(&spec(2)));
        let mut other = spec(3);
        other.requested_gpus = 4;
        assert_ne!(job_class(&spec(1)), job_class(&other));
        let mut bigger = spec(4);
        bigger.model.params_b = 2.6;
        assert_ne!(job_class(&spec(1)), job_class(&bigger));
    }

    #[test]
    fn signature_moves_on_any_capacity_change() {
        let base = pool_signature(&pools());
        for change in [
            |p: &mut Vec<PoolStats>| p[0].free_gpus -= 8,
            |p: &mut Vec<PoolStats>| p[1].free_gpus += 1,
            |p: &mut Vec<PoolStats>| p[0].failed_gpus = 4,
            |p: &mut Vec<PoolStats>| p[1].total_gpus -= 4,
        ] {
            let mut p = pools();
            change(&mut p);
            assert_ne!(pool_signature(&p), base);
        }
        assert_eq!(pool_signature(&pools()), base);
    }

    #[test]
    fn memo_hits_within_signature_and_flushes_across() {
        let mut memo = CandidateMemo::default();
        let p = pools();
        memo.begin_pass(&p);
        let key = job_class(&spec(1));
        assert!(memo.get(&key).is_none());
        memo.put(key, Arc::new(Vec::new()));
        assert!(memo.get(&key).is_some());
        // Same signature on the next pass: still cached.
        memo.begin_pass(&p);
        assert!(memo.get(&key).is_some());
        // An allocation elsewhere flushes the memo.
        let mut moved = pools();
        moved[0].free_gpus -= 8;
        memo.begin_pass(&moved);
        assert!(memo.get(&key).is_none());
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (2, 2, 1));
    }
}
