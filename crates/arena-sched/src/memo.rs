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
//! At fleet scale the quiet-round case is the dangerous one: a memo that
//! only ever flushes on capacity changes grows with the number of
//! distinct job classes seen, which an adversarial trace can make
//! unbounded. The memo therefore supports an optional *entry cap*
//! (oldest-inserted entry evicted first — an insertion-order clock, never
//! hash order, so eviction is deterministic) and an optional *age-out*
//! (entries not touched for `max_age_passes` revalidations are dropped at
//! the start of a pass). Both default to off; eviction moves only the
//! hit/miss split, never which list a lookup ultimately sees.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use arena_cluster::PoolStats;
use arena_model::ModelConfig;
use arena_trace::JobSpec;

use crate::arena::Candidate;

/// Everything a job's candidate list depends on besides pool state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct JobClassKey {
    family: arena_model::zoo::ModelFamily,
    params_mb: u64,
    global_batch: usize,
    requested_gpus: usize,
    requested_pool: usize,
}

impl JobClassKey {
    pub(crate) fn of(spec: &JobSpec) -> Self {
        let ModelConfig {
            family,
            params_b,
            global_batch,
        } = spec.model;
        JobClassKey {
            family,
            params_mb: params_b.to_bits(),
            global_batch,
            requested_gpus: spec.requested_gpus,
            requested_pool: spec.requested_pool,
        }
    }
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
    /// Entries evicted to stay under the entry cap (oldest first).
    pub evictions: u64,
    /// Entries dropped by the age-out sweep (untouched too long).
    pub aged_out: u64,
}

/// Per-policy memo of ranked candidate lists. Not shared across threads:
/// each policy owns one behind a `RefCell`.
#[derive(Debug, Default)]
pub(crate) struct CandidateMemo {
    pool_sig: Option<u64>,
    /// Values carry the pass number of their last hit (for age-out).
    entries: HashMap<JobClassKey, (Arc<Vec<Candidate>>, u64)>,
    /// Insertion-order clock: the deterministic eviction order. Re-puts
    /// of a live key keep its clock position.
    order: VecDeque<JobClassKey>,
    /// Revalidation counter; advances once per `begin_pass`.
    pass: u64,
    /// Maximum live entries (`None` = unbounded, the default).
    cap: Option<usize>,
    /// Maximum passes an entry may go without a hit (`None` = forever).
    max_age_passes: Option<u64>,
    stats: CandidateMemoStats,
}

impl CandidateMemo {
    /// Bounds the memo to `cap` entries; the oldest-inserted entry is
    /// evicted first when a put would exceed it.
    pub(crate) fn set_cap(&mut self, cap: Option<usize>) {
        self.cap = cap;
        self.enforce_cap(None);
    }

    /// Drops entries that go `passes` revalidations without a hit.
    pub(crate) fn set_max_age(&mut self, passes: Option<u64>) {
        self.max_age_passes = passes;
    }

    /// Revalidates the memo against the pool state a scheduling pass
    /// sees, flushing every entry when the signature moved.
    pub(crate) fn begin_pass(&mut self, pools: &[PoolStats]) {
        let sig = pool_signature(pools);
        if self.pool_sig != Some(sig) {
            if self.pool_sig.is_some() && !self.entries.is_empty() {
                self.stats.invalidations += 1;
            }
            self.entries.clear();
            self.order.clear();
            self.pool_sig = Some(sig);
            self.pass += 1;
            return;
        }
        self.pass += 1;
        if let Some(max_age) = self.max_age_passes {
            let (entries, pass) = (&mut self.entries, self.pass);
            let before = entries.len();
            // Sweeping the insertion-order clock (not the hash map) keeps
            // the survivor order — and therefore later evictions —
            // deterministic.
            self.order.retain(|k| {
                let stale = entries
                    .get(k)
                    .is_some_and(|(_, last)| pass.saturating_sub(*last) > max_age);
                if stale {
                    entries.remove(k);
                }
                !stale
            });
            self.stats.aged_out += (before - entries.len()) as u64;
        }
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[cfg(test)]
    fn contains(&self, key: &JobClassKey) -> bool {
        self.entries.contains_key(key)
    }

    pub(crate) fn get(&mut self, key: &JobClassKey) -> Option<Arc<Vec<Candidate>>> {
        match self.entries.get_mut(key) {
            Some((v, last)) => {
                *last = self.pass;
                self.stats.hits += 1;
                Some(v.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    pub(crate) fn put(&mut self, key: JobClassKey, value: Arc<Vec<Candidate>>) {
        if self.entries.insert(key, (value, self.pass)).is_none() {
            self.order.push_back(key);
        }
        self.enforce_cap(Some(&key));
    }

    /// Evicts oldest-inserted entries until the cap holds. The key just
    /// inserted (if any) is exempt from its own sweep, so even a put that
    /// alone exceeds the cap still caches once.
    fn enforce_cap(&mut self, just_inserted: Option<&JobClassKey>) {
        let Some(cap) = self.cap else { return };
        while self.entries.len() > cap.max(1) {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if Some(&oldest) == just_inserted {
                self.order.push_back(oldest);
                continue;
            }
            if self.entries.remove(&oldest).is_some() {
                self.stats.evictions += 1;
            }
        }
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
        assert_eq!(JobClassKey::of(&spec(1)), JobClassKey::of(&spec(2)));
        let mut other = spec(3);
        other.requested_gpus = 4;
        assert_ne!(JobClassKey::of(&spec(1)), JobClassKey::of(&other));
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
        let key = JobClassKey::of(&spec(1));
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
        assert_eq!((s.evictions, s.aged_out), (0, 0));
    }

    fn class(gpus: usize) -> JobClassKey {
        let mut sp = spec(gpus as u64);
        sp.requested_gpus = gpus;
        JobClassKey::of(&sp)
    }

    #[test]
    fn entry_cap_evicts_oldest_inserted_first() {
        let mut memo = CandidateMemo::default();
        memo.set_cap(Some(2));
        memo.begin_pass(&pools());
        for g in [1, 2, 4] {
            memo.put(class(g), Arc::new(Vec::new()));
        }
        // Oldest (gpus=1) evicted; the two newest survive.
        assert!(!memo.contains(&class(1)));
        assert!(memo.contains(&class(2)) && memo.contains(&class(4)));
        assert_eq!(memo.stats().evictions, 1);
        // Re-putting a live key keeps its clock position: 2 is still the
        // oldest and goes next.
        memo.put(class(2), Arc::new(Vec::new()));
        memo.put(class(8), Arc::new(Vec::new()));
        assert!(!memo.contains(&class(2)));
        assert!(memo.contains(&class(4)) && memo.contains(&class(8)));
        assert_eq!(memo.stats().evictions, 2);
    }

    #[test]
    fn age_out_drops_untouched_entries_on_quiet_passes() {
        let mut memo = CandidateMemo::default();
        memo.set_max_age(Some(2));
        let p = pools();
        memo.begin_pass(&p);
        memo.put(class(1), Arc::new(Vec::new()));
        memo.put(class(2), Arc::new(Vec::new()));
        // Keep class(1) warm across quiet passes; class(2) goes cold.
        for _ in 0..3 {
            memo.begin_pass(&p);
            assert!(memo.get(&class(1)).is_some());
        }
        assert!(memo.contains(&class(1)));
        assert!(!memo.contains(&class(2)));
        assert_eq!(memo.stats().aged_out, 1);
        // A signature change still flushes everything without counting
        // age-outs.
        let mut moved = pools();
        moved[0].free_gpus -= 1;
        memo.begin_pass(&moved);
        assert!(memo.is_empty());
        assert_eq!(memo.stats().aged_out, 1);
    }

    #[test]
    fn defaults_are_unbounded() {
        let mut memo = CandidateMemo::default();
        let p = pools();
        memo.begin_pass(&p);
        for g in 0..64 {
            memo.put(class(g + 1), Arc::new(Vec::new()));
        }
        for _ in 0..100 {
            memo.begin_pass(&p);
        }
        let s = memo.stats();
        assert_eq!(memo.entries.len(), 64);
        assert_eq!((s.evictions, s.aged_out), (0, 0));
    }
}
