//! Segmented job-table storage with whole-segment reclamation.
//!
//! The incremental engine historically kept every job ever submitted in
//! one `Vec<SJob>`: indices are handed to event heaps and membership
//! sets, so slots must never move or be reused — and batch traces are
//! small enough that keeping terminal jobs around until [`finish`]
//! builds their records is free. A streaming run is not: a million-job
//! trace would pin a million terminal `SJob`s (each holding an
//! `Arc<JobSpec>` with the job's name) to the end of the run.
//!
//! [`JobStore`] keeps the `Vec` contract — indices are assigned
//! monotonically, never move, and are never reused — while letting
//! record-fold mode return a terminal job's memory early. Slots are
//! grouped into fixed-size segments; reclaiming a slot drops its `SJob`
//! in place, and a sealed segment whose slots are all reclaimed is
//! freed wholesale. Arrivals are chronological, so live jobs cluster in
//! the newest segments and a drained run's memory follows the arrival
//! frontier instead of the trace length.
//!
//! Reclamation is strictly opt-in (the engine's record-fold mode): a
//! batch run never reclaims, every slot stays live, and the store is
//! bitwise a `Vec<SJob>` with extra bookkeeping.
//!
//! [`finish`]: crate::Engine::finish

use crate::incremental::SJob;

/// Slots per segment. Small enough that a partial tail segment wastes
/// little, large enough that segment bookkeeping is noise: at ~300
/// bytes per slot a segment is ~1.2 MiB.
const SEGMENT_SLOTS: usize = 4096;

struct Segment {
    slots: Vec<Option<SJob>>,
    live: usize,
}

/// Append-only job table with stable indices and per-slot reclamation.
pub(crate) struct JobStore {
    /// `None` once a sealed (full) segment has been fully reclaimed.
    segments: Vec<Option<Box<Segment>>>,
    /// Slots ever pushed — the index the next push returns.
    pushed: usize,
    /// Slots currently holding a job.
    live: usize,
}

impl JobStore {
    pub(crate) fn new() -> Self {
        JobStore {
            segments: Vec::new(),
            pushed: 0,
            live: 0,
        }
    }

    /// Slots ever pushed (the historical `Vec::len`), monotonic.
    #[cfg_attr(not(test), allow(dead_code))] // part of the Vec contract; engine derives indices from push
    pub(crate) fn len(&self) -> usize {
        self.pushed
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// Slots currently holding a job.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Appends a job, returning its permanent index.
    pub(crate) fn push(&mut self, job: SJob) -> usize {
        let idx = self.pushed;
        if idx.is_multiple_of(SEGMENT_SLOTS) {
            self.segments.push(Some(Box::new(Segment {
                slots: Vec::with_capacity(SEGMENT_SLOTS),
                live: 0,
            })));
        }
        let seg = self.segments[idx / SEGMENT_SLOTS]
            .as_mut()
            .expect("push target segment cannot have been reclaimed");
        seg.slots.push(Some(job));
        seg.live += 1;
        self.pushed += 1;
        self.live += 1;
        idx
    }

    /// The job at `idx`, or `None` if the slot was reclaimed (or never
    /// pushed).
    pub(crate) fn get(&self, idx: usize) -> Option<&SJob> {
        self.segments
            .get(idx / SEGMENT_SLOTS)?
            .as_ref()?
            .slots
            .get(idx % SEGMENT_SLOTS)?
            .as_ref()
    }

    fn get_mut(&mut self, idx: usize) -> Option<&mut SJob> {
        self.segments
            .get_mut(idx / SEGMENT_SLOTS)?
            .as_mut()?
            .slots
            .get_mut(idx % SEGMENT_SLOTS)?
            .as_mut()
    }

    /// Whether `idx` is live with a matching heap generation — the
    /// event heaps' staleness test. A reclaimed slot reads as stale,
    /// which is exact: reclamation requires the terminal transition
    /// that already bumped the generation past every outstanding entry.
    pub(crate) fn is_fresh(&self, idx: usize, generation: u64) -> bool {
        self.get(idx).is_some_and(|j| j.generation == generation)
    }

    /// Drops the job at `idx` and frees its segment once every slot in
    /// it is gone. Idempotent on already-reclaimed slots.
    pub(crate) fn reclaim(&mut self, idx: usize) {
        let seg_idx = idx / SEGMENT_SLOTS;
        let Some(Some(seg)) = self.segments.get_mut(seg_idx) else {
            return;
        };
        let Some(slot) = seg.slots.get_mut(idx % SEGMENT_SLOTS) else {
            return;
        };
        if slot.take().is_some() {
            seg.live -= 1;
            self.live -= 1;
            // Only sealed segments are dropped whole: the tail segment
            // may still receive pushes.
            if seg.live == 0 && seg.slots.len() == SEGMENT_SLOTS {
                self.segments[seg_idx] = None;
            }
        }
    }

    /// Live `(index, job)` pairs in ascending index (= submission)
    /// order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &SJob)> {
        self.segments.iter().enumerate().flat_map(|(s, seg)| {
            seg.iter().flat_map(move |seg| {
                seg.slots
                    .iter()
                    .enumerate()
                    .filter_map(move |(o, slot)| slot.as_ref().map(|j| (s * SEGMENT_SLOTS + o, j)))
            })
        })
    }

    /// Mutable variant of [`JobStore::iter`].
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut SJob)> {
        self.segments.iter_mut().enumerate().flat_map(|(s, seg)| {
            seg.iter_mut().flat_map(move |seg| {
                seg.slots
                    .iter_mut()
                    .enumerate()
                    .filter_map(move |(o, slot)| slot.as_mut().map(|j| (s * SEGMENT_SLOTS + o, j)))
            })
        })
    }

    /// Segments still resident in memory (sealed-and-drained ones are
    /// freed). Exposed for tests and occupancy telemetry.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn resident_segments(&self) -> usize {
        self.segments.iter().filter(|s| s.is_some()).count()
    }
}

impl std::ops::Index<usize> for JobStore {
    type Output = SJob;
    fn index(&self, idx: usize) -> &SJob {
        self.get(idx)
            .expect("job slot reclaimed or never pushed (store index)")
    }
}

impl std::ops::IndexMut<usize> for JobStore {
    fn index_mut(&mut self, idx: usize) -> &mut SJob {
        self.get_mut(idx)
            .expect("job slot reclaimed or never pushed (store index)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::JState;
    use arena_model::zoo::{ModelConfig, ModelFamily};
    use arena_trace::JobSpec;
    use std::sync::Arc;

    fn job(id: u64) -> SJob {
        SJob {
            spec: Arc::new(JobSpec {
                id,
                name: format!("j{id}"),
                submit_s: id as f64,
                model: ModelConfig::new(ModelFamily::Bert, 0.76, 256),
                iterations: 10,
                requested_gpus: 1,
                requested_pool: 0,
                deadline_s: None,
            }),
            state: JState::Queued,
            generation: id, // distinguishable per job for is_fresh tests
            last_update_s: 0.0,
            remaining: 10.0,
            alloc: None,
            pool: 0,
            gpus: 0,
            opportunistic: false,
            sps: 0.0,
            iter_time: 0.0,
            start_s: None,
            finish_s: None,
            restarts: 0,
            profiled: false,
            since_ckpt_s: 0.0,
            recovering_since: None,
            run_since: None,
            alloc_since: None,
            run_s: 0.0,
            productive_gpu_s: 0.0,
            allocated_gpu_s: 0.0,
        }
    }

    #[test]
    fn indices_are_monotonic_and_stable() {
        let mut store = JobStore::new();
        for i in 0..10u64 {
            assert_eq!(store.push(job(i)), i as usize);
        }
        assert_eq!(store.len(), 10);
        assert_eq!(store.live(), 10);
        store.reclaim(3);
        assert_eq!(store.len(), 10, "len is monotonic across reclaims");
        assert_eq!(store.live(), 9);
        assert!(store.get(3).is_none());
        assert_eq!(store[4].spec.id, 4, "neighbours keep their slots");
        // Reclaim is idempotent.
        store.reclaim(3);
        assert_eq!(store.live(), 9);
        // New pushes never reuse the freed index.
        assert_eq!(store.push(job(10)), 10);
    }

    #[test]
    fn is_fresh_reads_reclaimed_slots_as_stale() {
        let mut store = JobStore::new();
        store.push(job(0));
        store.push(job(1));
        assert!(store.is_fresh(1, 1));
        assert!(!store.is_fresh(1, 0), "generation mismatch is stale");
        store.reclaim(1);
        assert!(!store.is_fresh(1, 1), "reclaimed slot is stale");
        assert!(!store.is_fresh(99, 0), "never-pushed slot is stale");
    }

    #[test]
    fn iter_skips_reclaimed_slots_in_order() {
        let mut store = JobStore::new();
        for i in 0..6u64 {
            store.push(job(i));
        }
        store.reclaim(0);
        store.reclaim(4);
        let ids: Vec<(usize, u64)> = store.iter().map(|(i, j)| (i, j.spec.id)).collect();
        assert_eq!(ids, vec![(1, 1), (2, 2), (3, 3), (5, 5)]);
        for (_, j) in store.iter_mut() {
            j.restarts += 1;
        }
        assert_eq!(store[5].restarts, 1);
    }

    #[test]
    fn drained_sealed_segments_are_freed_whole() {
        let mut store = JobStore::new();
        let total = 2 * SEGMENT_SLOTS + 7;
        for i in 0..total {
            store.push(job(i as u64));
        }
        assert_eq!(store.resident_segments(), 3);
        // Drain the first segment entirely: it is sealed, so it drops.
        for i in 0..SEGMENT_SLOTS {
            store.reclaim(i);
        }
        assert_eq!(store.resident_segments(), 2);
        // Drain the tail (unsealed) segment: it stays resident so later
        // pushes can land in it.
        for i in 2 * SEGMENT_SLOTS..total {
            store.reclaim(i);
        }
        assert_eq!(store.resident_segments(), 2);
        assert_eq!(store.push(job(total as u64)), total);
        assert_eq!(store[total].spec.id, total as u64);
        // Accessing a freed segment's slots yields None, not a panic.
        assert!(store.get(10).is_none());
        assert_eq!(store.live(), SEGMENT_SLOTS + 1);
    }
}
