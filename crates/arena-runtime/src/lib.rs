//! A zero-dependency deterministic worker pool.
//!
//! The `repro` experiments fan independent simulations (whole policy
//! runs) out over OS threads while every observable output stays
//! **byte-identical** to the sequential run. The pool guarantees this by
//! construction:
//!
//! * Tasks are identified by their submission index. Workers pull
//!   indices from a shared atomic counter, so *which* thread runs a task
//!   is racy — but each task is a pure function of its index.
//! * Results are merged back **in submission-index order**, never in
//!   completion order.
//! * A pool of one thread (or a single task) runs inline on the caller's
//!   thread: pool size 1 is the trivially-sequential case.
//!
//! Anything a task writes into shared state (caches, counters) may land in
//! a different order across pool sizes; callers must only share state
//! whose observable values are order-independent (e.g. deterministic
//! keyed caches where every writer computes the same value).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mem;

pub use mem::{MemSection, MemSize};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A deterministic scoped-thread worker pool.
///
/// Holds no threads while idle; each [`WorkerPool::map`] /
/// [`WorkerPool::run_all`] call spawns scoped workers
/// (`std::thread::scope`) and joins them before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool with `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// The trivially-sequential pool: everything runs inline.
    #[must_use]
    pub fn sequential() -> Self {
        WorkerPool::new(1)
    }

    /// One worker per hardware thread the machine offers, capped at 8.
    /// Use for driver-level fan-out where tasks are few and large.
    #[must_use]
    pub fn per_core() -> Self {
        WorkerPool::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(8),
        )
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of workers that can actually run concurrently: the
    /// configured thread count capped at the machine's available
    /// parallelism. Spawning beyond the core count buys nothing and
    /// costs a thread spawn/join per excess worker, so fan-out
    /// decisions (inline vs. spawn) should consult this
    /// rather than [`WorkerPool::threads`]. Results are still
    /// byte-identical either way — only wall-clock changes.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        use std::sync::OnceLock;
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores = *CORES.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        self.threads.min(cores).max(1)
    }

    /// Applies `f` to every item, returning results in item order.
    ///
    /// `f` receives `(index, &item)` and must be a pure function of them
    /// (up to order-independent shared caches) for cross-pool-size
    /// determinism.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_indices(items.len(), |i| f(i, &items[i]))
    }

    /// Runs `f(0..n)`, returning results in index order.
    pub fn map_indices<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.effective_threads() <= 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|s| {
            for _ in 0..self.effective_threads().min(n) {
                s.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    collected.lock().expect("worker result lock").extend(local);
                });
            }
        });
        let mut results = collected.into_inner().expect("worker result lock");
        results.sort_by_key(|&(i, _)| i);
        debug_assert_eq!(results.len(), n);
        results.into_iter().map(|(_, r)| r).collect()
    }

    /// Runs every one-shot task, returning results in submission order.
    /// Unlike [`WorkerPool::map`] the tasks are owned closures, so this
    /// fits fan-out over values that must move into the worker (boxed
    /// policies, owned configs).
    pub fn run_all<R, F>(&self, tasks: Vec<F>) -> Vec<R>
    where
        R: Send,
        F: FnOnce() -> R + Send,
    {
        if self.effective_threads() <= 1 || tasks.len() <= 1 {
            return tasks.into_iter().map(|t| t()).collect();
        }
        let n = tasks.len();
        let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.map_indices(n, |i| {
            let task = slots[i]
                .lock()
                .expect("task slot lock")
                .take()
                .expect("each task runs exactly once");
            task()
        })
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::sequential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_item_order_across_pool_sizes() {
        let items: Vec<usize> = (0..257).collect();
        let seq: Vec<usize> = WorkerPool::new(1).map(&items, |i, &x| i * 1000 + x * 3);
        for threads in [2, 4, 8] {
            let par = WorkerPool::new(threads).map(&items, |i, &x| i * 1000 + x * 3);
            assert_eq!(par, seq, "pool size {threads} reordered results");
        }
    }

    #[test]
    fn effective_threads_caps_at_available_parallelism() {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(WorkerPool::new(1).effective_threads(), 1);
        assert_eq!(WorkerPool::new(8).effective_threads(), 8.min(cores));
        assert!(WorkerPool::new(1024).effective_threads() <= cores);
    }

    #[test]
    fn map_indices_handles_edge_sizes() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.map_indices(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map_indices(1, |i| i + 7), vec![7]);
        assert_eq!(pool.map_indices(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn run_all_merges_in_submission_order() {
        let tasks: Vec<_> = (0..64_usize)
            .map(|i| {
                move || {
                    // Uneven work so completion order differs from
                    // submission order under real concurrency.
                    let mut acc = 0_u64;
                    for k in 0..((64 - i) * 500) {
                        acc = acc.wrapping_add(k as u64);
                    }
                    (i, std::hint::black_box(acc))
                }
            })
            .collect();
        let out = WorkerPool::new(8).run_all(tasks);
        let ids: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_clamps_to_sequential() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map_indices(4, |i| i * 2), vec![0, 2, 4, 6]);
    }
}
