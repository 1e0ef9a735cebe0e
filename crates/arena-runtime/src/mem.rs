//! Byte-accounted, budgeted containers for long-running services.
//!
//! Fleet-scale runs keep the engine resident for millions of jobs, so
//! every cache the scheduler grows must answer two questions: *how many
//! bytes is it holding* and *what gets dropped when a budget is hit*.
//! This module is the shared vocabulary:
//!
//! * [`MemSize`] — a deep-size estimator in the spirit of byte-budgeted
//!   cache policies from production Rust services. Estimates are
//!   **deterministic**: they derive from lengths, never from allocator
//!   capacities, so two runs of the same workload account identical
//!   byte totals and evict identical entries.
//! * [`BudgetedMap`] — a hash map with an insertion-order clock and a
//!   byte budget. Eviction is strictly oldest-first-inserted (a
//!   generation clock, never hash-iteration order), which keeps
//!   eviction — and therefore every downstream recompute — a pure
//!   function of the insertion sequence.
//! * [`MemSection`] — one line of a memory ledger: a named component's
//!   live bytes, entry count, budget and eviction counter, ready to be
//!   exported as registry gauges.
//!
//! Budgets default to *unlimited* everywhere; byte-identity suites run
//! with accounting on and eviction off, and stay byte-identical because
//! the accounting itself never influences values — only retention.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// Environment variable carrying the total cache byte budget for a run
/// (distributed across the engine's budgeted components).
pub const MEM_BUDGET_ENV: &str = "ARENA_MEM_BUDGET_BYTES";

/// Reads [`MEM_BUDGET_ENV`]; `None` (unlimited) when unset or
/// unparsable.
#[must_use]
pub fn mem_budget_from_env() -> Option<usize> {
    std::env::var(MEM_BUDGET_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
}

/// Deterministic deep-size estimate in bytes.
///
/// Implementations count the value's own footprint plus owned heap
/// data, computed from *lengths* (not allocator capacities) so the
/// estimate is identical across runs and platforms with the same
/// workload. Estimates favour being cheap and stable over being exact.
pub trait MemSize {
    /// Estimated bytes owned by `self`, including `size_of::<Self>()`.
    fn mem_bytes(&self) -> usize;
}

macro_rules! mem_size_by_value {
    ($($t:ty),*) => {
        $(impl MemSize for $t {
            fn mem_bytes(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        })*
    };
}

mem_size_by_value!(u64, f64);

impl MemSize for String {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<String>() + self.len()
    }
}

impl<T: MemSize> MemSize for Option<T> {
    fn mem_bytes(&self) -> usize {
        match self {
            // The niche usually makes Option<T> the size of T; count the
            // payload's own estimate either way.
            Some(v) => v.mem_bytes(),
            None => std::mem::size_of::<Self>(),
        }
    }
}

impl<T: MemSize> MemSize for std::sync::Arc<T> {
    fn mem_bytes(&self) -> usize {
        // Attribute the pointee to every holder: cheaper than reference
        // counting shares, and conservative (over-counts shared data).
        std::mem::size_of::<usize>() + (**self).mem_bytes()
    }
}

/// Fixed per-entry overhead charged by [`BudgetedMap`] on top of key and
/// value estimates: hash-table slot, control byte and order-clock entry.
pub const MAP_ENTRY_OVERHEAD: usize = 48;

/// One named component in a memory ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct MemSection {
    /// Component name, dot-separated (e.g. `plans.cells`).
    pub name: String,
    /// Live accounted bytes.
    pub bytes: usize,
    /// Live entries (or samples) behind those bytes.
    pub entries: usize,
    /// Byte budget, `None` when unlimited.
    pub budget_bytes: Option<usize>,
    /// Entries evicted to stay under budget since creation.
    pub evictions: u64,
}

impl MemSection {
    /// A section with no budget and no evictions, for report-only
    /// components such as the plan service's model-graph cache.
    #[must_use]
    pub fn unbudgeted(name: &str, bytes: usize, entries: usize) -> Self {
        MemSection {
            name: name.to_string(),
            bytes,
            entries,
            budget_bytes: None,
            evictions: 0,
        }
    }
}

/// A hash map with deterministic byte accounting and oldest-first
/// eviction under a byte budget.
///
/// The eviction order is the *first-insertion* order of live keys — a
/// generation clock. Re-inserting an existing key replaces its value
/// but keeps its clock position, so the eviction sequence is a pure
/// function of the key-insertion sequence and never of hash iteration
/// order. With `budget = None` the map never evicts and behaves exactly
/// like a plain `HashMap` plus counters.
#[derive(Debug)]
pub struct BudgetedMap<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    bytes: usize,
    budget: Option<usize>,
    evictions: u64,
}

impl<K: Clone + Eq + Hash + MemSize, V: MemSize> BudgetedMap<K, V> {
    /// An empty map under `budget` bytes (`None` = unlimited).
    #[must_use]
    pub fn new(budget: Option<usize>) -> Self {
        BudgetedMap {
            map: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            budget,
            evictions: 0,
        }
    }

    fn entry_cost(k: &K, v: &V) -> usize {
        k.mem_bytes() + v.mem_bytes() + MAP_ENTRY_OVERHEAD
    }

    /// Looks a key up. Lookups never touch the eviction clock.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.map.get(k)
    }

    /// Whether `k` is present.
    pub fn contains_key(&self, k: &K) -> bool {
        self.map.contains_key(k)
    }

    /// Inserts (replacing any previous value for the key), then evicts
    /// oldest-first until back under budget. Returns how many entries
    /// were evicted. The just-inserted key is exempt from its own
    /// insertion's eviction sweep: a single entry larger than the whole
    /// budget still caches (and is the next sweep's first victim).
    pub fn insert(&mut self, k: K, v: V) -> usize {
        let cost = Self::entry_cost(&k, &v);
        if let Some(old) = self.map.insert(k.clone(), v) {
            let old_cost = Self::entry_cost(&k, &old);
            self.bytes = self.bytes - old_cost + cost;
        } else {
            self.order.push_back(k.clone());
            self.bytes += cost;
        }
        let mut evicted = 0;
        if let Some(budget) = self.budget {
            while self.bytes > budget && self.order.len() > 1 {
                let oldest = self.order.pop_front().expect("non-empty order clock");
                if oldest == k {
                    // Keep the newest entry resident; rotate it to the
                    // back so the clock still holds every live key once.
                    self.order.push_back(oldest);
                    if self.order.len() == 1 {
                        break;
                    }
                    continue;
                }
                let old = self.map.remove(&oldest).expect("clock tracks live keys");
                self.bytes -= Self::entry_cost(&oldest, &old);
                self.evictions += 1;
                evicted += 1;
            }
        }
        evicted
    }

    /// Live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Live accounted bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The byte budget (`None` = unlimited).
    #[must_use]
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Entries evicted since creation.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Replaces the budget; an immediate oldest-first sweep applies it.
    pub fn set_budget(&mut self, budget: Option<usize>) {
        self.budget = budget;
        if let Some(b) = budget {
            while self.bytes > b && self.order.len() > 1 {
                let oldest = self.order.pop_front().expect("non-empty order clock");
                let old = self.map.remove(&oldest).expect("clock tracks live keys");
                self.bytes -= Self::entry_cost(&oldest, &old);
                self.evictions += 1;
            }
        }
    }

    /// This map as one ledger section.
    #[must_use]
    pub fn section(&self, name: &str) -> MemSection {
        MemSection {
            name: name.to_string(),
            bytes: self.bytes,
            entries: self.map.len(),
            budget_bytes: self.budget,
            evictions: self.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_budget_parses_or_none() {
        // Not set in the test environment by default.
        std::env::remove_var(MEM_BUDGET_ENV);
        assert_eq!(mem_budget_from_env(), None);
        std::env::set_var(MEM_BUDGET_ENV, "1048576");
        assert_eq!(mem_budget_from_env(), Some(1_048_576));
        std::env::set_var(MEM_BUDGET_ENV, "not-a-number");
        assert_eq!(mem_budget_from_env(), None);
        std::env::remove_var(MEM_BUDGET_ENV);
    }

    #[test]
    fn mem_size_counts_heap_deterministically() {
        let mut s = String::with_capacity(100);
        s.push_str("hello");
        // Length, not capacity, drives the estimate.
        assert_eq!(s.mem_bytes(), std::mem::size_of::<String>() + 5);
    }

    #[test]
    fn unlimited_map_never_evicts() {
        let mut m: BudgetedMap<u64, String> = BudgetedMap::new(None);
        for i in 0..1000 {
            m.insert(i, format!("value-{i}"));
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.evictions(), 0);
        assert!(m.bytes() > 0);
    }

    #[test]
    fn eviction_is_oldest_first() {
        // Budget fits roughly three entries.
        let per = 8 + std::mem::size_of::<String>() + 3 + MAP_ENTRY_OVERHEAD;
        let mut m: BudgetedMap<u64, String> = BudgetedMap::new(Some(3 * per));
        for i in 0..5_u64 {
            m.insert(i, format!("v{i:02}"));
        }
        assert_eq!(m.len(), 3);
        assert_eq!(m.evictions(), 2);
        assert!(!m.contains_key(&0) && !m.contains_key(&1));
        assert!(m.contains_key(&2) && m.contains_key(&3) && m.contains_key(&4));
    }

    #[test]
    fn reinsert_keeps_clock_position_and_adjusts_bytes() {
        let mut m: BudgetedMap<u64, String> = BudgetedMap::new(None);
        m.insert(1, "a".repeat(10));
        let b1 = m.bytes();
        m.insert(1, "a".repeat(30));
        assert_eq!(m.len(), 1);
        assert_eq!(m.bytes(), b1 + 20);
        m.insert(1, "a".repeat(10));
        assert_eq!(m.bytes(), b1);
    }

    #[test]
    fn oversized_entry_still_caches() {
        let mut m: BudgetedMap<u64, String> = BudgetedMap::new(Some(1));
        m.insert(7, "way-over-budget".to_string());
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(&7));
        // The next insert evicts it.
        m.insert(8, "also-over".to_string());
        assert!(!m.contains_key(&7));
        assert!(m.contains_key(&8));
    }

    #[test]
    fn set_budget_sweeps_immediately() {
        let mut m: BudgetedMap<u64, u64> = BudgetedMap::new(None);
        for i in 0..10 {
            m.insert(i, i);
        }
        let per = 16 + MAP_ENTRY_OVERHEAD;
        m.set_budget(Some(2 * per));
        assert_eq!(m.len(), 2);
        assert!(m.contains_key(&8) && m.contains_key(&9));
        assert_eq!(m.evictions(), 8);
    }

    #[test]
    fn eviction_sequence_is_insertion_deterministic() {
        // Two maps fed the same sequence evict the same keys, whatever
        // the hash layout does.
        let budget = Some(5 * (16 + MAP_ENTRY_OVERHEAD));
        let mut a: BudgetedMap<u64, u64> = BudgetedMap::new(budget);
        let mut b: BudgetedMap<u64, u64> = BudgetedMap::new(budget);
        let keys = [
            3_u64, 14, 1, 59, 26, 5, 3, 58, 9, 7, 9, 3, 2, 38, 4, 6, 2, 6,
        ];
        for &k in &keys {
            a.insert(k, k * 2);
            b.insert(k, k * 2);
        }
        assert_eq!(a.len(), b.len());
        assert_eq!(a.evictions(), b.evictions());
        for &k in &keys {
            assert_eq!(a.contains_key(&k), b.contains_key(&k), "key {k}");
        }
    }

    #[test]
    fn section_reports_the_ledger_line() {
        let mut m: BudgetedMap<u64, u64> = BudgetedMap::new(Some(1 << 20));
        m.insert(1, 1);
        let s = m.section("test.map");
        assert_eq!(s.name, "test.map");
        assert_eq!(s.entries, 1);
        assert_eq!(s.budget_bytes, Some(1 << 20));
        assert_eq!(s.bytes, m.bytes());
        assert_eq!(s.evictions, 0);
    }
}
