//! Byte accounting for the caches of long-running services.
//!
//! Fleet-scale runs keep the engine resident for millions of jobs, so
//! every cache the scheduler grows must answer *how many bytes is it
//! holding*. This module is the shared vocabulary:
//!
//! * [`MemSize`] — a deep-size estimator in the spirit of byte-accounted
//!   cache policies from production Rust services. Estimates are
//!   **deterministic**: they derive from lengths, never from allocator
//!   capacities, so two runs of the same workload account identical
//!   byte totals.
//! * [`MemSection`] — one line of a memory ledger: a named component's
//!   live bytes and entry count, ready to be exported as registry
//!   gauges. [`MemSection::of_map`] reads one from a live map.
//!
//! The caches themselves are plain maps that keep every entry: each
//! holds one entry per key a trace asks about (a configuration on some
//! GPUs of a pool, or a node class), not one per job. Accounting never
//! influences a value, so reading the ledger changes no output.

use std::collections::HashMap;

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

impl MemSize for f64 {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<f64>()
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

/// Fixed per-entry overhead a ledger charges on top of key and value
/// estimates: the hash-table slot and its control byte.
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
}

impl MemSection {
    /// A section with the given totals, for components that count their
    /// own bytes, such as the plan service's model-graph cache.
    #[must_use]
    pub fn new(name: &str, bytes: usize, entries: usize) -> Self {
        MemSection {
            name: name.to_string(),
            bytes,
            entries,
        }
    }

    /// A map's ledger line: every live entry charged its key's and
    /// value's estimate plus [`MAP_ENTRY_OVERHEAD`]. The walk is linear
    /// in the map's size, so callers read it on their own reporting
    /// cadence, never per lookup.
    #[must_use]
    pub fn of_map<K: MemSize, V: MemSize>(name: &str, map: &HashMap<K, V>) -> Self {
        let bytes = map
            .iter()
            .map(|(k, v)| k.mem_bytes() + v.mem_bytes() + MAP_ENTRY_OVERHEAD)
            .sum();
        MemSection::new(name, bytes, map.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(PartialEq, Eq, Hash)]
    struct Key(u32);

    impl MemSize for Key {
        fn mem_bytes(&self) -> usize {
            std::mem::size_of::<Self>()
        }
    }

    #[test]
    fn map_section_charges_every_live_entry() {
        let mut m: HashMap<Key, Option<f64>> = HashMap::new();
        assert_eq!(
            MemSection::of_map("test.map", &m),
            MemSection::new("test.map", 0, 0)
        );
        m.insert(Key(1), Some(1.0));
        m.insert(Key(2), None);
        let per = |v: &Option<f64>| 4 + v.mem_bytes() + MAP_ENTRY_OVERHEAD;
        let s = MemSection::of_map("test.map", &m);
        assert_eq!(s.name, "test.map");
        assert_eq!(s.entries, 2);
        assert_eq!(s.bytes, per(&Some(1.0)) + per(&None));
        // Replacing a value re-reads its size; removing drops its charge.
        m.insert(Key(2), Some(2.0));
        assert_eq!(
            MemSection::of_map("test.map", &m).bytes,
            2 * per(&Some(0.0))
        );
        m.remove(&Key(1));
        assert_eq!(MemSection::of_map("test.map", &m).bytes, per(&Some(0.0)));
    }
}
