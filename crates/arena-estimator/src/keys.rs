//! Cache keys for the estimator.
//!
//! Model and hardware names become dense `u32` ids once, through the
//! [`Interner`], so the estimator's cache keys are small `Copy` structs
//! that never allocate or compare strings. The caches themselves are
//! [`arena_runtime::BudgetedMap`]s; the keys only add a [`MemSize`]
//! estimate so the maps can account their bytes.

use std::collections::HashMap;

use arena_runtime::MemSize;
use parking_lot::RwLock;

/// Interns strings to dense `u32` ids. Lookup of a known string takes a
/// read lock only.
///
/// Public (re-exported at the crate root) so other crates on hot paths —
/// e.g. the simulator's plan-database key — can reuse it instead of
/// hashing freshly allocated strings.
#[derive(Debug, Default)]
pub struct Interner {
    map: RwLock<HashMap<String, u32>>,
}

impl Interner {
    /// An empty interner.
    #[must_use]
    pub fn new() -> Self {
        Interner::default()
    }

    /// The id for `s`, allocating one on first sight.
    pub fn intern(&self, s: &str) -> u32 {
        if let Some(&id) = self.map.read().get(s) {
            return id;
        }
        let mut w = self.map.write();
        let next = u32::try_from(w.len()).expect("interner overflow");
        *w.entry(s.to_string()).or_insert(next)
    }
}

/// Identity for a `(model, batch, cell, hardware)` combination — the key
/// of the stage-profile cache. `Cell` identity reduces to
/// `(num_gpus, num_stages)` because stage partitioning is a pure
/// function of those and the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CellKey {
    pub(crate) model: u32,
    pub(crate) batch: usize,
    pub(crate) gpus: usize,
    pub(crate) stages: usize,
    pub(crate) hw: u32,
    pub(crate) gpn: usize,
}

impl MemSize for CellKey {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// Identity of a communication-table build: hardware class and packed
/// GPUs-per-node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TableKey {
    pub(crate) hw: u32,
    pub(crate) gpn: usize,
}

impl MemSize for TableKey {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_is_stable_and_dense() {
        let i = Interner::new();
        let a = i.intern("bert");
        let b = i.intern("moe");
        assert_ne!(a, b);
        assert_eq!(i.intern("bert"), a);
        assert_eq!(i.intern("moe"), b);
    }

    #[test]
    fn distinct_fields_give_distinct_keys() {
        let key = |model, batch, gpus, stages, hw, gpn| CellKey {
            model,
            batch,
            gpus,
            stages,
            hw,
            gpn,
        };
        let base = key(0, 256, 8, 4, 0, 4);
        for other in [
            key(1, 256, 8, 4, 0, 4),
            key(0, 512, 8, 4, 0, 4),
            key(0, 256, 4, 4, 0, 4),
            key(0, 256, 8, 2, 0, 4),
            key(0, 256, 8, 4, 1, 4),
            key(0, 256, 8, 4, 0, 2),
        ] {
            assert_ne!(base, other);
        }
        assert_eq!(base, key(0, 256, 8, 4, 0, 4));
    }
}
