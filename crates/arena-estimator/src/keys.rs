//! Cache keys for the estimator.
//!
//! Hardware names become dense `u32` ids once, through the
//! [`Interner`], so the table cache's key is a small `Copy` struct that
//! never allocates or compares strings. The cache itself is an
//! [`arena_runtime::BudgetedMap`]; the key only adds a [`MemSize`]
//! estimate so the map can account its bytes.

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
}
