//! The Table-2 model zoo: every `(family, size, global batch)` used in the
//! paper's experiments.

use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

use crate::graph::ModelGraph;
use crate::{bert, moe, wresnet};

/// The three model families of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelFamily {
    /// WideResNet (vision).
    WideResNet,
    /// BERT (dense transformer).
    Bert,
    /// GShard mixture-of-experts transformer.
    Moe,
}

impl ModelFamily {
    /// Short label used in job names, e.g. `"WRes"`.
    #[must_use]
    pub fn short(self) -> &'static str {
        match self {
            ModelFamily::WideResNet => "WRes",
            ModelFamily::Bert => "BERT",
            ModelFamily::Moe => "MoE",
        }
    }

    /// Nominal sizes (billions of parameters) listed in Table 2.
    #[must_use]
    pub fn table2_sizes(self) -> &'static [f64] {
        match self {
            ModelFamily::WideResNet => &[0.5, 1.0, 2.0, 4.0, 6.8],
            ModelFamily::Bert => &[0.76, 1.3, 2.6, 6.7],
            ModelFamily::Moe => &[0.69, 1.3, 2.4, 10.0, 27.0],
        }
    }

    /// Whether `params_b` is one of [`ModelFamily::table2_sizes`], within
    /// the 1e-6 tolerance the `config_for` builders match sizes with — so
    /// exactly the sizes the builders accept.
    #[must_use]
    pub fn has_table2_size(self, params_b: f64) -> bool {
        self.table2_sizes()
            .iter()
            .any(|&s| (s - params_b).abs() < 1e-6)
    }

    /// Global batch sizes listed in Table 2.
    #[must_use]
    pub fn table2_batches(self) -> &'static [usize] {
        match self {
            ModelFamily::WideResNet => &[256, 512, 1024],
            ModelFamily::Bert => &[128, 256, 512],
            ModelFamily::Moe => &[256, 512, 1024],
        }
    }

    /// All three families.
    #[must_use]
    pub fn all() -> [ModelFamily; 3] {
        [ModelFamily::WideResNet, ModelFamily::Bert, ModelFamily::Moe]
    }
}

impl std::fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short())
    }
}

/// One trainable configuration: a family, a nominal size and a global
/// batch size.
///
/// Equality and hashing compare `params_b` by its bits, so a
/// configuration is a map key as it stands. [`ModelConfig::name`] prints
/// `params_b` in its shortest round-trip form, so two configurations are
/// equal exactly when their names and batches are.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Model family.
    pub family: ModelFamily,
    /// Nominal size in billions of parameters (a Table-2 value).
    pub params_b: f64,
    /// Global (cluster-wide) batch size in samples.
    pub global_batch: usize,
}

impl ModelConfig {
    /// Creates a configuration.
    #[must_use]
    pub fn new(family: ModelFamily, params_b: f64, global_batch: usize) -> Self {
        ModelConfig {
            family,
            params_b,
            global_batch,
        }
    }

    /// The fields that make a configuration's identity, `params_b` by
    /// its bits: the one definition `PartialEq`, `Eq` and `Hash` share.
    fn identity(&self) -> (ModelFamily, u64, usize) {
        (self.family, self.params_b.to_bits(), self.global_batch)
    }

    /// Display name, e.g. `"BERT-2.6B"`. A label: look a configuration up
    /// by the configuration itself.
    #[must_use]
    pub fn name(&self) -> String {
        format!("{}-{}B", self.family.short(), self.params_b)
    }

    /// Builds the operator graph for this configuration.
    ///
    /// # Panics
    ///
    /// Panics if the size is not a Table-2 value for the family.
    #[must_use]
    pub fn build(&self) -> ModelGraph {
        match self.family {
            ModelFamily::WideResNet => wresnet::build(self.params_b),
            ModelFamily::Bert => bert::build(self.params_b),
            ModelFamily::Moe => moe::build(self.params_b),
        }
    }
}

impl PartialEq for ModelConfig {
    fn eq(&self, other: &Self) -> bool {
        self.identity() == other.identity()
    }
}

impl Eq for ModelConfig {}

impl Hash for ModelConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.identity().hash(state);
    }
}

/// Every `(family, size)` pair of Table 2 at its middle global batch size.
#[must_use]
pub fn table2_configs() -> Vec<ModelConfig> {
    let mut out = Vec::new();
    for family in ModelFamily::all() {
        let batch = family.table2_batches()[1];
        for &size in family.table2_sizes() {
            out.push(ModelConfig::new(family, size, batch));
        }
    }
    out
}

/// Every `(family, size, batch)` combination of Table 2.
#[must_use]
pub fn table2_full_grid() -> Vec<ModelConfig> {
    let mut out = Vec::new();
    for family in ModelFamily::all() {
        for &size in family.table2_sizes() {
            for &batch in family.table2_batches() {
                out.push(ModelConfig::new(family, size, batch));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_fourteen_sizes() {
        assert_eq!(table2_configs().len(), 5 + 4 + 5);
    }

    #[test]
    fn table2_size_check_matches_the_builders() {
        for family in ModelFamily::all() {
            for &size in family.table2_sizes() {
                assert!(family.has_table2_size(size));
                assert!(family.has_table2_size(size + 5e-7));
                let _ = ModelConfig::new(family, size + 5e-7, 256).build();
            }
            for bad in [-1.0, 0.0, 7.7, f64::NAN, f64::INFINITY] {
                assert!(!family.has_table2_size(bad), "{family} {bad}");
            }
        }
    }

    #[test]
    fn full_grid_is_cross_product() {
        assert_eq!(table2_full_grid().len(), 5 * 3 + 4 * 3 + 5 * 3);
    }

    #[test]
    fn every_table2_config_builds() {
        for cfg in table2_configs() {
            let g = cfg.build();
            assert!(g.len() >= 3, "{} has too few ops", cfg.name());
            assert!(g.total_flops_fwd() > 0.0);
            assert_eq!(g.family, cfg.family);
        }
    }

    #[test]
    fn equality_is_name_and_batch_equality() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |c: &ModelConfig| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        let grid = table2_full_grid();
        for a in &grid {
            for b in &grid {
                let same_label = (a.name(), a.global_batch) == (b.name(), b.global_batch);
                assert_eq!(a == b, same_label, "{} / {}", a.name(), b.name());
                if a == b {
                    assert_eq!(hash(a), hash(b));
                }
            }
        }
    }

    #[test]
    fn names_round_trip_family_and_size() {
        let cfg = ModelConfig::new(ModelFamily::Moe, 2.4, 512);
        assert_eq!(cfg.name(), "MoE-2.4B");
        assert_eq!(cfg.build().name, "MoE-2.4B");
    }
}
