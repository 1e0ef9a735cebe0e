//! The Cell: the paper's scheduling granularity.

use serde::Serialize;

use arena_model::ModelGraph;
use arena_parallelism::{determine_stages, StagePartition};

/// A stage's parallelism preference, extracted from the estimated plan and
/// used by the Cell-guided tuner to prune the exploration space (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Favor {
    /// The stage prefers data parallelism (search DP-only … half-hybrid).
    Dp,
    /// The stage prefers tensor parallelism (search half-hybrid … TP-only).
    Tp,
}

/// A scheduling candidate: a job with fixed resources and pipeline stages.
///
/// A Cell binds the two outer dimensions of the scheduling space (resource
/// allocation and pipeline parallelism), leaving only each stage's
/// `(dp, tp)` split open. That remaining space is what the agile
/// estimator samples and the tuner explores.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Cell {
    /// Total GPUs the Cell occupies.
    pub num_gpus: usize,
    /// Number of pipeline stages.
    pub num_stages: usize,
    /// The stage partition determined by §4.2.
    pub partition: StagePartition,
}

impl Cell {
    /// Builds a Cell for `graph` with the given resources and stage count.
    ///
    /// Returns `None` when stage determination fails (see
    /// [`determine_stages`]).
    #[must_use]
    pub fn new(graph: &ModelGraph, num_gpus: usize, num_stages: usize) -> Option<Self> {
        let partition = determine_stages(graph, num_gpus, num_stages)?;
        Some(Cell {
            num_gpus,
            num_stages,
            partition,
        })
    }

    /// Generates all Cells for a job on `num_gpus` GPUs: one per
    /// power-of-two stage count from 1 to `num_gpus` (the `log N_G`
    /// choices of §6.1), skipping the counts [`determine_stages`]
    /// refuses, such as more stages than the graph has operators.
    #[must_use]
    pub fn generate(graph: &ModelGraph, num_gpus: usize) -> Vec<Cell> {
        // Stage counts are the powers of two up to `num_gpus`: exactly
        // `log2 + 1` candidates, so one right-sized allocation.
        let mut out = Vec::with_capacity(num_gpus.max(1).ilog2() as usize + 1);
        let mut stages = 1;
        while stages <= num_gpus {
            if let Some(cell) = Cell::new(graph, num_gpus, stages) {
                out.push(cell);
            }
            stages *= 2;
        }
        out
    }

    /// Display label, e.g. `"8g/4s"`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}g/{}s", self.num_gpus, self.num_stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arena_model::zoo::{ModelConfig, ModelFamily};

    fn bert() -> ModelGraph {
        ModelConfig::new(ModelFamily::Bert, 1.3, 256).build()
    }

    #[test]
    fn new_cell_matches_partition() {
        let g = bert();
        let c = Cell::new(&g, 8, 4).unwrap();
        assert_eq!(c.num_gpus, 8);
        assert_eq!(c.num_stages, 4);
        assert_eq!(c.partition.total_gpus(), 8);
        assert_eq!(c.label(), "8g/4s");
    }

    #[test]
    fn generate_produces_log_choices() {
        let g = bert();
        let cells = Cell::generate(&g, 8);
        let stage_counts: Vec<usize> = cells.iter().map(|c| c.num_stages).collect();
        assert_eq!(stage_counts, vec![1, 2, 4, 8]);
    }

    #[test]
    fn generate_skips_infeasible_stage_counts() {
        // A 26-op BERT cannot host 32 stages.
        let g = bert();
        let cells = Cell::generate(&g, 32);
        assert!(cells.iter().all(|c| c.num_stages <= g.len()));
        assert!(!cells.is_empty());
    }

    #[test]
    fn impossible_cell_is_none() {
        let g = bert();
        assert!(Cell::new(&g, 2, 8).is_none());
    }
}
