//! Hybrid parallelism plan representation.

use std::fmt;
use std::ops::Range;

use serde::Serialize;

use arena_model::ModelGraph;

/// The internal parallelism of one pipeline stage: `dp` data-parallel
/// replicas, each sharded over `tp` tensor-parallel devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct StagePlan {
    /// Data-parallel degree.
    pub dp: usize,
    /// Tensor-parallel degree.
    pub tp: usize,
}

impl StagePlan {
    /// A pure data-parallel split over `g` GPUs.
    #[must_use]
    pub fn dp_only(g: usize) -> Self {
        StagePlan { dp: g, tp: 1 }
    }

    /// A pure tensor-parallel split over `g` GPUs.
    #[must_use]
    pub fn tp_only(g: usize) -> Self {
        StagePlan { dp: 1, tp: g }
    }

    /// GPUs the stage occupies.
    #[must_use]
    pub fn gpus(&self) -> usize {
        self.dp * self.tp
    }

    /// Whether the plan uses any tensor parallelism.
    #[must_use]
    pub fn uses_tp(&self) -> bool {
        self.tp > 1
    }

    /// Compact label, e.g. `"D4T2"`.
    #[must_use]
    pub fn label(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for StagePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}T{}", self.dp, self.tp)
    }
}

/// Writes the compact label of a plan whose stages render as `stages`,
/// e.g. `"P2[D4T1,D1T4]"` — the format of [`PipelinePlan::label`], for
/// writers that render stage labels ahead of time or reuse a buffer.
///
/// # Errors
///
/// Returns an error only if `out` does.
pub fn write_plan_label<L: fmt::Display>(
    out: &mut impl fmt::Write,
    stages: impl ExactSizeIterator<Item = L>,
) -> fmt::Result {
    write!(out, "P{}[", stages.len())?;
    for (i, stage) in stages.enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write!(out, "{stage}")?;
    }
    out.write_char(']')
}

/// One pipeline stage: a contiguous operator range, its GPU share and its
/// internal parallelism.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StageAssignment {
    /// Operators `[start, end)` of the model graph owned by this stage.
    pub op_range: Range<usize>,
    /// Internal parallelism; `plan.gpus()` is the stage's GPU count.
    pub plan: StagePlan,
}

impl StageAssignment {
    /// GPUs the stage occupies.
    #[must_use]
    pub fn gpus(&self) -> usize {
        self.plan.gpus()
    }
}

/// A complete hybrid plan: an ordered list of pipeline stages.
///
/// The pipeline degree is `stages.len()`; following GPipe (and the paper,
/// Fig. 10), the number of micro-batches per iteration is four times the
/// stage count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PipelinePlan {
    /// Pipeline stages in order.
    pub stages: Vec<StageAssignment>,
}

impl PipelinePlan {
    /// Number of pipeline stages.
    #[must_use]
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total GPUs across all stages.
    #[must_use]
    pub fn total_gpus(&self) -> usize {
        self.stages.iter().map(StageAssignment::gpus).sum()
    }

    /// Micro-batches per iteration (GPipe rule: `4 × stages`).
    #[must_use]
    pub fn microbatches(&self) -> usize {
        Self::microbatches_for(self.num_stages())
    }

    /// Micro-batches per iteration of a plan with `stages` stages.
    #[must_use]
    pub fn microbatches_for(stages: usize) -> usize {
        4 * stages
    }

    /// Checks that the plan is structurally valid for `graph`: stages are
    /// contiguous, non-empty, cover every operator exactly once, and every
    /// stage has at least one GPU.
    #[must_use]
    pub fn is_valid_for(&self, graph: &ModelGraph) -> bool {
        if self.stages.is_empty() {
            return false;
        }
        let mut next = 0;
        for st in &self.stages {
            if st.op_range.start != next || st.op_range.is_empty() || st.gpus() == 0 {
                return false;
            }
            next = st.op_range.end;
        }
        next == graph.len()
    }

    /// Compact label, e.g. `"P4[D2T1,D2T1,D1T2,D1T2]"`.
    #[must_use]
    pub fn label(&self) -> String {
        let mut out = String::new();
        write_plan_label(&mut out, self.stages.iter().map(|s| s.plan))
            .expect("writing to a String cannot fail");
        out
    }

    /// Paper-style summary when all stages share the same split, e.g.
    /// `"D2T2-P4"`; falls back to [`label`](Self::label) otherwise.
    #[must_use]
    pub fn short_label(&self) -> String {
        let first = self.stages[0].plan;
        if self.stages.iter().all(|s| s.plan == first) {
            format!("D{}T{}-P{}", first.dp, first.tp, self.num_stages())
        } else {
            self.label()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arena_model::zoo::{ModelConfig, ModelFamily};

    fn bert() -> ModelGraph {
        ModelConfig::new(ModelFamily::Bert, 1.3, 256).build()
    }

    fn plan_over(graph: &ModelGraph, cuts: &[usize], plans: &[StagePlan]) -> PipelinePlan {
        let mut stages = Vec::new();
        let mut start = 0;
        for (i, &end) in cuts.iter().chain(std::iter::once(&graph.len())).enumerate() {
            stages.push(StageAssignment {
                op_range: start..end,
                plan: plans[i],
            });
            start = end;
        }
        PipelinePlan { stages }
    }

    #[test]
    fn stage_plan_basics() {
        let p = StagePlan { dp: 4, tp: 2 };
        assert_eq!(p.gpus(), 8);
        assert!(p.uses_tp());
        assert_eq!(p.label(), "D4T2");
        assert!(!StagePlan::dp_only(8).uses_tp());
        assert_eq!(StagePlan::tp_only(8).tp, 8);
    }

    #[test]
    fn valid_plan_accepted() {
        let g = bert();
        let plan = plan_over(
            &g,
            &[g.len() / 2],
            &[StagePlan::dp_only(2), StagePlan::tp_only(2)],
        );
        assert!(plan.is_valid_for(&g));
        assert_eq!(plan.total_gpus(), 4);
        assert_eq!(plan.microbatches(), 8);
    }

    #[test]
    fn gapped_plan_rejected() {
        let g = bert();
        let mut plan = plan_over(
            &g,
            &[g.len() / 2],
            &[StagePlan::dp_only(2), StagePlan::dp_only(2)],
        );
        plan.stages[1].op_range.start += 1;
        assert!(!plan.is_valid_for(&g));
    }

    #[test]
    fn incomplete_plan_rejected() {
        let g = bert();
        let mut plan = plan_over(&g, &[], &[StagePlan::dp_only(4)]);
        plan.stages[0].op_range.end -= 1;
        assert!(!plan.is_valid_for(&g));
    }

    #[test]
    fn labels() {
        let g = bert();
        let uniform = plan_over(
            &g,
            &[g.len() / 2],
            &[StagePlan { dp: 2, tp: 2 }, StagePlan { dp: 2, tp: 2 }],
        );
        assert_eq!(uniform.short_label(), "D2T2-P2");
        let mixed = plan_over(
            &g,
            &[g.len() / 2],
            &[StagePlan::dp_only(4), StagePlan::tp_only(4)],
        );
        assert_eq!(mixed.short_label(), "P2[D4T1,D1T4]");
    }
}
