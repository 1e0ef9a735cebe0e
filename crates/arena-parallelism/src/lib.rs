//! Parallelism plans and the Cell exploration space.
//!
//! This crate implements the parallelism machinery of §4:
//!
//! * [`plan`] — the representation of a hybrid parallelism plan: pipeline
//!   stages, each internally split into data × tensor parallelism.
//! * [`stages`] — the paper's stage-determination heuristic (§4.2, Fig. 7):
//!   map allocated GPUs onto operators proportionally to FLOPs, cut the
//!   model at the cheapest communication boundaries, and round per-stage
//!   GPU counts to powers of two.
//! * [`space`] — enumeration of a Cell's exploration space (all `(dp, tp)`
//!   combinations per stage) and of the estimator's `2^Ns` *assembled*
//!   grid sample (DP-only / TP-only per stage, §5.1).

#![forbid(unsafe_code)]

pub mod plan;
pub mod space;
pub mod stages;

pub use plan::{write_plan_label, PipelinePlan, StageAssignment, StagePlan};
pub use space::{assembled_plans, stage_plan_options, PlanSpace, SampleWalk};
pub use stages::{determine_stages, StagePartition};
