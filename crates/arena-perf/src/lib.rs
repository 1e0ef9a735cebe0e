//! Analytical performance model — the "hardware" of the reproduction.
//!
//! The paper measures plan performance on a physical testbed; this crate
//! replaces the testbed with a first-order analytical model that serves as
//! **ground truth** for everything above it (estimator, tuner, scheduler,
//! simulator). The model is built from well-understood components:
//!
//! * [`compute`] — per-stage computation time: a roofline with a per-kind
//!   achievable-efficiency cap, an additive kernel-launch overhead (which
//!   makes small per-GPU work inefficient, capping scale-up), and a
//!   tensor-parallel fragmentation penalty.
//! * [`collective`] — α–β costs for ring all-reduce, all-gather,
//!   point-to-point transfers and all-to-all, parameterised by the link a
//!   communicator group actually crosses (NVLink inside a node, InfiniBand
//!   across nodes).
//! * [`memory`] — per-GPU memory: FP16 weights + gradients + Adam state
//!   (16 bytes/parameter, divided by the tensor-parallel degree) plus
//!   pipeline-buffered activations.
//! * [`pipeline`] — the GPipe composition of Fig. 10: the first
//!   micro-batch traverses all stages, the remaining `B − 1` are
//!   bottlenecked by the slowest stage with communication overlapped,
//!   plus the per-stage data-parallel gradient synchronisation.
//! * [`noise`] — deterministic, seeded multiplicative measurement noise so
//!   "measuring" the same plan twice agrees but the estimator cannot be
//!   trivially exact.
//! * [`oracle`] — the [`oracle::GroundTruth`] facade
//!   combining all of the above: "running" a plan goes through it, and it
//!   prices one Alpa-style direct-profiling trial
//!   ([`GroundTruth::trial_wall_s`]). Every search sums the trials it
//!   makes, which is how the overhead comparisons of Fig. 12(b)/13(b)
//!   are counted.
//! * [`sampled`] — [`sampled::SampledSearch`], which measures many plans
//!   of one plan space from a per-partition stage-cost table, bit for bit
//!   as the facade would.
//!
//! The model's constants ([`params::CostParams`]) were chosen so the
//! qualitative landscape matches the paper's observations: data
//! parallelism wins when memory allows and links are fast, tensor
//! parallelism is required when memory is tight but only cheap on NVLink,
//! and pipeline parallelism wins across slow fabrics.

#![forbid(unsafe_code)]

pub mod collective;
pub mod compute;
pub mod memory;
pub mod noise;
pub mod oracle;
pub mod params;
pub mod pipeline;
pub mod sampled;
pub mod target;

pub use noise::NoiseModel;
pub use oracle::GroundTruth;
pub use params::CostParams;
pub use pipeline::{Infeasible, PerfModel, PlanPerf, StageCost};
pub use sampled::{Measured, SampledSearch};
pub use target::HwTarget;
