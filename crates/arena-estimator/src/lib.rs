//! The Cell abstraction and the agile Cell estimator (§4, §5.1).
//!
//! A [`cell::Cell`] is the paper's scheduling granularity: a job
//! with a fixed GPU count and a fixed pipeline-stage partition, whose
//! data × tensor parallelism remains open. The
//! [`estimator::CellEstimator`] prices a Cell without
//! running it on its full allocation:
//!
//! 1. **Offline** ([`tables`]): every communication collective is profiled
//!    once per node class over a grid of power-of-two volumes and group
//!    sizes; at estimation time costs are interpolated from the tables.
//! 2. **Runtime** ([`profile`]): each stage's computation is profiled on a
//!    *single GPU* under the two pure plans (DP-only and TP-only) with
//!    distributed-equivalent compilation — the workflow of Fig. 10 —
//!    straight into struct-of-arrays columns.
//! 3. **Assembly** ([`estimator`]): the `2^Ns` plans mixing DP-only /
//!    TP-only per stage are priced by combining the two profiles with
//!    table-interpolated communication (Fig. 9), and the best feasible
//!    one becomes the Cell's estimate. The optimum over the assembled
//!    grid is found exactly by a threshold-bounded chain DP, so deep
//!    pipelines need no exponential enumeration.
//!
//! The estimate is *not* the analytical truth: stage profiles and table
//! entries carry measurement noise, and the assembled grid is a sample of
//! the full space — so estimation accuracy is an experimental result
//! (Fig. 12), not an assumption.

#![forbid(unsafe_code)]

pub mod cell;
pub mod estimator;
pub mod profile;
pub mod tables;

pub use cell::{Cell, Favor};
pub use estimator::{best_estimate, CacheStats, CacheStatsSnapshot, CellEstimate, CellEstimator};
pub use profile::SoaProfiles;
pub use tables::{CollectiveKind, CommTables};
