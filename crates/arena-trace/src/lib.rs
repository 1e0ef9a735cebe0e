//! Workload traces: job records and synthetic production-trace generators.
//!
//! The paper drives its evaluation with three production traces — a
//! two-week Microsoft Philly trace (heavy load), a Helios Venus day
//! (moderate) and an Alibaba PAI day (low) — with GPU counts and types
//! randomly regenerated for the heterogeneous setting, and iteration
//! counts derived from job durations. None of the raw traces ship here;
//! [`gen`] reproduces their published *shape*: arrival burstiness, a
//! log-normal duration mix, a small-job-dominated GPU-demand mix and the
//! Fig. 15 model-size distribution, all from a seeded RNG so every
//! experiment is exactly reproducible.

#![forbid(unsafe_code)]

pub mod fault;
pub mod gen;
pub mod io;
pub mod job;
pub mod rng;
pub mod stream;

pub use fault::{generate_faults, FaultConfig, FaultEvent, FaultKind};
pub use gen::{generate, GenSource, TraceConfig, TraceKind};
pub use io::{load_json, save_json};
pub use job::JobSpec;
pub use stream::{save_jsonl, JsonlSource, JsonlWriter, TakeSource, TraceSource, VecSource};
