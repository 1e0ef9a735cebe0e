//! Discrete-event cluster simulator.
//!
//! The paper runs §8.3 on a physical 64-GPU testbed and everything larger
//! in a simulator validated against it (3.16% throughput error, §8.3).
//! This crate is that simulator: it owns time, the cluster books, job
//! lifecycles (queue → profile/explore → run → restart → finish), and
//! metric collection, and drives any [`arena_sched::Policy`]:
//!
//! * **Events**: job arrivals from a trace, job completions, and periodic
//!   scheduling rounds (5 minutes, §7).
//! * **Plan acquisition**: when the policy places a job the simulator
//!   prices the placement through the
//!   [`PlanService`](arena_sched::PlanService) — full adaptive
//!   exploration for baselines, Cell estimation + pruned tuning for
//!   Arena — and delays the job's progress by the restart overhead plus
//!   that acquisition wall-clock.
//! * **Metrics**: JCT / queueing statistics, a normalised
//!   cluster-throughput timeline, restart counts, deadline satisfaction
//!   and the policy's own decision latency (Fig. 21a).
//!
//! One event loop, [`Engine`], runs everything: whole-trace batch and
//! streaming runs through the [`Run`] builder, and the resident daemon
//! one command at a time. [`reference`](mod@reference) keeps the pre-index loop as the
//! equivalence oracle the engine is held to byte for byte.

mod heap;
pub mod incremental;
pub mod metrics;
#[doc(hidden)]
pub mod reference;
mod run;
mod store;
pub mod stream;

pub use arena_obs::{
    Decision, DecisionKind, JobAccount, JobEventKind, JobState, MetricsRegistry, Obs, StopCause,
    Timeline, TraceReport, UtilSample,
};
pub use incremental::{
    Engine, EngineState, InputError, JobPhase, JobStatus, PoolSnapshot, ShardPlan, SimConfig,
    SimResult,
};
pub use metrics::{record_fingerprint, DecisionStats, FaultLog, FoldedRecords, JobRecord, Metrics};
pub use run::Run;
pub use stream::StreamSummary;
