//! Cluster scheduling policies (§6) and the baselines of §8.1.
//!
//! * [`policy`] — the policy interface: a scheduler is a pure decision
//!   function over a [`policy::SchedView`], emitting placement/eviction
//!   actions that the simulator executes and prices.
//! * [`service`] — the [`service::PlanService`]: the single gateway to
//!   performance data. Baselines see only data-parallel profiles (per the
//!   paper's experimental setup); Arena sees Cell estimates; every job,
//!   regardless of scheduler, *runs* with adaptive parallelism.
//! * [`arena`] — the Cell-based scheduler of Algorithm 1, with resource
//!   scaling bounded by a search depth, opportunistic execution, the
//!   deadline-aware Arena-DDL variant, and the Arena-NA / Arena-NH
//!   ablations of §8.6.
//! * [`fcfs`], [`gandiva`], [`gavel`], [`elasticflow`] — the four
//!   baseline schedulers, re-implemented at policy level.
//! * [`solver`] — the solver-enhanced extension the paper sketches in §6:
//!   joint assignment of all jobs by beam search.

pub mod arena;
pub mod elasticflow;
pub mod fcfs;
pub mod gandiva;
pub mod gavel;
mod memo;
pub mod policy;
pub mod service;
pub mod solver;

#[cfg(test)]
mod baseline_tests;
#[cfg(test)]
pub(crate) mod test_fixtures;

pub use arena::{ArenaPolicy, ArenaVariant, CandidateMemoStats, QueueOrder};
pub use arena_obs::{Decision, DecisionKind, Obs, TraceReport};
pub use elasticflow::ElasticFlowPolicy;
pub use fcfs::FcfsPolicy;
pub use gandiva::GandivaPolicy;
pub use gavel::GavelPolicy;
pub use policy::{
    Action, JobView, PlacementView, PlanMode, Policy, SchedEvent, SchedView, ShardQueue,
};
pub use service::{PlanService, RunPlan};
pub use solver::ArenaSolverPolicy;

/// Names accepted by [`policy_by_name`], in the canonical comparison
/// order (the order `repro` experiments and the service suite use).
pub const POLICY_NAMES: [&str; 5] = ["fcfs", "gandiva", "gavel", "elasticflow", "arena"];

/// Policy selection at startup: maps a lowercase policy name to a boxed
/// instance, constructed exactly as the comparison experiments construct
/// it (notably `ElasticFlowPolicy::loosened()` for `elasticflow`).
/// Returns `None` for unknown names. The second argument is ignored: it
/// sized Arena's removed in-decision worker pool and stays only because
/// the end-to-end benchmark (`e2ebench/`) passes it; it goes with the
/// next change to that benchmark.
#[must_use]
pub fn policy_by_name(name: &str, _worker_threads: usize) -> Option<Box<dyn Policy>> {
    match name {
        "fcfs" => Some(Box::new(FcfsPolicy::new())),
        "gandiva" => Some(Box::new(GandivaPolicy::new())),
        "gavel" => Some(Box::new(GavelPolicy::new())),
        "elasticflow" => Some(Box::new(ElasticFlowPolicy::loosened())),
        "arena" => Some(Box::new(ArenaPolicy::new())),
        _ => None,
    }
}
