//! **Arena** — a co-design of cluster scheduling and adaptive parallelism
//! for large-model training on heterogeneous GPU clusters.
//!
//! This umbrella crate re-exports the full stack and hosts the
//! [`experiments`] module that regenerates every table and figure of the
//! paper's evaluation.
//!
//! # Layers
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`cluster`] | `arena-cluster` | heterogeneous GPU cluster model |
//! | [`model`] | `arena-model` | operator graphs + Table-2 model zoo |
//! | [`parallelism`] | `arena-parallelism` | plans, stage determination, plan spaces |
//! | [`perf`] | `arena-perf` | analytical ground-truth performance model |
//! | [`estimator`] | `arena-estimator` | the Cell abstraction + agile estimation |
//! | [`tuner`] | `arena-tuner` | Cell-guided pruned parallelism tuning |
//! | [`sched`] | `arena-sched` | Arena's scheduler + FCFS/Gandiva/Gavel/ElasticFlow |
//! | [`runtime`] | `arena-runtime` | deterministic worker pool for parallel fan-out |
//! | [`trace`] | `arena-trace` | synthetic Philly/Helios/PAI workloads |
//! | [`sim`] | `arena-sim` | discrete-event cluster simulator |
//! | [`server`] | `arena-server` | resident scheduling daemon + JSONL protocol |
//!
//! # Quickstart
//!
//! ```
//! use arena::prelude::*;
//!
//! // A heterogeneous cluster and a job.
//! let cluster = arena::cluster::presets::physical_testbed();
//! let service = PlanService::new(&cluster, CostParams::default(), 42);
//! let model = ModelConfig::new(ModelFamily::Bert, 1.3, 256);
//!
//! // Arena's view: estimate the job's Cells on 8 A40 GPUs...
//! let choice = service.cell_choice(&model, 8, GpuTypeId(0)).unwrap();
//! // ...then tune the chosen Cell to its real plan.
//! let plan = service.arena_run(&model, 8, GpuTypeId(0)).unwrap();
//! assert!(plan.throughput_sps > 0.0);
//! assert!(choice.stages >= 1);
//! ```

pub use arena_cluster as cluster;
pub use arena_estimator as estimator;
pub use arena_model as model;
pub use arena_parallelism as parallelism;
pub use arena_perf as perf;
pub use arena_runtime as runtime;
pub use arena_sched as sched;
pub use arena_server as server;
pub use arena_sim as sim;
pub use arena_trace as trace;
pub use arena_tuner as tuner;

pub mod experiments;
pub mod report;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use arena_cluster::{Cluster, GpuSpec, GpuTypeId, LinkKind, NodeSpec};
    pub use arena_estimator::{Cell, CellEstimator, Favor};
    pub use arena_model::zoo::{ModelConfig, ModelFamily};
    pub use arena_model::ModelGraph;
    pub use arena_parallelism::{PipelinePlan, PlanSpace, StagePlan};
    pub use arena_perf::{CostParams, GroundTruth, HwTarget};
    pub use arena_runtime::WorkerPool;
    pub use arena_sched::{
        ArenaPolicy, ArenaSolverPolicy, ArenaVariant, ElasticFlowPolicy, FcfsPolicy, GandivaPolicy,
        GavelPolicy, PlanService, Policy, QueueOrder,
    };
    pub use arena_sim::{
        Decision, DecisionKind, MetricsRegistry, Obs, Run, SimConfig, SimResult, StreamSummary,
        TraceReport,
    };
    pub use arena_trace::{generate, GenSource, JobSpec, TraceConfig, TraceKind, TraceSource};
}
