//! Large-model workload substrate: operator graphs and the Table-2 model zoo.
//!
//! The paper trains three model families — WideResNet, BERT and GShard
//! MoE — under adaptive parallelism. This crate replaces the real networks
//! with *operator graphs*: linear chains of coarse operators (a residual
//! block, a transformer layer, an MoE layer, …), each annotated with
//!
//! * forward FLOPs per training sample,
//! * parameter count,
//! * output activation bytes per sample (the inter-operator traffic that
//!   stage partitioning minimises), and
//! * tensor-parallel collective traffic per sample (the cost of sharding
//!   the operator across a TP group).
//!
//! These four quantities are exactly what the paper's stage-determination
//! heuristic (§4.2), memory-feasibility check (§5.1) and cost estimation
//! need; nothing in the scheduling/parallelism stack looks inside an
//! operator.
//!
//! The zoo ([`zoo`]) provides every `(family, size, global batch)`
//! configuration of Table 2, with architecture hyper-parameters chosen so
//! the realised parameter counts land near the nominal sizes.

#![forbid(unsafe_code)]

pub mod bert;
pub mod graph;
pub mod moe;
pub mod op;
pub mod wresnet;
pub mod zoo;

pub use graph::ModelGraph;
pub use op::{OpKind, Operator};
pub use zoo::{ModelConfig, ModelFamily};
