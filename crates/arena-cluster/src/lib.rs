//! Heterogeneous GPU cluster model.
//!
//! This crate is the hardware substrate of the Arena reproduction. It models
//! everything the paper's scheduler needs to know about a cluster:
//!
//! * GPU device specifications ([`GpuSpec`]): architecture, memory capacity,
//!   and peak dense compute throughput.
//! * Interconnects ([`LinkKind`]): intra-node links (NVLink, PCIe) and
//!   inter-node fabrics (InfiniBand ConnectX-5/6), each with an effective
//!   bandwidth and a base latency used by the α–β communication model in
//!   `arena-perf`.
//! * Nodes and pools ([`NodeSpec`], [`Cluster`]): a cluster is a set of
//!   homogeneous pools, each holding many identical nodes. This matches the
//!   paper's Table 1 (four pools: A100, A40, A10, V100) and the §8.1
//!   physical testbed (two pools: A40, A10).
//! * Allocations ([`Allocation`]): a set of GPUs of one type, possibly
//!   spanning nodes, produced by the packing allocator in [`Cluster`].
//!
//! The cluster presets used throughout the evaluation live in [`presets`].

pub mod alloc;
pub mod cluster;
pub mod gpu;
pub mod link;
pub mod node;
pub mod presets;

pub use alloc::{Allocation, MeshShape};
pub use cluster::{Cluster, ClusterError, GpuTypeId, HealthDelta, NodeHealth, PoolStats};
pub use gpu::{GpuArch, GpuSpec};
pub use link::LinkKind;
pub use node::NodeSpec;
