//! The cluster: pools of identical nodes, with a packing allocator.

use serde::{Deserialize, Serialize};

use crate::alloc::Allocation;
use crate::node::NodeSpec;

/// Index of a GPU type (pool) inside a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GpuTypeId(pub usize);

/// Errors returned by cluster allocation operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The requested pool index does not exist.
    UnknownPool(GpuTypeId),
    /// The requested node index does not exist in its pool.
    UnknownNode {
        /// Pool the node was looked up in.
        pool: GpuTypeId,
        /// Out-of-range node index.
        node: usize,
    },
    /// Not enough free GPUs of the requested type.
    Insufficient {
        /// Requested GPU count.
        requested: usize,
        /// Currently free GPU count in the pool.
        free: usize,
    },
    /// An allocation being released does not match the cluster's books.
    BadRelease,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::UnknownPool(id) => write!(f, "unknown GPU pool {}", id.0),
            ClusterError::UnknownNode { pool, node } => {
                write!(f, "unknown node {node} in pool {}", pool.0)
            }
            ClusterError::Insufficient { requested, free } => {
                write!(f, "requested {requested} GPUs but only {free} free")
            }
            ClusterError::BadRelease => write!(f, "released allocation does not match books"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Health of one server, as seen by the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeHealth {
    /// In service: its idle GPUs are allocatable.
    Healthy,
    /// Crashed: nothing allocatable; running jobs must be evicted.
    Failed,
}

/// One homogeneous pool: `num_nodes` identical servers of one [`NodeSpec`].
#[derive(Debug, Clone, Serialize)]
struct Pool {
    spec: NodeSpec,
    /// Allocatable GPUs on each node (0 on non-[`NodeHealth::Healthy`]
    /// nodes; length = number of nodes).
    free: Vec<usize>,
    /// GPUs currently granted to allocations on each node, regardless of
    /// the node's health.
    used: Vec<usize>,
    /// Health of each node.
    health: Vec<NodeHealth>,
    /// Capacity index: running totals of the three per-node columns,
    /// maintained incrementally by [`Pool::update_node`] so aggregate
    /// queries ([`Cluster::free_gpus`], [`Cluster::pool_stats`], …) never
    /// scan the node vectors. Invariant: `free_total + used_total +
    /// failed_total == num_nodes * gpus_per_node`.
    free_total: usize,
    /// See [`Pool::free_total`].
    used_total: usize,
    /// See [`Pool::free_total`]; the sum of [`Pool::failed_contrib`].
    failed_total: usize,
}

impl Pool {
    /// Restores `free[node]` to match health and usage after a change.
    fn sync_free(&mut self, node: usize) {
        self.free[node] = match self.health[node] {
            NodeHealth::Healthy => self.spec.gpus_per_node - self.used[node],
            NodeHealth::Failed => 0,
        };
    }

    /// Unavailable capacity on one node: GPUs a failed node can no
    /// longer offer (GPUs still granted to un-released allocations on
    /// it count as used, not failed).
    fn failed_contrib(&self, node: usize) -> usize {
        match self.health[node] {
            NodeHealth::Healthy => 0,
            NodeHealth::Failed => self.spec.gpus_per_node - self.used[node],
        }
    }

    /// The single mutation point for a node's books: applies a new
    /// used-count and health, re-derives `free[node]`, and keeps the
    /// aggregate totals in sync by delta.
    fn update_node(&mut self, node: usize, used: usize, health: NodeHealth) {
        self.free_total -= self.free[node];
        self.used_total -= self.used[node];
        self.failed_total -= self.failed_contrib(node);
        self.used[node] = used;
        self.health[node] = health;
        self.sync_free(node);
        self.free_total += self.free[node];
        self.used_total += self.used[node];
        self.failed_total += self.failed_contrib(node);
        debug_assert_eq!(
            self.free_total + self.used_total + self.failed_total,
            self.free.len() * self.spec.gpus_per_node,
            "capacity index out of sync with node books"
        );
    }
}

/// Aggregate statistics for one pool, used by scheduler policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolStats {
    /// Pool identifier.
    pub id: GpuTypeId,
    /// Node spec of the pool.
    pub spec: NodeSpec,
    /// Total GPUs in the pool, including unavailable ones.
    pub total_gpus: usize,
    /// Currently free (allocatable) GPUs in the pool.
    pub free_gpus: usize,
    /// GPUs unavailable due to failed nodes (capacity those nodes cannot
    /// offer; GPUs still held by un-released allocations on them count
    /// as allocated, not failed).
    pub failed_gpus: usize,
}

/// A heterogeneous cluster: several pools of identical nodes.
///
/// The allocator packs allocations onto as few nodes as possible (whole
/// nodes first, then the fullest partially-used node), because locality
/// determines which interconnect a job's collectives traverse.
#[derive(Debug, Clone, Serialize)]
pub struct Cluster {
    pools: Vec<Pool>,
}

impl Cluster {
    /// Builds a cluster from `(node spec, number of nodes)` pool descriptions.
    #[must_use]
    pub fn new(pools: &[(NodeSpec, usize)]) -> Self {
        Cluster {
            pools: pools
                .iter()
                .map(|&(spec, n)| Pool {
                    spec,
                    free: vec![spec.gpus_per_node; n],
                    used: vec![0; n],
                    health: vec![NodeHealth::Healthy; n],
                    free_total: spec.gpus_per_node * n,
                    used_total: 0,
                    failed_total: 0,
                })
                .collect(),
        }
    }

    /// Number of pools (distinct GPU types).
    #[must_use]
    pub fn num_pools(&self) -> usize {
        self.pools.len()
    }

    /// All pool ids.
    pub fn pool_ids(&self) -> impl Iterator<Item = GpuTypeId> + '_ {
        (0..self.pools.len()).map(GpuTypeId)
    }

    /// The node spec of a pool.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; pool ids are created by this cluster.
    #[must_use]
    pub fn spec(&self, id: GpuTypeId) -> NodeSpec {
        self.pools[id.0].spec
    }

    /// Looks up a pool by GPU model name, e.g. `"A100"`.
    #[must_use]
    pub fn pool_by_gpu_name(&self, name: &str) -> Option<GpuTypeId> {
        self.pools
            .iter()
            .position(|p| p.spec.gpu.name == name)
            .map(GpuTypeId)
    }

    /// Total GPUs across all pools.
    #[must_use]
    pub fn total_gpus(&self) -> usize {
        self.pools
            .iter()
            .map(|p| p.free.len() * p.spec.gpus_per_node)
            .sum()
    }

    /// Free GPUs in one pool (O(1): served from the capacity index).
    #[must_use]
    pub fn free_gpus(&self, id: GpuTypeId) -> usize {
        self.pools.get(id.0).map_or(0, |p| p.free_total)
    }

    /// Number of nodes in one pool (0 for an unknown pool).
    #[must_use]
    pub fn num_nodes(&self, id: GpuTypeId) -> usize {
        self.pools.get(id.0).map_or(0, |p| p.free.len())
    }

    /// GPUs currently granted to allocations in one pool (O(1): served
    /// from the capacity index).
    #[must_use]
    pub fn used_gpus(&self, id: GpuTypeId) -> usize {
        self.pools.get(id.0).map_or(0, |p| p.used_total)
    }

    /// Unavailable capacity in one pool: GPUs on failed nodes that are
    /// neither free nor held by an allocation (O(1): served from the
    /// capacity index).
    #[must_use]
    pub fn failed_gpus(&self, id: GpuTypeId) -> usize {
        self.pools.get(id.0).map_or(0, |p| p.failed_total)
    }

    /// Health of one node.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownPool`] / [`ClusterError::UnknownNode`]
    /// for out-of-range indices.
    pub fn node_health(&self, id: GpuTypeId, node: usize) -> Result<NodeHealth, ClusterError> {
        let pool = self.pools.get(id.0).ok_or(ClusterError::UnknownPool(id))?;
        pool.health
            .get(node)
            .copied()
            .ok_or(ClusterError::UnknownNode { pool: id, node })
    }

    fn set_health(
        &mut self,
        id: GpuTypeId,
        node: usize,
        health: NodeHealth,
    ) -> Result<(), ClusterError> {
        let pool = self
            .pools
            .get_mut(id.0)
            .ok_or(ClusterError::UnknownPool(id))?;
        if node >= pool.health.len() {
            return Err(ClusterError::UnknownNode { pool: id, node });
        }
        pool.update_node(node, pool.used[node], health);
        Ok(())
    }

    /// Marks a node as crashed: its GPUs leave the free pool immediately.
    ///
    /// The cluster does not track which allocations touch the node; the
    /// caller must find them (see [`Allocation::uses_node`]) and
    /// [`Cluster::release`] them — their GPUs then count as failed
    /// capacity rather than returning to the free pool. Idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownPool`] / [`ClusterError::UnknownNode`]
    /// for out-of-range indices.
    pub fn fail_node(&mut self, id: GpuTypeId, node: usize) -> Result<(), ClusterError> {
        self.set_health(id, node, NodeHealth::Failed)
    }

    /// Returns a node to service: its capacity not held by un-released
    /// allocations becomes free again. Idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownPool`] / [`ClusterError::UnknownNode`]
    /// for out-of-range indices.
    pub fn repair_node(&mut self, id: GpuTypeId, node: usize) -> Result<(), ClusterError> {
        self.set_health(id, node, NodeHealth::Healthy)
    }

    /// Statistics for every pool (O(pools): served from the capacity
    /// index, no node scans).
    #[must_use]
    pub fn pool_stats(&self) -> Vec<PoolStats> {
        self.pools
            .iter()
            .enumerate()
            .map(|(i, p)| PoolStats {
                id: GpuTypeId(i),
                spec: p.spec,
                total_gpus: p.free.len() * p.spec.gpus_per_node,
                free_gpus: p.free_total,
                failed_gpus: p.failed_total,
            })
            .collect()
    }

    /// Allocates `n` GPUs from pool `id`, packing onto as few nodes as
    /// possible.
    ///
    /// Strategy: first try to fit the whole request on the single
    /// partially-free node with the *least* sufficient free space (best
    /// fit); otherwise take whole free nodes greedily and finish with a
    /// best-fit remainder.
    ///
    /// # Examples
    ///
    /// ```
    /// use arena_cluster::{presets, GpuTypeId};
    ///
    /// let mut cluster = presets::physical_testbed();
    /// let a40 = cluster.pool_by_gpu_name("A40").unwrap();
    /// let alloc = cluster.allocate(a40, 8).unwrap();
    /// assert_eq!(alloc.total_gpus(), 8);
    /// assert_eq!(alloc.num_nodes(), 4); // 2-GPU A40 servers
    /// cluster.release(&alloc).unwrap();
    /// assert_eq!(cluster.free_gpus(a40), 32);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownPool`] for a bad pool id and
    /// [`ClusterError::Insufficient`] when fewer than `n` GPUs are free.
    pub fn allocate(&mut self, id: GpuTypeId, n: usize) -> Result<Allocation, ClusterError> {
        let pool = self
            .pools
            .get_mut(id.0)
            .ok_or(ClusterError::UnknownPool(id))?;
        let free_total = pool.free_total;
        if n == 0 || free_total < n {
            return Err(ClusterError::Insufficient {
                requested: n,
                free: free_total,
            });
        }

        let mut node_gpus: Vec<(usize, usize)> = Vec::new();
        let mut remaining = n;

        // Best fit on a single node if possible.
        if let Some((node, _)) = pool
            .free
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f >= remaining)
            .min_by_key(|&(_, &f)| f)
        {
            pool.update_node(node, pool.used[node] + remaining, pool.health[node]);
            node_gpus.push((node, remaining));
            return Ok(Allocation {
                pool: id,
                node_gpus,
            });
        }

        // Otherwise take the fullest nodes first to minimise node count.
        let mut order: Vec<usize> = (0..pool.free.len()).filter(|&i| pool.free[i] > 0).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(pool.free[i]));
        for node in order {
            if remaining == 0 {
                break;
            }
            let take = pool.free[node].min(remaining);
            pool.update_node(node, pool.used[node] + take, pool.health[node]);
            node_gpus.push((node, take));
            remaining -= take;
        }
        debug_assert_eq!(remaining, 0);
        Ok(Allocation {
            pool: id,
            node_gpus,
        })
    }

    /// Releases a previously granted allocation.
    ///
    /// GPUs return to the free pool only on healthy nodes; on failed
    /// nodes they become unavailable capacity until the node is repaired.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::BadRelease`] if the allocation refers to an
    /// unknown pool/node or releases more GPUs than a node has granted
    /// (double free).
    pub fn release(&mut self, alloc: &Allocation) -> Result<(), ClusterError> {
        let pool = self
            .pools
            .get_mut(alloc.pool.0)
            .ok_or(ClusterError::BadRelease)?;
        // Validate before mutating so a failed release leaves books intact.
        for &(node, gpus) in &alloc.node_gpus {
            let used = *pool.used.get(node).ok_or(ClusterError::BadRelease)?;
            if gpus > used {
                return Err(ClusterError::BadRelease);
            }
        }
        for &(node, gpus) in &alloc.node_gpus {
            pool.update_node(node, pool.used[node] - gpus, pool.health[node]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuSpec;

    fn small_cluster() -> Cluster {
        // 4 nodes x 4 A100, 8 nodes x 2 A10.
        Cluster::new(&[
            (NodeSpec::with_default_links(GpuSpec::A100, 4), 4),
            (NodeSpec::with_default_links(GpuSpec::A10, 2), 8),
        ])
    }

    #[test]
    fn totals() {
        let c = small_cluster();
        assert_eq!(c.total_gpus(), 16 + 16);
        assert_eq!(c.free_gpus(GpuTypeId(0)), 16);
        assert_eq!(c.free_gpus(GpuTypeId(1)), 16);
        assert_eq!(c.num_pools(), 2);
    }

    #[test]
    fn single_node_best_fit() {
        let mut c = small_cluster();
        // Leave node 0 with 1 free GPU, then request 1: best fit should use
        // the 1-free node, not break a fresh node.
        let a = c.allocate(GpuTypeId(0), 3).unwrap();
        assert_eq!(a.num_nodes(), 1);
        let b = c.allocate(GpuTypeId(0), 1).unwrap();
        assert_eq!(b.node_gpus, vec![(a.node_gpus[0].0, 1)]);
    }

    #[test]
    fn multi_node_allocation_packs() {
        let mut c = small_cluster();
        let a = c.allocate(GpuTypeId(0), 10).unwrap();
        assert_eq!(a.total_gpus(), 10);
        // 10 GPUs over 4-GPU nodes must span exactly 3 nodes.
        assert_eq!(a.num_nodes(), 3);
        assert_eq!(a.mesh().max_gpus_per_node, 4);
    }

    #[test]
    fn allocate_all_then_fail() {
        let mut c = small_cluster();
        let a = c.allocate(GpuTypeId(1), 16).unwrap();
        assert_eq!(a.total_gpus(), 16);
        assert_eq!(
            c.allocate(GpuTypeId(1), 1),
            Err(ClusterError::Insufficient {
                requested: 1,
                free: 0
            })
        );
    }

    #[test]
    fn release_restores_capacity() {
        let mut c = small_cluster();
        let a = c.allocate(GpuTypeId(0), 13).unwrap();
        assert_eq!(c.free_gpus(GpuTypeId(0)), 3);
        c.release(&a).unwrap();
        assert_eq!(c.free_gpus(GpuTypeId(0)), 16);
    }

    #[test]
    fn double_release_rejected() {
        let mut c = small_cluster();
        let a = c.allocate(GpuTypeId(0), 16).unwrap();
        c.release(&a).unwrap();
        assert_eq!(c.release(&a), Err(ClusterError::BadRelease));
        // Books untouched by failed release.
        assert_eq!(c.free_gpus(GpuTypeId(0)), 16);
    }

    #[test]
    fn zero_request_rejected() {
        let mut c = small_cluster();
        assert!(matches!(
            c.allocate(GpuTypeId(0), 0),
            Err(ClusterError::Insufficient { .. })
        ));
    }

    #[test]
    fn unknown_pool_rejected() {
        let mut c = small_cluster();
        assert_eq!(
            c.allocate(GpuTypeId(9), 1),
            Err(ClusterError::UnknownPool(GpuTypeId(9)))
        );
    }

    #[test]
    fn fail_node_removes_free_capacity() {
        let mut c = small_cluster();
        c.fail_node(GpuTypeId(0), 1).unwrap();
        assert_eq!(c.free_gpus(GpuTypeId(0)), 12);
        assert_eq!(c.failed_gpus(GpuTypeId(0)), 4);
        assert_eq!(c.node_health(GpuTypeId(0), 1), Ok(NodeHealth::Failed));
        // Allocations avoid the failed node.
        let a = c.allocate(GpuTypeId(0), 12).unwrap();
        assert!(!a.uses_node(GpuTypeId(0), 1));
        assert_eq!(
            c.allocate(GpuTypeId(0), 1),
            Err(ClusterError::Insufficient {
                requested: 1,
                free: 0
            })
        );
    }

    #[test]
    fn release_on_failed_node_goes_to_failed_capacity() {
        let mut c = small_cluster();
        let a = c.allocate(GpuTypeId(0), 4).unwrap();
        let node = a.node_gpus[0].0;
        c.fail_node(GpuTypeId(0), node).unwrap();
        // While the evicted job still holds the allocation, its GPUs count
        // as allocated, not failed.
        assert_eq!(c.failed_gpus(GpuTypeId(0)), 0);
        c.release(&a).unwrap();
        assert_eq!(c.free_gpus(GpuTypeId(0)), 12);
        assert_eq!(c.failed_gpus(GpuTypeId(0)), 4);
        // Repair restores the full pool.
        c.repair_node(GpuTypeId(0), node).unwrap();
        assert_eq!(c.free_gpus(GpuTypeId(0)), 16);
        assert_eq!(c.failed_gpus(GpuTypeId(0)), 0);
    }

    #[test]
    fn repair_respects_surviving_allocations() {
        let mut c = small_cluster();
        let a = c.allocate(GpuTypeId(0), 3).unwrap();
        let node = a.node_gpus[0].0;
        c.fail_node(GpuTypeId(0), node).unwrap();
        // Repair before the allocation is released: only the node's idle
        // GPU returns to the free pool.
        c.repair_node(GpuTypeId(0), node).unwrap();
        assert_eq!(c.free_gpus(GpuTypeId(0)), 13);
        c.release(&a).unwrap();
        assert_eq!(c.free_gpus(GpuTypeId(0)), 16);
    }

    #[test]
    fn health_conservation_invariant() {
        let mut c = small_cluster();
        let a = c.allocate(GpuTypeId(0), 7).unwrap();
        c.fail_node(GpuTypeId(0), 0).unwrap();
        c.fail_node(GpuTypeId(0), 3).unwrap();
        let id = GpuTypeId(0);
        assert_eq!(
            c.free_gpus(id) + c.used_gpus(id) + c.failed_gpus(id),
            16,
            "free + allocated + failed must equal capacity"
        );
        c.release(&a).unwrap();
        c.repair_node(GpuTypeId(0), 0).unwrap();
        assert_eq!(c.free_gpus(id) + c.used_gpus(id) + c.failed_gpus(id), 16);
    }

    #[test]
    fn bad_node_indices_rejected() {
        let mut c = small_cluster();
        assert_eq!(
            c.fail_node(GpuTypeId(0), 99),
            Err(ClusterError::UnknownNode {
                pool: GpuTypeId(0),
                node: 99
            })
        );
        assert_eq!(
            c.fail_node(GpuTypeId(9), 0),
            Err(ClusterError::UnknownPool(GpuTypeId(9)))
        );
    }

    #[test]
    fn pool_stats_report_failed_capacity() {
        let mut c = small_cluster();
        c.fail_node(GpuTypeId(1), 0).unwrap();
        let stats = c.pool_stats();
        assert_eq!(stats[1].total_gpus, 16);
        assert_eq!(stats[1].free_gpus, 14);
        assert_eq!(stats[1].failed_gpus, 2);
        assert_eq!(stats[0].failed_gpus, 0);
    }

    /// The incremental capacity index must agree with a from-scratch scan
    /// of the node books after any interleaving of allocate / release /
    /// fail / repair.
    #[test]
    fn capacity_index_matches_node_scans() {
        let mut c = small_cluster();
        let scan_check = |c: &Cluster| {
            for (i, p) in c.pools.iter().enumerate() {
                let id = GpuTypeId(i);
                let free: usize = p.free.iter().sum();
                let used: usize = p.used.iter().sum();
                let failed: usize = (0..p.free.len()).map(|n| p.failed_contrib(n)).sum();
                assert_eq!(c.free_gpus(id), free, "pool {i} free");
                assert_eq!(c.used_gpus(id), used, "pool {i} used");
                assert_eq!(c.failed_gpus(id), failed, "pool {i} failed");
                assert_eq!(
                    free + used + failed,
                    p.free.len() * p.spec.gpus_per_node,
                    "pool {i} conservation"
                );
            }
        };
        let mut held: Vec<Allocation> = Vec::new();
        // A deterministic pseudo-random walk over every operation kind,
        // including idempotent re-fails and repairs of busy nodes.
        let mut x: u64 = 0x9e37_79b9;
        for step in 0..400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pool = GpuTypeId((x >> 33) as usize % 2);
            let node = (x >> 17) as usize % c.num_nodes(pool);
            match step % 7 {
                0 | 1 => {
                    let want = 1 + (x as usize % 6);
                    if let Ok(a) = c.allocate(pool, want) {
                        held.push(a);
                    }
                }
                2 => {
                    if !held.is_empty() {
                        let a = held.swap_remove(x as usize % held.len());
                        c.release(&a).unwrap();
                    }
                }
                3 | 4 => c.fail_node(pool, node).unwrap(),
                _ => c.repair_node(pool, node).unwrap(),
            }
            scan_check(&c);
        }
        for a in held {
            c.release(&a).unwrap();
        }
        scan_check(&c);
    }

    #[test]
    fn pool_lookup_by_name() {
        let c = small_cluster();
        assert_eq!(c.pool_by_gpu_name("A100"), Some(GpuTypeId(0)));
        assert_eq!(c.pool_by_gpu_name("A10"), Some(GpuTypeId(1)));
        assert_eq!(c.pool_by_gpu_name("H100"), None);
    }
}
