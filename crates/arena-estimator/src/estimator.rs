//! The agile Cell estimator: assembly of profiled parts (§5.1, Fig. 9).
//!
//! An estimate is two steps, both exposed: [`CellEstimator::profile`]
//! writes the Cell's stage profiles into struct-of-arrays columns, and
//! [`CellEstimator::assemble`] prices the `2^Ns` grid from them. The
//! assembly is data-oriented (DESIGN.md §16): boundary transfer costs are
//! priced once per accumulation factor instead of inside every chain-DP
//! sweep, memory-infeasible per-stage plans are pruned *before* their
//! collectives are priced, and the whole assembly runs over reusable
//! thread-local scratch arenas — zero heap allocation per assembly after
//! warmup, except the returned [`CellEstimate`] itself.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use arena_model::ModelGraph;
use arena_parallelism::{PipelinePlan, StageAssignment, StagePlan};
use arena_perf::noise::NoiseModel;
use arena_perf::{CostParams, HwTarget};
use arena_runtime::{MemSection, MemSize};
use parking_lot::RwLock;

use crate::cell::{Cell, Favor};
use crate::profile::{profile_cell, SoaProfiles};
use crate::tables::{CollectiveKind, CommTables};

/// The estimator's verdict on one Cell.
#[derive(Debug, Clone)]
pub struct CellEstimate {
    /// The best assembled plan (pure DP/TP per stage).
    pub plan: PipelinePlan,
    /// Estimated seconds per iteration for that plan.
    pub iter_time_s: f64,
    /// Estimated throughput in samples per second.
    pub throughput_sps: f64,
    /// Each stage's parallelism favor, used to prune tuning (§5.2).
    pub favors: Vec<Favor>,
    /// Largest estimated per-GPU memory footprint, bytes.
    pub max_mem_bytes: f64,
}

/// Reusable scratch arenas for the batched `2^Ns` assembly.
///
/// Per-(stage, mode) vectors are indexed `2 * stage + mode` (mode 0 =
/// DP-only, 1 = TP-only); the boundary table is indexed
/// `4 * stage + 2 * prev_mode + mode` for stages `>= 1`. Buffers are
/// cleared — never shrunk — between assemblies, so once each thread has
/// assembled a Cell at the workload's largest stage count the assembly
/// performs no heap allocation besides the returned [`CellEstimate`].
#[derive(Debug, Default)]
struct AssemblyScratch {
    /// Steady busy time per micro-batch (compute + TP collectives +
    /// expert dispatch). Slots of pruned modes are never read.
    busy: Vec<f64>,
    /// Data-parallel gradient synchronisation time.
    sync: Vec<f64>,
    /// Whether the (stage, mode) plan survives the pre-assembly memory
    /// and batch pruning.
    feasible: Vec<bool>,
    /// Precomputed boundary transfer costs at the current accumulation
    /// factor.
    boundary: Vec<f64>,
    /// Steady-state threshold candidates (realised busy and boundary
    /// values).
    busy_cands: Vec<f64>,
    /// Sync threshold candidates.
    sync_cands: Vec<f64>,
    /// Chain-DP cost table.
    cost: Vec<f64>,
    /// Chain-DP parent pointers.
    parent: Vec<usize>,
    /// Chain-DP mode reconstruction buffer.
    modes: Vec<usize>,
    /// Best mode assignment across threshold pairs within one
    /// accumulation factor.
    best_modes: Vec<usize>,
    /// Best mode assignment across accumulation factors.
    final_modes: Vec<usize>,
}

thread_local! {
    /// One profile buffer per thread for [`CellEstimator::estimate`].
    static PROFILES: RefCell<SoaProfiles> = RefCell::new(SoaProfiles::default());
    /// One scratch arena per thread, so the assembly needs neither a
    /// lock nor a fresh buffer even when two threads share an estimator.
    static SCRATCH: RefCell<AssemblyScratch> = RefCell::new(AssemblyScratch::default());
}

/// Identity of a communication-table build: the GPU model's name and
/// the packed GPUs per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TableKey {
    hw: &'static str,
    gpn: usize,
}

impl MemSize for TableKey {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// Live hit/miss counters for the estimator's table cache, plus the
/// counts of estimates and profiles and the total wall-clock spent
/// estimating. All counters are monotonic and thread-safe; reading them
/// never perturbs estimation results.
#[derive(Debug, Default)]
pub struct CacheStats {
    estimates: AtomicU64,
    profiles: AtomicU64,
    table_hits: AtomicU64,
    table_misses: AtomicU64,
    estimate_ns: AtomicU64,
}

/// A point-in-time copy of [`CacheStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Always 0: the estimator keeps no cache of whole estimates (the
    /// plan database memoises each Cell choice instead). The field stays
    /// only because the end-to-end benchmark (`e2ebench/`) reads it.
    pub estimate_hits: u64,
    /// `estimate()` calls; each one computes a fresh estimate.
    pub estimate_misses: u64,
    /// Always 0: the estimator keeps no cache of stage profiles (the
    /// plan database memoises each Cell choice instead). The field stays
    /// only because the end-to-end benchmark (`e2ebench/`) reads it.
    pub profile_hits: u64,
    /// Cell profiles taken: one per [`CellEstimator::profile`] call, so
    /// one per estimate.
    pub profile_misses: u64,
    /// Communication-table lookups answered from the table cache.
    pub table_hits: u64,
    /// Communication-table lookups that built new tables.
    pub table_misses: u64,
    /// Total wall-clock spent in `estimate()`, nanoseconds.
    pub estimate_ns: u64,
}

impl CacheStats {
    /// Copies the current counter values.
    #[must_use]
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            estimate_hits: 0,
            estimate_misses: self.estimates.load(Ordering::Relaxed),
            profile_hits: 0,
            profile_misses: self.profiles.load(Ordering::Relaxed),
            table_hits: self.table_hits.load(Ordering::Relaxed),
            table_misses: self.table_misses.load(Ordering::Relaxed),
            estimate_ns: self.estimate_ns.load(Ordering::Relaxed),
        }
    }
}

/// The agile Cell estimator.
///
/// Owns the offline communication tables (built lazily per node class).
/// Neither stage profiles nor whole estimates are cached: the plan service
/// memoises the Cell choice built from them, which is how a job is
/// profiled once per GPU type (§6.1).
///
/// The table cache is one `HashMap` behind one `RwLock`, keyed by GPU
/// model name and packed GPUs per node: it holds one entry per node
/// class. A lookup takes the read lock, a miss builds outside any lock
/// and then inserts under the write lock, as the plan service's memo
/// maps do. Every estimator belongs to one plan service,
/// and each service is driven by a single thread (the daemon thread, one
/// run, or one experiment task), so the lock is uncontended. Tables and
/// profiles are deterministic functions of their inputs (noise is keyed,
/// not drawn), so a repeated estimate returns the same bits.
pub struct CellEstimator {
    params: CostParams,
    noise: NoiseModel,
    table_noise: NoiseModel,
    stats: CacheStats,
    tables: RwLock<HashMap<TableKey, Arc<CommTables>>>,
}

impl std::fmt::Debug for CellEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellEstimator")
            .field("node_classes", &self.tables.read().len())
            .finish()
    }
}

impl CellEstimator {
    /// Creates an estimator with measurement noise derived from `seed`.
    #[must_use]
    pub fn new(params: CostParams, seed: u64) -> Self {
        let noise = NoiseModel::new(params.noise_sigma, seed ^ 0x5eed_0001);
        let table_noise = NoiseModel::new(params.table_sigma, seed ^ 0x5eed_0002);
        CellEstimator {
            params,
            noise,
            table_noise,
            stats: CacheStats::default(),
            tables: RwLock::default(),
        }
    }

    /// The cost constants in use.
    #[must_use]
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Live cache hit/miss counters and estimate timing.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The estimator's memory ledger: accounted bytes and entries of its
    /// one cache, the communication tables, read from the live map.
    #[must_use]
    pub fn mem_report(&self) -> Vec<MemSection> {
        vec![MemSection::of_map("estimator.tables", &self.tables.read())]
    }

    fn tables_for(&self, hw: &HwTarget, max_group: usize) -> Arc<CommTables> {
        let key = TableKey {
            hw: hw.name(),
            gpn: hw.packed_gpn,
        };
        if let Some(t) = self.tables.read().get(&key) {
            if t.max_group() >= max_group {
                self.stats.table_hits.fetch_add(1, Ordering::Relaxed);
                return t.clone();
            }
        }
        self.stats.table_misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(CommTables::build(hw, max_group.max(64), &self.table_noise));
        self.tables.write().insert(key, built.clone());
        built
    }

    /// Estimates a Cell in two steps: [`Self::profile`] into this
    /// thread's profile buffer, then [`Self::assemble`]. Every call
    /// profiles afresh (two single-GPU trials), counts one estimate and
    /// adds its wall-clock to [`CacheStatsSnapshot::estimate_ns`].
    ///
    /// Returns `None` when no assembled plan fits in memory and batch —
    /// the Cell is not schedulable.
    ///
    /// # Examples
    ///
    /// ```
    /// use arena_cluster::{GpuSpec, NodeSpec};
    /// use arena_estimator::{Cell, CellEstimator};
    /// use arena_model::zoo::{ModelConfig, ModelFamily};
    /// use arena_perf::{CostParams, HwTarget};
    ///
    /// let graph = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
    /// let cell = Cell::new(&graph, 8, 4).unwrap();
    /// let hw = HwTarget::new(NodeSpec::with_default_links(GpuSpec::A100, 4));
    /// let estimator = CellEstimator::new(CostParams::default(), 42);
    /// let estimate = estimator.estimate(&graph, 256, &cell, &hw).unwrap();
    /// assert!(estimate.throughput_sps > 0.0);
    /// assert_eq!(estimate.favors.len(), 4);
    /// ```
    #[must_use]
    pub fn estimate(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        cell: &Cell,
        hw: &HwTarget,
    ) -> Option<CellEstimate> {
        self.stats.estimates.fetch_add(1, Ordering::Relaxed);
        let started = std::time::Instant::now();
        let est = PROFILES.with(|profiles| {
            let profiles = &mut profiles.borrow_mut();
            self.profile(graph, global_batch, cell, hw, profiles);
            self.assemble(profiles, graph, global_batch, cell, hw)
        });
        self.stats.estimate_ns.fetch_add(
            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        est
    }

    /// The first step of [`Self::estimate`]: profiles every stage of
    /// `cell` under DP-only and TP-only on one device into `out`
    /// (replacing what it held) and counts one
    /// [`CacheStatsSnapshot::profile_misses`].
    /// [`SoaProfiles::trial_walls_s`] prices the profile's two single-GPU
    /// trials.
    pub fn profile(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        cell: &Cell,
        hw: &HwTarget,
        out: &mut SoaProfiles,
    ) {
        self.stats.profiles.fetch_add(1, Ordering::Relaxed);
        profile_cell(
            &self.params,
            &self.noise,
            graph,
            global_batch,
            cell,
            hw,
            out,
        );
    }

    /// The second step of [`Self::estimate`]: fetches the node class's
    /// communication tables (cached), assembles the `2^Ns` grid from
    /// `profiles`, which [`Self::profile`] filled for the same request,
    /// and returns the best feasible assembled plan (`None` when none
    /// fits in memory and batch).
    #[must_use]
    pub fn assemble(
        &self,
        profiles: &SoaProfiles,
        graph: &ModelGraph,
        global_batch: usize,
        cell: &Cell,
        hw: &HwTarget,
    ) -> Option<CellEstimate> {
        let tables = self.tables_for(hw, cell.num_gpus);
        SCRATCH.with(|scratch| {
            assemble_cell(
                &self.params,
                &tables,
                profiles,
                graph,
                global_batch,
                cell,
                hw,
                &mut scratch.borrow_mut(),
            )
        })
    }
}

/// Index of the best estimate in a Cell ladder: highest estimated throughput,
/// exact ties keeping the earliest (generation-order) Cell. `None` slots
/// never select, and a NaN throughput — an upstream estimation bug, not
/// a valid score — ranks below every real value instead of poisoning
/// the comparison, mirroring the scheduler's `score_key` ordering.
#[must_use]
pub fn best_estimate(estimates: &[Option<CellEstimate>]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, e) in estimates.iter().enumerate() {
        let Some(e) = e else { continue };
        if e.throughput_sps.is_nan() {
            continue;
        }
        if best.is_none_or(|(_, cur)| e.throughput_sps > cur) {
            best = Some((i, e.throughput_sps));
        }
    }
    best.map(|(i, _)| i)
}

/// Assembles the best plan over the `2^Ns` grid for one Cell from its
/// profile columns, minimised over the gradient-accumulation factors,
/// entirely on `scr`'s buffers.
///
/// The estimator mirrors the runtime's gradient-accumulation
/// escalation: each accumulation factor's terms derive from the single
/// profile taken at the GPipe default (compute and payloads scale with
/// the micro-batch; fixed memory does not). Memory- or batch-infeasible
/// per-stage plans are pruned before any of their collectives are
/// priced; boundary transfers are priced once per factor (at most two
/// distinct values per boundary) instead of inside every chain-DP
/// sweep.
#[allow(clippy::too_many_arguments)] // One call site; mirrors the estimation request tuple.
fn assemble_cell(
    p: &CostParams,
    tables: &CommTables,
    soa: &SoaProfiles,
    graph: &ModelGraph,
    global_batch: usize,
    cell: &Cell,
    hw: &HwTarget,
    scr: &mut AssemblyScratch,
) -> Option<CellEstimate> {
    let n = cell.num_stages;
    let base_b = 4 * n;
    let budget = hw.node.gpu.mem_bytes() as f64 * p.usable_mem_frac;
    let one_minus_ov = 1.0 - p.dp_overlap;
    debug_assert_eq!(soa.slots(), 2 * n);

    let mut best_found = false;
    let mut best_iter = f64::INFINITY;
    scr.final_modes.clear();

    for accum in [1_usize, 2, 4, 8, 16] {
        let f = accum as f64;
        let b = base_b * accum;

        // Terms for this factor, with pre-assembly pruning: an
        // infeasible (stage, mode) slot skips its table lookups entirely
        // and can never enter a threshold candidate set or a DP state.
        scr.busy.clear();
        scr.sync.clear();
        scr.feasible.clear();
        for s in 0..n {
            let g = cell.partition.gpus[s];
            for m in 0..2 {
                let i = 2 * s + m;
                let mem = soa.fixed_mem_bytes[i] + soa.scalable_mem_bytes[i] / f;
                let feasible = soa.batch_ok[i] && soa.mb_samples[i] / f >= 1.0 && mem <= budget;
                scr.feasible.push(feasible);
                if !feasible {
                    scr.busy.push(f64::INFINITY);
                    scr.sync.push(f64::INFINITY);
                    continue;
                }
                let tp_comm = if m == 1 {
                    tables.lookup(CollectiveKind::AllReduce, g, soa.tp_payload[i] / f)
                } else {
                    0.0
                };
                let dispatch =
                    tables.lookup(CollectiveKind::AllToAll, g, soa.dispatch_payload[i] / f);
                let sync = if m == 0 {
                    tables.lookup(CollectiveKind::AllReduce, g, soa.grad_bytes[i])
                } else {
                    0.0
                };
                let compute = soa.fixed_compute_s[i]
                    + (soa.compute_s[i] - soa.fixed_compute_s[i]).max(0.0) / f;
                scr.busy.push(compute + tp_comm + dispatch);
                scr.sync.push(sync);
            }
        }

        // Boundary cost between stage s-1 in mode mp and stage s in mode
        // m at this factor. Only the layout decides the cost, so each
        // boundary needs at most two P2P lookups here — not four per
        // chain-DP sweep.
        scr.boundary.clear();
        scr.boundary.resize(4 * n, 0.0);
        for s in 1..n {
            let range = &cell.partition.ranges[s];
            let bytes = graph.ops[range.start - 1].out_bytes * global_batch as f64 / b as f64;
            let same_gpus = cell.partition.gpus[s - 1] == cell.partition.gpus[s];
            let resharded =
                tables.lookup(CollectiveKind::P2p, cell.num_gpus, bytes * p.reshard_factor);
            let plain = if same_gpus {
                tables.lookup(CollectiveKind::P2p, cell.num_gpus, bytes)
            } else {
                resharded
            };
            for mp in 0..2 {
                for m in 0..2 {
                    let same_layout = mp == 0 && m == 0 && same_gpus;
                    scr.boundary[4 * s + 2 * mp + m] = if same_layout { plain } else { resharded };
                }
            }
        }

        if let Some(iter) = assemble_best(scr, n, b, one_minus_ov) {
            if !best_found || iter < best_iter {
                best_found = true;
                best_iter = iter;
                scr.final_modes.clear();
                scr.final_modes.extend_from_slice(&scr.best_modes);
            }
        }
    }
    if !best_found {
        return None;
    }
    let modes = &scr.final_modes;
    let iter_time_s = best_iter;

    let favors: Vec<Favor> = modes
        .iter()
        .map(|&m| if m == 0 { Favor::Dp } else { Favor::Tp })
        .collect();
    let plan = PipelinePlan {
        stages: cell
            .partition
            .ranges
            .iter()
            .zip(&cell.partition.gpus)
            .zip(modes)
            .map(|((r, &g), &m)| StageAssignment {
                op_range: r.clone(),
                plan: if m == 0 {
                    StagePlan::dp_only(g)
                } else {
                    StagePlan::tp_only(g)
                },
            })
            .collect(),
    };
    let max_mem_bytes = modes
        .iter()
        .enumerate()
        .map(|(s, &m)| soa.mem_bytes[2 * s + m])
        .fold(0.0, f64::max);

    Some(CellEstimate {
        plan,
        iter_time_s,
        throughput_sps: global_batch as f64 / iter_time_s,
        favors,
        max_mem_bytes,
    })
}

/// Finds the best assembled plan over the `2^Ns` grid *exactly*, without
/// enumeration, via threshold-bounded chain DP over `scr`'s buffers.
///
/// The objective
/// `Σ busy + Σ boundary + (B−1)·max(busy, boundary) + (1−ov)·max sync`
/// couples stages only through the two max terms and adjacent-stage
/// boundary costs. For each candidate pair of thresholds `(M1, M2)` drawn
/// from the realised busy/boundary/sync values, a left-to-right DP picks
/// per-stage modes minimising the separable part subject to
/// `busy ≤ M1`, `boundary ≤ M1` and `sync ≤ M2`; the true objective of
/// each reconstructed assignment is then scored, and the overall minimum
/// is exact because the optimal assignment's own maxima appear among the
/// candidates.
///
/// Returns the winning objective and leaves its mode assignment in
/// `scr.best_modes`. Reads `scr.{busy,sync,feasible,boundary}` as filled
/// by [`assemble_cell`] for the current accumulation factor.
fn assemble_best(scr: &mut AssemblyScratch, n: usize, b: usize, one_minus_ov: f64) -> Option<f64> {
    if n == 0 {
        return None;
    }
    scr.busy_cands.clear();
    scr.sync_cands.clear();
    for i in 0..2 * n {
        if scr.feasible[i] {
            scr.busy_cands.push(scr.busy[i]);
            scr.sync_cands.push(scr.sync[i]);
        }
    }
    // Boundary transfers can bound the steady state too.
    for s in 1..n {
        for mp in 0..2 {
            for m in 0..2 {
                scr.busy_cands.push(scr.boundary[4 * s + 2 * mp + m]);
            }
        }
    }
    if scr.busy_cands.is_empty() {
        return None;
    }
    // Unstable sort: total_cmp is a total order, so the sorted sequence
    // (and the dedup below) is identical to a stable sort's — without
    // the stable sort's temporary buffer.
    scr.busy_cands.sort_unstable_by(f64::total_cmp);
    scr.busy_cands.dedup();
    scr.sync_cands.sort_unstable_by(f64::total_cmp);
    scr.sync_cands.dedup();

    let mut best: Option<f64> = None;
    for c1 in 0..scr.busy_cands.len() {
        for c2 in 0..scr.sync_cands.len() {
            let (m1, m2) = (scr.busy_cands[c1], scr.sync_cands[c2]);
            if !chain_dp(scr, n, m1, m2) {
                continue;
            }
            // True objective of the reconstructed assignment.
            let modes = &scr.modes;
            let sum_busy: f64 = modes
                .iter()
                .enumerate()
                .map(|(s, &m)| scr.busy[2 * s + m])
                .sum();
            let sum_bound: f64 = (1..n)
                .map(|s| scr.boundary[4 * s + 2 * modes[s - 1] + modes[s]])
                .sum();
            let max_steady = modes
                .iter()
                .enumerate()
                .map(|(s, &m)| {
                    let bnd = if s == 0 {
                        0.0
                    } else {
                        scr.boundary[4 * s + 2 * modes[s - 1] + m]
                    };
                    scr.busy[2 * s + m].max(bnd)
                })
                .fold(0.0, f64::max);
            let max_sync = modes
                .iter()
                .enumerate()
                .map(|(s, &m)| scr.sync[2 * s + m])
                .fold(0.0, f64::max);
            let obj =
                sum_busy + sum_bound + (b as f64 - 1.0) * max_steady + one_minus_ov * max_sync;
            if best.is_none_or(|cur| obj < cur) {
                best = Some(obj);
                scr.best_modes.clear();
                scr.best_modes.extend_from_slice(&scr.modes);
            }
        }
    }
    best
}

/// Left-to-right DP choosing per-stage modes under busy/sync caps.
///
/// Fills `scr.modes` and returns `true` when a feasible assignment
/// exists; `scr.{cost,parent}` are reset here, never reallocated.
fn chain_dp(scr: &mut AssemblyScratch, n: usize, max_busy: f64, max_sync: f64) -> bool {
    const EPS: f64 = 1e-12;
    let ok = |scr: &AssemblyScratch, i: usize| {
        scr.feasible[i] && scr.busy[i] <= max_busy + EPS && scr.sync[i] <= max_sync + EPS
    };

    scr.cost.clear();
    scr.cost.resize(2 * n, f64::INFINITY);
    scr.parent.clear();
    scr.parent.resize(2 * n, usize::MAX);
    for m in 0..2 {
        if ok(scr, m) {
            scr.cost[m] = scr.busy[m];
        }
    }
    for s in 1..n {
        for m in 0..2 {
            if !ok(scr, 2 * s + m) {
                continue;
            }
            for mp in 0..2 {
                let bnd = scr.boundary[4 * s + 2 * mp + m];
                if bnd > max_busy + EPS {
                    continue; // Transfer would exceed the steady threshold.
                }
                if scr.cost[2 * (s - 1) + mp].is_finite() {
                    let c = scr.cost[2 * (s - 1) + mp] + bnd + scr.busy[2 * s + m];
                    if c < scr.cost[2 * s + m] {
                        scr.cost[2 * s + m] = c;
                        scr.parent[2 * s + m] = mp;
                    }
                }
            }
        }
    }
    let last = if scr.cost[2 * (n - 1)] <= scr.cost[2 * (n - 1) + 1] {
        0
    } else {
        1
    };
    if !scr.cost[2 * (n - 1) + last].is_finite() {
        return false;
    }
    scr.modes.clear();
    scr.modes.resize(n, 0);
    scr.modes[n - 1] = last;
    for s in (1..n).rev() {
        scr.modes[s - 1] = scr.parent[2 * s + scr.modes[s]];
        if scr.modes[s - 1] == usize::MAX {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use arena_cluster::{GpuSpec, NodeSpec};
    use arena_model::zoo::{ModelConfig, ModelFamily};
    use arena_parallelism::assembled_plans;
    use arena_perf::GroundTruth;
    use proptest::prelude::*;

    fn a100() -> HwTarget {
        HwTarget::new(NodeSpec::with_default_links(GpuSpec::A100, 4))
    }

    fn a10() -> HwTarget {
        HwTarget::new(NodeSpec::with_default_links(GpuSpec::A10, 2))
    }

    #[test]
    fn estimate_produces_feasible_assembled_plan() {
        let est = CellEstimator::new(CostParams::default(), 3);
        let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
        let cell = Cell::new(&g, 8, 4).unwrap();
        let e = est.estimate(&g, 256, &cell, &a100()).unwrap();
        assert!(e.iter_time_s > 0.0);
        assert_eq!(e.favors.len(), 4);
        assert!(e.plan.is_valid_for(&g));
        assert_eq!(e.plan.total_gpus(), 8);
        // The estimated plan is one of the 2^Ns assembled plans.
        let assembled: Vec<String> = assembled_plans(&cell.partition)
            .iter()
            .map(PipelinePlan::label)
            .collect();
        assert!(assembled.contains(&e.plan.label()));
    }

    #[test]
    fn assembly_dp_matches_brute_force() {
        // The threshold DP must pick the same-best plan a brute-force
        // enumeration of the 2^Ns grid does (scored by ground truth-like
        // composition over the same terms).
        let est = CellEstimator::new(CostParams::default(), 9);
        let g = ModelConfig::new(ModelFamily::Moe, 1.3, 512).build();
        let cell = Cell::new(&g, 8, 4).unwrap();
        let hw = a100();
        let e = est.estimate(&g, 512, &cell, &hw).unwrap();

        // Brute force over the same profiled terms: rebuild terms by
        // estimating each single assembled plan via a fresh estimator is
        // not possible from outside, so instead verify optimality
        // indirectly: the estimate must not be worse than any *measured*
        // assembled plan by more than the noise margin.
        let gt = GroundTruth::noiseless(CostParams::default());
        let best_measured = assembled_plans(&cell.partition)
            .iter()
            .filter_map(|p| gt.measure(&g, 512, p, &hw).ok())
            .map(|perf| perf.iter_time_s)
            .fold(f64::INFINITY, f64::min);
        assert!(
            e.iter_time_s < best_measured * 1.25,
            "estimate {} vs best measured assembled {}",
            e.iter_time_s,
            best_measured
        );
    }

    #[test]
    fn noiseless_estimate_matches_brute_force_exactly() {
        // With measurement and table noise disabled, the estimator's
        // threshold-DP must return exactly the best assembled plan as
        // priced by the exact cost model (minimised over the same
        // gradient-accumulation factors).
        let params = CostParams {
            noise_sigma: 0.0,
            table_sigma: 0.0,
            ..CostParams::default()
        };
        let est = CellEstimator::new(params.clone(), 99);
        let model = arena_perf::PerfModel::new(params);
        for (fam, size, gb, gpus, stages) in [
            (ModelFamily::Bert, 1.3, 256, 8, 4),
            (ModelFamily::Moe, 1.3, 512, 8, 2),
            (ModelFamily::WideResNet, 1.0, 512, 4, 2),
        ] {
            let g = ModelConfig::new(fam, size, gb).build();
            let hw = a100();
            let cell = Cell::new(&g, gpus, stages).unwrap();
            let Some(e) = est.estimate(&g, gb, &cell, &hw) else {
                panic!("{fam:?} cell infeasible");
            };
            let brute = assembled_plans(&cell.partition)
                .iter()
                .filter_map(|p| model.evaluate(&g, gb, p, &hw).ok())
                .map(|perf| perf.iter_time_s)
                .fold(f64::INFINITY, f64::min);
            let rel = (e.iter_time_s - brute).abs() / brute;
            assert!(
                rel < 1e-9,
                "{fam:?}: estimate {} vs brute force {brute} (rel {rel})",
                e.iter_time_s
            );
        }
    }

    #[test]
    fn estimation_error_is_small_but_nonzero() {
        let params = CostParams::default();
        let est = CellEstimator::new(params.clone(), 17);
        let gt = GroundTruth::new(params, 17);
        let g = ModelConfig::new(ModelFamily::Bert, 2.6, 256).build();
        let cell = Cell::new(&g, 8, 2).unwrap();
        let hw = a100();
        let e = est.estimate(&g, 256, &cell, &hw).unwrap();
        let measured = gt.measure(&g, 256, &e.plan, &hw).unwrap();
        let rel = (e.iter_time_s - measured.iter_time_s).abs() / measured.iter_time_s;
        assert!(rel > 0.0, "estimate is implausibly exact");
        assert!(rel < 0.25, "estimate error {rel} too large");
    }

    #[test]
    fn memory_pressure_flips_favor_to_tp() {
        // BERT-2.6B on 24 GiB A10s: DP-only cannot hold the optimizer
        // state, so the estimator must favor TP (or fail), never emit an
        // infeasible DP plan.
        let est = CellEstimator::new(CostParams::default(), 21);
        let g = ModelConfig::new(ModelFamily::Bert, 2.6, 256).build();
        let cell = Cell::new(&g, 4, 1).unwrap();
        if let Some(e) = est.estimate(&g, 256, &cell, &a10()) {
            assert_eq!(e.favors, vec![Favor::Tp]);
        } // `None` is also acceptable: nothing fits.
    }

    #[test]
    fn hopeless_cell_estimates_none() {
        let est = CellEstimator::new(CostParams::default(), 23);
        let g = ModelConfig::new(ModelFamily::Moe, 27.0, 256).build();
        let cell = Cell::new(&g, 2, 1).unwrap();
        assert!(est.estimate(&g, 256, &cell, &a10()).is_none());
    }

    #[test]
    fn every_estimate_profiles_the_cell_afresh() {
        // No profile is cached: the plan service memoises the Cell
        // choice, so each estimate of the same Cell takes its own
        // profile.
        let est = CellEstimator::new(CostParams::default(), 29);
        let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
        let cell = Cell::new(&g, 8, 4).unwrap();
        let hw = a100();
        for round in 1..=3_u64 {
            let _ = est.estimate(&g, 256, &cell, &hw);
            assert_eq!(est.stats().snapshot().profile_misses, round);
        }
    }

    #[test]
    fn per_cell_budget_is_about_a_minute() {
        // §8.2: two parallelism profiles per Cell at ~30 s each on one GPU.
        let est = CellEstimator::new(CostParams::default(), 31);
        let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
        let cell = Cell::new(&g, 8, 4).unwrap();
        let mut soa = SoaProfiles::default();
        est.profile(&g, 256, &cell, &a100(), &mut soa);
        let gpu_s: f64 = soa.trial_walls_s(est.params()).iter().sum();
        assert!(gpu_s > 40.0 && gpu_s < 120.0, "per-cell cost {gpu_s}s");
    }

    #[test]
    fn cache_stats_count_hits_and_misses_exactly() {
        let est = CellEstimator::new(CostParams::default(), 37);
        let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
        let cell = Cell::new(&g, 8, 4).unwrap();
        let hw = a100();

        assert_eq!(est.stats().snapshot(), CacheStatsSnapshot::default());

        let _ = est.estimate(&g, 256, &cell, &hw);
        let s1 = est.stats().snapshot();
        assert_eq!(s1.estimate_misses, 1);
        assert!(s1.estimate_ns > 0, "estimates are timed");
        assert_eq!((s1.profile_hits, s1.profile_misses), (0, 1));
        assert_eq!((s1.table_hits, s1.table_misses), (0, 1));

        // A repeated Cell profiles again and reuses the node class's
        // tables.
        for _ in 0..3 {
            let _ = est.estimate(&g, 256, &cell, &hw);
        }
        let s2 = est.stats().snapshot();
        assert_eq!(s2.estimate_misses, 4);
        assert_eq!((s2.profile_hits, s2.profile_misses), (0, 4));
        assert_eq!((s2.table_hits, s2.table_misses), (3, 1));

        // The two steps count apart: a profile counts no estimate and
        // touches no table; an assembly counts only its table lookup.
        let cell2 = Cell::new(&g, 8, 2).unwrap();
        let mut soa = SoaProfiles::default();
        est.profile(&g, 256, &cell2, &hw, &mut soa);
        let _ = est.assemble(&soa, &g, 256, &cell2, &hw);
        let s3 = est.stats().snapshot();
        assert_eq!(s3.estimate_misses, 4);
        assert_eq!((s3.profile_hits, s3.profile_misses), (0, 5));
        assert_eq!((s3.table_hits, s3.table_misses), (4, 1));
        assert_eq!(s3.estimate_hits, 0, "no estimate is ever cached");
    }

    #[test]
    fn mem_report_accounts_live_caches() {
        let est = CellEstimator::new(CostParams::default(), 53);
        let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
        let cell = Cell::new(&g, 8, 4).unwrap();
        let _ = est.estimate(&g, 256, &cell, &a100());
        let report = est.mem_report();
        let names: Vec<&str> = report.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["estimator.tables"]);
        let tables = &report[0];
        assert!(tables.bytes > 0, "tables hold bytes after an estimate");
        assert_eq!(tables.entries, 1, "one node class, one table set");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// The table cache is transparent and the two exposed steps are
        /// the estimate: for any Cell, a warm estimator's estimate and
        /// its `assemble` over a separately taken `profile` return bit
        /// for bit what a fresh estimator does (noise is keyed, not drawn
        /// from shared state).
        #[test]
        fn warm_equals_fresh(
            fam_idx in 0_usize..3,
            gpus_pow in 1_u32..4,
            stages_pow in 0_u32..3,
            on_a10 in 0_u32..2,
        ) {
            let (fam, size) = [
                (ModelFamily::Bert, 1.3),
                (ModelFamily::Moe, 1.3),
                (ModelFamily::WideResNet, 1.0),
            ][fam_idx];
            let g = ModelConfig::new(fam, size, 256).build();
            let gpus = 1_usize << gpus_pow;
            let stages = (1_usize << stages_pow).min(gpus);
            let Some(cell) = Cell::new(&g, gpus, stages) else {
                return Ok(());
            };
            let hw = if on_a10 == 1 { a10() } else { a100() };
            let warm = CellEstimator::new(CostParams::default(), 43);
            let _ = warm.estimate(&g, 256, &cell, &hw);
            let again = warm.estimate(&g, 256, &cell, &hw);
            let mut soa = SoaProfiles::default();
            warm.profile(&g, 256, &cell, &hw, &mut soa);
            let stepped = warm.assemble(&soa, &g, 256, &cell, &hw);
            let fresh = CellEstimator::new(CostParams::default(), 43).estimate(&g, 256, &cell, &hw);
            for got in [again, stepped] {
                match (got, &fresh) {
                    (None, None) => {}
                    (Some(w), Some(f)) => {
                        prop_assert_eq!(w.iter_time_s.to_bits(), f.iter_time_s.to_bits());
                        prop_assert_eq!(w.throughput_sps.to_bits(), f.throughput_sps.to_bits());
                        prop_assert_eq!(w.max_mem_bytes.to_bits(), f.max_mem_bytes.to_bits());
                        prop_assert_eq!(w.plan.label(), f.plan.label());
                        prop_assert_eq!(&w.favors, &f.favors);
                    }
                    (w, f) => {
                        return Err(TestCaseError::fail(format!(
                            "feasibility disagrees: warm={} fresh={}",
                            w.is_some(), f.is_some()
                        )));
                    }
                }
            }
        }
    }

    #[test]
    fn best_estimate_skips_nan_and_keeps_first_strict_maximum() {
        let mk = |tp: f64| {
            Some(CellEstimate {
                plan: PipelinePlan { stages: Vec::new() },
                iter_time_s: 1.0,
                throughput_sps: tp,
                favors: Vec::new(),
                max_mem_bytes: 0.0,
            })
        };
        // NaN is never selectable — even in first position, where the
        // old per-cell loop's `>` comparison let it stick forever.
        assert_eq!(
            best_estimate(&[mk(f64::NAN), mk(2.0), None, mk(3.0), mk(3.0)]),
            Some(3),
            "ties keep the earliest winner, NaN and None are skipped"
        );
        assert_eq!(best_estimate(&[mk(f64::NAN), mk(f64::NAN)]), None);
        assert_eq!(best_estimate(&[None, None]), None);
        assert_eq!(best_estimate(&[]), None);
        // -inf is a real (terrible) value, so it can still win alone.
        assert_eq!(best_estimate(&[None, mk(f64::NEG_INFINITY)]), Some(1));
    }
}
