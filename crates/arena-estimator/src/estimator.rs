//! The agile Cell estimator: assembly of profiled parts (§5.1, Fig. 9).
//!
//! The uncached pipeline is data-oriented (DESIGN.md §16): profiles are
//! flattened into struct-of-arrays buffers, boundary transfer costs are
//! priced once per accumulation factor instead of inside every chain-DP
//! sweep, memory-infeasible per-stage plans are pruned *before* their
//! collectives are priced, and the whole `2^Ns` assembly runs over
//! reusable thread-local scratch arenas — zero heap allocation per
//! estimate after warmup, except the returned [`CellEstimate`] itself.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use arena_model::ModelGraph;
use arena_parallelism::{PipelinePlan, StageAssignment, StagePlan};
use arena_perf::noise::NoiseModel;
use arena_perf::{CostParams, HwTarget, ProfilingMeter};
use arena_runtime::{BudgetedMap, MemSection};
use parking_lot::RwLock;

use crate::cell::{Cell, Favor};
use crate::keys::{CellKey, Interner, TableKey};
use crate::profile::{profile_cell, CellProfiles, SoaProfiles};
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

impl arena_runtime::MemSize for CellEstimate {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .plan
                .stages
                .len()
                .saturating_mul(std::mem::size_of::<arena_parallelism::StageAssignment>())
            + self.favors.len() * std::mem::size_of::<Favor>()
    }
}

/// Reusable scratch arenas for the batched `2^Ns` assembly.
///
/// Per-(stage, mode) vectors are indexed `2 * stage + mode` (mode 0 =
/// DP-only, 1 = TP-only); the boundary table is indexed
/// `4 * stage + 2 * prev_mode + mode` for stages `>= 1`. Buffers are
/// cleared — never shrunk — between estimates, so once each thread has
/// assembled a Cell at the workload's largest stage count the whole
/// uncached path performs no heap allocation besides the returned
/// [`CellEstimate`].
#[derive(Debug, Default)]
struct AssemblyScratch {
    /// Flattened profile fields, refilled once per estimate.
    soa: SoaProfiles,
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
    /// One scratch arena per thread, so the assembly needs neither a
    /// lock nor a fresh buffer even when two threads share an estimator.
    static SCRATCH: RefCell<AssemblyScratch> = RefCell::new(AssemblyScratch::default());
}

/// Live hit/miss counters for the estimator's three caches, plus total
/// wall-clock spent computing estimates. All counters are monotonic and
/// thread-safe; reading them never perturbs estimation results.
#[derive(Debug, Default)]
pub struct CacheStats {
    estimate_hits: AtomicU64,
    estimate_misses: AtomicU64,
    profile_hits: AtomicU64,
    profile_misses: AtomicU64,
    table_hits: AtomicU64,
    table_misses: AtomicU64,
    estimate_ns: AtomicU64,
}

/// A point-in-time copy of [`CacheStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// `estimate()` calls answered from the estimate cache.
    pub estimate_hits: u64,
    /// `estimate()` calls that computed a fresh estimate.
    pub estimate_misses: u64,
    /// Stage-profile lookups answered from the profile cache.
    pub profile_hits: u64,
    /// Stage-profile lookups that ran the profiler.
    pub profile_misses: u64,
    /// Communication-table lookups answered from the table cache.
    pub table_hits: u64,
    /// Communication-table lookups that built new tables.
    pub table_misses: u64,
    /// Total wall-clock spent computing fresh estimates, nanoseconds.
    pub estimate_ns: u64,
}

impl CacheStats {
    /// Copies the current counter values.
    #[must_use]
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            estimate_hits: self.estimate_hits.load(Ordering::Relaxed),
            estimate_misses: self.estimate_misses.load(Ordering::Relaxed),
            profile_hits: self.profile_hits.load(Ordering::Relaxed),
            profile_misses: self.profile_misses.load(Ordering::Relaxed),
            table_hits: self.table_hits.load(Ordering::Relaxed),
            table_misses: self.table_misses.load(Ordering::Relaxed),
            estimate_ns: self.estimate_ns.load(Ordering::Relaxed),
        }
    }
}

/// The agile Cell estimator.
///
/// Owns the offline communication tables (built lazily per node class),
/// a cache of runtime stage profiles (a job is profiled once per GPU type,
/// §6.1), and a [`ProfilingMeter`] charged for every profile it takes.
///
/// Each cache is one [`BudgetedMap`] behind one `RwLock`, keyed by small
/// struct keys over interned model/hardware ids. A lookup takes the read
/// lock, a miss computes outside any lock and then inserts under the
/// write lock, as the plan service's memo maps do. Every estimator
/// belongs to one plan service, and each service is driven by a single
/// thread (the daemon thread, one run, or one experiment task), so the
/// locks are uncontended. Every cached value is a deterministic function
/// of its key (noise is keyed, not drawn), so eviction and a repeated
/// computation can only cost time, never change a result.
pub struct CellEstimator {
    params: CostParams,
    noise: NoiseModel,
    table_noise: NoiseModel,
    meter: Arc<ProfilingMeter>,
    stats: CacheStats,
    interner: Interner,
    tables: RwLock<BudgetedMap<TableKey, Arc<CommTables>>>,
    profiles: RwLock<BudgetedMap<CellKey, Arc<CellProfiles>>>,
    estimates: RwLock<BudgetedMap<CellKey, Option<CellEstimate>>>,
}

impl std::fmt::Debug for CellEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellEstimator")
            .field("profiled_cells", &self.profiles.read().len())
            .field("gpu_seconds", &self.meter.gpu_seconds())
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
            meter: Arc::new(ProfilingMeter::new()),
            stats: CacheStats::default(),
            interner: Interner::new(),
            tables: RwLock::new(BudgetedMap::new(None)),
            profiles: RwLock::new(BudgetedMap::new(None)),
            estimates: RwLock::new(BudgetedMap::new(None)),
        }
    }

    /// The meter charged by this estimator's profiling activity.
    #[must_use]
    pub fn meter(&self) -> &Arc<ProfilingMeter> {
        &self.meter
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

    /// Applies a total byte budget across the three caches (tables ¼,
    /// profiles ½, estimates ¼ — roughly their relative footprints on a
    /// loaded trace), sweeping oldest-first immediately. `None` lifts
    /// all budgets. Eviction never changes estimation results — every
    /// cached value is a pure function of its key — only hit rates.
    pub fn set_mem_budget(&self, total: Option<usize>) {
        self.tables.write().set_budget(total.map(|t| t / 4));
        self.profiles.write().set_budget(total.map(|t| t / 2));
        self.estimates.write().set_budget(total.map(|t| t / 4));
    }

    /// The estimator's memory ledger: accounted bytes, entries, budget
    /// and evictions per cache.
    #[must_use]
    pub fn mem_report(&self) -> Vec<MemSection> {
        vec![
            self.tables.read().section("estimator.tables"),
            self.profiles.read().section("estimator.profiles"),
            self.estimates.read().section("estimator.estimates"),
        ]
    }

    /// The interned struct key identifying one `(model, batch, cell, hw)`
    /// combination in the profile and estimate caches.
    fn cell_key(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        cell: &Cell,
        hw: &HwTarget,
    ) -> CellKey {
        CellKey {
            model: self.interner.intern(&graph.name),
            batch: global_batch,
            gpus: cell.num_gpus,
            stages: cell.num_stages,
            hw: self.interner.intern(hw.name()),
            gpn: hw.packed_gpn,
        }
    }

    fn tables_for(&self, hw: &HwTarget, max_group: usize) -> Arc<CommTables> {
        let key = TableKey {
            hw: self.interner.intern(hw.name()),
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

    fn profiles_for(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        cell: &Cell,
        hw: &HwTarget,
    ) -> Arc<CellProfiles> {
        let key = self.cell_key(graph, global_batch, cell, hw);
        if let Some(p) = self.profiles.read().get(&key) {
            self.stats.profile_hits.fetch_add(1, Ordering::Relaxed);
            return p.clone();
        }
        self.stats.profile_misses.fetch_add(1, Ordering::Relaxed);
        let prof = Arc::new(profile_cell(
            &self.params,
            &self.noise,
            &self.meter,
            graph,
            global_batch,
            cell,
            hw,
        ));
        self.profiles.write().insert(key, prof.clone());
        prof
    }

    /// Estimates a Cell: profiles its stages (cached), assembles the
    /// `2^Ns` grid and returns the best feasible assembled plan.
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
    /// // Two ~30 s single-GPU profiles per Cell (§8.2).
    /// assert!(estimator.meter().gpu_seconds() < 120.0);
    /// ```
    #[must_use]
    pub fn estimate(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        cell: &Cell,
        hw: &HwTarget,
    ) -> Option<CellEstimate> {
        let key = self.cell_key(graph, global_batch, cell, hw);
        self.estimate_cached(key, || {
            self.estimate_uncached(graph, global_batch, cell, hw)
        })
    }

    /// The estimate cached under `key`, or `compute`'s result, timed and
    /// inserted. Each call counts exactly one estimate hit or miss.
    fn estimate_cached(
        &self,
        key: CellKey,
        compute: impl FnOnce() -> Option<CellEstimate>,
    ) -> Option<CellEstimate> {
        if let Some(e) = self.estimates.read().get(&key) {
            self.stats.estimate_hits.fetch_add(1, Ordering::Relaxed);
            return e.clone();
        }
        self.stats.estimate_misses.fetch_add(1, Ordering::Relaxed);
        let started = std::time::Instant::now();
        let est = compute();
        self.stats.estimate_ns.fetch_add(
            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        self.estimates.write().insert(key, est.clone());
        est
    }

    /// Recomputes the estimate from scratch, skipping (and not updating)
    /// the estimate cache. All noise is keyed deterministically, so this
    /// must return exactly what a cached [`CellEstimator::estimate`]
    /// returns — the property the cache-consistency tests check.
    #[must_use]
    pub fn estimate_bypassing_cache(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        cell: &Cell,
        hw: &HwTarget,
    ) -> Option<CellEstimate> {
        self.estimate_uncached(graph, global_batch, cell, hw)
    }

    fn estimate_uncached(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        cell: &Cell,
        hw: &HwTarget,
    ) -> Option<CellEstimate> {
        let tables = self.tables_for(hw, cell.num_gpus);
        self.estimate_with_tables(&tables, graph, global_batch, cell, hw)
    }

    /// The uncached pipeline minus the table fetch — the batch entry
    /// prices every Cell of one job against a single shared table.
    fn estimate_with_tables(
        &self,
        tables: &CommTables,
        graph: &ModelGraph,
        global_batch: usize,
        cell: &Cell,
        hw: &HwTarget,
    ) -> Option<CellEstimate> {
        let profiles = self.profiles_for(graph, global_batch, cell, hw);
        SCRATCH.with(|scratch| {
            assemble_cell(
                &self.params,
                tables,
                &profiles,
                graph,
                global_batch,
                cell,
                hw,
                &mut scratch.borrow_mut(),
            )
        })
    }

    /// Estimates every Cell generated for one job in one batched pass:
    /// the communication tables are fetched once for the whole batch and
    /// each Cell's assembly reuses the calling thread's scratch arenas.
    ///
    /// Bitwise-identical to calling [`CellEstimator::estimate`] on each
    /// Cell in order — every Cell still counts exactly one estimate hit
    /// or miss, misses are timed, and fresh estimates enter the cache.
    /// Only the table hit/miss counters move once per batch rather than
    /// once per Cell.
    #[must_use]
    pub fn estimate_batch(
        &self,
        graph: &ModelGraph,
        global_batch: usize,
        cells: &[Cell],
        hw: &HwTarget,
    ) -> Vec<Option<CellEstimate>> {
        if cells.is_empty() {
            return Vec::new();
        }
        let max_group = cells.iter().map(|c| c.num_gpus).max().unwrap_or(1);
        let tables = self.tables_for(hw, max_group);
        cells
            .iter()
            .map(|cell| {
                let key = self.cell_key(graph, global_batch, cell, hw);
                self.estimate_cached(key, || {
                    self.estimate_with_tables(&tables, graph, global_batch, cell, hw)
                })
            })
            .collect()
    }
}

/// Index of the best batched estimate: highest estimated throughput,
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

/// Assembles the best plan over the `2^Ns` grid for one Cell, minimised
/// over the gradient-accumulation factors, entirely on `scr`'s buffers.
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
    profiles: &CellProfiles,
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
    scr.soa.fill_from(profiles);
    debug_assert_eq!(scr.soa.slots(), 2 * n);

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
                let mem = scr.soa.fixed_mem_bytes[i] + scr.soa.scalable_mem_bytes[i] / f;
                let feasible =
                    scr.soa.batch_ok[i] && scr.soa.mb_samples[i] / f >= 1.0 && mem <= budget;
                scr.feasible.push(feasible);
                if !feasible {
                    scr.busy.push(f64::INFINITY);
                    scr.sync.push(f64::INFINITY);
                    continue;
                }
                let tp_comm = if m == 1 {
                    tables.lookup(CollectiveKind::AllReduce, g, scr.soa.tp_payload[i] / f)
                } else {
                    0.0
                };
                let dispatch =
                    tables.lookup(CollectiveKind::AllToAll, g, scr.soa.dispatch_payload[i] / f);
                let sync = if m == 0 {
                    tables.lookup(CollectiveKind::AllReduce, g, scr.soa.grad_bytes[i])
                } else {
                    0.0
                };
                let compute = scr.soa.fixed_compute_s[i]
                    + (scr.soa.compute_s[i] - scr.soa.fixed_compute_s[i]).max(0.0) / f;
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
        .map(|(s, &m)| scr.soa.mem_bytes[2 * s + m])
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
    fn profiling_cost_is_cached_per_cell() {
        let est = CellEstimator::new(CostParams::default(), 29);
        let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
        let cell = Cell::new(&g, 8, 4).unwrap();
        let hw = a100();
        let _ = est.estimate(&g, 256, &cell, &hw);
        let after_first = est.meter().gpu_seconds();
        assert!(after_first > 0.0);
        let _ = est.estimate(&g, 256, &cell, &hw);
        assert_eq!(est.meter().gpu_seconds(), after_first);
    }

    #[test]
    fn per_cell_budget_is_about_a_minute() {
        // §8.2: two parallelism profiles per Cell at ~30 s each on one GPU.
        let est = CellEstimator::new(CostParams::default(), 31);
        let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
        let cell = Cell::new(&g, 8, 4).unwrap();
        let _ = est.estimate(&g, 256, &cell, &a100());
        let gpu_s = est.meter().gpu_seconds();
        assert!(gpu_s > 40.0 && gpu_s < 120.0, "per-cell cost {gpu_s}s");
    }

    #[test]
    fn cache_stats_count_hits_and_misses_exactly() {
        let est = CellEstimator::new(CostParams::default(), 37);
        let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
        let cell = Cell::new(&g, 8, 4).unwrap();
        let hw = a100();

        let s0 = est.stats().snapshot();
        assert_eq!((s0.estimate_hits, s0.estimate_misses), (0, 0));

        let _ = est.estimate(&g, 256, &cell, &hw);
        let s1 = est.stats().snapshot();
        assert_eq!((s1.estimate_hits, s1.estimate_misses), (0, 1));
        assert!(s1.estimate_ns > 0, "misses are timed");
        assert!(s1.profile_misses > 0);
        assert!(s1.table_misses > 0);

        for _ in 0..3 {
            let _ = est.estimate(&g, 256, &cell, &hw);
        }
        let s2 = est.stats().snapshot();
        assert_eq!((s2.estimate_hits, s2.estimate_misses), (3, 1));
        // Cache hits never re-run the assembly, so neither the timer nor
        // the inner profile/table counters move.
        assert_eq!(s2.estimate_ns, s1.estimate_ns);
        assert_eq!(s2.profile_misses, s1.profile_misses);
        assert_eq!(s2.profile_hits, s1.profile_hits);

        // A different Cell is a fresh miss.
        let cell2 = Cell::new(&g, 8, 2).unwrap();
        let _ = est.estimate(&g, 256, &cell2, &hw);
        let s3 = est.stats().snapshot();
        assert_eq!((s3.estimate_hits, s3.estimate_misses), (3, 2));
    }

    #[test]
    fn bypass_skips_estimate_cache_but_reuses_profiles() {
        let est = CellEstimator::new(CostParams::default(), 41);
        let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
        let cell = Cell::new(&g, 8, 4).unwrap();
        let hw = a100();

        let _ = est.estimate_bypassing_cache(&g, 256, &cell, &hw);
        let s1 = est.stats().snapshot();
        assert_eq!(
            (s1.estimate_hits, s1.estimate_misses),
            (0, 0),
            "bypass never touches the estimate cache"
        );
        assert!(s1.profile_misses > 0);

        let _ = est.estimate_bypassing_cache(&g, 256, &cell, &hw);
        let s2 = est.stats().snapshot();
        assert_eq!(s2.profile_misses, s1.profile_misses);
        assert!(
            s2.profile_hits > s1.profile_hits,
            "second pass hits profiles"
        );
        assert!(s2.table_hits > s1.table_hits);
    }

    #[test]
    fn mem_report_accounts_live_caches() {
        let est = CellEstimator::new(CostParams::default(), 53);
        let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
        let cell = Cell::new(&g, 8, 4).unwrap();
        let _ = est.estimate(&g, 256, &cell, &a100());
        let report = est.mem_report();
        assert_eq!(report.len(), 3);
        for s in &report {
            assert!(s.bytes > 0, "{} holds bytes after an estimate", s.name);
            assert!(s.entries > 0);
            assert_eq!(s.budget_bytes, None);
            assert_eq!(s.evictions, 0);
        }
    }

    #[test]
    fn tiny_budget_evicts_but_never_changes_results() {
        // An adversarially tiny budget forces constant eviction; every
        // estimate must still be bitwise what a cache-bypassing
        // computation returns, because values are pure functions of keys.
        let est = CellEstimator::new(CostParams::default(), 59);
        est.set_mem_budget(Some(1024));
        let hw = a100();
        let mut evicted_something = false;
        for (fam, size, batch) in [
            (ModelFamily::Bert, 1.3, 256),
            (ModelFamily::Moe, 1.3, 512),
            (ModelFamily::WideResNet, 1.0, 512),
            (ModelFamily::Bert, 2.6, 256),
        ] {
            let g = ModelConfig::new(fam, size, batch).build();
            for (gpus, stages) in [(8, 4), (8, 2), (4, 2), (4, 1)] {
                let Some(cell) = Cell::new(&g, gpus, stages) else {
                    continue;
                };
                let cached = est.estimate(&g, batch, &cell, &hw);
                let bypassed = est.estimate_bypassing_cache(&g, batch, &cell, &hw);
                match (cached, bypassed) {
                    (None, None) => {}
                    (Some(c), Some(b)) => {
                        assert_eq!(c.iter_time_s.to_bits(), b.iter_time_s.to_bits());
                        assert_eq!(c.plan.label(), b.plan.label());
                    }
                    (c, b) => panic!(
                        "feasibility disagrees under budget: {} vs {}",
                        c.is_some(),
                        b.is_some()
                    ),
                }
            }
            evicted_something |= est.mem_report().iter().any(|s| s.evictions > 0);
        }
        assert!(evicted_something, "1 KiB budget must evict");
        // Every cache is budgeted, so the ledger stays near the budget
        // rather than growing with the workload.
        for s in est.mem_report() {
            assert!(s.budget_bytes.is_some());
        }
        // Each reports exactly its share of the total: tables ¼,
        // profiles ½, estimates ¼.
        est.set_mem_budget(Some(1000));
        let budgets: Vec<Option<usize>> = est.mem_report().iter().map(|s| s.budget_bytes).collect();
        assert_eq!(budgets, [Some(250), Some(500), Some(250)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// The estimate cache is transparent: for any feasible Cell the
        /// cached estimate is bit-identical to a cache-bypassing
        /// re-computation (noise is keyed, not drawn from shared state).
        #[test]
        fn cached_equals_bypassed(
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
            let est = CellEstimator::new(CostParams::default(), 43);
            let cached = est.estimate(&g, 256, &cell, &hw);
            let again = est.estimate(&g, 256, &cell, &hw);
            let bypassed = est.estimate_bypassing_cache(&g, 256, &cell, &hw);
            match (cached, again, bypassed) {
                (None, None, None) => {}
                (Some(c), Some(r), Some(b)) => {
                    prop_assert_eq!(c.iter_time_s.to_bits(), r.iter_time_s.to_bits());
                    prop_assert_eq!(c.iter_time_s.to_bits(), b.iter_time_s.to_bits());
                    prop_assert_eq!(c.plan.label(), b.plan.label());
                    prop_assert_eq!(&c.favors, &b.favors);
                }
                (c, r, b) => {
                    return Err(TestCaseError::fail(format!(
                        "feasibility disagrees: cached={} again={} bypassed={}",
                        c.is_some(), r.is_some(), b.is_some()
                    )));
                }
            }
        }

        /// The batch seam is transparent: for any job/pool shape,
        /// `estimate_batch` over the generated Cell ladder is bitwise
        /// identical to per-call `estimate` *and* to cache-bypassing
        /// recomputation, on cold and warm caches alike.
        #[test]
        fn batch_equals_per_call(
            fam_idx in 0_usize..3,
            gpus_pow in 1_u32..5,
            batch_pow in 7_u32..9,
            on_a10 in 0_u32..2,
        ) {
            let (fam, size) = [
                (ModelFamily::Bert, 1.3),
                (ModelFamily::Moe, 1.3),
                (ModelFamily::WideResNet, 1.0),
            ][fam_idx];
            let global_batch = 1_usize << batch_pow;
            let g = ModelConfig::new(fam, size, global_batch).build();
            let gpus = 1_usize << gpus_pow;
            let hw = if on_a10 == 1 { a10() } else { a100() };
            let cells = Cell::generate(&g, gpus);
            prop_assume!(!cells.is_empty());

            // Same seed, separate caches: the batch estimator runs cold
            // while the reference estimator prices each cell alone.
            let batched = CellEstimator::new(CostParams::default(), 43);
            let reference = CellEstimator::new(CostParams::default(), 43);
            let cold = batched.estimate_batch(&g, global_batch, &cells, &hw);
            prop_assert_eq!(cold.len(), cells.len());
            let warm = batched.estimate_batch(&g, global_batch, &cells, &hw);
            for (i, cell) in cells.iter().enumerate() {
                let one = reference.estimate(&g, global_batch, cell, &hw);
                let bypassed = reference.estimate_bypassing_cache(&g, global_batch, cell, &hw);
                match (&cold[i], &warm[i], one, bypassed) {
                    (None, None, None, None) => {}
                    (Some(c), Some(w), Some(o), Some(b)) => {
                        for other in [w, &o, &b] {
                            prop_assert_eq!(c.iter_time_s.to_bits(), other.iter_time_s.to_bits());
                            prop_assert_eq!(
                                c.throughput_sps.to_bits(),
                                other.throughput_sps.to_bits()
                            );
                            prop_assert_eq!(
                                c.max_mem_bytes.to_bits(),
                                other.max_mem_bytes.to_bits()
                            );
                            prop_assert_eq!(c.plan.label(), other.plan.label());
                            prop_assert_eq!(&c.favors, &other.favors);
                        }
                    }
                    (c, w, o, b) => {
                        return Err(TestCaseError::fail(format!(
                            "feasibility disagrees for cell {i}: batch_cold={} \
                             batch_warm={} per_call={} bypassed={}",
                            c.is_some(), w.is_some(), o.is_some(), b.is_some()
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
