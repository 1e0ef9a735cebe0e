//! The Arena (Crius) Cell-based scheduler: Algorithm 1.

use std::cell::RefCell;
use std::sync::Arc;

use arena_cluster::{GpuTypeId, PoolStats};
use arena_obs::Decision;

pub use crate::memo::CandidateMemoStats;
use crate::memo::{CandidateMemo, JobClassKey};
use crate::policy::{Action, JobView, PlanMode, Policy, SchedEvent, SchedView};

/// Which Arena variant runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaVariant {
    /// The full scheduler.
    Full,
    /// Ablation §8.6: no adaptivity scaling (GPU count fixed at `N_G`).
    NoAdaptivity,
    /// Ablation §8.6: no heterogeneity scaling (requested pool only).
    NoHeterogeneity,
    /// §8.5: deadline-aware Arena-DDL (strict guarantees, early drop).
    Deadline,
}

/// A candidate placement for one job, scored by estimated normalised
/// throughput.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pool: GpuTypeId,
    gpus: usize,
    /// Estimated throughput / the job's ideal throughput.
    score: f64,
    /// Estimated seconds per iteration (for deadline checks).
    iter_time_s: f64,
}

/// The Cell-based scheduler (Algorithm 1).
///
/// On every event it walks the queue in order; a job is placed on the
/// Cell with the best estimated normalised throughput that fits. When
/// nothing fits, up to `search_depth` *scaling moves* — downscaling a
/// running job within its `{N_G/2, N_G, 2N_G}` menu or moving it to
/// another pool — are applied greedily by least normalised-throughput
/// loss. Departures additionally trigger upscaling of running jobs onto
/// released resources, and opportunistic execution backfills idle GPUs
/// behind a pending large job.
/// How Arena orders its queue when picking the next job to place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueOrder {
    /// Arrival order (Algorithm 1's `pend_jobs` iteration).
    Arrival,
    /// Shortest estimated remaining work first — an alternative
    /// scheduling objective (§6: "easy to adapt to other objectives").
    ShortestFirst,
}

#[derive(Debug)]
pub struct ArenaPolicy {
    variant: ArenaVariant,
    /// Maximum scaling moves per scheduling decision (§6.1, §8.7).
    pub search_depth: usize,
    /// Whether opportunistic execution backfills behind a pending job.
    pub opportunistic: bool,
    /// Queue discipline.
    pub queue_order: QueueOrder,
    /// Ranked-candidate memo (see [`crate::memo`]); flushed whenever the
    /// per-pool free/failed/total signature moves.
    memo: RefCell<CandidateMemo>,
    use_memo: bool,
    /// Optional bound on each ranked candidate list (`None` = full grid).
    /// Lists are truncated to the top-`K` *after* ranking, so only the
    /// lowest-scored tail — the placements Arena would try last — is
    /// dropped.
    candidate_cap: Option<usize>,
    /// How many candidate lists the cap actually truncated (provenance;
    /// stays 0 while the cap never binds).
    capped_lists: std::cell::Cell<u64>,
}

impl ArenaPolicy {
    /// The full scheduler with the paper's default search depth of 3.
    #[must_use]
    pub fn new() -> Self {
        Self::with_variant(ArenaVariant::Full)
    }

    /// A specific variant with the default search depth.
    #[must_use]
    pub fn with_variant(variant: ArenaVariant) -> Self {
        ArenaPolicy {
            variant,
            search_depth: 3,
            opportunistic: true,
            queue_order: QueueOrder::Arrival,
            memo: RefCell::new(CandidateMemo::default()),
            use_memo: true,
            candidate_cap: None,
            capped_lists: std::cell::Cell::new(0),
        }
    }

    /// Disables the candidate memo (every list is re-enumerated) — the
    /// sequential baseline the incremental path is benchmarked against.
    #[must_use]
    pub fn without_candidate_memo(mut self) -> Self {
        self.use_memo = false;
        self
    }

    /// Hit/miss/invalidation counters of the candidate memo.
    #[must_use]
    pub fn candidate_memo_stats(&self) -> CandidateMemoStats {
        self.memo.borrow().stats()
    }

    /// Bounds every ranked candidate list to its top-`cap` entries. The
    /// cut happens after ranking, so only the worst-scored tail goes;
    /// with the default (unbounded) the schedule is exactly the full-grid
    /// one. Each truncation is counted (see [`Self::capped_lists`]) and,
    /// when observability is on, surfaced as the
    /// `sched.candidates.capped` counter.
    #[must_use]
    pub fn with_candidate_cap(mut self, cap: usize) -> Self {
        self.candidate_cap = Some(cap.max(1));
        self
    }

    /// Bounds the candidate memo to `entries` cached classes
    /// (oldest-inserted evicted first). Off by default.
    #[must_use]
    pub fn with_memo_capacity(self, entries: usize) -> Self {
        self.memo.borrow_mut().set_cap(Some(entries));
        self
    }

    /// Ages memo entries out after `passes` revalidations without a hit.
    /// Off by default.
    #[must_use]
    pub fn with_memo_max_age(self, passes: u64) -> Self {
        self.memo.borrow_mut().set_max_age(Some(passes));
        self
    }

    /// How many candidate lists the candidate cap actually truncated.
    #[must_use]
    pub fn capped_lists(&self) -> u64 {
        self.capped_lists.get()
    }

    /// Applies the candidate cap to one ranked list, counting the
    /// truncation (and emitting the provenance counter) only when the
    /// cap actually binds.
    fn apply_candidate_cap(&self, out: &mut Vec<Candidate>, obs: &arena_obs::Obs) {
        if let Some(cap) = self.candidate_cap {
            if out.len() > cap {
                out.truncate(cap);
                self.capped_lists.set(self.capped_lists.get() + 1);
                obs.incr("sched.candidates.capped", 1);
            }
        }
    }

    /// Overrides the search depth (Fig. 21).
    #[must_use]
    pub fn with_search_depth(mut self, depth: usize) -> Self {
        self.search_depth = depth;
        self
    }

    /// Disables opportunistic execution (ablation of the §6.1 mechanism).
    #[must_use]
    pub fn without_opportunistic(mut self) -> Self {
        self.opportunistic = false;
        self
    }

    /// Switches the queue discipline.
    #[must_use]
    pub fn with_queue_order(mut self, order: QueueOrder) -> Self {
        self.queue_order = order;
        self
    }

    /// The GPU-count menu for a job (§6.1): `{N_G/2, N_G, 2N_G}`.
    fn gpu_menu(&self, requested: usize) -> Vec<usize> {
        if self.variant == ArenaVariant::NoAdaptivity {
            return vec![requested];
        }
        let mut menu = Vec::new();
        if requested > 1 {
            menu.push(requested / 2);
        }
        menu.push(requested);
        if requested < 64 {
            menu.push(requested * 2);
        }
        menu
    }

    /// Pools a job may use.
    fn pool_menu(&self, view: &SchedView<'_>, job: &JobView) -> Vec<GpuTypeId> {
        if self.variant == ArenaVariant::NoHeterogeneity {
            vec![GpuTypeId(job.spec.requested_pool)]
        } else {
            (0..view.pools.len()).map(GpuTypeId).collect()
        }
    }

    /// All estimated candidates for a job, best score first.
    ///
    /// When part of the cluster is down, placement becomes
    /// failure-aware: a candidate's score is discounted by its pool's
    /// failed-capacity fraction (a degraded pool both has less headroom
    /// for the job's later upscales and signals correlated-failure risk),
    /// and exact ties prefer the pool with more spare healthy capacity.
    /// With zero failed capacity the ranking is exactly the fault-free
    /// one, so fault-free schedules are unchanged.
    fn candidates(&self, view: &SchedView<'_>, job: &JobView) -> Vec<Candidate> {
        let key = JobClassKey::of(&job.spec);
        if self.use_memo {
            self.memo.borrow_mut().begin_pass(view.pools);
            if let Some(cached) = self.memo.borrow_mut().get(&key) {
                return cached.to_vec();
            }
        }
        let ideal = view.service.ideal_sps(&job.spec);
        let model = &job.spec.model;
        let mut out: Vec<Candidate> = self
            .grid(view, job)
            .into_iter()
            .filter_map(|(pool, gpus)| {
                view.service
                    .cell_choice(model, gpus, pool)
                    .map(|c| Candidate {
                        pool,
                        gpus,
                        score: c.throughput_sps / ideal,
                        iter_time_s: c.iter_time_s,
                    })
            })
            .collect();
        rank_candidates(&mut out, view.pools);
        self.apply_candidate_cap(&mut out, &view.obs);
        if self.use_memo {
            self.memo.borrow_mut().put(key, Arc::new(out.clone()));
        }
        out
    }

    /// The estimation grid for a job: its pool menu crossed with its GPU
    /// menu, in enumeration order.
    fn grid(&self, view: &SchedView<'_>, job: &JobView) -> Vec<(GpuTypeId, usize)> {
        self.pool_menu(view, job)
            .into_iter()
            .flat_map(|pool| {
                self.gpu_menu(job.spec.requested_gpus)
                    .into_iter()
                    .map(move |gpus| (pool, gpus))
            })
            .collect()
    }

    /// Whether a candidate finishes the job before its deadline.
    fn meets_deadline(view: &SchedView<'_>, job: &JobView, cand: &Candidate) -> bool {
        match job.spec.deadline_s {
            None => true,
            Some(d) => view.now_s + job.remaining_iters * cand.iter_time_s <= d,
        }
    }
}

impl Default for ArenaPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// Remaining run time of a job at its current throughput, seconds.
fn remaining_s(job: &JobView) -> f64 {
    match job.placement {
        Some(pl) if pl.throughput_sps > 0.0 => {
            job.remaining_iters * job.spec.model.global_batch as f64 / pl.throughput_sps
        }
        _ => f64::INFINITY,
    }
}

/// Jobs closer to completion than this are never rescaled or migrated:
/// the restart would cost more than any gain amortises.
const MIN_REMAINING_FOR_MOVE_S: f64 = 900.0;

/// Flat normalised-throughput surcharge per scaling move, accounting for
/// the victim's restart dead time; deep move chains must buy real
/// throughput to fire.
const MOVE_PENALTY: f64 = 0.15;

/// Score discount per unit failed-capacity fraction of a pool; only
/// active while some capacity is actually down.
const FAILED_POOL_PENALTY: f64 = 0.25;

/// Descending-sort key: NaN (an upstream estimation bug, not a valid
/// score) ranks *below* every real score instead of panicking the
/// comparator or floating to the top.
fn score_key(s: f64) -> f64 {
    if s.is_nan() {
        f64::NEG_INFINITY
    } else {
        s
    }
}

/// Ranks candidates best-score-first against the given pool state.
///
/// When part of the cluster is down the ranking is failure-aware: a
/// candidate's score is discounted by its pool's failed-capacity
/// fraction, and exact ties prefer the pool with more spare healthy
/// capacity. With zero failed capacity the ranking is exactly the
/// fault-free one. The sort is stable, so equal-scored candidates keep
/// enumeration (grid) order.
fn rank_candidates(out: &mut [Candidate], pools: &[PoolStats]) {
    let pool_stat = |id: GpuTypeId| pools.iter().find(|p| p.id == id);
    let degraded = pools.iter().any(|p| p.failed_gpus > 0);
    if degraded {
        let adjusted = |c: &Candidate| {
            let frac = pool_stat(c.pool).map_or(0.0, |p| {
                p.failed_gpus as f64 / (p.total_gpus as f64).max(1.0)
            });
            c.score * (1.0 - FAILED_POOL_PENALTY * frac)
        };
        out.sort_by(|a, b| {
            score_key(adjusted(b))
                .total_cmp(&score_key(adjusted(a)))
                .then_with(|| {
                    let spare = |c: &Candidate| pool_stat(c.pool).map_or(0, |p| p.free_gpus);
                    spare(b).cmp(&spare(a))
                })
        });
    } else {
        out.sort_by(|a, b| score_key(b.score).total_cmp(&score_key(a.score)));
    }
}

/// An action staged during the transactional pass, with the provenance it
/// will be recorded under if the transaction commits.
type Staged = (Action, &'static str, Option<f64>);

/// Records the provenance of one emitted action. Placements of jobs that
/// were active when the pass started carry their old `(pool, gpus)` so
/// rescales and migrations read as moves in the decision log.
fn record(view: &SchedView<'_>, action: &Action, reason: &'static str, score: Option<f64>) {
    let obs = &view.obs;
    if !obs.is_enabled() {
        return;
    }
    let job_id = match *action {
        Action::Place { job, .. } | Action::Evict { job } | Action::Drop { job } => job,
    };
    let mut d = match *action {
        Action::Place {
            job,
            pool,
            gpus,
            opportunistic,
        } => {
            let mut d = Decision::place(job, pool.0, gpus);
            let prev = view
                .running
                .iter()
                .find(|j| j.id() == job)
                .and_then(|j| j.placement);
            if let Some(pl) = prev {
                d = d.moving_from(pl.pool.0, pl.gpus);
            }
            if opportunistic {
                d.opportunistic()
            } else {
                d
            }
        }
        Action::Evict { job } => Decision::evict(job),
        Action::Drop { job } => Decision::drop(job),
    };
    if let Some(home) = view
        .queued
        .iter()
        .chain(view.running.iter())
        .find(|j| j.id() == job_id)
        .map(JobView::home_shard)
    {
        d = d.on_shard(home);
    }
    d = d.why(reason);
    if let Some(s) = score {
        d = d.with_score(s);
    }
    obs.decision(d);
}

/// Mutable virtual cluster state during one scheduling pass.
#[derive(Clone)]
struct Virtual {
    free: Vec<usize>,
    /// `(job, pool, gpus, opportunistic)` of every virtually running job.
    placed: Vec<(u64, GpuTypeId, usize, bool)>,
}

impl Virtual {
    fn from_view(view: &SchedView<'_>) -> Self {
        Virtual {
            free: view.pools.iter().map(|p| p.free_gpus).collect(),
            placed: view
                .running
                .iter()
                .filter_map(|j| {
                    j.placement
                        .map(|pl| (j.id(), pl.pool, pl.gpus, pl.opportunistic))
                })
                .collect(),
        }
    }

    fn place(&mut self, job: u64, pool: GpuTypeId, gpus: usize, opportunistic: bool) {
        self.remove(job);
        self.free[pool.0] -= gpus;
        self.placed.push((job, pool, gpus, opportunistic));
    }

    fn remove(&mut self, job: u64) {
        if let Some(i) = self.placed.iter().position(|&(j, ..)| j == job) {
            let (_, pool, gpus, _) = self.placed.remove(i);
            self.free[pool.0] += gpus;
        }
    }
}

impl ArenaPolicy {
    /// Tries to place `job`, applying up to `search_depth` scaling moves.
    /// Returns true if placed. Appends emitted actions.
    #[allow(clippy::too_many_lines)]
    fn cell_based_sched(
        &self,
        view: &SchedView<'_>,
        job: &JobView,
        virt: &mut Virtual,
        actions: &mut Vec<Action>,
    ) -> bool {
        let mut cands = self.candidates(view, job);
        if self.variant == ArenaVariant::Deadline {
            cands.retain(|c| Self::meets_deadline(view, job, c));
        }
        if cands.is_empty() {
            return false;
        }

        // Moves are only worth their restarts while the displaced
        // throughput stays below what the incoming job contributes, and
        // they are *transactional*: victims are only really rescaled if
        // the incoming job ends up placed (the paper applies scheduling
        // choices virtually and commits at the end, Algorithm 1 line 19).
        let gain_budget = cands.first().map_or(0.0, |c| c.score) * 0.8;
        let mut loss_spent = 0.0;
        let mut trial = virt.clone();
        let mut staged: Vec<Staged> = Vec::new();
        for depth in 0..=self.search_depth {
            if let Some(c) = cands.iter().find(|c| trial.free[c.pool.0] >= c.gpus) {
                trial.place(job.id(), c.pool, c.gpus, false);
                staged.push((
                    Action::Place {
                        job: job.id(),
                        pool: c.pool,
                        gpus: c.gpus,
                        opportunistic: false,
                    },
                    "best-cell",
                    Some(c.score),
                ));
                *virt = trial;
                for (a, reason, score) in staged {
                    record(view, &a, reason, score);
                    actions.push(a);
                }
                return true;
            }
            if depth == self.search_depth {
                break;
            }
            match self.apply_best_scaling_move(
                view,
                &cands,
                &mut trial,
                &mut staged,
                gain_budget - loss_spent,
            ) {
                Some(loss) => loss_spent += loss + MOVE_PENALTY,
                None => break,
            }
        }
        false
    }

    /// Greedily applies the scaling move (downscale or pool-move of a
    /// running job) that frees capacity for one of `cands` at the least
    /// normalised-throughput loss, provided that loss fits in the
    /// remaining `loss_budget`. Returns the loss, or `None` if no
    /// worthwhile move exists.
    fn apply_best_scaling_move(
        &self,
        view: &SchedView<'_>,
        cands: &[Candidate],
        virt: &mut Virtual,
        staged: &mut Vec<Staged>,
        loss_budget: f64,
    ) -> Option<f64> {
        // Pools where extra capacity would let a candidate fit.
        let useful: Vec<usize> = cands
            .iter()
            .filter(|c| virt.free[c.pool.0] < c.gpus)
            .map(|c| c.pool.0)
            .collect();
        if useful.is_empty() {
            return None;
        }

        // Move options: (loss, action-parameters).
        struct Move {
            loss: f64,
            job: u64,
            pool: GpuTypeId,
            gpus: usize,
            evict: bool,
            reason: &'static str,
        }
        let mut best: Option<Move> = None;
        for &(id, pool, gpus, opportunistic) in &virt.placed {
            if !useful.contains(&pool.0) {
                continue;
            }
            let Some(jv) = view.running.iter().find(|j| j.id() == id) else {
                continue;
            };
            // Do not shuffle jobs that are about to finish.
            if !opportunistic && remaining_s(jv) < MIN_REMAINING_FOR_MOVE_S {
                continue;
            }
            let ideal = view.service.ideal_sps(&jv.spec);
            let cur = view
                .service
                .cell_choice(&jv.spec.model, gpus, pool)
                .map_or(0.0, |c| c.throughput_sps / ideal);

            // Opportunistic jobs are simply evicted (their loss is their
            // whole contribution, but they were running on borrowed time).
            if opportunistic {
                let m = Move {
                    loss: cur * 0.5, // Prefer reclaiming opportunistic GPUs.
                    job: id,
                    pool,
                    gpus: 0,
                    evict: true,
                    reason: "reclaim-opportunistic",
                };
                if best.as_ref().is_none_or(|b| m.loss < b.loss) {
                    best = Some(m);
                }
                continue;
            }

            // Downscale within the job's own menu.
            if self.variant != ArenaVariant::NoAdaptivity && gpus > 1 {
                let smaller = gpus / 2;
                if smaller * 2 >= jv.spec.requested_gpus {
                    if let Some(c) = view.service.cell_choice(&jv.spec.model, smaller, pool) {
                        let next = c.throughput_sps / ideal;
                        let ddl_ok = self.variant != ArenaVariant::Deadline
                            || jv.spec.deadline_s.is_none_or(|d| {
                                view.now_s + jv.remaining_iters * c.iter_time_s <= d
                            });
                        if ddl_ok {
                            let m = Move {
                                loss: (cur - next).max(0.0),
                                job: id,
                                pool,
                                gpus: smaller,
                                evict: false,
                                reason: "scaling-downscale",
                            };
                            if best.as_ref().is_none_or(|b| m.loss < b.loss) {
                                best = Some(m);
                            }
                        }
                    }
                }
            }

            // Move to another pool at the same size.
            if self.variant != ArenaVariant::NoHeterogeneity {
                for q in 0..virt.free.len() {
                    if q == pool.0 || virt.free[q] < gpus {
                        continue;
                    }
                    if let Some(c) = view.service.cell_choice(&jv.spec.model, gpus, GpuTypeId(q)) {
                        let next = c.throughput_sps / ideal;
                        let m = Move {
                            loss: (cur - next).max(0.0),
                            job: id,
                            pool: GpuTypeId(q),
                            gpus,
                            evict: false,
                            reason: "scaling-pool-move",
                        };
                        if best.as_ref().is_none_or(|b| m.loss < b.loss) {
                            best = Some(m);
                        }
                    }
                }
            }
        }

        match best {
            Some(m) if m.loss + MOVE_PENALTY <= loss_budget => {
                if m.evict {
                    virt.remove(m.job);
                    staged.push((Action::Evict { job: m.job }, m.reason, Some(m.loss)));
                } else {
                    virt.place(m.job, m.pool, m.gpus, false);
                    staged.push((
                        Action::Place {
                            job: m.job,
                            pool: m.pool,
                            gpus: m.gpus,
                            opportunistic: false,
                        },
                        m.reason,
                        Some(m.loss),
                    ));
                }
                Some(m.loss)
            }
            _ => None,
        }
    }

    /// Extra scheduling on departures (Algorithm 1 line 11-12): grow
    /// running jobs onto released resources by best marginal gain.
    fn upscale_running(&self, view: &SchedView<'_>, virt: &mut Virtual, actions: &mut Vec<Action>) {
        if self.variant == ArenaVariant::NoAdaptivity {
            return;
        }
        // One upscale per departure: growth is cheap to defer (the next
        // departure retries) and each upscale costs the job a restart.
        for _ in 0..1 {
            let mut best: Option<(u64, GpuTypeId, usize, f64)> = None;
            for &(id, pool, gpus, opportunistic) in &virt.placed {
                if opportunistic || gpus >= 64 || virt.free[pool.0] < gpus {
                    continue;
                }
                let Some(jv) = view.running.iter().find(|j| j.id() == id) else {
                    continue;
                };
                if gpus * 2 > jv.spec.requested_gpus * 2 {
                    continue; // Stay within the {N/2, N, 2N} menu.
                }
                // An upscale restart only pays off on long-remaining jobs.
                if remaining_s(jv) < 2.0 * MIN_REMAINING_FOR_MOVE_S {
                    continue;
                }
                let ideal = view.service.ideal_sps(&jv.spec);
                let cur = view
                    .service
                    .cell_choice(&jv.spec.model, gpus, pool)
                    .map_or(0.0, |c| c.throughput_sps / ideal);
                if let Some(c) = view.service.cell_choice(&jv.spec.model, gpus * 2, pool) {
                    let gain = c.throughput_sps / ideal - cur;
                    if gain > 0.1 && best.is_none_or(|(.., g)| gain > g) {
                        best = Some((id, pool, gpus * 2, gain));
                    }
                }
            }
            match best {
                Some((id, pool, gpus, gain)) => {
                    virt.place(id, pool, gpus, false);
                    let a = Action::Place {
                        job: id,
                        pool,
                        gpus,
                        opportunistic: false,
                    };
                    record(view, &a, "departure-upscale", Some(gain));
                    actions.push(a);
                }
                None => break,
            }
        }
    }
}

impl Policy for ArenaPolicy {
    fn name(&self) -> &'static str {
        match self.variant {
            ArenaVariant::Full => "Arena",
            ArenaVariant::NoAdaptivity => "Arena-NA",
            ArenaVariant::NoHeterogeneity => "Arena-NH",
            ArenaVariant::Deadline => "Arena-DDL",
        }
    }

    fn plan_mode(&self) -> PlanMode {
        PlanMode::Cell
    }

    fn schedule(&mut self, event: SchedEvent, view: &SchedView<'_>) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut virt = Virtual::from_view(view);

        // Queue discipline: arrival order, or shortest estimated
        // remaining work first.
        let mut queued: Vec<&JobView> = view.queued.iter().collect();
        if self.queue_order == QueueOrder::ShortestFirst {
            queued.sort_by(|a, b| {
                let work = |j: &JobView| {
                    j.remaining_iters * j.spec.model.global_batch as f64
                        / view.service.ideal_sps(&j.spec).max(1e-9)
                };
                work(a).total_cmp(&work(b))
            });
        }

        let mut pending_blocked = false;
        for job in queued {
            // Jobs with no feasible Cell anywhere are rejected up front;
            // deadline-hopeless jobs are dropped early (§8.5).
            let cands = self.candidates(view, job);
            if cands.is_empty() {
                view.obs.decision(
                    Decision::drop(job.id())
                        .on_shard(job.home_shard())
                        .why("no-feasible-cell"),
                );
                actions.push(Action::Drop { job: job.id() });
                continue;
            }
            if self.variant == ArenaVariant::Deadline
                && !cands.iter().any(|c| Self::meets_deadline(view, job, c))
            {
                view.obs.decision(
                    Decision::drop(job.id())
                        .on_shard(job.home_shard())
                        .why("deadline-hopeless"),
                );
                actions.push(Action::Drop { job: job.id() });
                continue;
            }

            if pending_blocked {
                if !self.opportunistic {
                    continue;
                }
                // Opportunistic execution: backfill idle GPUs behind the
                // pending job without scaling anyone.
                if let Some(c) = cands.iter().find(|c| virt.free[c.pool.0] >= c.gpus) {
                    virt.place(job.id(), c.pool, c.gpus, true);
                    let a = Action::Place {
                        job: job.id(),
                        pool: c.pool,
                        gpus: c.gpus,
                        opportunistic: true,
                    };
                    record(view, &a, "opportunistic-backfill", Some(c.score));
                    actions.push(a);
                }
                continue;
            }

            if !self.cell_based_sched(view, job, &mut virt, &mut actions) {
                pending_blocked = true;
            }
        }

        // Extra scheduling for released resources (departures only, so
        // steady rounds don't thrash running jobs).
        if matches!(event, SchedEvent::Departure(_)) && !pending_blocked {
            self.upscale_running(view, &mut virt, &mut actions);
        }

        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PlacementView;
    use crate::service::PlanService;
    use arena_cluster::presets;
    use arena_model::zoo::{ModelConfig, ModelFamily};
    use arena_perf::CostParams;
    use arena_trace::JobSpec;

    fn job(id: u64, size: f64, gpus: usize, pool: usize) -> JobView {
        let model = ModelConfig::new(ModelFamily::Bert, size, 256);
        JobView {
            remaining_iters: 1000.0,
            spec: std::sync::Arc::new(JobSpec {
                id,
                name: format!("j{id}"),
                submit_s: 0.0,
                model,
                iterations: 1000,
                requested_gpus: gpus,
                requested_pool: pool,
                deadline_s: None,
            }),
            placement: None,
        }
    }

    struct Fixture {
        cluster: arena_cluster::Cluster,
        service: PlanService,
    }

    impl Fixture {
        fn new() -> Self {
            let cluster = presets::physical_testbed();
            let service = PlanService::new(&cluster, CostParams::default(), 3);
            Fixture { cluster, service }
        }

        fn view<'a>(
            &'a self,
            queued: &'a [JobView],
            running: &'a [JobView],
            pools: &'a [arena_cluster::PoolStats],
        ) -> SchedView<'a> {
            SchedView {
                now_s: 0.0,
                queued,
                running,
                pools,
                service: &self.service,
                obs: arena_obs::Obs::disabled(),
            }
        }
    }

    #[test]
    fn places_new_job_on_best_pool() {
        let f = Fixture::new();
        let queued = vec![job(1, 1.3, 8, 1)];
        let pools = f.cluster.pool_stats();
        let mut policy = ArenaPolicy::new();
        let actions = policy.schedule(SchedEvent::Arrival(1), &f.view(&queued, &[], &pools));
        assert!(matches!(
            actions.as_slice(),
            [Action::Place { job: 1, gpus, .. }] if [4, 8, 16].contains(gpus)
        ));
    }

    #[test]
    fn na_variant_keeps_requested_size() {
        let f = Fixture::new();
        let queued = vec![job(1, 1.3, 8, 0)];
        let pools = f.cluster.pool_stats();
        let mut policy = ArenaPolicy::with_variant(ArenaVariant::NoAdaptivity);
        let actions = policy.schedule(SchedEvent::Arrival(1), &f.view(&queued, &[], &pools));
        assert!(matches!(
            actions.as_slice(),
            [Action::Place {
                job: 1,
                gpus: 8,
                ..
            }]
        ));
    }

    #[test]
    fn nh_variant_keeps_requested_pool() {
        let f = Fixture::new();
        let queued = vec![job(1, 1.3, 8, 1)];
        let pools = f.cluster.pool_stats();
        let mut policy = ArenaPolicy::with_variant(ArenaVariant::NoHeterogeneity);
        let actions = policy.schedule(SchedEvent::Arrival(1), &f.view(&queued, &[], &pools));
        match actions.as_slice() {
            [Action::Place { job: 1, pool, .. }] => assert_eq!(pool.0, 1),
            other => panic!("unexpected actions {other:?}"),
        }
    }

    #[test]
    fn downscales_running_job_under_pressure() {
        let f = Fixture::new();
        // Both pools nearly full: one running job holds 32 of 32 A40s...
        let mut running = vec![job(1, 1.3, 16, 0)];
        running[0].placement = Some(PlacementView {
            pool: GpuTypeId(0),
            gpus: 32,
            throughput_sps: 100.0,
            opportunistic: false,
        });
        let queued = vec![job(2, 0.76, 8, 0)];
        let mut pools = f.cluster.pool_stats();
        pools[0].free_gpus = 0; // A40 full
        pools[1].free_gpus = 0; // A10 full
        let mut policy = ArenaPolicy::new();
        let actions = policy.schedule(SchedEvent::Arrival(2), &f.view(&queued, &running, &pools));
        // The policy must emit a scaling move (downscale or pool move of
        // job 1 is impossible since pool 1 is full -> downscale) and then
        // place job 2.
        assert!(
            actions.iter().any(|a| matches!(
                a,
                Action::Place {
                    job: 1,
                    gpus: 16,
                    ..
                }
            )),
            "no downscale in {actions:?}"
        );
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::Place { job: 2, .. })),
            "queued job not placed in {actions:?}"
        );
    }

    #[test]
    fn hopeless_deadline_jobs_dropped_early() {
        let f = Fixture::new();
        let mut j = job(1, 2.6, 8, 0);
        std::sync::Arc::make_mut(&mut j.spec).deadline_s = Some(1.0); // Impossible deadline.
        let queued = vec![j];
        let pools = f.cluster.pool_stats();
        let mut policy = ArenaPolicy::with_variant(ArenaVariant::Deadline);
        let actions = policy.schedule(SchedEvent::Arrival(1), &f.view(&queued, &[], &pools));
        assert_eq!(actions, vec![Action::Drop { job: 1 }]);
    }

    #[test]
    fn opportunistic_backfill_behind_pending_job() {
        let f = Fixture::new();
        // Queue: a huge job that cannot fit, then a small one that can.
        let queued = vec![job(1, 6.7, 64, 0), job(2, 0.76, 2, 0)];
        let mut pools = f.cluster.pool_stats();
        pools[0].free_gpus = 8; // Not enough for job 1 even at 32.
        pools[1].free_gpus = 0;
        let mut policy = ArenaPolicy::new().with_search_depth(0);
        let actions = policy.schedule(SchedEvent::Round, &f.view(&queued, &[], &pools));
        assert!(
            actions.iter().any(|a| matches!(
                a,
                Action::Place {
                    job: 2,
                    opportunistic: true,
                    ..
                }
            )),
            "no opportunistic backfill in {actions:?}"
        );
        assert!(!actions
            .iter()
            .any(|a| matches!(a, Action::Place { job: 1, .. })));
    }

    #[test]
    fn no_opportunistic_knob_suppresses_backfill() {
        let f = Fixture::new();
        let queued = vec![job(1, 6.7, 64, 0), job(2, 0.76, 2, 0)];
        let mut pools = f.cluster.pool_stats();
        pools[0].free_gpus = 8;
        pools[1].free_gpus = 0;
        let mut policy = ArenaPolicy::new()
            .with_search_depth(0)
            .without_opportunistic();
        let actions = policy.schedule(SchedEvent::Round, &f.view(&queued, &[], &pools));
        assert!(
            !actions.iter().any(|a| matches!(a, Action::Place { .. })),
            "backfill happened despite the knob: {actions:?}"
        );
    }

    #[test]
    fn shortest_first_reorders_queue() {
        let f = Fixture::new();
        // Job 1 is long, job 2 short; only one can fit.
        let mut long = job(1, 1.3, 8, 0);
        long.remaining_iters = 100_000.0;
        let mut short = job(2, 1.3, 8, 0);
        short.remaining_iters = 10.0;
        let queued = vec![long, short];
        let mut pools = f.cluster.pool_stats();
        pools[0].free_gpus = 8;
        pools[1].free_gpus = 0;
        let mut policy = ArenaPolicy::new()
            .with_search_depth(0)
            .with_queue_order(QueueOrder::ShortestFirst)
            .without_opportunistic();
        let actions = policy.schedule(SchedEvent::Round, &f.view(&queued, &[], &pools));
        let placed: Vec<u64> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Place { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        assert!(
            placed.contains(&2),
            "short job not placed first: {actions:?}"
        );
        assert!(!placed.contains(&1));
    }

    #[test]
    fn failure_aware_placement_prefers_healthy_pool() {
        // Two *identical* pools: every candidate scores the same in both,
        // so the failure-aware ranking must decide.
        let spec = arena_cluster::NodeSpec::with_default_links(arena_cluster::GpuSpec::A40, 4);
        let cluster = arena_cluster::Cluster::new(&[(spec, 8), (spec, 8)]);
        let service = PlanService::new(&cluster, CostParams::default(), 3);
        let mut pools = cluster.pool_stats();
        // Pool 0 lost half its nodes; pool 1 is intact.
        pools[0].free_gpus = 16;
        pools[0].failed_gpus = 16;
        let queued = vec![job(1, 1.3, 8, 0)];
        let view = SchedView {
            now_s: 0.0,
            queued: &queued,
            running: &[],
            pools: &pools,
            service: &service,
            obs: arena_obs::Obs::disabled(),
        };
        let mut policy = ArenaPolicy::new();
        let actions = policy.schedule(SchedEvent::Round, &view);
        match actions.as_slice() {
            [Action::Place { job: 1, pool, .. }] => {
                assert_eq!(pool.0, 1, "placed into the degraded pool: {actions:?}");
            }
            other => panic!("unexpected actions {other:?}"),
        }
    }

    #[test]
    fn nan_scored_candidate_cannot_panic_ranking() {
        // A NaN score (an estimator bug upstream) must neither panic the
        // comparator nor float to the top of the ranking.
        let cand = |pool: usize, score: f64| Candidate {
            pool: GpuTypeId(pool),
            gpus: 8,
            score,
            iter_time_s: 1.0,
        };
        let f = Fixture::new();
        let mut pools = f.cluster.pool_stats();
        let mut cands = vec![cand(0, f64::NAN), cand(1, 0.9), cand(0, 1.1)];
        rank_candidates(&mut cands, &pools);
        assert_eq!(cands[0].score, 1.1);
        assert!(cands[2].score.is_nan(), "NaN must rank last: {cands:?}");
        // Same under the failure-aware (degraded) ranking.
        pools[0].failed_gpus = 8;
        let mut cands = vec![cand(0, f64::NAN), cand(1, 0.9), cand(1, f64::NAN)];
        rank_candidates(&mut cands, &pools);
        assert_eq!(cands[0].score, 0.9);
        assert!(cands[1].score.is_nan() && cands[2].score.is_nan());
    }

    #[test]
    fn nan_remaining_work_cannot_panic_scheduler() {
        // A NaN remaining-work estimate must not panic the
        // shortest-first queue sort; the poisoned job just sorts last.
        let f = Fixture::new();
        let mut poisoned = job(1, 1.3, 8, 0);
        poisoned.remaining_iters = f64::NAN;
        let queued = vec![poisoned, job(2, 1.3, 8, 0), job(3, 1.3, 8, 1)];
        let pools = f.cluster.pool_stats();
        let mut policy = ArenaPolicy::new().with_queue_order(QueueOrder::ShortestFirst);
        let actions = policy.schedule(SchedEvent::Round, &f.view(&queued, &[], &pools));
        assert!(!actions.is_empty());
    }

    #[test]
    fn memo_leaves_schedule_unchanged() {
        let f = Fixture::new();
        let queued: Vec<JobView> = (0..6).map(|i| job(i, 1.3, 8, (i % 2) as usize)).collect();
        let pools = f.cluster.pool_stats();
        let reference = ArenaPolicy::new()
            .without_candidate_memo()
            .schedule(SchedEvent::Round, &f.view(&queued, &[], &pools));
        let actions = ArenaPolicy::new().schedule(SchedEvent::Round, &f.view(&queued, &[], &pools));
        assert_eq!(actions, reference);
    }

    #[test]
    fn memo_hits_on_quiet_rounds_and_flushes_on_capacity_change() {
        let f = Fixture::new();
        // Two same-class jobs: the second one's candidate list is a memo
        // hit even within the first pass.
        let queued = vec![job(1, 1.3, 8, 0), job(2, 1.3, 8, 0)];
        let mut pools = f.cluster.pool_stats();
        pools[0].free_gpus = 0;
        pools[1].free_gpus = 0; // Nothing places, so pool state stays put.
        let mut policy = ArenaPolicy::new();
        let view = f.view(&queued, &[], &pools);
        let _ = policy.schedule(SchedEvent::Round, &view);
        let s1 = policy.candidate_memo_stats();
        assert!(s1.hits > 0, "same-class job should hit the memo: {s1:?}");
        assert!(s1.misses > 0);
        // A quiet round re-enumerates nothing.
        let _ = policy.schedule(SchedEvent::Round, &view);
        let s2 = policy.candidate_memo_stats();
        assert_eq!(s2.misses, s1.misses, "quiet round re-enumerated: {s2:?}");
        assert_eq!(s2.invalidations, 0);
        // Capacity moved (e.g. an allocation elsewhere): memo flushes.
        pools[0].free_gpus = 8;
        let _ = policy.schedule(SchedEvent::Round, &f.view(&queued, &[], &pools));
        let s3 = policy.candidate_memo_stats();
        assert_eq!(s3.invalidations, 1);
        assert!(s3.misses > s2.misses);
    }

    #[test]
    fn candidate_cap_only_trims_the_ranked_tail() {
        let f = Fixture::new();
        let queued: Vec<JobView> = (0..4).map(|i| job(i, 1.3, 8, (i % 2) as usize)).collect();
        let pools = f.cluster.pool_stats();
        let reference = ArenaPolicy::new()
            .without_candidate_memo()
            .schedule(SchedEvent::Round, &f.view(&queued, &[], &pools));

        // A cap wider than any grid never binds: no truncations, no
        // provenance counter, identical schedule.
        let mut roomy = ArenaPolicy::new().with_candidate_cap(64);
        assert_eq!(
            roomy.schedule(SchedEvent::Round, &f.view(&queued, &[], &pools)),
            reference
        );
        assert_eq!(roomy.capped_lists(), 0);

        // cap = 1 keeps only each list's best-ranked candidate. The head
        // of the ranking is untouched, so the first job still lands on
        // the same cell; later jobs lose their fallback candidates (the
        // cap genuinely binds — that is its point) and the provenance
        // counter fires.
        let mut tight = ArenaPolicy::new().with_candidate_cap(1);
        let actions = tight.schedule(SchedEvent::Round, &f.view(&queued, &[], &pools));
        assert!(tight.capped_lists() > 0, "cap of 1 never bound");
        assert_eq!(
            actions.first(),
            reference.first(),
            "top-ranked placement must survive the cap"
        );
    }

    #[test]
    fn memo_limits_leave_schedule_unchanged() {
        let f = Fixture::new();
        let queued: Vec<JobView> = (0..6).map(|i| job(i, 1.3, 8, (i % 2) as usize)).collect();
        let pools = f.cluster.pool_stats();
        let reference = ArenaPolicy::new()
            .without_candidate_memo()
            .schedule(SchedEvent::Round, &f.view(&queued, &[], &pools));
        // An adversarially tiny memo (one entry, one-pass age) evicts on
        // nearly every lookup yet must reproduce the reference schedule:
        // eviction only moves the hit/miss split.
        let mut tiny = ArenaPolicy::new()
            .with_memo_capacity(1)
            .with_memo_max_age(1);
        let actions = tiny.schedule(SchedEvent::Round, &f.view(&queued, &[], &pools));
        assert_eq!(actions, reference);
        let s = tiny.candidate_memo_stats();
        assert!(s.evictions > 0, "one-entry memo never evicted: {s:?}");
    }

    #[test]
    fn upscales_on_departure() {
        let f = Fixture::new();
        let mut running = vec![job(1, 1.3, 8, 0)];
        running[0].placement = Some(PlacementView {
            pool: GpuTypeId(0),
            gpus: 8,
            throughput_sps: 100.0,
            opportunistic: false,
        });
        let pools = f.cluster.pool_stats(); // All free besides job 1.
        let mut policy = ArenaPolicy::new();
        let actions = policy.schedule(SchedEvent::Departure(9), &f.view(&[], &running, &pools));
        assert!(
            actions.iter().any(|a| matches!(
                a,
                Action::Place {
                    job: 1,
                    gpus: 16,
                    ..
                }
            )),
            "no upscale in {actions:?}"
        );
    }
}
