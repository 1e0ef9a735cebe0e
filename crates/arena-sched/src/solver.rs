//! Solver-enhanced Arena: joint assignment by beam search.
//!
//! The paper notes that "techniques based on solvers could also be
//! applied to enhance Crius" (§6) — its greedy policy is a deliberate
//! simplification. This variant implements that extension: at every
//! scheduling event it re-solves the *joint* assignment of all queued and
//! running jobs to their Cell candidates, maximising total normalised
//! estimated throughput minus restart penalties, subject to pool
//! capacities. The underlying problem is a multiple-choice knapsack
//! (NP-hard); a beam search over jobs ordered by their best candidate
//! gives high-quality solutions in well under a millisecond at testbed
//! scale, and degenerates gracefully (beam width 1 ≈ greedy).
//!
//! Empirically (see the `solver` experiment), the joint objective buys a
//! few percent of *cluster throughput* over greedy Arena but loses on
//! *JCT*: a pure instantaneous-throughput objective has no notion of
//! arrival order, so it parks low-value jobs indefinitely, where the
//! greedy policy's queue walk gives an implicit FIFO guarantee. This is
//! exactly the orthogonality the paper claims for solver techniques — the
//! objective, not the search, is the binding design choice.

use arena_cluster::GpuTypeId;
use arena_obs::Decision;

use crate::policy::{Action, JobView, PlanMode, Policy, SchedEvent, SchedView};

/// Normalised-throughput surcharge for changing a running job's placement.
/// Higher than the greedy policy's move penalty because the solver
/// re-solves from scratch at every event: without a strong stickiness
/// term, equivalent-valued assignments flip between events and the
/// cluster thrashes.
const RESTART_PENALTY: f64 = 0.35;

/// Small bonus for keeping a running job exactly where it is, breaking
/// ties between equal-valued placements deterministically in favour of
/// stability.
const STAY_BONUS: f64 = 0.05;

/// Running jobs within this many seconds of completion are pinned.
const PIN_REMAINING_S: f64 = 900.0;

/// One placement option for one job in the joint problem.
#[derive(Debug, Clone, Copy)]
struct Choice {
    /// `None` encodes "leave idle / evict".
    placement: Option<(GpuTypeId, usize)>,
    /// Effective objective contribution (score minus penalties).
    value: f64,
}

/// One job's row in the joint problem.
struct Item {
    job: u64,
    /// Home shard (requested pool) stamped on this row's decisions.
    home: u32,
    current: Option<(GpuTypeId, usize)>,
    choices: Vec<Choice>,
}

/// A partial assignment in the beam.
#[derive(Clone)]
struct State {
    free: Vec<usize>,
    value: f64,
    picks: Vec<usize>,
}

/// The solver-enhanced Cell scheduler.
#[derive(Debug)]
pub struct ArenaSolverPolicy {
    /// Beam width of the joint search.
    pub beam_width: usize,
}

impl Default for ArenaSolverPolicy {
    fn default() -> Self {
        ArenaSolverPolicy { beam_width: 64 }
    }
}

impl ArenaSolverPolicy {
    /// Creates the policy with the default beam width.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the beam width (1 ≈ greedy).
    #[must_use]
    pub fn with_beam_width(mut self, width: usize) -> Self {
        self.beam_width = width.max(1);
        self
    }

    /// The `{N_G/2, N_G, 2N_G}` GPU menu.
    fn gpu_menu(requested: usize) -> Vec<usize> {
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

    /// Builds a job's row: every feasible (pool, gpus) with its effective
    /// value, plus the idle option.
    fn item(view: &SchedView<'_>, job: &JobView) -> Item {
        let ideal = view.service.ideal_sps(&job.spec);
        let current = job.placement.map(|pl| (pl.pool, pl.gpus));

        // Pin jobs that are about to finish: a restart cannot pay off.
        let remaining_s = job.placement.map_or(f64::INFINITY, |pl| {
            if pl.throughput_sps > 0.0 {
                job.remaining_iters * job.spec.model.global_batch as f64 / pl.throughput_sps
            } else {
                f64::INFINITY
            }
        });
        if let Some(cur) = current {
            if remaining_s < PIN_REMAINING_S {
                return Item {
                    job: job.id(),
                    home: job.home_shard(),
                    current,
                    choices: vec![Choice {
                        placement: Some(cur),
                        value: 1.0,
                    }],
                };
            }
        }

        let mut choices = Vec::new();
        for pool in (0..view.pools.len()).map(GpuTypeId) {
            for gpus in Self::gpu_menu(job.spec.requested_gpus) {
                if let Some(c) = view.service.cell_choice(&job.spec.model, gpus, pool) {
                    let score = c.throughput_sps / ideal;
                    let adjust = match current {
                        Some(cur) if cur == (pool, gpus) => STAY_BONUS,
                        Some(_) => -RESTART_PENALTY,
                        None => 0.0,
                    };
                    choices.push(Choice {
                        placement: Some((pool, gpus)),
                        value: score + adjust,
                    });
                }
            }
        }
        // Idle: free for queued jobs, heavily discouraged for running ones.
        choices.push(Choice {
            placement: None,
            value: if current.is_some() {
                -2.0 * RESTART_PENALTY
            } else {
                0.0
            },
        });
        choices.sort_by(|a, b| b.value.total_cmp(&a.value));
        Item {
            job: job.id(),
            home: job.home_shard(),
            current,
            choices,
        }
    }

    /// Beam search over the joint assignment. Returns one choice index
    /// per item.
    fn solve(&self, items: &[Item], free: Vec<usize>) -> Vec<usize> {
        let mut beam = vec![State {
            free,
            value: 0.0,
            picks: Vec::with_capacity(items.len()),
        }];
        for item in items {
            let mut next: Vec<State> = Vec::with_capacity(beam.len() * item.choices.len());
            for state in &beam {
                for (ci, choice) in item.choices.iter().enumerate() {
                    let fits = match choice.placement {
                        Some((pool, gpus)) => state.free[pool.0] >= gpus,
                        None => true,
                    };
                    if !fits {
                        continue;
                    }
                    let mut s = state.clone();
                    if let Some((pool, gpus)) = choice.placement {
                        s.free[pool.0] -= gpus;
                    }
                    s.value += choice.value;
                    s.picks.push(ci);
                    next.push(s);
                }
            }
            next.sort_by(|a, b| b.value.total_cmp(&a.value));
            next.truncate(self.beam_width);
            beam = next;
        }
        beam.into_iter().next().map(|s| s.picks).unwrap_or_default()
    }
}

impl Policy for ArenaSolverPolicy {
    fn name(&self) -> &'static str {
        "Arena-Solver"
    }

    fn plan_mode(&self) -> PlanMode {
        PlanMode::Cell
    }

    fn schedule(&mut self, _event: SchedEvent, view: &SchedView<'_>) -> Vec<Action> {
        // All live jobs participate; the free pool excludes nothing since
        // running jobs' GPUs are re-offered through their own rows.
        let mut free: Vec<usize> = view.pools.iter().map(|p| p.free_gpus).collect();
        let mut actions = Vec::new();

        let mut items: Vec<Item> = Vec::new();
        for job in view.running.iter().chain(view.queued.iter()) {
            let item = Self::item(view, job);
            if item.choices.len() == 1 && item.current.is_none() {
                // Queued and infeasible everywhere: reject.
                view.obs.decision(
                    Decision::drop(item.job)
                        .on_shard(item.home)
                        .why("infeasible-everywhere"),
                );
                actions.push(Action::Drop { job: item.job });
                continue;
            }
            if let Some((pool, gpus)) = item.current {
                free[pool.0] += gpus;
            }
            items.push(item);
        }

        // Jobs with the most to contribute are assigned first, so the beam
        // fills capacity with high-value placements before low-value ones.
        items.sort_by(|a, b| b.choices[0].value.total_cmp(&a.choices[0].value));

        let picks = self.solve(&items, free);
        for (item, &pick) in items.iter().zip(&picks) {
            let choice = item.choices[pick];
            match (item.current, choice.placement) {
                (cur, Some((pool, gpus))) if cur != Some((pool, gpus)) => {
                    let mut d = Decision::place(item.job, pool.0, gpus)
                        .on_shard(item.home)
                        .with_score(choice.value)
                        .why("joint-assignment");
                    if let Some((p, g)) = cur {
                        d = d.moving_from(p.0, g);
                    }
                    view.obs.decision(d);
                    actions.push(Action::Place {
                        job: item.job,
                        pool,
                        gpus,
                        opportunistic: false,
                    });
                }
                (Some(_), None) => {
                    view.obs.decision(
                        Decision::evict(item.job)
                            .on_shard(item.home)
                            .with_score(choice.value)
                            .why("solver-park"),
                    );
                    actions.push(Action::Evict { job: item.job });
                }
                _ => {}
            }
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

    fn job(id: u64, gpus: usize) -> JobView {
        JobView {
            spec: std::sync::Arc::new(JobSpec {
                id,
                name: format!("j{id}"),
                submit_s: 0.0,
                model: ModelConfig::new(ModelFamily::Bert, 1.3, 256),
                iterations: 1000,
                requested_gpus: gpus,
                requested_pool: 0,
                deadline_s: None,
            }),
            remaining_iters: 1000.0,
            placement: None,
        }
    }

    #[test]
    fn packs_two_jobs_where_greedy_would_pend_one() {
        let cluster = presets::physical_testbed();
        let service = PlanService::new(&cluster, CostParams::default(), 31);
        let queued = vec![job(1, 8), job(2, 8)];
        let mut pools = cluster.pool_stats();
        pools[0].free_gpus = 8; // Only 8 A40s free in total.
        pools[1].free_gpus = 0;
        let view = SchedView {
            now_s: 0.0,
            queued: &queued,
            running: &[],
            pools: &pools,
            service: &service,
            obs: arena_obs::Obs::disabled(),
        };
        let actions = ArenaSolverPolicy::new().schedule(SchedEvent::Round, &view);
        let placed: Vec<u64> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Place { job, gpus: 4, .. } => Some(*job),
                _ => None,
            })
            .collect();
        assert_eq!(
            placed.len(),
            2,
            "solver did not halve both jobs: {actions:?}"
        );
    }

    #[test]
    fn keeps_running_jobs_in_place_absent_pressure() {
        let cluster = presets::physical_testbed();
        let service = PlanService::new(&cluster, CostParams::default(), 32);
        let mut running = vec![job(1, 8)];
        running[0].placement = Some(PlacementView {
            pool: GpuTypeId(0),
            gpus: 8,
            throughput_sps: 100.0,
            opportunistic: false,
        });
        let mut pools = cluster.pool_stats();
        pools[0].free_gpus -= 8;
        let view = SchedView {
            now_s: 0.0,
            queued: &[],
            running: &running,
            pools: &pools,
            service: &service,
            obs: arena_obs::Obs::disabled(),
        };
        let actions = ArenaSolverPolicy::new().schedule(SchedEvent::Round, &view);
        // The restart penalty makes marginal reshuffles unattractive; at
        // most an upscale onto genuinely idle capacity is allowed.
        for a in &actions {
            assert!(
                matches!(a, Action::Place { job: 1, gpus, .. } if *gpus >= 8),
                "unexpected churn: {actions:?}"
            );
        }
    }

    #[test]
    fn beam_width_one_is_still_feasible() {
        let cluster = presets::physical_testbed();
        let service = PlanService::new(&cluster, CostParams::default(), 33);
        let queued = vec![job(1, 4), job(2, 4), job(3, 4)];
        let pools = cluster.pool_stats();
        let view = SchedView {
            now_s: 0.0,
            queued: &queued,
            running: &[],
            pools: &pools,
            service: &service,
            obs: arena_obs::Obs::disabled(),
        };
        let actions = ArenaSolverPolicy::new()
            .with_beam_width(1)
            .schedule(SchedEvent::Round, &view);
        let places = actions
            .iter()
            .filter(|a| matches!(a, Action::Place { .. }))
            .count();
        assert_eq!(places, 3);
    }

    #[test]
    fn infeasible_job_dropped() {
        let cluster = presets::physical_testbed();
        let service = PlanService::new(&cluster, CostParams::default(), 34);
        let mut j = job(1, 2);
        let spec = std::sync::Arc::make_mut(&mut j.spec);
        spec.model = ModelConfig::new(ModelFamily::Moe, 27.0, 256);
        spec.requested_gpus = 1; // menu {1, 2}: hopeless for MoE-27B
        let queued = vec![j];
        let pools = cluster.pool_stats();
        let view = SchedView {
            now_s: 0.0,
            queued: &queued,
            running: &[],
            pools: &pools,
            service: &service,
            obs: arena_obs::Obs::disabled(),
        };
        let actions = ArenaSolverPolicy::new().schedule(SchedEvent::Round, &view);
        assert_eq!(actions, vec![Action::Drop { job: 1 }]);
    }
}
