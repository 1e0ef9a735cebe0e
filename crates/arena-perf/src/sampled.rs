//! Sampled plan exploration over a per-partition stage-cost table.
//!
//! Every plan of one [`PlanSpace`] cuts the model at the same stage
//! boundaries and gives stage `s` one of a handful of `(dp, tp)` options,
//! and the gradient-accumulation escalation of
//! [`PerfModel::evaluate`](crate::PerfModel::evaluate) tries the same five
//! micro-batch counts for each. [`SampledSearch`] therefore prices every
//! `(stage, option, micro-batch count)` once, plus each stage's inbound
//! boundary term for a same-layout and a resharded cut, and composes each
//! sampled plan from that table. It measures exactly what
//! [`GroundTruth::measure`] measures — the same stage-cost functions, the
//! same composition and escalation, the same noise key — without
//! materialising a [`PipelinePlan`] or allocating per sample.

use std::fmt::Write as _;

use arena_model::ModelGraph;
use arena_parallelism::{PipelinePlan, PlanSpace, StageAssignment};

use crate::oracle::{GroundTruth, PlanNoise};
use crate::pipeline::{
    escalate, Composition, Infeasible, OpSums, PlanPerf, StageCost, ACCUMULATION_STEPS as STEPS,
};
use crate::target::HwTarget;

/// What [`GroundTruth::measure`] reports for one plan, minus the
/// breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Seconds per iteration (measured).
    pub iter_time_s: f64,
    /// Samples per second (measured).
    pub throughput_sps: f64,
}

/// A plan space's stage-cost table, ready to measure sampled plans.
#[derive(Debug)]
pub struct SampledSearch<'a> {
    gt: &'a GroundTruth,
    graph: &'a ModelGraph,
    global_batch: usize,
    space: &'a PlanSpace,
    hw: &'a HwTarget,
    /// Every plan of a space shares its partition, so either all of them
    /// cover the model or none does.
    valid: bool,
    /// Row of option 0 of each stage: stage `s`, option `o` is row
    /// `first[s] + o`.
    first: Vec<usize>,
    /// Stage-local costs, `STEPS` per row in micro-batch order.
    local: Vec<Result<StageCost, Infeasible>>,
    /// Every row's stage label, rendered once, back to back.
    labels: String,
    /// Each row's `(start, end)` in `labels`.
    label_spans: Vec<(usize, usize)>,
    /// Inbound boundary terms, `STEPS` per stage: `[same layout,
    /// resharded]` (zero for stage 0).
    boundary: Vec<[f64; 2]>,
}

impl<'a> SampledSearch<'a> {
    /// Prices every stage option of `space` at every micro-batch count
    /// the escalation tries.
    #[must_use]
    pub fn new(
        gt: &'a GroundTruth,
        graph: &'a ModelGraph,
        global_batch: usize,
        space: &'a PlanSpace,
        hw: &'a HwTarget,
    ) -> Self {
        let plan0 = space.plan_at_index(0);
        let rows = space.options().iter().map(Vec::len).sum::<usize>();
        let mut search = SampledSearch {
            gt,
            graph,
            global_batch,
            space,
            hw,
            valid: plan0.is_valid_for(graph),
            first: Vec::with_capacity(plan0.num_stages()),
            local: Vec::with_capacity(rows * STEPS),
            labels: String::new(),
            label_spans: Vec::with_capacity(rows),
            boundary: Vec::with_capacity(plan0.num_stages() * STEPS),
        };
        if !search.valid {
            return search;
        }
        let model = gt.model();
        let ch = hw.channel_for(plan0.total_gpus());
        let microbatches = plan0.microbatches();
        for (s, (st, opts)) in plan0.stages.iter().zip(space.options()).enumerate() {
            search.first.push(search.label_spans.len());
            let sums = OpSums::new(&graph.ops[st.op_range.clone()]);
            for &plan in opts {
                let st = StageAssignment {
                    op_range: st.op_range.clone(),
                    plan,
                };
                let start = search.labels.len();
                write!(search.labels, "{plan}").expect("writing to a String cannot fail");
                search.label_spans.push((start, search.labels.len()));
                search.local.extend(model.stage_local_costs::<STEPS>(
                    graph,
                    global_batch,
                    s,
                    &st,
                    &sums,
                    hw,
                    microbatches,
                ));
            }
            search.boundary.extend((0..STEPS).map(|step| {
                if s == 0 {
                    [0.0; 2]
                } else {
                    let b = microbatches << step;
                    let start = st.op_range.start;
                    [true, false]
                        .map(|same| model.boundary_in_s(graph, global_batch, start, b, ch, same))
                }
            }));
        }
        search
    }

    /// Measures the plans of `space.sample(cap)` in sample order,
    /// yielding each one's index in the space with what
    /// [`GroundTruth::measure`] returns for it, bit for bit.
    pub fn samples(
        &self,
        cap: usize,
    ) -> impl Iterator<Item = (u128, Result<Measured, Infeasible>)> + '_ {
        let mut walk = self.space.sample_walk(cap);
        let mut noise = self.gt.plan_noise(self.graph, self.global_batch, self.hw);
        std::iter::from_fn(move || {
            let (idx, digits) = walk.advance()?;
            Some((idx, self.measure(digits, &mut noise)))
        })
    }

    /// The fastest sample of `space.sample(cap)` by iteration time that
    /// also beats `bound` (strict `<`: the first of equals wins), as its
    /// index in the space and iteration time.
    ///
    /// `trial` sees each sample's iteration time (`None` when infeasible)
    /// in sample order and returns whether it needs the next one. Once it
    /// returns `false` it is not called again, and a sample whose
    /// noise-free time × [`GroundTruth::noise_floor`] is already `>=` the
    /// best time so far goes unmeasured: rounding is monotone and every
    /// factor is at least the floor, so its measured time could not beat
    /// the best either. The result is the full scan's, bit for bit.
    pub fn fastest(
        &self,
        cap: usize,
        bound: Option<f64>,
        mut trial: impl FnMut(Option<f64>) -> bool,
    ) -> Option<(u128, f64)> {
        let floor = self.gt.noise_floor();
        let mut timing = true;
        let mut best_t = bound;
        let mut winner = None;
        let mut walk = self.space.sample_walk(cap);
        let mut noise = self.gt.plan_noise(self.graph, self.global_batch, self.hw);
        while let Some((idx, digits)) = walk.advance() {
            let t = match self.evaluate(digits, false) {
                Ok(perf) if timing || best_t.is_none_or(|b| perf.iter_time_s * floor < b) => {
                    Some(self.perturb(digits, &perf, &mut noise).iter_time_s)
                }
                _ => None,
            };
            if timing {
                timing = trial(t);
            }
            if let Some(t) = t {
                if best_t.is_none_or(|b| t < b) {
                    best_t = Some(t);
                    winner = Some((idx, t));
                }
            }
        }
        winner
    }

    /// A lower bound on the noise-free iteration time
    /// ([`PerfModel::evaluate`](crate::PerfModel::evaluate)) of every plan
    /// of the space, or `None` when no plan of it is feasible.
    ///
    /// At each micro-batch count, each stage contributes its feasible
    /// options' least busy time and least gradient synchronisation, and
    /// the lesser of its two boundary terms, folded through the same
    /// Fig. 10 composition a plan's stage costs fold through. Each step
    /// of that fold is a sum, a maximum or a product of non-negative
    /// terms (`dp_overlap` is a fraction), and rounding is monotone, so
    /// no plan is faster at that count. A plan is feasible only at counts
    /// where every stage has a feasible option, so the bound is the least
    /// over those counts.
    #[must_use]
    pub fn lower_bound(&self) -> Option<f64> {
        if !self.valid {
            return None;
        }
        let options = self.space.options();
        let microbatches = PipelinePlan::microbatches_for(options.len());
        let mut bound: Option<f64> = None;
        'count: for step in 0..STEPS {
            let mut comp = Composition::default();
            for (s, opts) in options.iter().enumerate() {
                let rows = self.first[s]..self.first[s] + opts.len();
                let least = rows
                    .filter_map(|row| self.local[row * STEPS + step].as_ref().ok())
                    .map(|cost| (cost.busy_s(), cost.dp_sync_s))
                    .reduce(|(busy, sync), (b, y)| (busy.min(b), sync.min(y)));
                let Some((busy_s, dp_sync_s)) = least else {
                    continue 'count;
                };
                let [same, reshard] = self.boundary[s * STEPS + step];
                comp.push(&StageCost {
                    mb_samples: 0.0,
                    compute_s: busy_s,
                    tp_comm_s: 0.0,
                    dispatch_s: 0.0,
                    boundary_in_s: same.min(reshard),
                    dp_sync_s,
                    mem_bytes: 0.0,
                });
            }
            let b = microbatches << step;
            let t = comp
                .perf(self.gt.params(), self.global_batch, b, Vec::new())
                .iter_time_s;
            bound = Some(bound.map_or(t, |lb| lb.min(t)));
        }
        bound
    }

    /// The sample of `space.sample(cap)` with the highest throughput (the
    /// first of equals wins), with its full measurement, by Alpa-style
    /// direct profiling: one trial per sample. `trial` sees every
    /// sample's iteration time (`None` when infeasible) in sample order,
    /// as [`Self::fastest`]'s does, so a caller sums the search's cost
    /// from [`GroundTruth::trial_wall_s`].
    pub fn profile_best(
        &self,
        cap: usize,
        mut trial: impl FnMut(Option<f64>),
    ) -> Option<(PipelinePlan, PlanPerf)> {
        let mut best: Option<(u128, Measured)> = None;
        for (idx, r) in self.samples(cap) {
            trial(r.as_ref().ok().map(|m| m.iter_time_s));
            if let Ok(m) = r {
                if best.is_none_or(|(_, b)| m.throughput_sps > b.throughput_sps) {
                    best = Some((idx, m));
                }
            }
        }
        // The winner's breakdown, with the times its sample measured.
        let (idx, m) = best?;
        let mut digits = Vec::new();
        self.space.digits_at_index(idx, &mut digits);
        let mut perf = self
            .evaluate(&digits, true)
            .expect("the winning sample was feasible");
        perf.iter_time_s = m.iter_time_s;
        perf.throughput_sps = m.throughput_sps;
        Some((self.space.plan_at_index(idx), perf))
    }

    /// [`GroundTruth::measure`] of the plan with per-stage option indices
    /// `digits`, without the breakdown.
    fn measure(&self, digits: &[usize], noise: &mut PlanNoise) -> Result<Measured, Infeasible> {
        let perf = self.evaluate(digits, false)?;
        Ok(self.perturb(digits, &perf, noise))
    }

    /// The measured times of the plan `digits` whose noise-free
    /// evaluation is `perf`.
    fn perturb(&self, digits: &[usize], perf: &PlanPerf, noise: &mut PlanNoise) -> Measured {
        let mut m = Measured {
            iter_time_s: perf.iter_time_s,
            throughput_sps: perf.throughput_sps,
        };
        let labels = digits.iter().enumerate().map(|(s, &d)| {
            let (start, end) = self.label_spans[self.first[s] + d];
            &self.labels[start..end]
        });
        noise.perturb(labels, &mut m.iter_time_s, &mut m.throughput_sps);
        m
    }

    /// [`PerfModel::evaluate`](crate::PerfModel::evaluate) of the plan with per-stage option indices
    /// `digits`, composed from the table; the stage breakdown is filled
    /// in only `with_stages`.
    fn evaluate(&self, digits: &[usize], with_stages: bool) -> Result<PlanPerf, Infeasible> {
        if !self.valid {
            return Err(Infeasible::InvalidPlan);
        }
        // Every micro-batch count in one pass over the stages: each
        // count's composition still folds its stages in stage order, and
        // its first error in stage order is the one `evaluate_at` meets.
        let mut comps = [Composition::default(); STEPS];
        let mut errors: [Option<&Infeasible>; STEPS] = [None; STEPS];
        for s in 0..digits.len() {
            let stage = self.stage(digits, s);
            for (step, (comp, error)) in comps.iter_mut().zip(&mut errors).enumerate() {
                if error.is_none() {
                    match stage.cost(step) {
                        Ok(cost) => comp.push(&cost),
                        Err(e) => *error = Some(e),
                    }
                }
            }
        }
        let params = self.gt.params();
        let (step, mut perf) = escalate(
            PipelinePlan::microbatches_for(digits.len()),
            |step, b| match errors[step] {
                Some(e) => Err(e.clone()),
                None => Ok((
                    step,
                    comps[step].perf(params, self.global_batch, b, Vec::new()),
                )),
            },
            |(_, perf)| perf.iter_time_s,
        )?;
        if with_stages {
            perf.stages = (0..digits.len())
                .map(|s| self.stage(digits, s).cost(step))
                .collect::<Result<_, _>>()
                .expect("the winning micro-batch count is feasible");
        }
        Ok(perf)
    }

    /// Stage `s` of the plan `digits`: its table row and the boundary
    /// term of its inbound cut.
    fn stage(&self, digits: &[usize], s: usize) -> TableStage<'_> {
        let reshard = s > 0 && {
            let options = self.space.options();
            let (prev, cur) = (options[s - 1][digits[s - 1]], options[s][digits[s]]);
            !(prev == cur && cur.tp == 1)
        };
        let row = self.first[s] + digits[s];
        TableStage {
            local: &self.local[row * STEPS..][..STEPS],
            boundary: &self.boundary[s * STEPS..][..STEPS],
            reshard: usize::from(reshard),
        }
    }
}

/// One stage of one plan, read off the table.
struct TableStage<'t> {
    local: &'t [Result<StageCost, Infeasible>],
    boundary: &'t [[f64; 2]],
    /// Index into each boundary pair: 0 for a same-layout cut.
    reshard: usize,
}

impl<'t> TableStage<'t> {
    /// The stage's cost at escalation step `step`.
    fn cost(&self, step: usize) -> Result<StageCost, &'t Infeasible> {
        let mut cost = *self.local[step].as_ref()?;
        cost.boundary_in_s = self.boundary[step][self.reshard];
        Ok(cost)
    }
}
