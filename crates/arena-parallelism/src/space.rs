//! Enumeration of a Cell's parallelism exploration space (§4.2, §5.1).

use crate::plan::{PipelinePlan, StageAssignment, StagePlan};
use crate::stages::StagePartition;

/// All `(dp, tp)` splits of `g` GPUs with power-of-two factors.
///
/// For a power-of-two `g` this yields `log2(g) + 1` options ordered from
/// DP-only to TP-only — the single-stage exploration axis of Fig. 11. For
/// a non-power-of-two `g` (rare; stage determination rounds to powers of
/// two) only the two pure splits are offered.
#[must_use]
pub fn stage_plan_options(g: usize) -> Vec<StagePlan> {
    assert!(g > 0, "a stage must own at least one GPU");
    if g.is_power_of_two() {
        let bits = g.trailing_zeros();
        (0..=bits)
            .map(|t| StagePlan {
                dp: g >> t,
                tp: 1 << t,
            })
            .collect()
    } else if g == 1 {
        vec![StagePlan { dp: 1, tp: 1 }]
    } else {
        vec![StagePlan::dp_only(g), StagePlan::tp_only(g)]
    }
}

/// The full exploration space of a Cell: the cartesian product of each
/// stage's `(dp, tp)` options.
///
/// The space is iterated lazily; it is never materialised, because for
/// deep pipelines it holds `(log2(g) + 1)^S` plans.
#[derive(Debug, Clone)]
pub struct PlanSpace {
    partition: StagePartition,
    options: Vec<Vec<StagePlan>>,
}

impl PlanSpace {
    /// Builds the exploration space of a stage partition.
    #[must_use]
    pub fn new(partition: StagePartition) -> Self {
        let options = partition
            .gpus
            .iter()
            .map(|&g| stage_plan_options(g))
            .collect();
        PlanSpace { partition, options }
    }

    /// Builds a *restricted* space from explicit per-stage option lists
    /// (used by the Cell-guided tuner to search a pruned space).
    ///
    /// # Panics
    ///
    /// Panics if the option list length differs from the stage count or
    /// any option's GPU count differs from the stage's allocation.
    #[must_use]
    pub fn with_options(partition: StagePartition, options: Vec<Vec<StagePlan>>) -> Self {
        assert_eq!(options.len(), partition.num_stages());
        for (opts, &g) in options.iter().zip(&partition.gpus) {
            assert!(!opts.is_empty(), "a stage must keep at least one option");
            assert!(opts.iter().all(|p| p.gpus() == g));
        }
        PlanSpace { partition, options }
    }

    /// The underlying stage partition.
    #[must_use]
    pub fn partition(&self) -> &StagePartition {
        &self.partition
    }

    /// Per-stage option lists.
    #[must_use]
    pub fn options(&self) -> &[Vec<StagePlan>] {
        &self.options
    }

    /// Number of plans in the space, saturating at `usize::MAX`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len_u128().min(usize::MAX as u128) as usize
    }

    /// Exact number of plans in the space (deep pipelines overflow usize).
    #[must_use]
    pub fn len_u128(&self) -> u128 {
        self.options.iter().map(|o| o.len() as u128).product()
    }

    /// Materialises the `idx`-th plan in mixed-radix order (stage 0 is the
    /// least-significant digit).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len_u128()`.
    #[must_use]
    pub fn plan_at_index(&self, idx: u128) -> PipelinePlan {
        let mut digits = Vec::with_capacity(self.options.len());
        self.digits_at_index(idx, &mut digits);
        self.plan_at(&digits)
    }

    /// Writes the per-stage option indices of the `idx`-th plan (its
    /// mixed-radix digits) into `digits`, replacing its contents.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len_u128()`.
    pub fn digits_at_index(&self, mut idx: u128, digits: &mut Vec<usize>) {
        assert!(idx < self.len_u128(), "plan index out of range");
        digits.clear();
        digits.extend(self.options.iter().map(|opts| {
            let d = (idx % opts.len() as u128) as usize;
            idx /= opts.len() as u128;
            d
        }));
    }

    /// An evenly strided sample of at most `cap` plans covering the space.
    pub fn sample(&self, cap: usize) -> impl Iterator<Item = PipelinePlan> + '_ {
        let mut walk = self.sample_walk(cap);
        std::iter::from_fn(move || walk.advance().map(|(_, digits)| self.plan_at(digits)))
    }

    /// The plans of [`sample`](Self::sample) as per-stage option indices,
    /// without materialising them.
    #[must_use]
    pub fn sample_walk(&self, cap: usize) -> SampleWalk<'_> {
        let total = self.len_u128();
        let take = (cap.max(1) as u128).min(total);
        let stride = total.checked_div(take).unwrap_or(1);
        let mut stride_digits = Vec::with_capacity(self.options.len());
        if take > 1 {
            self.digits_at_index(stride, &mut stride_digits);
        }
        SampleWalk {
            options: &self.options,
            stride,
            stride_digits,
            digits: Vec::new(),
            index: 0,
            left: take,
        }
    }

    /// Whether the space is empty (never true for a valid partition).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over every plan in the space.
    pub fn iter(&self) -> impl Iterator<Item = PipelinePlan> + '_ {
        PlanSpaceIter {
            space: self,
            idx: vec![0; self.options.len()],
            done: false,
        }
    }

    /// Materialises the plan at the given per-stage option indices.
    fn plan_at(&self, idx: &[usize]) -> PipelinePlan {
        let stages = self
            .partition
            .ranges
            .iter()
            .zip(idx)
            .enumerate()
            .map(|(s, (range, &i))| StageAssignment {
                op_range: range.clone(),
                plan: self.options[s][i],
            })
            .collect();
        PipelinePlan { stages }
    }
}

/// The plans an evenly strided sample visits, in order, as per-stage
/// option indices (see [`PlanSpace::sample_walk`]).
///
/// Each step adds the stride's mixed-radix digits to the previous plan's
/// with carry, which is exact below the space size, so no step divides.
#[derive(Debug)]
pub struct SampleWalk<'a> {
    options: &'a [Vec<StagePlan>],
    stride: u128,
    stride_digits: Vec<usize>,
    digits: Vec<usize>,
    index: u128,
    left: u128,
}

impl SampleWalk<'_> {
    /// The next sampled plan: its index in the space and its per-stage
    /// option indices (stage 0 first).
    pub fn advance(&mut self) -> Option<(u128, &[usize])> {
        if self.left == 0 {
            return None;
        }
        if self.digits.is_empty() {
            self.digits.resize(self.options.len(), 0);
        } else {
            self.index += self.stride;
            let mut carry = 0;
            for ((digit, &step), opts) in self
                .digits
                .iter_mut()
                .zip(&self.stride_digits)
                .zip(self.options)
            {
                let sum = *digit + step + carry;
                carry = usize::from(sum >= opts.len());
                *digit = sum - carry * opts.len();
            }
        }
        self.left -= 1;
        Some((self.index, &self.digits))
    }
}

struct PlanSpaceIter<'a> {
    space: &'a PlanSpace,
    idx: Vec<usize>,
    done: bool,
}

impl Iterator for PlanSpaceIter<'_> {
    type Item = PipelinePlan;

    fn next(&mut self) -> Option<PipelinePlan> {
        if self.done {
            return None;
        }
        let plan = self.space.plan_at(&self.idx);
        // Odometer increment.
        let mut carried = true;
        for (i, digit) in self.idx.iter_mut().enumerate() {
            *digit += 1;
            if *digit < self.space.options[i].len() {
                carried = false;
                break;
            }
            *digit = 0;
        }
        if carried {
            self.done = true;
        }
        Some(plan)
    }
}

/// The estimator's `2^Ns` assembled plans (§5.1): every combination of
/// DP-only / TP-only per stage.
///
/// This is the grid sample of the full space that the agile estimator
/// prices by combining two physical profilings per stage with offline
/// communication tables (Fig. 9).
#[must_use]
pub fn assembled_plans(partition: &StagePartition) -> Vec<PipelinePlan> {
    let s = partition.num_stages();
    let mut out = Vec::with_capacity(1 << s);
    for mask in 0..(1_u64 << s) {
        let stages = partition
            .ranges
            .iter()
            .zip(&partition.gpus)
            .enumerate()
            .map(|(i, (range, &g))| StageAssignment {
                op_range: range.clone(),
                plan: if mask >> i & 1 == 0 {
                    StagePlan::dp_only(g)
                } else {
                    StagePlan::tp_only(g)
                },
            })
            .collect();
        out.push(PipelinePlan { stages });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use arena_model::zoo::{ModelConfig, ModelFamily};

    fn partition(gpus: &[usize]) -> StagePartition {
        // A synthetic partition over a model with `gpus.len() * 2` ops.
        let ranges = (0..gpus.len()).map(|i| 2 * i..2 * i + 2).collect();
        StagePartition {
            ranges,
            gpus: gpus.to_vec(),
        }
    }

    #[test]
    fn options_for_pow2() {
        let opts = stage_plan_options(8);
        assert_eq!(opts.len(), 4);
        assert_eq!(opts[0], StagePlan::dp_only(8));
        assert_eq!(opts[3], StagePlan::tp_only(8));
        assert!(opts.iter().all(|p| p.gpus() == 8));
    }

    #[test]
    fn options_for_one_gpu() {
        assert_eq!(stage_plan_options(1), vec![StagePlan { dp: 1, tp: 1 }]);
    }

    #[test]
    fn options_for_non_pow2() {
        let opts = stage_plan_options(6);
        assert_eq!(opts.len(), 2);
        assert!(opts.iter().all(|p| p.gpus() == 6));
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_panics() {
        let _ = stage_plan_options(0);
    }

    #[test]
    fn space_size_is_product() {
        let space = PlanSpace::new(partition(&[4, 4]));
        assert_eq!(space.len(), 3 * 3);
        assert_eq!(space.iter().count(), 9);
    }

    #[test]
    fn space_iterates_unique_valid_plans() {
        let space = PlanSpace::new(partition(&[2, 4, 2]));
        let plans: Vec<_> = space.iter().collect();
        assert_eq!(plans.len(), 2 * 3 * 2);
        let labels: std::collections::HashSet<String> =
            plans.iter().map(PipelinePlan::label).collect();
        assert_eq!(labels.len(), plans.len(), "duplicate plans in space");
        for p in &plans {
            assert_eq!(p.total_gpus(), 8);
        }
    }

    #[test]
    fn assembled_is_pow2_count_and_subset_of_space() {
        let part = partition(&[4, 4, 4]);
        let assembled = assembled_plans(&part);
        assert_eq!(assembled.len(), 8);
        let full: std::collections::HashSet<String> =
            PlanSpace::new(part).iter().map(|p| p.label()).collect();
        for p in &assembled {
            assert!(full.contains(&p.label()), "{} not in full space", p.label());
        }
    }

    #[test]
    fn assembled_covers_pure_corners() {
        let part = partition(&[4, 4]);
        let labels: Vec<String> = assembled_plans(&part).iter().map(|p| p.label()).collect();
        assert!(labels.contains(&"P2[D4T1,D4T1]".to_string()));
        assert!(labels.contains(&"P2[D1T4,D1T4]".to_string()));
    }

    #[test]
    fn indexed_access_matches_iteration() {
        let space = PlanSpace::new(partition(&[2, 4, 2]));
        let by_iter: Vec<String> = space.iter().map(|p| p.label()).collect();
        let by_index: Vec<String> = (0..space.len_u128())
            .map(|i| space.plan_at_index(i).label())
            .collect();
        assert_eq!(by_iter, by_index);
    }

    #[test]
    fn sample_covers_and_bounds() {
        let space = PlanSpace::new(partition(&[4, 4, 4]));
        assert_eq!(space.sample(1000).count(), space.len());
        let sampled: Vec<_> = space.sample(5).collect();
        assert_eq!(sampled.len(), 5);
        // Sampled plans are distinct and include the first plan.
        let labels: std::collections::HashSet<String> =
            sampled.iter().map(PipelinePlan::label).collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn sample_walk_matches_strided_indices() {
        for gpus in [&[2, 4, 2][..], &[8, 8, 8, 4], &[3, 6], &[1], &[4; 9]] {
            let space = PlanSpace::new(partition(gpus));
            let total = space.len_u128();
            for cap in [1, 2, 5, 7, 192, usize::MAX] {
                let take = (cap as u128).min(total);
                let stride = total / take;
                let mut walk = space.sample_walk(cap);
                let mut seen = 0;
                while let Some((idx, digits)) = walk.advance() {
                    assert_eq!(idx, seen * stride);
                    let mut expected = Vec::new();
                    space.digits_at_index(idx, &mut expected);
                    assert_eq!(digits, &expected[..], "{gpus:?} cap {cap} sample {seen}");
                    seen += 1;
                }
                assert_eq!(seen, take);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn plan_index_out_of_range_panics() {
        let space = PlanSpace::new(partition(&[2]));
        let _ = space.plan_at_index(99);
    }

    #[test]
    fn restricted_space() {
        let part = partition(&[4, 4]);
        let opts = vec![
            vec![StagePlan::dp_only(4), StagePlan { dp: 2, tp: 2 }],
            vec![StagePlan::tp_only(4)],
        ];
        let space = PlanSpace::with_options(part, opts);
        assert_eq!(space.len(), 2);
    }

    #[test]
    fn end_to_end_with_real_partition() {
        let g = ModelConfig::new(ModelFamily::Bert, 1.3, 256).build();
        let part = crate::stages::determine_stages(&g, 8, 4).unwrap();
        let space = PlanSpace::new(part.clone());
        for plan in space.iter() {
            assert!(plan.is_valid_for(&g));
        }
        for plan in assembled_plans(&part) {
            assert!(plan.is_valid_for(&g));
        }
    }
}
