//! Golden-trace harness for the observability layer.
//!
//! Three contracts, over a small deterministic testbed workload:
//!
//! 1. **Golden snapshots** — each policy's decision provenance
//!    (counts per `kind/reason`, first/last decisions including their
//!    home-shard stamps) matches the committed snapshot under
//!    `tests/snapshots/`. Regenerate after an intended behaviour change
//!    with `UPDATE_SNAPSHOTS=1 cargo test` (the older `UPDATE_GOLDEN=1`
//!    spelling still works).
//! 2. **Tracing neutrality** — enabling the tracer changes no simulator
//!    output: timelines and metrics are bitwise identical to an untraced
//!    run (only the wall-clock decision timer is exempt).
//! 3. **Conformance** — every `Place` / `Drop` action a policy returns
//!    has exactly one matching [`Decision`] recorded in the same pass.

use std::path::PathBuf;

use arena::prelude::*;
use arena::sched::{Action, PlanMode, SchedEvent, SchedView};

fn small_trace(n: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            let fam =
                [ModelFamily::Bert, ModelFamily::Moe, ModelFamily::WideResNet][(i % 3) as usize];
            let size = match fam {
                ModelFamily::Bert => [0.76, 1.3][(i % 2) as usize],
                ModelFamily::Moe => [0.69, 1.3][(i % 2) as usize],
                ModelFamily::WideResNet => [0.5, 1.0][(i % 2) as usize],
            };
            JobSpec {
                id: i,
                name: format!("j{i}"),
                submit_s: 120.0 * i as f64,
                model: ModelConfig::new(fam, size, 256),
                iterations: 2500 + 600 * (i % 4),
                requested_gpus: [2, 4, 8][(i % 3) as usize],
                requested_pool: (i % 2) as usize,
                deadline_s: None,
            }
        })
        .collect()
}

/// The comparison set with execution knobs pinned: `ArenaPolicy::new()`
/// reads `ARENA_WORKER_THREADS` from the environment, and golden
/// snapshots must not depend on what the test runner happens to have
/// exported, so the worker count is fixed to 1 here.
fn policy_set() -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(FcfsPolicy::new()),
        Box::new(GandivaPolicy::new()),
        Box::new(GavelPolicy::new()),
        Box::new(ElasticFlowPolicy::loosened()),
        Box::new(ArenaPolicy::new().with_worker_threads(1)),
    ]
}

fn run_traced(policy: &mut dyn Policy, obs: &Obs) -> SimResult {
    let cluster = arena::cluster::presets::physical_testbed();
    let service = PlanService::new(&cluster, CostParams::default(), 33);
    let cfg = SimConfig::new(24.0 * 3600.0);
    Run::new(&cluster, policy, &service, &cfg)
        .obs(obs)
        .batch(&small_trace(16))
}

fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

fn snapshot_path(policy: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("trace_{}.txt", slug(policy)))
}

#[test]
fn golden_decision_traces_match_snapshots() {
    let update =
        std::env::var("UPDATE_SNAPSHOTS").is_ok() || std::env::var("UPDATE_GOLDEN").is_ok();
    for mut p in policy_set() {
        let obs = Obs::enabled();
        let r = run_traced(p.as_mut(), &obs);
        assert!(
            !r.trace.decisions.is_empty(),
            "{}: traced run recorded no decisions",
            r.policy
        );
        // Placement provenance carries the job's home shard, and it
        // survives into the snapshot's compact decision lines.
        assert!(
            r.trace
                .decisions
                .iter()
                .filter(|d| d.kind == DecisionKind::Place)
                .all(|d| d.shard.is_some()),
            "{}: placement decision missing home-shard stamp",
            r.policy
        );
        let got = r.trace.golden_summary(5);
        assert!(
            got.contains("shard="),
            "{}: snapshot lost shard provenance",
            r.policy
        );
        let path = snapshot_path(&r.policy);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing snapshot {path:?} ({e}); regenerate with UPDATE_SNAPSHOTS=1")
        });
        assert_eq!(
            got, want,
            "{}: golden trace drifted; if the change is intended, \
             regenerate with UPDATE_SNAPSHOTS=1 cargo test",
            r.policy
        );
    }
}

#[test]
fn tracing_does_not_change_simulator_output() {
    for (mut traced, mut plain) in policy_set().into_iter().zip(policy_set()) {
        let obs = Obs::enabled();
        let a = run_traced(traced.as_mut(), &obs);
        let b = run_traced(plain.as_mut(), &Obs::disabled());
        assert!(!a.trace.decisions.is_empty() || a.records.is_empty());
        assert!(b.trace.is_empty(), "disabled run must record nothing");
        assert_eq!(a.timeline, b.timeline, "{}: timeline drift", a.policy);
        assert_eq!(a.raw_timeline, b.raw_timeline);
        for (ra, rb) in a.records.iter().zip(b.records.iter()) {
            assert_eq!(ra.id, rb.id);
            assert_eq!(ra.start_s, rb.start_s);
            assert_eq!(ra.finish_s, rb.finish_s);
            assert_eq!(ra.restarts, rb.restarts);
            assert_eq!(ra.dropped, rb.dropped);
        }
        // Every metric except the wall-clock decision timer is bitwise
        // equal (same exemption as the fault determinism test).
        let (mut ma, mut mb) = (a.metrics.clone(), b.metrics.clone());
        ma.avg_decision_s = 0.0;
        mb.avg_decision_s = 0.0;
        assert_eq!(
            format!("{ma:?}"),
            format!("{mb:?}"),
            "{}: tracing changed metrics",
            a.policy
        );
    }
}

/// Wraps a policy and asserts, on every pass, that each `Place` / `Drop`
/// action it returns has exactly one matching decision recorded during
/// that pass.
struct AssertingPolicy {
    inner: Box<dyn Policy>,
    matched: usize,
}

impl Policy for AssertingPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan_mode(&self) -> PlanMode {
        self.inner.plan_mode()
    }

    fn schedule(&mut self, event: SchedEvent, view: &SchedView<'_>) -> Vec<Action> {
        let before = view.obs.decision_count();
        let actions = self.inner.schedule(event, view);
        let new = view.obs.decisions_after(before);
        for a in &actions {
            match *a {
                Action::Place {
                    job,
                    pool,
                    gpus,
                    opportunistic,
                } => {
                    let n = new
                        .iter()
                        .filter(|d| {
                            d.kind == DecisionKind::Place
                                && d.job == job
                                && d.pool == Some(pool.0)
                                && d.gpus == Some(gpus)
                                && d.opportunistic == opportunistic
                        })
                        .count();
                    assert_eq!(
                        n,
                        1,
                        "{}: Place(job {job}, pool {}, {gpus} GPUs) has {n} \
                         matching decisions among {new:#?}",
                        self.inner.name(),
                        pool.0
                    );
                    self.matched += 1;
                }
                Action::Drop { job } => {
                    let n = new
                        .iter()
                        .filter(|d| d.kind == DecisionKind::Drop && d.job == job)
                        .count();
                    assert_eq!(
                        n,
                        1,
                        "{}: Drop(job {job}) has {n} matching decisions",
                        self.inner.name()
                    );
                    self.matched += 1;
                }
                Action::Evict { .. } => {}
            }
        }
        actions
    }
}

#[test]
fn every_place_and_drop_action_has_exactly_one_decision() {
    for inner in policy_set() {
        let mut p = AssertingPolicy { inner, matched: 0 };
        let obs = Obs::enabled();
        let r = run_traced(&mut p, &obs);
        assert!(
            p.matched > 0,
            "{}: conformance check never fired (no place/drop actions)",
            r.policy
        );
        assert!(!r.trace.decisions.is_empty());
    }
}

#[test]
fn decision_log_exports_one_json_object_per_decision() {
    let obs = Obs::enabled();
    let r = run_traced(&mut ArenaPolicy::new().with_worker_threads(1), &obs);
    let jsonl = r.trace.decisions_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), r.trace.decisions.len());
    for line in lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line {line}"
        );
        let v: serde::Value = serde_json::from_str(line).expect("valid JSON");
        let fields = v.as_object().expect("decision is a JSON object");
        assert!(fields.iter().any(|(k, _)| k == "seq"));
        assert!(fields.iter().any(|(k, _)| k == "reason"));
    }
}
