//! The three simulation workloads, driven through `arena::sim::Engine` —
//! the loop every `simulate*` entry point, the streaming driver and the
//! daemon share.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use arena::cluster::{presets, Cluster};
use arena::perf::CostParams;
use arena::sched::{policy_by_name, PlanService, Policy, POLICY_NAMES};
use arena::sim::{
    record_fingerprint, Engine, JobRecord, MetricsRegistry, Obs, ShardPlan, SimConfig, SimResult,
    StreamSummary,
};
use arena::trace::{GenSource, JobSpec, TraceConfig, TraceSource};

use crate::inputs::{self, Inputs};
use crate::layers::Layers;
use crate::probe::{self, span, PolicyStats, Timed, TimedSource};
use crate::report::{median, vm_hwm_mib, LatHist, Report};

/// Set-up samples taken before each repetition; the run reports the
/// median of all of them, so the set-up is sampled across the whole run
/// like the other timings.
const SETUP_SAMPLES: usize = 5;

/// Each set-up sample repeats the set-up for at least this long and
/// reports the mean, so a microsecond set-up is not one timer reading.
const SETUP_SAMPLE_S: f64 = 0.002;

/// Streaming look-ahead: every arrival within this many seconds of the
/// earliest unconsumed one is already submitted before a burst, so the
/// burst sees exactly the arrivals the batch driver would hand it (the
/// engine's burst window is 1 µs).
const LOOKAHEAD_S: f64 = 1.0;

/// An arrival counts as consumed once the engine clock is this close to
/// it. Larger than the engine's burst window, so a job is never thought
/// pending after the engine took it.
const CONSUMED_EPS_S: f64 = 1e-3;

/// What the timed phase of a workload measured.
#[derive(Default)]
pub struct Timing {
    /// Wall-clock of the timed phase: bursts, streaming pulls and
    /// submits, the final fold.
    pub wall_s: f64,
    /// One sample per `Engine::step` of the current repetition.
    pub step: LatHist,
    /// Jobs the timed phase scheduled.
    pub jobs: u64,
    /// Each finished repetition's median burst latency and burst count.
    reps: Vec<(f64, usize)>,
}

impl Timing {
    /// Closes a repetition: keeps its median burst latency and starts a
    /// fresh histogram for the next one.
    fn end_rep(&mut self) {
        let h = std::mem::take(&mut self.step);
        self.reps.push((h.quantile(0.5), h.len()));
    }
}

/// How one run is observed: untraced, or with spans, a registry and the
/// policy decorator.
pub struct Mode {
    pub registry: Option<Arc<MetricsRegistry>>,
}

impl Mode {
    pub fn untraced() -> Self {
        Mode { registry: None }
    }

    fn obs(&self) -> Obs {
        self.registry
            .as_ref()
            .map_or_else(Obs::disabled, |r| Obs::metrics_only(Arc::clone(r)))
    }
}

/// Calls `rep` at least once and then while another call still fits in
/// `seconds`, so a run measures for about `seconds` on any host. `rep`
/// returns whether it succeeded; a failed call ends the run early.
pub fn repeat_for(seconds: f64, mut rep: impl FnMut() -> bool) {
    let started = Instant::now();
    let mut n = 0u32;
    loop {
        let ok = rep();
        n += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if !ok || elapsed + elapsed / f64::from(n) > seconds {
            break;
        }
    }
}

/// [`SETUP_SAMPLES`] samples of one set-up's wall-clock.
fn setup_samples(mut set_up: impl FnMut()) -> Vec<f64> {
    (0..SETUP_SAMPLES)
        .map(|_| {
            let started = Instant::now();
            let mut n = 0u32;
            loop {
                set_up();
                n += 1;
                let elapsed = started.elapsed().as_secs_f64();
                if elapsed >= SETUP_SAMPLE_S {
                    break elapsed / f64::from(n);
                }
            }
        })
        .collect()
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// One `step`, timed as a command sample.
fn step(engine: &mut Engine<'_>, t: &mut Timing) -> bool {
    let started = Instant::now();
    let more = {
        let _s = span("sim.step");
        engine.step()
    };
    t.step.record(started.elapsed().as_secs_f64());
    more
}

/// Hands a sorted trace and fault schedule to a fresh engine: the set-up
/// a batch run pays before its first burst. Returns the engine and the
/// number of refused inputs.
fn load<'a>(
    cluster: &Cluster,
    inp: &Inputs,
    policy: &'a mut dyn Policy,
    service: &'a PlanService,
    cfg: &SimConfig,
    obs: &Obs,
) -> (Engine<'a>, Vec<bool>) {
    let plan = ShardPlan::per_pool(cluster);
    let mut engine = Engine::new(cluster, policy, service, cfg, obs, &plan);
    let mut ok = Vec::with_capacity(inp.jobs.len() + inp.faults.len());
    for job in &inp.jobs {
        ok.push(engine.submit(job.clone()).is_ok());
    }
    for fault in &inp.faults {
        ok.push(engine.inject_fault(fault.clone()).is_ok());
    }
    engine.close_input();
    (engine, ok)
}

/// Runs a loaded engine to the end and folds the result.
fn drain(mut engine: Engine<'_>, t: &mut Timing) -> SimResult {
    let started = Instant::now();
    while step(&mut engine, t) {}
    let result = {
        let _s = span("sim.finish");
        engine.finish()
    };
    t.wall_s += started.elapsed().as_secs_f64();
    result
}

/// One policy's run over one trace.
pub struct PolicyRun {
    pub policy: &'static str,
    pub result: SimResult,
    /// The decorator's view of the run (traced runs only).
    pub stats: Option<PolicyStats>,
    /// Policy time of the same run replayed on the now-warm plan
    /// service (traced runs only).
    pub warm_busy_s: f64,
}

/// Runs `policy` over a materialised trace on a fresh plan service.
#[allow(clippy::too_many_arguments)]
pub fn run_batch(
    inp: &Inputs,
    policy: &'static str,
    service_seed: u64,
    cfg: &SimConfig,
    mode: &Mode,
    t: &mut Timing,
    report: &mut Report,
    layers: &mut Layers,
) -> PolicyRun {
    let service = PlanService::new(&inp.cluster, CostParams::default(), service_seed);
    let inner = policy_by_name(policy, 1).expect("policy names come from POLICY_NAMES");
    let obs = mode.obs();
    let ok = |report: &mut Report, oks: &[bool]| {
        for &o in oks {
            report.op(o);
        }
    };
    report.op(true); // the policy run itself; a panic aborts the workload
    t.jobs += inp.jobs.len() as u64;
    if mode.registry.is_none() {
        let mut p = inner;
        let (engine, oks) = load(&inp.cluster, inp, p.as_mut(), &service, cfg, &obs);
        ok(report, &oks);
        let result = drain(engine, t);
        return PolicyRun {
            policy,
            result,
            stats: None,
            warm_busy_s: 0.0,
        };
    }
    let mut timed = Timed::new(inner);
    let (engine, oks) = load(&inp.cluster, inp, &mut timed, &service, cfg, &obs);
    ok(report, &oks);
    let result = drain(engine, t);
    // Policy self time: the same trace again on the warm service, with
    // spans paused so the replay stays out of the attribution.
    let paused = probe::uninstall();
    let mut warm = Timed::new(policy_by_name(policy, 1).expect("known policy"));
    let (engine, _) = load(
        &inp.cluster,
        inp,
        &mut warm,
        &service,
        cfg,
        &Obs::disabled(),
    );
    let replay = drain(engine, &mut Timing::default());
    if let Some(tr) = paused {
        probe::reinstall(tr);
    }
    report.check(
        &format!("{policy}: warm replay reproduces the run"),
        record_fingerprint(&replay.records) == record_fingerprint(&result.records),
    );
    layers.absorb_service(&service);
    layers.peak_live_jobs = layers.peak_live_jobs.max(peak_live(&result.records));
    PolicyRun {
        policy,
        result,
        stats: Some(timed.stats),
        warm_busy_s: warm.stats.busy_s,
    }
}

/// Peak concurrently live jobs, swept from the records.
fn peak_live(records: &[JobRecord]) -> usize {
    let mut ev: Vec<(f64, i64)> = Vec::with_capacity(2 * records.len());
    for r in records {
        ev.push((r.submit_s, 1));
        if let Some(f) = r.finish_s {
            ev.push((f, -1));
        }
    }
    ev.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut live, mut peak) = (0i64, 0i64);
    for (_, d) in ev {
        live += d;
        peak = peak.max(live);
    }
    peak as usize
}

/// Records `submitted = finished + dropped + unfinished` for a run.
fn check_conservation(report: &mut Report, what: &str, r: &SimResult, submitted: usize) {
    let m = &r.metrics;
    report.check(
        &format!("{what}: submitted = finished + dropped + unfinished"),
        m.finished + m.dropped + m.unfinished == submitted && r.records.len() == submitted,
    );
}

/// Outcome of one policy in one repetition.
struct Outcome {
    jct_sum: f64,
    finished: u64,
    queue_sum: f64,
    started: u64,
    common_jct_sum: f64,
    common_n: u64,
}

/// The timing metrics of a run, aggregated over all its repetitions —
/// jobs/s over the whole run, the median burst latency as the mean of
/// each repetition's. The host's speed drifts in blocks of seconds; these
/// averages follow the drift smoothly, where a median of repetitions
/// jumps between the slow and fast blocks.
pub fn emit_timings(report: &mut Report, t: &Timing) {
    let p50s: Vec<f64> = t.reps.iter().map(|r| r.0).collect();
    report.metric("jobs_per_s", t.jobs as f64 / t.wall_s, "1/s");
    report.metric("peak_rss_mb", vm_hwm_mib(None).unwrap_or(0.0), "MiB");
    report.metric("cmd_p50_ms", mean(&p50s) * 1e3, "ms");
    eprintln!(
        "  {} jobs in {:.3} s; {} repetitions of {} bursts",
        t.jobs,
        t.wall_s,
        t.reps.len(),
        t.reps.first().map_or(0, |r| r.1)
    );
}

/// A batch workload: every policy in `policies` over one trace, repeated.
pub struct Batch {
    pub name: &'static str,
    /// Builds the workload's cluster (part of the timed set-up).
    pub cluster: fn() -> Cluster,
    pub policies: &'static [&'static str],
    pub service_seed: u64,
    pub cfg: SimConfig,
    pub input: Inputs,
    /// Seconds a measured run repeats the input for.
    pub seconds: f64,
    /// Cluster preset `repro serve` takes the trace on in the traced run,
    /// for the server layer's metrics; `None` leaves them at zero.
    pub serve_on: Option<&'static str>,
}

/// Traced repetitions in a `--trace 1` run, each paired with an
/// untraced one for the overhead ratio.
const TRACE_PAIRS: u64 = 2;

impl Batch {
    /// One repetition: every policy over the trace, in order.
    fn rep(
        &self,
        mode: &Mode,
        t: &mut Timing,
        report: &mut Report,
        layers: &mut Layers,
    ) -> Vec<PolicyRun> {
        let inp = &self.input;
        let runs: Vec<PolicyRun> = self
            .policies
            .iter()
            .enumerate()
            .map(|(j, &p)| {
                probe::set_run(j as u32);
                let run = run_batch(
                    inp,
                    p,
                    self.service_seed,
                    &self.cfg,
                    mode,
                    t,
                    report,
                    layers,
                );
                check_conservation(report, p, &run.result, inp.jobs.len());
                run
            })
            .collect();
        runs
    }

    fn fingerprints(runs: &[PolicyRun]) -> Vec<u64> {
        runs.iter()
            .map(|r| record_fingerprint(&r.result.records))
            .collect()
    }

    /// Wall-clock samples of building the cluster, every policy's plan
    /// service, policy and engine, and handing over the trace.
    fn setup_s(&self) -> Vec<f64> {
        let inp = &self.input;
        setup_samples(|| {
            let cluster = (self.cluster)();
            for &p in self.policies {
                let service = PlanService::new(&cluster, CostParams::default(), self.service_seed);
                let mut policy = policy_by_name(p, 1).expect("known policy");
                let (engine, _) = load(
                    &cluster,
                    inp,
                    policy.as_mut(),
                    &service,
                    &self.cfg,
                    &Obs::disabled(),
                );
                std::hint::black_box(&engine);
            }
        })
    }

    /// Outcome metrics of the last policy in the list (Arena in the
    /// comparison); with more than one policy, the gains compare it with
    /// the best baseline.
    fn outcomes(&self, runs: &[PolicyRun]) -> (f64, f64, f64, (f64, f64)) {
        let np = runs.len();
        // Jobs every policy finished, for the survivorship-free JCT.
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for run in runs {
            for rec in run.result.records.iter().filter(|r| r.finish_s.is_some()) {
                *counts.entry(rec.id).or_insert(0) += 1;
            }
        }
        let outcome = |r: &SimResult| {
            let mut o = Outcome {
                jct_sum: 0.0,
                finished: 0,
                queue_sum: 0.0,
                started: 0,
                common_jct_sum: 0.0,
                common_n: 0,
            };
            for rec in &r.records {
                if let Some(j) = rec.jct_s() {
                    o.jct_sum += j;
                    o.finished += 1;
                    if counts.get(&rec.id) == Some(&np) {
                        o.common_jct_sum += j;
                        o.common_n += 1;
                    }
                }
                if let Some(q) = rec.queue_s() {
                    o.queue_sum += q;
                    o.started += 1;
                }
            }
            o
        };
        let all: Vec<Outcome> = runs.iter().map(|r| outcome(&r.result)).collect();
        let subject = &all[np - 1];
        let m = &runs[np - 1].result.metrics;
        let gains = if np == 1 {
            (1.0, 1.0)
        } else {
            let common = |o: &Outcome| o.common_jct_sum / o.common_n.max(1) as f64;
            let best_jct = all[..np - 1]
                .iter()
                .map(common)
                .fold(f64::INFINITY, f64::min);
            let best_thpt = runs[..np - 1]
                .iter()
                .map(|r| r.result.metrics.avg_throughput)
                .fold(0.0, f64::max);
            (best_jct / common(subject), m.avg_throughput / best_thpt)
        };
        (
            subject.jct_sum / subject.finished.max(1) as f64,
            subject.queue_sum / subject.started.max(1) as f64,
            m.cluster_util_frac,
            gains,
        )
    }

    /// The untraced measurement: end-to-end metrics.
    pub fn measure(&self, report: &mut Report) {
        report.check(
            "every job is admissible",
            self.input
                .jobs
                .iter()
                .all(|j| inputs::admissible(j, &self.input.cluster)),
        );
        let mut setup = Vec::new();
        let mut t = Timing::default();
        let mut first: Option<Vec<PolicyRun>> = None;
        repeat_for(self.seconds, || {
            setup.extend(self.setup_s());
            let runs = self.rep(&Mode::untraced(), &mut t, report, &mut Layers::default());
            t.end_rep();
            match &first {
                None => first = Some(runs),
                Some(f) => report.check(
                    "every repetition reproduces the first",
                    Self::fingerprints(f) == Self::fingerprints(&runs),
                ),
            }
            true
        });
        let (jct, queue, util, gains) = self.outcomes(&first.expect("at least one repetition"));
        report.metric("setup_s", median(&setup), "s");
        emit_timings(report, &t);
        report.metric("avg_jct_s", jct, "s");
        report.metric("avg_queue_s", queue, "s");
        report.metric("cluster_util", util, "ratio");
        report.metric("jct_gain", gains.0, "ratio");
        report.metric("thpt_gain", gains.1, "ratio");
    }

    /// The traced run: untraced and traced repetitions of the same
    /// inputs in turn, then cold replays of the workload's keys.
    pub fn trace(&self, repro: &Path, report: &mut Report, out: &Path, seed: u64) {
        let mut layers = Layers::default();
        let mode = Mode {
            registry: Some(Arc::new(MetricsRegistry::new(256))),
        };
        for _ in 0..TRACE_PAIRS {
            let mut t0 = Timing::default();
            let plain = self.rep(&Mode::untraced(), &mut t0, report, &mut Layers::default());
            match layers.tracer.take() {
                Some(t) => probe::reinstall(t),
                None => probe::install(),
            }
            let mut t1 = Timing::default();
            let traced = self.rep(&mode, &mut t1, report, &mut layers);
            layers.tracer = probe::uninstall();
            report.check(
                "traced fingerprints equal untraced",
                Self::fingerprints(&plain) == Self::fingerprints(&traced),
            );
            layers.wall_untraced_s += t0.wall_s;
            layers.wall_traced_s += t1.wall_s;
            for run in traced {
                let stats = run.stats.unwrap_or_default();
                layers.add_policy(run.policy, stats, run.warm_busy_s, Some(&self.input.jobs));
            }
        }
        layers.registry = mode.registry;
        layers.pull_s = self.input.pull_s;
        if let Some(cluster) = self.serve_on {
            layers.server = Some(crate::daemon::serve_trace(
                repro,
                cluster,
                &self.input.jobs,
                out,
                report,
            ));
        }
        let jobs: Vec<&JobSpec> = self.input.jobs.iter().collect();
        layers.replay(&self.input.cluster, &jobs, self.service_seed);
        layers.emit(report);
        layers.write_artifact(out, self.name, seed);
    }
}

/// `hetero_compare`: the five policies in turn over the `fig16 --quick`
/// trace on the Table-1 cluster.
pub fn hetero_compare(seed: u64, seconds: u64) -> Batch {
    Batch {
        name: "hetero_compare",
        cluster: presets::table1_simulated,
        policies: &POLICY_NAMES,
        service_seed: 16,
        cfg: SimConfig::new(3.5 * 86_400.0),
        input: inputs::hetero(seed),
        seconds: seconds as f64,
        serve_on: Some("table1"),
    }
}

/// `deep_queue_faults`: FCFS over 5,000 arrivals with node failures on
/// the 64-GPU testbed.
pub fn deep_queue_faults(seed: u64, seconds: u64) -> Batch {
    Batch {
        name: "deep_queue_faults",
        cluster: presets::physical_testbed,
        policies: &["fcfs"],
        service_seed: 51,
        cfg: SimConfig::new(30.0 * 86_400.0),
        input: inputs::deep_queue(seed),
        seconds: seconds as f64,
        serve_on: None,
    }
}

/// `fleet_stream`: FCFS streams 100,000 PAI-low jobs per repetition from
/// the generator through a record-folding engine on 2,048 A100s.
pub struct Fleet {
    cluster: Cluster,
    trace: TraceConfig,
    seed: u64,
    cfg: SimConfig,
    seconds: f64,
}

pub fn fleet_stream(seed: u64, seconds: u64) -> Fleet {
    let cluster = inputs::fleet_cluster();
    Fleet {
        trace: inputs::fleet_trace(&cluster),
        cluster,
        seed,
        cfg: SimConfig::new(4.1e9),
        seconds: seconds as f64,
    }
}

const FLEET_SERVICE_SEED: u64 = 51;

impl Fleet {
    fn engine<'a>(
        &self,
        cluster: &Cluster,
        policy: &'a mut dyn Policy,
        service: &'a PlanService,
        obs: &Obs,
    ) -> Engine<'a> {
        let plan = ShardPlan::per_pool(cluster);
        let mut engine = Engine::new(cluster, policy, service, &self.cfg, obs, &plan);
        engine.enable_record_fold();
        engine
    }

    /// Streams the trace once: pulls arrivals just ahead of the engine
    /// clock, submits them, and steps the engine until it drains.
    fn stream(
        &self,
        policy: &mut dyn Policy,
        service: &PlanService,
        obs: &Obs,
        t: &mut Timing,
        report: &mut Report,
    ) -> (StreamSummary, f64) {
        let mut engine = self.engine(&self.cluster, policy, service, obs);
        let mut source = TimedSource::new(inputs::fleet_source(&self.trace, self.seed));
        let started = Instant::now();
        let mut pull = |report: &mut Report| match source.next_job() {
            Ok(job) => job,
            Err(_) => {
                report.op(false);
                None
            }
        };
        let mut unconsumed: VecDeque<f64> = VecDeque::new();
        let mut next = pull(report);
        loop {
            while let Some(job) = next.take() {
                if unconsumed
                    .front()
                    .is_some_and(|&f| job.submit_s > f + LOOKAHEAD_S)
                {
                    next = Some(job);
                    break;
                }
                let admissible = inputs::admissible(&job, &self.cluster);
                unconsumed.push_back(job.submit_s);
                let ok = {
                    let _s = span("sim.submit");
                    engine.submit(job).is_ok()
                };
                report.op(ok && admissible);
                next = pull(report);
            }
            if next.is_none() && engine.input_open() {
                engine.close_input();
            }
            let more = step(&mut engine, t);
            while unconsumed
                .front()
                .is_some_and(|&s| s <= engine.now() + CONSUMED_EPS_S)
            {
                unconsumed.pop_front();
            }
            if !more {
                break;
            }
        }
        let summary = {
            let _s = span("sim.finish");
            engine.finish_stream()
        };
        t.wall_s += started.elapsed().as_secs_f64();
        t.jobs += summary.jobs.jobs;
        (summary, source.busy_s)
    }

    /// One repetition on a fresh plan service.
    fn rep(
        &self,
        mode: &Mode,
        t: &mut Timing,
        report: &mut Report,
        layers: &mut Layers,
    ) -> StreamSummary {
        report.op(true);
        let inner = policy_by_name("fcfs", 1).expect("known policy");
        let service = PlanService::new(&self.cluster, CostParams::default(), FLEET_SERVICE_SEED);
        let obs = mode.obs();
        let summary = if mode.registry.is_some() {
            let mut timed = Timed::new(inner);
            let (summary, pull_s) = self.stream(&mut timed, &service, &obs, t, report);
            let paused = probe::uninstall();
            let mut warm = Timed::new(policy_by_name("fcfs", 1).expect("known policy"));
            let (replay, _) = self.stream(
                &mut warm,
                &service,
                &Obs::disabled(),
                &mut Timing::default(),
                &mut Report::default(),
            );
            if let Some(tr) = paused {
                probe::reinstall(tr);
            }
            report.check(
                "fleet_stream: warm replay reproduces the run",
                replay.fingerprint == summary.fingerprint,
            );
            layers.absorb_service(&service);
            layers.add_policy("fcfs", timed.stats, warm.stats.busy_s, None);
            layers.pull_s += pull_s;
            summary
        } else {
            let mut p = inner;
            self.stream(p.as_mut(), &service, &obs, t, report).0
        };
        let j = &summary.jobs;
        report.check(
            "fleet_stream folds exactly 100,000 jobs",
            j.jobs == inputs::FLEET_JOBS,
        );
        report.check(
            "fleet_stream: submitted = finished + dropped + unfinished",
            j.finished + j.dropped + j.unfinished == j.jobs,
        );
        layers.peak_live_jobs = layers.peak_live_jobs.max(summary.peak_live_jobs);
        summary
    }

    fn setup_s(&self) -> Vec<f64> {
        setup_samples(|| {
            let cluster = inputs::fleet_cluster();
            let service = PlanService::new(&cluster, CostParams::default(), FLEET_SERVICE_SEED);
            let mut policy = policy_by_name("fcfs", 1).expect("known policy");
            let engine = self.engine(&cluster, policy.as_mut(), &service, &Obs::disabled());
            let source = GenSource::new(&self.trace);
            std::hint::black_box((&engine, &source));
        })
    }

    pub fn measure(&self, report: &mut Report) {
        let mut setup = Vec::new();
        let mut t = Timing::default();
        let mut first: Option<StreamSummary> = None;
        repeat_for(self.seconds, || {
            setup.extend(self.setup_s());
            let summary = self.rep(&Mode::untraced(), &mut t, report, &mut Layers::default());
            t.end_rep();
            match &first {
                None => first = Some(summary),
                Some(f) => report.check(
                    "every repetition reproduces the first",
                    f.fingerprint == summary.fingerprint,
                ),
            }
            true
        });
        let s = first.expect("at least one repetition");
        report.metric("setup_s", median(&setup), "s");
        emit_timings(report, &t);
        report.metric("avg_jct_s", s.jobs.avg_jct_s(), "s");
        report.metric("avg_queue_s", s.jobs.avg_queue_s(), "s");
        report.metric("cluster_util", s.cluster_util_frac, "ratio");
        report.metric("jct_gain", 1.0, "ratio");
        report.metric("thpt_gain", 1.0, "ratio");
    }

    pub fn trace(&self, report: &mut Report, out: &Path, seed: u64) {
        let mut layers = Layers::default();
        let mode = Mode {
            registry: Some(Arc::new(MetricsRegistry::new(256))),
        };
        for _ in 0..TRACE_PAIRS {
            let mut t0 = Timing::default();
            let plain = self.rep(&Mode::untraced(), &mut t0, report, &mut Layers::default());
            match layers.tracer.take() {
                Some(t) => probe::reinstall(t),
                None => probe::install(),
            }
            let mut t1 = Timing::default();
            let traced = self.rep(&mode, &mut t1, report, &mut layers);
            layers.tracer = probe::uninstall();
            report.check(
                "fleet_stream: traced fingerprint equals untraced",
                plain.fingerprint == traced.fingerprint,
            );
            layers.wall_untraced_s += t0.wall_s;
            layers.wall_traced_s += t1.wall_s;
        }
        layers.registry = mode.registry;
        // The workload's own keys: one representative job per distinct
        // (model, GPU count) of the stream.
        let mut reps: HashMap<(String, usize, usize), JobSpec> = HashMap::new();
        let mut source = inputs::fleet_source(&self.trace, self.seed);
        while let Ok(Some(job)) = source.next_job() {
            reps.entry((job.model.name(), job.model.global_batch, job.requested_gpus))
                .or_insert(job);
        }
        let mut jobs: Vec<&JobSpec> = reps.values().collect();
        jobs.sort_by_key(|j| j.id);
        layers.replay(&self.cluster, &jobs, FLEET_SERVICE_SEED);
        layers.emit(report);
        layers.write_artifact(out, "fleet_stream", seed);
    }
}
