//! Seeded workload inputs. Every job is admissible under the daemon's
//! admission rules (requested GPUs within the requested pool, Table-2
//! model configs only, at least one iteration, existing pools only), so
//! tightening admission cannot change any workload.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use arena::cluster::{presets, Cluster, GpuTypeId};
use arena::trace::{
    generate_faults, FaultConfig, FaultEvent, GenSource, JobSpec, TakeSource, TraceConfig,
    TraceKind, TraceSource,
};

use crate::probe::TimedSource;

/// Generator seed of every workload's job population. The run's seed
/// perturbs that population — arrival jitter, the fault schedule — so
/// runs with different seeds see different inputs of the same shape and
/// their outcome metrics stay comparable.
const POPULATION_SEED: u64 = 0xA0EA;

/// Jobs in the daemon workload: replayed from the resume log, then
/// streamed over TCP. The stream is long enough for p95s of both the
/// submitter's and the reader's round trips (≥200 samples each).
pub const DAEMON_RESUME_JOBS: usize = 200;
pub const DAEMON_STREAM_JOBS: usize = 250;

/// Arrivals in one `deep_queue_faults` trace.
pub const DEEP_QUEUE_JOBS: usize = 5_000;

/// Jobs one `fleet_stream` run folds.
pub const FLEET_JOBS: u64 = 100_000;

/// Derives an independent seed from the workload seed (splitmix64).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// GPUs in one pool.
pub fn pool_gpus(cluster: &Cluster, pool: usize) -> usize {
    let id = GpuTypeId(pool);
    cluster.num_nodes(id) * cluster.spec(id).gpus_per_node
}

/// Whether a job passes the admission rules.
pub fn admissible(job: &JobSpec, cluster: &Cluster) -> bool {
    let m = &job.model;
    job.requested_pool < cluster.num_pools()
        && job.requested_gpus >= 1
        && job.requested_gpus <= pool_gpus(cluster, job.requested_pool)
        && job.iterations >= 1
        && m.family.table2_sizes().contains(&m.params_b)
        && m.family.table2_batches().contains(&m.global_batch)
}

fn pool_mems(cluster: &Cluster) -> Vec<f64> {
    cluster
        .pool_stats()
        .iter()
        .map(|p| p.spec.gpu.mem_gib)
        .collect()
}

/// One workload's materialised inputs.
pub struct Inputs {
    pub cluster: Cluster,
    pub jobs: Vec<JobSpec>,
    pub faults: Vec<FaultEvent>,
    /// Wall-clock spent pulling the trace from the generator.
    pub pull_s: f64,
}

/// A uniform draw in `[0, 1)` keyed by `(seed, i)`.
fn unit(seed: u64, i: u64) -> f64 {
    (mix(seed, i) >> 11) as f64 / (1u64 << 53) as f64
}

/// Mean inter-arrival gap over the first arrivals of a trace.
fn mean_gap_s(cfg: &TraceConfig) -> f64 {
    let head: Vec<f64> = GenSource::new(cfg)
        .take(1_000)
        .map(|j| j.submit_s)
        .collect();
    match (head.first(), head.last()) {
        (Some(first), Some(last)) if head.len() > 1 => (last - first) / (head.len() - 1) as f64,
        _ => 0.0,
    }
}

struct Delayed {
    at_s: f64,
    seq: u64,
    job: JobSpec,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Delayed {}

impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Delayed {
    // Reversed: `BinaryHeap` pops the earliest arrival first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at_s
            .total_cmp(&self.at_s)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Delays every arrival of a sorted source by a seeded uniform offset of
/// up to `gap_s` and streams the result in time order, renumbering ids
/// and names densely in the new order. Only arrivals within `gap_s` of
/// each other can swap, so a small buffer suffices.
pub struct Jittered<S> {
    inner: S,
    seed: u64,
    gap_s: f64,
    buffer: BinaryHeap<Delayed>,
    next: Option<JobSpec>,
    inner_done: bool,
    pulled: u64,
    emitted: u64,
}

impl<S: TraceSource> Jittered<S> {
    pub fn new(inner: S, seed: u64, gap_s: f64) -> Self {
        Jittered {
            inner,
            seed,
            gap_s,
            buffer: BinaryHeap::new(),
            next: None,
            inner_done: false,
            pulled: 0,
            emitted: 0,
        }
    }
}

impl<S: TraceSource> TraceSource for Jittered<S> {
    fn next_job(&mut self) -> std::io::Result<Option<JobSpec>> {
        loop {
            if self.next.is_none() && !self.inner_done {
                self.next = self.inner.next_job()?;
                self.inner_done = self.next.is_none();
            }
            // Every later arrival lands at or after the next original
            // submit time, so the buffer's head is final once it is
            // earlier than that.
            let head_final = match (&self.next, self.buffer.peek()) {
                (None, _) => true,
                (Some(n), Some(head)) => head.at_s <= n.submit_s,
                (Some(_), None) => false,
            };
            if head_final {
                break;
            }
            let job = self.next.take().expect("checked above");
            let at_s = job.submit_s + self.gap_s * unit(self.seed, self.pulled);
            self.buffer.push(Delayed {
                at_s,
                seq: self.pulled,
                job,
            });
            self.pulled += 1;
        }
        Ok(self.buffer.pop().map(|d| {
            let mut job = d.job;
            job.submit_s = d.at_s;
            job.id = self.emitted;
            job.name = format!("job{}-{}", job.id, job.model.name());
            self.emitted += 1;
            job
        }))
    }
}

/// The population's first `max` arrivals, jittered by `seed` by up to one
/// mean inter-arrival gap, with each GPU request capped at its pool's
/// size (the generator asks for up to 64 GPUs, more than a testbed pool
/// holds).
fn pull(cluster: &Cluster, cfg: &TraceConfig, max: u64, seed: u64) -> (Vec<JobSpec>, f64) {
    let jittered = Jittered::new(
        TakeSource::new(GenSource::new(cfg), max),
        seed,
        mean_gap_s(cfg),
    );
    let mut source = TimedSource::new(jittered);
    let mut jobs = Vec::new();
    while let Some(mut job) = source
        .next_job()
        .expect("the generator is an in-memory source")
    {
        job.requested_gpus = job
            .requested_gpus
            .min(pool_gpus(cluster, job.requested_pool));
        jobs.push(job);
    }
    (jobs, source.busy_s)
}

/// `hetero_compare`: the half-day Philly-heavy trace with durations ×50
/// on the 1,280-GPU Table-1 cluster that `repro fig16 --quick` runs.
pub fn hetero(seed: u64) -> Inputs {
    let cluster = presets::table1_simulated();
    let mut cfg = TraceConfig::new(
        TraceKind::PhillyHeavy,
        0.5 * 86_400.0,
        cluster.total_gpus(),
        pool_mems(&cluster),
    );
    cfg.duration_scale = 50.0;
    cfg.seed = 16;
    let (jobs, pull_s) = pull(&cluster, &cfg, u64::MAX, seed);
    Inputs {
        cluster,
        jobs,
        faults: Vec::new(),
        pull_s,
    }
}

/// `deep_queue_faults`: 5,000 Philly-heavy arrivals on the 64-GPU
/// testbed plus a node-failure schedule (MTBF 60,000 s) over 1.4× the
/// arrival span.
pub fn deep_queue(seed: u64) -> Inputs {
    let cluster = presets::physical_testbed();
    let mut cfg = TraceConfig::new(
        TraceKind::PhillyHeavy,
        1.0e9,
        cluster.total_gpus(),
        pool_mems(&cluster),
    );
    cfg.seed = POPULATION_SEED;
    let (jobs, pull_s) = pull(&cluster, &cfg, DEEP_QUEUE_JOBS as u64, seed);
    let span_s = jobs.last().map_or(0.0, |j| j.submit_s) * 1.4;
    let mut fcfg = FaultConfig::with_mtbf(60_000.0);
    fcfg.seed = mix(seed, 0xFA17);
    let pool_nodes: Vec<usize> = cluster.pool_ids().map(|p| cluster.num_nodes(p)).collect();
    let faults = generate_faults(&fcfg, &pool_nodes, span_s);
    Inputs {
        cluster,
        jobs,
        faults,
        pull_s,
    }
}

/// The 2,048-GPU A100 fleet of `fleet_stream`.
pub fn fleet_cluster() -> Cluster {
    presets::tiny_a100(256, 8)
}

/// `fleet_stream`: an open-ended PAI-low trace for a 2,048-GPU A100
/// fleet.
pub fn fleet_trace(cluster: &Cluster) -> TraceConfig {
    let mut cfg = TraceConfig::new(
        TraceKind::PaiLow,
        4.0e9,
        cluster.total_gpus(),
        pool_mems(cluster),
    );
    cfg.seed = POPULATION_SEED;
    cfg
}

/// The fleet stream: exactly [`FLEET_JOBS`] arrivals pulled from the
/// generator, jittered by `seed`.
pub fn fleet_source(cfg: &TraceConfig, seed: u64) -> Jittered<TakeSource<GenSource>> {
    Jittered::new(
        TakeSource::new(GenSource::new(cfg), FLEET_JOBS),
        seed,
        mean_gap_s(cfg),
    )
}

/// `daemon_restart_tcp`: the first [`DAEMON_RESUME_JOBS`] +
/// [`DAEMON_STREAM_JOBS`] arrivals of a PAI-low testbed trace. A
/// saturated Philly trace of this length makes Arena's mean JCT swing by
/// ±30% under the seed's arrival jitter; at PAI load it stays within a
/// few percent, so the daemon's outcome metrics can be compared.
pub fn daemon(seed: u64) -> Inputs {
    let cluster = presets::physical_testbed();
    let mut cfg = TraceConfig::new(
        TraceKind::PaiLow,
        1.0e9,
        cluster.total_gpus(),
        pool_mems(&cluster),
    );
    cfg.seed = POPULATION_SEED;
    let (jobs, pull_s) = pull(
        &cluster,
        &cfg,
        (DAEMON_RESUME_JOBS + DAEMON_STREAM_JOBS) as u64,
        seed,
    );
    Inputs {
        cluster,
        jobs,
        faults: Vec::new(),
        pull_s,
    }
}
