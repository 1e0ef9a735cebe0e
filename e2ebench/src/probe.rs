//! Outside-in tracing: spans the benchmark records around its own calls
//! into the program's public functions, a timing `Policy` decorator and
//! a timing `TraceSource` wrapper. Nothing here is compiled into the
//! program; the untraced runs never install a tracer or wrap anything.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use arena::sched::{Action, PlanMode, Policy, SchedEvent, SchedView, ShardQueue};
use arena::trace::{JobSpec, TraceSource};

/// Raw spans kept for the artifact; later spans still count in the
/// per-name aggregates.
const RAW_CAP: usize = 20_000;

/// Aggregate of every closed span of one name.
#[derive(Debug, Default)]
pub struct SpanStat {
    pub count: u64,
    pub total_s: f64,
    /// Span time minus the time its child spans cover.
    pub self_s: f64,
    pub durations_s: Vec<f64>,
}

/// One closed span as written to the artifact.
#[derive(Debug)]
pub struct RawSpan {
    pub id: u64,
    pub parent: Option<u64>,
    pub run: u32,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

struct Open {
    id: u64,
    name: &'static str,
    start: Instant,
    child_s: f64,
}

/// In-memory span store for one traced run.
pub struct Tracer {
    origin: Instant,
    run: u32,
    next_id: u64,
    stack: Vec<Open>,
    pub stats: BTreeMap<&'static str, SpanStat>,
    pub raw: Vec<RawSpan>,
    pub dropped: u64,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            run: 0,
            next_id: 0,
            stack: Vec::new(),
            stats: BTreeMap::new(),
            raw: Vec::new(),
            dropped: 0,
        }
    }

    fn open(&mut self, name: &'static str) {
        self.next_id += 1;
        self.stack.push(Open {
            id: self.next_id,
            name,
            start: Instant::now(),
            child_s: 0.0,
        });
    }

    fn close(&mut self) {
        let end = Instant::now();
        let open = self.stack.pop().expect("span closed without being opened");
        let dur = end.duration_since(open.start).as_secs_f64();
        let parent = self.stack.last_mut().map(|p| {
            p.child_s += dur;
            p.id
        });
        let stat = self.stats.entry(open.name).or_default();
        stat.count += 1;
        stat.total_s += dur;
        stat.self_s += dur - open.child_s;
        stat.durations_s.push(dur);
        if self.raw.len() < RAW_CAP {
            self.raw.push(RawSpan {
                id: open.id,
                parent,
                run: self.run,
                name: open.name,
                start_us: open.start.duration_since(self.origin).as_secs_f64() * 1e6,
                end_us: end.duration_since(self.origin).as_secs_f64() * 1e6,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Self time summed by layer (the span name up to its first dot).
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, stat) in &self.stats {
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_insert(0.0) += stat.self_s;
        }
        out
    }

    /// The aggregate of one span name (empty if it never closed).
    pub fn stat(&self, name: &str) -> &SpanStat {
        static EMPTY: SpanStat = SpanStat {
            count: 0,
            total_s: 0.0,
            self_s: 0.0,
            durations_s: Vec::new(),
        };
        self.stats.get(name).unwrap_or(&EMPTY)
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread.
pub fn install() {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new()));
}

/// Stops recording and hands the spans over.
pub fn uninstall() -> Option<Tracer> {
    TRACER.with(|t| t.borrow_mut().take())
}

/// Resumes recording into a tracer taken with [`uninstall`].
pub fn reinstall(tracer: Tracer) {
    TRACER.with(|t| *t.borrow_mut() = Some(tracer));
}

/// Stamps later spans with a run id (one per simulated policy run).
pub fn set_run(run: u32) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.run = run;
        }
    });
}

/// A span guard: closes its span when dropped. Inert without a tracer.
pub struct Span(bool);

/// Opens a span if a tracer is installed on this thread.
pub fn span(name: &'static str) -> Span {
    TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(tr) => {
            tr.open(name);
            Span(true)
        }
        None => Span(false),
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.0 {
            TRACER.with(|t| {
                if let Some(tr) = t.borrow_mut().as_mut() {
                    tr.close();
                }
            });
        }
    }
}

/// What the decorator saw one policy do.
#[derive(Debug, Default)]
pub struct PolicyStats {
    pub passes: u64,
    /// Wall-clock inside `schedule` and `prepare_shards`.
    pub busy_s: f64,
    pub pass_s: Vec<f64>,
    pub place_actions: u64,
    /// Job views handed to `schedule`, summed over passes.
    pub views: u64,
    /// `(job, pool, gpus)` of every placement, for the cold replays.
    pub places: Vec<(u64, usize, usize)>,
}

/// A `Policy` decorator that times `schedule` and `prepare_shards`.
pub struct Timed {
    inner: Box<dyn Policy>,
    pub stats: PolicyStats,
}

impl Timed {
    pub fn new(inner: Box<dyn Policy>) -> Self {
        Timed {
            inner,
            stats: PolicyStats::default(),
        }
    }
}

impl Policy for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan_mode(&self) -> PlanMode {
        self.inner.plan_mode()
    }

    fn schedule(&mut self, event: SchedEvent, view: &SchedView<'_>) -> Vec<Action> {
        let started = Instant::now();
        let actions = {
            let _s = span("sched.schedule");
            self.inner.schedule(event, view)
        };
        let d = started.elapsed().as_secs_f64();
        let st = &mut self.stats;
        st.passes += 1;
        st.busy_s += d;
        st.pass_s.push(d);
        st.views += (view.queued.len() + view.running.len()) as u64;
        for a in &actions {
            if let Action::Place {
                job, pool, gpus, ..
            } = a
            {
                st.place_actions += 1;
                st.places.push((*job, pool.0, *gpus));
            }
        }
        actions
    }

    fn prepare_shards(&mut self, shards: &[ShardQueue<'_>], view: &SchedView<'_>) {
        let started = Instant::now();
        {
            let _s = span("sched.prepare_shards");
            self.inner.prepare_shards(shards, view);
        }
        self.stats.busy_s += started.elapsed().as_secs_f64();
    }
}

/// A `TraceSource` wrapper that times every pull.
pub struct TimedSource<S> {
    inner: S,
    pub busy_s: f64,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S) -> Self {
        TimedSource { inner, busy_s: 0.0 }
    }
}

impl<S: TraceSource> TraceSource for TimedSource<S> {
    fn next_job(&mut self) -> std::io::Result<Option<JobSpec>> {
        let started = Instant::now();
        let job = {
            let _s = span("trace.pull");
            self.inner.next_job()
        };
        self.busy_s += started.elapsed().as_secs_f64();
        job
    }
}
