//! The resident daemon: single writer thread that owns the simulation
//! engine and applies mutating commands, plus the handle other threads
//! use to reach it.
//!
//! Ownership layout: the policy, plan service, observability handle and
//! engine all live on the daemon thread's stack — `daemon_main` builds
//! them in order and the engine borrows the policy and service for its
//! whole life, so no self-referential struct is ever needed. Everything
//! outside the daemon talks to it through a [`ServerHandle`]:
//!
//! * **Mutating commands** (`submit`/`fault`/`cancel`/`advance`/`drain`)
//!   are forwarded over an mpsc channel and applied in arrival order.
//!   Each accepted command is appended to the event log (replay-based
//!   recovery) and followed by a fresh snapshot publication.
//! * **Queries** never touch the channel: [`ServerHandle::handle_line`]
//!   answers them from the latest [`ServerSnapshot`] in the hub, and
//!   `metrics` from the live registry, so reads never wait for the
//!   decision loop.
//!
//! Determinism: applying a `submit` first advances the engine to just
//! *before* the command's timestamp (`advance_before` stops at the
//! first burst `te >= s - EPS`, exactly the window in which a batch
//! run would consume an arrival at `s`); a `fault` is queued without
//! advancing, because a batch run never simulates past the last
//! arrival's drain and a queued fault is consumed at the right burst by
//! whichever later input moves the clock. An online run fed the same
//! trace is therefore byte-identical to a batch run
//! ([`arena_sim::Run::batch`]) — the contract pinned by
//! `tests/server_e2e.rs`. A refused command changes nothing, the clock
//! included, so the event log of accepted commands replays it exactly.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use arena_cluster::Cluster;
use arena_obs::{Decision, MetricsRegistry, Obs};
use arena_perf::CostParams;
use arena_sched::{policy_by_name, PlanService, Policy};
use arena_sim::{Engine, EngineState, ShardPlan, SimConfig, SimResult};
use serde::Value;

use crate::protocol::{
    err_line, json, ok_line, parse_command, request_id, with_request_id, Command, Query,
};
use crate::snapshot::{answer_query, ServerSnapshot, SnapshotHub};

/// Daemon configuration. `new` picks the defaults used by the test
/// suites; everything is overridable by struct update.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Policy name (see `arena_sched::POLICY_NAMES`).
    pub policy: String,
    /// The cluster to schedule onto.
    pub cluster: Cluster,
    /// Simulation constants (round interval, overheads, horizon).
    pub sim: SimConfig,
    /// Plan-service RNG seed.
    pub seed: u64,
    /// Append every accepted mutating command line here (the replay
    /// log). `None` keeps the log in memory only.
    pub event_log: Option<PathBuf>,
    /// Write the decision log as JSONL here at shutdown.
    pub decision_log: Option<PathBuf>,
    /// Replay this event log before accepting new commands (recovery
    /// after a restart). A missing file is treated as empty; any other
    /// read error fails [`Server::start`].
    pub resume: Option<PathBuf>,
    /// Publish a snapshot every this many bursts while draining.
    pub publish_every: usize,
    /// How many of the latest decisions (at least 1) `dump`, the
    /// flight log and [`ServerOutcome::flight_jsonl`] carry.
    pub flight_capacity: usize,
    /// Rewrite this file with the last `flight_capacity` decisions
    /// after every applied fault and at shutdown. `None` keeps dumps
    /// on demand.
    pub flight_log: Option<PathBuf>,
}

impl ServerConfig {
    /// A deterministic virtual-clock config with the workspace's
    /// standard seed and no logs on disk.
    #[must_use]
    pub fn new(policy: &str, cluster: Cluster, sim: SimConfig) -> Self {
        ServerConfig {
            policy: policy.to_string(),
            cluster,
            sim,
            seed: 17,
            event_log: None,
            decision_log: None,
            resume: None,
            publish_every: 64,
            flight_capacity: 256,
            flight_log: None,
        }
    }
}

/// What the daemon thread returns when it stops.
pub struct ServerOutcome {
    /// The full simulation result, present iff the run drained before
    /// shutdown (`finish` requires a drained engine).
    pub result: Option<SimResult>,
    /// Final engine state at shutdown.
    pub state: EngineState,
    /// Every accepted mutating command line, replayed ones included —
    /// feeding these to a fresh daemon reproduces the run.
    pub event_log: Vec<String>,
    /// The decision log as JSON Lines.
    pub decisions_jsonl: String,
    /// The last `flight_capacity` decisions as JSON Lines,
    /// byte-identical to the tail of `decisions_jsonl`.
    pub flight_jsonl: String,
}

enum Request {
    Apply {
        cmd: Command,
        line: String,
        reply: Sender<String>,
    },
    Shutdown {
        reply: Sender<String>,
    },
}

/// The shutdown flag plus the listener addresses to wake when it is
/// set. An acceptor blocks in `accept`, so requesting shutdown makes one
/// loopback connection to each registered listener, which returns the
/// `accept` and lets the acceptor see the flag. The wake list is only
/// pushed to and cloned, so a panic while it is locked cannot leave it
/// half-written, and both locks recover from poisoning.
#[derive(Default)]
struct Shutdown {
    requested: AtomicBool,
    wake: Mutex<Vec<SocketAddr>>,
}

impl Shutdown {
    fn is_requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }

    /// Sets the flag; the first call wakes every registered listener.
    fn request(&self) {
        if !self.requested.swap(true, Ordering::SeqCst) {
            let addrs = self
                .wake
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            for addr in addrs {
                let _ = TcpStream::connect(addr);
            }
        }
    }

    /// Registers a listener to wake on shutdown, waking it at once if
    /// shutdown was already requested. The flag is read under the lock
    /// that `request` takes after setting it, so every listener is
    /// woken at least once whichever call comes first.
    fn wake_on_request(&self, addr: SocketAddr) {
        let requested = {
            let mut addrs = self.wake.lock().unwrap_or_else(PoisonError::into_inner);
            addrs.push(addr);
            self.is_requested()
        };
        if requested {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// Cloneable handle to a running daemon: forwards mutating commands,
/// answers queries from the snapshot hub and live telemetry from the
/// metrics registry.
#[derive(Clone)]
pub struct ServerHandle {
    tx: Sender<Request>,
    hub: Arc<SnapshotHub>,
    shutdown: Arc<Shutdown>,
    metrics: Arc<MetricsRegistry>,
    /// `ServerConfig::flight_capacity` as clamped by `Server::start`.
    flight_capacity: usize,
}

impl ServerHandle {
    /// The snapshot hub, for readers that want raw snapshots instead of
    /// protocol responses.
    #[must_use]
    pub fn hub(&self) -> &SnapshotHub {
        &self.hub
    }

    /// The live metrics registry shared with the daemon's engine —
    /// counters, gauges and stage histograms.
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.is_requested()
    }

    /// Makes every shutdown request connect once to `addr`, the
    /// loopback address of a listener whose acceptor blocks in `accept`.
    pub(crate) fn wake_on_shutdown(&self, addr: SocketAddr) {
        self.shutdown.wake_on_request(addr);
    }

    /// Processes one protocol line and returns the response line.
    /// Reject-and-continue: any parse or validation failure produces an
    /// `ok:false` response and changes nothing. A `watch` command
    /// answers with its first sample only — use
    /// [`ServerHandle::handle_line_sink`] for the streamed form.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> String {
        let trimmed = line.trim();
        let response = self.respond(trimmed);
        match request_id(trimmed) {
            Some(id) => with_request_id(&response, &id),
            None => response,
        }
    }

    /// Processes one protocol line, emitting one or more response lines
    /// through `emit` (which returns `false` to cancel the stream).
    /// Identical to [`ServerHandle::handle_line`] for every command
    /// except `watch`, which emits a fresh sample every `interval_s`
    /// seconds until `count` samples are out, shutdown is requested, or
    /// the sink cancels.
    pub fn handle_line_sink(&self, line: &str, emit: &mut dyn FnMut(&str) -> bool) {
        let trimmed = line.trim();
        if let Ok(Command::Watch {
            what,
            interval_s,
            count,
        }) = parse_command(trimmed)
        {
            let id = request_id(trimmed);
            let mut sample: u64 = 0;
            loop {
                let mut response = self.answer(&what);
                response = with_sample(&response, sample);
                if let Some(id) = &id {
                    response = with_request_id(&response, id);
                }
                if !emit(&response) {
                    return;
                }
                sample += 1;
                if count != 0 && sample >= count {
                    return;
                }
                if self.is_shutdown() {
                    return;
                }
                std::thread::sleep(Duration::from_secs_f64(interval_s));
                if self.is_shutdown() {
                    return;
                }
            }
        }
        let _ = emit(&self.handle_line(line));
    }

    /// Answers one read-only query (see [`answer_query`]).
    fn answer(&self, q: &Query) -> String {
        answer_query(q, &self.hub.load(), &self.metrics)
    }

    fn respond(&self, trimmed: &str) -> String {
        if trimmed.is_empty() {
            return err_line("empty line");
        }
        match parse_command(trimmed) {
            Err(e) => err_line(&e),
            Ok(Command::Query(q)) => self.answer(&q),
            Ok(Command::Watch { what, .. }) => with_sample(&self.answer(&what), 0),
            Ok(Command::Dump) => {
                let snap = self.hub.load();
                ok_line(vec![
                    (
                        "total".to_string(),
                        Value::U64(snap.decision_count() as u64),
                    ),
                    (
                        "capacity".to_string(),
                        Value::U64(self.flight_capacity as u64),
                    ),
                    (
                        "jsonl".to_string(),
                        Value::Str(snap.decisions_tail_jsonl(self.flight_capacity)),
                    ),
                ])
            }
            Ok(Command::Shutdown) => {
                self.shutdown.request();
                let (reply, rx) = mpsc::channel();
                match self.tx.send(Request::Shutdown { reply }) {
                    Ok(()) => rx.recv().unwrap_or_else(|_| {
                        ok_line(vec![("stopping".to_string(), Value::Bool(true))])
                    }),
                    Err(_) => ok_line(vec![("stopping".to_string(), Value::Bool(true))]),
                }
            }
            Ok(cmd) => {
                let started = Instant::now();
                let (reply, rx) = mpsc::channel();
                let sent = self.tx.send(Request::Apply {
                    cmd,
                    line: trimmed.to_string(),
                    reply,
                });
                let response = match sent {
                    Ok(()) => rx
                        .recv()
                        .unwrap_or_else(|_| err_line("daemon stopped before replying")),
                    Err(_) => err_line("daemon is not running"),
                };
                // End-to-end command→decision latency: send, apply (which
                // runs the decision loop), publish, reply.
                self.metrics
                    .observe("server.command_seconds", started.elapsed().as_secs_f64());
                response
            }
        }
    }
}

/// Stamps the watch sample index onto a response line.
fn with_sample(response: &str, sample: u64) -> String {
    match serde_json::from_str(response) {
        Ok(Value::Object(mut fields)) => {
            fields.push(("sample".to_string(), Value::U64(sample)));
            json(&Value::Object(fields))
        }
        _ => response.to_string(),
    }
}

/// A running daemon plus its join handle.
pub struct Server {
    handle: ServerHandle,
    daemon: JoinHandle<ServerOutcome>,
}

impl Server {
    /// Validates the config, reads the resume log, opens the event log
    /// and spawns the daemon thread.
    ///
    /// # Errors
    ///
    /// Returns a message when the policy name is unknown,
    /// `publish_every` is zero, the resume log exists but cannot be read
    /// or the event log cannot be opened.
    pub fn start(mut cfg: ServerConfig) -> Result<Server, String> {
        let Some(policy) = policy_by_name(&cfg.policy, 1) else {
            return Err(format!(
                "unknown policy `{}` (expected one of {:?})",
                cfg.policy,
                arena_sched::POLICY_NAMES
            ));
        };
        if cfg.publish_every == 0 {
            return Err("publish_every must be at least 1".to_string());
        }
        // `dump` and the flight log carry at least one decision.
        cfg.flight_capacity = cfg.flight_capacity.max(1);
        let resume = match &cfg.resume {
            Some(path) => read_resume(path)?,
            None => Vec::new(),
        };
        let log = EventLog::open(cfg.event_log.as_ref())?;
        let (tx, rx) = mpsc::channel();
        let hub = Arc::new(SnapshotHub::new(ServerSnapshot {
            seq: 0,
            policy: cfg.policy.clone(),
            state: empty_state(),
            decisions: Vec::new(),
        }));
        let shutdown = Arc::new(Shutdown::default());
        let metrics = Arc::new(MetricsRegistry::default());
        let handle = ServerHandle {
            tx,
            hub: Arc::clone(&hub),
            shutdown: Arc::clone(&shutdown),
            metrics: Arc::clone(&metrics),
            flight_capacity: cfg.flight_capacity,
        };
        let (ready_tx, ready) = mpsc::channel();
        let daemon = std::thread::Builder::new()
            .name("arena-daemon".to_string())
            .spawn(move || {
                daemon_main(
                    cfg, policy, &resume, log, rx, &hub, &shutdown, metrics, &ready_tx,
                )
            })
            .map_err(|e| format!("failed to spawn daemon thread: {e}"))?;
        // Block until the daemon's first publication (which happens after
        // any resume-log replay) so a caller never observes the seq-0
        // placeholder: `start` returning means the server is ready. A
        // daemon that dies first drops the sender, which ends the wait.
        if ready.recv().is_err() {
            let _ = daemon.join();
            return Err("daemon exited before publishing a snapshot".to_string());
        }
        Ok(Server { handle, daemon })
    }

    /// A cloneable handle to the daemon.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Requests shutdown (if not already requested), which also wakes
    /// every acceptor [`crate::spawn_listener`] started on this daemon,
    /// and waits for the daemon to flush and stop.
    ///
    /// # Panics
    ///
    /// Panics with the daemon thread's own panic if it panicked.
    #[must_use]
    pub fn join(self) -> ServerOutcome {
        if !self.handle.is_shutdown() {
            let _ = self.handle.handle_line("{\"cmd\":\"shutdown\"}");
        }
        match self.daemon.join() {
            Ok(outcome) => outcome,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

/// The resume log's bytes; a missing file is an empty log.
fn read_resume(path: &Path) -> Result<Vec<u8>, String> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("cannot read resume log {}: {e}", path.display())),
    }
}

fn empty_state() -> EngineState {
    EngineState {
        now_s: 0.0,
        submitted: 0,
        pending: 0,
        queued: 0,
        starting: 0,
        running: 0,
        finished: 0,
        dropped: 0,
        input_closed: false,
        drained: false,
        pools: Vec::new(),
        jobs: Vec::new(),
    }
}

/// Incremental mirror of the observability decision log as immutable
/// chunks: each refresh copies only the decisions recorded since the
/// last one. Publishing clones `chunks`, one `Arc` per refresh that
/// found new decisions, so its cost still grows with run length.
struct DecisionMirror {
    chunks: Vec<Arc<Vec<Decision>>>,
    total: usize,
}

impl DecisionMirror {
    fn new() -> Self {
        DecisionMirror {
            chunks: Vec::new(),
            total: 0,
        }
    }

    fn refresh(&mut self, obs: &Obs) {
        let fresh = obs.decisions_after(self.total);
        if !fresh.is_empty() {
            self.total += fresh.len();
            self.chunks.push(Arc::new(fresh));
        }
    }
}

struct EventLog {
    lines: Vec<String>,
    file: Option<std::fs::File>,
}

impl EventLog {
    fn open(path: Option<&PathBuf>) -> Result<Self, String> {
        let file = match path {
            Some(p) => Some(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(p)
                    .map_err(|e| format!("cannot open event log {}: {e}", p.display()))?,
            ),
            None => None,
        };
        Ok(EventLog {
            lines: Vec::new(),
            file,
        })
    }

    /// Records a replayed line in memory without re-appending it to the
    /// on-disk log (it is already there).
    fn record_replayed(&mut self, line: &str) {
        self.lines.push(line.to_string());
    }

    fn append(&mut self, line: &str) {
        self.lines.push(line.to_string());
        if let Some(f) = &mut self.file {
            let _ = writeln!(f, "{line}");
            let _ = f.flush();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn daemon_main(
    cfg: ServerConfig,
    mut policy: Box<dyn Policy>,
    resume: &[u8],
    mut log: EventLog,
    rx: Receiver<Request>,
    hub: &SnapshotHub,
    shutdown: &Shutdown,
    metrics: Arc<MetricsRegistry>,
    ready: &Sender<()>,
) -> ServerOutcome {
    let service = PlanService::new(&cfg.cluster, CostParams::default(), cfg.seed);
    let obs = Obs::enabled().with_metrics(Arc::clone(&metrics));
    let mut engine = Engine::new(
        &cfg.cluster,
        policy.as_mut(),
        &service,
        &cfg.sim,
        &obs,
        &ShardPlan,
    );

    let mut mirror = DecisionMirror::new();
    let mut seq: u64 = 0;

    // Recovery: replay the prior run's accepted command stream. A torn
    // write can leave a truncated or non-UTF-8 line; skip it, and any
    // unparseable, non-mutating or refused line, and keep replaying.
    // Every skipped line except a blank one counts, and the counter is
    // registered at 0 so every scrape carries it.
    let skipped = metrics.counter("server.resume.skipped");
    for line in resume.split(|&b| b == b'\n') {
        let Ok(line) = std::str::from_utf8(line) else {
            skipped.incr(1);
            continue;
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let replayed = match parse_command(trimmed) {
            Ok(cmd) if cmd.is_mutating() => {
                apply(&mut engine, &cfg, &cmd, hub, &mut mirror, &obs, &mut seq).is_ok()
            }
            _ => false,
        };
        if replayed {
            log.record_replayed(trimmed);
        } else {
            skipped.incr(1);
        }
    }

    seq += 1;
    publish(hub, &engine, &obs, &mut mirror, seq, &cfg.policy);
    let _ = ready.send(());

    // Every shutdown path sends `Request::Shutdown`, and the channel
    // disconnects once every handle is gone, so waiting needs no timeout.
    while let Ok(request) = rx.recv() {
        match request {
            Request::Apply { cmd, line, reply } => {
                match apply(&mut engine, &cfg, &cmd, hub, &mut mirror, &obs, &mut seq) {
                    Ok(extra) => {
                        let faulted = matches!(cmd, Command::Fault(_));
                        log.append(&line);
                        seq += 1;
                        publish(hub, &engine, &obs, &mut mirror, seq, &cfg.policy);
                        if faulted {
                            // Fault injection is exactly when an operator
                            // wants the recent decision tail preserved.
                            dump_flight(&cfg, hub);
                        }
                        let _ = reply.send(ok_line(extra));
                    }
                    Err(e) => {
                        let _ = reply.send(err_line(&e));
                    }
                }
            }
            Request::Shutdown { reply } => {
                let _ = reply.send(ok_line(vec![("stopping".to_string(), Value::Bool(true))]));
                break;
            }
        }
    }
    shutdown.request();

    // Final snapshot so late readers observe the terminal state.
    seq += 1;
    publish(hub, &engine, &obs, &mut mirror, seq, &cfg.policy);

    let state = engine.state();
    let drained = engine.drained();
    let result = drained.then(|| engine.finish());
    let decisions_jsonl = result.as_ref().map_or_else(
        || obs.report().decisions_jsonl(),
        |r| r.trace.decisions_jsonl(),
    );
    if let Some(path) = &cfg.decision_log {
        let _ = std::fs::write(path, &decisions_jsonl);
    }
    let flight_jsonl = dump_flight(&cfg, hub);
    ServerOutcome {
        result,
        state,
        event_log: log.lines,
        decisions_jsonl,
        flight_jsonl,
    }
}

/// The last `flight_capacity` decisions of the latest snapshot as JSON
/// Lines, also written over the flight log when one is configured.
fn dump_flight(cfg: &ServerConfig, hub: &SnapshotHub) -> String {
    let tail = hub.load().decisions_tail_jsonl(cfg.flight_capacity);
    if let Some(path) = &cfg.flight_log {
        let _ = std::fs::write(path, &tail);
    }
    tail
}

/// Applies one mutating command. On `Err` the engine is untouched
/// (validation happens before any state change).
fn apply(
    engine: &mut Engine<'_>,
    cfg: &ServerConfig,
    cmd: &Command,
    hub: &SnapshotHub,
    mirror: &mut DecisionMirror,
    obs: &Obs,
    seq: &mut u64,
) -> Result<Vec<(String, Value)>, String> {
    match cmd {
        Command::Submit(spec) => {
            // Check before advancing: a refused job must not move the
            // clock, since it never reaches the event log a replay
            // rebuilds the run from.
            engine.check_submit(spec).map_err(|e| e.to_string())?;
            engine.advance_before(spec.submit_s);
            engine
                .submit(spec.clone())
                .map_err(|e| e.to_string())
                .map(|()| {
                    vec![
                        ("job".to_string(), Value::U64(spec.id)),
                        ("now_s".to_string(), Value::F64(engine.now())),
                    ]
                })
        }
        Command::Fault(fault) => {
            // Queue without advancing. A batch run stops at the first
            // idle point after the arrival stream is exhausted and never
            // simulates trailing faults; advancing here would burst
            // through round ticks the batch run does not have. A queued
            // fault is a next-event candidate, so whichever later input
            // (submit, advance, drain) moves the clock past `time_s`
            // consumes it in exactly the burst the batch run would.
            engine
                .inject_fault(fault.clone())
                .map_err(|e| e.to_string())
                .map(|()| vec![("now_s".to_string(), Value::F64(engine.now()))])
        }
        Command::Cancel { time_s, job } => {
            if !time_s.is_finite() {
                return Err(format!("non-finite cancel time {time_s}"));
            }
            engine.advance_before(*time_s);
            engine.drop_job(*job).map_err(|e| e.to_string()).map(|()| {
                vec![
                    ("job".to_string(), Value::U64(*job)),
                    ("now_s".to_string(), Value::F64(engine.now())),
                ]
            })
        }
        Command::Advance { to_s } => {
            if !to_s.is_finite() {
                return Err(format!("non-finite advance target {to_s}"));
            }
            engine.advance_before(*to_s);
            Ok(vec![("now_s".to_string(), Value::F64(engine.now()))])
        }
        Command::Drain => {
            engine.close_input();
            // Run to completion, republishing periodically so query
            // threads watch the drain progress.
            loop {
                let mut progressed = false;
                for _ in 0..cfg.publish_every {
                    if !engine.step() {
                        break;
                    }
                    progressed = true;
                }
                *seq += 1;
                publish(hub, engine, obs, mirror, *seq, &cfg.policy);
                if !progressed || engine.drained() {
                    break;
                }
            }
            Ok(vec![
                ("drained".to_string(), Value::Bool(engine.drained())),
                ("now_s".to_string(), Value::F64(engine.now())),
            ])
        }
        Command::Query(_) | Command::Watch { .. } | Command::Dump | Command::Shutdown => {
            Err("internal: non-mutating command routed to daemon".to_string())
        }
    }
}

fn publish(
    hub: &SnapshotHub,
    engine: &Engine<'_>,
    obs: &Obs,
    mirror: &mut DecisionMirror,
    seq: u64,
    policy: &str,
) {
    let started = Instant::now();
    mirror.refresh(obs);
    hub.publish(ServerSnapshot {
        seq,
        policy: policy.to_string(),
        state: engine.state(),
        decisions: mirror.chunks.clone(),
    });
    // Snapshot publish latency (mirror refresh + state copy + swap).
    obs.observe("server.publish_seconds", started.elapsed().as_secs_f64());
}
