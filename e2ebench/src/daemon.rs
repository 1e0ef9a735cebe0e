//! `daemon_restart_tcp`: `repro serve` restarts from a resume log, then
//! the rest of the trace arrives over loopback TCP from one submitter
//! that waits for each reply, while one reader alternates `status` and
//! `metrics` queries with a fixed pause. A session ends with `drain`; a
//! measured run repeats sessions for its `--seconds`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use arena::sched::POLICY_NAMES;
use arena::server::protocol::submit_line;
use arena::sim::SimConfig;
use serde::Value;

use crate::inputs::{self, Inputs, DAEMON_RESUME_JOBS};
use crate::layers::{Layers, ServerLayer};
use crate::probe::{self, span};
use crate::report::{log_timing, quantile, vm_hwm_mib, Report};
use crate::sim::{mean, repeat_for, run_batch, Mode, Timing};

/// Restarts timed per measured session; the last one serves the stream.
/// The run reports the median over every session's restarts. On a
/// 2-vCPU host the replay's CPU time alone ranges from about 0.27 s to
/// about 0.45 s from one restart to the next, so a run takes many.
const RESTARTS: usize = 8;
/// Reader samples a session collects at least, for a supported p95.
const MIN_READS: usize = 200;
/// The reader's pause between two queries.
const READER_PAUSE: Duration = Duration::from_millis(1);
/// `repro serve`'s default plan-service seed and horizon, which the
/// in-process replica must match.
const SERVE_SEED: u64 = 17;
const SERVE_HORIZON_S: f64 = 2_592_000.0;
/// Longest wait for any single reply or for the daemon to exit.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One client connection: each command goes out in a single write with
/// `TCP_NODELAY` set, and each reply is split into time to first byte
/// and first byte to newline.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

struct Reply {
    line: String,
    ttfb_s: f64,
    total_s: f64,
}

impl Conn {
    fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    fn call(&mut self, line: &str) -> std::io::Result<Reply> {
        let mut msg = Vec::with_capacity(line.len() + 1);
        msg.extend_from_slice(line.as_bytes());
        msg.push(b'\n');
        let started = Instant::now();
        self.stream.write_all(&msg)?;
        let mut ttfb = None;
        let mut chunk = vec![0u8; 1 << 16];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let total_s = started.elapsed().as_secs_f64();
                let rest = self.buf.split_off(pos + 1);
                let mut reply = std::mem::replace(&mut self.buf, rest);
                reply.pop();
                return Ok(Reply {
                    line: String::from_utf8_lossy(&reply).into_owned(),
                    ttfb_s: ttfb.unwrap_or(total_s),
                    total_s,
                });
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            ttfb.get_or_insert_with(|| started.elapsed().as_secs_f64());
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Parses a reply and requires `"ok": true`.
fn ok_reply(r: &std::io::Result<Reply>) -> Option<Value> {
    let v: Value = serde_json::from_str(&r.as_ref().ok()?.line).ok()?;
    (v.get("ok") == Some(&Value::Bool(true))).then_some(v)
}

/// A running `repro serve` child. Dropping it without [`Daemon::shutdown`]
/// kills the child and waits for it, so no daemon outlives a run.
struct Daemon {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<String>>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

impl Daemon {
    /// Spawns `repro serve --resume` and waits until it listens; returns
    /// the daemon and the restart time (spawn plus log replay).
    fn spawn(repro: &Path, cluster: &str, resume: &Path) -> std::io::Result<(Daemon, f64)> {
        let started = Instant::now();
        let child = Command::new(repro)
            .args(["serve", "--addr", "127.0.0.1:0", "--policy", "arena"])
            .args(["--cluster", cluster, "--resume"])
            .arg(resume)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stderr: None,
        };
        let pipe = daemon.child.stderr.take().expect("stderr is piped");
        let mut err = BufReader::new(pipe);
        let mut line = String::new();
        daemon.addr = loop {
            line.clear();
            if err.read_line(&mut line)? == 0 {
                return Err(std::io::Error::other("daemon exited before listening"));
            }
            if let Some(rest) = line.trim().strip_prefix("[arena-server listening on ") {
                break rest.trim_end_matches(']').to_string();
            }
        };
        let setup_s = started.elapsed().as_secs_f64();
        // Keep reading stderr so the child never blocks on a full pipe.
        daemon.stderr = Some(std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = err.read_to_string(&mut rest);
            rest
        }));
        Ok((daemon, setup_s))
    }

    /// Sends `shutdown` on `conn`, closes it, and waits for the child to
    /// exit. Returns whether the daemon was alive until asked and then
    /// exited cleanly.
    fn shutdown(mut self, mut conn: Conn) -> bool {
        let alive = matches!(self.child.try_wait(), Ok(None));
        let acked = ok_reply(&conn.call("{\"cmd\":\"shutdown\"}")).is_some();
        drop(conn);
        let deadline = Instant::now() + IO_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => break None,
            }
        };
        let clean = status.is_some_and(|s| s.success());
        if !clean {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let log = self.stderr.take().and_then(|h| h.join().ok());
            eprintln!("daemon did not stop cleanly: {}", log.unwrap_or_default());
        }
        alive && acked && clean
    }
}

/// Connects and completes one round trip, so the acceptor's accept poll
/// is paid here and not in the first timed command.
fn connect(addr: &str, report: &mut Report) -> Option<(Conn, f64)> {
    let started = Instant::now();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            report.op(false);
            return None;
        }
    };
    let ok = ok_reply(&conn.call("{\"cmd\":\"query\",\"what\":\"status\"}")).is_some();
    report.op(ok);
    ok.then(|| (conn, started.elapsed().as_secs_f64()))
}

/// The p50 of one histogram in the daemon's Prometheus-style exposition.
fn exposition_p50(text: &str, base: &str) -> f64 {
    let prefix = format!("{base}_bucket{{le=\"");
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    let mut count = 0.0;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(&prefix) {
            let (le, cum) = rest.split_once("\"} ").unwrap_or(("", ""));
            if let (Ok(le), Ok(cum)) = (le.parse::<f64>(), cum.trim().parse::<f64>()) {
                buckets.push((le, cum));
            }
        } else if let Some(rest) = line.strip_prefix(&format!("{base}_count ")) {
            count = rest.trim().parse().unwrap_or(0.0);
        }
    }
    buckets
        .iter()
        .find(|(_, cum)| *cum >= 0.5 * count)
        .map_or(0.0, |(le, _)| *le)
}

/// What one daemon session measured.
#[derive(Default)]
struct Session {
    setup_s: Vec<f64>,
    /// Stream plus drain wall-clock.
    wall_s: f64,
    server: ServerLayer,
    /// `query jobs` after the drain.
    jobs: Vec<Value>,
    peak_rss_mb: f64,
}

/// Runs one session: restarts (all but the last shut down again), the
/// submit stream with the reader alongside, drain, final scrapes.
fn session(
    repro: &Path,
    cluster: &str,
    resume: &Path,
    stream: &[arena::trace::JobSpec],
    restarts: usize,
    report: &mut Report,
) -> Session {
    let mut s = Session::default();
    let mut daemon = None;
    for i in 0..restarts {
        report.op(true);
        let (d, setup_s) = match Daemon::spawn(repro, cluster, resume) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("cannot start the daemon: {e}");
                report.op(false);
                return s;
            }
        };
        s.setup_s.push(setup_s);
        if i + 1 < restarts {
            match connect(&d.addr, report) {
                Some((conn, _)) => report.op(d.shutdown(conn)),
                None => report.op(false),
            }
        } else {
            daemon = Some(d);
        }
    }
    let Some(daemon) = daemon else { return s };
    let (Some((mut sub, c1)), Some((mut rd, c2))) =
        (connect(&daemon.addr, report), connect(&daemon.addr, report))
    else {
        return s;
    };
    s.server.connect_s = vec![c1, c2];

    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let (reads, read_failures) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut samples = Vec::new();
            let mut failures = 0u64;
            let mut status = true;
            // Past the stream's end the reader goes on until its p95 has
            // 200 samples (or the daemon stops answering).
            while !stop.load(Ordering::SeqCst) || (samples.len() < MIN_READS && failures == 0) {
                let what = if status { "status" } else { "metrics" };
                let r = rd.call(&format!("{{\"cmd\":\"query\",\"what\":\"{what}\"}}"));
                match ok_reply(&r) {
                    Some(_) => samples.push((status, r.expect("ok reply").total_s)),
                    None => failures += 1,
                }
                status = !status;
                std::thread::sleep(READER_PAUSE);
            }
            (samples, failures)
        });
        for job in stream {
            let r = {
                let _s = span("server.submit");
                sub.call(&submit_line(job))
            };
            let ok = ok_reply(&r).is_some();
            report.op(ok);
            if let Ok(r) = r {
                s.server.cmd_s.push(r.total_s);
                s.server.ttfb_s.push(r.ttfb_s);
                s.server.tail_s.push(r.total_s - r.ttfb_s);
            }
        }
        stop.store(true, Ordering::SeqCst);
        reader.join().expect("reader thread panicked")
    });
    report.attempted += reads.len() as u64 + read_failures;
    report.failed += read_failures;
    for (status, d) in reads {
        if status {
            s.server.query_status_s.push(d);
        } else {
            s.server.query_metrics_s.push(d);
        }
    }

    let r = {
        let _s = span("server.drain");
        sub.call("{\"cmd\":\"drain\"}")
    };
    let drained = ok_reply(&r).and_then(|v| v.get("drained").cloned()) == Some(Value::Bool(true));
    report.op(drained);
    s.server.drain_s = r.map_or(0.0, |r| r.total_s);
    s.wall_s = started.elapsed().as_secs_f64();

    let jobs = ok_reply(&sub.call("{\"cmd\":\"query\",\"what\":\"jobs\"}"));
    report.op(jobs.is_some());
    s.jobs = jobs
        .and_then(|v| {
            v.get("jobs")
                .and_then(|j| j.as_array().map(<[Value]>::to_vec))
        })
        .unwrap_or_default();
    s.server.snapshot_jobs = s.jobs.len();
    let metrics = ok_reply(&sub.call("{\"cmd\":\"query\",\"what\":\"metrics\"}"));
    report.op(metrics.is_some());
    if let Some(Value::Str(text)) = metrics.as_ref().and_then(|v| v.get("metrics")) {
        s.server.apply_p50_s = exposition_p50(text, "server_command_seconds");
        s.server.publish_p50_s = exposition_p50(text, "server_publish_seconds");
    }
    s.peak_rss_mb = vm_hwm_mib(Some(daemon.child.id())).unwrap_or(0.0);
    drop(rd);
    report.op(daemon.shutdown(sub));
    s
}

fn f64_field(v: &Value, name: &str) -> Option<f64> {
    match v.get(name)? {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

/// Online == batch: every job's submit, start and finish time and
/// restart count after the drain equal an in-process `Engine` run of
/// the same trace.
fn check_online_equals_batch(
    report: &mut Report,
    daemon_jobs: &[Value],
    replica: &arena::sim::SimResult,
) {
    let same = daemon_jobs.len() == replica.records.len()
        && replica.records.iter().all(|rec| {
            daemon_jobs.iter().any(|j| {
                f64_field(j, "id") == Some(rec.id as f64)
                    && f64_field(j, "submit_s") == Some(rec.submit_s)
                    && f64_field(j, "start_s") == rec.start_s
                    && f64_field(j, "finish_s") == rec.finish_s
                    && f64_field(j, "restarts") == Some(f64::from(rec.restarts))
            })
        });
    report.check(
        "daemon: post-drain jobs equal an in-process Engine run",
        same,
    );
}

/// The server layer on another workload's trace: a fresh `repro serve`
/// on `cluster` takes every job over TCP with the reader alongside, then
/// drains. The traced run of a simulation workload uses it so every
/// per-layer metric is measured on that workload's own inputs.
pub fn serve_trace(
    repro: &Path,
    cluster: &str,
    jobs: &[arena::trace::JobSpec],
    out: &Path,
    report: &mut Report,
) -> ServerLayer {
    let empty = out.join("serve-empty.jsonl");
    if std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(&empty, ""))
        .is_err()
    {
        report.op(false);
        return ServerLayer::default();
    }
    let s = session(repro, cluster, &empty, jobs, 1, report);
    report.check(
        "served trace: every job is in the post-drain snapshot",
        s.jobs.len() == jobs.len(),
    );
    s.server
}

/// Traces a measured run cycles its sessions through. Arena's mean
/// queueing delay on one trace spreads by 10% over seeds (first to third
/// quartile over median, 48 seeds), and still by 7% at a tenth of the
/// arrival jitter; its mean over three traces spreads by 5%.
pub const TRACES: u64 = 3;

/// The untraced measurement: sessions repeated for `seconds`, session
/// `i` serving trace `i mod TRACES` and checked against that trace's
/// in-process run. The outcome metrics are the mean over the traces'
/// in-process runs, which the checks prove equal to the daemon's.
pub fn measure(traces: &[DaemonWorkload], repro: &Path, seconds: u64, report: &mut Report) {
    let mut sessions: Vec<Session> = Vec::new();
    repeat_for(seconds as f64, || {
        let w = &traces[sessions.len() % traces.len()];
        let failed = report.failed;
        sessions.push(session(
            repro,
            "testbed",
            &w.resume,
            w.stream(),
            RESTARTS,
            report,
        ));
        report.failed == failed
    });
    let replicas: Vec<arena::sim::SimResult> = traces
        .iter()
        .map(|w| {
            let mut t = Timing::default();
            w.replica(&Mode::untraced(), &mut t, report, &mut Layers::default())
        })
        .collect();
    for (i, s) in sessions.iter().enumerate() {
        let k = i % traces.len();
        traces[k].check(report, s, &replicas[k]);
    }
    // Each trace's mean JCT, mean queueing delay and utilisation.
    let per_trace: Vec<[f64; 3]> = replicas
        .iter()
        .map(|r| {
            let jct: Vec<f64> = r.records.iter().filter_map(|j| j.jct_s()).collect();
            let queue: Vec<f64> = r.records.iter().filter_map(|j| j.queue_s()).collect();
            [mean(&jct), mean(&queue), r.metrics.cluster_util_frac]
        })
        .collect();
    let outcome = |i: usize| mean(&per_trace.iter().map(|o| o[i]).collect::<Vec<f64>>());
    let restarts: Vec<f64> = sessions.iter().flat_map(|s| s.setup_s.clone()).collect();
    let cmd: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.server.cmd_s.clone())
        .collect();
    let queries: Vec<f64> = sessions.iter().flat_map(|s| s.server.query_s()).collect();
    let wall_s: f64 = sessions.iter().map(|s| s.wall_s).sum();
    let streamed: usize = (0..sessions.len())
        .map(|i| traces[i % traces.len()].stream().len())
        .sum();
    let peak_rss = sessions.iter().map(|s| s.peak_rss_mb).fold(0.0, f64::max);
    report.metric("setup_s", quantile(&restarts, 0.5), "s");
    report.metric("jobs_per_s", streamed as f64 / wall_s, "1/s");
    report.metric("peak_rss_mb", peak_rss, "MiB");
    report.metric("avg_jct_s", outcome(0), "s");
    report.metric("avg_queue_s", outcome(1), "s");
    report.metric("cluster_util", outcome(2), "ratio");
    report.metric("jct_gain", 1.0, "ratio");
    report.metric("thpt_gain", 1.0, "ratio");
    report.metric("cmd_p50_ms", quantile(&cmd, 0.5) * 1e3, "ms");
    report.check(
        "command and query p95s have at least 200 samples per session",
        sessions
            .iter()
            .all(|s| s.server.cmd_s.len() >= 200 && s.server.query_s().len() >= 200),
    );
    eprintln!("  {} sessions, {streamed} streamed submits", sessions.len());
    log_timing("cmd", &cmd, 1e3, "ms");
    log_timing("query", &queries, 1e3, "ms");
    log_timing("restart", &restarts, 1.0, "s");
}

/// One daemon trace's inputs: the resume log on disk and the stream.
pub struct DaemonWorkload {
    inputs: Inputs,
    resume: std::path::PathBuf,
}

impl DaemonWorkload {
    pub fn new(seed: u64, out: &Path) -> std::io::Result<Self> {
        let inputs = inputs::daemon(seed);
        std::fs::create_dir_all(out)?;
        let resume = out.join(format!("daemon-resume-seed{seed}.jsonl"));
        let mut log = String::new();
        for job in &inputs.jobs[..DAEMON_RESUME_JOBS] {
            log.push_str(&submit_line(job));
            log.push('\n');
        }
        std::fs::write(&resume, log)?;
        Ok(DaemonWorkload { inputs, resume })
    }

    fn stream(&self) -> &[arena::trace::JobSpec] {
        &self.inputs.jobs[DAEMON_RESUME_JOBS..]
    }

    fn replica(
        &self,
        mode: &Mode,
        t: &mut Timing,
        report: &mut Report,
        layers: &mut Layers,
    ) -> arena::sim::SimResult {
        let cfg = SimConfig::new(SERVE_HORIZON_S);
        let run = run_batch(
            &self.inputs,
            "arena",
            SERVE_SEED,
            &cfg,
            mode,
            t,
            report,
            layers,
        );
        if let Some(stats) = run.stats {
            layers.add_policy("arena", stats, run.warm_busy_s, Some(&self.inputs.jobs));
        }
        run.result
    }

    /// The four baselines over the same trace in-process, so the traced
    /// run attributes every policy's decision cost on this workload.
    fn baselines(&self, mode: &Mode, t: &mut Timing, report: &mut Report, layers: &mut Layers) {
        let cfg = SimConfig::new(SERVE_HORIZON_S);
        for p in &POLICY_NAMES[..POLICY_NAMES.len() - 1] {
            let run = run_batch(&self.inputs, p, SERVE_SEED, &cfg, mode, t, report, layers);
            if let Some(stats) = run.stats {
                layers.add_policy(p, stats, run.warm_busy_s, Some(&self.inputs.jobs));
            }
        }
    }

    fn check(&self, report: &mut Report, s: &Session, replica: &arena::sim::SimResult) {
        report.check(
            "every job is admissible",
            self.inputs
                .jobs
                .iter()
                .all(|j| inputs::admissible(j, &self.inputs.cluster)),
        );
        let phase = |j: &Value| match j.get("phase") {
            Some(Value::Str(p)) => p.clone(),
            _ => String::new(),
        };
        let finished = s.jobs.iter().filter(|j| phase(j) == "finished").count();
        let dropped = s.jobs.iter().filter(|j| phase(j) == "dropped").count();
        let unfinished = s.jobs.len() - finished - dropped;
        report.check(
            "daemon: submitted = finished + dropped + unfinished",
            s.jobs.len() == self.inputs.jobs.len()
                && finished + dropped + unfinished == self.inputs.jobs.len(),
        );
        check_online_equals_batch(report, &s.jobs, replica);
    }

    pub fn trace(&self, repro: &Path, report: &mut Report, out: &Path, seed: u64) {
        let plain = session(repro, "testbed", &self.resume, self.stream(), 1, report);
        let mut t0 = Timing::default();
        let replica0 = self.replica(&Mode::untraced(), &mut t0, report, &mut Layers::default());
        self.baselines(&Mode::untraced(), &mut t0, report, &mut Layers::default());
        let mut layers = Layers::default();
        let mode = Mode {
            registry: Some(std::sync::Arc::new(arena::sim::MetricsRegistry::new(256))),
        };
        probe::install();
        let traced = session(repro, "testbed", &self.resume, self.stream(), 1, report);
        let mut t1 = Timing::default();
        let replica1 = self.replica(&mode, &mut t1, report, &mut layers);
        self.baselines(&mode, &mut t1, report, &mut layers);
        layers.tracer = probe::uninstall();
        self.check(report, &traced, &replica1);
        report.check(
            "daemon: traced replica fingerprint equals untraced",
            arena::sim::record_fingerprint(&replica0.records)
                == arena::sim::record_fingerprint(&replica1.records),
        );
        layers.wall_untraced_s = plain.wall_s + t0.wall_s;
        layers.wall_traced_s = traced.wall_s + t1.wall_s;
        layers.registry = mode.registry;
        layers.pull_s = self.inputs.pull_s;
        layers.server = Some(traced.server);
        let jobs: Vec<&arena::trace::JobSpec> = self.inputs.jobs.iter().collect();
        layers.replay(&self.inputs.cluster, &jobs, SERVE_SEED);
        layers.emit(report);
        layers.write_artifact(out, "daemon_restart_tcp", seed);
    }
}
