//! Pull-based trace sources for fleet-scale streaming ingestion.
//!
//! Million-job traces do not fit comfortably in memory — and never need
//! to: the incremental engine consumes arrivals strictly in submission
//! order, so a trace can be *pulled* one job at a time from a generator
//! or a file. [`TraceSource`] is that seam. The three implementations —
//! [`crate::GenSource`] (synthetic, seeded), [`JsonlSource`] (one JSON
//! job per line, constant memory) and [`VecSource`] (in-memory adapter
//! for tests and small traces) — all yield the same `JobSpec` values
//! batch drivers see, so streaming is byte-invisible in simulated
//! output.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::gen::GenSource;
use crate::job::JobSpec;

/// A pull-based stream of jobs in nondecreasing `submit_s` order.
///
/// Sources are fallible (file-backed ones do I/O per pull); infallible
/// sources wrap their items in `Ok`. Exhaustion is `Ok(None)` and is
/// sticky: once a source returns `None` it keeps returning `None`.
pub trait TraceSource {
    /// Pulls the next job, or `Ok(None)` at end of trace.
    ///
    /// # Errors
    ///
    /// Returns an error when the underlying medium fails (unreadable
    /// file, malformed line, out-of-order submission).
    fn next_job(&mut self) -> std::io::Result<Option<JobSpec>>;
}

impl TraceSource for GenSource {
    fn next_job(&mut self) -> std::io::Result<Option<JobSpec>> {
        Ok(self.next())
    }
}

/// An in-memory trace adapted to the streaming interface. Used by tests
/// and by callers that already hold a `Vec<JobSpec>`.
#[derive(Debug)]
pub struct VecSource {
    jobs: std::vec::IntoIter<JobSpec>,
}

impl VecSource {
    /// Wraps an already-sorted trace.
    #[must_use]
    pub fn new(jobs: Vec<JobSpec>) -> Self {
        VecSource {
            jobs: jobs.into_iter(),
        }
    }
}

impl TraceSource for VecSource {
    fn next_job(&mut self) -> std::io::Result<Option<JobSpec>> {
        Ok(self.jobs.next())
    }
}

/// Caps another source at an exact job count. Fleet-scale benches use
/// it to cut an open-ended generator ([`crate::GenSource`] with a huge
/// duration) down to "exactly N arrivals" without materialising them.
#[derive(Debug)]
pub struct TakeSource<S> {
    inner: S,
    left: u64,
}

impl<S: TraceSource> TakeSource<S> {
    /// A source yielding at most `n` jobs from `inner`.
    #[must_use]
    pub fn new(inner: S, n: u64) -> Self {
        TakeSource { inner, left: n }
    }
}

impl<S: TraceSource> TraceSource for TakeSource<S> {
    fn next_job(&mut self) -> std::io::Result<Option<JobSpec>> {
        if self.left == 0 {
            return Ok(None);
        }
        let job = self.inner.next_job()?;
        if job.is_some() {
            self.left -= 1;
        }
        Ok(job)
    }
}

/// A JSONL-backed trace source: one `JobSpec` JSON object per line,
/// read through a buffered reader so memory stays constant no matter
/// how long the trace file is. Submission order is validated on the
/// fly, mirroring [`crate::load_json`].
#[derive(Debug)]
pub struct JsonlSource<R: BufRead> {
    reader: R,
    line: String,
    lineno: u64,
    last_submit_s: f64,
    done: bool,
}

impl JsonlSource<BufReader<File>> {
    /// Opens a trace file written by [`save_jsonl`] or [`JsonlWriter`].
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be opened.
    pub fn open<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        Ok(JsonlSource::new(BufReader::new(File::open(path)?)))
    }
}

impl<R: BufRead> JsonlSource<R> {
    /// Wraps any buffered reader yielding one JSON job per line.
    #[must_use]
    pub fn new(reader: R) -> Self {
        JsonlSource {
            reader,
            line: String::new(),
            lineno: 0,
            last_submit_s: f64::NEG_INFINITY,
            done: false,
        }
    }
}

impl<R: BufRead> TraceSource for JsonlSource<R> {
    fn next_job(&mut self) -> std::io::Result<Option<JobSpec>> {
        loop {
            if self.done {
                return Ok(None);
            }
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                self.done = true;
                return Ok(None);
            }
            self.lineno += 1;
            let trimmed = self.line.trim();
            if trimmed.is_empty() {
                continue; // Blank lines are tolerated (trailing newline).
            }
            let job: JobSpec = serde_json::from_str(trimmed)
                .map_err(|e| std::io::Error::other(format!("trace line {}: {e:?}", self.lineno)))?;
            if job.submit_s < self.last_submit_s {
                self.done = true;
                return Err(std::io::Error::other(format!(
                    "trace line {}: submit_s {} regresses below {}",
                    self.lineno, job.submit_s, self.last_submit_s
                )));
            }
            self.last_submit_s = job.submit_s;
            return Ok(Some(job));
        }
    }
}

/// An incremental JSONL trace writer: streams jobs to disk one line at
/// a time, so a million-job trace can be exported without ever holding
/// it in memory.
#[derive(Debug)]
pub struct JsonlWriter {
    out: BufWriter<File>,
    written: u64,
}

impl JsonlWriter {
    /// Creates (truncates) the trace file.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be created.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        Ok(JsonlWriter {
            out: BufWriter::new(File::create(path)?),
            written: 0,
        })
    }

    /// Appends one job as a single JSON line.
    ///
    /// # Errors
    ///
    /// Returns any I/O or serialisation error.
    pub fn write_job(&mut self, job: &JobSpec) -> std::io::Result<()> {
        let line =
            serde_json::to_string(job).map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.written += 1;
        Ok(())
    }

    /// Jobs written so far.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes buffered lines to disk.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the flush.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// Saves a trace in the one-job-per-line JSONL format [`JsonlSource`]
/// reads.
///
/// # Errors
///
/// Returns any I/O or serialisation error.
pub fn save_jsonl<P: AsRef<Path>>(path: P, jobs: &[JobSpec]) -> std::io::Result<()> {
    let mut w = JsonlWriter::create(path)?;
    for job in jobs {
        w.write_job(job)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TraceConfig, TraceKind};

    fn cfg() -> TraceConfig {
        TraceConfig::new(TraceKind::PaiLow, 2.0 * 3600.0, 64, vec![48.0, 24.0])
    }

    fn drain(src: &mut dyn TraceSource) -> Vec<JobSpec> {
        let mut out = Vec::new();
        while let Some(j) = src.next_job().unwrap() {
            out.push(j);
        }
        out
    }

    fn assert_same(a: &[JobSpec], b: &[JobSpec]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.name, y.name);
            assert_eq!(x.submit_s.to_bits(), y.submit_s.to_bits());
            assert_eq!(x.model, y.model);
            assert_eq!(x.iterations, y.iterations);
            assert_eq!(x.requested_gpus, y.requested_gpus);
            assert_eq!(x.requested_pool, y.requested_pool);
            assert_eq!(
                x.deadline_s.map(f64::to_bits),
                y.deadline_s.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn gen_source_streams_the_batch_trace_exactly() {
        let batch = generate(&cfg());
        let streamed = drain(&mut GenSource::new(&cfg()));
        assert_same(&batch, &streamed);
        // Exhaustion is sticky.
        let mut src = GenSource::new(&cfg());
        while src.next_job().unwrap().is_some() {}
        assert!(src.next_job().unwrap().is_none());
    }

    #[test]
    fn vec_source_round_trips() {
        let batch = generate(&cfg());
        let streamed = drain(&mut VecSource::new(batch.clone()));
        assert_same(&batch, &streamed);
    }

    #[test]
    fn jsonl_round_trips_bitwise() {
        let batch = generate(&cfg());
        let path =
            std::env::temp_dir().join(format!("arena-trace-jsonl-{}.jsonl", std::process::id()));
        save_jsonl(&path, &batch).unwrap();
        let loaded = drain(&mut JsonlSource::open(&path).unwrap());
        assert_same(&batch, &loaded);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn jsonl_rejects_out_of_order_lines() {
        let mut jobs = generate(&cfg());
        assert!(jobs.len() >= 2);
        jobs.swap(0, 1);
        let path =
            std::env::temp_dir().join(format!("arena-trace-unsorted-{}.jsonl", std::process::id()));
        save_jsonl(&path, &jobs).unwrap();
        let mut src = JsonlSource::open(&path).unwrap();
        let mut err = None;
        loop {
            match src.next_job() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(err.is_some(), "out-of-order line must be rejected");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn take_source_caps_the_count_and_stays_exhausted() {
        let batch = generate(&cfg());
        assert!(batch.len() > 3, "fixture too small");
        let mut capped = TakeSource::new(VecSource::new(batch.clone()), 3);
        let got = drain(&mut capped);
        assert_same(&batch[..3], &got);
        assert!(capped.next_job().unwrap().is_none(), "exhaustion is sticky");
        // A cap beyond the trace length is the identity.
        let mut wide = TakeSource::new(VecSource::new(batch.clone()), u64::MAX);
        assert_same(&batch, &drain(&mut wide));
    }

    #[test]
    fn jsonl_rejects_garbage() {
        let mut src = JsonlSource::new(std::io::Cursor::new(b"{not json}\n".to_vec()));
        assert!(src.next_job().is_err());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let batch = generate(&cfg());
        let mut text = String::new();
        for j in &batch {
            text.push_str(&serde_json::to_string(j).unwrap());
            text.push_str("\n\n");
        }
        let loaded = drain(&mut JsonlSource::new(std::io::Cursor::new(
            text.into_bytes(),
        )));
        assert_same(&batch, &loaded);
    }
}
