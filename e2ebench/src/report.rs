//! The result line, output checks and percentile helpers.

use std::fmt::Write as _;

/// What one benchmark invocation prints as its last line.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (submits, fault injections, policy runs,
    /// daemon commands).
    pub attempted: u64,
    /// Operations that failed: an `ok:false` reply, an I/O error, an
    /// `InputError`, a panic or a daemon exit before `shutdown`.
    pub failed: u64,
    failed_checks: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records one metric. Names repeat nowhere, so a second record of a
    /// name is a bug in the benchmark.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            self.metrics.iter().all(|(n, _, _)| n != name),
            "metric {name} recorded twice"
        );
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            eprintln!("check failed: {what}");
            self.failed_checks.push(what.to_string());
        }
    }

    /// Counts one attempted operation and whether it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Whether every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty() && self.failed == 0
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{}` on f64 prints the shortest string that round-trips,
            // i.e. every digit the measurement has.
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of p99/p95/p90/p50 that has at least ten samples beyond
/// it: p99 needs 1,000 samples, p95 200, p90 100.
pub fn tail_q(n: usize) -> f64 {
    [0.99, 0.95, 0.90]
        .into_iter()
        .find(|q| n as f64 * (1.0 - q) >= 9.999)
        .unwrap_or(0.5)
}

/// Logs a timing's median, its supported tail and the sample count.
pub fn log_timing(name: &str, samples: &[f64], scale: f64, unit: &str) {
    let q = tail_q(samples.len());
    eprintln!(
        "  {name}: p50 {:.4} {unit}, p{} {:.4} {unit}, n={}",
        quantile(samples, 0.5) * scale,
        (q * 100.0).round(),
        quantile(samples, q) * scale,
        samples.len()
    );
}

/// A constant-memory latency histogram with 64 log buckets per octave
/// (about 1% resolution) from 1 ns to ~18 min, so recording every engine
/// burst does not grow the process the benchmark measures.
#[derive(Debug, Clone)]
pub struct LatHist {
    counts: Vec<u64>,
    n: u64,
}

const LAT_SUB: f64 = 64.0;
const LAT_MIN_S: f64 = 1e-9;
const LAT_BUCKETS: usize = 40 * 64;

impl Default for LatHist {
    fn default() -> Self {
        LatHist {
            counts: vec![0; LAT_BUCKETS],
            n: 0,
        }
    }
}

impl LatHist {
    pub fn record(&mut self, s: f64) {
        let i = ((s.max(LAT_MIN_S) / LAT_MIN_S).log2() * LAT_SUB) as usize;
        self.counts[i.min(LAT_BUCKETS - 1)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Nearest-rank quantile, reported at the bucket's geometric middle.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return LAT_MIN_S * ((i as f64 + 0.5) / LAT_SUB).exp2();
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// Median of a small sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn vm_hwm_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
