//! Live telemetry: the metrics registry behind `arena-server`'s
//! `query metrics` / `watch`.
//!
//! The registry is the only store of [`Obs`](crate::Obs)'s counters,
//! gauges, histograms and spans; the trace keeps just decisions and the
//! timeline. Everything here is readable mid-run from any thread
//! without touching the decision loop:
//!
//! * [`Counter`] / [`Gauge`] — one cache-line-padded `AtomicU64` each,
//!   so two hot counters never false-share.
//! * [`Histogram`] — a fixed array of 64 log2-bucketed atomic counters
//!   plus atomic count/sum/min/max. Recording is `fetch_add` +
//!   `fetch_min`/`fetch_max`; snapshots merge by bucket-wise
//!   addition. Log2 buckets cover ten decades of latency
//!   (1 ns … ~18 s and beyond) in 64 fixed slots with ≤2x relative
//!   error and no allocation, which is why they are used instead of
//!   exact sample vectors.
//! * [`MetricsRegistry`] — name → handle maps behind one
//!   `RwLock<Arc<_>>`. A lookup holds the read lock only to clone the
//!   `Arc`; registering a new name takes the write lock, at most once
//!   per distinct metric name.
//!
//! Nothing on the record path takes a lock or allocates: counters,
//! gauges and histogram observations on a held handle are a handful of
//! atomic ops.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use crate::HistStats;

/// Number of log2 buckets per histogram. Bucket `k` (k ≥ 1) holds
/// values whose nanosecond tick count has bit-length `k`, i.e. ticks in
/// `[2^(k-1), 2^k)`; bucket 0 holds exact zeros. Values past bucket 62
/// clamp into the last bucket.
pub const HIST_BUCKETS: usize = 64;

/// One cache line per counter: adjacent hot counters in the registry
/// never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PadAtomic(AtomicU64);

/// A monotonically increasing atomic counter handle.
///
/// Cloning shares the cell; `incr` is a single relaxed `fetch_add`.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<PadAtomic>,
}

impl Counter {
    /// Adds `by` to the counter.
    pub fn incr(&self, by: u64) {
        self.cell.0.fetch_add(by, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.0.load(Ordering::Relaxed)
    }
}

/// A last-value atomic gauge handle storing `f64` bits.
///
/// Non-finite values are recorded as `0` so exposition output never
/// carries `NaN`/`Inf` samples.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<PadAtomic>,
}

impl Gauge {
    /// Stores `value` (non-finite values store `0`).
    pub fn set(&self, value: f64) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.cell.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.0.load(Ordering::Relaxed))
    }
}

/// Shared state of one histogram; padded so the header atomics live on
/// their own line and the bucket array packs behind them.
#[derive(Debug)]
#[repr(align(64))]
struct HistCore {
    count: AtomicU64,
    /// Sum in nanosecond ticks: `fetch_add` keeps it exact and
    /// monotone, which the concurrent-reader tests rely on.
    sum_ticks: AtomicU64,
    min_ticks: AtomicU64,
    max_ticks: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for HistCore {
    fn default() -> Self {
        HistCore {
            count: AtomicU64::new(0),
            sum_ticks: AtomicU64::new(0),
            min_ticks: AtomicU64::new(u64::MAX),
            max_ticks: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Converts a value in seconds (or any non-negative unit) to integer
/// nanosecond ticks; negative and non-finite values clamp to zero.
fn to_ticks(value: f64) -> u64 {
    if value.is_finite() && value > 0.0 {
        // `as` saturates at u64::MAX for huge values.
        (value * 1e9).round() as u64
    } else {
        0
    }
}

fn ticks_to_value(ticks: u64) -> f64 {
    ticks as f64 / 1e9
}

/// Bucket index for a tick count: 0 for zero, else bit length clamped
/// to the last bucket.
#[must_use]
pub fn bucket_of(ticks: u64) -> usize {
    if ticks == 0 {
        0
    } else {
        ((64 - ticks.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `idx` in value units (seconds).
#[must_use]
pub fn bucket_upper(idx: usize) -> f64 {
    if idx == 0 {
        0.0
    } else if idx >= HIST_BUCKETS - 1 {
        f64::INFINITY
    } else {
        ticks_to_value((1_u64 << idx) - 1)
    }
}

/// A log2-bucketed atomic histogram handle.
///
/// Recording is four relaxed atomic ops; no lock, no allocation.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    core: Arc<HistCore>,
}

impl Histogram {
    /// Records one value (seconds for latency histograms; any
    /// non-negative unit works — ticks are `value * 1e9`).
    pub fn observe(&self, value: f64) {
        self.observe_ticks(to_ticks(value));
    }

    /// Records one pre-converted tick count.
    pub fn observe_ticks(&self, ticks: u64) {
        let c = &*self.core;
        c.buckets[bucket_of(ticks)].fetch_add(1, Ordering::Relaxed);
        c.sum_ticks.fetch_add(ticks, Ordering::Relaxed);
        c.min_ticks.fetch_min(ticks, Ordering::Relaxed);
        c.max_ticks.fetch_max(ticks, Ordering::Relaxed);
        // Count last: a concurrent reader that sees the new count also
        // wants to see a sum at least as new, and x86/ARM RMW ordering
        // plus the monotone-sum test tolerance make Relaxed adequate —
        // consistency is asserted as "sum and count never decrease".
        c.count.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state.
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        let c = &*self.core;
        HistSnapshot {
            buckets: std::array::from_fn(|i| c.buckets[i].load(Ordering::Relaxed)),
            count: c.count.load(Ordering::Relaxed),
            sum_ticks: c.sum_ticks.load(Ordering::Relaxed),
            min_ticks: c.min_ticks.load(Ordering::Relaxed),
            max_ticks: c.max_ticks.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of one histogram's buckets, mergeable by addition.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// Per-bucket counts (not cumulative).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total recorded values.
    pub count: u64,
    /// Exact sum in ticks.
    pub sum_ticks: u64,
    /// Smallest recorded tick count (`u64::MAX` when empty).
    pub min_ticks: u64,
    /// Largest recorded tick count.
    pub max_ticks: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum_ticks: 0,
            min_ticks: u64::MAX,
            max_ticks: 0,
        }
    }
}

impl HistSnapshot {
    /// Adds another snapshot into this one (bucket-wise).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ticks += other.sum_ticks;
        self.min_ticks = self.min_ticks.min(other.min_ticks);
        self.max_ticks = self.max_ticks.max(other.max_ticks);
    }

    /// Sum in value units.
    #[must_use]
    pub fn sum(&self) -> f64 {
        ticks_to_value(self.sum_ticks)
    }

    /// Nearest-rank quantile approximated by the bucket upper bound,
    /// clamped into the exact `[min, max]` envelope. Never NaN: an
    /// empty snapshot answers `0`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0_u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let lo = ticks_to_value(self.min_ticks);
                let hi = ticks_to_value(self.max_ticks);
                return bucket_upper(idx).clamp(lo, hi);
            }
        }
        ticks_to_value(self.max_ticks)
    }

    /// Summarises into the shared [`HistStats`] shape; all fields are
    /// finite for every possible snapshot (empty included).
    #[must_use]
    pub fn stats(&self) -> HistStats {
        if self.count == 0 {
            return HistStats::default();
        }
        HistStats {
            count: self.count,
            sum: self.sum(),
            min: ticks_to_value(self.min_ticks),
            max: ticks_to_value(self.max_ticks),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

// --- registry --------------------------------------------------------

/// The name → handle maps; registration inserts under the write lock.
#[derive(Debug, Default, Clone)]
struct MetricsMap {
    counters: HashMap<String, Counter>,
    gauges: HashMap<String, Gauge>,
    hists: HashMap<String, Histogram>,
}

/// The metrics registry: named counters, gauges and histograms.
///
/// Reads and records take the read lock just long enough to clone the
/// current map's `Arc`, then do a hash lookup plus the handle's atomics.
/// Registering a *new* name takes the write lock and inserts into the
/// map, cloning it only if a reader still holds the old one — at most
/// once per distinct name over the registry's lifetime. Callers on hot
/// paths should pre-register and hold handles directly.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    map: RwLock<Arc<MetricsMap>>,
}

impl MetricsRegistry {
    /// An empty registry. The argument is ignored: it sized a decision
    /// ring the registry no longer keeps, and `e2ebench/` still passes
    /// it.
    #[must_use]
    pub fn new(_flight_capacity: usize) -> Self {
        Self::default()
    }

    /// The current name map. The read guard drops before this returns,
    /// so no caller can hold it into `register`'s write lock. Every
    /// write is one insert, so a poisoned lock still guards a valid map.
    fn load(&self) -> Arc<MetricsMap> {
        Arc::clone(&self.map.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Get-or-register `name` in the table `table` picks. Another
    /// thread may have registered the name since the caller's read
    /// missed; `entry` keeps the first handle either way.
    fn register<H: Clone + Default>(
        &self,
        name: &str,
        table: fn(&mut MetricsMap) -> &mut HashMap<String, H>,
    ) -> H {
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        table(Arc::make_mut(&mut map))
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get-or-register a counter handle.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.load().counters.get(name) {
            return c.clone();
        }
        self.register(name, |m| &mut m.counters)
    }

    /// Get-or-register a gauge handle.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.load().gauges.get(name) {
            return g.clone();
        }
        self.register(name, |m| &mut m.gauges)
    }

    /// Get-or-register a histogram handle.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.load().hists.get(name) {
            return h.clone();
        }
        self.register(name, |m| &mut m.hists)
    }

    /// Name-routed counter increment: no write lock once the name is
    /// registered.
    pub fn incr(&self, name: &str, by: u64) {
        if let Some(c) = self.load().counters.get(name) {
            c.incr(by);
            return;
        }
        self.counter(name).incr(by);
    }

    /// Name-routed gauge store.
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(g) = self.load().gauges.get(name) {
            g.set(value);
            return;
        }
        self.gauge(name).set(value);
    }

    /// Name-routed histogram observation.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(h) = self.load().hists.get(name) {
            h.observe(value);
            return;
        }
        self.histogram(name).observe(value);
    }

    /// Point-in-time counter values, sorted by name.
    #[must_use]
    pub fn counters_snapshot(&self) -> BTreeMap<String, u64> {
        self.load()
            .counters
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }

    /// Point-in-time histogram summaries, sorted by name.
    #[must_use]
    pub fn histograms_snapshot(&self) -> BTreeMap<String, HistStats> {
        self.load()
            .hists
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot().stats()))
            .collect()
    }

    /// Deterministic Prometheus-style text exposition: every counter,
    /// gauge and histogram, sorted by full sample name, one `# TYPE`
    /// header per metric family. Histograms render cumulative
    /// `_bucket{le=...}` samples (only buckets that change the
    /// cumulative count, plus `+Inf`), `_sum` and `_count`.
    #[must_use]
    pub fn expose(&self) -> String {
        let map = self.load();
        let mut out = String::new();
        let mut sorted_c: Vec<_> = map.counters.iter().collect();
        sorted_c.sort_by(|a, b| a.0.cmp(b.0));
        for (name, c) in sorted_c {
            let (base, labels) = split_labels(name);
            let _ = writeln!(out, "# TYPE {base} counter");
            let _ = writeln!(out, "{base}{labels} {}", c.get());
        }
        let mut sorted_g: Vec<_> = map.gauges.iter().collect();
        sorted_g.sort_by(|a, b| a.0.cmp(b.0));
        for (name, g) in sorted_g {
            let (base, labels) = split_labels(name);
            let _ = writeln!(out, "# TYPE {base} gauge");
            let _ = writeln!(out, "{base}{labels} {}", fmt_value(g.get()));
        }
        let mut sorted_h: Vec<_> = map.hists.iter().collect();
        sorted_h.sort_by(|a, b| a.0.cmp(b.0));
        for (name, h) in sorted_h {
            let (base, labels) = split_labels(name);
            let snap = h.snapshot();
            let _ = writeln!(out, "# TYPE {base} histogram");
            let mut cum = 0_u64;
            for (idx, &n) in snap.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cum += n;
                let le = bucket_upper(idx);
                if le.is_finite() {
                    let _ = writeln!(
                        out,
                        "{base}_bucket{} {cum}",
                        with_label(&labels, "le", &fmt_value(le))
                    );
                }
            }
            let _ = writeln!(
                out,
                "{base}_bucket{} {}",
                with_label(&labels, "le", "+Inf"),
                snap.count
            );
            let _ = writeln!(out, "{base}_sum{labels} {}", fmt_value(snap.sum()));
            let _ = writeln!(out, "{base}_count{labels} {}", snap.count);
        }
        out
    }
}

/// Publishes a memory ledger into the registry as one gauge family per
/// field, labelled by section:
///
/// * `mem.bytes{section="..."}` — live accounted bytes,
/// * `mem.entries{section="..."}` — live entries behind those bytes.
///
/// Callers refresh on their own cadence (the engine republishes after
/// each scheduling pass); between refreshes the gauges hold the last
/// published ledger.
pub fn publish_mem_sections(reg: &MetricsRegistry, sections: &[arena_runtime::MemSection]) {
    for s in sections {
        let labels: &[(&str, &str)] = &[("section", &s.name)];
        reg.set_gauge(&labeled("mem.bytes", labels), s.bytes as f64);
        reg.set_gauge(&labeled("mem.entries", labels), s.entries as f64);
    }
}

/// Builds a registry key with Prometheus label syntax:
/// `labeled("mem.bytes", &[("section", "plans.graphs")])` →
/// `mem.bytes{section="plans.graphs"}`.
#[must_use]
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut s = String::with_capacity(base.len() + 16 * labels.len());
    s.push_str(base);
    s.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{k}=\"{v}\"");
    }
    s.push('}');
    s
}

/// Splits a registry key into (sanitised base, label part). The base
/// sanitises to `[A-Za-z0-9_]` (dots and dashes become underscores);
/// labels pass through verbatim.
fn split_labels(key: &str) -> (String, String) {
    let (base, labels) = match key.find('{') {
        Some(i) => (&key[..i], key[i..].to_string()),
        None => (key, String::new()),
    };
    let sanitised: String = base
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    (sanitised, labels)
}

/// Appends one label to an existing (possibly empty) label block.
fn with_label(labels: &str, key: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{{{key}=\"{value}\"}}")
    } else {
        // `{a="b"}` -> `{a="b",key="value"}`
        format!("{},{key}=\"{value}\"}}", &labels[..labels.len() - 1])
    }
}

/// Deterministic float rendering for exposition samples (plain `{}`;
/// non-finite values render as `0` — they cannot occur for histogram
/// fields and gauges clamp on store).
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_are_shared_handles() {
        let reg = MetricsRegistry::new(4);
        let c = reg.counter("a.b");
        c.incr(2);
        reg.incr("a.b", 3);
        assert_eq!(reg.counter("a.b").get(), 5);
        let g = reg.gauge("depth");
        g.set(4.0);
        reg.set_gauge("depth", 7.5);
        assert_eq!(reg.gauge("depth").get(), 7.5);
        g.set(f64::NAN);
        assert_eq!(reg.gauge("depth").get(), 0.0);
    }

    #[test]
    fn histogram_buckets_merge_and_summarise() {
        let reg = MetricsRegistry::new(4);
        let h = reg.histogram("lat");
        for v in [1e-6, 2e-6, 1e-3, 0.5] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert!((snap.sum() - 0.501003).abs() < 1e-6);
        let stats = snap.stats();
        assert_eq!(stats.count, 4);
        assert!(stats.min > 0.0 && stats.min < 2e-6);
        assert!((stats.max - 0.5).abs() < 1e-9);
        // Quantiles are bucket upper bounds clamped to [min, max]:
        // finite, ordered, never NaN.
        assert!(stats.p50 <= stats.p95 && stats.p95 <= stats.p99);
        assert!(stats.p99 <= stats.max + 1e-12);
        // Merge doubles everything.
        let mut merged = h.snapshot();
        merged.merge(&h.snapshot());
        assert_eq!(merged.count, 8);
        assert_eq!(merged.sum_ticks, 2 * snap.sum_ticks);
    }

    #[test]
    fn empty_and_single_sample_histograms_are_finite() {
        let h = Histogram::default();
        let empty = h.snapshot().stats();
        assert_eq!(empty, HistStats::default());
        h.observe(0.25);
        let one = h.snapshot().stats();
        assert_eq!(one.count, 1);
        assert_eq!(one.min, one.max);
        assert_eq!(one.p50, one.max);
        assert_eq!(one.p99, one.max);
        // NaN / negative observations clamp into the zero bucket rather
        // than poisoning the stats.
        h.observe(f64::NAN);
        h.observe(-3.0);
        let s = h.snapshot().stats();
        assert_eq!(s.count, 3);
        assert!(s.sum.is_finite() && s.p50.is_finite() && s.min == 0.0);
    }

    #[test]
    fn bucket_bounds_are_monotone() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        let mut prev = -1.0;
        for i in 0..HIST_BUCKETS - 1 {
            let ub = bucket_upper(i);
            assert!(ub > prev);
            prev = ub;
        }
        assert!(bucket_upper(HIST_BUCKETS - 1).is_infinite());
    }

    #[test]
    fn exposition_is_sorted_and_labelled() {
        let reg = MetricsRegistry::new(4);
        reg.counter("sim.event.arrival").incr(3);
        reg.counter(&labeled("srv.cmd", &[("kind", "submit")]))
            .incr(1);
        reg.gauge(&labeled("sim.shard.heap_depth", &[("shard", "0")]))
            .set(5.0);
        reg.histogram("srv.publish_seconds").observe(1e-6);
        let text = reg.expose();
        let arrival = text.find("sim_event_arrival 3").expect("counter sample");
        let labelled = text
            .find("srv_cmd{kind=\"submit\"} 1")
            .expect("labelled counter");
        assert!(arrival < labelled, "counters sort by name");
        assert!(text.contains("# TYPE sim_shard_heap_depth gauge"));
        assert!(text.contains("sim_shard_heap_depth{shard=\"0\"} 5"));
        assert!(text.contains("# TYPE srv_publish_seconds histogram"));
        assert!(text.contains("srv_publish_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("srv_publish_seconds_count 1"));
        // Deterministic: two expositions of the same registry match.
        assert_eq!(text, reg.expose());
    }

    #[test]
    fn mem_sections_publish_as_labelled_gauges() {
        let reg = MetricsRegistry::new(4);
        let sections = vec![
            arena_runtime::MemSection::new("plans.cells", 4096, 12),
            arena_runtime::MemSection::new("plans.graphs", 512, 2),
        ];
        publish_mem_sections(&reg, &sections);
        let g = |name: &str| reg.gauge(name).get();
        assert_eq!(g("mem.bytes{section=\"plans.cells\"}"), 4096.0);
        assert_eq!(g("mem.entries{section=\"plans.cells\"}"), 12.0);
        let text = reg.expose();
        assert!(text.contains("mem_bytes{section=\"plans.graphs\"} 512"));
        // Republishing overwrites in place — gauges track the ledger.
        let mut grown = sections;
        grown[0].bytes = 8192;
        publish_mem_sections(&reg, &grown);
        assert_eq!(g("mem.bytes{section=\"plans.cells\"}"), 8192.0);
    }

    #[test]
    fn concurrent_increments_do_not_lose_counts() {
        let reg = Arc::new(MetricsRegistry::new(4));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        reg.incr("hot", 1);
                        reg.observe("lat", 1e-6);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker");
        }
        assert_eq!(reg.counter("hot").get(), 40_000);
        let snap = reg.histogram("lat").snapshot();
        assert_eq!(snap.count, 40_000);
        assert_eq!(snap.sum_ticks, 40_000 * 1_000);
    }
}
