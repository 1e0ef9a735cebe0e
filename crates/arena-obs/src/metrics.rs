//! Lock-free live telemetry: the metrics registry and the flight
//! recorder behind `arena-server`'s `query metrics` / `watch` / `dump`.
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
//! * [`FlightRecorder`] — a fixed-capacity ring of seqlock-versioned
//!   word slots holding the last N decisions in POD form, dumped
//!   post-mortem as JSONL byte-identical to the decision log.
//! * [`MetricsRegistry`] — name → handle maps published through
//!   [`RcuCell`], so `incr("name")`-style lookups are wait-free;
//!   registration of a new name is the only operation that takes a
//!   lock, and it happens at most once per distinct metric name.
//!
//! Nothing on the record path takes a `Mutex` or allocates a `String`:
//! counters, gauges and histogram observations are a handful of atomic
//! ops; flight-recorder writes store pre-interned ids (interning
//! happens on the cold context-change path).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use arena_runtime::RcuCell;

use crate::{Decision, DecisionKind, HistStats};

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

// --- flight recorder -------------------------------------------------

/// Words per flight-recorder slot (one encoded [`Decision`]).
const FLIGHT_WORDS: usize = 8;

/// One ring slot: a seqlock version plus the encoded record. An odd
/// version means a write is in progress; an even version `2 * (i + 1)`
/// means the slot holds record number `i` completely.
#[derive(Debug)]
struct FlightSlot {
    version: AtomicU64,
    words: [AtomicU64; FLIGHT_WORDS],
}

/// Interned strings referenced by ring entries. Touched only when a
/// *new* policy/trigger/reason first appears (cold) and at dump time.
#[derive(Debug, Default)]
struct FlightStrings {
    policies: Vec<String>,
    triggers: Vec<String>,
    reasons: Vec<&'static str>,
}

impl FlightStrings {
    fn intern_owned(table: &mut Vec<String>, s: &str) -> u16 {
        if let Some(i) = table.iter().position(|t| t == s) {
            return i as u16;
        }
        table.push(s.to_string());
        (table.len() - 1) as u16
    }
}

/// Fixed-capacity post-mortem ring holding the last N decisions in POD
/// form. Writers store pre-interned ids with a per-slot seqlock — no
/// `Mutex`, no allocation; readers retry torn slots and drop entries
/// the writer lapped mid-read. Writes must be externally serialised
/// (in practice they happen inside [`Obs::decision`](crate::Obs), which
/// already holds the trace lock to stamp sequence numbers).
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[FlightSlot]>,
    /// Total records ever written.
    head: AtomicU64,
    strings: Mutex<FlightStrings>,
}

// Bit layout of word 3.
const FL_HAS_POOL: u64 = 1 << 8;
const FL_HAS_GPUS: u64 = 1 << 9;
const FL_OPPORTUNISTIC: u64 = 1 << 10;
const FL_HAS_SCORE: u64 = 1 << 11;
const FL_HAS_PREV: u64 = 1 << 12;
const FL_HAS_SHARD: u64 = 1 << 13;

impl FlightRecorder {
    /// A ring holding the most recent `capacity` decisions.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity)
                .map(|_| FlightSlot {
                    version: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            head: AtomicU64::new(0),
            strings: Mutex::new(FlightStrings::default()),
        }
    }

    /// Ring capacity (max decisions retained).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total decisions ever recorded (not capped by capacity).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Interns a policy name, returning its stable id. Cold path: the
    /// engine calls this only when the context policy string changes.
    #[must_use]
    pub fn intern_policy(&self, s: &str) -> u16 {
        let mut g = self
            .strings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        FlightStrings::intern_owned(&mut g.policies, s)
    }

    /// Interns a trigger label (cold path, on change only).
    #[must_use]
    pub fn intern_trigger(&self, s: &str) -> u16 {
        let mut g = self
            .strings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        FlightStrings::intern_owned(&mut g.triggers, s)
    }

    /// Interns a static reason label (cold path, first occurrence only;
    /// callers cache the id).
    #[must_use]
    pub fn intern_reason(&self, s: &'static str) -> u16 {
        let mut g = self
            .strings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(i) = g.reasons.iter().position(|t| *t == s) {
            return i as u16;
        }
        g.reasons.push(s);
        (g.reasons.len() - 1) as u16
    }

    /// Records one stamped decision. Atomic stores only; see the type
    /// docs for the single-writer requirement.
    pub fn record(&self, d: &Decision, policy_id: u16, trigger_id: u16, reason_id: u16) {
        let mut w3 = match d.kind {
            DecisionKind::Place => 0_u64,
            DecisionKind::Evict => 1,
            DecisionKind::Drop => 2,
            DecisionKind::Requeue => 3,
        };
        if d.pool.is_some() {
            w3 |= FL_HAS_POOL;
        }
        if d.gpus.is_some() {
            w3 |= FL_HAS_GPUS;
        }
        if d.opportunistic {
            w3 |= FL_OPPORTUNISTIC;
        }
        if d.score.is_some() {
            w3 |= FL_HAS_SCORE;
        }
        if d.prev_pool.is_some() && d.prev_gpus.is_some() {
            w3 |= FL_HAS_PREV;
        }
        if d.shard.is_some() {
            w3 |= FL_HAS_SHARD;
        }
        w3 |= u64::from(policy_id) << 16;
        w3 |= u64::from(trigger_id) << 32;
        w3 |= u64::from(reason_id) << 48;
        let words: [u64; FLIGHT_WORDS] = [
            d.seq,
            d.time_s.to_bits(),
            d.job,
            w3,
            (d.pool.unwrap_or(0) as u64) | ((d.gpus.unwrap_or(0) as u64) << 32),
            d.score.unwrap_or(0.0).to_bits(),
            (d.prev_pool.unwrap_or(0) as u64) | ((d.prev_gpus.unwrap_or(0) as u64) << 32),
            u64::from(d.shard.unwrap_or(0)),
        ];
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h % self.slots.len() as u64) as usize];
        slot.version.store(2 * h + 1, Ordering::Release);
        for (cell, v) in slot.words.iter().zip(words.iter()) {
            cell.store(*v, Ordering::Relaxed);
        }
        slot.version.store(2 * (h + 1), Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// The last `n` decisions, oldest first. Entries the writer lapped
    /// or tore during the read are dropped (a quiescent ring returns
    /// exactly the newest `min(n, total, capacity)` records).
    #[must_use]
    pub fn recent(&self, n: usize) -> Vec<Decision> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let take = (n as u64).min(head).min(cap);
        let strings = self
            .strings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = Vec::with_capacity(take as usize);
        for i in head - take..head {
            let slot = &self.slots[(i % cap) as usize];
            for _attempt in 0..64 {
                let v1 = slot.version.load(Ordering::Acquire);
                if v1 != 2 * (i + 1) {
                    // Mid-write or already overwritten by a newer record.
                    if v1.is_multiple_of(2) {
                        break;
                    }
                    std::hint::spin_loop();
                    continue;
                }
                let words: [u64; FLIGHT_WORDS] =
                    std::array::from_fn(|k| slot.words[k].load(Ordering::Acquire));
                if slot.version.load(Ordering::Acquire) == v1 {
                    out.push(Self::decode(&words, &strings));
                    break;
                }
            }
        }
        out
    }

    /// The last `n` decisions rendered as JSONL, byte-identical to the
    /// tail of the decision log the trace layer writes.
    #[must_use]
    pub fn dump_jsonl(&self, n: usize) -> String {
        let mut out = String::new();
        for d in self.recent(n) {
            out.push_str(&d.to_json());
            out.push('\n');
        }
        out
    }

    fn decode(words: &[u64; FLIGHT_WORDS], strings: &FlightStrings) -> Decision {
        let w3 = words[3];
        let kind = match w3 & 0xff {
            0 => DecisionKind::Place,
            1 => DecisionKind::Evict,
            2 => DecisionKind::Drop,
            _ => DecisionKind::Requeue,
        };
        let lookup_owned = |table: &Vec<String>, id: u64| -> String {
            table
                .get((id & 0xffff) as usize)
                .cloned()
                .unwrap_or_default()
        };
        let mut d = Decision::requeue(words[2]);
        d.kind = kind;
        d.seq = words[0];
        d.time_s = f64::from_bits(words[1]);
        d.policy = lookup_owned(&strings.policies, w3 >> 16);
        d.trigger = lookup_owned(&strings.triggers, w3 >> 32);
        d.reason = strings
            .reasons
            .get(((w3 >> 48) & 0xffff) as usize)
            .copied()
            .unwrap_or("");
        if w3 & FL_HAS_POOL != 0 {
            d.pool = Some((words[4] & 0xffff_ffff) as usize);
        }
        if w3 & FL_HAS_GPUS != 0 {
            d.gpus = Some((words[4] >> 32) as usize);
        }
        d.opportunistic = w3 & FL_OPPORTUNISTIC != 0;
        if w3 & FL_HAS_SCORE != 0 {
            d.score = Some(f64::from_bits(words[5]));
        }
        if w3 & FL_HAS_PREV != 0 {
            d.prev_pool = Some((words[6] & 0xffff_ffff) as usize);
            d.prev_gpus = Some((words[6] >> 32) as usize);
        }
        if w3 & FL_HAS_SHARD != 0 {
            d.shard = Some(words[7] as u32);
        }
        d
    }
}

// --- registry --------------------------------------------------------

/// Immutable handle map republished on every registration.
#[derive(Debug, Default, Clone)]
struct MetricsMap {
    counters: HashMap<String, Counter>,
    gauges: HashMap<String, Gauge>,
    hists: HashMap<String, Histogram>,
}

/// The lock-free metrics registry: named counters, gauges and
/// histograms plus the flight recorder.
///
/// Reads and records are wait-free (an [`RcuCell`] load plus a hash
/// lookup plus the handle's atomics). Registering a *new* name clones
/// the map under a registration lock and republishes — at most once
/// per distinct name over the registry's lifetime. Callers on hot
/// paths should pre-register and hold handles directly.
pub struct MetricsRegistry {
    map: RcuCell<MetricsMap>,
    reg_lock: Mutex<()>,
    flight: FlightRecorder,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.map.load())
            .field("flight_total", &self.flight.total())
            .finish()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new(256)
    }
}

impl MetricsRegistry {
    /// A registry whose flight recorder retains `flight_capacity`
    /// decisions.
    #[must_use]
    pub fn new(flight_capacity: usize) -> Self {
        MetricsRegistry {
            map: RcuCell::new(Arc::new(MetricsMap::default())),
            reg_lock: Mutex::new(()),
            flight: FlightRecorder::new(flight_capacity),
        }
    }

    /// The flight recorder.
    #[must_use]
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    fn register<H: Clone>(
        &self,
        name: &str,
        pick: impl Fn(&MetricsMap) -> Option<H>,
        insert: impl Fn(&mut MetricsMap, String, H),
        fresh: impl Fn() -> H,
    ) -> H {
        let _g = self
            .reg_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Re-check under the lock: another thread may have registered
        // the name between our fast-path miss and here.
        let cur = self.map.load();
        if let Some(h) = pick(&cur) {
            return h;
        }
        let handle = fresh();
        let mut next = (*cur).clone();
        insert(&mut next, name.to_string(), handle.clone());
        self.map.store(Arc::new(next));
        handle
    }

    /// Get-or-register a counter handle.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.map.load().counters.get(name) {
            return c.clone();
        }
        self.register(
            name,
            |m| m.counters.get(name).cloned(),
            |m, k, h| {
                m.counters.insert(k, h);
            },
            Counter::default,
        )
    }

    /// Get-or-register a gauge handle.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.map.load().gauges.get(name) {
            return g.clone();
        }
        self.register(
            name,
            |m| m.gauges.get(name).cloned(),
            |m, k, h| {
                m.gauges.insert(k, h);
            },
            Gauge::default,
        )
    }

    /// Get-or-register a histogram handle.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.map.load().hists.get(name) {
            return h.clone();
        }
        self.register(
            name,
            |m| m.hists.get(name).cloned(),
            |m, k, h| {
                m.hists.insert(k, h);
            },
            Histogram::default,
        )
    }

    /// Name-routed counter increment: wait-free when the name is
    /// already registered.
    pub fn incr(&self, name: &str, by: u64) {
        if let Some(c) = self.map.load().counters.get(name) {
            c.incr(by);
            return;
        }
        self.counter(name).incr(by);
    }

    /// Name-routed gauge store.
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(g) = self.map.load().gauges.get(name) {
            g.set(value);
            return;
        }
        self.gauge(name).set(value);
    }

    /// Name-routed histogram observation.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(h) = self.map.load().hists.get(name) {
            h.observe(value);
            return;
        }
        self.histogram(name).observe(value);
    }

    /// Point-in-time counter values, sorted by name.
    #[must_use]
    pub fn counters_snapshot(&self) -> BTreeMap<String, u64> {
        self.map
            .load()
            .counters
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }

    /// Point-in-time histogram summaries, sorted by name.
    #[must_use]
    pub fn histograms_snapshot(&self) -> BTreeMap<String, HistStats> {
        self.map
            .load()
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
        let map = self.map.load();
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
/// * `mem.entries{section="..."}` — live entries behind those bytes,
/// * `mem.budget_bytes{section="..."}` — the byte budget, `0` meaning
///   unlimited,
/// * `mem.evictions{section="..."}` — cumulative entries evicted to
///   stay under budget (monotone; a gauge because the source counter
///   is already cumulative).
///
/// Callers refresh on their own cadence (the engine republishes after
/// each scheduling pass); between refreshes the gauges hold the last
/// published ledger.
pub fn publish_mem_sections(reg: &MetricsRegistry, sections: &[arena_runtime::MemSection]) {
    for s in sections {
        let labels: &[(&str, &str)] = &[("section", &s.name)];
        reg.set_gauge(&labeled("mem.bytes", labels), s.bytes as f64);
        reg.set_gauge(&labeled("mem.entries", labels), s.entries as f64);
        reg.set_gauge(
            &labeled("mem.budget_bytes", labels),
            s.budget_bytes.unwrap_or(0) as f64,
        );
        reg.set_gauge(&labeled("mem.evictions", labels), s.evictions as f64);
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
    fn flight_recorder_roundtrips_decisions() {
        let fr = FlightRecorder::new(8);
        let pid = fr.intern_policy("Arena");
        let tid = fr.intern_trigger("arrival");
        let rid = fr.intern_reason("best-cell");
        let mut d = Decision::place(7, 1, 8)
            .with_score(0.93)
            .moving_from(0, 4)
            .why("best-cell")
            .on_shard(2);
        d.seq = 41;
        d.time_s = 123.5;
        d.policy = "Arena".to_string();
        d.trigger = "arrival".to_string();
        fr.record(&d, pid, tid, rid);
        let got = fr.recent(10);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], d);
        assert_eq!(fr.dump_jsonl(10), format!("{}\n", d.to_json()));
    }

    #[test]
    fn flight_recorder_keeps_only_last_capacity() {
        let fr = FlightRecorder::new(4);
        let pid = fr.intern_policy("p");
        let tid = fr.intern_trigger("round");
        let rid = fr.intern_reason("r");
        for i in 0..10_u64 {
            let mut d = Decision::drop(i).why("r");
            d.seq = i;
            d.policy = "p".to_string();
            d.trigger = "round".to_string();
            fr.record(&d, pid, tid, rid);
        }
        assert_eq!(fr.total(), 10);
        let got = fr.recent(100);
        assert_eq!(got.len(), 4);
        assert_eq!(
            got.iter().map(|d| d.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        // A narrower dump returns the newest slice.
        assert_eq!(
            fr.recent(2).iter().map(|d| d.seq).collect::<Vec<_>>(),
            [8, 9]
        );
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
            arena_runtime::MemSection {
                name: "estimator.profiles".to_string(),
                bytes: 4096,
                entries: 12,
                budget_bytes: Some(1 << 20),
                evictions: 3,
            },
            arena_runtime::MemSection::unbudgeted("plans.graphs", 512, 2),
        ];
        publish_mem_sections(&reg, &sections);
        let g = |name: &str| reg.gauge(name).get();
        assert_eq!(g("mem.bytes{section=\"estimator.profiles\"}"), 4096.0);
        assert_eq!(g("mem.entries{section=\"estimator.profiles\"}"), 12.0);
        assert_eq!(
            g("mem.budget_bytes{section=\"estimator.profiles\"}"),
            (1_u64 << 20) as f64
        );
        assert_eq!(g("mem.evictions{section=\"estimator.profiles\"}"), 3.0);
        // Unbudgeted sections expose 0 (= unlimited) rather than no series.
        assert_eq!(g("mem.budget_bytes{section=\"plans.graphs\"}"), 0.0);
        let text = reg.expose();
        assert!(text.contains("mem_bytes{section=\"plans.graphs\"} 512"));
        // Republishing overwrites in place — gauges track the ledger.
        let mut grown = sections;
        grown[0].bytes = 8192;
        publish_mem_sections(&reg, &grown);
        assert_eq!(g("mem.bytes{section=\"estimator.profiles\"}"), 8192.0);
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
