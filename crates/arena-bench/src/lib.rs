//! Benchmark and reproduction harness for the Arena evaluation.
//!
//! * The `repro` binary (`cargo run --release -p arena-bench --bin repro`)
//!   regenerates every table and figure of the paper; see
//!   `repro --help`.
//! * The one bench binary (`cargo bench -p arena-bench --bench
//!   bench_sim_baseline`) times every layer of the stack under
//!   layer-prefixed names — the cost model, stage partitioning, Cell
//!   estimation, tuning, each policy's decision pass (Arena across the
//!   Fig. 21(a) search depths), the engine and its stages, fleet
//!   streaming — and writes them to `BENCH_sim.json` for
//!   `arena-analyze bench-check`.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// One timed loop's aggregate in the machine-readable `BENCH_*` schema
/// consumed by `arena-analyze bench-check`.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Stable bench name, e.g. `sched/arena/depth_3`.
    pub name: String,
    /// Timed iterations.
    pub iters: usize,
    /// Mean wall time per iteration, seconds.
    pub mean_s: f64,
    /// Fastest iteration, seconds.
    pub min_s: f64,
    /// Slowest iteration, seconds.
    pub max_s: f64,
    /// Process peak resident set (`VmHWM`) sampled right after the loop,
    /// bytes. Only memory-gated benches record it; absent elsewhere so
    /// pre-existing entries keep their schema.
    pub peak_rss_bytes: Option<u64>,
    /// Mean heap allocations per iteration, recorded only when the
    /// `alloc-count` feature swaps in the counting allocator; absent
    /// elsewhere so pre-existing entries keep their schema.
    pub allocs_per_iter: Option<u64>,
}

// Hand-written so an absent watermark *omits* the field (the derive
// shim would emit `null`, changing the schema of every historical
// entry).
impl serde::Serialize for BenchEntry {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("name".to_string(), self.name.to_value()),
            ("iters".to_string(), self.iters.to_value()),
            ("mean_s".to_string(), self.mean_s.to_value()),
            ("min_s".to_string(), self.min_s.to_value()),
            ("max_s".to_string(), self.max_s.to_value()),
        ];
        if let Some(rss) = self.peak_rss_bytes {
            fields.push(("peak_rss_bytes".to_string(), rss.to_value()));
        }
        if let Some(allocs) = self.allocs_per_iter {
            fields.push(("allocs_per_iter".to_string(), allocs.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl BenchEntry {
    /// The aggregate of per-iteration wall times, seconds.
    #[must_use]
    pub fn from_samples(name: &str, samples: &[f64]) -> Self {
        BenchEntry {
            name: name.to_string(),
            iters: samples.len(),
            mean_s: samples.iter().sum::<f64>() / samples.len().max(1) as f64,
            min_s: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max_s: samples.iter().copied().fold(0.0, f64::max),
            peak_rss_bytes: None,
            allocs_per_iter: None,
        }
    }
}

/// One A/B ratio measured as interleaved pairs inside one process, so
/// host drift between two blocks of runs cancels out of every pair.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RatioEntry {
    /// Stable ratio name, e.g. `ratio/telemetry_on_off`.
    pub name: String,
    /// Number of A/B pairs.
    pub pairs: usize,
    /// Median of the per-pair B/A ratios.
    pub median: f64,
    /// Lower quartile of the per-pair ratios.
    pub q1: f64,
    /// Upper quartile of the per-pair ratios.
    pub q3: f64,
    /// `bench-check` fails when `median` exceeds this; `None` records
    /// the ratio without gating it (smoke runs).
    pub bound: Option<f64>,
}

impl RatioEntry {
    /// Summarises per-pair ratios (linear-interpolated quartiles).
    #[must_use]
    pub fn from_pairs(name: &str, ratios: &[f64], bound: Option<f64>) -> Self {
        let mut sorted = ratios.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q = |f: f64| {
            let at = (sorted.len().saturating_sub(1)) as f64 * f;
            let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
        };
        RatioEntry {
            name: name.to_string(),
            pairs: ratios.len(),
            median: q(0.5),
            q1: q(0.25),
            q3: q(0.75),
            bound,
        }
    }
}

/// A full bench run in the `BENCH_*` schema.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchReport {
    /// True when `BENCH_SMOKE=1` collapsed every loop to one iteration
    /// (CI mode: proves the paths run, not how fast).
    pub smoke: bool,
    /// `git rev-parse --short HEAD` at bench time ("unknown" outside a
    /// checkout).
    pub git_rev: String,
    /// Policies the bench suite exercises.
    pub policies: Vec<String>,
    /// The timed entries.
    pub benches: Vec<BenchEntry>,
    /// The in-process pair ratios.
    pub ratios: Vec<RatioEntry>,
}

/// The current git revision, if the bench runs inside a checkout.
#[must_use]
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Heap allocations counting, active only under the `alloc-count`
/// feature. Counts `alloc`, `alloc_zeroed` and `realloc` calls from
/// every thread; frees are not counted (the interesting regression is
/// allocation *churn*, and a free implies a prior counted alloc).
#[cfg(feature = "alloc-count")]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// System-allocator wrapper bumping a global counter per allocation.
    pub struct CountingAlloc;

    // SAFETY: defers every allocation to `System`, which upholds the
    // `GlobalAlloc` contract; the counter update has no effect on the
    // returned memory.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

/// Total heap allocations made by the process so far, when the
/// `alloc-count` feature has swapped in the counting global allocator;
/// `None` in a default build. The count is process-wide, so callers
/// measuring a loop must keep other threads quiet across the window.
#[must_use]
pub fn alloc_count() -> Option<u64> {
    #[cfg(feature = "alloc-count")]
    {
        Some(counting_alloc::ALLOCS.load(std::sync::atomic::Ordering::Relaxed))
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        None
    }
}

/// Times `iters` executions of `f` and returns the aggregate entry,
/// printing a one-line summary as it goes. Under the `alloc-count`
/// feature the entry also records mean heap allocations per iteration.
pub fn time_loop<F: FnMut()>(name: &str, iters: usize, mut f: F) -> BenchEntry {
    let mut samples = Vec::with_capacity(iters);
    let allocs_before = alloc_count();
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    let entry = BenchEntry {
        allocs_per_iter: allocs_before
            .and_then(|a0| Some(alloc_count()?.saturating_sub(a0) / iters.max(1) as u64)),
        ..BenchEntry::from_samples(name, &samples)
    };
    println!(
        "{name}: {iters} iters, mean {:.6}s, min {:.6}s",
        entry.mean_s, entry.min_s
    );
    entry
}

/// The process's peak resident set size (`VmHWM` from
/// `/proc/self/status`) in bytes, or `None` where procfs is absent.
///
/// `VmHWM` is a high-water mark: monotone over the process lifetime and
/// never reset. Sampling it after consecutive in-process runs of
/// growing size therefore yields a sound flatness check — if the big
/// run barely moves the mark the small run set, its working set did not
/// grow with input size.
#[must_use]
pub fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    // Format: `VmHWM:    123456 kB`.
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Writes a [`BenchReport`] as pretty JSON at the workspace root (where
/// CI's `arena-analyze bench-check` looks for `BENCH_*.json` trend
/// files) and returns the path written.
///
/// # Errors
///
/// Returns any I/O or serialisation error.
pub fn write_bench_report(filename: &str, report: &BenchReport) -> std::io::Result<PathBuf> {
    let root: PathBuf = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let path = root.join(filename);
    let body = serde_json::to_string_pretty(report).map_err(std::io::Error::other)?;
    std::fs::write(&path, body)?;
    println!("wrote {}", path.display());
    Ok(path)
}

/// Writes a serialisable experiment result as pretty JSON under
/// `results/`, creating the directory if needed.
///
/// # Errors
///
/// Returns any I/O or serialisation error.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) -> std::io::Result<()> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let file = std::fs::File::create(path)?;
    serde_json::to_writer_pretty(file, value).map_err(std::io::Error::other)
}

/// Writes raw text (e.g. a JSON-Lines decision log) under `results/`,
/// creating the directory if needed. `filename` includes the extension.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_text(filename: &str, body: &str) -> std::io::Result<()> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(filename), body)
}

/// Lowercases a display name into a filesystem-safe slug
/// (`ElasticFlow-LS` → `elasticflow-ls`).
#[must_use]
pub fn slug(name: &str) -> String {
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

#[cfg(test)]
mod tests {
    #[test]
    fn time_loop_aggregates_samples() {
        let mut n = 0_u64;
        let e = super::time_loop("unit/spin", 4, || n += 1);
        assert_eq!(n, 4);
        assert_eq!(e.iters, 4);
        assert!(e.min_s <= e.mean_s && e.mean_s <= e.max_s);
    }

    #[test]
    fn bench_report_serialises_to_the_schema() {
        let report = super::BenchReport {
            smoke: true,
            git_rev: "deadbee".into(),
            policies: vec!["Arena".into()],
            benches: vec![super::BenchEntry {
                name: "x/y".into(),
                iters: 1,
                mean_s: 0.5,
                min_s: 0.5,
                max_s: 0.5,
                peak_rss_bytes: None,
                allocs_per_iter: None,
            }],
            ratios: vec![super::RatioEntry::from_pairs("ratio/x", &[1.0, 1.2], None)],
        };
        let json = serde_json::to_string(&report).unwrap();
        for key in [
            "smoke", "git_rev", "policies", "benches", "mean_s", "ratios", "median",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // RSS and alloc counts are opt-in: absent entries keep the
        // historical schema, and recording one adds the field.
        assert!(!json.contains("peak_rss_bytes"));
        assert!(!json.contains("allocs_per_iter"));
        let mut with_rss = report.clone();
        with_rss.benches[0].peak_rss_bytes = Some(1 << 20);
        with_rss.benches[0].allocs_per_iter = Some(3);
        let json = serde_json::to_string(&with_rss).unwrap();
        assert!(json.contains("\"peak_rss_bytes\":1048576"));
        assert!(json.contains("\"allocs_per_iter\":3"));
    }

    #[test]
    fn ratio_quartiles_interpolate() {
        let r = super::RatioEntry::from_pairs("ratio/x", &[1.3, 1.0, 1.1, 1.2], Some(1.05));
        assert_eq!(r.pairs, 4);
        assert!((r.median - 1.15).abs() < 1e-12);
        assert!((r.q1 - 1.075).abs() < 1e-12);
        assert!((r.q3 - 1.225).abs() < 1e-12);
        let one = super::RatioEntry::from_pairs("ratio/x", &[0.9], None);
        assert_eq!((one.q1, one.median, one.q3), (0.9, 0.9, 0.9));
    }

    #[test]
    fn vm_hwm_reads_on_linux() {
        // On Linux procfs is always there; elsewhere the probe is None.
        if std::path::Path::new("/proc/self/status").exists() {
            let hwm = super::vm_hwm_bytes().expect("VmHWM readable");
            assert!(hwm > 0, "peak RSS cannot be zero for a live process");
            // Growing the heap never lowers a high-water mark.
            let ballast = vec![0_u8; 4 << 20];
            std::hint::black_box(&ballast);
            assert!(super::vm_hwm_bytes().unwrap() >= hwm);
        } else {
            assert_eq!(super::vm_hwm_bytes(), None);
        }
    }

    #[test]
    fn slug_is_filesystem_safe() {
        assert_eq!(super::slug("ElasticFlow-LS"), "elasticflow-ls");
        assert_eq!(super::slug("Arena (solver)"), "arena--solver-");
    }

    #[test]
    fn write_json_roundtrip() {
        let tmp = std::env::temp_dir().join("arena-bench-test");
        let _ = std::fs::create_dir_all(&tmp);
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&tmp).unwrap();
        super::write_json("unit", &vec![1, 2, 3]).unwrap();
        let body = std::fs::read_to_string("results/unit.json").unwrap();
        assert!(body.contains('1'));
        std::env::set_current_dir(old).unwrap();
    }
}
