//! `arena-analyze` — offline analysis of timeline artifacts and bench
//! regression checking.
//!
//! ```text
//! arena-analyze summarize <results-dir>
//! arena-analyze diff <dir-a> <dir-b> [--top N]
//! arena-analyze bench-check <old.json> <new.json> [--threshold FRAC] [--rss-threshold FRAC]
//! arena-analyze metrics <dump.txt> [<other.txt>] [--prefix P]
//! ```
//!
//! * `summarize` reads the `timeline_*.summary.json` files written by
//!   `repro timeline` and renders the per-policy time-in-state +
//!   utilization comparison.
//! * `diff` compares two such directories (e.g. two branches' runs) and
//!   reports JCT / utilization deltas per policy plus the jobs whose JCT
//!   moved the most.
//! * `bench-check` compares two `BENCH_sim.json` files and exits
//!   non-zero when any bench's mean regressed by more than the
//!   threshold (default 0.20 = +20%). The `smoke:true` single-iteration
//!   format is accepted on either side. With `--rss-threshold` it also
//!   gates `peak_rss_bytes` on entries where both sides record it
//!   (e.g. the streaming fleet benches), at its own fraction.
//! * `metrics` parses a Prometheus-style exposition dump as scraped
//!   from the daemon's `query metrics` (the `metrics` string of the
//!   response, or the raw response line itself) and summarizes it; with
//!   two dumps it reports per-series deltas instead. Exits non-zero on
//!   malformed or empty input — CI uses it as a well-formedness gate.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use arena::experiments::observability::{timeline_summary_table, TimelineSummary};
use arena::report::Table;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("summarize") if args.len() >= 2 => summarize(Path::new(&args[1])),
        Some("diff") if args.len() >= 3 => {
            let top = flag_value(&args, "--top").map_or(5, |v| v.parse().unwrap_or(5));
            diff(Path::new(&args[1]), Path::new(&args[2]), top)
        }
        Some("bench-check") if args.len() >= 3 => {
            let threshold =
                flag_value(&args, "--threshold").map_or(0.20, |v| v.parse().unwrap_or(0.20));
            let rss_threshold = flag_value(&args, "--rss-threshold").and_then(|v| v.parse().ok());
            bench_check(
                Path::new(&args[1]),
                Path::new(&args[2]),
                threshold,
                rss_threshold,
            )
        }
        Some("metrics") if args.len() >= 2 => {
            let prefix = flag_value(&args, "--prefix").unwrap_or("").to_string();
            let files: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
            // --prefix takes a value; drop it from the positional list.
            let files: Vec<&String> = files.into_iter().filter(|f| **f != prefix).collect();
            match files.as_slice() {
                [one] => metrics_summary(Path::new(one), &prefix),
                [a, b] => metrics_diff(Path::new(a), Path::new(b), &prefix),
                _ => {
                    eprintln!("metrics: expected one or two dump files");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            eprintln!(
                "usage:\n  arena-analyze summarize <results-dir>\n  \
                 arena-analyze diff <dir-a> <dir-b> [--top N]\n  \
                 arena-analyze bench-check <old.json> <new.json> [--threshold FRAC] [--rss-threshold FRAC]\n  \
                 arena-analyze metrics <dump.txt> [<other.txt>] [--prefix P]"
            );
            ExitCode::from(2)
        }
    }
}

/// The value following `name` in the argument list, if present.
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Loads every `timeline_*.summary.json` under `dir`, sorted by file
/// name for deterministic output.
fn load_summaries(dir: &Path) -> Result<Vec<TimelineSummary>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("timeline_") && n.ends_with(".summary.json"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!(
            "no timeline_*.summary.json files in {} (run `repro timeline` first)",
            dir.display()
        ));
    }
    let mut out = Vec::new();
    for p in paths {
        let body = std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
        let s: TimelineSummary =
            serde_json::from_str(&body).map_err(|e| format!("parse {}: {e}", p.display()))?;
        out.push(s);
    }
    Ok(out)
}

fn summarize(dir: &Path) -> ExitCode {
    match load_summaries(dir) {
        Ok(summaries) => {
            println!("{}", timeline_summary_table(&summaries).render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("summarize: {e}");
            ExitCode::from(2)
        }
    }
}

fn diff(dir_a: &Path, dir_b: &Path, top: usize) -> ExitCode {
    let (a, b) = match (load_summaries(dir_a), load_summaries(dir_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("diff: {e}");
            return ExitCode::from(2);
        }
    };
    let by_policy = |v: Vec<TimelineSummary>| -> BTreeMap<String, TimelineSummary> {
        v.into_iter().map(|s| (s.policy.clone(), s)).collect()
    };
    let (a, b) = (by_policy(a), by_policy(b));

    let mut t = Table::new(
        &format!("Timeline diff: {} -> {}", dir_a.display(), dir_b.display()),
        &[
            "policy",
            "avg JCT a",
            "avg JCT b",
            "dJCT s",
            "util a",
            "util b",
            "d prod GPU-s",
        ],
    );
    for (policy, sa) in &a {
        let Some(sb) = b.get(policy) else {
            eprintln!("diff: policy {policy} missing from {}", dir_b.display());
            continue;
        };
        t.row(vec![
            policy.clone(),
            format!("{:.0}", sa.avg_jct_s),
            format!("{:.0}", sb.avg_jct_s),
            format!("{:+.0}", sb.avg_jct_s - sa.avg_jct_s),
            format!("{:.3}", sa.mean_util_frac),
            format!("{:.3}", sb.mean_util_frac),
            format!("{:+.0}", sb.productive_gpu_s - sa.productive_gpu_s),
        ]);
    }
    println!("{}", t.render());

    for (policy, sa) in &a {
        let Some(sb) = b.get(policy) else { continue };
        let jcts_b: BTreeMap<u64, Option<f64>> = sb.jobs.iter().map(|j| (j.id, j.jct_s)).collect();
        // Jobs whose JCT moved, largest absolute move first.
        let mut moved: Vec<(u64, f64, f64)> = sa
            .jobs
            .iter()
            .filter_map(|j| {
                let ja = j.jct_s?;
                let jb = (*jcts_b.get(&j.id)?)?;
                Some((j.id, ja, jb - ja))
            })
            .filter(|&(_, _, d)| d != 0.0)
            .collect();
        moved.sort_by(|x, y| y.2.abs().partial_cmp(&x.2.abs()).unwrap());
        moved.truncate(top);
        if moved.is_empty() {
            println!("{policy}: no per-job JCT changes\n");
            continue;
        }
        let mut jt = Table::new(
            &format!("{policy}: top JCT moves"),
            &["job", "JCT a (s)", "dJCT (s)"],
        );
        for (id, ja, d) in moved {
            jt.row(vec![id.to_string(), format!("{ja:.0}"), format!("{d:+.0}")]);
        }
        println!("{}", jt.render());
    }
    ExitCode::SUCCESS
}

/// One bench entry pulled out of a `BENCH_sim.json` file.
struct BenchLine {
    iters: u64,
    mean_s: f64,
    peak_rss_bytes: Option<f64>,
}

/// Parses a `BENCH_sim.json` file tolerantly: `git_rev` / `policies`
/// stamps and the `smoke` flag are all optional.
fn load_bench(path: &Path) -> Result<(bool, BTreeMap<String, BenchLine>), String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let v: serde::Value =
        serde_json::from_str(&body).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let smoke = matches!(v.get("smoke"), Some(serde::Value::Bool(true)));
    let benches = v
        .get("benches")
        .and_then(serde::Value::as_array)
        .ok_or_else(|| format!("{}: no `benches` array", path.display()))?;
    let mut out = BTreeMap::new();
    for b in benches {
        let name = match b.get("name") {
            Some(serde::Value::Str(s)) => s.clone(),
            _ => return Err(format!("{}: bench entry without a name", path.display())),
        };
        let num = |field: &str| -> Option<f64> {
            match b.get(field) {
                Some(serde::Value::F64(x)) => Some(*x),
                Some(serde::Value::U64(x)) => Some(*x as f64),
                Some(serde::Value::I64(x)) => Some(*x as f64),
                _ => None,
            }
        };
        let mean_s = num("mean_s").ok_or_else(|| format!("{name}: missing mean_s"))?;
        let iters = num("iters").map_or(1, |x| x as u64);
        let peak_rss_bytes = num("peak_rss_bytes");
        out.insert(
            name,
            BenchLine {
                iters,
                mean_s,
                peak_rss_bytes,
            },
        );
    }
    Ok((smoke, out))
}

/// One parsed exposition dump: declared metric families and every
/// sample series (full name with labels → value).
struct MetricsDump {
    /// family base name → `counter` | `gauge` | `histogram`.
    types: BTreeMap<String, String>,
    /// series (with labels) → value, insertion order preserved by name.
    series: BTreeMap<String, f64>,
}

/// Strict parse of a Prometheus-style exposition as produced by the
/// daemon's `query metrics`. Accepts either the raw text or the whole
/// JSONL response line (the `metrics` string is extracted). Rejects
/// malformed sample lines, samples without a declared family, and
/// dumps with no samples at all — this is CI's well-formedness gate.
fn parse_metrics_dump(path: &Path) -> Result<MetricsDump, String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let text = if body.trim_start().starts_with('{') {
        // A captured response line: {"ok":true,...,"metrics":"..."}.
        let v: serde::Value = serde_json::from_str(body.trim())
            .map_err(|e| format!("{}: bad response JSON: {e}", path.display()))?;
        match v.get("metrics") {
            Some(serde::Value::Str(s)) => s.clone(),
            _ => {
                return Err(format!(
                    "{}: response has no `metrics` string",
                    path.display()
                ))
            }
        }
    } else {
        body
    };
    let mut types = BTreeMap::new();
    let mut series = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| format!("{}:{}: {msg}", path.display(), lineno + 1);
        if let Some(rest) = line.strip_prefix('#') {
            let mut words = rest.split_whitespace();
            // HELP and other comments are tolerated.
            if words.next() == Some("TYPE") {
                let name = words
                    .next()
                    .ok_or_else(|| at("# TYPE without a family name".to_string()))?;
                let kind = words
                    .next()
                    .ok_or_else(|| at(format!("# TYPE {name} without a kind")))?;
                if !matches!(kind, "counter" | "gauge" | "histogram") {
                    return Err(at(format!("unknown family kind `{kind}`")));
                }
                if let Some(prev) = types.insert(name.to_string(), kind.to_string()) {
                    if prev != kind {
                        return Err(at(format!("family {name} re-typed {prev} -> {kind}")));
                    }
                }
            }
            continue;
        }
        // Sample: `name value` or `name{labels} value`. Labels may
        // contain spaces only inside quotes — our emitter never does —
        // so the last whitespace split is the value.
        let Some(split) = line.rfind(|c: char| c.is_whitespace()) else {
            return Err(at(format!("sample line without a value: `{line}`")));
        };
        let (name, value) = (line[..split].trim(), line[split..].trim());
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse()
                .map_err(|_| at(format!("unparseable sample value `{v}`")))?,
        };
        let base = name.split('{').next().unwrap_or(name);
        let family_known = types.contains_key(base)
            || ["_bucket", "_sum", "_count"].iter().any(|suffix| {
                base.strip_suffix(suffix)
                    .is_some_and(|f| types.get(f).map(String::as_str) == Some("histogram"))
            });
        if !family_known {
            return Err(at(format!("sample `{name}` has no declared family")));
        }
        series.insert(name.to_string(), value);
    }
    if series.is_empty() {
        return Err(format!("{}: no samples in dump", path.display()));
    }
    Ok(MetricsDump { types, series })
}

/// Whether a series is a histogram bucket sample (elided from tables —
/// `_sum`/`_count` carry the summary).
fn is_bucket(name: &str) -> bool {
    name.split('{').next().unwrap_or(name).ends_with("_bucket")
}

fn metrics_summary(path: &Path, prefix: &str) -> ExitCode {
    let dump = match parse_metrics_dump(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("metrics: {e}");
            return ExitCode::from(2);
        }
    };
    let kind_of = |name: &str| -> String {
        let base = name.split('{').next().unwrap_or(name);
        if let Some(k) = dump.types.get(base) {
            return k.clone();
        }
        "histogram".to_string()
    };
    let mut t = Table::new(
        &format!(
            "Metrics: {} ({} families)",
            path.display(),
            dump.types.len()
        ),
        &["series", "kind", "value"],
    );
    let mut shown = 0;
    for (name, value) in &dump.series {
        if !name.starts_with(prefix) || is_bucket(name) {
            continue;
        }
        shown += 1;
        t.row(vec![name.clone(), kind_of(name), format!("{value}")]);
    }
    println!("{}", t.render());
    if shown == 0 {
        eprintln!("metrics: no series match prefix `{prefix}`");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn metrics_diff(path_a: &Path, path_b: &Path, prefix: &str) -> ExitCode {
    let (a, b) = match (parse_metrics_dump(path_a), parse_metrics_dump(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("metrics: {e}");
            return ExitCode::from(2);
        }
    };
    let mut t = Table::new(
        &format!("Metrics diff: {} -> {}", path_a.display(), path_b.display()),
        &["series", "a", "b", "delta"],
    );
    let names: std::collections::BTreeSet<&String> =
        a.series.keys().chain(b.series.keys()).collect();
    for name in names {
        if !name.starts_with(prefix) || is_bucket(name) {
            continue;
        }
        match (a.series.get(name), b.series.get(name)) {
            (Some(&va), Some(&vb)) => {
                if va != vb {
                    t.row(vec![
                        name.clone(),
                        format!("{va}"),
                        format!("{vb}"),
                        format!("{:+}", vb - va),
                    ]);
                }
            }
            (Some(&va), None) => {
                t.row(vec![
                    name.clone(),
                    format!("{va}"),
                    "-".into(),
                    "GONE".into(),
                ]);
            }
            (None, Some(&vb)) => {
                t.row(vec![
                    name.clone(),
                    "-".into(),
                    format!("{vb}"),
                    "NEW".into(),
                ]);
            }
            (None, None) => unreachable!(),
        }
    }
    println!("{}", t.render());
    ExitCode::SUCCESS
}

fn bench_check(old: &Path, new: &Path, threshold: f64, rss_threshold: Option<f64>) -> ExitCode {
    let ((old_smoke, old_b), (new_smoke, new_b)) = match (load_bench(old), load_bench(new)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-check: {e}");
            return ExitCode::from(2);
        }
    };
    if old_smoke || new_smoke {
        eprintln!(
            "bench-check: comparing smoke-mode timings (single iteration); \
             expect noise"
        );
    }
    let mut t = Table::new(
        &format!(
            "bench-check: {} -> {} (threshold +{:.0}%)",
            old.display(),
            new.display(),
            threshold * 100.0
        ),
        &["bench", "old mean s", "new mean s", "ratio", "verdict"],
    );
    let mut failures = 0;
    for (name, o) in &old_b {
        let Some(n) = new_b.get(name) else {
            t.row(vec![
                name.clone(),
                format!("{:.6}", o.mean_s),
                "-".into(),
                "-".into(),
                "MISSING".into(),
            ]);
            failures += 1;
            continue;
        };
        let ratio = if o.mean_s > 0.0 {
            n.mean_s / o.mean_s
        } else {
            f64::INFINITY
        };
        let regressed = ratio > 1.0 + threshold;
        if regressed {
            failures += 1;
        }
        // The RSS gate only engages when asked for and when both sides
        // recorded a watermark — absent entries are not a regression.
        let rss_regressed = match (rss_threshold, o.peak_rss_bytes, n.peak_rss_bytes) {
            (Some(frac), Some(old_rss), Some(new_rss)) if old_rss > 0.0 => {
                new_rss > old_rss * (1.0 + frac)
            }
            _ => false,
        };
        if rss_regressed {
            failures += 1;
        }
        t.row(vec![
            format!("{name} ({}x/{}x)", o.iters, n.iters),
            format!("{:.6}", o.mean_s),
            format!("{:.6}", n.mean_s),
            format!("{ratio:.3}"),
            match (regressed, rss_regressed) {
                (true, _) => "REGRESSED".to_string(),
                (false, true) => format!(
                    "RSS-REGRESSED ({:.0} -> {:.0} MiB)",
                    o.peak_rss_bytes.unwrap_or(0.0) / (1024.0 * 1024.0),
                    n.peak_rss_bytes.unwrap_or(0.0) / (1024.0 * 1024.0)
                ),
                (false, false) => "ok".to_string(),
            },
        ]);
    }
    println!("{}", t.render());
    if failures > 0 {
        eprintln!("bench-check: {failures} bench(es) regressed past the threshold");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
