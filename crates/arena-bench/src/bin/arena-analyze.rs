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
//!   (e.g. the streaming fleet benches), at its own fraction. A pair
//!   ratio the old file names (`ratios`, e.g. `ratio/telemetry_on_off`)
//!   fails when the new file's median exceeds the bound recorded with
//!   it; a ratio recorded without a bound (a smoke run) is reported, not
//!   gated. A flag without a finite numeric value, or a file naming one
//!   entry twice, exits 2.
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
            let flags = fraction_flag(&args, "--threshold")
                .and_then(|t| Ok((t, fraction_flag(&args, "--rss-threshold")?)));
            match flags {
                Ok((threshold, rss_threshold)) => bench_check(
                    Path::new(&args[1]),
                    Path::new(&args[2]),
                    threshold.unwrap_or(0.20),
                    rss_threshold,
                ),
                Err(e) => {
                    eprintln!("bench-check: {e}");
                    ExitCode::from(2)
                }
            }
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

/// A gate fraction flag: `None` when absent. A flag without a value, or
/// with one that is not a finite number (`10%`, `nan`), is an error —
/// falling back to a default would silently weaken the gate.
fn fraction_flag(args: &[String], name: &str) -> Result<Option<f64>, String> {
    if !args.iter().any(|a| a == name) {
        return Ok(None);
    }
    let value = flag_value(args, name).ok_or_else(|| format!("{name} needs a value"))?;
    match value.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Some(x)),
        _ => Err(format!(
            "{name} `{value}` is not a finite number (e.g. 0.05)"
        )),
    }
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

/// One entry pulled out of a `BENCH_sim.json` file.
enum BenchLine {
    /// A timed loop (`benches`).
    Timing {
        iters: u64,
        mean_s: f64,
        peak_rss_bytes: Option<f64>,
    },
    /// An in-process pair ratio (`ratios`).
    Ratio {
        pairs: u64,
        median: f64,
        q1: f64,
        q3: f64,
        bound: Option<f64>,
    },
}

/// A parsed `BENCH_sim.json`: the smoke flag and every entry by name.
struct BenchFile {
    smoke: bool,
    entries: BTreeMap<String, BenchLine>,
}

fn load_bench(path: &Path) -> Result<BenchFile, String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_bench(&body).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses a `BENCH_sim.json` body tolerantly: `git_rev` / `policies`
/// stamps, the `smoke` flag and the `ratios` array are all optional. An
/// entry name that appears twice is an error: keeping either copy would
/// silently decide which one is gated.
fn parse_bench(body: &str) -> Result<BenchFile, String> {
    let v: serde::Value = serde_json::from_str(body).map_err(|e| format!("parse: {e}"))?;
    let smoke = matches!(v.get("smoke"), Some(serde::Value::Bool(true)));
    let benches = v
        .get("benches")
        .and_then(serde::Value::as_array)
        .ok_or("no `benches` array")?;
    let ratios = v.get("ratios").and_then(serde::Value::as_array);
    let mut entries = BTreeMap::new();
    let tagged = benches
        .iter()
        .map(|b| (false, b))
        .chain(ratios.into_iter().flatten().map(|r| (true, r)));
    for (is_ratio, b) in tagged {
        let name = match b.get("name") {
            Some(serde::Value::Str(s)) => s.clone(),
            _ => return Err("entry without a name".to_string()),
        };
        let num = |field: &str| -> Option<f64> {
            match b.get(field) {
                Some(serde::Value::F64(x)) => Some(*x),
                Some(serde::Value::U64(x)) => Some(*x as f64),
                Some(serde::Value::I64(x)) => Some(*x as f64),
                _ => None,
            }
        };
        let need = |field: &str| num(field).ok_or_else(|| format!("{name}: missing {field}"));
        let line = if is_ratio {
            BenchLine::Ratio {
                pairs: need("pairs")? as u64,
                median: need("median")?,
                q1: need("q1")?,
                q3: need("q3")?,
                bound: num("bound"),
            }
        } else {
            BenchLine::Timing {
                iters: num("iters").map_or(1, |x| x as u64),
                mean_s: need("mean_s")?,
                peak_rss_bytes: num("peak_rss_bytes"),
            }
        };
        if entries.insert(name.clone(), line).is_some() {
            return Err(format!("entry {name} appears twice"));
        }
    }
    Ok(BenchFile { smoke, entries })
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
    let (old_b, new_b) = match (load_bench(old), load_bench(new)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-check: {e}");
            return ExitCode::from(2);
        }
    };
    if old_b.smoke || new_b.smoke {
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
        &["bench", "old", "new", "ratio", "verdict"],
    );
    let (rows, failures) = compare_benches(&old_b, &new_b, threshold, rss_threshold);
    for row in rows {
        t.row(row);
    }
    println!("{}", t.render());
    if failures > 0 {
        eprintln!("bench-check: {failures} gate(s) failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Compares every entry the old file names against the new file: one
/// table row per entry, plus the number of failed gates.
fn compare_benches(
    old: &BenchFile,
    new: &BenchFile,
    threshold: f64,
    rss_threshold: Option<f64>,
) -> (Vec<Vec<String>>, usize) {
    let mut rows = Vec::new();
    let mut failures = 0;
    for (name, o) in &old.entries {
        let (label, old_v, new_v, ratio, verdict, failed) = match (o, new.entries.get(name)) {
            (
                BenchLine::Timing {
                    iters: oi,
                    mean_s: om,
                    peak_rss_bytes: orss,
                },
                Some(BenchLine::Timing {
                    iters: ni,
                    mean_s: nm,
                    peak_rss_bytes: nrss,
                }),
            ) => {
                let ratio = if *om > 0.0 { nm / om } else { f64::INFINITY };
                let regressed = ratio > 1.0 + threshold;
                // The RSS gate only engages when asked for and when both
                // sides recorded a watermark — absent entries are not a
                // regression.
                let rss_regressed = match (rss_threshold, orss, nrss) {
                    (Some(frac), Some(o), Some(n)) if *o > 0.0 => *n > o * (1.0 + frac),
                    _ => false,
                };
                let verdict = match (regressed, rss_regressed) {
                    (true, _) => "REGRESSED".to_string(),
                    (false, true) => format!(
                        "RSS-REGRESSED ({:.0} -> {:.0} MiB)",
                        orss.unwrap_or(0.0) / (1024.0 * 1024.0),
                        nrss.unwrap_or(0.0) / (1024.0 * 1024.0)
                    ),
                    (false, false) => "ok".to_string(),
                };
                (
                    format!("{name} ({oi}x/{ni}x)"),
                    format!("{om:.6}"),
                    format!("{nm:.6}"),
                    format!("{ratio:.3}"),
                    verdict,
                    usize::from(regressed) + usize::from(rss_regressed),
                )
            }
            (
                BenchLine::Ratio { median: om, .. },
                Some(BenchLine::Ratio {
                    pairs,
                    median,
                    q1,
                    q3,
                    bound,
                }),
            ) => {
                let over = bound.is_some_and(|b| *median > b);
                let verdict = match bound {
                    None => "recorded".to_string(),
                    Some(b) if over => format!("OVER BOUND {b}"),
                    Some(b) => format!("ok (<= {b})"),
                };
                (
                    format!("{name} ({pairs} pairs)"),
                    format!("{om:.4}"),
                    format!("{median:.4} ({q1:.4}-{q3:.4})"),
                    "-".to_string(),
                    verdict,
                    usize::from(over),
                )
            }
            (_, found) => (
                name.clone(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                if found.is_some() {
                    "KIND-CHANGED"
                } else {
                    "MISSING"
                }
                .to_string(),
                1,
            ),
        };
        failures += failed;
        rows.push(vec![label, old_v, new_v, ratio, verdict]);
    }
    (rows, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// A committed baseline at the workspace root.
    fn committed(file: &str) -> BenchFile {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file);
        load_bench(&path).expect("committed baseline parses")
    }

    fn scaled(mut file: BenchFile, name: &str, f: impl Fn(&mut BenchLine)) -> BenchFile {
        f(file.entries.get_mut(name).expect("entry present"));
        file
    }

    fn failures(old: &BenchFile, new: &BenchFile, threshold: f64, rss: Option<f64>) -> usize {
        compare_benches(old, new, threshold, rss).1
    }

    #[test]
    fn malformed_flag_values_are_refused() {
        let a = args("bench-check a.json b.json --threshold 10% --rss-threshold 0.25");
        assert!(fraction_flag(&a, "--threshold").is_err());
        assert_eq!(fraction_flag(&a, "--rss-threshold"), Ok(Some(0.25)));
        let a = args("bench-check a.json b.json --rss-threshold 25%");
        assert!(fraction_flag(&a, "--rss-threshold").is_err());
        assert_eq!(fraction_flag(&a, "--threshold"), Ok(None));
        let a = args("bench-check a.json b.json --threshold");
        assert!(fraction_flag(&a, "--threshold").is_err());
        let a = args("bench-check a.json b.json --threshold nan");
        assert!(fraction_flag(&a, "--threshold").is_err());
        let a = args("bench-check a.json b.json --threshold -0.6667");
        assert_eq!(fraction_flag(&a, "--threshold"), Ok(Some(-0.6667)));
    }

    #[test]
    fn duplicate_entry_names_are_refused() {
        let body = r#"{"benches": [
            {"name": "x/y", "iters": 1, "mean_s": 1.0},
            {"name": "x/y", "iters": 1, "mean_s": 2.0}]}"#;
        assert!(parse_bench(body).is_err());
        let body = r#"{"benches": [{"name": "x/y", "iters": 1, "mean_s": 1.0}],
            "ratios": [{"name": "x/y", "pairs": 1, "median": 1.0, "q1": 1.0, "q3": 1.0}]}"#;
        assert!(parse_bench(body).is_err());
    }

    #[test]
    fn an_inflated_mean_fails_the_regression_gate() {
        let old = committed("BENCH_sim.json");
        let name = old.entries.keys().next().expect("an entry").clone();
        let new = scaled(committed("BENCH_sim.json"), &name, |b| {
            if let BenchLine::Timing { mean_s, .. } = b {
                *mean_s *= 1.5;
            }
        });
        // Counted against the unmodified file, so a committed ratio's own
        // verdict cannot move the count.
        assert_eq!(
            failures(&old, &new, 0.20, None),
            failures(&old, &old, 0.20, None) + 1
        );
    }

    #[test]
    fn a_lost_soa_speedup_fails_its_gate() {
        let frozen = committed("BENCH_sim_pre_soa.json");
        let new = scaled(
            committed("BENCH_sim.json"),
            "estimator/estimate_uncached",
            |b| {
                if let BenchLine::Timing { mean_s, .. } = b {
                    *mean_s *= 10.0;
                }
            },
        );
        assert_eq!(failures(&frozen, &new, -0.5, None), 1);
    }

    #[test]
    fn a_doubled_peak_rss_fails_the_rss_gate() {
        let old = committed("BENCH_sim.json");
        let mut new = committed("BENCH_sim.json");
        let mut doubled = 0;
        for b in new.entries.values_mut() {
            if let BenchLine::Timing {
                peak_rss_bytes: Some(rss),
                ..
            } = b
            {
                *rss *= 2.0;
                doubled += 1;
            }
        }
        assert!(doubled > 0, "no entry records peak RSS");
        // Wall-clock disabled (+1000%): only the RSS verdicts move.
        let base = failures(&old, &old, 10.0, Some(0.25));
        assert_eq!(failures(&old, &new, 10.0, Some(0.25)), base + doubled);
        assert_eq!(failures(&old, &new, 10.0, None), base);
    }

    fn ratio_file(median: f64, bound: Option<f64>) -> BenchFile {
        let bound = bound.map_or(String::new(), |b| format!(r#", "bound": {b}"#));
        parse_bench(&format!(
            r#"{{"benches": [], "ratios": [{{"name": "ratio/telemetry_on_off",
                "pairs": 10, "median": {median}, "q1": 1.0, "q3": 1.1{bound}}}]}}"#
        ))
        .expect("ratio file parses")
    }

    #[test]
    fn a_ratio_over_its_bound_fails() {
        let within = ratio_file(1.04, Some(1.05));
        assert_eq!(failures(&within, &within, 0.20, None), 0);
        let over = ratio_file(1.06, Some(1.05));
        assert_eq!(failures(&over, &over, 0.20, None), 1);
        assert_eq!(failures(&within, &over, 0.20, None), 1);
        // A ratio the old file names must be present in the new one.
        let empty = parse_bench(r#"{"benches": []}"#).expect("parses");
        assert_eq!(failures(&within, &empty, 0.20, None), 1);
    }

    #[test]
    fn a_smoke_ratio_without_a_bound_passes() {
        let smoke = ratio_file(1.9, None);
        assert_eq!(failures(&smoke, &smoke, 0.20, None), 0);
        // Also against a bounded committed ratio: a smoke run's one
        // pair is noise, not a verdict.
        assert_eq!(
            failures(&ratio_file(1.02, Some(1.05)), &smoke, 0.20, None),
            0
        );
    }
}
