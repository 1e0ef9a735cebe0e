//! Trace persistence: save and load job traces as JSON.
//!
//! Generated traces are deterministic, but persisting them lets external
//! tooling inspect workloads, lets experiments pin an exact trace file,
//! and provides the natural adapter seam for replaying *real* production
//! traces (convert Philly/Helios/PAI CSVs to this JSON schema).

use std::path::Path;

use crate::job::JobSpec;

/// Saves a trace as pretty-printed JSON.
///
/// # Errors
///
/// Returns any I/O or serialisation error.
pub fn save_json<P: AsRef<Path>>(path: P, jobs: &[JobSpec]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    serde_json::to_writer_pretty(file, jobs).map_err(std::io::Error::other)
}

/// Loads a trace saved by [`save_json`], re-validating submission order.
///
/// # Errors
///
/// Returns an error when the file is unreadable, is not valid trace JSON,
/// or its jobs are not sorted by submission time.
pub fn load_json<P: AsRef<Path>>(path: P) -> std::io::Result<Vec<JobSpec>> {
    let file = std::fs::File::open(path)?;
    let jobs: Vec<JobSpec> = serde_json::from_reader(file).map_err(std::io::Error::other)?;
    if !jobs.windows(2).all(|w| w[0].submit_s <= w[1].submit_s) {
        return Err(std::io::Error::other("trace not sorted by submit_s"));
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TraceConfig, TraceKind};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("arena-trace-{name}-{}.json", std::process::id()))
    }

    #[test]
    fn round_trip_preserves_trace() {
        let cfg = TraceConfig::new(TraceKind::PaiLow, 6.0 * 3600.0, 64, vec![24.0]);
        let jobs = generate(&cfg);
        let path = tmp("roundtrip");
        save_json(&path, &jobs).unwrap();
        let loaded = load_json(&path).unwrap();
        assert_eq!(jobs.len(), loaded.len());
        for (a, b) in jobs.iter().zip(&loaded) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.submit_s, b.submit_s);
            assert_eq!(a.model, b.model);
            assert_eq!(a.requested_gpus, b.requested_gpus);
            assert_eq!(a.iterations, b.iterations);
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn unsorted_trace_rejected_on_load() {
        let cfg = TraceConfig::new(TraceKind::PaiLow, 6.0 * 3600.0, 64, vec![24.0]);
        let mut jobs = generate(&cfg);
        assert!(jobs.len() >= 2, "trace too small for the test");
        jobs.swap(0, 1);
        let path = tmp("unsorted");
        save_json(&path, &jobs).unwrap();
        assert!(load_json(&path).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_file_errors() {
        assert!(load_json("/nonexistent/arena-trace.json").is_err());
    }
}
