//! The profiling-cost figures, pinned to the byte.
//!
//! Fig. 12 (agile estimation against direct profiling), Fig. 13
//! (Cell-guided against full tuning) and the §8.2 profiling budget are
//! serialised as `repro` writes them and compared with the committed
//! JSON under `tests/snapshots/`. The shim serialiser prints every float
//! so it reads back to the same bits, so a change in how profiling cost
//! is summed shows here even where it moves only the last bit.
//! Regenerate after an intended change with `UPDATE_SNAPSHOTS=1 cargo
//! test --test figure_snapshot`.

use std::path::PathBuf;

use arena::experiments::microbench;
use serde::Serialize;

fn check(name: &str, value: &impl Serialize) {
    let got = serde_json::to_string_pretty(value).expect("serialises");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("{name}.json"));
    if std::env::var("UPDATE_SNAPSHOTS").is_ok() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing snapshot {path:?} ({e}); regenerate with UPDATE_SNAPSHOTS=1")
    });
    assert_eq!(
        got, want,
        "{name} drifted from its snapshot; if the change is intended, \
         regenerate with UPDATE_SNAPSHOTS=1 cargo test --test figure_snapshot"
    );
}

#[test]
fn profiling_figures_match_snapshots() {
    check("fig12", &microbench::fig12());
    check("fig13", &microbench::fig13());
    check("budget", &microbench::profiling_budget());
}
