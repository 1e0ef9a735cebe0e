#!/usr/bin/env python3
"""Builds the program and the benchmark harness from source, then runs one
benchmark workload.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Builds go to $CARGO_TARGET_DIR
(default: .bench_build); the daemon's resume logs and the traced runs'
attribution artifacts go to .bench_out/. The last line of stdout is the
JSON result; build output and progress go to stderr. Any build or run
failure exits non-zero.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
# Environment knobs that would change what is measured.
CLEARED_ENV = ("ARENA_SHARDS", "ARENA_WORKER_THREADS", "ARENA_MEM_BUDGET_BYTES")
# The harness must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["CARGO_TARGET_DIR"] = str(target)
    build = ["cargo", "build", "--release", "--offline", "--quiet"]
    for cmd in (
        build + ["--manifest-path", str(HERE / "Cargo.toml")],
        build + ["--manifest-path", str(ROOT / "Cargo.toml"), "-p", "arena-bench", "--bin", "repro"],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    harness = [
        str(target / "release" / "arena-e2ebench"),
        *sys.argv[1:],
        "--repro",
        str(target / "release" / "repro"),
        "--out",
        str(ROOT / ".bench_out"),
    ]
    try:
        return subprocess.run(harness, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
