//! The repository's end-to-end benchmark.
//!
//! ```text
//! arena-e2ebench --workload W --seed N --seconds S --trace 0|1 \
//!     --repro PATH --out DIR
//! ```
//!
//! With `--trace 0` it runs workload `W` on inputs generated from seed
//! `N`, checks the outputs and prints every end-to-end metric; with
//! `--trace 1` it runs the workload untraced and then traced on the same
//! inputs, prints every per-layer metric and writes an attribution
//! artifact to `DIR`. The last stdout line is the JSON result. See
//! `README.md` for the workloads and the metric map.

mod daemon;
mod inputs;
mod layers;
mod probe;
mod report;
mod sim;

use std::path::PathBuf;

use report::Report;

/// Knobs the benchmark clears so every run measures the default
/// configuration, not the caller's environment.
const CLEARED_ENV: [&str; 3] = [
    "ARENA_SHARDS",
    "ARENA_WORKER_THREADS",
    "ARENA_MEM_BUDGET_BYTES",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repro: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        repro: PathBuf::new(),
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value != "0",
            "--repro" => args.repro = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let (seed, secs, out) = (args.seed, args.seconds, args.out.as_path());
    match (args.workload.as_str(), args.trace) {
        ("hetero_compare", false) => sim::hetero_compare(seed, secs).measure(report),
        ("hetero_compare", true) => {
            sim::hetero_compare(seed, secs).trace(&args.repro, report, out, seed);
        }
        ("deep_queue_faults", false) => sim::deep_queue_faults(seed, secs).measure(report),
        ("deep_queue_faults", true) => {
            sim::deep_queue_faults(seed, secs).trace(&args.repro, report, out, seed);
        }
        ("fleet_stream", false) => sim::fleet_stream(seed, secs).measure(report),
        ("fleet_stream", true) => sim::fleet_stream(seed, secs).trace(report, out, seed),
        ("daemon_restart_tcp", trace) => {
            // Trace `v` of seed `N` is generated from `mix(N, v)`; the
            // traced run uses the first.
            let traces = (0..if trace { 1 } else { daemon::TRACES })
                .map(|v| daemon::DaemonWorkload::new(inputs::mix(seed, v), out))
                .collect::<std::io::Result<Vec<_>>>()
                .map_err(|e| format!("cannot write the resume log: {e}"))?;
            if trace {
                traces[0].trace(&args.repro, report, out, seed);
            } else {
                daemon::measure(&traces, &args.repro, secs, report);
            }
        }
        (other, _) => return Err(format!("unknown workload {other}")),
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("arena-e2ebench: {e}");
            std::process::exit(2);
        }
    };
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
    eprintln!(
        "arena-e2ebench: {} seed {} ({} s, trace {}), {} hardware threads",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    );
    let mut report = Report::default();
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&args, &mut report)));
    match outcome {
        Ok(Ok(())) => println!("{}", report.to_json()),
        Ok(Err(e)) => {
            eprintln!("arena-e2ebench: {e}");
            std::process::exit(2);
        }
        Err(_) => {
            // A panic is a failed operation; the partial result shows it.
            report.op(false);
            println!("{}", report.to_json());
            std::process::exit(1);
        }
    }
}
