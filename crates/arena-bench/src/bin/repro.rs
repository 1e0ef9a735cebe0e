//! `repro` — regenerates every table and figure of the paper, and hosts
//! the resident scheduling daemon.
//!
//! ```text
//! repro [--quick] <experiment>...
//! repro all            # everything at full scale
//! repro --quick all    # everything at reduced scale (CI-sized)
//! repro fig14 fig12    # a subset
//!
//! repro serve --stdin                    # daemon over stdin/stdout
//! repro serve --addr 127.0.0.1:7700      # daemon over TCP
//! ```
//!
//! Each experiment prints its table(s) to stdout and writes the raw data
//! as JSON under `results/`. `repro serve` speaks the newline-delimited
//! JSON protocol documented in `arena_server::protocol`; see `--help`
//! via `repro serve --stdin` + `{"cmd":"query","what":"status"}` for a
//! smoke test, or `examples/server_session.rs` for a full session.

use std::time::Instant;

use arena::experiments::summary_table;
use arena::experiments::{
    ablations, clustersim, faults, generality, microbench, motivation, observability, tables,
};
use arena::server::{serve_lines, spawn_listener, Server, ServerConfig};
use arena::sim::SimConfig;
use arena_bench::{slug, write_json, write_text};

const ALL: &[&str] = &[
    "table1",
    "table2",
    "fig1",
    "fig3",
    "fig4",
    "fig12",
    "fig13",
    "budget",
    "fig14",
    "fidelity",
    "fig15",
    "fig16",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "ablate_noise",
    "ablate_mechanisms",
    "ablate_checkpoint",
    "ablate_zero",
    "ablate_faults",
    "solver",
    "trace",
    "timeline",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        serve(&args[1..]);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let mut wanted: Vec<String> = args.into_iter().filter(|a| !a.starts_with("--")).collect();
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = ALL.iter().map(ToString::to_string).collect();
    }
    for name in &wanted {
        let t0 = Instant::now();
        run(name, quick);
        eprintln!("[{name} done in {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
}

/// `repro serve`: runs the resident daemon until a `shutdown` command
/// arrives (or stdin reaches EOF in `--stdin` mode), then prints a
/// one-line summary to stderr.
///
/// Flags: `--stdin` | `--addr H:P` (default `127.0.0.1:7700`),
/// `--policy NAME` (default `arena`), `--cluster table1|testbed|tiny`,
/// `--seed N`, `--horizon-s F`,
/// `--event-log P`, `--decision-log P`, `--resume P`,
/// `--flight-log P` (rewritten with the last N decisions on faults and
/// shutdown), `--flight-cap N` (N for `dump` and the flight log,
/// default 256).
fn serve(args: &[String]) {
    let mut stdin_mode = false;
    let mut addr = "127.0.0.1:7700".to_string();
    let mut cfg_policy = "arena".to_string();
    let mut cluster_name = "testbed".to_string();
    let mut seed = 17u64;
    let mut horizon_s = 2_592_000.0f64; // 30 days
    let mut event_log = None;
    let mut decision_log = None;
    let mut resume = None;
    let mut flight_log = None;
    let mut flight_cap = 256usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("flag {a} needs a value"))
                .clone()
        };
        match a.as_str() {
            "--stdin" => stdin_mode = true,
            "--addr" => addr = val(),
            "--policy" => cfg_policy = val(),
            "--cluster" => cluster_name = val(),
            "--seed" => seed = val().parse().expect("--seed N"),
            "--horizon-s" => horizon_s = val().parse().expect("--horizon-s F"),
            "--event-log" => event_log = Some(val().into()),
            "--decision-log" => decision_log = Some(val().into()),
            "--resume" => resume = Some(val().into()),
            "--flight-log" => flight_log = Some(val().into()),
            "--flight-cap" => flight_cap = val().parse().expect("--flight-cap N"),
            other => panic!("unknown serve flag '{other}'"),
        }
    }
    let cluster = match cluster_name.as_str() {
        "table1" => arena::cluster::presets::table1_simulated(),
        "testbed" => arena::cluster::presets::physical_testbed(),
        "tiny" => arena::cluster::presets::tiny_a100(2, 4),
        other => panic!("unknown cluster preset '{other}'"),
    };
    let mut cfg = ServerConfig::new(&cfg_policy, cluster, SimConfig::new(horizon_s));
    cfg.seed = seed;
    cfg.event_log = event_log;
    cfg.decision_log = decision_log;
    cfg.resume = resume;
    cfg.flight_log = flight_log;
    cfg.flight_capacity = flight_cap;
    let server = Server::start(cfg).expect("server start");
    let handle = server.handle();
    if stdin_mode {
        let stdin = std::io::stdin();
        serve_lines(&handle, stdin.lock(), std::io::stdout()).expect("serve stdin");
    } else {
        let (local, acceptor) = spawn_listener(&handle, &addr).expect("bind");
        eprintln!("[arena-server listening on {local}]");
        // The acceptor returns once a `shutdown` command arrives.
        let _ = acceptor.join();
    }
    let outcome = server.join();
    eprintln!(
        "[arena-server stopped: drained={} finished={} dropped={} decisions={} events={}]",
        outcome.state.drained,
        outcome.state.finished,
        outcome.state.dropped,
        outcome.decisions_jsonl.lines().count(),
        outcome.event_log.len(),
    );
}

#[allow(clippy::too_many_lines)]
fn run(name: &str, quick: bool) {
    match name {
        "table1" => {
            let rows = tables::table1();
            println!("{}", tables::table1_table(&rows).render());
            write_json("table1", &rows).expect("write");
        }
        "table2" => {
            let rows = tables::table2();
            println!("{}", tables::table2_table(&rows).render());
            write_json("table2", &rows).expect("write");
        }
        "fig1" => {
            let schemes = motivation::fig1();
            println!(
                "{}",
                motivation::schemes_table("Fig 1: scheduling cases A/B", &schemes).render()
            );
            write_json("fig1", &schemes).expect("write");
        }
        "fig3" => {
            let schemes = motivation::fig3();
            println!(
                "{}",
                motivation::schemes_table("Fig 3: scheduling opportunities", &schemes).render()
            );
            write_json("fig3", &schemes).expect("write");
        }
        "fig4" => {
            let rows = motivation::fig4();
            println!("{}", motivation::fig4_table(&rows).render());
            write_json("fig4", &rows).expect("write");
        }
        "fig12" => {
            let rows = microbench::fig12();
            println!("{}", microbench::fig12_table(&rows).render());
            write_json("fig12", &rows).expect("write");
        }
        "fig13" => {
            let rows = microbench::fig13();
            println!("{}", microbench::fig13_table(&rows).render());
            write_json("fig13", &rows).expect("write");
        }
        "budget" => {
            let b = microbench::profiling_budget();
            println!("{}", microbench::budget_table(&b).render());
            write_json("budget", &b).expect("write");
        }
        "fig14" => {
            let exp = clustersim::fig14(quick);
            println!("{}", exp.table().render());
            write_json("fig14", &exp).expect("write");
        }
        "fidelity" => {
            let f = clustersim::fidelity();
            println!("{}", clustersim::fidelity_table(&f).render());
            write_json("fidelity", &f).expect("write");
        }
        "fig15" => {
            let rows = clustersim::fig15();
            println!("{}", clustersim::fig15_table(&rows).render());
            write_json("fig15", &rows).expect("write");
        }
        "fig16" => {
            let exp = clustersim::fig16_17(quick);
            println!("{}", exp.table().render());
            println!("{}", clustersim::timeline_table(&exp).render());
            write_json("fig16_17", &exp).expect("write");
        }
        "fig18" => {
            for exp in clustersim::fig18(quick) {
                println!("{}", exp.table().render());
                write_json(
                    &format!(
                        "fig18_{}",
                        if exp.name.contains("Helios") {
                            "helios"
                        } else {
                            "pai"
                        }
                    ),
                    &exp,
                )
                .expect("write");
            }
        }
        "fig19" => {
            let exp = generality::fig19(quick);
            println!("{}", generality::fig19_table(&exp).render());
            println!(
                "{}",
                summary_table("Fig 19 (full metrics)", &exp.summaries).render()
            );
            write_json("fig19", &exp).expect("write");
        }
        "fig20" => {
            let exp = generality::fig20(quick);
            println!("{}", generality::fig20_table(&exp).render());
            println!(
                "{}",
                summary_table("Fig 20 (full metrics)", &exp.summaries).render()
            );
            write_json("fig20", &exp).expect("write");
        }
        "fig21" => {
            let rows = generality::fig21(quick);
            println!("{}", generality::fig21_table(&rows).render());
            write_json("fig21", &rows).expect("write");
        }
        "ablate_noise" => {
            let rows = ablations::noise_sensitivity();
            println!("{}", ablations::noise_table(&rows).render());
            write_json("ablate_noise", &rows).expect("write");
        }
        "ablate_mechanisms" => {
            let rows = ablations::mechanism_ablation();
            println!("{}", ablations::mechanism_table(&rows).render());
            write_json("ablate_mechanisms", &rows).expect("write");
        }
        "ablate_checkpoint" => {
            let rows = ablations::checkpoint_sensitivity();
            println!("{}", ablations::checkpoint_table(&rows).render());
            write_json("ablate_checkpoint", &rows).expect("write");
        }
        "ablate_zero" => {
            let rows = ablations::zero1_ablation();
            println!("{}", ablations::zero1_table(&rows).render());
            write_json("ablate_zero", &rows).expect("write");
        }
        "ablate_faults" => {
            let rows = faults::fault_ablation(quick);
            println!("{}", faults::fault_table(&rows).render());
            write_json("ablate_faults", &rows).expect("write");
        }
        "solver" => {
            let rows = ablations::solver_extension();
            println!("{}", ablations::solver_table(&rows).render());
            write_json("solver", &rows).expect("write");
        }
        "trace" => {
            let runs = observability::conformance_workload(quick);
            println!("{}", observability::trace_table(&runs).render());
            let summaries: Vec<_> = runs.iter().map(|r| r.summary.clone()).collect();
            write_json("trace", &summaries).expect("write");
            for run in &runs {
                println!("{}", observability::reason_table(run).render());
                let file = format!("trace_decisions_{}.jsonl", slug(&run.summary.policy));
                write_text(&file, &run.jsonl).expect("write");
            }
        }
        "timeline" => {
            let runs = observability::timeline_workload(quick);
            let summaries: Vec<_> = runs.iter().map(|r| r.summary.clone()).collect();
            println!(
                "{}",
                observability::timeline_summary_table(&summaries).render()
            );
            for run in &runs {
                let s = slug(&run.summary.policy);
                write_json(&format!("timeline_{s}.summary"), &run.summary).expect("write");
                write_text(&format!("timeline_{s}.trace.json"), &run.perfetto_json).expect("write");
                write_text(&format!("timeline_{s}.util.jsonl"), &run.utilization_jsonl)
                    .expect("write");
            }
        }
        other => eprintln!("unknown experiment '{other}'; known: {ALL:?}"),
    }
}
