//! Trace replay: run all five schedulers over one workload trace and
//! compare them (a miniature of the paper's Fig. 14).
//!
//! ```text
//! cargo run --release --example trace_replay [hours]
//! cargo run --release --example trace_replay my_trace.json
//! ```
//!
//! With a numeric argument (default 2), generates a seeded heavy trace
//! of that many hours for the 64-GPU testbed; with a `.json` argument,
//! replays a trace saved in the `arena_trace::io` schema (the adapter
//! seam for real production traces). Either way, every policy runs
//! against the same ground truth.

use arena::prelude::*;

fn main() {
    let arg = std::env::args().nth(1);
    let cluster = arena::cluster::presets::physical_testbed();
    let jobs = match &arg {
        Some(path) if path.ends_with(".json") => {
            arena::trace::load_json(path).expect("readable, sorted trace JSON")
        }
        _ => {
            let hours: f64 = arg.and_then(|a| a.parse().ok()).unwrap_or(2.0);
            let cfg = TraceConfig::new(
                TraceKind::PhillyHeavy,
                hours * 3600.0,
                cluster.total_gpus(),
                vec![48.0, 24.0],
            );
            let jobs = generate(&cfg);
            // Round-trip through the JSON schema so the file format stays
            // exercised; the saved file doubles as a template.
            arena::trace::save_json("trace_replay_input.json", &jobs).expect("writable cwd");
            jobs
        }
    };
    println!("trace: {} jobs on 64 GPUs\n", jobs.len());

    let service = PlanService::new(&cluster, CostParams::default(), 99);
    // Run until well past the last submission.
    let last_submit = jobs.last().map_or(0.0, |j| j.submit_s);
    let sim_cfg = SimConfig::new(last_submit + 30.0 * 3600.0);

    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(FcfsPolicy::new()),
        Box::new(GandivaPolicy::new()),
        Box::new(GavelPolicy::new()),
        Box::new(ElasticFlowPolicy::loosened()),
        Box::new(ArenaPolicy::new()),
    ];

    println!(
        "{:<15} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "policy", "avg JCT", "queue", "finished", "avg thpt", "restarts"
    );
    let mut arena_result: Option<SimResult> = None;
    for mut p in policies {
        let r = Run::new(&cluster, p.as_mut(), &service, &sim_cfg).batch(&jobs);
        println!(
            "{:<15} {:>8.0}s {:>8.0}s {:>9} {:>9.3} {:>9.2}",
            r.policy,
            r.metrics.avg_jct_s,
            r.metrics.avg_queue_s,
            r.metrics.finished,
            r.metrics.avg_throughput,
            r.metrics.avg_restarts
        );
        if r.policy == "Arena" {
            arena_result = Some(r);
        }
    }

    // Show the first few job records of the Arena run.
    let arena = arena_result.expect("Arena ran");
    println!("\nfirst Arena job records:");
    for rec in arena.records.iter().take(8) {
        println!(
            "  {:24} submit {:>6.0}s queue {:>6.0}s jct {:>7.0}s restarts {}",
            rec.name,
            rec.submit_s,
            rec.queue_s().unwrap_or(f64::NAN),
            rec.jct_s().unwrap_or(f64::NAN),
            rec.restarts
        );
    }
}
