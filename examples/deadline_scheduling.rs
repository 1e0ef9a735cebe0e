//! Deadline-aware scheduling: Arena-DDL versus ElasticFlow (§8.5).
//!
//! ```text
//! cargo run --release --example deadline_scheduling
//! ```
//!
//! Every job in the trace carries a completion deadline. Arena-DDL
//! admits a job only onto Cells whose estimated finish time meets the
//! deadline and drops hopeless jobs early; ElasticFlow sizes jobs to the
//! smallest deadline-meeting DP share. The deadline satisfactory ratio is
//! the fraction of jobs finishing on time.

use arena::prelude::*;

fn main() {
    let cluster = arena::cluster::presets::physical_testbed();
    let mut cfg = TraceConfig::new(
        TraceKind::HeliosModerate,
        2.5 * 3600.0,
        cluster.total_gpus(),
        vec![48.0, 24.0],
    );
    cfg.deadline_fraction = 1.0;
    let jobs = generate(&cfg);
    println!("trace: {} deadline-carrying jobs\n", jobs.len());

    let service = PlanService::new(&cluster, CostParams::default(), 55);
    let sim_cfg = SimConfig::new(36.0 * 3600.0);

    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(ElasticFlowPolicy::deadline()),
        Box::new(ArenaPolicy::with_variant(ArenaVariant::Deadline)),
    ];
    for mut p in policies {
        let r = Run::new(&cluster, p.as_mut(), &service, &sim_cfg).batch(&jobs);
        println!(
            "{:<12} deadline satisfaction {:>5.1}%  avg JCT {:>6.0}s  dropped {:>3}  avg thpt {:.3}",
            r.policy,
            100.0 * r.metrics.deadline_satisfaction,
            r.metrics.avg_jct_s,
            r.metrics.dropped,
            r.metrics.avg_throughput
        );
    }
    println!("\nArena-DDL trades early drops for a higher on-time ratio among");
    println!("admitted jobs, while its Cell estimates let it size placements");
    println!("to each deadline instead of overestimated DP shares.");
}
