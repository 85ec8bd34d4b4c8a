//! One verbose run with a per-node breakdown — the debugging lens used
//! while reproducing the paper (kept because it is genuinely useful).
//!
//! Usage: `diagnose [PPM] [gt|orch|min]` — traffic per node (default
//! 30 ppm) and scheduler (default GT-TSCH) on the Fig. 8 network. An
//! unparsable rate, a rate below [`AppTraffic::MIN_RATE_PPM`] or above
//! [`AppTraffic::MAX_RATE_PPM`], an unknown scheduler, an extra argument
//! or any flag but `--help` prints the usage and exits 2.

use std::process::exit;

use gtt_engine::AppTraffic;
use gtt_workload::{Experiment, RunSpec, ScenarioSpec, SchedulerKind};

const USAGE: &str = "usage: diagnose [PPM] [gt|orch|min]";

fn bad_usage(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    exit(2);
}

/// Strictly parses `[PPM] [gt|orch|min]`.
fn parse_args() -> (f64, SchedulerKind) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with("--") || *a == "-h") {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}\n\nOne verbose Fig. 8-network run with a per-node breakdown.");
            exit(0);
        }
        bad_usage(&format!("unknown flag {flag}"));
    }
    if args.len() > 2 {
        bad_usage(&format!("unexpected argument {}", args[2]));
    }
    let ppm = match args.first().map(|s| s.parse::<f64>()) {
        None => 30.0,
        Some(Ok(ppm)) if AppTraffic::is_valid_rate(ppm) => ppm,
        Some(_) => bad_usage(&format!(
            "PPM must be a number from {} (one packet per u32::MAX µs) to {} (one packet \
             per simulated microsecond), got {}",
            AppTraffic::MIN_RATE_PPM,
            AppTraffic::MAX_RATE_PPM,
            args[0]
        )),
    };
    let sched = match args.get(1).map_or("gt", String::as_str) {
        "gt" => SchedulerKind::gt_tsch_default(),
        "orch" => SchedulerKind::orchestra_default(),
        "min" => SchedulerKind::minimal(32),
        other => bad_usage(&format!("unknown scheduler {other}")),
    };
    (ppm, sched)
}

fn main() {
    let (ppm, sched) = parse_args();
    let exp = Experiment::new(ScenarioSpec::two_dodag(7), sched.clone()).with_run(RunSpec {
        traffic_ppm: ppm,
        warmup_secs: 120,
        measure_secs: 300,
        seed: 3,
        ..RunSpec::default()
    });
    let mut net = exp.build_network();
    let r = exp.run_on(&mut net);
    println!(
        "{} @ {} ppm: PDR={:.1}% delay={:.0}ms loss/min={:.1} duty={:.1}% qloss={:.1} recv={:.0}",
        sched.name(),
        ppm,
        r.row.pdr_percent,
        r.row.delay_ms,
        r.row.loss_per_min,
        r.row.duty_cycle_percent,
        r.row.queue_loss,
        r.row.received_per_min
    );
    println!(
        "generated={} delivered={} hops={:.2}",
        r.generated, r.delivered, r.mean_hops
    );
    println!(
        "{:>4} {:>5} {:>8} {:>6} {:>6} {:>7} {:>7} {:>7} {:>6} {:>7} {:>7} {:>8}",
        "node",
        "root",
        "parent",
        "rank",
        "cells",
        "qloss",
        "retry",
        "routed",
        "coll",
        "utx",
        "uack",
        "duty%"
    );
    for n in &r.per_node {
        println!(
            "{:>4} {:>5} {:>8} {:>6} {:>6} {:>7} {:>7} {:>7} {:>6} {:>7} {:>7} {:>8.1}",
            n.id.to_string(),
            n.is_root,
            n.parent.map(|p| p.to_string()).unwrap_or("-".into()),
            n.rank.raw(),
            n.scheduled_cells,
            n.queue_loss,
            n.retry_drops,
            n.routing_drops,
            n.collisions_heard,
            n.counters.unicast_tx,
            n.counters.unicast_acked,
            n.duty_cycle * 100.0
        );
    }
    for id in [0u16, 2, 5] {
        let node = net.node(gtt_net::NodeId::new(id));
        println!(
            "--- n{id} (6P done={} fail={}): {}",
            node.sixtop.completed_transactions(),
            node.sixtop.failed_transactions(),
            node.scheduler.debug_summary()
        );
        for (h, f) in node.mac.schedule().iter() {
            for c in f.cells() {
                println!("  {h} {c}");
            }
        }
    }
}
