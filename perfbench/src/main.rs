//! The GT-TSCH simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig8-sweep|city-1k-churn|city-10k|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload, single-threaded, through the public
//! API only. It repeats whole passes over the workload's cells until
//! `--seconds` have elapsed (at least one pass), checks every report,
//! checks once that its windowed loop matches `Experiment::run`, and
//! prints one JSON object as its last line: the end-to-end metrics, or
//! with `--trace 1` the per-layer metrics derived from spans (passes
//! then alternate untraced and traced, which also gives the tracing
//! overhead; the spans go to `.bench_out/`). Every time reported is
//! scaled to a reference host speed (see `host.rs`). `--workload all`
//! runs each workload in a child process of its own. See
//! `perfbench/README.md`.

mod drive;
mod host;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{exit, Command};
use std::time::{Duration, Instant};

use gtt_engine::NetworkReport;

use crate::host::Host;
use crate::stats::{fingerprint, median, percentile, SimOutcome};
use crate::trace::Tracer;
use crate::workloads::Cell;

const USAGE: &str = "usage: gtt-perfbench --workload <fig8-sweep|city-1k-churn|city-10k|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// `setup_s` is the median of at least this many setup-only rounds over
/// the workload's cells: one after each pass, so the samples span the
/// run like the passes do, topped up after the last pass.
const SETUP_SAMPLES: usize = 25;

/// Where traced runs write their spans, relative to the working directory.
const SPAN_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

/// One metric of the final JSON line.
enum Value {
    Real(f64),
    Count(u64),
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: Value,
}

fn real(name: &'static str, unit: &'static str, v: f64) -> Metric {
    Metric {
        name,
        unit,
        value: Value::Real(v),
    }
}

fn count(name: &'static str, v: u64) -> Metric {
    Metric {
        name,
        unit: "count",
        value: Value::Count(v),
    }
}

/// Timings of one pass over every cell of the workload.
#[derive(Default)]
struct Pass {
    traced: bool,
    wall: f64,
    node_slots: u64,
    /// Measured windows: count, summed seconds, median and p90 seconds.
    windows: usize,
    steady: f64,
    window_p50: f64,
    window_p90: f64,
}

/// Everything a workload run produced.
struct Run {
    passes: Vec<Pass>,
    setups: Vec<f64>,
    sim: SimOutcome,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    tracer: Tracer,
    /// Read after the first pass, before the benchmark's own bookkeeping
    /// grows with the run length; every pass does the same work.
    peak_rss_mb: f64,
    /// Host-speed reference; every reported time is scaled by it.
    host: Host,
}

/// The output checks on one report: delivered never exceeds generated,
/// and the per-node `generated` sums to the network total.
fn check_report(report: &NetworkReport) -> Result<(), String> {
    if report.delivered > report.generated {
        return Err(format!(
            "delivered {} > generated {}",
            report.delivered, report.generated
        ));
    }
    let per_node: u64 = report.per_node.iter().map(|n| n.generated).sum();
    if per_node != report.generated {
        return Err(format!(
            "per-node generated sums to {per_node}, network total is {}",
            report.generated
        ));
    }
    Ok(())
}

/// Builds (and drops) every cell's network once, recording the summed
/// setup time; traced when `traced`.
fn setup_round(cells: &[Cell], setups: &mut Vec<f64>, tr: &mut Tracer, traced: bool) {
    tr.on = traced;
    let span = tr.begin("setup", "");
    let total: Duration = cells.iter().map(|c| drive::setup(c, tr).1).sum();
    tr.end(span);
    setups.push(total.as_secs_f64());
}

fn run_workload(args: &Args, cells: &[Cell]) -> Run {
    let mut run = Run {
        passes: Vec::new(),
        setups: Vec::new(),
        sim: SimOutcome::default(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        tracer: Tracer::new(),
        peak_rss_mb: f64::NAN,
        host: Host::new(),
    };
    let tr = &mut run.tracer;
    // Fingerprint of each cell's first successful run.
    let mut first: Vec<Option<u64>> = vec![None; cells.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        let traced = args.trace && !run.passes.len().is_multiple_of(2);
        tr.on = traced;
        let mut pass = Pass {
            traced,
            ..Pass::default()
        };
        let mut windows = Vec::new();
        let pass_span = tr.begin("pass", "");
        for (i, cell) in cells.iter().enumerate() {
            run.attempted += 1;
            run.host.sample_if_due();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let (mut net, report, times) = drive::run(cell, tr, &mut run.host);
                if traced {
                    drive::probe_move(&mut net, tr);
                    drive::record_counts(&net, &report, cell.hops.len() as u64, tr);
                }
                (report, times)
            }));
            let checked = match outcome {
                Err(_) => Err("panicked".to_string()),
                Ok((report, times)) => check_report(&report).and_then(|()| {
                    let fp = fingerprint(&report);
                    match first[i] {
                        None => {
                            first[i] = Some(fp);
                            println!("fingerprint {fp:016x}  {}", cell.label);
                            run.sim.add(&report)?;
                        }
                        Some(f) if f != fp => {
                            return Err(format!("fingerprint {fp:016x} differs from {f:016x}"))
                        }
                        Some(_) => {}
                    }
                    Ok(times)
                }),
            };
            match checked {
                Ok(times) => {
                    pass.wall += times.wall.as_secs_f64();
                    pass.node_slots += times.node_slots;
                    windows.extend(times.windows.iter().map(Duration::as_secs_f64));
                }
                Err(e) => {
                    run.failed += 1;
                    run.problems.push(format!("{}: {e}", cell.label));
                }
            }
        }
        tr.end(pass_span);
        pass.windows = windows.len();
        pass.steady = windows.iter().sum();
        pass.window_p50 = percentile(&windows, 50.0);
        pass.window_p90 = percentile(&windows, 90.0);
        run.passes.push(pass);
        if run.passes.len() == 1 {
            run.peak_rss_mb = peak_rss_mb() - host::BUFFER_MB;
        }
        setup_round(cells, &mut run.setups, tr, args.trace);
        let balanced = !args.trace || run.passes.len().is_multiple_of(2);
        if Instant::now() >= deadline && balanced {
            break;
        }
    }

    while run.setups.len() < SETUP_SAMPLES {
        setup_round(cells, &mut run.setups, tr, args.trace);
    }
    tr.on = false;

    // The windowed loop must be the program users run.
    for (cell, fp) in cells.iter().zip(&first) {
        let reference = catch_unwind(AssertUnwindSafe(|| {
            fingerprint(&cell.equivalent_experiment().run())
        }));
        match (reference, fp) {
            (Ok(r), Some(f)) if r == *f => {}
            (Ok(r), _) => run.problems.push(format!(
                "equivalence check: {} — Experiment::run gives {r:016x}, windowed loop {}",
                cell.label,
                fp.map_or("nothing".into(), |f| format!("{f:016x}"))
            )),
            (Err(_), _) => run.problems.push(format!(
                "equivalence check: {} — Experiment::run panicked",
                cell.label
            )),
        }
    }
    run
}

/// Peak resident set of this process, MB (VmHWM never falls, hence one
/// workload per process).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    let passes: Vec<&Pass> = run.passes.iter().filter(|p| !p.traced).collect();
    let per_pass = |f: fn(&Pass) -> f64| median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>());
    println!(
        "passes: {}, window samples per pass: {}, setup samples: {}",
        passes.len(),
        passes[0].windows,
        run.setups.len()
    );
    println!("{}", run.host.describe());
    let k = run.host.scale();
    vec![
        real("setup_s", "s", median(&run.setups) * k),
        real("wall_s", "s", per_pass(|p| p.wall) * k),
        real(
            "node_slots_per_s",
            "1/s",
            per_pass(|p| p.node_slots as f64 / p.steady) / k,
        ),
        real("window_ms_p50", "ms", per_pass(|p| p.window_p50) * 1e3 * k),
        real("window_ms_p90", "ms", per_pass(|p| p.window_p90) * 1e3 * k),
        real("peak_rss_mb", "MB", run.peak_rss_mb),
        real("sim_pdr_pct", "%", run.sim.pdr_pct()),
        real("sim_delay_mean_ms", "ms", run.sim.delay_mean_ms()),
        real("sim_delay_p99_ms", "ms", run.sim.delay_ms(99.0)),
        real("sim_duty_cycle_pct", "%", run.sim.duty_pct()),
    ]
}

fn per_layer(run: &mut Run) -> Vec<Metric> {
    println!("{}", run.host.describe());
    let k = run.host.scale();
    let recs = &run.tracer.records;
    // Per traced root (a pass or a setup round): summed span seconds and
    // summed counters.
    let mut span_sums: BTreeMap<u32, BTreeMap<&str, f64>> = BTreeMap::new();
    let mut counters: BTreeMap<u32, BTreeMap<&str, u64>> = BTreeMap::new();
    let mut gt_tsch: BTreeMap<u32, f64> = BTreeMap::new();
    let mut moves_us = Vec::new();
    for r in recs {
        match r.value {
            Some(v) => {
                *counters
                    .entry(r.root)
                    .or_default()
                    .entry(r.name)
                    .or_default() += v
            }
            None => {
                *span_sums
                    .entry(r.root)
                    .or_default()
                    .entry(r.name)
                    .or_default() += r.secs();
                if r.name == "run_until.window" && r.tag == "gt-tsch" {
                    *gt_tsch.entry(r.root).or_default() += r.secs();
                }
                if r.name.starts_with("move_node") {
                    moves_us.push(r.secs() * 1e6);
                }
            }
        }
    }
    // Scaled to the reference host, like every time reported.
    // Median over the `root` rounds (passes or setup rounds) of the
    // per-round sum of `name` spans.
    let spans = |root: &str, name: &str| {
        let sums: Vec<f64> = span_sums
            .iter()
            .filter(|(&id, _)| recs[id as usize].name == root)
            .filter_map(|(_, m)| m.get(name).copied())
            .collect();
        median(&sums) * k
    };
    // Counts are deterministic: every traced pass must read the same.
    let empty = BTreeMap::new();
    let c = counters.values().next().unwrap_or(&empty);
    if counters.values().any(|m| m != c) {
        run.problems.push("counters differ between passes".into());
    }
    let get = |name: &str| c.get(name).copied().unwrap_or(0);
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let awake = get("mac.tx_slots") + get("mac.rx_busy_slots") + get("mac.rx_idle_slots");
    let steady = spans("pass", "run_until.window");

    let wall = |traced: bool| {
        median(
            &run.passes
                .iter()
                .filter(|p| p.traced == traced)
                .map(|p| p.wall)
                .collect::<Vec<_>>(),
        )
    };
    let (traced, untraced) = (wall(true), wall(false));
    println!(
        "spans: {} records; traced pass {traced:.4} s vs untraced {untraced:.4} s",
        recs.len()
    );
    vec![
        real(
            "net.topology_build_ms",
            "ms",
            spans("setup", "scenario.build") * 1e3,
        ),
        count("net.moves", get("net.moves")),
        real(
            "net.move_node_us_p50",
            "us",
            percentile(&moves_us, 50.0) * k,
        ),
        real(
            "net.move_node_us_max",
            "us",
            percentile(&moves_us, 100.0) * k,
        ),
        real(
            "engine.network_build_ms",
            "ms",
            spans("setup", "network.build") * 1e3,
        ),
        real(
            "engine.formation_s",
            "s",
            spans("pass", "run_until.formation"),
        ),
        real("engine.steady_s", "s", steady),
        real(
            "engine.steady_s.gt-tsch",
            "s",
            median(&gt_tsch.values().copied().collect::<Vec<_>>()) * k,
        ),
        real(
            "engine.awake_share",
            "ratio",
            ratio(awake, get("mac.node_slots")),
        ),
        real(
            "engine.ns_per_awake_node_slot",
            "ns",
            steady * 1e9 / awake.max(1) as f64,
        ),
        count("mac.tx_slots", get("mac.tx_slots")),
        count("mac.rx_busy_slots", get("mac.rx_busy_slots")),
        count("mac.rx_idle_slots", get("mac.rx_idle_slots")),
        real(
            "mac.ack_ratio",
            "ratio",
            ratio(get("mac.unicast_acked"), get("mac.unicast_tx")),
        ),
        count("mac.retry_drops", get("mac.retry_drops")),
        count("mac.queue_loss", get("mac.queue_loss")),
        count("mac.collisions_heard", get("mac.collisions_heard")),
        count("mac.link_stats_live", get("mac.link_stats_live")),
        count("mac.link_stats_span", get("mac.link_stats_span")),
        count("sixtop.tx_ok", get("sixtop.tx_ok")),
        count("sixtop.tx_failed", get("sixtop.tx_failed")),
        real(
            "sixtop.success_ratio",
            "ratio",
            ratio(
                get("sixtop.tx_ok"),
                get("sixtop.tx_ok") + get("sixtop.tx_failed"),
            ),
        ),
        count("sched.mutations", get("sched.mutations")),
        count("sched.cells", get("sched.cells")),
        count("rpl.parent_changes", get("rpl.parent_changes")),
        real(
            "rpl.join_ratio",
            "ratio",
            ratio(get("rpl.joined"), get("rpl.non_roots")),
        ),
        real("metrics.report_ms", "ms", spans("pass", "report") * 1e3),
        Metric {
            name: "metrics.tracker_bytes",
            unit: "bytes",
            value: Value::Count(get("metrics.tracker_bytes")),
        },
        real(
            "metrics.bytes_per_packet",
            "bytes",
            ratio(get("metrics.tracker_bytes"), get("metrics.tracked_packets")),
        ),
        real(
            "trace.overhead_pct",
            "%",
            100.0 * (traced - untraced) / untraced,
        ),
    ]
}

/// Prints the metrics by name with their unit, then the final JSON line.
fn report(run: &mut Run, metrics: &[Metric]) {
    let mut json = Vec::new();
    for m in metrics {
        let value = match m.value {
            Value::Count(v) => v.to_string(),
            Value::Real(v) if v.is_finite() => v.to_string(),
            Value::Real(v) => {
                run.problems
                    .push(format!("{} is not a number ({v})", m.name));
                "0".into()
            }
        };
        println!("{:<32} {value} {}", m.name, m.unit);
        json.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    for p in &run.problems {
        println!("FAILED: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.problems.is_empty(),
        run.attempted,
        run.failed,
        json.join(", ")
    );
}

/// `--workload all`: each workload in a process of its own, so each
/// peak RSS is that workload's alone.
fn run_all(argv: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut code = 0;
    for name in workloads::NAMES {
        let mut child_args = argv.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed")
            + 1;
        child_args[at] = name.to_string();
        println!("== {name}");
        match Command::new(&exe).args(&child_args).status() {
            Ok(s) if s.success() => {}
            _ => code = 1,
        }
    }
    code
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2)
    });
    if args.workload == "all" {
        exit(run_all(&argv));
    }
    let cells = workloads::generate(&args.workload, args.seed).unwrap_or_else(|| {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        exit(2)
    });
    println!(
        "workload {} seed {} ({} cells, {} s, trace {})",
        args.workload,
        args.seed,
        cells.len(),
        args.seconds,
        u8::from(args.trace)
    );
    let mut run = run_workload(&args, &cells);
    let metrics = if args.trace {
        let path = format!("{SPAN_DIR}/{}-seed{}.spans.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all(SPAN_DIR)
            .and_then(|()| std::fs::write(&path, run.tracer.to_json_lines()));
        if let Err(e) = written {
            run.problems.push(format!("cannot write {path}: {e}"));
        }
        per_layer(&mut run)
    } else {
        end_to_end(&run)
    };
    report(&mut run, &metrics);
}
