//! City-scale smoke benchmark: proves the 10k-node regime is open.
//!
//! Usage: `city [--quick] [--move-bench] [--mem-smoke] [--help]`
//!
//! * Default / `--quick` — runs the `city-1k` (10 × 100) and `city-10k`
//!   (100 × 100) scenarios on the event core and prints wall time,
//!   slots/s, a PDR sanity line and the metrics-tracker footprint per
//!   run. `--quick` simulates 60 s per scenario (the CI smoke budget);
//!   the default is 300 s.
//! * `--move-bench` — times incremental [`Topology::set_position`] on
//!   the 10k-node city against the pre-spatial-index baseline (a full
//!   O(n²) audibility recompute per move, which is what every hop used
//!   to cost) and prints the per-move speedup.
//! * `--mem-smoke` — the memory gate: runs the 10k city for 60 s at
//!   30 ppm (enough traffic that per-lane headers amortize) and **fails**
//!   (exit 1) unless the tracker footprint stays at or under
//!   12 bytes per tracked packet *and* under a fixed 6 MB budget —
//!   proving metrics memory is O(live + bitset), not O(packets ever).
//!
//! Outside `--mem-smoke`, exit is 0: smoke modes are reporting-only,
//! the budget gate is the CI step timeout wrapped around the binary.
//! Unknown arguments print the usage and exit 2, so a mistyped gate flag
//! can never fall through to a report-only run.

use std::process::exit;
use std::time::Instant;

use gtt_metrics::TrackerFootprint;
use gtt_net::{NodeId, Position, Topology};
use gtt_workload::{Experiment, RunSpec, ScenarioSpec, SchedulerKind};

/// Tracker-footprint budget enforced by `--mem-smoke`: amortized bytes
/// per tracked packet (host-independent, from vector capacities).
const MEM_GATE_BYTES_PER_PACKET: f64 = 12.0;
/// Absolute tracker budget for the 60 s / 30 ppm / 10k-node gate run:
/// ~300k tracked packets at ≤ 12 B each plus slack for lane headers.
const MEM_GATE_TOTAL_BYTES: usize = 6 << 20;

/// Simulates `sim_secs` of a city scenario on the event core and
/// reports wall time plus the measured-window PDR as a sanity check
/// that the network actually converged and delivered traffic. Returns
/// the metrics-tracker footprint for the `--mem-smoke` gate.
fn smoke(
    dodags: usize,
    nodes_per_dodag: usize,
    sim_secs: u64,
    traffic_ppm: f64,
) -> TrackerFootprint {
    let exp = Experiment::new(
        ScenarioSpec::city(dodags, nodes_per_dodag),
        SchedulerKind::gt_tsch_default(),
    )
    .with_run(RunSpec {
        traffic_ppm,
        warmup_secs: 0,
        measure_secs: sim_secs,
        seed: 1,
        low_power: true,
    });
    let mut net = exp.network_builder().build();
    let start = Instant::now();
    let report = exp.run_on(&mut net);
    let secs = start.elapsed().as_secs_f64();
    let slots = net.asn().raw();
    let fp = net.tracker().footprint();
    println!(
        "  {:<12} {:>6} nodes  {sim_secs:>4} s sim  {secs:>7.2} s wall  {:>8.0} slots/s  pdr {:.3}",
        exp.scenario.name(),
        dodags * nodes_per_dodag,
        slots as f64 / secs,
        report.row.pdr_percent
    );
    println!(
        "  {:<12} tracker: {} B over {} packets ({:.2} B/packet, {} lanes, {} live slots)",
        "",
        fp.bytes,
        fp.tracked,
        fp.bytes_per_tracked(),
        fp.lanes,
        fp.live
    );
    fp
}

/// The pre-PR cost of one hop: recompute the full pairwise audibility
/// relation. (The old `set_position` rebuilt both adjacency tables this
/// way; counting audible pairs without materializing the rows slightly
/// *under*-prices it, which keeps the reported speedup honest.)
fn brute_force_rebuild(topo: &Topology) -> usize {
    let mut audible_pairs = 0;
    for a in topo.node_ids() {
        for b in topo.node_ids() {
            if topo.audible(a, b) {
                audible_pairs += 1;
            }
        }
    }
    audible_pairs
}

/// Times incremental moves vs the O(n²) baseline on the 10k city.
fn move_bench() {
    let scenario = ScenarioSpec::city(100, 100).build();
    let mut topo = scenario.topology;
    let n = topo.len();
    // A courier leaf hopping between cluster discs (origins on a
    // 10-wide grid at 1 km spacing) — the worst case for the index,
    // since every hop crosses buckets and changes island membership.
    let courier = NodeId::new(99);
    let spots = [
        Position::new(1_060.0, 60.0),
        Position::new(60.0, 1_060.0),
        Position::new(5_060.0, 5_060.0),
        Position::new(60.0, 60.0),
    ];
    let incr_moves = 1_000;
    let start = Instant::now();
    for k in 0..incr_moves {
        topo.set_position(courier, spots[k % spots.len()]);
    }
    let incr_per_move = start.elapsed().as_secs_f64() / incr_moves as f64;

    let brute_reps = 5;
    let start = Instant::now();
    let mut sink = 0;
    for _ in 0..brute_reps {
        sink += std::hint::black_box(brute_force_rebuild(&topo));
    }
    let brute_per_move = start.elapsed().as_secs_f64() / brute_reps as f64;
    std::hint::black_box(sink);

    println!(
        "  set_position at n={n}: {:.1} µs/move incremental vs {:.0} µs/move \
         brute-force rebuild — {:.0}x",
        incr_per_move * 1e6,
        brute_per_move * 1e6,
        brute_per_move / incr_per_move
    );
}

/// The CI memory gate: 10k nodes, 60 s, 30 ppm, hard footprint budgets.
fn mem_smoke() -> bool {
    println!("city memory smoke (10k nodes, 60 s sim, 30 ppm, tracker footprint gate):");
    let fp = smoke(100, 100, 60, 30.0);
    let mut ok = true;
    if fp.bytes_per_tracked() > MEM_GATE_BYTES_PER_PACKET {
        println!(
            "  GATE FAIL: {:.2} B/tracked packet > {MEM_GATE_BYTES_PER_PACKET} budget",
            fp.bytes_per_tracked()
        );
        ok = false;
    }
    if fp.bytes > MEM_GATE_TOTAL_BYTES {
        println!(
            "  GATE FAIL: tracker footprint {} B > {MEM_GATE_TOTAL_BYTES} B budget",
            fp.bytes
        );
        ok = false;
    }
    if ok {
        println!(
            "  gate ok: {:.2} B/packet <= {MEM_GATE_BYTES_PER_PACKET}, {} B <= {MEM_GATE_TOTAL_BYTES} B",
            fp.bytes_per_tracked(),
            fp.bytes
        );
    }
    ok
}

const USAGE: &str = "usage: city [--quick] [--move-bench] [--mem-smoke] [--help]";

fn main() {
    let (mut quick, mut move_bench_mode, mut mem_smoke_mode) = (false, false, false);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--move-bench" => move_bench_mode = true,
            "--mem-smoke" => mem_smoke_mode = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("error: unknown argument {other}\n{USAGE}");
                exit(2);
            }
        }
    }
    if move_bench_mode {
        println!("city move bench (10k nodes, incremental vs pre-index per-hop cost):");
        move_bench();
        return;
    }
    if mem_smoke_mode {
        if !mem_smoke() {
            exit(1);
        }
        return;
    }
    let sim_secs = if quick { 60 } else { 300 };
    println!("city smoke ({sim_secs} s simulated per scenario, event core):");
    smoke(10, 100, sim_secs, 1.0);
    smoke(100, 100, sim_secs, 1.0);
}
