//! Measures the event-driven engine core against the naive-step oracle
//! and emits `BENCH_engine.json`.
//!
//! Usage: `bench_engine [--quick] [--out PATH] [--only SUBSTR] [--stats]
//! [--help]`
//!
//! * `--quick` — shorter simulated window for the speedup matrix (CI
//!   smoke budget). The `city_10k` metrics row (below) has a fixed
//!   window and runs either way.
//! * `--out PATH` — where to write the JSON (default `BENCH_engine.json`
//!   in the current directory).
//! * `--only SUBSTR` — run only the cases whose `name/scheduler/ppm`
//!   label contains `SUBSTR` (profiling aid; no JSON, no `city_10k`
//!   row, no gates).
//! * `--stats` — per-run activity diagnostics (awake and tx per slot).
//!
//! Command-line errors (an unknown flag, a flag missing its value)
//! print the usage and exit 2; an `--out` path that cannot be written
//! also exits 2, after the measurements.
//!
//! Every case is one declarative [`Experiment`]; the same value builds
//! the event-core and the oracle network (via
//! [`Experiment::network_builder`] + `naive_stepping`), and overlay
//! cases drive both cores through the identical overlay timeline. For
//! each case the same seed is simulated once per core; reported
//! `slots_per_sec` is simulated-slots / wall-seconds and `speedup` is
//! the ratio event / naive. The sparse-traffic 120-node grid is the
//! slot-skipping acceptance case (target ≥ 5×) and the Orchestra
//! 120-node star is the multi-slotframe passive-listen acceptance case
//! (target ≥ 1.6×, vs the ~1.05× the always-wake core managed on
//! Orchestra schedules); the minimal-schedule dense star is included
//! honestly as the regime where slot skipping cannot win big (a shared
//! cell in every slot keeps every node listening). The mobility and
//! duty-cycle overlay rows are reporting-only (no gate): they track how
//! the overlay timeline costs scale, not an optimization target.
//!
//! Every run also measures the `city_10k` metrics row: 60 s of the
//! 100 × 100 city at 30 ppm on the event core alone (the naive oracle
//! is infeasible at 10k nodes), reporting slots/s plus the
//! packet-tracker footprint. The speedup and retention gates fail full
//! runs only, since short windows on a shared runner are too noisy to
//! fail on. The row's two memory gates — ≤ 3 bytes per tracked packet
//! and ≤ 1 MiB in total — exit 1 in every mode, `--quick` included:
//! they are host-independent, because the footprint is computed from
//! vector capacities, not timings.

use std::process::exit;
use std::time::Instant;

use gtt_mac::SLOT_DURATION;
use gtt_net::{NodeId, Position};
use gtt_sim::SimDuration;
use gtt_workload::{
    DutyCycleBudget, Experiment, Overlay, RunSpec, ScenarioSpec, SchedulerKind, StepMobility,
};

/// Wall-clock floor for the `city-1k-mobility` row, as a fraction of
/// the static `city-1k` event rate measured in the same matrix. The
/// incremental `set_position` makes 300 inter-cluster hops nearly free
/// (~0.99 retention measured), while the old O(n²)-per-hop rebuild
/// costs whole seconds at 1 000 nodes and drops retention below ~0.3 —
/// and because both rows run on the same host, the ratio gate holds on
/// slow CI runners where an absolute slots/s floor would not.
const CITY_MOBILITY_RETENTION: f64 = 0.5;

/// Tracker-memory gate for the `city_10k` row: amortized bytes per
/// tracked packet (1 delivered bit per packet plus a 48-byte lane per
/// origin, ~2.3 B at this row's ~24 packets per origin). A per-packet
/// column of 8-byte times would add 8 B and fail it. Host-independent
/// — measured from capacities.
const CITY_10K_BYTES_PER_PACKET: f64 = 3.0;

/// Absolute tracker budget for the `city_10k` row: ~240k tracked
/// packets and 10k lanes take ~0.55 MiB. Keeps metrics memory
/// O(origins + one bit per packet).
const CITY_10K_TOTAL_BYTES: usize = 1 << 20;

/// Simulated window of the `city_10k` row. Fixed (not tied to
/// `sim_secs`): 60 s at 30 ppm is enough traffic to amortize the
/// per-lane headers, and 10 000 nodes cost real wall-clock per second.
const CITY_10K_SIM_SECS: u64 = 60;
const CITY_10K_TRAFFIC_PPM: f64 = 30.0;

/// The `city_10k` metrics row: slots/s on the event core plus the
/// packet-tracker footprint the memory gate checks.
struct City10k {
    nodes: usize,
    sim_slots: u64,
    event_slots_per_sec: f64,
    footprint: gtt_metrics::TrackerFootprint,
}

/// Measures the city-10k row (one run, event core only: at 10k nodes
/// the naive oracle would take longer than the rest of the matrix
/// combined, and the gated quantity is memory, not a speedup).
fn city_10k_row() -> City10k {
    let exp = Experiment::new(
        ScenarioSpec::city(100, 100),
        SchedulerKind::gt_tsch_default(),
    )
    .with_run(RunSpec {
        traffic_ppm: CITY_10K_TRAFFIC_PPM,
        warmup_secs: 0,
        measure_secs: CITY_10K_SIM_SECS,
        seed: 1,
        low_power: true,
    });
    let nodes = exp.scenario.node_count();
    let mut net = exp.network_builder().build();
    let start = Instant::now();
    let _ = exp.run_on(&mut net);
    let secs = start.elapsed().as_secs_f64();
    City10k {
        nodes,
        sim_slots: net.asn().raw(),
        event_slots_per_sec: net.asn().raw() as f64 / secs,
        footprint: net.tracker().footprint(),
    }
}

struct Case {
    /// Row label (usually the scenario name; overlay rows tag it).
    label: &'static str,
    experiment: Experiment,
}

struct Measurement {
    name: String,
    scheduler: &'static str,
    traffic_ppm: f64,
    low_power: bool,
    nodes: usize,
    sim_slots: u64,
    event_slots_per_sec: f64,
    naive_slots_per_sec: f64,
    speedup: f64,
}

/// A case experiment: seed 1, no warm-up — the measured window *is* the
/// simulated time (`measure_secs` is patched per run length).
fn case(
    scenario: ScenarioSpec,
    scheduler: SchedulerKind,
    traffic_ppm: f64,
    low_power: bool,
) -> Experiment {
    Experiment::new(scenario, scheduler).with_run(RunSpec {
        traffic_ppm,
        warmup_secs: 0,
        measure_secs: 0, // patched in time_run
        seed: 1,
        low_power,
    })
}

/// The stepping core a timed run uses.
#[derive(Clone, Copy)]
enum Core {
    /// The sequential event-driven core (what `Experiment::run` uses).
    Event,
    /// The exhaustive per-slot oracle.
    Naive,
}

impl Core {
    fn name(self) -> &'static str {
        match self {
            Core::Event => "event",
            Core::Naive => "naive",
        }
    }
}

/// Wall-seconds to simulate `sim` of the case on one core; with `stats`,
/// also prints the run's activity diagnostics.
fn time_run(case: &Case, sim: SimDuration, core: Core, stats: bool) -> f64 {
    let mut exp = case.experiment.clone();
    exp.run.measure_secs = sim.as_micros() / 1_000_000;
    let builder = exp.network_builder();
    let mut net = match core {
        Core::Event => builder,
        Core::Naive => builder.naive_stepping(),
    }
    .build();
    let start = Instant::now();
    if exp.overlays.is_empty() {
        net.run_for(sim);
    } else {
        // Overlay rows go through the shared timeline driver, so the
        // measured time includes the overlay machinery itself.
        let _ = exp.run_on(&mut net);
    }
    let secs = start.elapsed().as_secs_f64();
    if stats {
        let (mut awake, mut slots, mut txs, mut idle) = (0u64, 0u64, 0u64, 0u64);
        for node in net.nodes() {
            let c = node.mac.counters();
            awake += c.tx_slots + c.rx_busy_slots + c.rx_idle_slots;
            txs += c.tx_slots;
            idle += c.rx_idle_slots;
            slots += c.slots;
        }
        let total_slots = slots / net.nodes().len() as u64;
        eprintln!(
            "    [{}] {} awake {:.3} tx/slot {:.3} idle/slot {:.2} ns/slot {:.0}",
            core.name(),
            case.label,
            awake as f64 / slots.max(1) as f64,
            txs as f64 / total_slots.max(1) as f64,
            idle as f64 / total_slots.max(1) as f64,
            secs * 1e9 / total_slots.max(1) as f64,
        );
    }
    secs
}

fn measure(case: &Case, sim: SimDuration, stats: bool) -> Measurement {
    let sim_slots = sim.as_micros() / SLOT_DURATION.as_micros();
    // Best of three per core, with the event and naive repetitions
    // *interleaved*: the first pass faults in code paths, min-of-N
    // filters out scheduler noise from the shared host, and pairing the
    // legs in time keeps a noisy few minutes from skewing one core's
    // numbers but not the other's (the ratio is the product).
    let (mut event_secs, mut naive_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        event_secs = event_secs.min(time_run(case, sim, Core::Event, stats));
        naive_secs = naive_secs.min(time_run(case, sim, Core::Naive, stats));
    }
    Measurement {
        name: case.label.to_string(),
        scheduler: case.experiment.scheduler.name(),
        traffic_ppm: case.experiment.run.traffic_ppm,
        low_power: case.experiment.run.low_power,
        nodes: case.experiment.scenario.node_count(),
        sim_slots,
        event_slots_per_sec: sim_slots as f64 / event_secs,
        naive_slots_per_sec: sim_slots as f64 / naive_secs,
        speedup: naive_secs / event_secs,
    }
}

fn json(measurements: &[Measurement], sim_secs: u64, c: &City10k) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"engine_slots_per_sec\",\n");
    out.push_str(&format!("  \"sim_secs\": {sim_secs},\n"));
    out.push_str("  \"slot_ms\": 15,\n");
    out.push_str("  \"scenarios\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"scheduler\": \"{}\", \"nodes\": {}, \
             \"traffic_ppm\": {}, \"low_power\": {}, \"sim_slots\": {}, \
             \"event_slots_per_sec\": {:.0}, \"naive_slots_per_sec\": {:.0}, \
             \"speedup\": {:.2}}}{}\n",
            m.name,
            m.scheduler,
            m.nodes,
            m.traffic_ppm,
            m.low_power,
            m.sim_slots,
            m.event_slots_per_sec,
            m.naive_slots_per_sec,
            m.speedup,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");
    out.push_str(&format!(
        ",\n  \"city_10k\": {{\"nodes\": {}, \"sim_secs\": {CITY_10K_SIM_SECS}, \
         \"traffic_ppm\": {CITY_10K_TRAFFIC_PPM}, \"sim_slots\": {}, \
         \"event_slots_per_sec\": {:.0}, \"tracker_bytes\": {}, \
         \"tracker_lanes\": {}, \"tracked_packets\": {}, \
         \"bytes_per_tracked_packet\": {:.2}}}",
        c.nodes,
        c.sim_slots,
        c.event_slots_per_sec,
        c.footprint.bytes,
        c.footprint.lanes,
        c.footprint.tracked,
        c.footprint.bytes_per_tracked()
    ));
    out.push_str("\n}\n");
    out
}

/// A walking tour across the 120-node grid: every 30 s one corner node
/// relocates to the far side (out of its old neighborhood entirely),
/// exercising repeated audibility rebuilds + RPL reconvergence.
fn grid_walk() -> StepMobility {
    let mut m = StepMobility::new();
    // Grid is 12 × 10 at 30 m spacing; node 119 is the far corner.
    let spots = [
        Position::new(0.0, 300.0),
        Position::new(330.0, 0.0),
        Position::new(150.0, 135.0),
        Position::new(0.0, 0.0),
    ];
    for (k, &to) in spots.iter().enumerate() {
        m = m.hop(
            SimDuration::from_secs(30 * (k as u64 + 1)),
            NodeId::new(119),
            to,
        );
    }
    m
}

/// One inter-cluster hop per simulated second across the whole window:
/// four courier leaves (the last node of clusters 0–3) cycle through the
/// ten cluster discs of `city(10, 100)`, moving a node between audibility
/// islands on every hop. Hops beyond the simulated window never fire,
/// so the same overlay serves `--quick` and full runs.
fn city_walk() -> StepMobility {
    let mut m = StepMobility::new();
    for s in 1..=300u64 {
        let courier = NodeId::new(((s % 4) * 100 + 99) as u16);
        // Visit cluster (s mod 10), landing 60 m into its disc (cluster
        // origins sit on a 4-wide grid at 1 km spacing).
        let cluster = s % 10;
        let to = Position::new(
            (cluster % 4) as f64 * 1_000.0 + 60.0,
            (cluster / 4) as f64 * 1_000.0 + 60.0,
        );
        m = m.hop(SimDuration::from_secs(s), courier, to);
    }
    m
}

const USAGE: &str = "usage: bench_engine [--quick] [--out PATH] [--only SUBSTR] [--stats] [--help]";

/// Prints `message` + usage to stderr and exits with status 2.
fn bad_usage(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    exit(2);
}

/// The parsed command line.
struct Args {
    quick: bool,
    out_path: String,
    only: Option<String>,
    stats: bool,
}

/// Strictly parses argv (see the module docs for the flags).
fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        quick: false,
        out_path: "BENCH_engine.json".to_string(),
        only: None,
        stats: false,
    };
    let mut i = 0;
    while i < argv.len() {
        // A flag value may not itself look like a flag: `--out --quick`
        // is a forgotten value, not a file named --quick.
        let value_of = |i: &mut usize, flag: &str| -> String {
            *i += 1;
            match argv.get(*i) {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => bad_usage(&format!("{flag} needs a value")),
            }
        };
        match argv[i].as_str() {
            "--quick" => args.quick = true,
            "--stats" => args.stats = true,
            "--out" => args.out_path = value_of(&mut i, "--out"),
            "--only" => args.only = Some(value_of(&mut i, "--only")),
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => bad_usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    args
}

fn main() {
    let Args {
        quick,
        out_path,
        only,
        stats,
    } = parse_args();

    let sim_secs = if quick { 60 } else { 300 };
    let sim = SimDuration::from_secs(sim_secs);
    let cases = [
        // The acceptance case: 120-node grid in the steady-state
        // low-power regime (EB 16 s as deployed TSCH networks run it,
        // one telemetry reading per minute).
        Case {
            label: "large-grid-120",
            experiment: case(
                ScenarioSpec::large_grid(),
                SchedulerKind::gt_tsch_default(),
                1.0,
                true,
            ),
        },
        // The same grid at the paper's experiment cadences (EB every
        // 2 s): an order of magnitude chattier, reported honestly as the
        // regime where slot skipping wins less.
        Case {
            label: "large-grid-120",
            experiment: case(
                ScenarioSpec::large_grid(),
                SchedulerKind::gt_tsch_default(),
                6.0,
                false,
            ),
        },
        Case {
            label: "large-grid-120",
            experiment: case(
                ScenarioSpec::large_grid(),
                SchedulerKind::orchestra_default(),
                6.0,
                false,
            ),
        },
        // The multi-slotframe acceptance case: 120 Orchestra nodes in a
        // single-hop star. Every node's three-frame schedule listens in
        // ~1 slot in 5, almost always to silence — the Rx-wake-bound
        // regime the cyclic-union passive-listen index targets.
        Case {
            label: "large-star-120",
            experiment: case(
                ScenarioSpec::large_star(),
                SchedulerKind::orchestra_default(),
                6.0,
                false,
            ),
        },
        // Same star in the steady-state low-power regime: sparse traffic
        // plus the deadline-driven control plane (no periodic RPL wake).
        Case {
            label: "large-star-120",
            experiment: case(
                ScenarioSpec::large_star(),
                SchedulerKind::orchestra_default(),
                1.0,
                true,
            ),
        },
        Case {
            label: "large-star-120",
            experiment: case(
                ScenarioSpec::large_star(),
                SchedulerKind::minimal(16),
                6.0,
                false,
            ),
        },
        // Dense broadcast-heavy slots: 119 minimal-schedule leaves all
        // listening on the shared cell, a handful of EB/control
        // transmitters per busy slot — the case the per-channel listener
        // index and the medium's single-transmitter fast path target.
        Case {
            label: "bcast-star-120",
            experiment: case(
                ScenarioSpec::large_star(),
                SchedulerKind::minimal(8),
                1.0,
                false,
            ),
        },
        Case {
            label: "two-dodag-7",
            experiment: case(
                ScenarioSpec::two_dodag(7),
                SchedulerKind::gt_tsch_default(),
                30.0,
                false,
            ),
        },
        // The city-scale row: 10 clustered DODAGs × 100 nodes in the
        // steady-state low-power regime.
        Case {
            label: "city-1k",
            experiment: case(
                ScenarioSpec::city(10, 100),
                SchedulerKind::gt_tsch_default(),
                1.0,
                true,
            ),
        },
        // Overlay rows (reporting-only, no gate — see module docs): the
        // sparse grid with a node walking across it every 30 s, and the
        // same grid under a tight duty budget checked every 10 s.
        Case {
            label: "mobility-grid-120",
            experiment: case(
                ScenarioSpec::large_grid(),
                SchedulerKind::gt_tsch_default(),
                6.0,
                false,
            )
            .with_overlay(Overlay::Mobility(grid_walk())),
        },
        // Mobility-heavy city row: couriers hop between clusters once
        // per simulated second, so this row prices incremental
        // `set_position` at 1 000 nodes. Wall-clock gated on retention vs the static city row:
        // before the spatial index every hop was an O(n²) adjacency
        // rebuild and this row could not hold the floor.
        Case {
            label: "city-1k-mobility",
            experiment: case(
                ScenarioSpec::city(10, 100),
                SchedulerKind::gt_tsch_default(),
                1.0,
                true,
            )
            .with_overlay(Overlay::Mobility(city_walk())),
        },
        Case {
            label: "duty-grid-120",
            experiment: case(
                ScenarioSpec::large_grid(),
                SchedulerKind::gt_tsch_default(),
                6.0,
                false,
            )
            .with_overlay(Overlay::DutyCycle(DutyCycleBudget {
                window: SimDuration::from_secs(60),
                check: SimDuration::from_secs(10),
                max_duty_percent: 1.0,
            })),
        },
    ];

    eprintln!("bench_engine: {sim_secs} s simulated per core per scenario…");
    let measurements: Vec<Measurement> = cases
        .iter()
        .filter(|case| match &only {
            None => true,
            Some(filter) => format!(
                "{}/{}/{}",
                case.label,
                case.experiment.scheduler.name(),
                case.experiment.run.traffic_ppm
            )
            .contains(filter.as_str()),
        })
        .map(|case| {
            let m = measure(case, sim, stats);
            eprintln!(
                "  {:<17} {:<10} {:>4} nodes  event {:>9.0} slots/s  naive {:>9.0} slots/s  speedup {:>5.2}x",
                m.name,
                m.scheduler,
                m.nodes,
                m.event_slots_per_sec,
                m.naive_slots_per_sec,
                m.speedup,
            );
            m
        })
        .collect();

    if only.is_some() {
        // Profiling mode: no JSON, no gates.
        return;
    }

    let headline = &measurements[0];
    println!(
        "sparse 120-node grid speedup: {:.2}x (target >= 5x)",
        headline.speedup
    );
    // The multi-slotframe acceptance row is the *Rx-wake-bound* star:
    // sparse low-power traffic, where Orchestra's listen slots vastly
    // outnumber audible transmissions. The always-wake core managed only
    // ~1.05x on Orchestra runs, so 1.6x here certifies a >1.5x further
    // gain. The chatty 6-ppm star (~1.8 transmissions per slot,
    // activity-bound) gates at 1.8x below, the output-sensitive
    // resolution acceptance threshold.
    let orchestra_star = measurements
        .iter()
        .find(|m| m.scheduler == "orchestra" && m.name == "large-star-120" && m.low_power)
        .expect("orchestra low-power star case must be in the matrix");
    println!(
        "orchestra 120-node low-power star speedup: {:.2}x (target >= 1.6x; \
         the always-wake core measured ~1.05x on orchestra runs)",
        orchestra_star.speedup
    );
    // The activity-bound row the output-sensitive slot resolution
    // targets: ~1.8 transmissions/slot kept the pre-grouping engine at
    // ~1.4x; per-channel resolution, zero-alloc slot buffers and
    // closed-form backoff settling lift it past 1.8x.
    let chatty_star = measurements
        .iter()
        .find(|m| m.scheduler == "orchestra" && m.name == "large-star-120" && !m.low_power)
        .expect("orchestra chatty star case must be in the matrix");
    println!(
        "orchestra 120-node chatty star speedup: {:.2}x (target >= 1.8x; \
         was activity-bound at ~1.4x before output-sensitive resolution)",
        chatty_star.speedup
    );
    // The dense broadcast-heavy row: many common-cell listeners, few
    // transmitters — the per-channel listener index's home turf.
    let bcast_star = measurements
        .iter()
        .find(|m| m.name == "bcast-star-120")
        .expect("broadcast-heavy star case must be in the matrix");
    println!(
        "broadcast-heavy 120-node star speedup: {:.2}x (target >= 2.5x)",
        bcast_star.speedup
    );
    // The city mobility row gates on wall-clock retention vs the static
    // city row: the claim under test is that a hop costs O(k log k)
    // bucket-local work, so 300 inter-cluster hops across a 1 000-node
    // city must not meaningfully slow the event core down.
    let city_static = measurements
        .iter()
        .find(|m| m.name == "city-1k")
        .expect("static city case must be in the matrix");
    let city_mob = measurements
        .iter()
        .find(|m| m.name == "city-1k-mobility")
        .expect("city mobility case must be in the matrix");
    let retention = city_mob.event_slots_per_sec / city_static.event_slots_per_sec;
    println!(
        "city-1k mobility retention: {retention:.2} of the static rate \
         ({:.0} vs {:.0} slots/s, floor >= {CITY_MOBILITY_RETENTION})",
        city_mob.event_slots_per_sec, city_static.event_slots_per_sec
    );

    // The city-10k metrics row: its window is fixed, so it runs (and
    // gates memory) under --quick too.
    eprintln!("bench_engine: city-10k metrics row ({CITY_10K_SIM_SECS} s, event core)…");
    let city_10k = city_10k_row();
    eprintln!(
        "  {:<17} {:<10} {:>4} nodes  event {:>9.0} slots/s  ({} lanes)",
        "city-10k",
        "gt-tsch",
        city_10k.nodes,
        city_10k.event_slots_per_sec,
        city_10k.footprint.lanes
    );
    let fp = &city_10k.footprint;
    println!(
        "city-10k tracker: {} B over {} packets ({:.2} B/packet; budget <= \
         {CITY_10K_BYTES_PER_PACKET} B/packet and <= {CITY_10K_TOTAL_BYTES} B)",
        fp.bytes,
        fp.tracked,
        fp.bytes_per_tracked()
    );

    let body = json(&measurements, sim_secs, &city_10k);
    if let Err(e) = std::fs::write(&out_path, body) {
        eprintln!("error: cannot write {out_path}: {e}");
        exit(2);
    }
    eprintln!("wrote {out_path}");

    let mut failed = false;
    if headline.speedup < 5.0 {
        eprintln!("WARNING: sparse-grid speedup below the 5x target");
        failed = true;
    }
    if orchestra_star.speedup < 1.6 {
        eprintln!("WARNING: orchestra-star speedup below the 1.6x target");
        failed = true;
    }
    if chatty_star.speedup < 1.8 {
        eprintln!("WARNING: chatty orchestra-star speedup below the 1.8x target");
        failed = true;
    }
    if bcast_star.speedup < 2.5 {
        eprintln!("WARNING: broadcast-heavy star speedup below the 2.5x target");
        failed = true;
    }
    if retention < CITY_MOBILITY_RETENTION {
        eprintln!("WARNING: city mobility retention below the {CITY_MOBILITY_RETENTION} floor");
        failed = true;
    }
    // Only full runs gate on wall-clock ratios: --quick (60 s sim, used
    // by the CI smoke job) is there for the wall-clock budget, and a
    // short window on a noisy shared runner is no basis for failing the
    // pipeline.
    let mut memory_failed = false;
    if fp.bytes_per_tracked() > CITY_10K_BYTES_PER_PACKET {
        eprintln!(
            "GATE FAIL: city-10k tracker footprint {:.2} B/packet above the \
             {CITY_10K_BYTES_PER_PACKET} B budget",
            fp.bytes_per_tracked()
        );
        memory_failed = true;
    }
    if fp.bytes > CITY_10K_TOTAL_BYTES {
        eprintln!(
            "GATE FAIL: city-10k tracker footprint {} B above the {CITY_10K_TOTAL_BYTES} B budget",
            fp.bytes
        );
        memory_failed = true;
    }
    if memory_failed || (failed && !quick) {
        exit(1);
    }
}
