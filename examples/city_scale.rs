//! City-scale walkthrough: 1 000 nodes in 10 clustered DODAGs, a
//! courier node crossing between clusters mid-run, and the spatial
//! index that makes both cheap.
//!
//! ```text
//! cargo run --release -p gtt-examples --example city_scale
//! ```

use std::time::Instant;

use gtt_net::{NodeId, Position};
use gtt_sim::SimDuration;
use gtt_workload::{Experiment, Overlay, RunSpec, ScenarioSpec, SchedulerKind, StepMobility};

fn main() {
    // Ten phyllotaxis-packed sensor clusters, each its own DODAG with
    // its own border router, on a 1 km grid — far beyond radio range of
    // one another. The layout is a pure function of the two counts (no
    // RNG), so the scenario is reproducible like any other.
    let spec = ScenarioSpec::city(10, 100);
    let scenario = spec.build();
    println!(
        "scenario `{}`: {} nodes, {} DODAG roots",
        scenario.name,
        scenario.topology.len(),
        scenario.roots.len(),
    );

    // A courier leaf from cluster 0 drives into cluster 1's radio
    // space mid-measurement and back. Each hop changes which nodes hear
    // the courier; with the spatial index it costs bucket-local work,
    // not an O(n²) adjacency rebuild.
    let courier = NodeId::new(99);
    let exp = Experiment::new(spec, SchedulerKind::gt_tsch_default())
        .with_run(RunSpec {
            traffic_ppm: 1.0,
            warmup_secs: 300,
            measure_secs: 120,
            seed: 42,
            low_power: true,
        })
        .with_overlay(Overlay::Mobility(
            StepMobility::new()
                .hop(
                    SimDuration::from_secs(30),
                    courier,
                    Position::new(1_060.0, 60.0),
                )
                .hop(
                    SimDuration::from_secs(80),
                    courier,
                    Position::new(60.0, 60.0),
                ),
        ));

    let start = Instant::now();
    let report = exp.run();
    println!(
        "simulated {} s of city traffic in {:.2} s wall: join {:.0} %, \
         PDR {:.1} %, mean delay {:.0} ms, duty cycle {:.2} %",
        420,
        start.elapsed().as_secs_f64(),
        report.join_ratio * 100.0,
        report.row.pdr_percent,
        report.row.delay_ms,
        report.row.duty_cycle_percent,
    );
    // (Deep 100-node clusters at the low-power cadence are a stress
    // regime: everything joins, but multi-hop contention around each
    // root caps the deliverable rate well below 100 %.)

    // The incremental-mobility price tag, measured directly: hop the
    // courier between clusters a thousand times on the bare topology.
    let mut topo = exp.scenario.build().topology;
    let spots = [Position::new(1_060.0, 60.0), Position::new(60.0, 60.0)];
    let moves = 1_000;
    let start = Instant::now();
    for k in 0..moves {
        topo.set_position(courier, spots[k % spots.len()]);
    }
    println!(
        "incremental set_position over {} nodes: {:.1} µs/move",
        topo.len(),
        start.elapsed().as_secs_f64() * 1e6 / moves as f64,
    );
}
