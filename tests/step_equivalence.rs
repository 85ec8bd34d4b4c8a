//! Event-driven core vs naive-step oracle equivalence.
//!
//! The engine's slot-skipping refactor is only sound if it is
//! *observationally identical* to the exhaustive per-slot loop it
//! replaced: same seed in, byte-identical [`NetworkReport`] out — PDR,
//! delay, queue loss, duty cycle, per-node MAC counters, parents, ranks,
//! final clock. These tests pin that across every workload scenario
//! family — including every [`Overlay`] kind, whose timeline driver
//! performs the identical mutation sequence on both cores — and the
//! 120-node sparse-traffic grid the refactor was built to unlock.
//!
//! The oracle is [`gtt_engine::NetworkBuilder::naive_stepping`]. Every
//! leg also checks that each core's report is internally consistent:
//! per-node counts sum to the network totals, and every delivery has
//! exactly one delay sample.

use gtt_engine::{Network, NetworkReport};
use gtt_net::{NodeId, Position};
use gtt_sim::SimDuration;
use gtt_workload::{
    DutyCycleBudget, Experiment, NoiseBurst, Overlay, RunSpec, ScenarioSpec, SchedulerKind,
    StepMobility,
};

/// Builds the experiment's network, optionally on the oracle loop.
fn build(experiment: &Experiment, naive: bool) -> Network {
    let mut builder = experiment.network_builder();
    if naive {
        builder = builder.naive_stepping();
    }
    builder.build()
}

/// Conservation within one report: the per-node `generated` and
/// `delivered` columns sum to the network totals, each delivery carries
/// exactly one delay sample, and nothing is delivered that was not
/// generated.
fn assert_consistent(report: &NetworkReport, core: &str, experiment: &Experiment) {
    let what = format!(
        "{} / {} / seed {} ({core})",
        experiment.scenario.name(),
        experiment.scheduler.name(),
        experiment.run.seed
    );
    let generated: u64 = report.per_node.iter().map(|n| n.generated).sum();
    let delivered: u64 = report.per_node.iter().map(|n| n.delivered).sum();
    assert_eq!(generated, report.generated, "{what}: per-node generated");
    assert_eq!(delivered, report.delivered, "{what}: per-node delivered");
    assert_eq!(
        report.delay.count(),
        report.delivered,
        "{what}: delay samples vs deliveries"
    );
    assert!(
        report.delivered <= report.generated,
        "{what}: delivered more than generated"
    );
}

/// The property: both cores produce identical, consistent reports (and
/// clocks) for the same experiment — warm-up, overlay timeline and
/// measurement all run through [`Experiment::run_on`].
fn assert_equivalent(experiment: &Experiment) {
    let mut reports: Vec<(NetworkReport, gtt_mac::Asn)> = Vec::new();
    for naive in [false, true] {
        let mut net = build(experiment, naive);
        let report = experiment.run_on(&mut net);
        assert_consistent(&report, if naive { "oracle" } else { "event" }, experiment);
        reports.push((report, net.asn()));
    }
    assert_eq!(
        reports[0].0,
        reports[1].0,
        "{} / {} / seed {}: event-driven and oracle reports diverge",
        experiment.scenario.name(),
        experiment.scheduler.name(),
        experiment.run.seed
    );
    assert_eq!(
        reports[0].1,
        reports[1].1,
        "{} / {}: final clocks diverge",
        experiment.scenario.name(),
        experiment.scheduler.name()
    );
}

fn spec(seed: u64) -> RunSpec {
    RunSpec {
        traffic_ppm: 30.0,
        warmup_secs: 30,
        measure_secs: 60,
        seed,
        ..RunSpec::default()
    }
}

fn experiment(scenario: ScenarioSpec, scheduler: SchedulerKind, seed: u64) -> Experiment {
    Experiment::new(scenario, scheduler).with_run(spec(seed))
}

#[test]
fn star_minimal_equivalent_across_seeds() {
    for seed in [1, 2, 3, 5, 8, 13] {
        assert_equivalent(&experiment(
            ScenarioSpec::star(6),
            SchedulerKind::minimal(8),
            seed,
        ));
    }
}

#[test]
fn star_gt_tsch_equivalent_across_seeds() {
    for seed in [1, 4, 9] {
        assert_equivalent(&experiment(
            ScenarioSpec::star(6),
            SchedulerKind::gt_tsch_default(),
            seed,
        ));
    }
}

#[test]
fn two_dodag_gt_tsch_equivalent() {
    for seed in [1, 2] {
        assert_equivalent(&experiment(
            ScenarioSpec::two_dodag(7),
            SchedulerKind::gt_tsch_default(),
            seed,
        ));
    }
}

#[test]
fn two_dodag_orchestra_equivalent() {
    for seed in [1, 2] {
        assert_equivalent(&experiment(
            ScenarioSpec::two_dodag(6),
            SchedulerKind::orchestra_default(),
            seed,
        ));
    }
}

#[test]
fn large_grid_low_power_equivalent() {
    // The benches' acceptance case: the 120-node grid under the
    // steady-state low-power cadences (RunSpec::low_power) and
    // 1 packet/min telemetry.
    let exp = Experiment::new(ScenarioSpec::large_grid(), SchedulerKind::gt_tsch_default())
        .with_run(RunSpec {
            traffic_ppm: 1.0,
            warmup_secs: 20,
            measure_secs: 25,
            seed: 7,
            low_power: true,
        });
    assert_equivalent(&exp);
}

#[test]
fn large_grid_gt_tsch_equivalent() {
    // The 120-node sparse-traffic scenario the event core was built for.
    // Short window: the oracle leg is O(nodes × slots).
    let exp = Experiment::new(ScenarioSpec::large_grid(), SchedulerKind::gt_tsch_default())
        .with_run(RunSpec {
            traffic_ppm: 6.0,
            warmup_secs: 20,
            measure_secs: 20,
            seed: 1,
            ..RunSpec::default()
        });
    assert_equivalent(&exp);
}

#[test]
fn large_star_minimal_equivalent() {
    let exp =
        Experiment::new(ScenarioSpec::large_star(), SchedulerKind::minimal(16)).with_run(RunSpec {
            traffic_ppm: 6.0,
            warmup_secs: 10,
            measure_secs: 15,
            seed: 3,
            ..RunSpec::default()
        });
    assert_equivalent(&exp);
}

#[test]
fn large_grid_orchestra_equivalent() {
    // The Rx-wake-bound case the multi-slotframe passive-listen index
    // targets: 120 Orchestra nodes whose three-frame schedules listen in
    // roughly one slot in five, almost always to silence.
    let exp = Experiment::new(
        ScenarioSpec::large_grid(),
        SchedulerKind::orchestra_default(),
    )
    .with_run(RunSpec {
        traffic_ppm: 6.0,
        warmup_secs: 20,
        measure_secs: 20,
        seed: 2,
        ..RunSpec::default()
    });
    assert_equivalent(&exp);
}

#[test]
fn large_star_orchestra_equivalent() {
    // Dense single-hop counterpart: every transmission is audible to all
    // 120 nodes, so the listener probe and the cyclic-union index carry
    // the whole load.
    let exp = Experiment::new(
        ScenarioSpec::large_star(),
        SchedulerKind::orchestra_default(),
    )
    .with_run(RunSpec {
        traffic_ppm: 6.0,
        warmup_secs: 10,
        measure_secs: 15,
        seed: 5,
        ..RunSpec::default()
    });
    assert_equivalent(&exp);
}

#[test]
fn interference_bursts_stay_equivalent() {
    // Interference on the 120-node grid: the noise overlay rewrites
    // every link PRR twice per window; both cores must absorb the
    // repeated mid-run mutations identically, at scale.
    let exp = Experiment::new(ScenarioSpec::large_grid(), SchedulerKind::gt_tsch_default())
        .with_run(RunSpec {
            traffic_ppm: 6.0,
            warmup_secs: 10,
            measure_secs: 12,
            seed: 17,
            ..RunSpec::default()
        })
        .with_overlay(Overlay::Noise(NoiseBurst {
            quiet: SimDuration::from_secs(3),
            burst: SimDuration::from_secs(2),
            prr_factor: 0.1,
        }));
    assert_equivalent(&exp);
}

#[test]
fn mobility_overlay_stays_equivalent() {
    // Step mobility on the Fig. 8 network: one leaf walks out of its
    // DODAG entirely, then into the *other* DODAG's radio space, then
    // home — audibility adjacency and every touched PRR are rewritten
    // three times mid-measurement, and the relocated node must be
    // picked up by probe-woken listens identically on both cores.
    let exp = experiment(
        ScenarioSpec::two_dodag(6),
        SchedulerKind::gt_tsch_default(),
        21,
    )
    .with_overlay(Overlay::Mobility(
        StepMobility::new()
            .hop(
                SimDuration::from_secs(10),
                NodeId::new(5),
                Position::new(500.0, 200.0),
            )
            .hop(
                SimDuration::from_secs(25),
                NodeId::new(5),
                Position::new(1_000.0 - 25.0, 10.0),
            )
            .hop(
                SimDuration::from_secs(45),
                NodeId::new(5),
                Position::new(25.0, 10.0),
            ),
    ));
    assert_equivalent(&exp);
}

#[test]
fn mobility_overlay_at_scale_stays_equivalent() {
    // The 120-node grid with a corner node leaping across it: a large
    // audibility rebuild while 119 passive listeners keep their
    // schedules — the case where a stale audibility cache would
    // instantly desynchronize the cores.
    let exp = Experiment::new(
        ScenarioSpec::large_grid(),
        SchedulerKind::orchestra_default(),
    )
    .with_run(RunSpec {
        traffic_ppm: 6.0,
        warmup_secs: 10,
        measure_secs: 15,
        seed: 23,
        ..RunSpec::default()
    })
    .with_overlay(Overlay::Mobility(
        StepMobility::new()
            .hop(
                SimDuration::from_secs(5),
                NodeId::new(119),
                Position::new(0.0, 15.0),
            )
            .hop(
                SimDuration::from_secs(10),
                NodeId::new(119),
                Position::new(330.0, 270.0),
            ),
    ));
    assert_equivalent(&exp);
}

#[test]
fn duty_cycle_overlay_stays_equivalent() {
    // A tight radio-on budget that actually bites (minimal schedules
    // idle-listen constantly): throttle decisions are made from lazily
    // settled counters every 2 s, so any accounting drift between the
    // cores becomes a diverging throttle set and a diverging report.
    let exp = experiment(ScenarioSpec::star(6), SchedulerKind::minimal(8), 29).with_overlay(
        Overlay::DutyCycle(DutyCycleBudget {
            window: SimDuration::from_secs(20),
            check: SimDuration::from_secs(2),
            max_duty_percent: 2.0,
        }),
    );
    assert_equivalent(&exp);
}

#[test]
fn composed_overlays_stay_equivalent() {
    // All three overlay kinds on one run: noise bursts over a walking
    // node under a duty budget. Exercises same-instant event ordering
    // (declaration order) and noise's re-read of the audible-link set
    // after a move.
    let exp = experiment(ScenarioSpec::star(6), SchedulerKind::minimal(8), 31)
        .with_overlay(Overlay::Noise(NoiseBurst {
            quiet: SimDuration::from_secs(4),
            burst: SimDuration::from_secs(2),
            prr_factor: 0.3,
        }))
        .with_overlay(Overlay::Mobility(
            StepMobility::new()
                .hop(
                    SimDuration::from_secs(12),
                    NodeId::new(2),
                    Position::new(300.0, 0.0),
                )
                .hop(
                    SimDuration::from_secs(36),
                    NodeId::new(2),
                    Position::new(0.0, 25.0),
                ),
        ))
        .with_overlay(Overlay::DutyCycle(DutyCycleBudget {
            window: SimDuration::from_secs(15),
            check: SimDuration::from_secs(3),
            max_duty_percent: 5.0,
        }));
    assert_equivalent(&exp);
}

#[test]
fn city_reduced_equivalent() {
    // A reduced city (3 clustered DODAGs × 12 nodes): the multi-island
    // phyllotaxis layout the spatial index was built for, shrunk so the
    // O(nodes × slots) oracle leg stays affordable. Pins the grid-backed
    // adjacency against the exhaustive loop end to end.
    let exp = Experiment::new(ScenarioSpec::city(3, 12), SchedulerKind::gt_tsch_default())
        .with_run(RunSpec {
            traffic_ppm: 6.0,
            warmup_secs: 20,
            measure_secs: 20,
            seed: 3,
            ..RunSpec::default()
        });
    assert_equivalent(&exp);
}

#[test]
fn city_mobility_island_churn_equivalent() {
    // City mobility: a leaf of cluster 0 walks to open ground (its own
    // fourth island), into cluster 1's radio space (3 islands with
    // changed membership), then home (back to the original partition).
    // A packet the leaf left queued at its old parent may be delivered
    // after the leaf has moved away; it still counts for the leaf.
    // Cluster origins for `city(3, _)` sit at (0,0), (1000,0) and
    // (0,1000).
    let exp = Experiment::new(ScenarioSpec::city(3, 12), SchedulerKind::gt_tsch_default())
        .with_run(RunSpec {
            traffic_ppm: 6.0,
            warmup_secs: 15,
            measure_secs: 30,
            seed: 27,
            ..RunSpec::default()
        })
        .with_overlay(Overlay::Mobility(
            StepMobility::new()
                .hop(
                    SimDuration::from_secs(10),
                    NodeId::new(11),
                    Position::new(500.0, 500.0),
                )
                .hop(
                    SimDuration::from_secs(25),
                    NodeId::new(11),
                    Position::new(1_010.0, 10.0),
                )
                .hop(
                    SimDuration::from_secs(40),
                    NodeId::new(11),
                    Position::new(20.0, 5.0),
                ),
        ));
    assert_equivalent(&exp);
}

#[test]
fn mid_run_fault_injection_stays_equivalent() {
    // kill_node + PRR override exercise the lazy-accounting freeze path.
    let exp = experiment(ScenarioSpec::star(6), SchedulerKind::minimal(8), 11);
    let mut reports = Vec::new();
    for naive in [false, true] {
        let mut net = build(&exp, naive);
        net.run_for(SimDuration::from_secs(20));
        net.kill_node(NodeId::new(4));
        net.set_link_prr_symmetric(NodeId::new(0), NodeId::new(2), 0.5);
        let report = exp.run_on(&mut net);
        assert_consistent(&report, if naive { "oracle" } else { "event" }, &exp);
        reports.push((report, net.asn()));
    }
    assert_eq!(reports[0], reports[1], "fault-injected runs diverge");
}
