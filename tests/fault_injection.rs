//! Robustness under faults: node death, link degradation, and the
//! adaptive reactions the paper's design promises (ETX cost in the game,
//! RPL parent switching, 6P re-negotiation).

use gtt_net::{LinkModel, NodeId, Position, TopologyBuilder};
use gtt_sim::SimDuration;
use gtt_workload::{Experiment, RunSpec, Scenario, ScenarioSpec, SchedulerKind};

/// A diamond: root n0; two relays n1/n2 both in range of the root; leaf
/// n3 in range of both relays but not the root. Traffic n3 → n0 can take
/// either relay. A hand-built topology — carried as a `Custom` spec.
fn diamond() -> ScenarioSpec {
    let topology = TopologyBuilder::new(40.0)
        .link_model(LinkModel::Perfect)
        .node(Position::new(0.0, 0.0)) // n0 root
        .node(Position::new(30.0, 18.0)) // n1 relay
        .node(Position::new(30.0, -18.0)) // n2 relay
        .node(Position::new(60.0, 0.0)) // n3 leaf
        .build();
    assert!(topology.is_connected());
    ScenarioSpec::custom(Scenario {
        name: "diamond".into(),
        topology,
        roots: vec![NodeId::new(0)],
    })
}

/// Builds the scenario's network through the one experiment seam.
fn network(scenario: ScenarioSpec, spec: RunSpec) -> gtt_engine::Network {
    Experiment::new(scenario, SchedulerKind::gt_tsch_default())
        .with_run(spec)
        .build_network()
}

#[test]
fn leaf_survives_relay_death_via_parent_switch() {
    let spec = RunSpec {
        traffic_ppm: 30.0,
        warmup_secs: 120,
        measure_secs: 180,
        seed: 2,
        ..RunSpec::default()
    };
    let mut net = network(diamond(), spec);
    net.run_for(SimDuration::from_secs(spec.warmup_secs));
    assert_eq!(net.join_ratio(), 1.0);

    let leaf = NodeId::new(3);
    let relay = net.node(leaf).rpl.parent().expect("leaf joined");
    assert!(relay == NodeId::new(1) || relay == NodeId::new(2));
    let other = if relay == NodeId::new(1) {
        NodeId::new(2)
    } else {
        NodeId::new(1)
    };

    // Kill the relay mid-run; give RPL time to expire it and fail over.
    net.kill_node(relay);
    net.run_for(SimDuration::from_secs(650)); // > neighbor_timeout (600 s)

    assert_eq!(
        net.node(leaf).rpl.parent(),
        Some(other),
        "leaf must fail over to the surviving relay"
    );

    // Data still flows end to end after the failover.
    net.start_measurement();
    net.run_for(SimDuration::from_secs(spec.measure_secs));
    net.finish_measurement();
    let report = net.report();
    assert!(
        report.row.pdr_percent > 90.0,
        "post-failover PDR: {:.1}%",
        report.row.pdr_percent
    );
}

#[test]
fn dead_nodes_stay_silent() {
    let spec = RunSpec {
        traffic_ppm: 30.0,
        warmup_secs: 60,
        measure_secs: 60,
        seed: 3,
        ..RunSpec::default()
    };
    let mut net = network(diamond(), spec);
    net.run_for(SimDuration::from_secs(30));
    let victim = NodeId::new(2);
    let before = net.node(victim).mac.counters();
    net.kill_node(victim);
    assert!(!net.node(victim).is_alive());
    net.run_for(SimDuration::from_secs(30));
    let after = net.node(victim).mac.counters();
    assert_eq!(before.slots, after.slots, "a dead node's MAC never runs");
}

#[test]
fn etx_rises_on_degraded_link_and_rank_follows() {
    // Degrade the leaf's uplink: the MAC's ETX estimate must climb, and
    // MRHOF must propagate it into the Rank (paper §VII-B inputs).
    let spec = RunSpec {
        traffic_ppm: 60.0,
        warmup_secs: 120,
        measure_secs: 60,
        seed: 4,
        ..RunSpec::default()
    };
    let mut net = network(ScenarioSpec::line(3, 30.0), spec);
    net.run_for(SimDuration::from_secs(spec.warmup_secs));
    let leaf = NodeId::new(2);
    let parent = net.node(leaf).rpl.parent().expect("joined");
    let etx_before = net.node(leaf).mac.etx(parent);
    let rank_before = net.node(leaf).rpl.rank();

    net.set_link_prr_symmetric(leaf, parent, 0.45);
    net.run_for(SimDuration::from_secs(240));

    let etx_after = net.node(leaf).mac.etx(parent);
    assert!(
        etx_after > etx_before + 0.5,
        "ETX must rise: {etx_before:.2} → {etx_after:.2}"
    );
    assert!(
        net.node(leaf).rpl.rank() > rank_before,
        "Rank must grow with the degraded link"
    );
}

#[test]
fn network_still_delivers_over_degraded_links() {
    // Retransmissions + the game's link cost keep the network alive at
    // PRR 0.6, at reduced efficiency.
    let spec = RunSpec {
        traffic_ppm: 30.0,
        warmup_secs: 150,
        measure_secs: 180,
        seed: 5,
        ..RunSpec::default()
    };
    let scenario =
        ScenarioSpec::custom(Scenario::two_dodag(6).with_link_model(LinkModel::Fixed(0.6)));
    let mut net = network(scenario, spec);
    net.run_for(SimDuration::from_secs(spec.warmup_secs));
    assert!(net.join_ratio() > 0.8, "formation over lossy links");
    net.start_measurement();
    net.run_for(SimDuration::from_secs(spec.measure_secs));
    net.finish_measurement();
    let report = net.report();
    assert!(
        report.row.pdr_percent > 60.0,
        "PDR over 0.6-PRR links: {:.1}%",
        report.row.pdr_percent
    );
}

#[test]
fn root_death_is_not_catastrophic_for_the_other_dodag() {
    // Two isolated DODAGs: killing one root must not affect the other's
    // delivery at all (cross-DODAG isolation, §VIII).
    let spec = RunSpec {
        traffic_ppm: 60.0,
        warmup_secs: 120,
        measure_secs: 120,
        seed: 6,
        ..RunSpec::default()
    };
    let mut net = network(ScenarioSpec::two_dodag(6), spec);
    net.run_for(SimDuration::from_secs(spec.warmup_secs));
    net.kill_node(NodeId::new(0)); // first DODAG's root dies
    net.start_measurement();
    net.run_for(SimDuration::from_secs(spec.measure_secs));
    net.finish_measurement();

    // Packets of DODAG B (origins n6..n11) still arrive.
    let dodag_b_delivered: u64 = net.report().per_node[6..12]
        .iter()
        .map(|n| n.delivered)
        .sum();
    assert!(
        dodag_b_delivered > 300,
        "DODAG B must keep delivering, got {dodag_b_delivered}"
    );
}
