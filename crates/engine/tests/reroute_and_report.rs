//! Engine behaviours beyond the happy path: queued-data rerouting on
//! parent switches, report contents, and control-plane hygiene.

use gtt_engine::{EngineConfig, MinimalSchedule, Network};
use gtt_net::{Dest, LinkModel, NodeId, Position, TopologyBuilder};
use gtt_sim::SimDuration;

/// Diamond topology: leaf n3 can reach the root n0 via n1 or n2.
fn diamond_net(seed: u64, ppm: f64) -> Network {
    let topo = TopologyBuilder::new(40.0)
        .link_model(LinkModel::Perfect)
        .node(Position::new(0.0, 0.0))
        .node(Position::new(30.0, 18.0))
        .node(Position::new(30.0, -18.0))
        .node(Position::new(60.0, 0.0))
        .build();
    Network::builder(
        topo,
        EngineConfig {
            seed,
            ..EngineConfig::default()
        },
    )
    .root(NodeId::new(0))
    .traffic_ppm(ppm)
    .scheduler_factory(|_, _| Box::new(MinimalSchedule::new(8)))
    .build()
}

#[test]
fn queued_data_is_rerouted_on_parent_switch() {
    let mut net = diamond_net(5, 30.0);
    net.run_for(SimDuration::from_secs(90));
    let leaf = NodeId::new(3);
    let first_parent = net.node(leaf).rpl.parent().expect("joined");

    // Degrade the current uplink hard; RPL should eventually switch and
    // any queued frames must be re-addressed (not stranded).
    net.set_link_prr_symmetric(leaf, first_parent, 0.05);
    net.run_for(SimDuration::from_secs(400));

    let new_parent = net.node(leaf).rpl.parent().expect("still joined");
    assert_ne!(new_parent, first_parent, "must switch away from a 5% link");
    // No queued frame still addresses the old parent.
    let stranded = net
        .node(leaf)
        .mac
        .drain_count_to(Dest::Unicast(first_parent));
    assert_eq!(stranded, 0, "frames to the old parent must be re-addressed");
    assert!(net.node(leaf).rpl.parent_changes() >= 2);
}

#[test]
fn report_contains_every_node_once() {
    let mut net = diamond_net(7, 20.0);
    net.run_for(SimDuration::from_secs(40));
    net.start_measurement();
    net.run_for(SimDuration::from_secs(60));
    net.finish_measurement();
    let report = net.report();
    assert_eq!(report.per_node.len(), 4);
    let mut ids: Vec<u16> = report.per_node.iter().map(|n| n.id.raw()).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2, 3]);
    assert!(report.per_node[0].is_root);
    // Display formatting smoke check.
    let text = report.to_string();
    assert!(text.contains("minimal"), "{text}");
    assert!(text.contains("PDR%"), "{text}");
}

#[test]
fn slot_counters_add_up() {
    // Every slot a node is alive it either transmits, listens (busy or
    // idle) or sleeps — the counters partition the slot count.
    let mut net = diamond_net(9, 30.0);
    net.run_for(SimDuration::from_secs(120));
    for node in net.nodes() {
        let c = node.mac.counters();
        assert_eq!(
            c.slots,
            c.tx_slots + c.rx_busy_slots + c.rx_idle_slots + c.sleep_slots,
            "{}: slot counters must partition",
            node.id()
        );
    }
}

#[test]
fn unicast_accounting_is_consistent() {
    let mut net = diamond_net(11, 60.0);
    net.run_for(SimDuration::from_secs(180));
    for node in net.nodes() {
        let c = node.mac.counters();
        assert!(
            c.unicast_acked <= c.unicast_tx,
            "{}: acks cannot exceed attempts",
            node.id()
        );
        for (_, etx) in node.mac.link_stats() {
            assert!(etx.value() >= 1.0);
        }
    }
}

#[test]
fn measurement_window_isolates_rates() {
    // Rates are normalized to the measured window, not the whole run:
    // doubling the warm-up must not change received_per_min materially.
    let run = |warmup: u64| {
        let mut net = diamond_net(13, 60.0);
        net.run_for(SimDuration::from_secs(warmup));
        net.start_measurement();
        net.run_for(SimDuration::from_secs(120));
        net.finish_measurement();
        net.report().row.received_per_min
    };
    let short = run(60);
    let long = run(180);
    let rel = (short - long).abs() / short.max(long);
    assert!(
        rel < 0.15,
        "warm-up length leaked into rates: {short:.1} vs {long:.1}"
    );
}

#[test]
fn warmup_traffic_is_not_tracked() {
    // `start_measurement` opens the window with a fresh tracker: warm-up
    // packets never count, and once `finish_measurement` closes the
    // window, new packets do not count either.
    let mut net = diamond_net(13, 60.0);
    net.run_for(SimDuration::from_secs(60));
    let generated = |net: &Network| net.nodes().iter().map(|n| n.generated_total()).sum::<u64>();
    let warmup = generated(&net);
    assert!(warmup > 0, "warm-up generates traffic");
    net.start_measurement();
    assert_eq!(net.tracker().generated(), 0);
    net.run_for(SimDuration::from_secs(60));
    net.finish_measurement();
    let in_window = generated(&net) - warmup;
    assert!(in_window > 0);
    assert_eq!(net.report().generated, in_window);
    net.run_for(SimDuration::from_secs(30));
    assert!(generated(&net) > warmup + in_window);
    assert_eq!(net.tracker().generated(), in_window);
}

#[test]
#[should_panic(expected = "report requires start_measurement()")]
fn report_without_measurement_panics() {
    // The per-minute rates need the measurement window.
    let mut net = diamond_net(3, 30.0);
    net.run_for(SimDuration::from_secs(5));
    let _ = net.report();
}

#[test]
#[should_panic(expected = "measurement window is empty")]
fn empty_measurement_window_rejected() {
    let mut net = diamond_net(3, 30.0);
    net.start_measurement();
    net.finish_measurement();
    let _ = net.report();
}
