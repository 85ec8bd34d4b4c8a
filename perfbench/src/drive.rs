//! The windowed loop: builds one cell's network, forms it, advances the
//! measured window one simulated second at a time (closed loop: a window
//! starts when the previous call returned), applies the hop script at
//! window starts, and reports. Only public API is called, and every call
//! is timed from outside.

use std::time::Duration;

use gtt_engine::{Network, NetworkReport, NodeSummary};
use gtt_net::NodeId;
use gtt_sim::{SimDuration, SimTime};

use crate::host::Host;
use crate::trace::Tracer;
use crate::workloads::Cell;

/// Simulated length of one measured window.
pub const WINDOW: SimDuration = SimDuration::from_secs(1);

/// Timings of one driven cell.
#[derive(Default)]
pub struct CellTimes {
    /// Setup through `report()`, host reference samples excluded.
    pub wall: Duration,
    /// Each measured window, hops at its start included.
    pub windows: Vec<Duration>,
    /// Simulated node-slots advanced by the measured windows.
    pub node_slots: u64,
}

/// Builds the cell's network: `ScenarioSpec::build`, then the same
/// wiring `Experiment::network_builder` does, then `NetworkBuilder::build`.
pub fn setup(cell: &Cell, tr: &mut Tracer) -> (Network, Duration) {
    let exp = &cell.experiment;
    let span = tr.begin("scenario.build", "");
    let scenario = exp.scenario.build();
    let mut setup = tr.end(span);
    let sched = exp.scheduler.clone();
    let builder = Network::builder(scenario.topology, exp.engine_config())
        .roots(scenario.roots)
        .traffic_ppm(exp.run.traffic_ppm)
        .scheduler_factory(move |id, is_root| sched.instantiate(id, is_root));
    let span = tr.begin("network.build", "");
    let net = builder.build();
    setup += tr.end(span);
    (net, setup)
}

/// Drives one cell from setup through `report()`, letting `host` take
/// its due samples between windows.
pub fn run(cell: &Cell, tr: &mut Tracer, host: &mut Host) -> (Network, NetworkReport, CellTimes) {
    let exp = &cell.experiment;
    let cell_span = tr.begin("cell", exp.scheduler.name());
    let (mut net, _) = setup(cell, tr);

    let span = tr.begin("run_until.formation", "");
    net.run_until(SimTime::ZERO + SimDuration::from_secs(exp.run.warmup_secs));
    tr.end(span);
    net.start_measurement();
    let start = net.now();
    let nodes = net.nodes().len() as u64;
    let mut times = CellTimes::default();
    let mut hops = cell.hops.iter().peekable();
    let mut paused = Duration::ZERO;
    for k in 0..exp.run.measure_secs {
        paused += host.sample_if_due();
        let window = tr.begin("window", "");
        while let Some(hop) = hops.next_if(|h| h.at_secs == k) {
            let span = tr.begin("move_node", "");
            net.move_node(hop.node, hop.to);
            tr.end(span);
        }
        let asn = net.asn().raw();
        let span = tr.begin("run_until.window", exp.scheduler.name());
        net.run_until(start + WINDOW * (k + 1));
        tr.end(span);
        times.node_slots += nodes * (net.asn().raw() - asn);
        times.windows.push(tr.end(window));
    }
    assert!(hops.next().is_none(), "hop script outlasts the window");
    net.finish_measurement();
    let span = tr.begin("report", "");
    let report = net.report();
    tr.end(span);
    times.wall = tr.end(cell_span) - paused;
    (net, report, times)
}

/// Times `move_node` on a network with no hop script of its own: node 1
/// (a leaf in every scenario used) moves 5 km away and back, after the
/// report, so the run's outcome is untouched.
pub fn probe_move(net: &mut Network, tr: &mut Tracer) {
    let node = NodeId::new(1);
    let home = net.topology().position(node);
    for to in [home.offset(5_000.0, 5_000.0), home] {
        let span = tr.begin("move_node.probe", "");
        net.move_node(node, to);
        tr.end(span);
    }
}

/// Reads the program's public counters after a run into counter records.
/// MAC counts are the report's measured-window deltas; the rest are
/// lifetime totals at the end of the run.
pub fn record_counts(net: &Network, report: &NetworkReport, moves: u64, tr: &mut Tracer) {
    let sum = |f: fn(&NodeSummary) -> u64| report.per_node.iter().map(f).sum::<u64>();
    let (mut live, mut span, mut ok, mut failed, mut versions, mut cells) = (0, 0, 0, 0, 0, 0);
    let (mut parent_changes, mut joined, mut non_roots) = (0, 0, 0);
    for node in net.nodes() {
        let ids: Vec<usize> = node.mac.link_stats().map(|(id, _)| id.index()).collect();
        live += ids.len() as u64;
        if let (Some(first), Some(last)) = (ids.first(), ids.last()) {
            span += (last - first + 1) as u64;
        }
        ok += node.sixtop.completed_transactions();
        failed += node.sixtop.failed_transactions();
        versions += node.mac.schedule().version();
        cells += node.mac.schedule().total_cells() as u64;
        parent_changes += node.rpl.parent_changes();
        if !node.rpl.is_root() {
            non_roots += 1;
            joined += u64::from(node.rpl.is_joined());
        }
    }
    let footprint = net.tracker().footprint();
    for (name, value) in [
        ("net.moves", moves),
        ("mac.node_slots", sum(|n| n.counters.slots)),
        ("mac.tx_slots", sum(|n| n.counters.tx_slots)),
        ("mac.rx_busy_slots", sum(|n| n.counters.rx_busy_slots)),
        ("mac.rx_idle_slots", sum(|n| n.counters.rx_idle_slots)),
        ("mac.unicast_tx", sum(|n| n.counters.unicast_tx)),
        ("mac.unicast_acked", sum(|n| n.counters.unicast_acked)),
        ("mac.retry_drops", sum(|n| n.retry_drops)),
        ("mac.queue_loss", sum(|n| n.queue_loss)),
        ("mac.collisions_heard", sum(|n| n.collisions_heard)),
        ("mac.link_stats_live", live),
        ("mac.link_stats_span", span),
        ("sixtop.tx_ok", ok),
        ("sixtop.tx_failed", failed),
        ("sched.mutations", versions),
        ("sched.cells", cells),
        ("rpl.parent_changes", parent_changes),
        ("rpl.joined", joined),
        ("rpl.non_roots", non_roots),
        ("metrics.tracker_bytes", footprint.bytes as u64),
        ("metrics.tracked_packets", footprint.tracked),
    ] {
        tr.count(name, value);
    }
}
