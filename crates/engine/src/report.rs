//! Measurement reports.

use gtt_mac::MacCounters;
use gtt_metrics::{jain_index, DelayStats, FigureRow};
use gtt_net::NodeId;
use gtt_rpl::Rank;

use crate::network::Network;

/// Per-node diagnostics included in a [`NetworkReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSummary {
    /// The node.
    pub id: NodeId,
    /// Whether it is a DODAG root.
    pub is_root: bool,
    /// RPL parent at the end of the run.
    pub parent: Option<NodeId>,
    /// RPL Rank at the end of the run.
    pub rank: Rank,
    /// Radio duty cycle over the measurement window (0..=1).
    pub duty_cycle: f64,
    /// Queue losses during the window.
    pub queue_loss: u64,
    /// Packets dropped after exhausting retransmissions during the window.
    pub retry_drops: u64,
    /// Packets dropped for lack of a route during the window.
    pub routing_drops: u64,
    /// Collisions heard during the window.
    pub collisions_heard: u64,
    /// Total scheduled cells at the end of the run.
    pub scheduled_cells: usize,
    /// Application packets this node generated in the window.
    pub generated: u64,
    /// Of those, packets delivered to a DODAG root.
    pub delivered: u64,
    /// MAC counter deltas over the window.
    pub counters: MacCounters,
}

impl NodeSummary {
    /// This node's packet delivery ratio in percent (100 when it
    /// generated nothing, matching the network-wide convention).
    pub fn pdr_percent(&self) -> f64 {
        if self.generated == 0 {
            return 100.0;
        }
        100.0 * self.delivered as f64 / self.generated as f64
    }
}

/// The outcome of one measured run: the paper's six series plus per-node
/// diagnostics.
///
/// `PartialEq` compares every field (floats bit-for-bit via `==`): two
/// reports are equal only when the runs were behaviorally identical.
/// The `step_equivalence` tests rely on this to pin the event-driven
/// engine to the `naive-step` oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    /// Scheduler name (from the root node's scheduling function).
    pub scheduler: &'static str,
    /// The paper's six metrics.
    pub row: FigureRow,
    /// Packets generated in the window.
    pub generated: u64,
    /// Packets delivered to roots in the window.
    pub delivered: u64,
    /// Mean hop count of delivered packets.
    pub mean_hops: f64,
    /// Fraction of non-root nodes joined at the end.
    pub join_ratio: f64,
    /// Streaming end-to-end delay statistics (integer-nanosecond sums,
    /// min/max, fixed-bin histogram for percentiles) over delivered
    /// packets — integer accumulators, so identical under the event core
    /// and the naive-step oracle whatever order deliveries arrive in.
    pub delay: DelayStats,
    /// Per-node breakdown.
    pub per_node: Vec<NodeSummary>,
}

impl NetworkReport {
    /// Jain's fairness index over non-root delivered throughput —
    /// `(Σx)²/(n·Σx²)` in `[1/n, 1]`, 1.0 when all non-root nodes saw
    /// equal service (or nothing was delivered at all).
    pub fn fairness(&self) -> f64 {
        let delivered: Vec<f64> = self
            .per_node
            .iter()
            .filter(|n| !n.is_root)
            .map(|n| n.delivered as f64)
            .collect();
        jain_index(&delivered)
    }

    pub(crate) fn collect(net: &Network) -> NetworkReport {
        let start = net
            .measure_start
            .expect("report requires start_measurement()");
        let end = net
            .measure_end
            .expect("report requires finish_measurement()");
        assert!(end > start, "measurement window is empty");

        let mut per_node = Vec::with_capacity(net.nodes.len());
        let mut duty_sum = 0.0;
        let mut queue_loss_sum = 0.0;
        let mut non_roots = 0u32;

        let tracker = net.tracker();
        for (i, node) in net.nodes.iter().enumerate() {
            let snap = net.snapshots.get(i).copied().unwrap_or_default();
            let c = node.mac.counters();
            let d = MacCounters {
                slots: c.slots - snap.counters.slots,
                tx_slots: c.tx_slots - snap.counters.tx_slots,
                rx_busy_slots: c.rx_busy_slots - snap.counters.rx_busy_slots,
                rx_idle_slots: c.rx_idle_slots - snap.counters.rx_idle_slots,
                sleep_slots: c.sleep_slots - snap.counters.sleep_slots,
                unicast_tx: c.unicast_tx - snap.counters.unicast_tx,
                unicast_acked: c.unicast_acked - snap.counters.unicast_acked,
                broadcast_tx: c.broadcast_tx - snap.counters.broadcast_tx,
                drops_retry_exhausted: c.drops_retry_exhausted
                    - snap.counters.drops_retry_exhausted,
                collisions_heard: c.collisions_heard - snap.counters.collisions_heard,
                rx_accepted: c.rx_accepted - snap.counters.rx_accepted,
                rx_overheard: c.rx_overheard - snap.counters.rx_overheard,
            };
            let duty = d.duty_cycle();
            let queue_loss = node.mac.queue_loss() - snap.queue_loss;
            let is_root = node.rpl.is_root();

            duty_sum += duty;
            if !is_root {
                queue_loss_sum += queue_loss as f64;
                non_roots += 1;
            }

            let (origin_generated, origin_delivered) = tracker.origin_stats(node.id());
            per_node.push(NodeSummary {
                id: node.id(),
                is_root,
                parent: node.rpl.parent(),
                rank: node.rpl.rank(),
                duty_cycle: duty,
                queue_loss,
                retry_drops: d.drops_retry_exhausted,
                routing_drops: node.routing_drops - snap.routing_drops,
                collisions_heard: d.collisions_heard,
                scheduled_cells: node.mac.schedule().total_cells(),
                generated: origin_generated,
                delivered: origin_delivered,
                counters: d,
            });
        }

        let minutes = (end - start).as_secs_f64() / 60.0;
        let row = FigureRow {
            pdr_percent: tracker.pdr_percent(),
            delay_ms: tracker.mean_delay_ms(),
            loss_per_min: tracker.lost() as f64 / minutes,
            duty_cycle_percent: 100.0 * duty_sum / net.nodes.len().max(1) as f64,
            queue_loss: if non_roots == 0 {
                0.0
            } else {
                queue_loss_sum / non_roots as f64
            },
            received_per_min: tracker.delivered() as f64 / minutes,
        };

        NetworkReport {
            scheduler: net.nodes[0].scheduler.name(),
            row,
            generated: tracker.generated(),
            delivered: tracker.delivered(),
            mean_hops: tracker.mean_hops(),
            join_ratio: net.join_ratio(),
            delay: tracker.delay_stats().clone(),
            per_node,
        }
    }
}

impl std::fmt::Display for NetworkReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "[{}] generated={} delivered={} join={:.0}% fairness={:.3}",
            self.scheduler,
            self.generated,
            self.delivered,
            self.join_ratio * 100.0,
            self.fairness()
        )?;
        if self.delay.count() > 0 {
            writeln!(
                f,
                "delay p50/p95/p99 = {:.1}/{:.1}/{:.1} ms",
                self.delay.percentile_ms(50.0),
                self.delay.percentile_ms(95.0),
                self.delay.percentile_ms(99.0)
            )?;
        }
        writeln!(f, "{}", FigureRow::header())?;
        write!(f, "{}", self.row)
    }
}
