//! # gtt-orchestra — the Orchestra autonomous scheduler (baseline)
//!
//! Orchestra (Duquennoy et al., SenSys 2015) is the comparison baseline in
//! every figure of the GT-TSCH paper. It computes each node's schedule
//! *autonomously* from routing state — no negotiation, no signalling —
//! using hash functions over node addresses, with one slotframe per
//! traffic plane:
//!
//! * **EB slotframe** (sender-based): a node transmits its Enhanced
//!   Beacons in slot `hash(self) mod L_eb` and listens for its time
//!   source's EBs in `hash(parent) mod L_eb`;
//! * **common slotframe**: one shared slot for broadcast control traffic
//!   (DIOs) and fallback unicast (DAOs);
//! * **unicast slotframe** (receiver-based by default): every node listens
//!   on slot `hash(self) mod L_u` and transmits to a neighbor `n` in slot
//!   `hash(n) mod L_u`.
//!
//! Each slotframe uses one fixed channel offset. Because both the slot and
//! the channel are hash-derived, distinct senders regularly land on the
//! same (slot, channel) — the §III interference problems GT-TSCH fixes —
//! and all children of one parent share that parent's single Rx slot,
//! which is the §VIII bottleneck that collapses Orchestra's PDR under
//! load. This implementation follows the Contiki-NG one the paper
//! compared against (receiver-based unicast, default rule set).
//!
//! Because every cell lives in one of three short prioritized
//! slotframes, an Orchestra node's Rx slots vastly outnumber audible
//! transmissions. The MAC's cyclic-union Rx index enumerates the
//! three-frame listen union exactly, so the event-driven engine treats
//! Orchestra nodes as *passive listeners* — asleep through inaudible Rx
//! slots, with idle-listen energy settled lazily — the same way it
//! treats GT-TSCH's single slotframe (see
//! `gtt_engine`'s engine docs; pinned by `orchestra_macs_are_passive_listeners`
//! below and the 120-node `step_equivalence` suites).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gtt_engine::{SchedulingFunction, SfContext};
use gtt_mac::{
    Cell, CellClass, CellOptions, ChannelOffset, SlotOffset, Slotframe, SlotframeHandle,
};
use gtt_net::{Dest, NodeId};

/// Slotframe handles, in Contiki-NG priority order (EB first).
const EB_SF: SlotframeHandle = SlotframeHandle::new(0);
const COMMON_SF: SlotframeHandle = SlotframeHandle::new(1);
const UNICAST_SF: SlotframeHandle = SlotframeHandle::new(2);

/// EB slotframe length (sender-based EB cells), as in Contiki-NG.
pub const EB_LEN: u16 = 41;

/// Common/broadcast slotframe length (one shared slot), as in
/// Contiki-NG.
pub const COMMON_LEN: u16 = 31;

/// The Orchestra settings experiments vary; the EB and common slotframe
/// lengths are the constants [`EB_LEN`] and [`COMMON_LEN`].
///
/// Fig. 10 sweeps `unicast_len` in {8, 12, 16, 20}.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrchestraConfig {
    /// Unicast slotframe length (receiver-based cells).
    pub unicast_len: u16,
    /// Use sender-based instead of receiver-based unicast cells
    /// (Contiki's `ORCHESTRA_UNICAST_SENDER_BASED`); the paper's
    /// comparison uses receiver-based, the default here.
    pub sender_based: bool,
}

impl OrchestraConfig {
    /// The configuration matching the paper's Fig. 8/9 setup: the
    /// classic Orchestra unicast period 7 (prime, so receiver-based
    /// cells actually hop across the 8-entry channel sequence instead of
    /// locking to one frequency).
    pub fn paper_default() -> Self {
        OrchestraConfig::with_unicast_len(7)
    }

    /// Same rule set with a different unicast slotframe length (Fig. 10).
    ///
    /// # Panics
    ///
    /// Panics if `unicast_len` is zero.
    pub fn with_unicast_len(unicast_len: u16) -> Self {
        let cfg = OrchestraConfig {
            unicast_len,
            sender_based: false,
        };
        cfg.validate();
        cfg
    }

    /// True if Orchestra can run with this configuration: the unicast
    /// slotframe is not empty.
    pub fn is_valid(&self) -> bool {
        self.unicast_len > 0
    }

    /// Validates the lengths.
    ///
    /// # Panics
    ///
    /// Panics unless [`OrchestraConfig::is_valid`] accepts the
    /// configuration.
    pub fn validate(&self) {
        assert!(self.is_valid(), "unicast slotframe cannot be empty");
    }
}

/// Orchestra's address hash (Contiki uses the link-address LSB; node ids
/// serve that role here).
fn orchestra_hash(node: NodeId) -> u16 {
    // Knuth multiplicative mixing keeps adjacent ids from mapping to
    // adjacent slots, like hashing the address bytes does in Contiki.
    ((node.raw() as u32).wrapping_mul(2654435761) >> 16) as u16
}

/// The Orchestra scheduling function.
#[derive(Debug, Clone)]
pub struct OrchestraSf {
    cfg: OrchestraConfig,
    /// The parent whose EB-Rx and unicast-Tx cells are installed.
    tracked_parent: Option<NodeId>,
}

impl OrchestraSf {
    /// Creates the SF.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn new(cfg: OrchestraConfig) -> Self {
        cfg.validate();
        OrchestraSf {
            cfg,
            tracked_parent: None,
        }
    }

    /// The node's own EB transmission slot.
    pub fn eb_tx_slot(&self, node: NodeId) -> u16 {
        orchestra_hash(node) % EB_LEN
    }

    /// The node's receiver-based unicast Rx slot.
    pub fn unicast_rx_slot(&self, node: NodeId) -> u16 {
        orchestra_hash(node) % self.cfg.unicast_len
    }
}

impl SchedulingFunction for OrchestraSf {
    fn name(&self) -> &'static str {
        "orchestra"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn init(&mut self, ctx: &mut SfContext<'_>) {
        let me = ctx.mac.id();

        // EB slotframe: sender-based Tx cell for our own beacons.
        let mut eb = Slotframe::new(EB_LEN);
        eb.add(Cell::new(
            SlotOffset::new(self.eb_tx_slot(me)),
            ChannelOffset::new(0),
            CellOptions::TX,
            Dest::Broadcast,
            CellClass::Eb,
        ));
        ctx.mac.schedule_mut().add_slotframe(EB_SF, eb);

        // Common slotframe: one shared broadcast/fallback slot.
        let mut common = Slotframe::new(COMMON_LEN);
        common.add(Cell::new(
            SlotOffset::new(0),
            ChannelOffset::new(1),
            CellOptions::TX_RX_SHARED,
            Dest::Broadcast,
            CellClass::Broadcast,
        ));
        ctx.mac.schedule_mut().add_slotframe(COMMON_SF, common);

        // Unicast slotframe: receiver-based Rx cell on our own hash
        // (sender-based mode instead installs the Tx side on our hash).
        let mut unicast = Slotframe::new(self.cfg.unicast_len);
        unicast.add(Cell::new(
            SlotOffset::new(self.unicast_rx_slot(me)),
            ChannelOffset::new(2),
            CellOptions::RX,
            Dest::Broadcast, // any neighbor may address us here
            CellClass::Data,
        ));
        ctx.mac.schedule_mut().add_slotframe(UNICAST_SF, unicast);
    }

    fn on_parent_changed(&mut self, ctx: &mut SfContext<'_>, _old: Option<NodeId>, new: NodeId) {
        let me = ctx.mac.id();
        // Remove cells tracking the previous parent.
        if let Some(old) = self.tracked_parent.take() {
            if let Some(f) = ctx.mac.schedule_mut().frame_mut(EB_SF) {
                f.remove_where(|c| c.options.rx && c.peer == Dest::Unicast(old));
            }
            if let Some(f) = ctx.mac.schedule_mut().frame_mut(UNICAST_SF) {
                f.remove_where(|c| c.options.tx && c.peer == Dest::Unicast(old));
            }
        }

        // Listen for the new time source's EBs (sender-based).
        let eb_rx_slot = orchestra_hash(new) % EB_LEN;
        if let Some(f) = ctx.mac.schedule_mut().frame_mut(EB_SF) {
            // Tolerate hash collisions with our own EB Tx slot: Tx wins
            // by Contiki's rule, so skip the Rx cell then.
            if eb_rx_slot != self.eb_tx_slot(me) {
                f.add(Cell::new(
                    SlotOffset::new(eb_rx_slot),
                    ChannelOffset::new(0),
                    CellOptions::RX,
                    Dest::Unicast(new),
                    CellClass::Eb,
                ));
            }
        }

        // Transmit slot towards the new parent.
        let tx_slot = if self.cfg.sender_based {
            orchestra_hash(me) % self.cfg.unicast_len
        } else {
            orchestra_hash(new) % self.cfg.unicast_len
        };
        if let Some(f) = ctx.mac.schedule_mut().frame_mut(UNICAST_SF) {
            // Receiver-based cells are contention cells: every child of
            // `new` transmits in this same slot. Contiki-NG marks them
            // LINK_OPTION_SHARED so collisions trigger the TSCH backoff;
            // without it siblings would collide deterministically on
            // every retry.
            f.add(Cell::new(
                SlotOffset::new(tx_slot),
                ChannelOffset::new(2),
                CellOptions {
                    tx: true,
                    rx: false,
                    shared: !self.cfg.sender_based,
                },
                Dest::Unicast(new),
                CellClass::Data,
            ));
        }
        self.tracked_parent = Some(new);
    }

    fn on_dao(&mut self, ctx: &mut SfContext<'_>, child: NodeId, no_path: bool) {
        // Sender-based mode: the receiver listens in each child's own
        // hash slot (receiver-based mode needs no per-child state — all
        // children share our single Rx cell).
        if !self.cfg.sender_based {
            return;
        }
        let rx_slot = orchestra_hash(child) % self.cfg.unicast_len;
        if let Some(f) = ctx.mac.schedule_mut().frame_mut(UNICAST_SF) {
            f.remove_where(|c| c.options.rx && c.peer == Dest::Unicast(child));
            if !no_path {
                f.add(Cell::new(
                    SlotOffset::new(rx_slot),
                    ChannelOffset::new(2),
                    CellOptions::RX,
                    Dest::Unicast(child),
                    CellClass::Data,
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtt_engine::{EngineConfig, Payload};
    use gtt_mac::TschMac;
    use gtt_rpl::{Dio, Rank, RplNode};
    use gtt_sim::{Pcg32, SimTime};
    use gtt_sixtop::SixtopLayer;

    struct Harness {
        sf: OrchestraSf,
        mac: TschMac<Payload>,
        rpl: RplNode,
        sixtop: SixtopLayer,
        rng: Pcg32,
        out: Vec<gtt_engine::OutgoingControl>,
    }

    impl Harness {
        fn new(id: u16) -> Self {
            let id = NodeId::new(id);
            let mut h = Harness {
                sf: OrchestraSf::new(OrchestraConfig::paper_default()),
                mac: TschMac::new(id, Pcg32::new(7)),
                rpl: RplNode::new(id),
                sixtop: SixtopLayer::new(id),
                rng: Pcg32::new(id.raw() as u64),
                out: Vec::new(),
            };
            h.with(|sf, ctx| sf.init(ctx));
            h
        }

        fn with(&mut self, f: impl FnOnce(&mut OrchestraSf, &mut SfContext<'_>)) {
            let mut ctx = SfContext {
                mac: &mut self.mac,
                rpl: &self.rpl,
                sixtop: &mut self.sixtop,
                rng: &mut self.rng,
                now: SimTime::from_secs(5),
                app_rate_ppm: 0.0,
                out: &mut self.out,
            };
            f(&mut self.sf, &mut ctx);
        }

        fn join(&mut self, parent: u16) {
            let p = NodeId::new(parent);
            self.rpl.handle_dio(
                p,
                Dio::new(NodeId::new(0), 1, Rank::ROOT),
                1.0,
                SimTime::from_secs(1),
            );
            self.with(|sf, ctx| sf.on_parent_changed(ctx, None, p));
        }
    }

    #[test]
    fn init_installs_three_slotframes() {
        let h = Harness::new(4);
        assert_eq!(h.mac.schedule().num_slotframes(), 3);
        assert_eq!(h.mac.schedule().frame(EB_SF).unwrap().length(), 41);
        assert_eq!(h.mac.schedule().frame(COMMON_SF).unwrap().length(), 31);
        assert_eq!(h.mac.schedule().frame(UNICAST_SF).unwrap().length(), 7);
    }

    #[test]
    fn own_rx_cell_is_receiver_based_hash() {
        let h = Harness::new(4);
        let rx_slot = h.sf.unicast_rx_slot(NodeId::new(4));
        let f = h.mac.schedule().frame(UNICAST_SF).unwrap();
        let cells: Vec<_> = f.cells_at(SlotOffset::new(rx_slot)).collect();
        assert_eq!(cells.len(), 1);
        assert!(cells[0].options.rx);
        assert_eq!(cells[0].channel_offset.raw(), 2);
    }

    #[test]
    fn join_installs_parent_tx_and_eb_rx() {
        let mut h = Harness::new(4);
        h.join(1);
        let f = h.mac.schedule().frame(UNICAST_SF).unwrap();
        let parent_slot = h.sf.unicast_rx_slot(NodeId::new(1));
        let tx: Vec<_> = f
            .cells()
            .iter()
            .filter(|c| c.options.tx && c.peer == Dest::Unicast(NodeId::new(1)))
            .collect();
        assert_eq!(tx.len(), 1, "one Tx cell towards the parent");
        assert_eq!(tx[0].slot.raw(), parent_slot, "RB: Tx at hash(parent)");

        let eb = h.mac.schedule().frame(EB_SF).unwrap();
        assert!(
            eb.cells().iter().any(|c| c.options.rx),
            "EB Rx cell for the time source"
        );
    }

    #[test]
    fn siblings_share_the_parents_rx_slot() {
        // The §VIII bottleneck: all children transmit to the parent in
        // the same (slot, channel offset) cell.
        let mut a = Harness::new(4);
        let mut b = Harness::new(5);
        a.join(1);
        b.join(1);
        let slot_a = a
            .mac
            .schedule()
            .frame(UNICAST_SF)
            .unwrap()
            .cells()
            .iter()
            .find(|c| c.options.tx)
            .unwrap()
            .slot;
        let slot_b = b
            .mac
            .schedule()
            .frame(UNICAST_SF)
            .unwrap()
            .cells()
            .iter()
            .find(|c| c.options.tx)
            .unwrap()
            .slot;
        assert_eq!(slot_a, slot_b, "same destination ⇒ same RB slot");
    }

    #[test]
    fn parent_switch_replaces_cells() {
        let mut h = Harness::new(4);
        h.join(9);
        // Second join towards node 1 (simulating an RPL switch).
        h.with(|sf, ctx| sf.on_parent_changed(ctx, Some(NodeId::new(9)), NodeId::new(1)));
        let f = h.mac.schedule().frame(UNICAST_SF).unwrap();
        let tx: Vec<_> = f.cells().iter().filter(|c| c.options.tx).collect();
        assert_eq!(tx.len(), 1, "exactly one parent Tx cell: {tx:?}");
        assert_eq!(tx[0].peer, Dest::Unicast(NodeId::new(1)));
    }

    #[test]
    fn sender_based_mode_uses_own_hash() {
        let mut h = Harness::new(4);
        h.sf = OrchestraSf::new(OrchestraConfig {
            sender_based: true,
            ..OrchestraConfig::paper_default()
        });
        h.join(1);
        let f = h.mac.schedule().frame(UNICAST_SF).unwrap();
        let tx = f.cells().iter().find(|c| c.options.tx).unwrap();
        assert_eq!(
            tx.slot.raw(),
            h.sf.unicast_rx_slot(NodeId::new(4)),
            "SB: Tx at hash(self)"
        );
    }

    #[test]
    fn sender_based_receiver_installs_per_child_rx_cells() {
        let mut h = Harness::new(4);
        h.sf = OrchestraSf::new(OrchestraConfig {
            sender_based: true,
            ..OrchestraConfig::paper_default()
        });
        // Two children announce themselves via DAO.
        h.with(|sf, ctx| sf.on_dao(ctx, NodeId::new(7), false));
        h.with(|sf, ctx| sf.on_dao(ctx, NodeId::new(9), false));
        let f = h.mac.schedule().frame(UNICAST_SF).unwrap();
        let rx: Vec<_> = f
            .cells()
            .iter()
            .filter(|c| c.options.rx && !c.peer.is_broadcast())
            .collect();
        assert_eq!(rx.len(), 2, "one Rx cell per child: {rx:?}");
        // A no-path DAO removes the cell again.
        h.with(|sf, ctx| sf.on_dao(ctx, NodeId::new(7), true));
        let f = h.mac.schedule().frame(UNICAST_SF).unwrap();
        let rx = f
            .cells()
            .iter()
            .filter(|c| c.options.rx && !c.peer.is_broadcast())
            .count();
        assert_eq!(rx, 1);
    }

    #[test]
    fn receiver_based_mode_ignores_daos() {
        let mut h = Harness::new(4);
        let before = h.mac.schedule().total_cells();
        h.with(|sf, ctx| sf.on_dao(ctx, NodeId::new(7), false));
        assert_eq!(h.mac.schedule().total_cells(), before);
    }

    #[test]
    fn orchestra_macs_are_passive_listeners() {
        use gtt_mac::{Asn, SlotAction, SlotResult};
        use gtt_net::RxOutcome;

        // Joined non-root: all three slotframes installed, EB-Rx and
        // unicast-Tx cells tracking the parent.
        let mut h = Harness::new(4);
        h.join(1);
        assert!(
            h.mac.is_passive_listener(),
            "three-slotframe Orchestra schedule must be indexable"
        );
        // With empty queues the engine never wakes it on the MAC's
        // account: its listens are driven purely by audible traffic.
        assert_eq!(h.mac.next_radio_wake(Asn::new(0)), None);

        // The index must agree with plan_slot across one full
        // hyperperiod of the three frames (41 × 31 × 7 = 8897 slots),
        // honoring the EB < common < unicast priority rule.
        let mut reference = h.mac.clone();
        let mut listens = 0u64;
        let hyper = 41 * 31 * 7u64;
        for raw in 0..hyper {
            let asn = Asn::new(raw);
            let probed = h.mac.listen_channel_at(asn);
            match reference.plan_slot(asn) {
                SlotAction::Listen { channel, .. } => {
                    assert_eq!(probed, Some(channel), "slot {raw}");
                    listens += 1;
                    reference.finish_slot(SlotResult::Listened(RxOutcome::Idle));
                }
                SlotAction::Sleep => {
                    assert_eq!(probed, None, "slot {raw}");
                    reference.finish_slot(SlotResult::Slept);
                }
                other => panic!("queues are empty, got {other:?}"),
            }
        }
        assert_eq!(
            h.mac.count_listen_slots(Asn::new(0), Asn::new(hyper)),
            listens,
            "cyclic-union count must match the exhaustive walk"
        );
        assert!(listens > 0, "orchestra nodes do listen");

        // A sender-based root with several per-child Rx cells stays
        // within the index caps too.
        let mut root = Harness::new(1);
        root.sf = OrchestraSf::new(OrchestraConfig {
            sender_based: true,
            ..OrchestraConfig::paper_default()
        });
        for child in [7, 9, 12] {
            root.with(|sf, ctx| sf.on_dao(ctx, NodeId::new(child), false));
        }
        assert!(root.mac.is_passive_listener());
    }

    #[test]
    fn engine_smoke_test_with_orchestra() {
        use gtt_net::{LinkModel, Position, TopologyBuilder};
        let topo = TopologyBuilder::new(40.0)
            .link_model(LinkModel::Perfect)
            .nodes((0..4).map(|i| Position::new(i as f64 * 20.0, 0.0)))
            .build();
        let mut net = gtt_engine::Network::builder(topo, EngineConfig::default())
            .root(NodeId::new(0))
            .traffic_ppm(10.0)
            .scheduler_factory(|_, _| Box::new(OrchestraSf::new(OrchestraConfig::paper_default())))
            .build();
        net.run_for(gtt_sim::SimDuration::from_secs(60));
        assert_eq!(net.join_ratio(), 1.0, "orchestra network must form");
        net.start_measurement();
        net.run_for(gtt_sim::SimDuration::from_secs(60));
        net.finish_measurement();
        let report = net.report();
        assert!(report.delivered > 0, "data must reach the root");
    }

    #[test]
    #[should_panic(expected = "unicast slotframe cannot be empty")]
    fn zero_unicast_len_rejected() {
        let _ = OrchestraConfig::with_unicast_len(0);
    }
}
