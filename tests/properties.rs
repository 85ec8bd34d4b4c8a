//! Property-based tests (proptest) over the core data structures and
//! algorithms: the game's optimality claim, the 6P codec, the channel
//! allocator, queues, slotframes, the MAC's bulk backoff settlement and
//! per-peer ETX table, and the packet tracker.

use std::collections::BTreeMap;

use proptest::prelude::*;

use gt_tsch::game::{GameInputs, GameWeights};
use gt_tsch::ChannelAllocator;
use gtt_mac::{
    channel, Asn, Cell, CellClass, CellOptions, ChannelOffset, EtxEstimator, SlotAction,
    SlotOffset, SlotResult, Slotframe, SlotframeHandle, TrafficClass, TschMac, HOPPING_SEQUENCE,
    MAX_RETRIES,
};
use gtt_metrics::PacketTracker;
use gtt_net::{
    Dest, DrawStreams, Frame, LinkModel, Listener, NodeId, PacketId, PacketQueue, PhysicalChannel,
    Position, RadioMedium, RxOutcome, SlotOutcomes, Topology, TopologyBuilder, Transmission,
};
use gtt_sim::{Pcg32, SimTime};
use gtt_sixtop::{CellSpec, ReturnCode, SixpBody, SixpCellKind, SixpMessage};

// ---------------------------------------------------------------- game

fn arb_weights() -> impl Strategy<Value = GameWeights> {
    (0.1f64..4.0, 0.0f64..3.0, 0.0f64..3.0).prop_map(|(alpha, beta, gamma)| GameWeights {
        alpha,
        beta,
        gamma,
    })
}

fn arb_inputs() -> impl Strategy<Value = GameInputs> {
    (
        0.05f64..1.0, // rank weight (hop 1..20)
        1.0f64..6.0,  // ETX
        0.0f64..8.0,  // queue average
        1u16..6,      // l_tx_min
        1u16..16,     // l_rx_parent
    )
        .prop_map(
            |(rank_weight, etx, queue_avg, l_tx_min, l_rx_parent)| GameInputs {
                rank_weight,
                etx,
                queue_avg,
                queue_max: 8.0,
                l_tx_min,
                l_rx_parent,
            },
        )
}

proptest! {
    /// eq. 15's closed form really is the argmax over the whole feasible
    /// integer strategy set, for arbitrary weights and inputs.
    #[test]
    fn best_response_dominates_all_feasible_strategies(
        inputs in arb_inputs(),
        weights in arb_weights(),
    ) {
        let br = inputs.best_response(&weights);
        if inputs.l_rx_parent <= inputs.l_tx_min {
            prop_assert_eq!(br.cells, inputs.l_rx_parent);
        } else {
            prop_assert!(br.cells >= inputs.l_tx_min);
            prop_assert!(br.cells <= inputs.l_rx_parent);
            let v_star = inputs.payoff(&weights, br.cells as f64);
            for l in inputs.l_tx_min..=inputs.l_rx_parent {
                prop_assert!(
                    inputs.payoff(&weights, l as f64) <= v_star + 1e-9,
                    "l={} beats l*={}", l, br.cells
                );
            }
        }
    }

    /// Theorem 1, fuzzed: the payoff is strictly concave everywhere on
    /// the strategy space.
    #[test]
    fn payoff_curvature_is_negative(
        inputs in arb_inputs(),
        weights in arb_weights(),
        l in 0u16..32,
    ) {
        prop_assert!(inputs.payoff_curvature(&weights, l as f64) < 0.0);
    }
}

// ------------------------------------------------------------- sixtop

fn arb_cells() -> impl Strategy<Value = Vec<CellSpec>> {
    prop::collection::vec((0u16..128, 0u8..16), 0..8)
        .prop_map(|v| v.into_iter().map(|(s, c)| CellSpec::new(s, c)).collect())
}

fn arb_kind() -> impl Strategy<Value = SixpCellKind> {
    prop_oneof![Just(SixpCellKind::Data), Just(SixpCellKind::SixP)]
}

fn arb_code() -> impl Strategy<Value = ReturnCode> {
    prop_oneof![
        Just(ReturnCode::Success),
        Just(ReturnCode::Err),
        Just(ReturnCode::ErrSeqnum),
        Just(ReturnCode::ErrBusy),
        Just(ReturnCode::ErrNoCells),
    ]
}

fn arb_body() -> impl Strategy<Value = SixpBody> {
    prop_oneof![
        (arb_kind(), 0u16..32, arb_cells()).prop_map(|(kind, num_cells, cells)| {
            SixpBody::AddRequest {
                kind,
                num_cells,
                cells,
            }
        }),
        (arb_code(), arb_cells()).prop_map(|(code, cells)| SixpBody::AddResponse { code, cells }),
        (arb_kind(), arb_cells()).prop_map(|(kind, cells)| SixpBody::DeleteRequest { kind, cells }),
        (arb_code(), arb_cells())
            .prop_map(|(code, cells)| SixpBody::DeleteResponse { code, cells }),
        Just(SixpBody::ClearRequest),
        arb_code().prop_map(|code| SixpBody::ClearResponse { code }),
        Just(SixpBody::AskChannelRequest),
        (arb_code(), 0u8..16).prop_map(|(code, channel_offset)| {
            SixpBody::AskChannelResponse {
                code,
                channel_offset,
            }
        }),
    ]
}

proptest! {
    /// Any well-formed 6P message survives encode → decode unchanged.
    #[test]
    fn sixp_codec_round_trips(seqnum in any::<u8>(), body in arb_body()) {
        let msg = SixpMessage::new(seqnum, body);
        let decoded = SixpMessage::decode(&msg.encode()).expect("decode");
        prop_assert_eq!(decoded, msg);
    }

    /// Arbitrary byte soup never panics the decoder — it errors.
    #[test]
    fn sixp_decoder_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = SixpMessage::decode(&bytes);
    }
}

// ------------------------------------------------------------ channels

proptest! {
    /// Whatever the allocate/release interleaving, the allocator never
    /// hands out a reserved channel and keeps live siblings distinct
    /// while distinct offsets remain.
    #[test]
    fn channel_allocator_invariants(
        ops in prop::collection::vec((0u16..6, any::<bool>()), 1..40),
        f_parent in 1u8..8,
        f_children in 1u8..8,
    ) {
        prop_assume!(f_parent != f_children);
        let mut alloc = ChannelAllocator::new(8);
        // Distinctness is guaranteed only while the fan-out has *never*
        // exceeded max_children (the paper bounds it; beyond that the
        // allocator reuses channels gracefully and on purpose).
        let mut ever_overflowed = false;
        for (child, is_alloc) in ops {
            let child = NodeId::new(child);
            if is_alloc {
                let ch = alloc.allocate(child, Some(f_parent), Some(f_children))
                    .expect("8 offsets with 3 reserved can always serve");
                prop_assert_ne!(ch, 0);
                prop_assert_ne!(ch, f_parent);
                prop_assert_ne!(ch, f_children);
            } else {
                alloc.release(child);
            }
            ever_overflowed |= alloc.allocated() > alloc.max_children() as usize;
            if !ever_overflowed {
                let mut live: Vec<u8> = (0..6u16)
                    .filter_map(|c| alloc.channel_of(NodeId::new(c)))
                    .collect();
                let n = live.len();
                live.sort_unstable();
                live.dedup();
                prop_assert_eq!(live.len(), n, "sibling channels must differ");
            }
        }
    }
}

// ------------------------------------------------------------- queues

proptest! {
    /// A bounded queue conserves packets: enqueued = dequeued + still
    /// inside, and drops only happen at capacity.
    #[test]
    fn packet_queue_conservation(
        cap in 1usize..16,
        ops in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut q: PacketQueue<u32> = PacketQueue::new(cap);
        let mut pushed = 0u64;
        for (i, push) in ops.into_iter().enumerate() {
            if push {
                if q.push(i as u32).is_ok() {
                    pushed += 1;
                }
            } else {
                q.pop();
            }
            prop_assert!(q.len() <= cap);
        }
        let stats = q.stats();
        prop_assert_eq!(stats.enqueued, pushed);
        prop_assert_eq!(stats.enqueued, stats.dequeued + q.len() as u64);
    }
}

// ------------------------------------------------------------ tracker

proptest! {
    /// PDR stays within [0, 100] and deliveries never exceed
    /// generations, whatever the event interleaving. Each origin numbers
    /// its packets consecutively, as the engine does; a delivery may hit
    /// any sequence number, generated or not.
    #[test]
    fn tracker_invariants(
        events in prop::collection::vec((any::<bool>(), 0u16..TRACKER_ORIGINS, 0u64..30), 1..150),
    ) {
        let mut t = PacketTracker::new(usize::from(TRACKER_ORIGINS));
        let mut next_seq = [0u64; TRACKER_ORIGINS as usize];
        for (i, (deliver, origin, seq)) in events.into_iter().enumerate() {
            let now = SimTime::from_millis(i as u64 * 10);
            if deliver {
                t.record_delivered(tracker_id(origin, seq), SimTime::ZERO, now, 1);
            } else {
                let next = &mut next_seq[usize::from(origin)];
                t.record_generated(tracker_id(origin, *next));
                *next += 1;
            }
        }
        prop_assert!(t.delivered() <= t.generated());
        prop_assert!((0.0..=100.0).contains(&t.pdr_percent()));
        prop_assert_eq!(t.generated(), t.delivered() + t.lost());
    }
}

/// The pre-SoA `PacketTracker`: two `BTreeMap<PacketId, …>`s and a
/// generation-time window, kept as the behavioral reference of
/// `tracker_matches_reference`.
#[derive(Default)]
struct ReferenceTracker {
    window: Option<(SimTime, SimTime)>,
    generated: std::collections::BTreeMap<PacketId, (NodeId, SimTime)>,
    delivered: std::collections::BTreeMap<PacketId, (SimTime, u8)>,
    duplicates: u64,
    stray_deliveries: u64,
}

impl ReferenceTracker {
    fn set_window(&mut self, start: SimTime, end: SimTime) {
        assert!(end > start);
        self.window = Some((start, end));
        self.generated.retain(|_, (_, t)| *t >= start && *t < end);
        let generated = &self.generated;
        self.delivered.retain(|id, _| generated.contains_key(id));
    }

    fn in_window(&self, t: SimTime) -> bool {
        match self.window {
            Some((s, e)) => t >= s && t < e,
            None => true,
        }
    }

    fn record_generated(&mut self, id: PacketId, origin: NodeId, now: SimTime) {
        if self.in_window(now) {
            self.generated.insert(id, (origin, now));
        }
    }

    // Verbatim port of the old implementation — keep its shape.
    #[allow(clippy::map_entry)]
    fn record_delivered(&mut self, id: PacketId, now: SimTime, hops: u8) {
        if !self.generated.contains_key(&id) {
            self.stray_deliveries += 1;
        } else if self.delivered.contains_key(&id) {
            self.duplicates += 1;
        } else {
            self.delivered.insert(id, (now, hops));
        }
    }

    fn pdr_percent(&self) -> f64 {
        if self.generated.is_empty() {
            return 100.0;
        }
        100.0 * self.delivered.len() as f64 / self.generated.len() as f64
    }

    fn mean_delay_ms(&self) -> f64 {
        if self.delivered.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .delivered
            .iter()
            .map(|(id, (t_rx, _))| t_rx.saturating_since(self.generated[id].1).as_millis_f64())
            .sum();
        sum / self.delivered.len() as f64
    }

    fn mean_hops(&self) -> f64 {
        if self.delivered.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.delivered.values().map(|(_, h)| u64::from(*h)).sum();
        sum as f64 / self.delivered.len() as f64
    }

    /// `(generated, delivered)` counts of `origin`.
    fn origin_stats(&self, origin: NodeId) -> (u64, u64) {
        let mut stats = (0, 0);
        for (id, (from, _)) in &self.generated {
            if *from == origin {
                stats.0 += 1;
                stats.1 += u64::from(self.delivered.contains_key(id));
            }
        }
        stats
    }
}

/// Origins of the tracker pin.
const TRACKER_ORIGINS: u16 = 4;

/// One tracker event: what happens (weighted, see
/// `tracker_matches_reference`), an origin, a pick among its sequence
/// numbers and a hop count.
fn arb_tracker_op() -> impl Strategy<Value = (u8, u16, u64, u8)> {
    (0u8..8, 0u16..TRACKER_ORIGINS, 0u64..64, 1u8..5)
}

fn tracker_id(origin: u16, seq: u64) -> PacketId {
    PacketId::new((u64::from(origin) << 48) | seq)
}

proptest! {
    /// The per-origin lane tracker is behaviorally identical to the old
    /// BTreeMap implementation under the engine's discipline. Each
    /// origin numbers its packets consecutively from 0, through warm-up
    /// and window alike. The reference records from time 0 and purges
    /// to the window when it opens; the tracker starts fresh at the
    /// window and learns each delivery's generation time from the
    /// delivery, as the engine's frames carry it. Deliveries hit
    /// in-window, pre-window, duplicate and never-generated ids. Counts,
    /// PDR, delay, hops and per-origin stats must match, and PDR stays
    /// within [0, 100] with generated = delivered + lost.
    #[test]
    fn tracker_matches_reference(
        warmup in prop::collection::vec(arb_tracker_op(), 0..60),
        measured in prop::collection::vec(arb_tracker_op(), 0..150),
    ) {
        // Generation time of every packet so far, per origin and seq:
        // what the frames in flight carry.
        let mut born: Vec<Vec<SimTime>> = vec![Vec::new(); usize::from(TRACKER_ORIGINS)];
        let mut r = ReferenceTracker::default();
        // Warm-up: the reference sees formation traffic; the engine's
        // tracker of that time is replaced when the window opens.
        for (i, &(kind, origin, pick, hops)) in warmup.iter().enumerate() {
            let now = SimTime::from_millis(i as u64 * 7);
            let lane = &mut born[usize::from(origin)];
            if kind < 4 {
                r.record_generated(tracker_id(origin, lane.len() as u64), NodeId::new(origin), now);
                lane.push(now);
            } else if !lane.is_empty() {
                r.record_delivered(tracker_id(origin, pick % lane.len() as u64), now, hops);
            }
        }
        // start_measurement: a fresh tracker, the reference purges.
        let window_start = SimTime::from_secs(10);
        let mut t = PacketTracker::new(usize::from(TRACKER_ORIGINS));
        r.set_window(window_start, SimTime::MAX);
        let (dups_before, strays_before) = (r.duplicates, r.stray_deliveries);
        let mut last = window_start;
        for (i, &(kind, origin, pick, hops)) in measured.iter().enumerate() {
            last = window_start + gtt_sim::SimDuration::from_millis((i as u64 + 1) * 7);
            let lane = &mut born[usize::from(origin)];
            let (seq, generated_at) = match kind {
                // Weight generation highest so deliveries usually land.
                0..=3 => {
                    let id = tracker_id(origin, lane.len() as u64);
                    t.record_generated(id);
                    r.record_generated(id, NodeId::new(origin), last);
                    lane.push(last);
                    continue;
                }
                // Any packet of the origin: in-window or pre-window, and
                // a duplicate when the pick repeats.
                4..=6 if !lane.is_empty() => {
                    let seq = pick % lane.len() as u64;
                    (seq, lane[seq as usize])
                }
                // Never generated (yet).
                _ => (lane.len() as u64 + pick, last),
            };
            let id = tracker_id(origin, seq);
            t.record_delivered(id, generated_at, last, hops);
            r.record_delivered(id, last, hops);
        }
        // finish_measurement: the reference closes its window just past
        // the last event; the tracker has no window to close.
        r.set_window(window_start, last + gtt_sim::SimDuration::from_millis(1));

        prop_assert_eq!(t.generated(), r.generated.len() as u64);
        prop_assert_eq!(t.delivered(), r.delivered.len() as u64);
        prop_assert_eq!(t.generated(), t.delivered() + t.lost());
        prop_assert_eq!(t.duplicates(), r.duplicates - dups_before);
        prop_assert_eq!(t.stray_deliveries(), r.stray_deliveries - strays_before);
        prop_assert_eq!(t.pdr_percent(), r.pdr_percent());
        prop_assert!((0.0..=100.0).contains(&t.pdr_percent()));
        prop_assert_eq!(t.mean_hops(), r.mean_hops());
        // Integer-nanosecond sum vs the old f64 running sum: equal up to
        // summation-order rounding.
        let (a, b) = (t.mean_delay_ms(), r.mean_delay_ms());
        prop_assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{} vs {}", a, b);
        for origin in 0..TRACKER_ORIGINS {
            let origin = NodeId::new(origin);
            prop_assert_eq!(t.origin_stats(origin), r.origin_stats(origin));
        }
    }
}

// --------------------------------------------------- backoff settlement

/// The settlement pin's MAC, its parent and a neighbour it hears.
const BACKOFF_NODE: NodeId = NodeId::new(1);
const BACKOFF_PARENT: NodeId = NodeId::new(0);
const BACKOFF_NEIGHBOUR: NodeId = NodeId::new(2);

/// A MAC with a random schedule. Most schedules hold one to three
/// slotframes; one in four holds four to six, past the cyclic union's
/// four-chain cap, so some nodes listen beyond the caps and are woken at
/// every active slot, and some passive listeners drain their backoff in
/// more slotframes than the caps allow. Lengths come from a small set, so
/// frames often share a length or a factor. Most cells are shared Tx
/// cells at random offsets (Tx-only or Tx|Rx, to the parent or to
/// anyone, several at one offset now and then), beside dedicated Tx and
/// Rx cells.
fn random_backoff_mac(layout: &mut Pcg32, seed: u64) -> TschMac<u32> {
    let mut mac = TschMac::new(BACKOFF_NODE, Pcg32::new(seed));
    let shared_tx = CellOptions {
        tx: true,
        rx: false,
        shared: true,
    };
    let frames = if layout.gen_bool(0.25) {
        4 + layout.gen_range_u32(0, 3)
    } else {
        1 + layout.gen_range_u32(0, 3)
    };
    for handle in 0..frames {
        let len = [3u16, 4, 5, 6, 8, 9][layout.gen_range_u32(0, 6) as usize];
        let mut frame = Slotframe::new(len);
        for _ in 0..1 + layout.gen_range_u32(0, 4) {
            let slot = SlotOffset::new(layout.gen_range_u32(0, u32::from(len)) as u16);
            let co = ChannelOffset::new(layout.gen_range_u32(0, 4) as u8);
            let parent = Dest::Unicast(BACKOFF_PARENT);
            frame.add(match layout.gen_range_u32(0, 6) {
                0 => Cell::broadcast(slot, co),
                1 => Cell::new(slot, co, shared_tx, parent, CellClass::Shared),
                2 => Cell::new(
                    slot,
                    co,
                    CellOptions::TX_RX_SHARED,
                    Dest::Broadcast,
                    CellClass::Shared,
                ),
                3 => Cell::new(
                    slot,
                    co,
                    CellOptions::TX_RX_SHARED,
                    parent,
                    CellClass::Shared,
                ),
                4 => Cell::data_tx(slot, co, BACKOFF_PARENT),
                _ => Cell::data_rx(slot, co, BACKOFF_NEIGHBOUR),
            });
        }
        mac.schedule_mut()
            .add_slotframe(SlotframeHandle::new(handle as u8), frame);
    }
    mac
}

/// Queues up to three random frames on both MACs: data to the parent,
/// unicast control to the parent, or broadcast control.
fn enqueue_random_frames(rng: &mut Pcg32, next_id: &mut u64, macs: [&mut TschMac<u32>; 2]) {
    let frames: Vec<(u32, Frame<u32>)> = (0..rng.gen_range_u32(0, 4))
        .map(|_| {
            let kind = rng.gen_range_u32(0, 3);
            let dst = if kind == 2 {
                Dest::Broadcast
            } else {
                Dest::Unicast(BACKOFF_PARENT)
            };
            *next_id += 1;
            let frame = Frame::new(PacketId::new(*next_id), BACKOFF_NODE, dst, SimTime::ZERO, 0);
            (kind, frame)
        })
        .collect();
    for mac in macs {
        for (kind, frame) in &frames {
            let _ = match kind {
                0 => mac.enqueue_data(frame.clone()),
                1 => mac.enqueue_control(frame.clone(), TrafficClass::ControlUnicast),
                _ => mac.enqueue_control(frame.clone(), TrafficClass::Broadcast),
            };
        }
    }
}

proptest! {
    /// Settling skipped slots in bulk counts and consumes exactly what
    /// slot-by-slot planning does. One MAC plans and finishes every
    /// slot; a clone is processed the way the event-driven engine
    /// processes a node: only at random checkpoints no later than its
    /// `next_radio_wake`, where it is settled (`settle_to`) before frames
    /// arrive and then plans the slot, with a probed listen now and then
    /// completed through `finish_probed_listen`, and settled mid-range on
    /// 5% of the skipped slots, as a sync settles it. Frames arrive only
    /// where the engine lets them, at checkpoints and after a probed
    /// reception, and unicast transmissions fail at random, so shared
    /// cells draw fresh backoff windows throughout. At every checkpoint
    /// both MACs must plan the same action, hold the same counters and
    /// want the same next wake-up, which moves with the pending window;
    /// after every mid-range settle they must hold the same counters.
    /// Schedules span one to six slotframes of equal and unequal
    /// lengths, with shared cells at one offset among them, so the
    /// qualifying slots form one chain or several, and both fallbacks
    /// beyond the cyclic union's caps are reached: a node whose listens
    /// are beyond them, and a passive listener whose qualifying shared
    /// cells are.
    #[test]
    fn backoff_settlement_matches_per_slot_consumption(seed in 0u64..1_000_000) {
        let mut rng = Pcg32::new(seed ^ 0xbac0_ff5e);
        let mut step = random_backoff_mac(&mut rng, seed);
        let mut bulk = step.clone();
        let mut next_id = 0u64;
        let heard = Frame::new(
            PacketId::new(u64::MAX),
            BACKOFF_NEIGHBOUR,
            Dest::Broadcast,
            SimTime::ZERO,
            0u32,
        );
        // `bulk` is processed at `at`; `step` has planned every slot
        // before `stepped`.
        let (mut at, mut stepped) = (0u64, 0u64);
        while at < 600 {
            while stepped < at {
                let slot = Asn::new(stepped);
                match step.plan_slot(slot) {
                    SlotAction::Transmit { .. } => prop_assert!(
                        false,
                        "slot {}: the per-slot MAC transmits where the settled one sleeps",
                        stepped
                    ),
                    SlotAction::Listen { .. } if rng.gen_bool(0.1) => {
                        step.finish_slot(SlotResult::Listened(RxOutcome::Received(heard.clone())));
                        bulk.finish_probed_listen(slot, &heard);
                        // Delivering the frame may queue more (a forward,
                        // a reply), and the engine then re-plans the wake.
                        enqueue_random_frames(&mut rng, &mut next_id, [&mut step, &mut bulk]);
                        if let Some(wake) = bulk.next_radio_wake(Asn::new(stepped + 1)) {
                            at = at.min(wake.raw());
                        }
                    }
                    SlotAction::Listen { .. } => {
                        step.finish_slot(SlotResult::Listened(RxOutcome::Idle));
                    }
                    SlotAction::Sleep => {
                        step.finish_slot(SlotResult::Slept);
                    }
                }
                stepped += 1;
                if rng.gen_bool(0.05) {
                    bulk.settle_to(Asn::new(stepped));
                    prop_assert_eq!(step.counters(), bulk.counters(), "sync at slot {}", stepped);
                }
            }
            let slot = Asn::new(at);
            bulk.settle_to(slot);
            enqueue_random_frames(&mut rng, &mut next_id, [&mut step, &mut bulk]);
            let planned = step.plan_slot(slot);
            let settled = bulk.plan_slot(slot);
            prop_assert_eq!(format!("{planned:?}"), format!("{settled:?}"), "slot {}", at);
            let result = match planned {
                SlotAction::Transmit { frame, .. } => SlotResult::Transmitted {
                    acked: (frame.dst != Dest::Broadcast).then(|| rng.gen_bool(0.4)),
                },
                SlotAction::Listen { .. } => SlotResult::Listened(RxOutcome::Idle),
                SlotAction::Sleep => SlotResult::Slept,
            };
            step.finish_slot(result.clone());
            bulk.finish_slot(result);
            prop_assert_eq!(step.counters(), bulk.counters(), "slot {}", at);
            stepped = at + 1;
            let wake = bulk.next_radio_wake(Asn::new(at + 1));
            prop_assert_eq!(step.next_radio_wake(Asn::new(at + 1)), wake, "slot {}", at);
            let early = at + 1 + u64::from(rng.gen_range_u32(0, 40));
            at = wake.map_or(early, |w| w.raw().min(early));
        }
    }
}

// ------------------------------------------------------- MAC peer table

/// A node id drawn from the whole id range.
fn any_node(rng: &mut Pcg32) -> NodeId {
    NodeId::new(rng.gen_range_u32(0, 1 << 16) as u16)
}

proptest! {
    /// The MAC's per-peer ETX table holds what a `BTreeMap` of
    /// estimators fed the same samples holds. One non-shared Tx cell
    /// whose peer is `Dest::Broadcast` carries a unicast to any peer in
    /// every slot, with no shared-cell backoff. Each frame goes to a peer
    /// from the whole id range, often one sent to before, and is sent
    /// until it is acked or exhausts its retries, acks falling at random.
    /// `etx` of every touched peer, of its id neighbours and of random
    /// ids, and the ids `link_stats` yields, must equal the reference's.
    #[test]
    fn mac_etx_table_matches_reference(seed in any::<u64>()) {
        let mut rng = Pcg32::new(seed);
        let me = any_node(&mut rng);
        let mut mac: TschMac<u32> = TschMac::new(me, Pcg32::new(seed));
        let mut frame = Slotframe::new(1);
        frame.add(Cell::new(
            SlotOffset::new(0),
            ChannelOffset::new(0),
            CellOptions::TX,
            Dest::Broadcast,
            CellClass::Data,
        ));
        mac.schedule_mut().add_slotframe(SlotframeHandle::new(0), frame);
        let mut reference: BTreeMap<NodeId, EtxEstimator> = BTreeMap::new();
        let mut touched: Vec<NodeId> = Vec::new();
        let ack_ratio = rng.gen_f64();
        let mut asn = 0;
        for seq in 0..rng.gen_range_u32(1, 48) {
            let peer = if touched.is_empty() || rng.gen_bool(0.5) {
                any_node(&mut rng)
            } else {
                touched[rng.gen_index(touched.len())]
            };
            touched.push(peer);
            let unicast = Frame::new(PacketId::new(seq.into()), me, Dest::Unicast(peer), SimTime::ZERO, 0);
            prop_assert!(mac.enqueue_data(unicast).is_ok());
            for attempts in 1..=MAX_RETRIES + 1 {
                let dst = match mac.plan_slot(Asn::new(asn)) {
                    SlotAction::Transmit { frame, .. } => frame.dst,
                    other => return Err(TestCaseError::fail(format!("slot {asn}: {other:?}"))),
                };
                prop_assert_eq!(dst, Dest::Unicast(peer));
                asn += 1;
                let acked = rng.gen_bool(ack_ratio);
                mac.finish_slot(SlotResult::Transmitted { acked: Some(acked) });
                if acked {
                    reference.entry(peer).or_default().record_success(attempts);
                    break;
                }
                if attempts > MAX_RETRIES {
                    reference.entry(peer).or_default().record_failure();
                }
            }
        }
        let yielded: Vec<NodeId> = mac.link_stats().map(|(peer, _)| peer).collect();
        prop_assert_eq!(yielded, reference.keys().copied().collect::<Vec<_>>());
        let near = |p: NodeId, d: u16| NodeId::new(p.raw().wrapping_add(d));
        let probes = touched.iter().flat_map(|&p| [p, near(p, 1), near(p, u16::MAX)]);
        for peer in probes.chain((0..8).map(|_| any_node(&mut rng))) {
            let want = reference.get(&peer).map_or(1.0, EtxEstimator::value);
            prop_assert_eq!(mac.etx(peer), want, "peer {}", peer);
        }
    }
}

// ----------------------------------------------------------------- sim

proptest! {
    /// PCG outputs respect requested ranges for arbitrary bounds.
    #[test]
    fn pcg_range_respected(seed in any::<u64>(), lo in 0u32..1000, span in 1u32..1000) {
        let mut rng = Pcg32::new(seed);
        for _ in 0..50 {
            let v = rng.gen_range_u32(lo, lo + span);
            prop_assert!((lo..lo + span).contains(&v));
        }
    }

    /// Channel hopping is periodic in the sequence length and never
    /// leaves the sequence.
    #[test]
    fn hopping_stays_in_sequence(asn in any::<u32>(), offset in 0u8..8) {
        let ch = channel(Asn::new(asn as u64), ChannelOffset::new(offset));
        prop_assert!(HOPPING_SEQUENCE.contains(&ch));
        let again = channel(Asn::new(asn as u64 + 8), ChannelOffset::new(offset));
        prop_assert_eq!(ch, again, "period 8");
    }
}

// --------------------------------------------------------- radio medium

/// The brute-force O(listeners × transmissions) slot resolution the
/// medium's per-channel index replaced, reimplemented over the public
/// topology API with its own (identically-derived) per-node draw
/// streams. Forward draws are keyed by the listening node and ACK draws
/// by the transmitting node, exactly as the production path keys them,
/// so the streams stay aligned without depending on any cross-node
/// iteration order. A decoded frame is addressed the same way too:
/// `Received` for a broadcast or a unicast to the listener, `Overheard`
/// for a unicast to another node.
#[allow(clippy::type_complexity)]
fn reference_resolve(
    topology: &Topology,
    draws: &mut DrawStreams,
    transmissions: &[Transmission<u8>],
    listeners: &[Listener],
) -> (Vec<(NodeId, RxOutcome<u8>)>, Vec<Option<bool>>) {
    let mut rx = Vec::new();
    let mut decoded: Vec<Vec<NodeId>> = vec![Vec::new(); transmissions.len()];
    for listener in listeners {
        if transmissions.iter().any(|t| t.frame.src == listener.node) {
            rx.push((listener.node, RxOutcome::Idle));
            continue;
        }
        let mut audible = 0usize;
        let mut first = usize::MAX;
        for (i, t) in transmissions.iter().enumerate() {
            if t.channel == listener.channel && topology.audible(t.frame.src, listener.node) {
                audible += 1;
                if audible == 1 {
                    first = i;
                }
            }
        }
        let outcome = match audible {
            0 => RxOutcome::Idle,
            1 => {
                let tx = &transmissions[first];
                let prr = topology.prr(tx.frame.src, listener.node);
                if prr > 0.0 && draws.gen_bool(listener.node, prr) {
                    decoded[first].push(listener.node);
                    match tx.frame.dst {
                        Dest::Unicast(dst) if dst != listener.node => RxOutcome::Overheard,
                        _ => RxOutcome::Received(tx.frame.clone()),
                    }
                } else {
                    RxOutcome::Faded
                }
            }
            n => RxOutcome::Collision(n),
        };
        rx.push((listener.node, outcome));
    }
    let acked = transmissions
        .iter()
        .enumerate()
        .map(|(i, t)| match t.frame.dst {
            Dest::Broadcast => None,
            Dest::Unicast(dst) => {
                if !decoded[i].contains(&dst) {
                    Some(false)
                } else {
                    let reverse = topology.prr(dst, t.frame.src);
                    Some(reverse > 0.0 && draws.gen_bool(t.frame.src, reverse))
                }
            }
        })
        .collect();
    (rx, acked)
}

proptest! {
    /// The per-channel-grouped, zero-alloc `resolve_slot_into` is
    /// observationally identical to the brute-force scan it replaced:
    /// same outcomes (the `Received`/`Overheard` addressing split
    /// included), same ACKs, same RNG draw order — across random
    /// topologies, channel assignments (collisions included) and
    /// multi-slot sequences through one reused outcome buffer, with one
    /// random node moved between slots. Dense cases (4–12 nodes in a
    /// 60–120 m square) resolve listeners on quiet channels, single
    /// transmitters and bucket scans, and seldom walk a row. Sparse
    /// cases (12–60 nodes over 150–400 m, two in three transmitting on
    /// 2–3 channels) make channel buckets longer than audible rows, so
    /// listeners walk their rows, meet collisions there, and read rows
    /// that mobility has patched.
    #[test]
    fn medium_resolve_matches_brute_force_reference(
        seed in 0u64..1_000_000,
        sparse in any::<bool>(),
        slots in 1usize..8,
    ) {
        let mut layout = Pcg32::new(seed ^ 0x9e37_79b9);
        let (n, side, tx_p, channel_count) = if sparse {
            let n = 12 + layout.gen_range_u32(0, 49) as usize;
            let side = 150.0 + layout.gen_f64() * 250.0;
            (n, side, 2.0 / 3.0, 2 + layout.gen_range_u32(0, 2))
        } else {
            let n = 4 + layout.gen_range_u32(0, 8) as usize;
            (n, 60.0 + layout.gen_f64() * 60.0, 1.0 / 3.0, 3)
        };
        let topology = TopologyBuilder::new(45.0)
            .link_model(LinkModel::DistanceFalloff { plateau: 0.4, edge_prr: 0.6 })
            .interference_factor(1.0 + layout.gen_f64())
            .nodes((0..n).map(|_| {
                Position::new(layout.gen_f64() * side, layout.gen_f64() * side)
            }))
            .build();
        // Few channels force same-channel collisions regularly.
        let channels = [17u8, 23, 15].map(PhysicalChannel::new);

        let mut medium = RadioMedium::new(topology, Pcg32::new(seed));
        let mut reference_draws = DrawStreams::new(Pcg32::new(seed), n);
        let mut out = SlotOutcomes::default();

        for slot in 0..slots {
            if slot > 0 {
                let node = NodeId::from_index(layout.gen_range_u32(0, n as u32) as usize);
                let to = Position::new(layout.gen_f64() * side, layout.gen_f64() * side);
                medium.topology_mut().set_position(node, to);
            }
            // Random slot inputs: each node transmits (p = tx_p), with a
            // random channel and destination; every non-transmitter
            // listens (p = 3/4) on a random channel. Half-duplex holds
            // by construction, as in the engine.
            let mut transmissions = Vec::new();
            let mut listeners = Vec::new();
            for i in 0..n {
                let id = NodeId::from_index(i);
                if layout.gen_f64() < tx_p {
                    let dst = if layout.gen_f64() < 0.5 {
                        Dest::Broadcast
                    } else {
                        let mut peer = layout.gen_range_u32(0, n as u32 - 1) as usize;
                        if peer >= i {
                            peer += 1;
                        }
                        Dest::Unicast(NodeId::from_index(peer))
                    };
                    transmissions.push(Transmission {
                        channel: channels[layout.gen_range_u32(0, channel_count) as usize],
                        frame: Frame::new(
                            PacketId::new(slot as u64),
                            id,
                            dst,
                            SimTime::ZERO,
                            i as u8,
                        ),
                    });
                } else if layout.gen_f64() < 0.75 {
                    listeners.push(Listener {
                        node: id,
                        channel: channels[layout.gen_range_u32(0, channel_count) as usize],
                    });
                }
            }

            let (expected_rx, expected_acked) = reference_resolve(
                medium.topology(),
                &mut reference_draws,
                &transmissions,
                &listeners,
            );
            medium.resolve_slot_into(&transmissions, &listeners, &mut out);
            prop_assert_eq!(&out.rx, &expected_rx, "slot {} rx diverged", slot);
            prop_assert_eq!(&out.acked, &expected_acked, "slot {} acks diverged", slot);
        }
    }
}

// ------------------------------------------- spatial audibility index

/// The brute-force O(n²) adjacency the grid-bucketed spatial index
/// replaced, recomputed over the public pairwise geometry API (which is
/// independent of the index): per-node audible peers and in-range
/// peers, both in id order.
fn reference_adjacency(topo: &Topology) -> (Vec<Vec<NodeId>>, Vec<Vec<NodeId>>) {
    let audible = topo
        .node_ids()
        .map(|a| topo.node_ids().filter(|&b| topo.audible(a, b)).collect())
        .collect();
    let in_range = topo
        .node_ids()
        .map(|a| topo.node_ids().filter(|&b| topo.in_range(a, b)).collect())
        .collect();
    (audible, in_range)
}

/// Every index-backed query must match the brute-force reference
/// byte-for-byte (`Vec<NodeId>` equality is byte equality for u16 ids).
fn assert_matches_reference(topo: &Topology) -> Result<(), TestCaseError> {
    let (audible, in_range) = reference_adjacency(topo);
    for (i, id) in topo.node_ids().enumerate() {
        prop_assert_eq!(
            topo.audible_neighbors(id),
            audible[i].as_slice(),
            "audible row of n{} diverged",
            i
        );
        prop_assert_eq!(
            topo.neighbors(id),
            in_range[i].as_slice(),
            "in-range row of n{} diverged",
            i
        );
    }
    Ok(())
}

proptest! {
    /// The spatial index is invisible: audibility rows and in-range
    /// rows equal the brute-force O(n²) reference over random
    /// topologies and random `set_position` sequences (local rewalks
    /// and far teleports alike), and the incrementally-
    /// maintained topology stays fully equal — grid internals included —
    /// to one built from scratch at the final positions.
    #[test]
    fn spatial_index_matches_brute_force_adjacency(
        seed in 0u64..1_000_000,
        n in 1usize..20,
        moves in 0usize..12,
    ) {
        let mut layout = Pcg32::new(seed ^ 0x51ce_b00c);
        // Sides from ~1 to ~9 grid cells: exercises everything from
        // "all nodes in one bucket" to sparse, disconnected spreads.
        let side = 50.0 + layout.gen_f64() * 350.0;
        let mut topo = TopologyBuilder::new(45.0)
            .interference_factor(1.0 + layout.gen_f64())
            .nodes((0..n).map(|_| {
                Position::new(layout.gen_f64() * side, layout.gen_f64() * side)
            }))
            .build();
        assert_matches_reference(&topo)?;
        for _ in 0..moves {
            let node = NodeId::from_index(layout.gen_range_u32(0, n as u32) as usize);
            let to = if layout.gen_f64() < 0.2 {
                // Teleport far off the populated grid: disconnects the
                // node and forces empty-bucket erasure.
                Position::new(side * 4.0 + layout.gen_f64() * side, side * 4.0)
            } else {
                Position::new(layout.gen_f64() * side, layout.gen_f64() * side)
            };
            topo.set_position(node, to);
            assert_matches_reference(&topo)?;
        }
        let rebuilt = TopologyBuilder::new(topo.range())
            .interference_factor(topo.interference_factor())
            .nodes(topo.node_ids().map(|id| topo.position(id)).collect::<Vec<_>>())
            .build();
        prop_assert_eq!(&topo, &rebuilt, "incremental state diverged from a fresh build");
    }
}
