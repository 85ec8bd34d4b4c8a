//! Per-slot radio medium resolution.
//!
//! TSCH is TDMA: all interesting radio interactions happen inside one
//! timeslot. Each slot, the engine hands the medium every transmission and
//! every listener; the medium answers, per listener, what was heard, and,
//! per unicast transmission, whether an acknowledgement came back.
//!
//! The collision rules implement the paper's §III failure analysis:
//! concurrent transmissions on the same *physical* channel that are both
//! audible at a listener destroy each other there (including the
//! hidden-terminal case where the two senders cannot hear one another).

use gtt_sim::{Pcg32, SplitMix64};

use crate::channel::PhysicalChannel;
use crate::frame::{Dest, Frame};
use crate::id::NodeId;
use crate::topology::Topology;

/// Per-node deterministic Bernoulli draw streams.
///
/// Every node owns an independent [`SplitMix64`] stream; a link-error
/// draw consumes from the stream of the node it is *keyed* by (the
/// listener for forward-PRR draws, the transmitter for ACK reverse-PRR
/// draws). Because TSCH radios are half-duplex, a node makes at most one
/// draw per slot, so each node's draw sequence depends only on the
/// ordered slots in which *that node* draws — never on how many other
/// nodes drew first in the same slot. That order-independence is what
/// keeps the event core, which processes only the nodes a slot concerns,
/// bit-identical to the naive-step oracle, which processes every node.
///
/// The streams are derived from a single [`Pcg32`] by node index, so one
/// experiment seed still determines all channel noise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrawStreams {
    streams: Vec<SplitMix64>,
}

impl DrawStreams {
    /// Derives one stream per node from `rng`: a root value seeds a
    /// [`SplitMix64`] whose consecutive outputs seed the per-node
    /// streams in node-id order.
    pub fn new(mut rng: Pcg32, nodes: usize) -> Self {
        let mut derive = SplitMix64::new(rng.next_u64());
        DrawStreams {
            streams: (0..nodes)
                .map(|_| SplitMix64::new(derive.next_u64()))
                .collect(),
        }
    }

    /// Bernoulli draw from `node`'s stream: `true` with probability `p`.
    ///
    /// Matches [`Pcg32::gen_bool`]'s clamping contract exactly: `p <= 0`
    /// and `p >= 1` return without consuming from the stream, so perfect
    /// and dead links never advance any node's draw sequence.
    pub fn gen_bool(&mut self, node: NodeId, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            let bits = self.streams[node.index()].next_u64();
            ((bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
        }
    }
}

/// One node transmitting in the current slot.
#[derive(Debug, Clone)]
pub struct Transmission<P> {
    /// Physical channel the radio is tuned to (post channel-hopping).
    pub channel: PhysicalChannel,
    /// The frame on the air. `frame.src` is the transmitter and
    /// `frame.dst` selects unicast-with-ACK vs broadcast semantics.
    pub frame: Frame<P>,
}

/// One node listening in the current slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Listener {
    /// The listening node.
    pub node: NodeId,
    /// Physical channel its radio is tuned to.
    pub channel: PhysicalChannel,
}

/// What a listener's radio saw during the slot.
///
/// The medium makes the addressing decision: a decoded frame is
/// [`RxOutcome::Received`] only when the listener is one of its
/// destinations (a broadcast, or a unicast to the listener), and
/// [`RxOutcome::Overheard`] otherwise. So the frame is cloned only for
/// listeners that read it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RxOutcome<P> {
    /// Nothing audible on the listened channel: idle listen.
    Idle,
    /// Exactly one audible transmission, decoded successfully, and
    /// addressed to the listener: a broadcast or a unicast to it.
    Received(Frame<P>),
    /// Exactly one audible transmission, decoded successfully, but a
    /// unicast addressed to another node. Carries no frame: nothing
    /// above the radio reads it.
    Overheard,
    /// Exactly one audible transmission, lost to link error
    /// (Bernoulli `1 − PRR`).
    Faded,
    /// Two or more audible transmissions interfered; carries how many.
    Collision(usize),
}

impl<P> RxOutcome<P> {
    /// The received frame, if any.
    pub fn frame(&self) -> Option<&Frame<P>> {
        match self {
            RxOutcome::Received(f) => Some(f),
            _ => None,
        }
    }

    /// True if the radio heard energy (anything but [`RxOutcome::Idle`]).
    pub fn heard_energy(&self) -> bool {
        !matches!(self, RxOutcome::Idle)
    }
}

/// Result of resolving one slot.
///
/// Reusable: [`RadioMedium::resolve_slot_into`] clears and refills the
/// vectors, so a caller that keeps one instance alive pays no per-slot
/// allocation once the capacities have warmed up.
#[derive(Debug, Clone)]
pub struct SlotOutcomes<P> {
    /// Outcome per listener, in the order listeners were supplied.
    pub rx: Vec<(NodeId, RxOutcome<P>)>,
    /// For each transmission (same order as supplied): `Some(true)` if it
    /// was a unicast whose destination decoded it *and* the ACK survived
    /// the reverse link; `Some(false)` if unicast and not acknowledged;
    /// `None` for broadcasts (never acknowledged).
    pub acked: Vec<Option<bool>>,
}

impl<P> Default for SlotOutcomes<P> {
    fn default() -> Self {
        SlotOutcomes {
            rx: Vec::new(),
            acked: Vec::new(),
        }
    }
}

impl<P> SlotOutcomes<P> {
    /// Takes listener `idx`'s outcome by value, leaving
    /// [`RxOutcome::Idle`] behind.
    ///
    /// Each listener's outcome is consumed exactly once per slot, so
    /// moving the (payload-carrying) frame out beats cloning it on every
    /// successful listen.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn take_rx(&mut self, idx: usize) -> RxOutcome<P> {
        std::mem::replace(&mut self.rx[idx].1, RxOutcome::Idle)
    }
}

/// The shared radio medium.
///
/// Owns its own per-node draw streams ([`DrawStreams`]) so that
/// link-error draws are independent of every node's local randomness —
/// adding a node to a scenario does not perturb the channel noise other
/// nodes experience, and resolving the same listeners in any order
/// produces identical draws.
///
/// # Example
///
/// ```
/// use gtt_net::*;
/// use gtt_sim::{Pcg32, SimTime};
///
/// let topo = TopologyBuilder::new(50.0)
///     .link_model(LinkModel::Perfect)
///     .node(Position::new(0.0, 0.0))
///     .node(Position::new(30.0, 0.0))
///     .build();
/// let mut medium = RadioMedium::new(topo, Pcg32::new(1));
/// let (a, b) = (NodeId::new(0), NodeId::new(1));
/// let ch = PhysicalChannel::new(17);
/// let frame = Frame::new(PacketId::new(0), a, Dest::Unicast(b), SimTime::ZERO, ());
/// let out = medium.resolve_slot(
///     vec![Transmission { channel: ch, frame }],
///     vec![Listener { node: b, channel: ch }],
/// );
/// assert!(matches!(out.rx[0].1, RxOutcome::Received(_)));
/// assert_eq!(out.acked[0], Some(true));
/// ```
#[derive(Debug, Clone)]
pub struct RadioMedium {
    topology: Topology,
    draws: DrawStreams,
    /// Per-slot working memory, reused across slots.
    scratch: MediumScratch,
}

/// Reusable per-slot buffers behind [`RadioMedium::resolve_slot_into`]:
/// the per-channel transmitter index and the per-node transmission
/// index. All state is rebuilt each slot; keeping the allocations alive
/// is what makes steady-state resolution allocation-free.
#[derive(Debug, Clone, Default)]
struct MediumScratch {
    /// `channel number → bucket index + 1` (0 = no transmission on that
    /// channel this slot). 256 entries, allocated on first use; only the
    /// `active` entries are ever non-zero, so per-slot reset is O(active
    /// channels), not O(256).
    chan_map: Vec<u16>,
    /// Distinct channel numbers with ≥ 1 transmission this slot (TSCH
    /// hops over ≤ 16 channels, so this stays tiny).
    active: Vec<u8>,
    /// Per bucket: `(start, len)` span into `grouped`.
    spans: Vec<(u32, u32)>,
    /// Bucket fill cursors for the counting sort.
    cursors: Vec<u32>,
    /// Transmission indices grouped by channel; supply order is preserved
    /// within each bucket so "first audible" matches a full linear scan.
    grouped: Vec<u32>,
    /// Per node: `transmission index + 1` of its transmission this slot
    /// (0 = silent). The O(1) half-duplex check, and what lets a
    /// listener walk its audible row instead of its channel bucket.
    /// Sized on the first slot; only transmitters' entries are ever
    /// non-zero, so per-slot reset is O(transmissions).
    tx_of: Vec<u32>,
    /// Per transmission: whether its unicast destination decoded it —
    /// the only membership question the ACK pass ever asks, collapsing
    /// the old per-transmission `Vec<NodeId>` decode sets.
    dest_decoded: Vec<bool>,
}

impl RadioMedium {
    /// Creates a medium over `topology`, deriving per-node draw streams
    /// from `rng` (see [`DrawStreams::new`]).
    pub fn new(topology: Topology, rng: Pcg32) -> Self {
        let draws = DrawStreams::new(rng, topology.len());
        RadioMedium {
            topology,
            draws,
            scratch: MediumScratch::default(),
        }
    }

    /// The topology this medium resolves over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable topology access (runtime fault injection).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// Resolves one timeslot (owning convenience wrapper around
    /// [`RadioMedium::resolve_slot_into`]).
    ///
    /// # Panics
    ///
    /// Panics if a transmitter or a listener is outside the topology.
    pub fn resolve_slot<P: Clone>(
        &mut self,
        transmissions: Vec<Transmission<P>>,
        listeners: Vec<Listener>,
    ) -> SlotOutcomes<P> {
        let mut out = SlotOutcomes::default();
        self.resolve_slot_into(&transmissions, &listeners, &mut out);
        out
    }

    /// Resolves one timeslot into `out` (cleared first), allocation-free
    /// once the reusable buffers have warmed up.
    ///
    /// For every listener, *in the supplied listener order* (outcome
    /// order matters to callers; the Bernoulli draws themselves are
    /// keyed per node via [`DrawStreams`], so draw results are
    /// independent of listener order): collect the transmissions
    /// on its channel that are audible at its position (interference
    /// range). Zero ⇒ idle; two or more ⇒ collision; exactly one ⇒
    /// decoded iff it is also within *communication* range and the link's
    /// Bernoulli(PRR) draw succeeds. A decoded frame is
    /// [`RxOutcome::Received`] (a clone of the frame) when it is a
    /// broadcast or a unicast to the listener, and the frameless
    /// [`RxOutcome::Overheard`] when it is a unicast to another node.
    /// The forward draw comes first either way, so addressing never
    /// changes a draw.
    ///
    /// The per-listener work is output-sensitive, O(min(bucket, audible
    /// row)): transmissions are grouped by physical channel once (a
    /// counting sort over the ≤ 16 TSCH channels), and each listener
    /// consults only its own channel's bucket — unless its audible row
    /// ([`Topology::audible_neighbors`]) is shorter, in which case it
    /// asks each audible peer whether it transmits on that channel. Both
    /// walks find the same audible set (a node transmits at most once
    /// per slot), hence the same count and, when exactly one is audible,
    /// the same frame. The overwhelmingly common single-transmitter
    /// bucket skips both walks entirely. A listener on a channel with no
    /// transmission is O(1).
    ///
    /// ACKs: a unicast transmission is acknowledged iff its destination
    /// appears among the listeners on the same channel, decoded the frame,
    /// and the reverse-link draw succeeds.
    /// A transmitting node never simultaneously listens — TSCH radios are
    /// half-duplex — so any listener entry with the same id as a
    /// transmitter is resolved as if deaf (collision-free idle) and
    /// flagged by a debug assertion. For the same reason a node
    /// transmits at most once per slot (also debug-asserted).
    ///
    /// # Panics
    ///
    /// Panics if a transmitter or a listener is outside the topology,
    /// whatever else is on the air.
    pub fn resolve_slot_into<P: Clone>(
        &mut self,
        transmissions: &[Transmission<P>],
        listeners: &[Listener],
        out: &mut SlotOutcomes<P>,
    ) {
        let RadioMedium {
            topology,
            draws,
            scratch,
        } = self;
        out.rx.clear();
        out.acked.clear();

        // Group transmissions by channel: stable counting sort, so each
        // bucket preserves supply order ("first audible" is well-defined
        // identically to a full linear scan).
        if scratch.chan_map.is_empty() {
            scratch.chan_map.resize(usize::from(u8::MAX) + 1, 0);
        }
        for ch in scratch.active.drain(..) {
            scratch.chan_map[ch as usize] = 0;
        }
        scratch.spans.clear();
        for t in transmissions {
            let ch = t.channel.number() as usize;
            if scratch.chan_map[ch] == 0 {
                scratch.active.push(ch as u8);
                scratch.spans.push((0, 0));
                scratch.chan_map[ch] = scratch.spans.len() as u16;
            }
            scratch.spans[scratch.chan_map[ch] as usize - 1].1 += 1;
        }
        let mut start = 0u32;
        scratch.cursors.clear();
        for span in &mut scratch.spans {
            span.0 = start;
            scratch.cursors.push(start);
            start += span.1;
        }
        scratch.grouped.clear();
        scratch.grouped.resize(transmissions.len(), 0);
        scratch.dest_decoded.clear();
        scratch.dest_decoded.resize(transmissions.len(), false);
        if scratch.tx_of.len() < topology.len() {
            scratch.tx_of.resize(topology.len(), 0);
        }
        for (i, t) in transmissions.iter().enumerate() {
            let bucket = scratch.chan_map[t.channel.number() as usize] as usize - 1;
            scratch.grouped[scratch.cursors[bucket] as usize] = i as u32;
            scratch.cursors[bucket] += 1;
            let entry = &mut scratch.tx_of[t.frame.src.index()];
            debug_assert_eq!(*entry, 0, "a node transmits at most once per slot");
            *entry = i as u32 + 1;
        }

        debug_assert!(
            listeners.iter().all(|l| scratch.tx_of[l.node.index()] == 0),
            "a node cannot transmit and listen in the same slot (half-duplex)"
        );

        for listener in listeners {
            if scratch.tx_of[listener.node.index()] != 0 {
                out.rx.push((listener.node, RxOutcome::Idle));
                continue;
            }
            let bucket = scratch.chan_map[listener.channel.number() as usize];
            let outcome = if bucket == 0 {
                // Nothing transmits on the listened channel.
                RxOutcome::Idle
            } else {
                let (start, len) = scratch.spans[bucket as usize - 1];
                let (audible, first) = if len == 1 {
                    // Single-transmitter fast path: no counting scan.
                    let i = scratch.grouped[start as usize] as usize;
                    if topology.audible(transmissions[i].frame.src, listener.node) {
                        (1, i)
                    } else {
                        (0, usize::MAX)
                    }
                } else if topology.audible_neighbors(listener.node).len() < len as usize {
                    // Row walk: fewer audible peers than transmissions on
                    // the channel, so ask each peer instead. `first` is
                    // read only when exactly one transmission is audible,
                    // so the order peers are met in does not matter.
                    let mut audible = 0usize;
                    let mut first = usize::MAX;
                    for peer in topology.audible_neighbors(listener.node) {
                        let t = scratch.tx_of[peer.index()] as usize;
                        if t != 0 && transmissions[t - 1].channel == listener.channel {
                            audible += 1;
                            first = t - 1;
                        }
                    }
                    (audible, first)
                } else {
                    let mut audible = 0usize;
                    let mut first = usize::MAX;
                    for &gi in &scratch.grouped[start as usize..(start + len) as usize] {
                        let i = gi as usize;
                        if topology.audible(transmissions[i].frame.src, listener.node) {
                            audible += 1;
                            if audible == 1 {
                                first = i;
                            }
                        }
                    }
                    (audible, first)
                };
                match audible {
                    0 => RxOutcome::Idle,
                    1 => {
                        let tx = &transmissions[first];
                        let prr = topology.prr(tx.frame.src, listener.node);
                        // Forward draw: keyed by the listening node.
                        if prr > 0.0 && draws.gen_bool(listener.node, prr) {
                            match tx.frame.dst {
                                Dest::Unicast(dst) if dst != listener.node => RxOutcome::Overheard,
                                Dest::Unicast(_) => {
                                    scratch.dest_decoded[first] = true;
                                    RxOutcome::Received(tx.frame.clone())
                                }
                                Dest::Broadcast => RxOutcome::Received(tx.frame.clone()),
                            }
                        } else {
                            RxOutcome::Faded
                        }
                    }
                    n => RxOutcome::Collision(n),
                }
            };
            out.rx.push((listener.node, outcome));
        }

        for (i, t) in transmissions.iter().enumerate() {
            let acked = match t.frame.dst {
                Dest::Broadcast => None,
                Dest::Unicast(dst) => {
                    if !scratch.dest_decoded[i] {
                        Some(false)
                    } else {
                        // Reverse draw: keyed by the transmitting node
                        // (half-duplex, so it cannot also have drawn as
                        // a listener this slot).
                        let reverse_prr = topology.prr(dst, t.frame.src);
                        Some(reverse_prr > 0.0 && draws.gen_bool(t.frame.src, reverse_prr))
                    }
                }
            };
            out.acked.push(acked);
        }

        for t in transmissions {
            scratch.tx_of[t.frame.src.index()] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::PacketId;
    use crate::geometry::Position;
    use crate::topology::{LinkModel, TopologyBuilder};
    use gtt_sim::SimTime;

    const CH: PhysicalChannel = PhysicalChannel::new(17);
    const CH2: PhysicalChannel = PhysicalChannel::new(23);

    fn frame(src: u16, dst: Dest) -> Frame<u8> {
        Frame::new(PacketId::new(0), NodeId::new(src), dst, SimTime::ZERO, 0)
    }

    fn tx(src: u16, dst: Dest, ch: PhysicalChannel) -> Transmission<u8> {
        Transmission {
            channel: ch,
            frame: frame(src, dst),
        }
    }

    fn listener(node: u16, ch: PhysicalChannel) -> Listener {
        Listener {
            node: NodeId::new(node),
            channel: ch,
        }
    }

    /// 0 --- 1 --- 2 --- 3 in a line, 30 m apart, 35 m range: only
    /// adjacent nodes hear each other.
    fn line4() -> Topology {
        TopologyBuilder::new(35.0)
            .link_model(LinkModel::Perfect)
            .nodes((0..4).map(|i| Position::new(i as f64 * 30.0, 0.0)))
            .build()
    }

    #[test]
    fn clean_unicast_is_received_and_acked() {
        let mut m = RadioMedium::new(line4(), Pcg32::new(1));
        let out = m.resolve_slot(
            vec![tx(0, Dest::Unicast(NodeId::new(1)), CH)],
            vec![listener(1, CH)],
        );
        assert!(matches!(out.rx[0].1, RxOutcome::Received(_)));
        assert_eq!(out.acked, vec![Some(true)]);
    }

    #[test]
    fn unicast_is_received_by_its_destination_and_overheard_by_others() {
        // 1 → 0 on the line; nodes 0 and 2 both hear node 1. Lossy links
        // make every listener draw, and a medium without the overhearer
        // is the reference for the destination's side.
        let lossy = || {
            TopologyBuilder::new(35.0)
                .link_model(LinkModel::Fixed(0.8))
                .nodes((0..4).map(|i| Position::new(i as f64 * 30.0, 0.0)))
                .build()
        };
        let mut both = RadioMedium::new(lossy(), Pcg32::new(5));
        let mut alone = RadioMedium::new(lossy(), Pcg32::new(5));
        let unicast = || vec![tx(1, Dest::Unicast(NodeId::new(0)), CH)];
        let (mut received, mut overheard) = (0, 0);
        for _ in 0..200 {
            let out = both.resolve_slot(unicast(), vec![listener(0, CH), listener(2, CH)]);
            let reference = alone.resolve_slot(unicast(), vec![listener(0, CH)]);
            assert_eq!(out.rx[0], reference.rx[0], "destination outcome moved");
            assert_eq!(out.acked, reference.acked, "destination ACK moved");
            match &out.rx[0].1 {
                RxOutcome::Received(f) => {
                    assert_eq!(f.src, NodeId::new(1));
                    received += 1;
                }
                other => assert_eq!(*other, RxOutcome::Faded),
            }
            match out.rx[1].1 {
                RxOutcome::Overheard => overheard += 1,
                ref other => assert_eq!(*other, RxOutcome::Faded),
            }
        }
        assert!(
            received > 100 && overheard > 100,
            "{received} / {overheard}"
        );
    }

    #[test]
    fn idle_when_nothing_on_channel() {
        let mut m = RadioMedium::new(line4(), Pcg32::new(1));
        let out = m.resolve_slot(
            vec![tx(0, Dest::Unicast(NodeId::new(1)), CH)],
            vec![listener(1, CH2)],
        );
        assert_eq!(out.rx[0].1, RxOutcome::Idle);
        assert_eq!(out.acked, vec![Some(false)]);
    }

    #[test]
    fn out_of_range_is_idle() {
        let mut m = RadioMedium::new(line4(), Pcg32::new(1));
        let out = m.resolve_slot(
            vec![tx(0, Dest::Unicast(NodeId::new(3)), CH)],
            vec![listener(3, CH)],
        );
        assert_eq!(out.rx[0].1, RxOutcome::Idle);
        assert_eq!(out.acked, vec![Some(false)]);
    }

    #[test]
    fn hidden_terminal_collides_at_middle_listener() {
        // Nodes 0 and 2 cannot hear each other but node 1 hears both —
        // paper §III problem 4.
        let mut m = RadioMedium::new(line4(), Pcg32::new(1));
        let out = m.resolve_slot(
            vec![
                tx(0, Dest::Unicast(NodeId::new(1)), CH),
                tx(2, Dest::Unicast(NodeId::new(1)), CH),
            ],
            vec![listener(1, CH)],
        );
        assert_eq!(out.rx[0].1, RxOutcome::Collision(2));
        assert_eq!(out.acked, vec![Some(false), Some(false)]);
    }

    #[test]
    fn different_channels_do_not_collide() {
        let mut m = RadioMedium::new(line4(), Pcg32::new(1));
        let out = m.resolve_slot(
            vec![
                tx(0, Dest::Unicast(NodeId::new(1)), CH),
                tx(2, Dest::Unicast(NodeId::new(3)), CH2),
            ],
            vec![listener(1, CH), listener(3, CH2)],
        );
        assert!(matches!(out.rx[0].1, RxOutcome::Received(_)));
        assert!(matches!(out.rx[1].1, RxOutcome::Received(_)));
        assert_eq!(out.acked, vec![Some(true), Some(true)]);
    }

    #[test]
    fn broadcast_reaches_all_and_is_never_acked() {
        let mut m = RadioMedium::new(line4(), Pcg32::new(1));
        let out = m.resolve_slot(
            vec![tx(1, Dest::Broadcast, CH)],
            vec![listener(0, CH), listener(2, CH), listener(3, CH)],
        );
        assert!(matches!(out.rx[0].1, RxOutcome::Received(_)));
        assert!(matches!(out.rx[1].1, RxOutcome::Received(_)));
        assert_eq!(out.rx[2].1, RxOutcome::Idle, "node 3 is out of range");
        assert_eq!(out.acked, vec![None]);
    }

    #[test]
    fn lossy_link_fades_at_expected_rate() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let topo = TopologyBuilder::new(100.0)
            .link_model(LinkModel::Perfect)
            .node(Position::new(0.0, 0.0))
            .node(Position::new(10.0, 0.0))
            .link_prr(a, b, 0.7)
            .build();
        let mut m = RadioMedium::new(topo, Pcg32::new(42));
        let mut received = 0;
        let trials = 5_000;
        for _ in 0..trials {
            let out = m.resolve_slot(vec![tx(0, Dest::Unicast(b), CH)], vec![listener(1, CH)]);
            if matches!(out.rx[0].1, RxOutcome::Received(_)) {
                received += 1;
            }
        }
        let rate = received as f64 / trials as f64;
        assert!((rate - 0.7).abs() < 0.02, "PRR draw rate {rate} ≉ 0.7");
    }

    #[test]
    fn ack_subject_to_reverse_prr() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let topo = TopologyBuilder::new(100.0)
            .link_model(LinkModel::Perfect)
            .node(Position::new(0.0, 0.0))
            .node(Position::new(10.0, 0.0))
            .link_prr(a, b, 1.0)
            .link_prr(b, a, 0.5)
            .build();
        let mut m = RadioMedium::new(topo, Pcg32::new(7));
        let mut acked = 0;
        let trials = 4_000;
        for _ in 0..trials {
            let out = m.resolve_slot(vec![tx(0, Dest::Unicast(b), CH)], vec![listener(1, CH)]);
            if out.acked[0] == Some(true) {
                acked += 1;
            }
        }
        let rate = acked as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.03, "ACK rate {rate} ≉ 0.5");
    }

    #[test]
    fn interference_range_corrupts_without_decoding() {
        // 0 at x=0, 1 at x=30 (in range of 0), jammer 2 at x=80:
        // out of comm range of 1 (50 m > 35 m)… with interference factor
        // 2.0 the jammer is audible at 1 (50 ≤ 70) and collides.
        let topo = TopologyBuilder::new(35.0)
            .link_model(LinkModel::Perfect)
            .interference_factor(2.0)
            .nodes([
                Position::new(0.0, 0.0),
                Position::new(30.0, 0.0),
                Position::new(80.0, 0.0),
            ])
            .build();
        let mut m = RadioMedium::new(topo, Pcg32::new(3));
        let out = m.resolve_slot(
            vec![
                tx(0, Dest::Unicast(NodeId::new(1)), CH),
                tx(2, Dest::Broadcast, CH),
            ],
            vec![listener(1, CH)],
        );
        assert_eq!(out.rx[0].1, RxOutcome::Collision(2));
    }

    #[test]
    fn multiple_channels_active_in_one_slot() {
        // Three concurrent transmissions on three channels in a clique:
        // each listener decodes exactly its own channel's transmitter.
        let topo = TopologyBuilder::new(100.0)
            .link_model(LinkModel::Perfect)
            .nodes((0..6).map(|i| Position::new(i as f64 * 5.0, 0.0)))
            .build();
        let ch3 = PhysicalChannel::new(11);
        let mut m = RadioMedium::new(topo, Pcg32::new(1));
        let out = m.resolve_slot(
            vec![
                tx(0, Dest::Unicast(NodeId::new(3)), CH),
                tx(1, Dest::Unicast(NodeId::new(4)), CH2),
                tx(2, Dest::Unicast(NodeId::new(5)), ch3),
            ],
            vec![listener(3, CH), listener(4, CH2), listener(5, ch3)],
        );
        for (i, (_, rx)) in out.rx.iter().enumerate() {
            let frame = rx.frame().unwrap_or_else(|| panic!("listener {i} idle"));
            assert_eq!(frame.src, NodeId::new(i as u16), "wrong channel bucket");
        }
        assert_eq!(out.acked, vec![Some(true), Some(true), Some(true)]);
    }

    #[test]
    fn listener_on_channel_with_no_transmitter_is_idle() {
        let mut m = RadioMedium::new(line4(), Pcg32::new(1));
        let out = m.resolve_slot(
            vec![tx(0, Dest::Broadcast, CH)],
            vec![listener(1, CH2), listener(2, CH2)],
        );
        assert_eq!(out.rx[0].1, RxOutcome::Idle);
        assert_eq!(out.rx[1].1, RxOutcome::Idle);
    }

    #[test]
    fn three_colliding_transmitters_on_one_channel() {
        // A clique of four: three transmitters on one channel collide at
        // the fourth node with the exact audible count.
        let topo = TopologyBuilder::new(100.0)
            .link_model(LinkModel::Perfect)
            .nodes((0..4).map(|i| Position::new(i as f64 * 5.0, 0.0)))
            .build();
        let mut m = RadioMedium::new(topo, Pcg32::new(1));
        let out = m.resolve_slot(
            vec![
                tx(0, Dest::Unicast(NodeId::new(3)), CH),
                tx(1, Dest::Broadcast, CH),
                tx(2, Dest::Unicast(NodeId::new(3)), CH),
            ],
            vec![listener(3, CH)],
        );
        assert_eq!(out.rx[0].1, RxOutcome::Collision(3));
        assert_eq!(out.acked, vec![Some(false), None, Some(false)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn listener_outside_the_topology_panics_on_a_quiet_channel() {
        let mut m = RadioMedium::new(line4(), Pcg32::new(1));
        m.resolve_slot(vec![tx(0, Dest::Broadcast, CH)], vec![listener(9, CH2)]);
    }

    #[test]
    fn resolve_slot_into_reuses_buffers_across_slots() {
        // Back-to-back slots through one reused SlotOutcomes: stale
        // outcomes from the previous slot must never leak through.
        let mut m = RadioMedium::new(line4(), Pcg32::new(1));
        let mut out = SlotOutcomes::default();
        m.resolve_slot_into(
            &[tx(0, Dest::Unicast(NodeId::new(1)), CH)],
            &[listener(1, CH)],
            &mut out,
        );
        assert!(matches!(out.rx[0].1, RxOutcome::Received(_)));
        assert_eq!(out.acked, vec![Some(true)]);
        m.resolve_slot_into(
            &[tx(2, Dest::Broadcast, CH2)],
            &[listener(1, CH), listener(3, CH2)],
            &mut out,
        );
        assert_eq!(out.rx.len(), 2);
        assert_eq!(out.rx[0].1, RxOutcome::Idle, "old channel must be quiet");
        assert!(matches!(out.rx[1].1, RxOutcome::Received(_)));
        assert_eq!(out.acked, vec![None]);
    }

    #[test]
    fn take_rx_moves_outcome_out() {
        let mut m = RadioMedium::new(line4(), Pcg32::new(1));
        let mut out = m.resolve_slot(
            vec![tx(0, Dest::Unicast(NodeId::new(1)), CH)],
            vec![listener(1, CH)],
        );
        let taken = out.take_rx(0);
        assert!(matches!(taken, RxOutcome::Received(_)));
        assert_eq!(out.rx[0].1, RxOutcome::Idle, "slot left empty behind");
        assert_eq!(out.rx[0].0, NodeId::new(1), "listener id untouched");
    }

    #[test]
    fn rx_outcome_helpers() {
        let f = frame(0, Dest::Broadcast);
        let r: RxOutcome<u8> = RxOutcome::Received(f);
        assert!(r.frame().is_some());
        assert!(r.heard_energy());
        assert!(!RxOutcome::<u8>::Idle.heard_energy());
        assert!(RxOutcome::<u8>::Collision(2).heard_energy());
        assert!(RxOutcome::<u8>::Faded.frame().is_none());
        assert!(RxOutcome::<u8>::Overheard.heard_energy());
        assert!(RxOutcome::<u8>::Overheard.frame().is_none());
    }
}
