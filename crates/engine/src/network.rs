//! The event-driven network engine.
//!
//! The engine is slot-synchronous in *semantics* — all radio activity is
//! resolved per TSCH timeslot — but event-driven in *execution*: a
//! binary-heap wake-up queue (keyed by raw `(ASN, node index)`; same-slot
//! entries are popped together, then sorted and deduplicated into node-id
//! order) merges each MAC's transmission opportunities
//! ([`next_radio_wake`](TschMac::next_radio_wake)) with the node's timer
//! deadlines, and the clock jumps straight to the next slot in which
//! anything can *happen*. Idle listening is not an event: a scheduled
//! listen with nothing audible resolves to `Idle` without touching the
//! medium RNG or any state beyond two duty-cycle counters, so *passive
//! listeners* — nodes whose listen slots the MAC's cyclic-union Rx index
//! enumerates exactly — are not woken for their Rx slots at all.
//! Instead, each planned transmission wakes exactly the audible
//! neighbors listening on its channel: the engine walks
//! [`Topology::audible_neighbors`] and reads each peer's next listen
//! slot and channel offset from a dense probe index, which
//! [`TschMac::next_listen`] refills only once that slot has passed or
//! the peer was processed. The MAC owns the accounting of every slot
//! the engine skips: its counters and its shared-cell backoff window
//! cover the slots up to a watermark, and [`TschMac::settle_to`]
//! advances it over skipped sleeps, idle listens and backoff drains in
//! closed form. `plan_slot` and `finish_probed_listen` settle first;
//! the engine settles a due node before upkeep can mutate its queues or
//! schedule, and every alive node at a sync. A woken listen that
//! decodes nothing for its node (a collision, a fade, or a unicast for
//! another node, [`RxOutcome::Overheard`]) is lazy too: it adds one to
//! a dense per-node count and never touches the node, and
//! [`Network::sync_accounting`] moves those listens from idle to busy
//! ([`TschMac::account_busy_listens`]). So the MAC counters are exact
//! only after a sync, which every public stepping call runs on return.
//! Multi-slotframe schedules (Orchestra) are covered by the same
//! machinery: the Rx index merges the per-frame wake chains by exact
//! cyclic arithmetic, so Orchestra nodes sleep through inaudible Rx
//! slots just like GT-TSCH's single-slotframe nodes. The control
//! plane is fully deadline-driven — there is no periodic RPL poll;
//! wake-ups are exclusively tx opportunities, audible listens and exact
//! layer deadlines. The pre-refactor exhaustive loop survives as an oracle
//! behind [`NetworkBuilder::naive_stepping`]: both cores must produce
//! byte-identical [`NetworkReport`]s for the same seed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gtt_mac::{Asn, BusyListens, MacCounters, SlotAction, SlotResult, TschMac};
use gtt_metrics::PacketTracker;
use gtt_net::{
    Dest, Frame, Listener, NodeId, PacketId, RadioMedium, RxOutcome, SlotOutcomes, Topology,
    Transmission,
};
use gtt_rpl::RplNode;
use gtt_sim::{Pcg32, SimDuration, SimTime};
use gtt_sixtop::SixtopLayer;

use crate::config::EngineConfig;
use crate::node::{AppTraffic, Node, UpkeepOutput};
use crate::payload::Payload;
use crate::report::NetworkReport;
use crate::scheduler::SchedulingFunction;

/// Per-node counter snapshot taken when measurement starts, so reports
/// cover only the measurement window.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Snapshot {
    pub counters: MacCounters,
    pub queue_loss: u64,
    pub routing_drops: u64,
}

/// One entry of the engine's wake-up min-heap: `(wake ASN, node index)`.
///
/// Keyed directly by slot number — the slot clock *is* simulation time
/// (`SimTime = ASN × slot_duration`), and raw `u64` keys keep the heap's
/// compare/sift hot path free of time-unit conversions. Duplicate and
/// stale entries are allowed (they cost one pop and a dedup); correctness
/// only requires that no needed wake-up is *missing*.
type WakeEntry = Reverse<(u64, u32)>;

/// A due node's planned radio action before listener indices are known.
#[derive(Debug, Clone, Copy)]
enum Pre {
    /// Transmitting; index into the slot's transmission vec.
    Tx(usize),
    /// Listening on this channel.
    Listen(gtt_net::PhysicalChannel),
    /// Radio off.
    Sleep,
}

/// A processed node's action keyed into the medium's outcome vectors.
#[derive(Debug, Clone, Copy)]
enum Planned {
    Tx(usize),
    /// A due node's scheduled listen.
    Listen(usize),
    /// A probed passive listener's listen (no plan/finish round-trip).
    ProbedListen(usize),
    Sleep,
}

/// One row of the engine's dense listener-probe index: the node's next
/// listen slot and the channel offset it will use there (physical
/// channel = shared hopping sequence at that slot). Rows go stale when
/// their node is *processed* — the only way its schedule can change —
/// and are recomputed lazily on the next probe; until then every probe
/// of a sleeping peer is an O(1) array read that never touches the node.
#[derive(Debug, Clone, Copy)]
struct ProbeEntry {
    /// Raw ASN of the next listen ([`u64::MAX`] = never listens).
    next: u64,
    /// Channel offset of that listen.
    offset: gtt_mac::ChannelOffset,
}

impl ProbeEntry {
    const NEVER: ProbeEntry = ProbeEntry {
        next: u64::MAX,
        offset: gtt_mac::ChannelOffset::new(0),
    };
}

/// Per-slot working memory, reused across slots so the hot loop does not
/// allocate. Taken out of the [`Network`] for the duration of a slot
/// (`std::mem::take`) to keep the borrow checker out of the hot path.
#[derive(Debug, Default)]
struct SlotScratch {
    /// Due node indices (sorted, deduplicated, alive).
    due: Vec<usize>,
    /// Planned actions of the due nodes, in node order.
    pre_due: Vec<(usize, Pre)>,
    /// Probed passive listeners and their listen channels (sorted by
    /// node index).
    extras: Vec<(usize, gtt_net::PhysicalChannel)>,
    /// Merged actions of every processed node, in node order.
    planned: Vec<(usize, Planned)>,
    /// Processed nodes whose wake-up chain must be re-queued.
    resched: Vec<usize>,
    /// The slot's transmissions, in due (= node) order.
    transmissions: Vec<Transmission<Payload>>,
    /// The slot's listeners, in node order.
    listeners: Vec<Listener>,
    /// The medium's per-listener / per-transmission outcomes.
    outcomes: SlotOutcomes<Payload>,
    /// Schedule versions of the due nodes (aligned with `due`), captured
    /// before any processing so phase 5 can invalidate exactly the
    /// probe-index rows whose schedule actually changed.
    due_versions: Vec<u64>,
}

/// A simulated TSCH network.
///
/// Construct with [`Network::builder`], drive with [`Network::run_for`] /
/// [`Network::run_slots`], bracket the steady state with
/// [`Network::start_measurement`] / [`Network::finish_measurement`], then
/// read the [`NetworkReport`].
pub struct Network {
    config: EngineConfig,
    pub(crate) nodes: Vec<Node>,
    medium: RadioMedium,
    tracker: PacketTracker,
    asn: Asn,
    pub(crate) measure_start: Option<SimTime>,
    pub(crate) measure_end: Option<SimTime>,
    pub(crate) snapshots: Vec<Snapshot>,
    /// The event-driven core's clock: pending per-node wake-ups.
    wake: BinaryHeap<WakeEntry>,
    /// Whether the wake queue has been seeded (done lazily on the first
    /// stepping call, after scheduler `init` hooks installed cells).
    wake_init: bool,
    /// Per-node "due or already probed this slot" stamp (`ASN + 1`; 0 =
    /// never) for the listener probe — stamping instead of clearing
    /// makes the per-slot reset free.
    wake_scratch: Vec<u64>,
    /// Dense listener-probe index, one [`ProbeEntry`] per node.
    probe_index: Vec<ProbeEntry>,
    /// Per-node staleness of `probe_index` (set when the node is
    /// processed, killed or externally mutated).
    probe_stale: Vec<bool>,
    /// Per-node authoritative wake slot: the raw ASN of the *latest*
    /// entry pushed for the node (`u64::MAX` = none). Every state change
    /// that can move a node's wake re-pushes and updates this, so a
    /// popped entry whose ASN differs is provably superseded and is
    /// dropped in O(1) — without this, deadlines that move later (a DIO
    /// refreshing the earliest-expiry neighbor, an EB re-arm) leave a
    /// trail of stale wake-ups that each cost a full no-op upkeep.
    wake_slot: Vec<u64>,
    /// Per-node probed listens that decoded nothing for the node, not
    /// yet folded into its MAC. Lazy accounting counts each of them as
    /// an idle listen; [`Network::sync_accounting`] and
    /// [`Network::kill_node`] move them to busy.
    busy_listens: Vec<BusyListens>,
    /// Per-node slot of the *timer* component of the last scheduled
    /// wake (`u64::MAX` = no timer pending). Deadlines only move while a
    /// node is processed, and every processing reschedules, so a wake
    /// strictly before this slot is a pure radio wake-up whose upkeep
    /// pass is a provable no-op — skipped without touching the node.
    timer_wake: Vec<u64>,
    /// Per-slot vectors, reused across slots.
    scratch: SlotScratch,
    /// Installed frame tap plus its reusable encode buffer (`None` =
    /// tracing off; the slot path then pays exactly one is-some check
    /// and allocates nothing — pinned by `tests/zero_alloc.rs`).
    tap: Option<TapState>,
    /// Use the exhaustive per-slot oracle loop instead of the wake queue.
    naive: bool,
}

/// An installed [`FrameTap`](gtt_net::FrameTap) and the wire-encoding
/// buffer it reuses across records (grown once to the largest frame,
/// then allocation-free in steady state).
struct TapState {
    sink: Box<dyn gtt_net::FrameTap>,
    buf: Vec<u8>,
}

/// Builder for [`Network`] (C-BUILDER).
pub struct NetworkBuilder {
    topology: Topology,
    config: EngineConfig,
    roots: Vec<NodeId>,
    traffic_ppm: Option<f64>,
    factory: Option<SchedulerFactory>,
    naive: bool,
}

/// Produces one scheduling function per node; called with the node id
/// and whether the node is a DODAG root.
pub type SchedulerFactory = Box<dyn Fn(NodeId, bool) -> Box<dyn SchedulingFunction>>;

impl Network {
    /// Starts building a network over `topology`.
    pub fn builder(topology: Topology, config: EngineConfig) -> NetworkBuilder {
        NetworkBuilder {
            topology,
            config,
            roots: Vec::new(),
            traffic_ppm: None,
            factory: None,
            naive: false,
        }
    }

    /// Current simulation time (start of the upcoming slot).
    pub fn now(&self) -> SimTime {
        self.asn.start_time()
    }

    /// The upcoming absolute slot number.
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The network topology (read-only; mutate through the
    /// fault-injection methods like [`Network::set_link_prr`] so the
    /// engine can keep its bookkeeping consistent).
    pub fn topology(&self) -> &Topology {
        self.medium.topology()
    }

    /// The end-to-end packet tracker.
    pub fn tracker(&self) -> &PacketTracker {
        &self.tracker
    }

    /// Fraction of non-root nodes that joined the DODAG.
    pub fn join_ratio(&self) -> f64 {
        let non_roots: Vec<_> = self.nodes.iter().filter(|n| !n.rpl.is_root()).collect();
        if non_roots.is_empty() {
            return 1.0;
        }
        non_roots.iter().filter(|n| n.rpl.is_joined()).count() as f64 / non_roots.len() as f64
    }

    /// Runs until simulated time reaches `end`, skipping directly from
    /// wake-up to wake-up.
    ///
    /// Equivalent to stepping slot by slot while `now() < end`, but slots
    /// in which every node sleeps cost nothing: the ASN jumps to the next
    /// slot in which at least one node transmits, listens or runs a due
    /// timer. Ends with `now() >= end` on the first slot boundary at or
    /// after `end`, exactly like the slot-by-slot loop.
    pub fn run_until(&mut self, end: SimTime) {
        if self.naive {
            while self.now() < end {
                self.step_naive();
            }
            return;
        }
        self.ensure_wake_queue();
        // `now() < end` ⟺ `asn < at_or_after(end)`: the loop and the heap
        // work in raw slot numbers, no time conversion per iteration.
        let end_asn = Asn::at_or_after(end).raw();
        let mut s = std::mem::take(&mut self.scratch);
        while self.asn.raw() < end_asn {
            let Some(&Reverse((wake_asn, _))) = self.wake.peek() else {
                // Nothing will ever wake again: fast-forward to the end.
                self.asn = Asn::new(end_asn);
                break;
            };
            let wake_asn = wake_asn.max(self.asn.raw());
            if wake_asn >= end_asn {
                self.asn = Asn::new(end_asn);
                break;
            }
            self.asn = Asn::new(wake_asn);
            self.fill_due(&mut s.due);
            // Empty when every due entry belonged to a dead node; the
            // slot is then an ordinary sleep/idle-listen slot.
            if !s.due.is_empty() {
                self.process_slot(&mut s);
                self.asn = self.asn.next();
                for &i in &s.resched {
                    self.schedule_node_wake(i);
                }
            } else {
                self.asn = self.asn.next();
            }
        }
        self.scratch = s;
        self.sync_accounting();
    }

    /// Installs (or, with `None`, removes) the frame tap: an observer
    /// driven once per resolved transmission with the frame's encoded
    /// IEEE 802.15.4 bytes and slot metadata (see
    /// [`gtt_net::FrameTap`]).
    ///
    /// Taps are provably inert: the report is byte-identical with the
    /// tap installed, absent, or swapped, and with no tap installed the
    /// slot path performs no extra work beyond one pointer check. The
    /// record stream is globally slot-ordered and a pure function of the
    /// experiment.
    pub fn set_frame_tap(&mut self, tap: Option<Box<dyn gtt_net::FrameTap>>) {
        self.tap = tap.map(|sink| TapState {
            sink,
            buf: Vec::new(),
        });
    }

    /// Whether a frame tap is currently installed.
    pub fn frame_tap_installed(&self) -> bool {
        self.tap.is_some()
    }

    /// Feeds every transmission of the just-resolved slot to the tap,
    /// in transmitter-id order (the transmission vec is built in node
    /// order). Off the hot path: callers check `tap.is_some()` first.
    #[cold]
    fn drive_tap(&mut self, transmissions: &[Transmission<Payload>], acked: &[Option<bool>]) {
        let asn = self.asn;
        let time = self.now();
        let Some(tap) = self.tap.as_mut() else {
            return;
        };
        for (t, tx) in transmissions.iter().enumerate() {
            crate::wire::encode_frame(&tx.frame, asn, &mut tap.buf);
            tap.sink.on_transmission(&gtt_net::TapRecord {
                asn: asn.raw(),
                time,
                channel: tx.channel,
                src: tx.frame.src,
                dst: tx.frame.dst,
                packet: tx.frame.id,
                acked: acked[t],
                bytes: &tap.buf,
            });
        }
    }

    /// Runs `slots` timeslots.
    pub fn run_slots(&mut self, slots: u64) {
        let end = (self.asn + slots).start_time();
        self.run_until(end);
    }

    /// Runs for (at least) the given simulated duration.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.run_until(self.now() + duration);
    }

    /// One slot of the pre-refactor exhaustive loop: every alive node
    /// runs upkeep and plans the slot, whether or not anything is due.
    /// Kept as the equivalence oracle for the event-driven core. (With
    /// every alive node already due, the listener probe inside
    /// [`Network::process_slot`] finds nothing to add, so this *is* the
    /// old exhaustive loop.)
    fn step_naive(&mut self) {
        let mut s = std::mem::take(&mut self.scratch);
        s.due.clear();
        s.due
            .extend((0..self.nodes.len()).filter(|&i| self.nodes[i].alive));
        self.process_slot(&mut s);
        self.scratch = s;
        self.asn = self.asn.next();
    }

    /// Runs one timeslot for `s.due` (sorted, deduplicated, alive node
    /// indices), plus any passive listener a planned transmission is
    /// audible to. Leaves the processed nodes that need a fresh wake-up
    /// queued in `s.resched` (see phase 5). Nodes not processed at all
    /// provably either sleep or idle-listen this slot — both are pure
    /// counter updates, settled lazily by [`TschMac::settle_to`].
    fn process_slot(&mut self, s: &mut SlotScratch) {
        let now = self.now();
        let asn_raw = self.asn.raw();
        debug_assert!(s.due.windows(2).all(|w| w[0] < w[1]), "due not sorted");

        // Phase 0+1: settle the skipped slots, then run timers, control
        // plane and application for the due nodes (in node order — packet
        // ids are handed out here).
        s.due_versions.clear();
        for &i in &s.due {
            s.due_versions.push(self.nodes[i].mac.schedule().version());
            // Before upkeep can mutate the queues and schedule the
            // settlement's closed forms count over.
            self.nodes[i].mac.settle_to(self.asn);
            // Upkeep is a provable no-op strictly before the node's
            // earliest deadline (every layer early-outs; no RNG draw, no
            // state change), so pure radio wake-ups skip the whole pass
            // — the oracle core runs it exhaustively and observes the
            // same nothing. `timer_wake` is the rounded deadline slot
            // recorded at scheduling time; deadlines cannot move without
            // a processing that re-records it.
            if self.naive || asn_raw >= self.timer_wake[i] {
                let output = self.nodes[i].upkeep(now);
                self.apply_upkeep(i, output, now);
            }
        }

        // Phase 2: every due MAC plans its slot, timer-only wake-ups
        // included. Probed listeners never transmit, so the transmission
        // vec — built in due (= node) order — is already in its final
        // order here.
        s.transmissions.clear();
        s.pre_due.clear();
        for &i in &s.due {
            match self.nodes[i].mac.plan_slot(self.asn) {
                SlotAction::Sleep => s.pre_due.push((i, Pre::Sleep)),
                SlotAction::Transmit { channel, frame, .. } => {
                    s.pre_due.push((i, Pre::Tx(s.transmissions.len())));
                    s.transmissions.push(Transmission { channel, frame });
                }
                SlotAction::Listen { channel, .. } => s.pre_due.push((i, Pre::Listen(channel))),
            }
        }

        // Phase 2b: planned transmissions wake the passive listeners that
        // could hear them. Only listeners with something audible can
        // touch the medium RNG or receive; everyone else's listen is an
        // `Idle` counter update, left to lazy accounting. A node beyond
        // the MAC's cyclic-union caps (a hand-built schedule; every
        // in-repo one, Orchestra's three slotframes included, is within
        // them) is woken at every active slot, so it is already in `due`
        // whenever it listens, and probing only the others is
        // exhaustive. Audibility is probed from `frame.src`, the same
        // field the medium resolves against. Each audible peer is probed
        // at most once per slot, no matter how many transmissions can
        // reach it (the visited bitset dedups the neighborhood walk), and
        // the common "peer sleeps" answer comes from the dense probe
        // index without touching the peer at all: a row only needs
        // recomputing when the cached listen slot has passed or the node
        // was processed since. A peer listening this slot is matched
        // against only the transmissions on *its* channel.
        s.extras.clear();
        if !s.transmissions.is_empty() {
            let asn = self.asn;
            let stamp = asn_raw + 1; // 0 = never stamped
            let topology = self.medium.topology();
            let nodes = &mut self.nodes;
            let visited = &mut self.wake_scratch;
            let probe = &mut self.probe_index;
            let stale = &mut self.probe_stale;
            // With a single transmission each peer is visited once, so
            // only the due-node marks are needed in the stamp array.
            let multi_tx = s.transmissions.len() > 1;
            for &(i, _) in &s.pre_due {
                visited[i] = stamp;
            }
            for t in &s.transmissions {
                for &peer in topology.audible_neighbors(t.frame.src) {
                    let j = peer.index();
                    if visited[j] == stamp {
                        continue;
                    }
                    if multi_tx {
                        visited[j] = stamp;
                    }
                    let mut entry = probe[j];
                    if stale[j] || asn_raw > entry.next {
                        // Recompute: the node was processed (schedule may
                        // have moved) or the cached listen slot passed —
                        // the latter, by far the common case, can trust
                        // the node's listen union without a staleness
                        // check. Dead nodes pin a NEVER row — `kill_node`
                        // marks them stale exactly once.
                        let next = if !nodes[j].alive {
                            None
                        } else if stale[j] {
                            nodes[j].mac.next_listen(asn)
                        } else {
                            nodes[j].mac.next_listen_cached(asn)
                        };
                        entry = match next {
                            Some((l, offset)) => ProbeEntry {
                                next: l.raw(),
                                offset,
                            },
                            None => ProbeEntry::NEVER,
                        };
                        probe[j] = entry;
                        stale[j] = false;
                    }
                    if entry.next != asn_raw {
                        continue;
                    }
                    let listen = gtt_mac::channel(asn, entry.offset);
                    // The triggering transmission `t` is audible to the
                    // peer by construction, so a channel match with it
                    // needs no further scan.
                    let audible_on_channel = listen == t.channel
                        || s.transmissions
                            .iter()
                            .any(|t2| t2.channel == listen && topology.audible(t2.frame.src, peer));
                    if audible_on_channel {
                        s.extras.push((j, listen));
                    }
                }
            }
            s.extras.sort_unstable_by_key(|&(j, _)| j);
        }

        // Phase 3: merge due and probed entries in node-id order — the
        // exhaustive loop iterates nodes in id order, and the medium's
        // RNG draws follow listener order, so order is part of
        // equivalence. Both inputs are sorted; a two-pointer merge avoids
        // sorting anything.
        s.listeners.clear();
        s.planned.clear();
        {
            let (mut a, mut b) = (0usize, 0usize);
            while a < s.pre_due.len() || b < s.extras.len() {
                let from_due =
                    b >= s.extras.len() || (a < s.pre_due.len() && s.pre_due[a].0 < s.extras[b].0);
                let (i, channel) = if from_due {
                    let (i, pre) = s.pre_due[a];
                    a += 1;
                    match pre {
                        Pre::Sleep => {
                            s.planned.push((i, Planned::Sleep));
                            continue;
                        }
                        Pre::Tx(t) => {
                            s.planned.push((i, Planned::Tx(t)));
                            continue;
                        }
                        Pre::Listen(channel) => {
                            s.planned.push((i, Planned::Listen(s.listeners.len())));
                            (i, channel)
                        }
                    }
                } else {
                    let (i, channel) = s.extras[b];
                    b += 1;
                    s.planned
                        .push((i, Planned::ProbedListen(s.listeners.len())));
                    (i, channel)
                };
                // Node ids are assigned from vec indices at build time,
                // so the id is derivable without touching the node.
                s.listeners.push(Listener {
                    node: NodeId::from_index(i),
                    channel,
                });
            }
        }

        // All-sleep slots (timer-only upkeep, nothing on the air) skip
        // the medium entirely: `finish_slot(Slept)` is a no-op beyond its
        // sanity assert, and every due node needs requeueing. Upkeep may
        // still have changed a schedule (an SF periodic hook), so the
        // probe-index invalidation check runs here too.
        if s.transmissions.is_empty() && s.listeners.is_empty() {
            s.resched.clear();
            s.resched.extend(s.planned.iter().map(|&(i, _)| i));
            for (k, &i) in s.due.iter().enumerate() {
                if self.nodes[i].mac.schedule().version() != s.due_versions[k] {
                    self.probe_stale[i] = true;
                }
            }
            return;
        }

        // Phase 4: the medium resolves all concurrent activity, into the
        // reused outcome buffers.
        self.medium
            .resolve_slot_into(&s.transmissions, &s.listeners, &mut s.outcomes);

        // Phase 4b: export the slot to the frame tap, if one is
        // installed — after resolution (the record carries the ACK
        // outcome), before feedback consumes the outcome buffers. Both
        // cores share this path, so a trace is identical under the
        // event core and the naive-step oracle.
        if self.tap.is_some() {
            self.drive_tap(&s.transmissions, &s.outcomes.acked);
        }

        // Phase 5: feed results back; deliver decoded frames upward.
        // `s.resched` collects the nodes whose wake-up chain must be
        // re-queued: due nodes always (their chain entry was just
        // consumed); probed listeners only when the slot changed what
        // they are waiting for — an idle/faded/overheard listen touches
        // nothing but counters, and even a delivery only matters if it
        // left traffic queued or moved a timer deadline. Their existing
        // heap entry covers everything else, and skipping the re-push
        // also avoids a later spurious wake-up from the stale duplicate.
        s.resched.clear();
        let mut du = 0usize; // cursor into due/due_versions for non-extras
        for &(i, ref p) in &s.planned {
            if let Planned::ProbedListen(l) = *p {
                // A probed listen completes without a plan/finish
                // round-trip, and its probe-index row expires on its own
                // (the cached listen slot is *this* slot). One that
                // decodes nothing for the node is only recorded in its
                // `busy_listens` entry: lazy accounting counts the slot as
                // an idle listen until a sync folds the record in, and its
                // backoff settles exactly at the node's next settle
                // (queues and schedule are frozen until then, and the
                // window shrinks by a saturating subtraction).
                let outcome = s.outcomes.take_rx(l);
                debug_assert!(
                    !matches!(outcome, RxOutcome::Idle),
                    "the probe admits only listeners that hear a transmission"
                );
                let Some(frame) = self.busy_listens[i].record(outcome) else {
                    continue;
                };
                // A received frame settles the node and delivers; only a
                // delivery that left traffic queued or moved a timer
                // deadline invalidates its existing heap entry.
                let deadline_before = self.nodes[i].next_timer_deadline();
                let schedule_before = self.nodes[i].mac.schedule().version();
                let queued_before =
                    self.nodes[i].mac.data_queue_len() + self.nodes[i].mac.control_queue_len();
                self.nodes[i].mac.finish_probed_listen(self.asn, &frame);
                self.deliver(i, frame, now);
                // A schedule mutation also invalidates the heap entry
                // *and* the probe-index row: the delivery may have moved
                // the node's listen slots, or pushed its listen union past
                // the caps, after which it is woken at every active slot
                // and the probe no longer covers its listens. Pre-existing
                // queued traffic does neither — the standing wake entry
                // was computed with it — so only queue *growth* re-queues.
                let schedule_changed = self.nodes[i].mac.schedule().version() != schedule_before;
                if schedule_changed {
                    self.probe_stale[i] = true;
                }
                if schedule_changed
                    || self.nodes[i].mac.data_queue_len() + self.nodes[i].mac.control_queue_len()
                        > queued_before
                    || self.nodes[i].next_timer_deadline() != deadline_before
                {
                    s.resched.push(i);
                }
                continue;
            }
            let result = match *p {
                Planned::Tx(t) => SlotResult::Transmitted {
                    acked: s.outcomes.acked[t],
                },
                Planned::Listen(l) => SlotResult::Listened(s.outcomes.take_rx(l)),
                Planned::ProbedListen(_) => unreachable!("handled above"),
                Planned::Sleep => SlotResult::Slept,
            };
            // A MAC ETX estimate moves only when a unicast attempt is
            // acked or exhausts its retries (a plain nack just requeues).
            // Watch both so RPL's next deadline-driven fire refreshes
            // rank/parent selection exactly when its inputs changed —
            // flagging every failed attempt would pin lossy-link nodes'
            // RPL deadline at "now" and waste an O(degree) refresh per
            // retry.
            let unicast_tx = matches!(*p, Planned::Tx(t) if s.outcomes.acked[t].is_some());
            let acked = matches!(*p, Planned::Tx(t) if s.outcomes.acked[t] == Some(true));
            let drops_before = self.nodes[i].mac.counters().drops_retry_exhausted;
            if let Some(frame) = self.nodes[i].mac.finish_slot(result) {
                self.deliver(i, frame, now);
            }
            if unicast_tx
                && (acked || self.nodes[i].mac.counters().drops_retry_exhausted > drops_before)
            {
                self.nodes[i].rpl.mark_link_stats_dirty();
            }
            // Due nodes (upkeep hooks, deliveries, 6P) are the only ones
            // that can move their own Rx schedule; invalidate the probe
            // row exactly when that happened.
            debug_assert_eq!(s.due[du], i, "planned non-extras follow due order");
            if self.nodes[i].mac.schedule().version() != s.due_versions[du] {
                self.probe_stale[i] = true;
            }
            du += 1;
            s.resched.push(i);
        }
    }

    /// Seeds the wake queue on first use: every alive node is woken in
    /// the current slot (one exhaustive slot), after which each reports
    /// its own next wake-up.
    fn ensure_wake_queue(&mut self) {
        if self.wake_init {
            return;
        }
        self.wake_init = true;
        let asn = self.asn.raw();
        for i in 0..self.nodes.len() {
            if self.nodes[i].alive {
                self.wake_slot[i] = asn;
                self.timer_wake[i] = asn; // first slot runs full upkeep
                self.wake.push(Reverse((asn, i as u32)));
            }
        }
    }

    /// Pops every wake-up due in the current slot into `due` (cleared
    /// first): the sorted, deduplicated indices of the alive nodes among
    /// them.
    fn fill_due(&mut self, due: &mut Vec<usize>) {
        due.clear();
        let now = self.asn.raw();
        while let Some(&Reverse((asn, idx))) = self.wake.peek() {
            if asn > now {
                break;
            }
            self.wake.pop();
            let i = idx as usize;
            // Entries superseded by a later re-push are dropped in O(1):
            // the authoritative wake is whatever the node's last
            // scheduling decision recorded.
            if self.nodes[i].alive && self.wake_slot[i] == asn {
                due.push(i);
            }
        }
        due.sort_unstable();
        due.dedup();
    }

    /// Computes and enqueues node `i`'s next wake-up: the earlier of its
    /// MAC's next radio wake (transmission opportunities for passive
    /// listeners, any active slot otherwise) and its next timer deadline
    /// (rounded up to the slot boundary where a slot-synchronous loop
    /// would observe it).
    fn schedule_node_wake(&mut self, i: usize) {
        if !self.nodes[i].alive {
            return;
        }
        let mac = self.nodes[i].mac.next_radio_wake(self.asn).map(Asn::raw);
        let timer = self.nodes[i]
            .next_timer_deadline()
            .map(|d| Asn::at_or_after(d).raw().max(self.asn.raw()));
        self.timer_wake[i] = timer.unwrap_or(u64::MAX);
        let wake = match (mac, timer) {
            (Some(m), Some(t)) => m.min(t),
            (Some(m), None) => m,
            (None, Some(t)) => t,
            (None, None) => {
                self.wake_slot[i] = u64::MAX;
                return;
            }
        };
        self.wake_slot[i] = wake;
        self.wake.push(Reverse((wake, i as u32)));
    }

    /// Folds node `i`'s pending busy listens into its MAC. Lazy
    /// accounting has counted them as idle listens, so the node must be
    /// settled past the last of them first: both callers settle it to
    /// the current slot, and every probed listen lies before that.
    fn fold_busy_listens(&mut self, i: usize) {
        let pending = std::mem::take(&mut self.busy_listens[i]);
        if pending != BusyListens::default() {
            self.nodes[i].mac.account_busy_listens(pending);
        }
    }

    /// Brings every alive node's MAC counters and backoff window up to
    /// the current ASN by settling the slots the event core skipped
    /// ([`TschMac::settle_to`]), and folds in the probed listens that
    /// decoded nothing for their node. Idempotent; called at the end of
    /// every public stepping call and at measurement boundaries so
    /// external observers never see stale duty-cycle numbers.
    pub fn sync_accounting(&mut self) {
        for i in 0..self.nodes.len() {
            if self.nodes[i].alive {
                self.nodes[i].mac.settle_to(self.asn);
                self.fold_busy_listens(i);
            }
        }
    }

    /// Begins the measurement window: a fresh tracker follows the
    /// packets generated from now on, and per-node counters are
    /// snapshotted.
    pub fn start_measurement(&mut self) {
        self.sync_accounting();
        self.measure_start = Some(self.now());
        self.measure_end = None;
        self.tracker = PacketTracker::new(self.nodes.len());
        self.snapshots = self
            .nodes
            .iter()
            .map(|node| Snapshot {
                counters: node.mac.counters(),
                queue_loss: node.mac.queue_loss(),
                routing_drops: node.routing_drops,
            })
            .collect();
    }

    /// Ends the measurement window: packets generated from now on are
    /// no longer tracked (deliveries of tracked ones still count).
    ///
    /// # Panics
    ///
    /// Panics if [`Network::start_measurement`] was not called.
    pub fn finish_measurement(&mut self) {
        self.sync_accounting();
        assert!(
            self.measure_start.is_some(),
            "start_measurement must be called first"
        );
        self.measure_end = Some(self.now());
    }

    /// Produces the measurement report.
    ///
    /// # Panics
    ///
    /// Panics unless measurement was started and finished.
    pub fn report(&self) -> NetworkReport {
        NetworkReport::collect(self)
    }

    /// Fault injection: silences `node` from the next slot on (crash,
    /// battery death). Dead nodes keep their state for post-mortem
    /// inspection but neither transmit, listen nor run timers.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn kill_node(&mut self, node: NodeId) {
        let i = node.index();
        // Freeze the counters exactly at the kill slot: a slot-by-slot
        // loop would have counted every slot up to (excluding) the
        // current one while the node was still alive.
        if self.nodes[i].alive {
            self.nodes[i].mac.settle_to(self.asn);
            self.fold_busy_listens(i);
        }
        self.nodes[i].alive = false;
        // The probe index may still predict a listen for this node; the
        // stale row resolves to NEVER on its next probe.
        self.probe_stale[i] = true;
    }

    /// Fault injection: overrides the PRR of the directed link `a → b`
    /// from the next slot on.
    ///
    /// # Panics
    ///
    /// Panics if `prr` is outside `[0, 1]`.
    pub fn set_link_prr(&mut self, a: NodeId, b: NodeId, prr: f64) {
        self.medium.topology_mut().set_link_prr(a, b, prr);
    }

    /// Fault injection: symmetric variant of
    /// [`Network::set_link_prr`].
    pub fn set_link_prr_symmetric(&mut self, a: NodeId, b: NodeId, prr: f64) {
        self.set_link_prr(a, b, prr);
        self.set_link_prr(b, a, prr);
    }

    /// Fault injection: removes a [`Network::set_link_prr`] override,
    /// restoring the link model's PRR for `a → b` from the next slot on.
    pub fn clear_link_prr(&mut self, a: NodeId, b: NodeId) {
        self.medium.topology_mut().clear_link_prr(a, b);
    }

    /// Mobility: relocates `node` to `to` from the next slot on. Link
    /// PRRs and audibility follow the new distances immediately
    /// ([`Topology::set_position`] rebuilds the audible adjacency).
    ///
    /// No engine bookkeeping needs invalidating: the wake heap and the
    /// listener-probe index cache *schedule* facts (when a node listens),
    /// never audibility — every per-slot audibility decision reads the
    /// topology fresh, so a relocated passive listener is picked up by
    /// the very next audible transmission. The step-equivalence suite
    /// pins mobile runs against the exhaustive oracle.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn move_node(&mut self, node: NodeId, to: gtt_net::Position) {
        self.medium.topology_mut().set_position(node, to);
    }

    /// Throttles (or releases) `node`'s application source: while
    /// throttled, due packets are discarded instead of enqueued, but the
    /// source's phase keeps advancing — the node's wake pattern is
    /// byte-identical throttled or not, so duty-cycle-budget overlays
    /// stay equivalent between the event-driven core and the oracle.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_app_throttled(&mut self, node: NodeId, throttled: bool) {
        self.nodes[node.index()].app_throttled = throttled;
    }

    fn apply_upkeep(&mut self, i: usize, output: UpkeepOutput, now: SimTime) {
        // Scheduler reactions to parent changes.
        for (old, new) in output.parent_changes {
            self.nodes[i].with_scheduler(now, |sf, ctx| sf.on_parent_changed(ctx, old, new));
        }
        // Application packets.
        for _ in 0..output.generated_packets {
            let Some(parent) = self.nodes[i].rpl.parent() else {
                continue;
            };
            let origin = self.nodes[i].id();
            // Origin-keyed ids: each node numbers its own packets, so id
            // assignment never depends on which other nodes a core
            // processes in the slot (the event core skips nodes the
            // oracle processes).
            let id = PacketId::new(((origin.index() as u64) << 48) | self.nodes[i].generated_total);
            self.nodes[i].generated_total += 1;
            if self.measure_start.is_some() && self.measure_end.is_none() {
                self.tracker.record_generated(id);
            }
            let frame = Frame::new(id, origin, Dest::Unicast(parent), now, Payload::Data);
            // Overflow is counted by the queue itself (queue loss).
            let _ = self.nodes[i].mac.enqueue_data(frame);
        }
    }

    /// Dispatches a frame the MAC accepted to the right upper layer.
    fn deliver(&mut self, i: usize, mut frame: Frame<Payload>, now: SimTime) {
        // Move the payload out rather than clone it (a 6P message owns a
        // cell list). `Data` carries nothing, so leaving it behind keeps
        // the frame intact for the Data arm's forwarding copy.
        match std::mem::replace(&mut frame.payload, Payload::Data) {
            Payload::Data => {
                if self.nodes[i].rpl.is_root() {
                    // +1: `hops` counts completed forwards; this reception
                    // is one more link-layer hop.
                    self.tracker.record_delivered(
                        frame.id,
                        frame.generated_at,
                        now,
                        frame.hops.saturating_add(1),
                    );
                } else if let Some(parent) = self.nodes[i].rpl.parent() {
                    let fwd = frame.forwarded(self.nodes[i].id(), Dest::Unicast(parent));
                    let _ = self.nodes[i].mac.enqueue_data(fwd);
                } else {
                    self.nodes[i].routing_drops += 1;
                }
            }
            Payload::Eb(info) => {
                self.nodes[i].with_scheduler(now, |sf, ctx| sf.on_eb(ctx, frame.src, &info));
            }
            Payload::Dio(dio) => {
                let etx = self.nodes[i].mac.etx(frame.src);
                let mut actions = self.nodes[i].take_rpl_actions();
                self.nodes[i]
                    .rpl
                    .handle_dio_into(frame.src, dio, etx, now, &mut actions);
                let mut out = UpkeepOutput::default();
                self.nodes[i].process_rpl_actions(&mut actions, now, &mut out);
                self.nodes[i].restore_rpl_actions(actions);
                for (old, new) in out.parent_changes {
                    self.nodes[i]
                        .with_scheduler(now, |sf, ctx| sf.on_parent_changed(ctx, old, new));
                }
            }
            Payload::Dao(dao) => {
                self.nodes[i].rpl.handle_dao(frame.src, dao, now);
                self.nodes[i].with_scheduler(now, |sf, ctx| sf.on_dao(ctx, dao.child, dao.no_path));
            }
            Payload::SixP(msg) => {
                if let Some(event) = self.nodes[i].sixtop.handle_message(frame.src, msg) {
                    self.nodes[i].dispatch_sixtop_event(event, now);
                }
            }
        }
    }
}

impl NetworkBuilder {
    /// Declares `id` a DODAG root.
    pub fn root(mut self, id: NodeId) -> Self {
        self.roots.push(id);
        self
    }

    /// Declares several roots.
    pub fn roots<I: IntoIterator<Item = NodeId>>(mut self, ids: I) -> Self {
        self.roots.extend(ids);
        self
    }

    /// True if `roots` can root a network of `nodes` nodes: there is at
    /// least one, and each is one of the nodes.
    pub fn are_valid_roots(roots: &[NodeId], nodes: usize) -> bool {
        !roots.is_empty() && roots.iter().all(|r| r.index() < nodes)
    }

    /// Gives every non-root node a CBR source of `ppm` packets/minute.
    pub fn traffic_ppm(mut self, ppm: f64) -> Self {
        self.traffic_ppm = Some(ppm);
        self
    }

    /// Sets the scheduling-function factory, called once per node with
    /// `(id, is_root)`.
    pub fn scheduler_factory<F>(mut self, f: F) -> Self
    where
        F: Fn(NodeId, bool) -> Box<dyn SchedulingFunction> + 'static,
    {
        self.factory = Some(Box::new(f));
        self
    }

    /// Uses the exhaustive slot-by-slot oracle loop instead of the
    /// event-driven core.
    ///
    /// Only for equivalence testing and benchmarking: both cores must
    /// produce byte-identical [`NetworkReport`]s for the same seed, and
    /// the oracle costs O(nodes) per slot, slept or not.
    pub fn naive_stepping(mut self) -> Self {
        self.naive = true;
        self
    }

    /// Builds the network and runs every scheduler's `init` hook.
    ///
    /// # Panics
    ///
    /// Panics unless [`NetworkBuilder::are_valid_roots`] accepts the
    /// roots, when no factory was configured, or when the configuration
    /// is invalid.
    pub fn build(self) -> Network {
        self.config.validate();
        assert!(
            Self::are_valid_roots(&self.roots, self.topology.len()),
            "a network needs at least one root, each inside the topology, got {:?}",
            self.roots
        );
        assert!(
            self.factory.is_some(),
            "a scheduler factory must be configured"
        );
        let factory = self.factory.expect("checked above");

        let mut master = Pcg32::new(self.config.seed);
        let medium_rng = master.split();
        let n = self.topology.len();

        // Root membership as a bitset: the per-node loop below must not
        // rescan the root list for every node (O(n · roots)).
        let mut is_root_bits = vec![false; n];
        for r in &self.roots {
            is_root_bits[r.index()] = true;
        }

        let mut nodes = Vec::with_capacity(n);
        for (i, &is_root) in is_root_bits.iter().enumerate() {
            let id = NodeId::from_index(i);
            let mut rng = master.split();
            let mac = TschMac::new(id, rng.split());
            let rpl = if is_root {
                RplNode::new_root(id, SimTime::ZERO)
            } else {
                RplNode::new(id)
            };
            let sixtop = SixtopLayer::new(id);
            let scheduler = factory(id, is_root);
            let mut node = Node::new(mac, rpl, sixtop, scheduler, rng);

            // Stagger periodic timers with per-node phase jitter so the
            // whole network does not beacon in the same slot. The span is
            // clamped into [2, u32::MAX] µs: sub-2 µs periods must not
            // produce an empty RNG range, and periods beyond ~71 minutes
            // must not truncate into one when cast.
            let jitter = |rng: &mut Pcg32, period: SimDuration| {
                let span = period.as_micros().clamp(2, u32::MAX as u64) as u32;
                SimDuration::from_micros(rng.gen_range_u32(0, span) as u64)
            };
            node.eb_period = self.config.eb_period;
            let eb_phase = jitter(&mut node.rng, self.config.eb_period);
            node.eb_timer.arm(SimTime::ZERO + eb_phase);
            let sf_phase = jitter(&mut node.rng, self.config.sf_period);
            node.sf_timer
                .arm_periodic(SimTime::ZERO + sf_phase, self.config.sf_period);
            // No RPL phase: RPL housekeeping has no period any more — the
            // layer fires at its own exact deadlines.

            if let Some(ppm) = self.traffic_ppm {
                if !is_root {
                    node.app = Some(AppTraffic::new(ppm, &mut node.rng));
                }
            }
            nodes.push(node);
        }

        let mut net = Network {
            config: self.config,
            nodes,
            medium: RadioMedium::new(self.topology, medium_rng),
            tracker: PacketTracker::default(),
            asn: Asn::ZERO,
            measure_start: None,
            measure_end: None,
            snapshots: Vec::new(),
            wake: BinaryHeap::new(),
            wake_init: false,
            wake_scratch: vec![0; n],
            probe_index: vec![ProbeEntry::NEVER; n],
            probe_stale: vec![true; n],
            wake_slot: vec![u64::MAX; n],
            busy_listens: vec![BusyListens::default(); n],
            timer_wake: vec![u64::MAX; n],
            scratch: SlotScratch::default(),
            tap: None,
            naive: self.naive,
        };
        for i in 0..net.nodes.len() {
            net.nodes[i].with_scheduler(SimTime::ZERO, |sf, ctx| sf.init(ctx));
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimal::MinimalSchedule;
    use gtt_net::{LinkModel, Position, TopologyBuilder};

    fn star_topology(leaves: usize) -> Topology {
        let mut b = TopologyBuilder::new(40.0).link_model(LinkModel::default());
        b = b.node(Position::new(0.0, 0.0));
        for i in 0..leaves {
            let angle = i as f64 * std::f64::consts::TAU / leaves as f64;
            b = b.node(Position::new(25.0 * angle.cos(), 25.0 * angle.sin()));
        }
        b.build()
    }

    fn build(naive: bool, seed: u64) -> Network {
        let config = EngineConfig {
            seed,
            ..EngineConfig::default()
        };
        let mut builder = Network::builder(star_topology(5), config)
            .root(NodeId::new(0))
            .traffic_ppm(30.0)
            .scheduler_factory(|_, _| Box::new(MinimalSchedule::new(8)));
        if naive {
            builder = builder.naive_stepping();
        }
        builder.build()
    }

    fn measured_report(net: &mut Network) -> NetworkReport {
        net.run_for(SimDuration::from_secs(30));
        net.start_measurement();
        net.run_for(SimDuration::from_secs(30));
        net.finish_measurement();
        net.report()
    }

    /// The crown invariant of the event-driven refactor: for the same
    /// seed, the wake-queue core and the exhaustive oracle loop must be
    /// indistinguishable — identical reports, counters and final clock.
    #[test]
    fn event_core_matches_naive_oracle() {
        for seed in [1u64, 7, 23] {
            let mut event = build(false, seed);
            let mut naive = build(true, seed);
            let re = measured_report(&mut event);
            let rn = measured_report(&mut naive);
            assert_eq!(re, rn, "seed {seed}: reports diverge");
            assert_eq!(event.asn(), naive.asn(), "seed {seed}: clocks diverge");
        }
    }

    /// Stepping one slot at a time through the event core must also match
    /// the oracle (every call ends on a slot boundary, so the lazy
    /// accounting is synced after each slot).
    #[test]
    fn single_stepping_matches_oracle() {
        let mut event = build(false, 5);
        let mut naive = build(true, 5);
        for _ in 0..2_000 {
            event.run_slots(1);
            naive.run_slots(1);
        }
        assert_eq!(event.asn(), naive.asn());
        for (a, b) in event.nodes().iter().zip(naive.nodes()) {
            assert_eq!(a.mac.counters(), b.mac.counters(), "node {}", a.id());
        }
    }

    /// Killing a node mid-run freezes its counters identically in both
    /// cores and the survivors stay equivalent.
    #[test]
    fn kill_node_keeps_cores_equivalent() {
        let mut event = build(false, 9);
        let mut naive = build(true, 9);
        event.run_for(SimDuration::from_secs(20));
        naive.run_for(SimDuration::from_secs(20));
        event.kill_node(NodeId::new(3));
        naive.kill_node(NodeId::new(3));
        let re = measured_report(&mut event);
        let rn = measured_report(&mut naive);
        assert_eq!(re, rn);
    }

    /// Relocating a node mid-run keeps the two cores equivalent: the
    /// leaf walks out of everyone's range and back, changing audibility
    /// and every PRR it is part of, twice.
    #[test]
    fn move_node_keeps_cores_equivalent() {
        let mut event = build(false, 13);
        let mut naive = build(true, 13);
        for net in [&mut event, &mut naive] {
            net.run_for(SimDuration::from_secs(15));
            net.move_node(NodeId::new(2), Position::new(500.0, 0.0));
            net.run_for(SimDuration::from_secs(15));
            net.move_node(NodeId::new(2), Position::new(20.0, 5.0));
        }
        let re = measured_report(&mut event);
        let rn = measured_report(&mut naive);
        assert_eq!(re, rn, "mobile runs diverge");
        assert_eq!(
            event.topology().position(NodeId::new(2)),
            Position::new(20.0, 5.0)
        );
    }

    /// Throttling suppresses generation without touching the source's
    /// phase; releasing resumes at the natural rate (no catch-up burst).
    #[test]
    fn app_throttle_suppresses_generation_only() {
        let mut net = build(false, 3);
        net.run_for(SimDuration::from_secs(30)); // join + converge
        let victim = NodeId::new(1);
        let before = net.node(victim).generated_total();
        net.set_app_throttled(victim, true);
        assert!(net.node(victim).is_app_throttled());
        net.run_for(SimDuration::from_secs(60));
        assert_eq!(
            net.node(victim).generated_total(),
            before,
            "throttled node must not generate"
        );
        net.set_app_throttled(victim, false);
        net.run_for(SimDuration::from_secs(60));
        let resumed = net.node(victim).generated_total() - before;
        // 30 ppm for 60 s ≈ 30 packets; a catch-up burst would add ~30.
        assert!(
            (20..=40).contains(&resumed),
            "resume must be burst-free, got {resumed}"
        );
    }

    /// An idle network (no traffic, no schedulers installing cells beyond
    /// broadcast) still advances its clock to exactly the requested end.
    #[test]
    fn run_slots_lands_on_exact_asn() {
        let mut net = build(false, 2);
        net.run_slots(12_345);
        assert_eq!(net.asn(), Asn::new(12_345));
        net.run_for(SimDuration::from_millis(150)); // 10 slots of 15 ms
        assert_eq!(net.asn(), Asn::new(12_355));
    }
}
