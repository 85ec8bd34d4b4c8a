//! The per-node TSCH MAC state machine.

use gtt_net::{Dest, Frame, NodeId, PacketQueue, PeerMap, PhysicalChannel, RxOutcome};
use gtt_sim::Pcg32;

use crate::asn::Asn;
use crate::backoff::SharedCellBackoff;
use crate::cell::{Cell, CellClass};
use crate::hopping::{self, ChannelOffset};
use crate::slotframe::{CyclicUnion, Schedule, SlotframeHandle};
use crate::stats::EtxEstimator;
use crate::traffic::TrafficClass;

/// Maximum retransmissions of a unicast frame before it is dropped
/// (Table II: 4). The frame is transmitted at most `MAX_RETRIES + 1`
/// times in total.
pub const MAX_RETRIES: u32 = 4;

/// Data queue capacity in packets (Contiki-NG `QUEUEBUF_NUM`-style; the
/// paper's `Q_Max`).
pub const DATA_QUEUE_CAPACITY: usize = 8;

/// Control queue capacity (EB/DIO/6P frames).
pub const CONTROL_QUEUE_CAPACITY: usize = 4;

/// Fraction of a slot the radio stays on during an *idle* Rx listen
/// (guard time before giving up), for duty-cycle accounting: Contiki-NG's
/// `TSCH_GUARD_TIME` is ≈ 2.2 ms of a 15 ms slot — the radio cost of
/// listening into an empty cell.
pub const IDLE_LISTEN_FRACTION: f64 = 0.147;

/// What the node does in the current slot.
#[derive(Debug, Clone)]
pub enum SlotAction<P> {
    /// Radio off.
    Sleep,
    /// Transmit `frame` on `channel` using `cell`.
    Transmit {
        /// The cell that granted the transmission.
        cell: Cell,
        /// Post-hopping physical channel.
        channel: PhysicalChannel,
        /// The outgoing frame (a copy; the original is held in-flight
        /// until the slot result arrives).
        frame: Frame<P>,
    },
    /// Listen on `channel` as scheduled by `cell`.
    Listen {
        /// The cell that scheduled the listen.
        cell: Cell,
        /// Post-hopping physical channel.
        channel: PhysicalChannel,
    },
}

impl<P> SlotAction<P> {
    /// True for [`SlotAction::Sleep`].
    pub fn is_sleep(&self) -> bool {
        matches!(self, SlotAction::Sleep)
    }
}

/// What the engine reports back after the medium resolved the slot.
#[derive(Debug, Clone)]
pub enum SlotResult<P> {
    /// The node slept.
    Slept,
    /// The node transmitted; `acked` follows
    /// [`SlotOutcomes::acked`](gtt_net::SlotOutcomes) semantics
    /// (`None` = broadcast, no ACK expected).
    Transmitted {
        /// ACK status from the medium.
        acked: Option<bool>,
    },
    /// The node listened and the medium resolved this outcome.
    Listened(RxOutcome<P>),
}

/// MAC-level counters used for duty-cycle and loss accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacCounters {
    /// Total slots elapsed.
    pub slots: u64,
    /// Slots spent transmitting.
    pub tx_slots: u64,
    /// Listen slots in which energy was heard.
    pub rx_busy_slots: u64,
    /// Listen slots that stayed idle (guard-time cost only).
    pub rx_idle_slots: u64,
    /// Slots with the radio off.
    pub sleep_slots: u64,
    /// Unicast transmission attempts.
    pub unicast_tx: u64,
    /// Unicast attempts that were acknowledged.
    pub unicast_acked: u64,
    /// Broadcast transmissions.
    pub broadcast_tx: u64,
    /// Packets dropped after exhausting retransmissions.
    pub drops_retry_exhausted: u64,
    /// Collisions observed while listening.
    pub collisions_heard: u64,
    /// Frames received and accepted (addressed to us or broadcast).
    pub rx_accepted: u64,
    /// Frames decoded but addressed to another node (overheard).
    pub rx_overheard: u64,
}

/// Listens that heard energy but decoded nothing for the node, recorded
/// outside the MAC by an event-driven engine ([`BusyListens::record`])
/// and folded in with [`TschMac::account_busy_listens`]. One count per
/// outcome kind, so a listen costs one increment; 24 bytes, so an engine
/// can keep one per node in a dense array. The counts are `u64` like
/// [`MacCounters`]: they cannot wrap however long the engine runs
/// between folds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusyListens {
    /// Single audible transmissions lost to link error.
    faded: u64,
    /// Two or more audible transmissions.
    collisions: u64,
    /// Decoded unicasts addressed to another node.
    overheard: u64,
}

impl BusyListens {
    /// Records a listen that decoded nothing for the node: a
    /// [`RxOutcome::Faded`], [`RxOutcome::Collision`] or
    /// [`RxOutcome::Overheard`] one. A [`RxOutcome::Received`] frame is
    /// handed back unrecorded, for the caller to finish through
    /// [`TschMac::finish_probed_listen`]. An [`RxOutcome::Idle`] listen
    /// needs no record: lazy accounting counts every listen as idle.
    pub fn record<P>(&mut self, outcome: RxOutcome<P>) -> Option<Frame<P>> {
        match outcome {
            RxOutcome::Received(frame) => return Some(frame),
            RxOutcome::Overheard => self.overheard += 1,
            RxOutcome::Collision(_) => self.collisions += 1,
            RxOutcome::Faded => self.faded += 1,
            RxOutcome::Idle => {}
        }
        None
    }
}

impl MacCounters {
    /// Fraction of the counted slots the radio was on, using slot-fraction
    /// accounting: Tx and busy-Rx slots cost a full slot, idle listens
    /// cost [`IDLE_LISTEN_FRACTION`] (the radio gives up after the guard
    /// time when no preamble arrives). 0.0 when no slot was counted.
    pub fn duty_cycle(&self) -> f64 {
        if self.slots == 0 {
            return 0.0;
        }
        (self.tx_slots as f64
            + self.rx_busy_slots as f64
            + self.rx_idle_slots as f64 * IDLE_LISTEN_FRACTION)
            / self.slots as f64
    }
}

#[derive(Debug, Clone)]
struct Outgoing<P> {
    frame: Frame<P>,
    /// Transmissions of the frame so far (counted when planned).
    attempts: u32,
    control: bool,
    /// Traffic class; `None` for data-queue frames.
    class: Option<TrafficClass>,
}

#[derive(Debug, Clone)]
struct InFlight<P> {
    packet: Outgoing<P>,
    shared_cell: bool,
}

/// The TSCH MAC for one node.
///
/// Drive it slot by slot:
///
/// 1. [`TschMac::plan_slot`] — returns the node's [`SlotAction`];
/// 2. the engine resolves all actions through the
///    [`RadioMedium`](gtt_net::RadioMedium);
/// 3. [`TschMac::finish_slot`] — feeds the [`SlotResult`] back, updating
///    queues, retransmission state, backoff, link statistics and duty
///    cycle, and returning any frame to deliver to upper layers.
///
/// # Example
///
/// ```
/// use gtt_mac::*;
/// use gtt_net::{Dest, Frame, NodeId, PacketId};
/// use gtt_sim::{Pcg32, SimTime};
///
/// let mut mac: TschMac<&'static str> = TschMac::new(NodeId::new(1), Pcg32::new(7));
/// // Give the node one broadcast cell at slot 0 of a 4-slot frame.
/// let mut sf = Slotframe::new(4);
/// sf.add(Cell::broadcast(SlotOffset::new(0), ChannelOffset::new(0)));
/// mac.schedule_mut().add_slotframe(SlotframeHandle::new(0), sf);
///
/// // Nothing queued: the broadcast cell is Rx|Tx, so the node listens.
/// let action = mac.plan_slot(Asn::ZERO);
/// assert!(matches!(action, SlotAction::Listen { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct TschMac<P> {
    id: NodeId,
    schedule: Schedule,
    data_queue: PacketQueue<Outgoing<P>>,
    control_queue: PacketQueue<Outgoing<P>>,
    backoff: SharedCellBackoff,
    rng: Pcg32,
    in_flight: Option<InFlight<P>>,
    /// ETX per unicast peer, created at the peer's first sample (an ack,
    /// or retries exhausted). RPL re-reads its neighbors' ETX after each
    /// unicast the node completes, so lookups are frequent; and at
    /// 10 000 nodes a node's few peers span thousands of ids, so the map
    /// holds only the sampled peers.
    link_stats: PeerMap<EtxEstimator>,
    counters: MacCounters,
    /// The schedule's listen slots: the union of its Rx cells. Within
    /// the union's caps, which covers GT-TSCH's single slotframe and
    /// Orchestra's three alike, the node is a *passive listener*: an
    /// event-driven engine can account its idle listens without waking
    /// it (see [`TschMac::next_radio_wake`]). Beyond them, which only
    /// hand-built schedules reach, it is woken at every active slot.
    rx_union: CyclicUnion,
    /// The [`Schedule::version`] `rx_union` was built from.
    rx_union_version: Option<u64>,
    /// Candidate-cell scratch for `plan_slot`, reused every active slot
    /// so the per-slot hot path never allocates.
    plan_scratch: Vec<(SlotframeHandle, Cell)>,
    /// Memoized [`TschMac::next_radio_wake`] answer (see
    /// [`RadioWakeMemo`]): the engine re-asks after every processed slot,
    /// and between queue/schedule mutations the answer cannot change.
    radio_wake_memo: Option<RadioWakeMemo>,
    /// The watermark: the first slot the counters and the backoff window
    /// do not yet cover. [`TschMac::settle_to`] advances it over slots
    /// nobody planned, which between two plans can only be sleeps, idle
    /// listens and shared cells that drain the window, all fixed by the
    /// frozen queues and schedule, so they are counted in closed form.
    settled: u64,
    /// The slots in which `plan_slot` consumes a unit of a pending
    /// backoff window: the union of the shared Tx cells with a matching
    /// queued frame. Its buffers are reused, so a rebuild does not
    /// allocate.
    backoff_union: CyclicUnion,
    /// Cache key for `backoff_union`: `(schedule version, control-queue
    /// mutations, data-queue mutations)`. The qualifying cells are a
    /// pure function of those, and contended nodes are probed as
    /// listeners many times between mutations.
    backoff_union_key: Option<(u64, u64, u64)>,
}

/// Cached `next_radio_wake` answer, keyed by everything that can move
/// it: the schedule version and both queues' content-mutation counters.
/// `answer` holds for any query `from` in `[from, answer]` (and for any
/// `from ≥ from` when `answer` is `None` — "never" cannot become sooner
/// without a mutation).
#[derive(Debug, Clone, Copy)]
struct RadioWakeMemo {
    sched_version: u64,
    ctrl_mutations: u64,
    data_mutations: u64,
    /// Pending backoff window at memo time — a settled skip changes the
    /// release slot, so it is part of the key.
    pending_backoff: u32,
    from: u64,
    answer: Option<u64>,
}

/// The slot at which a node with `pending` (at least 1) backoff units
/// left may next act on its shared cells, given the `qualifying` slots
/// in which it consumes one; `None` when nothing qualifies. When every
/// qualifying slot holds one qualifying cell (one chain, one cell per
/// offset), the window runs out in the `pending`-th and the node may
/// transmit in the next, the `(pending + 1)`-th: the slots before it are
/// provable sleeps or passive listens. Otherwise a second qualifying
/// cell in the `pending`-th slot could transmit once the first has
/// consumed the last unit, so the node wakes there, conservatively, and
/// `plan_slot` runs the exact per-slot logic.
fn backoff_release_slot(qualifying: &CyclicUnion, from: u64, pending: u32) -> Option<u64> {
    let pending = u64::from(pending);
    let n = if qualifying.is_one_clean_chain() {
        pending + 1
    } else {
        pending
    };
    qualifying.nth_at_or_after(from, n)
}

impl<P: Clone> TschMac<P> {
    /// Creates a MAC for node `id`.
    pub fn new(id: NodeId, rng: Pcg32) -> Self {
        TschMac {
            id,
            data_queue: PacketQueue::new(DATA_QUEUE_CAPACITY),
            control_queue: PacketQueue::new(CONTROL_QUEUE_CAPACITY),
            backoff: SharedCellBackoff::default(),
            schedule: Schedule::new(),
            rng,
            in_flight: None,
            link_stats: PeerMap::new(),
            counters: MacCounters::default(),
            rx_union: CyclicUnion::default(),
            rx_union_version: None,
            plan_scratch: Vec::new(),
            radio_wake_memo: None,
            settled: 0,
            backoff_union: CyclicUnion::default(),
            backoff_union_key: None,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's schedule (read-only).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Mutable schedule access for scheduling functions.
    pub fn schedule_mut(&mut self) -> &mut Schedule {
        &mut self.schedule
    }

    /// Counters accumulated so far. They cover every slot up to the last
    /// one planned, or up to the slot [`TschMac::settle_to`] last
    /// reached, whichever is later.
    ///
    /// An event-driven engine (`gtt_engine::Network`) settles the slots
    /// it skips lazily, so there the counts are exact only after the
    /// engine's `Network::sync_accounting`, which every public stepping
    /// call runs on return. Between syncs, slot totals lag, and a
    /// listen that decoded nothing for the node may still count as
    /// idle, with its busy, collision and overheard counts pending.
    pub fn counters(&self) -> MacCounters {
        self.counters
    }

    /// ETX estimators of the peers with at least one sample, in node-id
    /// order.
    pub fn link_stats(&self) -> impl Iterator<Item = (NodeId, &EtxEstimator)> + '_ {
        self.link_stats.iter()
    }

    /// ETX estimate towards `neighbor` (1.0 before any sample).
    pub fn etx(&self, neighbor: NodeId) -> f64 {
        self.link_stats
            .get(neighbor)
            .map_or(1.0, EtxEstimator::value)
    }

    /// Number of packets in the data queue — the paper's `q_i`.
    pub fn data_queue_len(&self) -> usize {
        self.data_queue.len()
    }

    /// Data-queue capacity — the paper's `Q_Max`.
    pub fn data_queue_capacity(&self) -> usize {
        self.data_queue.capacity()
    }

    /// Packets dropped on data-queue overflow so far (queue loss).
    pub fn queue_loss(&self) -> u64 {
        self.data_queue.stats().dropped
    }

    /// Enqueues an application/forwarded data frame.
    ///
    /// # Errors
    ///
    /// Returns the frame back when the data queue is full; the drop has
    /// already been counted as queue loss.
    pub fn enqueue_data(&mut self, frame: Frame<P>) -> Result<(), Frame<P>> {
        self.data_queue
            .push(Outgoing {
                frame,
                attempts: 0,
                control: false,
                class: None,
            })
            .map_err(|o| o.frame)
    }

    /// Enqueues a control frame (EB, DIO, DAO, 6P) tagged with its
    /// traffic class, which cell-matching uses to keep e.g. EBs inside
    /// Orchestra's EB slotframe.
    ///
    /// # Errors
    ///
    /// Returns the frame back when the control queue is full.
    pub fn enqueue_control(
        &mut self,
        frame: Frame<P>,
        class: TrafficClass,
    ) -> Result<(), Frame<P>> {
        self.control_queue
            .push(Outgoing {
                frame,
                attempts: 0,
                control: true,
                class: Some(class),
            })
            .map_err(|o| o.frame)
    }

    /// Number of pending control frames.
    pub fn control_queue_len(&self) -> usize {
        self.control_queue.len()
    }

    /// Removes queued *data* frames matching `pred` (e.g. re-routing after
    /// a parent switch) and returns them.
    pub fn drain_data_where(&mut self, pred: impl Fn(&Frame<P>) -> bool) -> Vec<Frame<P>> {
        self.data_queue
            .drain_where(|o| pred(&o.frame))
            .into_iter()
            .map(|o| o.frame)
            .collect()
    }

    /// Number of queued data frames currently addressed to `dest`
    /// (diagnostics; does not modify the queue).
    pub fn drain_count_to(&self, dest: Dest) -> usize {
        self.data_queue.count_where(|o| o.frame.dst == dest)
    }

    /// The earliest slot at or after `from` in which this MAC would do
    /// anything other than an effect-free sleep — the heart of the
    /// event-driven engine's slot skipping.
    ///
    /// A slot is *active* when some scheduled cell there either
    ///
    /// * listens (`rx`), or
    /// * transmits (`tx`) **and** a queued frame matches the cell's
    ///   queue-matching rule.
    ///
    /// Shared-cell backoff deliberately does not defer the answer: a
    /// shared Tx cell with pending traffic consumes one backoff unit even
    /// when the window forbids transmitting, so the node must still wake
    /// there for [`TschMac::plan_slot`] to drain the window exactly as a
    /// slot-by-slot loop would.
    ///
    /// `None` means the node sleeps forever unless its queues or schedule
    /// change. The answer is stable while the node sleeps: queues and
    /// schedule only change when the node itself runs (upkeep, reception,
    /// scheduler hooks), so a woken engine can cache it until the node's
    /// next wake-up.
    pub fn next_active_asn(&self, from: Asn) -> Option<Asn> {
        self.schedule
            .next_active_asn(from, |cell| self.cell_is_active(cell))
    }

    /// True if `cell` would keep the radio from an effect-free sleep.
    fn cell_is_active(&self, cell: &Cell) -> bool {
        cell.options.rx || (cell.options.tx && self.has_frame_for(cell))
    }

    /// Settles the slots from the watermark up to (excluding) `to`, which
    /// nobody planned, and moves the watermark to `to`; a no-op when the
    /// counters already reach `to`.
    ///
    /// Each such slot counts as an idle listen where the listen union
    /// schedules one ([`RxOutcome::Idle`]: nothing audible) and as a
    /// sleep elsewhere, and each slot with a shared Tx cell holding a
    /// matching queued frame drains one unit of a pending backoff window:
    /// exactly what `plan_slot` and `finish_slot` would do there, as long
    /// as the node transmits in none of them and its queues and schedule
    /// stay as they are. An event-driven engine skips only such slots and
    /// settles a node before anything mutates its queues or schedule. A
    /// listen in the range that heard energy but decoded nothing for the
    /// node is still counted idle here, and moved to busy by
    /// [`TschMac::account_busy_listens`].
    ///
    /// Settling `[a, s)` and then `[s, b)` equals settling `[a, b)`: the
    /// window shrinks by a saturating subtraction of the qualifying slots
    /// counted. A node beyond the listen union's caps is woken at every
    /// active slot, so the slots it skips are all sleeps.
    pub fn settle_to(&mut self, to: Asn) {
        let (from, to) = (self.settled, to.raw());
        if to <= from {
            return;
        }
        debug_assert!(
            self.in_flight.is_none(),
            "cannot settle slots with a packet in flight"
        );
        self.settled = to;
        self.refresh_rx_union();
        let listens = self
            .rx_union
            .exact()
            .map_or(0, |union| union.count_in(from, to));
        self.counters.slots += to - from;
        self.counters.rx_idle_slots += listens;
        self.counters.sleep_slots += to - from - listens;
        self.drain_backoff(from, to);
    }

    /// Folds in listens that heard energy but decoded nothing for the
    /// node, which an event-driven engine resolved without touching the
    /// MAC: moves them from `rx_idle_slots`, where
    /// [`TschMac::settle_to`] counted them, to `rx_busy_slots`, and adds
    /// the collision and overheard counts.
    ///
    /// Together with `settle_to`, equivalent to `finish_slot` with
    /// `Listened(outcome)` for each such listen: those outcomes touch
    /// only these counters, and `settle_to` has already drained the
    /// backoff unit a blocked shared Tx+Rx cell consumes in the slot.
    ///
    /// The listens must already be accounted: call it after `settle_to`
    /// has passed every slot they happened in.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer idle listens on record than `listens`
    /// holds, which means the caller folded them too early.
    pub fn account_busy_listens(&mut self, listens: BusyListens) {
        let busy = listens.faded + listens.collisions + listens.overheard;
        self.counters.rx_idle_slots = self
            .counters
            .rx_idle_slots
            .checked_sub(busy)
            .expect("busy listens folded before their slots were accounted");
        self.counters.rx_busy_slots += busy;
        self.counters.collisions_heard += listens.collisions;
        self.counters.rx_overheard += listens.overheard;
    }

    /// Rebuilds the listen union if the schedule changed.
    fn refresh_rx_union(&mut self) {
        let version = self.schedule.version();
        if self.rx_union_version == Some(version) {
            return;
        }
        self.rx_union
            .rebuild(&self.schedule, |cell| cell.options.rx);
        self.rx_union_version = Some(version);
    }

    /// True when the node's Rx slots are exactly enumerable by the
    /// cyclic union (single- and multi-slotframe schedules alike) so the
    /// engine may treat it as a *passive listener*: skip its idle
    /// listens and wake it only for transmissions it could hear, timers,
    /// or its own pending traffic.
    pub fn is_passive_listener(&mut self) -> bool {
        self.refresh_rx_union();
        self.rx_union.exact().is_some()
    }

    /// The next slot at or after `from` for which the *engine* must wake
    /// this node on the MAC's account.
    ///
    /// For a passive listener ([`TschMac::is_passive_listener`]) that is
    /// only its transmission opportunities: the next slot where a Tx cell
    /// has a matching queued frame (`None` with empty queues — idle
    /// listens are accounted lazily, and audible traffic wakes the node
    /// through the transmitter's side). A node whose listen union, or
    /// whose backoff union while a window is pending, is beyond the
    /// cyclic union's caps falls back to [`TschMac::next_active_asn`]:
    /// every listen slot and every qualifying shared cell is a wake-up.
    pub fn next_radio_wake(&mut self, from: Asn) -> Option<Asn> {
        // Memo fast path: the answer only moves on a schedule, queue or
        // backoff mutation, and a cached `Some(a)` covers every query in
        // `[memo.from, a]` (a cached `None` covers all of
        // `[memo.from, ∞)`).
        let sched_version = self.schedule.version();
        let ctrl_mutations = self.control_queue.mutations();
        let data_mutations = self.data_queue.mutations();
        let pending_backoff = self.backoff.pending();
        if let Some(memo) = self.radio_wake_memo {
            if memo.sched_version == sched_version
                && memo.ctrl_mutations == ctrl_mutations
                && memo.data_mutations == data_mutations
                && memo.pending_backoff == pending_backoff
                && memo.from <= from.raw()
                && memo.answer.map_or(true, |a| from.raw() <= a)
            {
                return memo.answer.map(Asn::new);
            }
        }
        let answer = if !self.is_passive_listener() {
            self.next_active_asn(from)
        } else if self.data_queue.is_empty() && self.control_queue.is_empty() {
            None
        } else if pending_backoff == 0 {
            self.schedule
                .next_active_asn(from, |cell| cell.options.tx && self.has_frame_for(cell))
        } else {
            // A backoff window is pending: blocked shared Tx-only cells
            // are provable sleeps (their consumption is settled in
            // closed form — `settle_to`), and blocked shared
            // Tx+Rx cells fall back to passive listens the probe already
            // covers. Wake at the earlier of the next contention-free
            // transmission and the slot where the window releases the
            // shared cells.
            self.refresh_backoff_union();
            match self.backoff_union.exact() {
                None => self.next_active_asn(from),
                Some(qualifying) => {
                    let dedicated = self.schedule.next_active_asn(from, |cell| {
                        cell.options.tx && !cell.options.shared && self.has_frame_for(cell)
                    });
                    let release = backoff_release_slot(qualifying, from.raw(), pending_backoff);
                    match (dedicated.map(Asn::raw), release) {
                        (Some(d), Some(r)) => Some(Asn::new(d.min(r))),
                        (Some(d), None) => Some(Asn::new(d)),
                        (None, Some(r)) => Some(Asn::new(r)),
                        (None, None) => None,
                    }
                }
            }
        };
        self.radio_wake_memo = Some(RadioWakeMemo {
            sched_version,
            ctrl_mutations,
            data_mutations,
            pending_backoff,
            from: from.raw(),
            answer: answer.map(Asn::raw),
        });
        answer
    }

    /// Drains the pending backoff window by the slots of `[from, to)` in
    /// which `plan_slot` would have consumed one unit of it: those where
    /// some shared Tx cell has a matching queued frame, counted in
    /// closed form over the backoff union.
    fn drain_backoff(&mut self, from: u64, to: u64) {
        if self.backoff.may_transmit()
            || (self.data_queue.is_empty() && self.control_queue.is_empty())
        {
            return;
        }
        self.refresh_backoff_union();
        let Some(qualifying) = self.backoff_union.exact() else {
            // Beyond the caps, `next_radio_wake` wakes the node at every
            // active slot, so it was processed at every qualifying slot
            // and the range holds none to count.
            return;
        };
        let q = qualifying.count_in(from, to);
        if q > 0 {
            self.backoff
                .on_shared_cells_skipped(q.min(u64::from(u32::MAX)) as u32);
        }
    }

    /// Rebuilds the backoff union if the schedule or either queue
    /// changed since it was last built.
    fn refresh_backoff_union(&mut self) {
        let key = (
            self.schedule.version(),
            self.control_queue.mutations(),
            self.data_queue.mutations(),
        );
        if self.backoff_union_key == Some(key) {
            return;
        }
        let mut union = std::mem::take(&mut self.backoff_union);
        union.rebuild(&self.schedule, |cell| {
            cell.options.tx && cell.options.shared && self.has_frame_for(cell)
        });
        self.backoff_union = union;
        self.backoff_union_key = Some(key);
    }

    /// The first slot at or after `from` in which this passive listener
    /// would listen, with the channel *offset* of that listen. Priority
    /// across slotframes follows `plan_slot`'s candidate scan (lower
    /// handle first — Orchestra's EB < common < unicast rule). `None`
    /// when the node never listens on its own (no Rx cells, or a
    /// beyond-caps schedule, which is always-wake and never probed).
    ///
    /// This is the engine's dense listener-probe index feed: one query
    /// lets the engine skip the node O(1) — without touching it — for
    /// every slot strictly before the returned one, and resolve the
    /// physical channel at that slot from the shared hopping sequence.
    pub fn next_listen(&mut self, from: Asn) -> Option<(Asn, ChannelOffset)> {
        self.refresh_rx_union();
        self.next_listen_cached(from)
    }

    /// [`TschMac::next_listen`] without the listen union's staleness check:
    /// for callers that track schedule changes themselves (the engine's
    /// probe index marks rows stale on any schedule mutation and only
    /// takes this path on rows it knows are fresh).
    ///
    /// # Panics
    ///
    /// Debug-asserts that the listen union really is current.
    pub fn next_listen_cached(&self, from: Asn) -> Option<(Asn, ChannelOffset)> {
        debug_assert!(
            self.rx_union_version == Some(self.schedule.version()),
            "next_listen_cached on a stale listen union"
        );
        let (next, offset) = self.rx_union.exact()?.next_with_offset(from.raw())?;
        Some((Asn::new(next), offset))
    }

    /// Completes a probed listen slot that received `frame`, a frame
    /// addressed to this node, in one call: exactly
    /// [`TschMac::plan_slot`] selecting the slot's listen cell followed
    /// by [`TschMac::finish_slot`] with `Listened(Received(frame))`,
    /// except that the caller keeps the frame to deliver it.
    ///
    /// Only valid when the node would listen at slot `asn` (its
    /// [`TschMac::next_listen`] from `asn` is `asn` itself) and has not
    /// been settled past it — the engine's listener probe guarantees
    /// both. A probed listen that decodes nothing for the node never
    /// comes here: the engine records it in [`BusyListens`] for
    /// [`TschMac::account_busy_listens`].
    pub fn finish_probed_listen(&mut self, asn: Asn, frame: &Frame<P>) {
        debug_assert!(
            self.settled <= asn.raw(),
            "probed listen in a slot already settled"
        );
        // Settle *through* this slot before the delivery that follows
        // can touch the queues. That counts the slot as an idle listen,
        // and drains its backoff unit if a blocked shared Tx+Rx cell
        // with a queued frame is what schedules the listen; the listen
        // received `frame` instead.
        self.settle_to(asn.next());
        self.counters.rx_idle_slots -= 1;
        self.count_received(frame);
    }

    /// Plans the node's action for slot `asn`.
    ///
    /// Cell selection follows Contiki-NG's rule: scan candidate cells in
    /// schedule-priority order; the first Tx cell with a matching queued
    /// frame wins; otherwise the first Rx cell is used to listen;
    /// otherwise the node sleeps. Shared cells consult the backoff state
    /// before transmitting.
    ///
    /// The slots between the watermark and `asn` are settled first
    /// ([`TschMac::settle_to`]), so a MAC's counters always cover every
    /// slot up to the last one planned.
    ///
    /// # Panics
    ///
    /// Panics if the previous slot's [`TschMac::finish_slot`] was skipped.
    pub fn plan_slot(&mut self, asn: Asn) -> SlotAction<P> {
        assert!(
            self.in_flight.is_none(),
            "finish_slot() must be called before planning the next slot"
        );
        self.settle_to(asn);
        // This slot's accounting and backoff consumption are the
        // candidate scan's job.
        self.settled = self.settled.max(asn.raw() + 1);
        self.counters.slots += 1;

        // Candidate cells land in the reused scratch, taken out for the
        // scan so the queue/backoff mutations below can borrow `self`.
        let mut candidates = std::mem::take(&mut self.plan_scratch);
        self.schedule.cells_at_into(asn, &mut candidates);
        let action = self.plan_slot_from(asn, &candidates);
        self.plan_scratch = candidates;
        action
    }

    /// The candidate scan behind [`TschMac::plan_slot`]; `candidates` is
    /// the schedule's priority-ordered cell list for the slot.
    fn plan_slot_from(
        &mut self,
        asn: Asn,
        candidates: &[(SlotframeHandle, Cell)],
    ) -> SlotAction<P> {
        if candidates.is_empty() {
            self.counters.sleep_slots += 1;
            return SlotAction::Sleep;
        }

        let mut listen_cell: Option<Cell> = None;
        let mut backoff_consumed = false;

        for (_handle, cell) in candidates {
            if cell.options.tx {
                if cell.options.shared && !self.backoff.may_transmit() {
                    // Pending backoff: this shared cell is skipped for Tx.
                    // Consume one backoff unit (once per slot) and fall
                    // back to listening if the cell allows it.
                    if self.has_frame_for(cell) && !backoff_consumed {
                        self.backoff.on_shared_cell_skipped();
                        backoff_consumed = true;
                    }
                } else if let Some(packet) = self.take_frame_for(cell) {
                    let channel = hopping::channel(asn, cell.channel_offset);
                    let frame = packet.frame.clone();
                    self.counters.tx_slots += 1;
                    match frame.dst {
                        Dest::Broadcast => self.counters.broadcast_tx += 1,
                        Dest::Unicast(_) => self.counters.unicast_tx += 1,
                    }
                    self.in_flight = Some(InFlight {
                        packet: Outgoing {
                            attempts: packet.attempts + 1,
                            ..packet
                        },
                        shared_cell: cell.options.shared,
                    });
                    return SlotAction::Transmit {
                        cell: *cell,
                        channel,
                        frame,
                    };
                }
            }
            if cell.options.rx && listen_cell.is_none() {
                listen_cell = Some(*cell);
            }
        }

        if let Some(cell) = listen_cell {
            let channel = hopping::channel(asn, cell.channel_offset);
            return SlotAction::Listen { cell, channel };
        }

        self.counters.sleep_slots += 1;
        SlotAction::Sleep
    }

    fn queue_for(&mut self, control: bool) -> &mut PacketQueue<Outgoing<P>> {
        if control {
            &mut self.control_queue
        } else {
            &mut self.data_queue
        }
    }

    /// The queue-matching rule for `cell` (see [`TrafficClass`]):
    ///
    /// * `Eb` cells carry only EB frames,
    /// * `Broadcast` cells carry any control frame whose destination the
    ///   cell accepts (the common/fallback slot),
    /// * `SixP` cells carry unicast control towards their peer,
    /// * `Data` cells carry data-queue frames towards their peer,
    /// * `Shared` cells carry unicast control first, then data.
    fn control_matches(cell: &Cell, o: &Outgoing<P>) -> bool {
        match cell.class {
            CellClass::Eb => o.class == Some(TrafficClass::Eb) && cell.matches_tx(o.frame.dst),
            CellClass::Broadcast => cell.matches_tx(o.frame.dst),
            CellClass::SixP | CellClass::Shared => {
                o.class == Some(TrafficClass::ControlUnicast)
                    && !o.frame.dst.is_broadcast()
                    && cell.matches_tx(o.frame.dst)
            }
            CellClass::Data => false,
        }
    }

    fn serves_data(cell: &Cell) -> bool {
        matches!(cell.class, CellClass::Data | CellClass::Shared)
    }

    /// True if some queued frame could go out in `cell`.
    fn has_frame_for(&self, cell: &Cell) -> bool {
        if self
            .control_queue
            .peek_where(|o| Self::control_matches(cell, o))
            .is_some()
        {
            return true;
        }
        Self::serves_data(cell)
            && self
                .data_queue
                .peek_where(|o| cell.matches_tx(o.frame.dst))
                .is_some()
    }

    /// Pops the frame that should go out in `cell`, if any.
    fn take_frame_for(&mut self, cell: &Cell) -> Option<Outgoing<P>> {
        if let Some(o) = self
            .control_queue
            .pop_where(|o| Self::control_matches(cell, o))
        {
            return Some(o);
        }
        if Self::serves_data(cell) {
            return self.data_queue.pop_where(|o| cell.matches_tx(o.frame.dst));
        }
        None
    }

    /// Completes the slot, updating all MAC state.
    ///
    /// Returns a frame for the upper layers when one was received and
    /// addressed to this node (or broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `result` is inconsistent with the planned action (e.g.
    /// `Transmitted` without a pending in-flight packet).
    pub fn finish_slot(&mut self, result: SlotResult<P>) -> Option<Frame<P>> {
        match result {
            SlotResult::Slept => {
                // Sleep was already accounted in plan_slot.
                assert!(self.in_flight.is_none(), "slept with a packet in flight");
                None
            }
            SlotResult::Transmitted { acked } => {
                let fl = self
                    .in_flight
                    .take()
                    .expect("Transmitted result without an in-flight packet");
                self.handle_tx_result(fl, acked);
                None
            }
            SlotResult::Listened(outcome) => {
                assert!(self.in_flight.is_none(), "listened with a packet in flight");
                self.handle_rx_outcome(outcome)
            }
        }
    }

    fn handle_tx_result(&mut self, fl: InFlight<P>, acked: Option<bool>) {
        match (fl.packet.frame.dst, acked) {
            (Dest::Broadcast, _) => {
                // Broadcasts are fire-and-forget.
            }
            (Dest::Unicast(peer), Some(true)) => {
                let attempts = fl.packet.attempts;
                self.link_stats
                    .get_or_insert_with(peer, EtxEstimator::new)
                    .record_success(attempts.max(1));
                self.counters.unicast_acked += 1;
                if fl.shared_cell {
                    self.backoff.on_success();
                }
            }
            (Dest::Unicast(peer), _) => {
                // Not acknowledged: retry or drop.
                if fl.shared_cell {
                    self.backoff.on_failure(&mut self.rng);
                }
                if fl.packet.attempts > MAX_RETRIES {
                    self.link_stats
                        .get_or_insert_with(peer, EtxEstimator::new)
                        .record_failure();
                    self.counters.drops_retry_exhausted += 1;
                } else {
                    // Head-of-line requeue preserves delivery order. A
                    // queue that filled up while the packet was in
                    // flight rejects it and counts the drop as queue
                    // loss, like a tail drop.
                    let control = fl.packet.control;
                    let _ = self.queue_for(control).requeue_front(fl.packet);
                }
            }
        }
    }

    fn handle_rx_outcome(&mut self, outcome: RxOutcome<P>) -> Option<Frame<P>> {
        match outcome {
            RxOutcome::Idle => {
                self.counters.rx_idle_slots += 1;
                None
            }
            RxOutcome::Faded => {
                self.counters.rx_busy_slots += 1;
                None
            }
            RxOutcome::Collision(_) => {
                self.counters.rx_busy_slots += 1;
                self.counters.collisions_heard += 1;
                None
            }
            RxOutcome::Overheard => {
                self.counters.rx_busy_slots += 1;
                self.counters.rx_overheard += 1;
                None
            }
            RxOutcome::Received(frame) => {
                self.count_received(&frame);
                Some(frame)
            }
        }
    }

    /// Counts a received frame. The medium has already filtered by
    /// address ([`RxOutcome::Overheard`]), so every frame is accepted.
    fn count_received(&mut self, frame: &Frame<P>) {
        debug_assert!(
            frame.dst == Dest::Broadcast || frame.dst == Dest::Unicast(self.id),
            "received a frame addressed to another node"
        );
        self.counters.rx_busy_slots += 1;
        self.counters.rx_accepted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::SlotOffset;
    use crate::cell::CellOptions;
    use crate::hopping::ChannelOffset;
    use crate::slotframe::{Slotframe, SlotframeHandle};
    use gtt_net::PacketId;
    use gtt_sim::SimTime;

    fn mac() -> TschMac<u32> {
        TschMac::new(NodeId::new(1), Pcg32::new(42))
    }

    fn data_frame(dst: u16, payload: u32) -> Frame<u32> {
        Frame::new(
            PacketId::new(payload as u64),
            NodeId::new(1),
            Dest::Unicast(NodeId::new(dst)),
            SimTime::ZERO,
            payload,
        )
    }

    fn bcast_frame(payload: u32) -> Frame<u32> {
        Frame::new(
            PacketId::new(payload as u64),
            NodeId::new(1),
            Dest::Broadcast,
            SimTime::ZERO,
            payload,
        )
    }

    /// Schedule: slot0 broadcast, slot1 data-Tx→n0, slot2 data-Rx←n2,
    /// in a 4-slot frame (slot 3 = sleep).
    fn install_schedule(m: &mut TschMac<u32>) {
        let mut sf = Slotframe::new(4);
        sf.add(Cell::broadcast(SlotOffset::new(0), ChannelOffset::new(0)));
        sf.add(Cell::data_tx(
            SlotOffset::new(1),
            ChannelOffset::new(1),
            NodeId::new(0),
        ));
        sf.add(Cell::data_rx(
            SlotOffset::new(2),
            ChannelOffset::new(1),
            NodeId::new(2),
        ));
        m.schedule_mut().add_slotframe(SlotframeHandle::new(0), sf);
    }

    #[test]
    fn empty_slot_sleeps() {
        let mut m = mac();
        install_schedule(&mut m);
        let action = m.plan_slot(Asn::new(3));
        assert!(action.is_sleep());
        m.finish_slot(SlotResult::Slept);
        // Planning slot 3 settled the skipped slots 0..3 first: idle
        // listens at 0 (broadcast) and 2 (data Rx), a sleep at 1 (a Tx
        // cell with nothing queued), then slot 3's own sleep.
        let c = m.counters();
        assert_eq!((c.slots, c.rx_idle_slots, c.sleep_slots), (4, 2, 2));
    }

    #[test]
    fn tx_cell_without_traffic_sleeps() {
        let mut m = mac();
        install_schedule(&mut m);
        // Slot 1 is a dedicated Tx cell but the queue is empty.
        let action = m.plan_slot(Asn::new(1));
        assert!(action.is_sleep());
    }

    #[test]
    fn data_tx_uses_dedicated_cell_and_ack_clears_queue() {
        let mut m = mac();
        install_schedule(&mut m);
        m.enqueue_data(data_frame(0, 7)).unwrap();
        let action = m.plan_slot(Asn::new(1));
        match &action {
            SlotAction::Transmit { frame, .. } => assert_eq!(frame.payload, 7),
            other => panic!("expected Transmit, got {other:?}"),
        }
        m.finish_slot(SlotResult::Transmitted { acked: Some(true) });
        assert_eq!(m.data_queue_len(), 0);
        assert_eq!(m.counters().unicast_acked, 1);
        assert_eq!(m.etx(NodeId::new(0)), 1.0);
    }

    #[test]
    fn requeue_into_a_full_queue_is_queue_loss() {
        let mut m = mac();
        install_schedule(&mut m);
        m.enqueue_data(data_frame(0, 1)).unwrap();
        assert!(matches!(
            m.plan_slot(Asn::new(1)),
            SlotAction::Transmit { .. }
        ));
        // The queue fills up, the frame's freed place included, while
        // the frame is in flight; then it is not acknowledged.
        for i in 0..m.data_queue_capacity() {
            m.enqueue_data(data_frame(0, 10 + i as u32)).unwrap();
        }
        m.finish_slot(SlotResult::Transmitted { acked: Some(false) });
        assert_eq!(m.data_queue_len(), m.data_queue_capacity());
        assert_eq!(m.queue_loss(), 1, "the retry found no room");
        assert_eq!(m.counters().drops_retry_exhausted, 0, "retries were left");
    }

    #[test]
    fn nack_requeues_until_retry_limit() {
        let mut m = mac();
        install_schedule(&mut m);
        m.enqueue_data(data_frame(0, 9)).unwrap();
        // max_retries = 4 ⇒ 5 transmissions total, then drop.
        for round in 0..5 {
            let asn = Asn::new(1 + 4 * round);
            let action = m.plan_slot(asn);
            assert!(
                matches!(action, SlotAction::Transmit { .. }),
                "round {round} should retransmit"
            );
            m.finish_slot(SlotResult::Transmitted { acked: Some(false) });
        }
        assert_eq!(m.data_queue_len(), 0, "packet dropped after retries");
        assert_eq!(m.counters().drops_retry_exhausted, 1);
        assert!(m.etx(NodeId::new(0)) > 1.0);
        // Nothing left to send.
        assert!(m.plan_slot(Asn::new(21)).is_sleep());
    }

    #[test]
    fn link_stats_hold_only_sampled_peers() {
        // A one-slot frame whose non-shared Tx cell carries unicasts to
        // any peer.
        let mut m = mac();
        let mut sf = Slotframe::new(1);
        let any_peer = Cell::new(
            SlotOffset::new(0),
            ChannelOffset::new(0),
            CellOptions::TX,
            Dest::Broadcast,
            CellClass::Data,
        );
        sf.add(any_peer);
        m.schedule_mut().add_slotframe(SlotframeHandle::new(0), sf);
        // Inserts land at the back, the front and the middle: acked at
        // the second attempt, at the first, and never.
        let mut asn = 0;
        for (peer, acks) in [(9_999, 2), (0, 1), (5_000, 0)] {
            m.enqueue_data(data_frame(peer, 0)).unwrap();
            for attempt in 1..=MAX_RETRIES + 1 {
                assert!(matches!(
                    m.plan_slot(Asn::new(asn)),
                    SlotAction::Transmit { .. }
                ));
                asn += 1;
                let acked = attempt == acks;
                m.finish_slot(SlotResult::Transmitted { acked: Some(acked) });
                if acked {
                    break;
                }
            }
            assert_eq!(m.data_queue_len(), 0);
        }
        // One entry per sampled peer, however far apart their ids.
        assert_eq!(m.link_stats.len(), 3);
        let held: Vec<(u16, f64)> = m.link_stats().map(|(p, e)| (p.raw(), e.value())).collect();
        let penalty = EtxEstimator::FAILURE_PENALTY;
        assert_eq!(held, [(0, 1.0), (5_000, penalty), (9_999, 2.0)]);
        assert_eq!(m.etx(NodeId::new(5_000)), penalty);
        assert_eq!(m.etx(NodeId::new(4_999)), 1.0, "an untouched peer");
    }

    #[test]
    fn broadcast_is_fire_and_forget() {
        let mut m = mac();
        install_schedule(&mut m);
        m.enqueue_control(bcast_frame(1), TrafficClass::Broadcast)
            .unwrap();
        let action = m.plan_slot(Asn::new(0));
        assert!(matches!(action, SlotAction::Transmit { .. }));
        m.finish_slot(SlotResult::Transmitted { acked: None });
        assert_eq!(m.control_queue_len(), 0);
        assert_eq!(m.counters().broadcast_tx, 1);
    }

    #[test]
    fn rx_cell_listens_and_accepts_addressed_frame() {
        let mut m = mac();
        install_schedule(&mut m);
        let action = m.plan_slot(Asn::new(2));
        assert!(matches!(action, SlotAction::Listen { .. }));
        let incoming = Frame::new(
            PacketId::new(50),
            NodeId::new(2),
            Dest::Unicast(NodeId::new(1)),
            SimTime::ZERO,
            50,
        );
        let delivered = m.finish_slot(SlotResult::Listened(RxOutcome::Received(incoming)));
        assert_eq!(delivered.unwrap().payload, 50);
        assert_eq!(m.counters().rx_accepted, 1);
    }

    #[test]
    fn overheard_unicast_is_filtered() {
        // The medium filters by address: a unicast to another node
        // arrives as the frameless `Overheard`.
        let mut m = mac();
        install_schedule(&mut m);
        m.plan_slot(Asn::new(2));
        let delivered = m.finish_slot(SlotResult::Listened(RxOutcome::Overheard));
        assert!(delivered.is_none());
        let c = m.counters();
        assert_eq!(c.rx_overheard, 1);
        assert_eq!(c.rx_busy_slots, 1);
        assert_eq!(c.rx_accepted, 0);
    }

    #[test]
    fn idle_listen_and_collision_accounting() {
        let mut m = mac();
        install_schedule(&mut m);
        m.plan_slot(Asn::new(2));
        m.finish_slot(SlotResult::Listened(RxOutcome::Idle));
        m.plan_slot(Asn::new(6));
        m.finish_slot(SlotResult::Listened(RxOutcome::Collision(2)));
        let c = m.counters();
        // Idle: the listen planned at 2 and the skipped ones at 0 and 4;
        // the skipped slots 1, 3 and 5 slept.
        assert_eq!(c.rx_idle_slots, 3);
        assert_eq!(c.rx_busy_slots, 1);
        assert_eq!(c.collisions_heard, 1);
        assert_eq!((c.slots, c.sleep_slots), (7, 3));
    }

    #[test]
    fn duty_cycle_weights_idle_listens() {
        let mut m = mac();
        install_schedule(&mut m);
        assert_eq!(m.counters().duty_cycle(), 0.0, "no slot counted yet");
        // One idle listen (slot 2), one sleep (slot 3).
        m.plan_slot(Asn::new(2));
        m.finish_slot(SlotResult::Listened(RxOutcome::Idle));
        m.plan_slot(Asn::new(3));
        m.finish_slot(SlotResult::Slept);
        let dc = m.counters().duty_cycle();
        let expected = IDLE_LISTEN_FRACTION / 2.0;
        assert!((dc - expected).abs() < 1e-12, "dc {dc} ≠ {expected}");
    }

    #[test]
    fn control_beats_data_in_shared_cell() {
        let mut m = mac();
        let mut sf = Slotframe::new(2);
        sf.add(Cell::new(
            SlotOffset::new(0),
            ChannelOffset::new(0),
            CellOptions::TX_RX_SHARED,
            Dest::Unicast(NodeId::new(0)),
            CellClass::Shared,
        ));
        m.schedule_mut().add_slotframe(SlotframeHandle::new(0), sf);
        m.enqueue_data(data_frame(0, 1)).unwrap();
        m.enqueue_control(data_frame(0, 2), TrafficClass::ControlUnicast)
            .unwrap(); // unicast control (6P-like)
        match m.plan_slot(Asn::new(0)) {
            SlotAction::Transmit { frame, .. } => assert_eq!(frame.payload, 2),
            other => panic!("expected control frame first, got {other:?}"),
        }
        m.finish_slot(SlotResult::Transmitted { acked: Some(true) });
    }

    #[test]
    fn shared_cell_backoff_defers_transmission() {
        let mut m = mac();
        let mut sf = Slotframe::new(1);
        sf.add(Cell::new(
            SlotOffset::new(0),
            ChannelOffset::new(0),
            CellOptions::TX_RX_SHARED,
            Dest::Unicast(NodeId::new(0)),
            CellClass::Shared,
        ));
        m.schedule_mut().add_slotframe(SlotframeHandle::new(0), sf);
        m.enqueue_data(data_frame(0, 1)).unwrap();

        // Fail once to trigger a backoff window.
        let mut asn = Asn::new(0);
        loop {
            match m.plan_slot(asn) {
                SlotAction::Transmit { .. } => {
                    m.finish_slot(SlotResult::Transmitted { acked: Some(false) });
                    break;
                }
                _ => {
                    m.finish_slot(SlotResult::Listened(RxOutcome::Idle));
                }
            }
            asn = asn.next();
        }
        // The packet is requeued; subsequent shared cells may be skipped
        // while the backoff window drains, during which the node listens
        // instead of transmitting.
        let mut transmitted = 0;
        let mut listened = 0;
        for i in 1..40 {
            match m.plan_slot(Asn::new(i)) {
                SlotAction::Transmit { .. } => {
                    transmitted += 1;
                    m.finish_slot(SlotResult::Transmitted { acked: Some(true) });
                    break;
                }
                SlotAction::Listen { .. } => {
                    listened += 1;
                    m.finish_slot(SlotResult::Listened(RxOutcome::Idle));
                }
                SlotAction::Sleep => m.finish_slot(SlotResult::Slept).map_or((), |_| ()),
            }
        }
        assert_eq!(transmitted, 1, "packet eventually retransmitted");
        // With seed 42 the first failure draws a non-zero window, so at
        // least one listen slot happens before the retry.
        assert!(listened >= 1, "backoff should defer at least one slot");
    }

    #[test]
    fn queue_loss_counted_on_overflow() {
        let mut m = mac();
        for i in 0..m.data_queue_capacity() {
            m.enqueue_data(data_frame(0, i as u32)).unwrap();
        }
        assert!(m.enqueue_data(data_frame(0, 99)).is_err());
        assert_eq!(m.queue_loss(), 1);
    }

    #[test]
    fn drain_data_where_reroutes() {
        let mut m = mac();
        m.enqueue_data(data_frame(0, 1)).unwrap();
        m.enqueue_data(data_frame(5, 2)).unwrap();
        let to_old_parent = m.drain_data_where(|f| f.dst == Dest::Unicast(NodeId::new(0)));
        assert_eq!(to_old_parent.len(), 1);
        assert_eq!(m.data_queue_len(), 1);
    }

    #[test]
    fn next_active_asn_skips_idle_tx_cells() {
        let mut m = mac();
        install_schedule(&mut m);
        // Slots 0 (broadcast, Rx) and 2 (data Rx) are always active; the
        // dedicated Tx cell at slot 1 only matters once traffic is queued.
        assert_eq!(m.next_active_asn(Asn::new(0)), Some(Asn::new(0)));
        assert_eq!(m.next_active_asn(Asn::new(1)), Some(Asn::new(2)));
        assert_eq!(m.next_active_asn(Asn::new(3)), Some(Asn::new(4)));
        m.enqueue_data(data_frame(0, 7)).unwrap();
        assert_eq!(m.next_active_asn(Asn::new(1)), Some(Asn::new(1)));
        // A frame towards a peer with no matching cell does not wake slot 1.
        let mut m2 = mac();
        install_schedule(&mut m2);
        m2.enqueue_data(data_frame(9, 8)).unwrap();
        assert_eq!(m2.next_active_asn(Asn::new(1)), Some(Asn::new(2)));
    }

    #[test]
    fn next_active_asn_none_without_schedule() {
        let m = mac();
        assert_eq!(m.next_active_asn(Asn::ZERO), None);
    }

    #[test]
    fn next_active_agrees_with_plan_slot() {
        // In every slot that next_active_asn classifies as inactive,
        // plan_slot must sleep without side effects beyond the counters.
        let mut m = mac();
        install_schedule(&mut m);
        m.enqueue_data(data_frame(0, 1)).unwrap();
        for raw in 0..32u64 {
            let asn = Asn::new(raw);
            let active = m.next_active_asn(asn) == Some(asn);
            let action = m.plan_slot(asn);
            // No shared Tx cell carries the queued unicast frame here, so
            // backoff never blocks a transmission and "active" collapses
            // to "does not sleep".
            assert_eq!(active, !action.is_sleep(), "disagreement at {asn}");
            match action {
                SlotAction::Sleep => {
                    m.finish_slot(SlotResult::Slept);
                }
                SlotAction::Transmit { .. } => {
                    m.finish_slot(SlotResult::Transmitted { acked: Some(false) });
                }
                SlotAction::Listen { .. } => {
                    m.finish_slot(SlotResult::Listened(RxOutcome::Idle));
                }
            }
        }
    }

    #[test]
    fn account_skipped_matches_planned_sleeps_and_idle_listens() {
        let mut a = mac();
        install_schedule(&mut a);
        let mut b = a.clone();
        // a: plan/finish slots 2..18 — even slots listen (data Rx at 2
        // mod 4, broadcast at 0 mod 4), odd slots are cell-free or an
        // empty Tx. The listens hear nothing, fade, collide or overhear,
        // and `pending` records the same outcomes for b. Planning slot 2
        // settles the skipped slots 0 (an idle listen) and 1 (a sleep).
        let mut pending = BusyListens::default();
        let heard = [
            RxOutcome::Idle,
            RxOutcome::Faded,
            RxOutcome::Collision(2),
            RxOutcome::Overheard,
            RxOutcome::Idle,
            RxOutcome::Overheard,
            RxOutcome::Collision(3),
            RxOutcome::Overheard,
        ];
        let mut heard = heard.into_iter();
        for raw in 2u64..18 {
            match a.plan_slot(Asn::new(raw)) {
                SlotAction::Listen { .. } => {
                    let outcome = heard.next().expect("eight listens");
                    assert!(pending.record(outcome.clone()).is_none());
                    assert!(a.finish_slot(SlotResult::Listened(outcome)).is_none());
                }
                SlotAction::Sleep => {
                    a.finish_slot(SlotResult::Slept);
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert!(heard.next().is_none(), "every outcome was heard");
        // b: settle the same eighteen slots (9 listens, 9 sleeps) in
        // bulk — the listen union must agree with what plan_slot did —
        // then fold in the listens that heard something.
        b.settle_to(Asn::new(18));
        let c = b.counters();
        assert_eq!((c.slots, c.rx_idle_slots, c.sleep_slots), (18, 9, 9));
        assert_eq!(
            pending,
            BusyListens {
                faded: 1,
                collisions: 2,
                overheard: 3,
            }
        );
        b.account_busy_listens(pending);
        assert_eq!(a.counters(), b.counters());
        assert_eq!(b.counters().rx_idle_slots, 3);
        assert_eq!(b.counters().rx_busy_slots, 6);
    }

    #[test]
    fn count_listen_slots_cyclic_ranges() {
        let mut m = mac();
        install_schedule(&mut m);
        // Listens at offsets 0 (broadcast) and 2 (data Rx) of a 4-slot
        // frame: settling `[from, to)` counts them as idle listens and
        // the other slots as sleeps.
        let listens = |from: u64, to: u64| {
            let mut m = m.clone();
            m.settle_to(Asn::new(from));
            let before = m.counters();
            m.settle_to(Asn::new(to));
            let after = m.counters();
            assert_eq!(after.slots - before.slots, to - from);
            let idle = after.rx_idle_slots - before.rx_idle_slots;
            assert_eq!(after.sleep_slots - before.sleep_slots, to - from - idle);
            idle
        };
        assert_eq!(listens(0, 4), 2);
        assert_eq!(listens(0, 40), 20);
        assert_eq!(listens(1, 3), 1);
        assert_eq!(listens(3, 5), 1);
        assert_eq!(listens(3, 9), 3);
        assert_eq!(listens(5, 5), 0);
        // Settling to a slot already covered changes nothing.
        m.settle_to(Asn::new(9));
        let settled = m.counters();
        m.settle_to(Asn::new(5));
        assert_eq!(m.counters(), settled);
        // Empty schedule: never listens.
        let mut empty = mac();
        empty.settle_to(Asn::new(100));
        assert_eq!(empty.counters().rx_idle_slots, 0);
        assert_eq!(empty.counters().sleep_slots, 100);
    }

    #[test]
    fn passive_listener_wakes_only_for_traffic() {
        let mut m = mac();
        install_schedule(&mut m);
        assert!(m.is_passive_listener(), "single slotframe is passive");
        // Queues empty: the engine never needs to wake it for the MAC.
        assert_eq!(m.next_radio_wake(Asn::new(0)), None);
        // Queued data towards the dedicated Tx peer: wake at slot 1.
        m.enqueue_data(data_frame(0, 7)).unwrap();
        assert_eq!(m.next_radio_wake(Asn::new(0)), Some(Asn::new(1)));
        assert_eq!(m.next_radio_wake(Asn::new(2)), Some(Asn::new(5)));
        // A frame no Tx cell matches never wakes the node.
        let mut m2 = mac();
        install_schedule(&mut m2);
        m2.enqueue_data(data_frame(9, 8)).unwrap();
        assert_eq!(m2.next_radio_wake(Asn::new(0)), None);
    }

    /// The channel the engine's listener probe reads for `m` at `asn`
    /// from [`TschMac::next_listen`], or `None` when `m` does not listen
    /// there.
    fn probed_channel(m: &mut TschMac<u32>, asn: Asn) -> Option<PhysicalChannel> {
        m.next_listen(asn)
            .filter(|&(next, _)| next == asn)
            .map(|(_, offset)| hopping::channel(asn, offset))
    }

    #[test]
    fn listen_channel_matches_plan_slot() {
        let mut m = mac();
        install_schedule(&mut m);
        for raw in 0..8u64 {
            let asn = Asn::new(raw);
            let probed = probed_channel(&mut m, asn);
            match m.plan_slot(asn) {
                SlotAction::Listen { channel, .. } => {
                    assert_eq!(probed, Some(channel), "slot {raw}");
                    m.finish_slot(SlotResult::Listened(RxOutcome::Idle));
                }
                SlotAction::Sleep => {
                    assert_eq!(probed, None, "slot {raw}");
                    m.finish_slot(SlotResult::Slept);
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
    }

    #[test]
    fn multi_slotframe_schedule_is_passive_and_indexed_exactly() {
        // A second slotframe of coprime length no longer demotes the
        // node to always-wake: the cyclic-union index covers it.
        let mut m = mac();
        install_schedule(&mut m); // 4-slot frame, listens at offsets 0, 2
        let mut sf2 = Slotframe::new(7);
        sf2.add(Cell::data_rx(
            SlotOffset::new(5),
            ChannelOffset::new(2),
            NodeId::new(3),
        ));
        m.schedule_mut().add_slotframe(SlotframeHandle::new(1), sf2);
        assert!(m.is_passive_listener(), "multi-slotframe is passive now");
        // Queues empty ⇒ the engine never wakes it on the MAC's account.
        assert_eq!(m.next_radio_wake(Asn::new(0)), None);

        // The index must agree with plan_slot over a full hyperperiod
        // (lcm(4,7) = 28), both on channels and on counts.
        let mut reference = m.clone();
        let mut listens = 0u64;
        for raw in 0..56u64 {
            let asn = Asn::new(raw);
            let probed = probed_channel(&mut m, asn);
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
                other => panic!("unexpected action {other:?}"),
            }
        }
        // Bulk settlement matches the slot-by-slot reference exactly.
        m.settle_to(Asn::new(56));
        assert_eq!(m.counters().rx_idle_slots, listens);
        assert_eq!(m.counters(), reference.counters());
    }

    #[test]
    fn beyond_caps_schedule_falls_back_to_always_wake() {
        // Five Rx-bearing slotframes exceed the union's chain cap; the
        // node degrades to the pre-index behavior: woken for every
        // active slot, no skippable listens.
        let mut m = mac();
        install_schedule(&mut m);
        for i in 1..5u8 {
            let mut sf = Slotframe::new(4 + i as u16);
            sf.add(Cell::data_rx(
                SlotOffset::new(1),
                ChannelOffset::new(i),
                NodeId::new(3),
            ));
            m.schedule_mut().add_slotframe(SlotframeHandle::new(i), sf);
        }
        assert!(!m.is_passive_listener());
        assert_eq!(
            m.next_radio_wake(Asn::new(0)),
            m.next_active_asn(Asn::new(0))
        );
        // Without a listen index the probe never sees the node, and
        // settling counts no listen: every one is a wake-up.
        assert_eq!(m.next_listen(Asn::new(0)), None);
        m.settle_to(Asn::new(64));
        assert_eq!(m.counters().rx_idle_slots, 0);
        assert_eq!(m.counters().sleep_slots, 64);
    }

    #[test]
    #[should_panic(expected = "finish_slot")]
    fn skipping_finish_slot_panics() {
        let mut m = mac();
        install_schedule(&mut m);
        m.enqueue_data(data_frame(0, 7)).unwrap();
        let _ = m.plan_slot(Asn::new(1));
        let _ = m.plan_slot(Asn::new(2));
    }
}
