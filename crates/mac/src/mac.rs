//! The per-node TSCH MAC state machine.

use gtt_net::{Dest, Frame, NodeId, PacketQueue, PeerMap, PhysicalChannel, RxOutcome};
use gtt_sim::Pcg32;

use crate::asn::Asn;
use crate::backoff::SharedCellBackoff;
use crate::cell::{Cell, CellClass};
use crate::hopping::{self, ChannelOffset};
use crate::slotframe::{count_congruent, crt_combine, Schedule, SlotframeHandle};
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

/// Minimum backoff exponent for shared cells.
pub const MIN_BACKOFF_EXPONENT: u8 = 1;

/// Maximum backoff exponent for shared cells.
pub const MAX_BACKOFF_EXPONENT: u8 = 5;

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

/// Schedule-derived wake tables, cached against [`Schedule::version`].
#[derive(Debug, Clone)]
struct WakeCache {
    version: u64,
    /// `Some` when the schedule's listen slots are exactly enumerable by
    /// the cyclic-union Rx index — any number of prioritized slotframes
    /// within [`RxUnion`]'s complexity caps, which covers GT-TSCH's
    /// single slotframe and Orchestra's three alike. The node is then a
    /// *passive listener*: an event-driven engine can account its idle
    /// listens without waking it (see [`TschMac::next_radio_wake`]).
    /// `None` only for pathological schedules beyond the caps, which
    /// fall back to waking on every active slot.
    rx_union: Option<crate::slotframe::RxUnion>,
    /// Listen-miss memo `(covered_from, next_listen)`: the node provably
    /// has no Rx slot in `[covered_from, next_listen)`. The engine asks
    /// [`TschMac::sleeps_at`], and so [`TschMac::listen_channel_at`],
    /// whenever the node is due on a timer, and across a quiet gap the
    /// common answer — "not listening" — is O(1) instead of a union
    /// query. (The engine's listener probe of busy slots does not come
    /// here: it reads its own index, fed by [`TschMac::next_listen`].)
    /// Rebuilt with the cache, so schedule changes invalidate it.
    listen_miss_memo: (u64, u64),
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
    wake_cache: Option<WakeCache>,
    /// Candidate-cell scratch for `plan_slot`, reused every active slot
    /// so the per-slot hot path never allocates.
    plan_scratch: Vec<(SlotframeHandle, Cell)>,
    /// Memoized [`TschMac::next_radio_wake`] answer (see
    /// [`RadioWakeMemo`]): the engine re-asks after every processed slot,
    /// and between queue/schedule mutations the answer cannot change.
    radio_wake_memo: Option<RadioWakeMemo>,
    /// First ASN whose shared-cell backoff consumption has *not* been
    /// applied yet. Between processings, queues and schedule are frozen,
    /// so the slots in which `plan_slot` would have consumed one backoff
    /// unit (some shared Tx cell with a matching queued frame) form a
    /// small union of arithmetic progressions — the engine settles whole
    /// skipped ranges in closed form ([`TschMac::settle_backoff_to`])
    /// instead of waking the node once per contended shared cell.
    backoff_anchor: u64,
    /// The qualifying `(slot offset, frame length)` progressions,
    /// deduplicated, followed by the pre-solved inclusion–exclusion
    /// terms of their union (see [`BackoffTerms`]). Reused so settling
    /// never allocates, and rebuilt only when its key changes, so a
    /// settlement is a handful of closed-form counts with no congruence
    /// solving.
    backoff_progs: Vec<(u64, u64)>,
    /// Cache key for `backoff_progs`: `(schedule version, control-queue
    /// mutations, data-queue mutations)`. The qualifying set is a pure
    /// function of those, and contended nodes are probed as listeners
    /// many times between mutations.
    backoff_progs_key: Option<(u64, u64, u64)>,
    /// How `backoff_progs` splits into progressions and terms.
    backoff_terms: BackoffTerms,
    /// Whether the cached `backoff_progs` suppressed a duplicate.
    backoff_progs_dup: bool,
}

/// Beyond this many qualifying progressions the settlement keeps no
/// pre-solved terms, and [`backoff_release_slot`] wakes the node at every
/// qualifying slot instead.
const MAX_SOLVED_PROGS: usize = 4;

/// The layout of [`TschMac`]'s `backoff_progs` past its progressions:
/// `Solved { progs, plus }` when the set has at most
/// [`MAX_SOLVED_PROGS`] progressions. The first `progs` entries are the
/// progressions, which are also the single-progression terms of the
/// union's inclusion–exclusion count. The overlap classes of every
/// larger subset follow as `(residue, modulus)` pairs: those of odd size
/// first, so the first `plus` entries count positively and the rest
/// negatively. `Walked` sets hold only their progressions and are
/// counted occurrence by occurrence.
#[derive(Debug, Clone, Copy)]
enum BackoffTerms {
    /// No pre-solved terms: count by walking occurrences.
    Walked,
    /// Progressions, then overlap terms of odd size, then of even size.
    Solved {
        /// Leading entries that are progressions.
        progs: u8,
        /// Leading entries that count positively.
        plus: u8,
    },
}

/// Appends the overlap terms of the union of `progs`, deduplicated
/// `(offset, length)` progressions, and says where they start (see
/// [`BackoffTerms`]). A subset holding two progressions of equal length
/// has no slot in common, since equal-length progressions are distinct
/// residues of one modulus; every other subset is one CRT system,
/// solved here and never again while the set stands.
fn solve_backoff_terms(progs: &mut Vec<(u64, u64)>) -> BackoffTerms {
    let n = progs.len();
    if n > MAX_SOLVED_PROGS {
        return BackoffTerms::Walked;
    }
    let mut plus = n;
    for odd in [true, false] {
        for mask in 3u32..(1 << n) {
            let size = mask.count_ones();
            if size < 2 || (size % 2 == 1) != odd {
                continue;
            }
            let chosen = |i: usize| mask & (1 << i) != 0;
            let repeats_a_length =
                (0..n).any(|i| chosen(i) && (0..i).any(|j| chosen(j) && progs[j].1 == progs[i].1));
            if repeats_a_length {
                continue;
            }
            let mut members = (0..n).filter(|&i| chosen(i)).map(|i| progs[i]);
            let first = members.next().expect("a subset of two or more");
            let class = members.try_fold(first, |(r, m), (off, len)| crt_combine(r, m, off, len));
            if let Some(class) = class {
                progs.push(class);
            }
        }
        if odd {
            plus = progs.len();
        }
    }
    BackoffTerms::Solved {
        progs: n as u8,
        plus: plus as u8,
    }
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

/// Qualifying slots in `[from, to)` of a progression set laid out by
/// [`solve_backoff_terms`]: inclusion–exclusion over its pre-solved
/// terms, or for a `Walked` set its occurrences one by one, at most
/// `limit` of them (the pending window, all a settlement can consume).
/// The release rule wakes a node with a `Walked` set at each qualifying
/// slot, so the engine's walks end at once.
fn count_qualifying(
    terms: &[(u64, u64)],
    layout: BackoffTerms,
    from: u64,
    to: u64,
    limit: u32,
) -> u64 {
    match layout {
        BackoffTerms::Solved { plus, .. } => {
            let count = |&(r, m): &(u64, u64)| count_congruent(from, to, r, m);
            let (plus, minus) = terms.split_at(usize::from(plus));
            let covered: u64 = plus.iter().map(count).sum();
            let overlaps: u64 = minus.iter().map(count).sum();
            debug_assert!(covered >= overlaps, "inclusion–exclusion went negative");
            covered - overlaps
        }
        BackoffTerms::Walked => {
            let mut walked = 0;
            let mut at = from;
            while walked < u64::from(limit) {
                let next = next_progression_occurrence(terms, at);
                if next >= to {
                    break;
                }
                walked += 1;
                at = next + 1;
            }
            walked
        }
    }
}

/// The first slot at or after `from` covered by any progression.
fn next_progression_occurrence(progs: &[(u64, u64)], from: u64) -> u64 {
    progs
        .iter()
        .map(|&(off, len)| from + ((off + len - from % len) % len))
        .min()
        .expect("caller checks progs is non-empty")
}

/// The slot at which a node with `pending` backoff skips left may next
/// act on its shared cells: exactly the `(pending + 1)`-th qualifying
/// occurrence when the qualifying slots are a single clean progression
/// (the skips in between are provable sleeps), and conservatively the
/// `pending`-th (the last consuming slot, where `plan_slot` re-runs the
/// exact per-slot logic) when several progressions or co-located cells
/// make mid-slot exhaustion possible. `None` when nothing qualifies.
fn backoff_release_slot(progs: &[(u64, u64)], dup: bool, from: u64, pending: u32) -> Option<u64> {
    let pending = u64::from(pending);
    match progs {
        [] => None,
        [(off, len)] if !dup => {
            Some(next_progression_occurrence(&[(*off, *len)], from) + pending * len)
        }
        _ => {
            if progs.len() > MAX_SOLVED_PROGS || pending > 256 {
                // Degenerate schedules: wake at every qualifying slot
                // (the pre-settling behavior, always sound).
                return Some(next_progression_occurrence(progs, from));
            }
            let mut cursor = from;
            let mut last = from;
            for _ in 0..pending {
                last = next_progression_occurrence(progs, cursor);
                cursor = last + 1;
            }
            Some(last)
        }
    }
}

impl<P: Clone> TschMac<P> {
    /// Creates a MAC for node `id`.
    pub fn new(id: NodeId, rng: Pcg32) -> Self {
        TschMac {
            id,
            data_queue: PacketQueue::new(DATA_QUEUE_CAPACITY),
            control_queue: PacketQueue::new(CONTROL_QUEUE_CAPACITY),
            backoff: SharedCellBackoff::new(MIN_BACKOFF_EXPONENT, MAX_BACKOFF_EXPONENT),
            schedule: Schedule::new(),
            rng,
            in_flight: None,
            link_stats: PeerMap::new(),
            counters: MacCounters::default(),
            wake_cache: None,
            plan_scratch: Vec::new(),
            radio_wake_memo: None,
            backoff_anchor: 0,
            backoff_progs: Vec::new(),
            backoff_progs_key: None,
            backoff_terms: BackoffTerms::Walked,
            backoff_progs_dup: false,
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

    /// Counters accumulated so far.
    ///
    /// Under an event-driven engine that accounts skipped slots lazily
    /// (`gtt_engine::Network`), the counts are exact only after the
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

    /// Bulk-accounts `slots` skipped slots, of which `listens` were
    /// scheduled listens and the rest were sleeps. Every listen is
    /// counted as [`RxOutcome::Idle`] (nothing audible).
    ///
    /// Equivalent to `slots` consecutive `plan_slot`/`finish_slot` rounds
    /// in which the node either slept or idle-listened: both touch only
    /// the duty-cycle counters — no queue, backoff, link-stat or RNG
    /// state — which is what makes them safe to skip. The caller (the
    /// event-driven engine) is responsible for the count being exact;
    /// [`TschMac::count_listen_slots`] computes it for passive listeners.
    /// A listen in the range that heard energy but decoded nothing for
    /// the node is still counted idle here, and moved to busy by
    /// [`TschMac::account_busy_listens`].
    pub fn account_skipped(&mut self, slots: u64, listens: u64) {
        debug_assert!(
            self.in_flight.is_none(),
            "cannot skip slots with a packet in flight"
        );
        debug_assert!(listens <= slots, "more listens than slots");
        self.counters.slots += slots;
        self.counters.rx_idle_slots += listens;
        self.counters.sleep_slots += slots - listens;
    }

    /// Folds in listens that heard energy but decoded nothing for the
    /// node, which an event-driven engine resolved without touching the
    /// MAC: moves them from `rx_idle_slots`, where
    /// [`TschMac::account_skipped`] counted them, to `rx_busy_slots`,
    /// and adds the collision and overheard counts.
    ///
    /// Together with `account_skipped`, equivalent to `finish_slot`
    /// with `Listened(outcome)` for each such listen: those outcomes
    /// touch only these counters. Their backoff settlement needs no
    /// extra step: the shared-cell window shrinks by a saturating
    /// subtraction, so [`TschMac::settle_backoff_to`] over the whole
    /// range consumes exactly what per-slot settling would have.
    ///
    /// The listens must already be accounted: call it after
    /// `account_skipped` has covered every slot they happened in.
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

    /// Rebuilds the schedule-derived wake tables if the schedule changed.
    fn refresh_wake_cache(&mut self) {
        let version = self.schedule.version();
        if self
            .wake_cache
            .as_ref()
            .is_some_and(|c| c.version == version)
        {
            return;
        }
        let rx_union = self.schedule.rx_union();
        self.wake_cache = Some(WakeCache {
            version,
            rx_union,
            // Empty interval: no slot is covered until the first miss.
            listen_miss_memo: (1, 0),
        });
    }

    /// True when the node's Rx slots are exactly enumerable by the
    /// cyclic-union index (single- and multi-slotframe schedules alike)
    /// so the engine may treat it as a *passive listener*: skip its idle
    /// listens and wake it only for transmissions it could hear, timers,
    /// or its own pending traffic.
    pub fn is_passive_listener(&mut self) -> bool {
        self.refresh_wake_cache();
        self.wake_cache
            .as_ref()
            .is_some_and(|c| c.rx_union.is_some())
    }

    /// The next slot at or after `from` for which the *engine* must wake
    /// this node on the MAC's account.
    ///
    /// For a passive listener ([`TschMac::is_passive_listener`]) that is
    /// only its transmission opportunities: the next slot where a Tx cell
    /// has a matching queued frame (`None` with empty queues — idle
    /// listens are accounted lazily, and audible traffic wakes the node
    /// through the transmitter's side). Only schedules beyond the Rx
    /// index's complexity caps fall back to
    /// [`TschMac::next_active_asn`], i.e. every listen slot is a wake-up.
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
        let answer = if self.is_passive_listener() {
            if self.data_queue.is_empty() && self.control_queue.is_empty() {
                None
            } else if pending_backoff == 0 {
                self.schedule
                    .next_active_asn(from, |cell| cell.options.tx && self.has_frame_for(cell))
            } else {
                // A backoff window is pending: blocked shared Tx-only
                // cells are provable sleeps (their consumption is
                // settled in closed form — `settle_backoff_to`), and
                // blocked shared Tx+Rx cells fall back to passive
                // listens the probe already covers. Wake at the earlier
                // of the next contention-free transmission and the slot
                // where the window releases the shared cells.
                let dedicated = self.schedule.next_active_asn(from, |cell| {
                    cell.options.tx && !cell.options.shared && self.has_frame_for(cell)
                });
                self.refresh_backoff_progs();
                let release = backoff_release_slot(
                    self.backoff_prog_list(),
                    self.backoff_progs_dup,
                    from.raw(),
                    pending_backoff,
                );
                match (dedicated.map(Asn::raw), release) {
                    (Some(d), Some(r)) => Some(Asn::new(d.min(r))),
                    (Some(d), None) => Some(Asn::new(d)),
                    (None, Some(r)) => Some(Asn::new(r)),
                    (None, None) => None,
                }
            }
        } else {
            self.next_active_asn(from)
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

    /// Settles the shared-cell backoff over `[backoff_anchor, to)`:
    /// every slot of the range in which `plan_slot` would have consumed
    /// one unit of pending window — some shared Tx cell with a matching
    /// queued frame — is counted in closed form, from terms pre-solved
    /// when the qualifying set last changed, and consumed in bulk.
    ///
    /// Must run at the *start* of processing the node (before any queue
    /// or schedule mutation of the slot): the closed form relies on the
    /// state having been frozen since the anchor, which is exactly the
    /// event-driven engine's skipped-range invariant. No-op on the naive
    /// oracle core, where every slot is processed and the range is
    /// always empty.
    pub fn settle_backoff_to(&mut self, to: u64) {
        if to <= self.backoff_anchor {
            return;
        }
        let from = self.backoff_anchor;
        self.backoff_anchor = to;
        if self.backoff.may_transmit()
            || (self.data_queue.is_empty() && self.control_queue.is_empty())
        {
            return;
        }
        self.refresh_backoff_progs();
        let q = count_qualifying(
            &self.backoff_progs,
            self.backoff_terms,
            from,
            to,
            self.backoff.pending(),
        );
        if q > 0 {
            self.backoff
                .on_shared_cells_skipped(q.min(u64::from(u32::MAX)) as u32);
        }
    }

    /// The qualifying progressions at the front of `backoff_progs`.
    fn backoff_prog_list(&self) -> &[(u64, u64)] {
        match self.backoff_terms {
            BackoffTerms::Solved { progs, .. } => &self.backoff_progs[..usize::from(progs)],
            BackoffTerms::Walked => &self.backoff_progs,
        }
    }

    /// Rebuilds the cached qualifying-progression set, and the terms of
    /// its union, if the schedule or either queue changed since it was
    /// last collected.
    fn refresh_backoff_progs(&mut self) {
        let key = (
            self.schedule.version(),
            self.control_queue.mutations(),
            self.data_queue.mutations(),
        );
        if self.backoff_progs_key == Some(key) {
            return;
        }
        let mut progs = std::mem::take(&mut self.backoff_progs);
        self.backoff_progs_dup = self.collect_backoff_progs(&mut progs);
        self.backoff_terms = solve_backoff_terms(&mut progs);
        self.backoff_progs = progs;
        self.backoff_progs_key = Some(key);
    }

    /// Collects the `(slot offset, frame length)` progressions of the
    /// node's *qualifying* slots — slots holding at least one shared Tx
    /// cell with a matching queued frame — into `out` (deduplicated).
    /// Returns `true` when a duplicate progression was suppressed, i.e.
    /// one slot can hold several qualifying cells (the release-slot
    /// computation must then stay conservative: a second shared cell in
    /// the window-exhausting slot could transmit in it).
    fn collect_backoff_progs(&self, out: &mut Vec<(u64, u64)>) -> bool {
        out.clear();
        let mut dup = false;
        for (_, frame) in self.schedule.iter() {
            let len = u64::from(frame.length());
            for cell in frame.cells() {
                if cell.options.tx && cell.options.shared && self.has_frame_for(cell) {
                    let prog = (u64::from(cell.slot.raw()), len);
                    if out.contains(&prog) {
                        dup = true;
                    } else {
                        out.push(prog);
                    }
                }
            }
        }
        dup
    }

    /// The physical channel this node would listen on in slot `asn`, or
    /// `None` when it would not listen (no Rx cell there, or not a
    /// passive listener — the rare beyond-caps nodes are heap-woken for
    /// every listen slot, so the engine never needs to probe them).
    /// Priority across slotframes follows `plan_slot`'s candidate scan
    /// (lower handle first — Orchestra's EB < common < unicast rule).
    ///
    /// Only valid for slots in which the node has no transmission
    /// opportunity (the engine guarantees this: such slots are wake-ups,
    /// not probes).
    pub fn listen_channel_at(&mut self, asn: Asn) -> Option<PhysicalChannel> {
        self.refresh_wake_cache();
        let cache = self.wake_cache.as_mut()?;
        let union = cache.rx_union.as_ref()?;
        let a = asn.raw();
        let (covered_from, next_listen) = cache.listen_miss_memo;
        if covered_from <= a && a < next_listen {
            return None;
        }
        if let Some(offset) = union.channel_offset_at(a) {
            return Some(hopping::channel(asn, offset));
        }
        // Not listening at `a`: memoize the whole quiet gap, so later
        // queries answer in O(1) until its next actual Rx slot.
        let next = union.next_listen_at_or_after(a + 1).unwrap_or(u64::MAX);
        cache.listen_miss_memo = (a, next);
        None
    }

    /// The first slot at or after `from` in which this passive listener
    /// would listen, with the channel *offset* of that listen (chain
    /// priority resolved like [`TschMac::listen_channel_at`]). `None`
    /// when the node never listens on its own (no Rx cells, or a
    /// beyond-caps schedule, which is always-wake and never probed).
    ///
    /// This is the engine's dense listener-probe index feed: one query
    /// lets the engine skip the node O(1) — without touching it — for
    /// every slot strictly before the returned one, and resolve the
    /// physical channel at that slot from the shared hopping sequence.
    pub fn next_listen(&mut self, from: Asn) -> Option<(Asn, ChannelOffset)> {
        self.refresh_wake_cache();
        self.next_listen_cached(from)
    }

    /// [`TschMac::next_listen`] without the wake-cache staleness check:
    /// for callers that track schedule changes themselves (the engine's
    /// probe index marks rows stale on any schedule mutation and only
    /// takes this path on rows it knows are fresh).
    ///
    /// # Panics
    ///
    /// Debug-asserts that the wake cache really is current.
    pub fn next_listen_cached(&self, from: Asn) -> Option<(Asn, ChannelOffset)> {
        debug_assert!(
            self.wake_cache
                .as_ref()
                .is_some_and(|c| c.version == self.schedule.version()),
            "next_listen_cached on a stale wake cache"
        );
        let union = self.wake_cache.as_ref()?.rx_union.as_ref()?;
        let (next, offset) = union.next_listen_with_offset(from.raw())?;
        Some((Asn::new(next), offset))
    }

    /// True when `plan_slot(asn)` would provably return
    /// [`SlotAction::Sleep`] with no side effect beyond the sleep
    /// counters: the node is a passive listener, both queues are empty
    /// (no transmission, no backoff consumption) and no Rx cell is
    /// scheduled at `asn`. The engine uses this to settle a timer-only
    /// wake-up with [`TschMac::account_skipped`]`(1, 0)` instead of a
    /// plan/finish round-trip.
    pub fn sleeps_at(&mut self, asn: Asn) -> bool {
        self.is_passive_listener()
            && self.data_queue.is_empty()
            && self.control_queue.is_empty()
            && self.listen_channel_at(asn).is_none()
    }

    /// Completes a probed listen slot that received `frame`, a frame
    /// addressed to this node, in one call: exactly
    /// [`TschMac::plan_slot`] selecting the slot's listen cell (which
    /// only increments the slot counter and settles backoff, including
    /// this slot's own consumption if a blocked shared Tx+Rx cell with a
    /// queued frame is what schedules the listen) followed by
    /// [`TschMac::finish_slot`] with `Listened(Received(frame))`, except
    /// that the caller keeps the frame to deliver it.
    ///
    /// Only valid when the node would listen at slot `asn` (its
    /// [`TschMac::next_listen`] from `asn` is `asn` itself) — the
    /// engine's listener probe guarantees it. A probed listen that
    /// decodes nothing for the node never comes here: the engine records
    /// it in [`BusyListens`] for [`TschMac::account_busy_listens`].
    pub fn finish_probed_listen(&mut self, asn: Asn, frame: &Frame<P>) {
        debug_assert!(
            self.in_flight.is_none(),
            "probed listen with a packet in flight"
        );
        // Settle *through* this slot before the delivery that follows
        // can touch the queues: a probed node never transmits here, so
        // its consumption (if any) is pure closed-form arithmetic.
        self.settle_backoff_to(asn.raw() + 1);
        self.counters.slots += 1;
        self.count_received(frame);
    }

    /// How many slots in `[from, to)` this passive listener would listen
    /// in, assuming it is never woken inside the range (0 for beyond-caps
    /// active nodes, which are woken on every listen slot and therefore
    /// never skip one).
    ///
    /// Pure cyclic arithmetic over the cached Rx index: closed-form per
    /// slotframe, inclusion–exclusion with exact CRT overlap counts
    /// across slotframes — never per-slot work, however long the skipped
    /// range.
    pub fn count_listen_slots(&mut self, from: Asn, to: Asn) -> u64 {
        if to.raw() <= from.raw() {
            return 0;
        }
        self.refresh_wake_cache();
        let Some(union) = self.wake_cache.as_ref().and_then(|c| c.rx_union.as_ref()) else {
            return 0;
        };
        union.count_in(from.raw(), to.raw())
    }

    /// Plans the node's action for slot `asn`.
    ///
    /// Cell selection follows Contiki-NG's rule: scan candidate cells in
    /// schedule-priority order; the first Tx cell with a matching queued
    /// frame wins; otherwise the first Rx cell is used to listen;
    /// otherwise the node sleeps. Shared cells consult the backoff state
    /// before transmitting.
    ///
    /// # Panics
    ///
    /// Panics if the previous slot's [`TschMac::finish_slot`] was skipped.
    pub fn plan_slot(&mut self, asn: Asn) -> SlotAction<P> {
        assert!(
            self.in_flight.is_none(),
            "finish_slot() must be called before planning the next slot"
        );
        self.counters.slots += 1;
        // Catch up any backoff consumption the engine skipped over;
        // this slot's own consumption is the candidate scan's job, and
        // the anchor advance below marks it as handled.
        self.settle_backoff_to(asn.raw());

        // Candidate cells land in the reused scratch, taken out for the
        // scan so the queue/backoff mutations below can borrow `self`.
        let mut candidates = std::mem::take(&mut self.plan_scratch);
        self.schedule.cells_at_into(asn, &mut candidates);
        let action = self.plan_slot_from(asn, &candidates);
        self.plan_scratch = candidates;
        self.backoff_anchor = self.backoff_anchor.max(asn.raw() + 1);
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
                    let control = fl.packet.control;
                    // Head-of-line requeue preserves delivery order; the
                    // queue cannot be full because this packet's slot was
                    // freed when it was popped and pushes during flight
                    // target the tail.
                    if self.queue_for(control).requeue_front(fl.packet).is_err() {
                        // The queue filled up while the packet was in
                        // flight; treat as a tail drop.
                        self.counters.drops_retry_exhausted += 1;
                    }
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
        assert_eq!(m.counters().sleep_slots, 1);
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
        assert_eq!(c.rx_idle_slots, 1);
        assert_eq!(c.rx_busy_slots, 1);
        assert_eq!(c.collisions_heard, 1);
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
        // and `pending` records the same outcomes for b.
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
        // b: bulk-account the same sixteen slots (8 listens, 8 sleeps) —
        // count_listen_slots must agree with what plan_slot did — then
        // fold in the listens that heard something.
        let listens = b.count_listen_slots(Asn::new(2), Asn::new(18));
        assert_eq!(listens, 8);
        b.account_skipped(16, listens);
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
        assert_eq!(b.counters().rx_idle_slots, 2);
        assert_eq!(b.counters().rx_busy_slots, 6);
    }

    #[test]
    fn count_listen_slots_cyclic_ranges() {
        let mut m = mac();
        install_schedule(&mut m);
        // Listens at offsets 0 (broadcast) and 2 (data Rx) of a 4-slot
        // frame.
        assert_eq!(m.count_listen_slots(Asn::new(0), Asn::new(4)), 2);
        assert_eq!(m.count_listen_slots(Asn::new(0), Asn::new(40)), 20);
        assert_eq!(m.count_listen_slots(Asn::new(1), Asn::new(3)), 1);
        assert_eq!(m.count_listen_slots(Asn::new(3), Asn::new(5)), 1);
        assert_eq!(m.count_listen_slots(Asn::new(3), Asn::new(9)), 3);
        assert_eq!(m.count_listen_slots(Asn::new(5), Asn::new(5)), 0);
        // Empty schedule: never listens.
        let mut empty = mac();
        assert_eq!(empty.count_listen_slots(Asn::new(0), Asn::new(100)), 0);
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

    #[test]
    fn listen_channel_matches_plan_slot() {
        let mut m = mac();
        install_schedule(&mut m);
        for raw in 0..8u64 {
            let asn = Asn::new(raw);
            let probed = m.listen_channel_at(asn);
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
            let probed = m.listen_channel_at(asn);
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
        assert_eq!(m.count_listen_slots(Asn::new(0), Asn::new(56)), listens);
        // Bulk accounting matches the slot-by-slot reference exactly.
        m.account_skipped(56, listens);
        assert_eq!(m.counters(), reference.counters());
    }

    #[test]
    fn listen_miss_memo_is_order_independent() {
        // The listen-miss memo inside the wake cache is an interval, not
        // a cursor: probing slots in ascending, descending or strided
        // order must give identical answers. A fresh clone per query is
        // the memo-free reference.
        let mut m = mac();
        install_schedule(&mut m); // 4-slot frame, listens at offsets 0, 2
        let mut sf2 = Slotframe::new(7);
        sf2.add(Cell::data_rx(
            SlotOffset::new(5),
            ChannelOffset::new(2),
            NodeId::new(3),
        ));
        m.schedule_mut().add_slotframe(SlotframeHandle::new(1), sf2);

        let expected: Vec<_> = (0..56u64)
            .map(|raw| m.clone().listen_channel_at(Asn::new(raw)))
            .collect();
        let ascending: Vec<_> = (0..56u64)
            .map(|raw| m.listen_channel_at(Asn::new(raw)))
            .collect();
        assert_eq!(ascending, expected);
        let mut descending: Vec<_> = (0..56u64)
            .rev()
            .map(|raw| m.listen_channel_at(Asn::new(raw)))
            .collect();
        descending.reverse();
        assert_eq!(descending, expected);
        for stride in [3u64, 5, 11] {
            for raw in (0..56).step_by(stride as usize) {
                assert_eq!(
                    m.listen_channel_at(Asn::new(raw)),
                    expected[raw as usize],
                    "stride {stride}, slot {raw}"
                );
            }
        }
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
        assert_eq!(m.count_listen_slots(Asn::new(0), Asn::new(64)), 0);
        assert_eq!(m.listen_channel_at(Asn::new(0)), None);
    }

    /// The pre-solved terms count exactly what a slot-by-slot scan of
    /// the progressions finds, over sets within and beyond the
    /// pre-solving cap: equal lengths (disjoint residues), coprime and
    /// non-coprime unequal lengths, and several progressions at one
    /// offset.
    #[test]
    fn backoff_terms_count_like_a_slot_scan() {
        let mut rng = Pcg32::new(11);
        for case in 0..400 {
            let n = 1 + rng.gen_range_u32(0, 6) as usize;
            let mut progs: Vec<(u64, u64)> = Vec::new();
            while progs.len() < n {
                let len = [2u64, 3, 4, 6, 7, 12][rng.gen_range_u32(0, 6) as usize];
                let prog = (u64::from(rng.gen_range_u32(0, len as u32)), len);
                if !progs.contains(&prog) {
                    progs.push(prog);
                }
            }
            let listed = progs.clone();
            let layout = solve_backoff_terms(&mut progs);
            match layout {
                BackoffTerms::Solved { progs: k, .. } => {
                    assert!(n <= MAX_SOLVED_PROGS);
                    assert_eq!(&progs[..usize::from(k)], &listed[..], "case {case}");
                }
                BackoffTerms::Walked => {
                    assert!(n > MAX_SOLVED_PROGS);
                    assert_eq!(progs, listed, "case {case}");
                }
            }
            let covered = |x: u64| listed.iter().any(|&(off, len)| x % len == off);
            for _ in 0..20 {
                let from = u64::from(rng.gen_range_u32(0, 200));
                let to = from + u64::from(rng.gen_range_u32(0, 100));
                let expected = (from..to).filter(|&x| covered(x)).count() as u64;
                assert_eq!(
                    count_qualifying(&progs, layout, from, to, u32::MAX),
                    expected,
                    "case {case}: {listed:?} over [{from}, {to})"
                );
                // A window of 3 consumes at most 3, however the set counts.
                assert_eq!(
                    count_qualifying(&progs, layout, from, to, 3).min(3),
                    expected.min(3)
                );
            }
        }
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
