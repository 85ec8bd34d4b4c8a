//! `GtTschSf` — the GT-TSCH scheduling function.
//!
//! Lifecycle of a non-root node:
//!
//! 1. **Boot** (`init`): install the single slotframe with broadcast
//!    timeslots (§IV rule 1). Everything else waits for RPL.
//! 2. **Join**: RPL picks a parent (`on_parent_changed`); the parent's EB
//!    advertises the channel `f_{i,p}` on which it receives from children
//!    (`on_eb`). The node installs shared timeslots towards the parent
//!    (§IV rule 4), negotiates two Unicast-6P timeslots (§IV rule 2) and
//!    asks for its own children-facing channel with the new 6P
//!    `ASK-CHANNEL` command (§III, Algorithm 1).
//! 3. **Steady state** (`periodic`, §VI): update the EWMA queue metric,
//!    compute the Tx-cell deficit `l_tx_min` (eq. 1) and, when positive,
//!    request the game-optimal number of Unicast-Data timeslots (eq. 15)
//!    from the parent via 6P ADD; release excess cells via 6P DELETE when
//!    traffic lightens.
//!
//! A parent answers ADD requests subject to its advertised Rx capacity
//! (the DIO `l_rx` option keeps each node's Tx count above its Rx count —
//! §V rule 1) and the §V placement rules, and answers `ASK-CHANNEL` with
//! Algorithm 1.

use gtt_engine::{EbInfo, Payload, SchedulingFunction, SfContext};
use gtt_mac::{
    Cell, CellClass, CellOptions, ChannelOffset, SlotOffset, Slotframe, SlotframeHandle, TschMac,
    HOPPING_SEQUENCE, SLOT_DURATION,
};
use gtt_net::{Dest, NodeId};
use gtt_rpl::RplNode;
use gtt_sixtop::{CellSpec, ReturnCode, SixpBody, SixpCellKind, SixtopEvent};

use crate::channel::ChannelAllocator;
use crate::config::{GtTschConfig, DELETE_SLACK, FBCAST, RX_ADVERTISE_CAP, SHARED_SLOTS, ZETA};
use crate::game::GameInputs;
use crate::layout;
use crate::queue_metric::QueueEwma;

/// The GT-TSCH slotframe handle (single slotframe, §VIII).
const SF_HANDLE: SlotframeHandle = SlotframeHandle::new(0);

/// Number of channel offsets: one per channel of the hopping sequence.
const N_OFFSETS: u8 = HOPPING_SEQUENCE.len() as u8;

/// Hash-based channel pick for the `hash_channels` ablation: mimics the
/// §III strawman where schedulers derive channels from node addresses.
/// Picks among the offsets after `f_bcast`, cyclically.
fn hash_channel(node: NodeId) -> u8 {
    let h = ((node.raw() as u32).wrapping_mul(2654435761) >> 16) as u8;
    let pick = h % (N_OFFSETS - 1); // everything except f_bcast
    (FBCAST + 1 + pick) % N_OFFSETS
}

/// The paper's scheduling function. See the [module docs](self).
pub struct GtTschSf {
    cfg: GtTschConfig,
    /// `f_{i,p_i}`: channel offset towards the parent (from its EBs).
    f_to_parent: Option<u8>,
    /// `f_{i,cs_i}`: channel offset my children transmit to me on.
    f_my_children: Option<u8>,
    /// Channels granted to children for *their* children (Algorithm 1).
    allocator: ChannelAllocator,
    /// Channel advertisements heard in EBs, per neighbor.
    eb_channels: std::collections::BTreeMap<NodeId, u8>,
    ask_channel_pending: bool,
    ask_channel_done: bool,
    sixp_cells_pending: bool,
    sixp_cells_done: bool,
    queue_metric: QueueEwma,
    /// `l_tx_{cs_i}` (eq. 1): the latest number of Tx cells each child
    /// *requested* — demanded capacity propagates up the tree even when a
    /// request could not be granted yet.
    child_demand: std::collections::BTreeMap<NodeId, u16>,
    /// Fresh `l_rx` advertisements heard in neighbors' EBs (the DIO
    /// option is authoritative but Trickle-paced; EBs refresh it at 2 s).
    eb_rx_free: std::collections::BTreeMap<NodeId, u16>,
    /// Periods in a row the node has observed surplus Tx cells; DELETE
    /// fires only after a persistent streak so that a momentary lull does
    /// not trigger an allocate/release oscillation.
    excess_streak: u8,
    /// Do not re-send a demand-signalling ADD (towards a parent that
    /// advertised zero capacity) before this instant.
    demand_signal_backoff: Option<gtt_sim::SimTime>,
}

impl GtTschSf {
    /// Creates the SF with `cfg`, over one channel offset per channel of
    /// the hopping sequence.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn new(cfg: GtTschConfig) -> Self {
        cfg.validate();
        GtTschSf {
            allocator: ChannelAllocator::new(N_OFFSETS),
            queue_metric: QueueEwma::new(ZETA),
            cfg,
            f_to_parent: None,
            f_my_children: None,
            eb_channels: std::collections::BTreeMap::new(),
            ask_channel_pending: false,
            ask_channel_done: false,
            sixp_cells_pending: false,
            sixp_cells_done: false,
            child_demand: std::collections::BTreeMap::new(),
            eb_rx_free: std::collections::BTreeMap::new(),
            excess_streak: 0,
            demand_signal_backoff: None,
        }
    }

    /// The channel my children use towards me, once allocated.
    pub fn children_channel(&self) -> Option<u8> {
        self.f_my_children
    }

    /// The channel I use towards my parent, once learned.
    pub fn parent_channel(&self) -> Option<u8> {
        self.f_to_parent
    }

    // ----- schedule accounting helpers -------------------------------

    fn frame<'a>(&self, mac: &'a TschMac<Payload>) -> &'a Slotframe {
        mac.schedule()
            .frame(SF_HANDLE)
            .expect("GT-TSCH slotframe installed at init")
    }

    fn data_tx_count(&self, mac: &TschMac<Payload>) -> u16 {
        self.frame(mac)
            .cells()
            .iter()
            .filter(|c| c.class == CellClass::Data && c.options.tx)
            .count() as u16
    }

    fn data_rx_count(&self, mac: &TschMac<Payload>) -> u16 {
        self.frame(mac)
            .cells()
            .iter()
            .filter(|c| c.class == CellClass::Data && c.options.rx && !c.options.tx)
            .count() as u16
    }

    /// `l_g`: Tx timeslots needed per slotframe for local generation.
    fn l_g(&self, ctx: &SfContext<'_>) -> u16 {
        if ctx.app_rate_ppm <= 0.0 {
            return 0;
        }
        let slotframe_secs = SLOT_DURATION.as_secs_f64() * self.cfg.slotframe_len as f64;
        (ctx.app_rate_ppm * slotframe_secs / 60.0).ceil() as u16
    }

    /// The Rx capacity this node can still grant (drives both the DIO
    /// `l_rx` option and the grant limit): §V rule 1 keeps Tx strictly
    /// above Rx on forwarders; roots are bounded by free slots only.
    fn rx_capacity(&self, mac: &TschMac<Payload>, rpl: &RplNode) -> u16 {
        let free = layout::free_slots(self.frame(mac)).len() as u16;
        let cap = free.min(RX_ADVERTISE_CAP);
        if rpl.is_root() {
            cap
        } else {
            let tx = self.data_tx_count(mac) as i32;
            let rx = self.data_rx_count(mac) as i32;
            (tx - 1 - rx).clamp(0, cap as i32) as u16
        }
    }

    fn install_cell(&self, mac: &mut TschMac<Payload>, cell: Cell) {
        let frame = mac
            .schedule_mut()
            .frame_mut(SF_HANDLE)
            .expect("GT-TSCH slotframe installed at init");
        // Idempotent: 6P retries may re-deliver a grant.
        if frame.cells().contains(&cell) {
            return;
        }
        // One radio, one action: the incoming cell owns its slot, so any
        // other cell there loses — a stale grant from a lost response, a
        // shared-slot reinstall after a parent switch, or a concurrent
        // transaction whose candidate list predated this install. (An
        // eviction matching only on class used to let a Data grant
        // coexist with a SixP cell in the same slot, double-booking the
        // radio.)
        frame.remove_where(|c| c.slot == cell.slot);
        frame.add(cell);
    }

    fn remove_cells(&self, mac: &mut TschMac<Payload>, pred: impl Fn(&Cell) -> bool) -> usize {
        mac.schedule_mut()
            .frame_mut(SF_HANDLE)
            .expect("GT-TSCH slotframe installed at init")
            .remove_where(pred)
    }

    // ----- join-time negotiation --------------------------------------

    /// The shared-slot offsets (§IV rule 4) whose index has `parity`.
    /// A node is simultaneously a child (contending towards its parent)
    /// and a parent (listening for its children), but one radio does one
    /// thing per slot — the shared-slot list is therefore split by
    /// hop-depth parity: a node at depth `d` transmits to its parent in
    /// the slots of parity `d` and listens for its depth-`d+1` children
    /// in those of parity `d + 1`, which is exactly where those children
    /// transmit.
    fn shared_slots(&self, parity: u16) -> Vec<u16> {
        layout::shared_offsets(
            self.cfg.slotframe_len,
            self.cfg.broadcast_slots(),
            SHARED_SLOTS,
        )
        .into_iter()
        .enumerate()
        .filter(|(i, _)| (*i as u16) % 2 == parity % 2)
        .map(|(_, s)| s)
        .collect()
    }

    /// Re-reads the parent's EB channel and (re)installs the shared
    /// timeslots towards it (§IV rule 4).
    fn adopt_parent_channel(&mut self, ctx: &mut SfContext<'_>) {
        let Some(parent) = ctx.rpl.parent() else {
            return;
        };
        let ch = if self.cfg.hash_channels {
            hash_channel(parent)
        } else {
            let Some(&ch) = self.eb_channels.get(&parent) else {
                return;
            };
            ch
        };
        if self.f_to_parent == Some(ch) {
            return;
        }
        self.f_to_parent = Some(ch);
        // Cells negotiated on an old channel are void.
        self.remove_cells(ctx.mac, |c| {
            c.peer == Dest::Unicast(parent)
                && matches!(
                    c.class,
                    CellClass::Data | CellClass::SixP | CellClass::Shared
                )
                && c.channel_offset.raw() != ch
        });
        // Shared Tx slots toward the parent (own-parity half).
        let depth = ctx.rpl.rank().approx_hops();
        for slot in self.shared_slots(depth) {
            self.install_cell(
                ctx.mac,
                Cell::new(
                    SlotOffset::new(slot),
                    ChannelOffset::new(ch),
                    CellOptions {
                        tx: true,
                        rx: false,
                        shared: true,
                    },
                    Dest::Unicast(parent),
                    CellClass::Shared,
                ),
            );
        }
        // Depth may have changed: refresh the children-facing half too.
        self.install_children_shared_rx(ctx);
    }

    /// Installs the shared Rx slots on which this node's children contend
    /// (once `f_{i,cs_i}` is known).
    fn install_children_shared_rx(&mut self, ctx: &mut SfContext<'_>) {
        let Some(ch) = self.f_my_children else {
            return;
        };
        // Remove children-facing shared cells on any previous channel.
        self.remove_cells(ctx.mac, |c| {
            c.class == CellClass::Shared
                && c.options.rx
                && !c.options.tx
                && c.channel_offset.raw() != ch
        });
        let depth = ctx.rpl.rank().approx_hops();
        let depth = if ctx.rpl.is_root() { 0 } else { depth };
        for slot in self.shared_slots(depth + 1) {
            self.install_cell(
                ctx.mac,
                Cell::new(
                    SlotOffset::new(slot),
                    ChannelOffset::new(ch),
                    CellOptions {
                        tx: false,
                        rx: true,
                        shared: true,
                    },
                    Dest::Broadcast, // any child
                    CellClass::Shared,
                ),
            );
        }
    }

    fn request_ask_channel(&mut self, ctx: &mut SfContext<'_>) {
        if self.ask_channel_done || self.ask_channel_pending {
            return;
        }
        let Some(parent) = ctx.rpl.parent() else {
            return;
        };
        if let Some(msg) = ctx
            .sixtop
            .start_request(parent, SixpBody::AskChannelRequest, ctx.now)
        {
            ctx.send_sixp(parent, msg);
            self.ask_channel_pending = true;
        }
    }

    fn request_sixp_cells(&mut self, ctx: &mut SfContext<'_>) {
        if self.sixp_cells_done || self.sixp_cells_pending {
            return;
        }
        let (Some(parent), Some(ch)) = (ctx.rpl.parent(), self.f_to_parent) else {
            return;
        };
        let salt = ctx.mac.id().raw() as u64;
        let candidates: Vec<CellSpec> = layout::candidate_tx_slots(self.frame(ctx.mac), 10, salt)
            .into_iter()
            .map(|slot| CellSpec::new(slot, ch))
            .collect();
        if candidates.len() < 2 {
            return;
        }
        if let Some(msg) = ctx.sixtop.start_request(
            parent,
            SixpBody::AddRequest {
                kind: SixpCellKind::SixP,
                num_cells: 2,
                cells: candidates,
            },
            ctx.now,
        ) {
            ctx.send_sixp(parent, msg);
            self.sixp_cells_pending = true;
        }
    }

    // ----- §VI load balancing ----------------------------------------

    fn load_balance(&mut self, ctx: &mut SfContext<'_>) {
        let Some(parent) = ctx.rpl.parent() else {
            return;
        };
        let Some(ch) = self.f_to_parent else {
            return;
        };
        if ctx.sixtop.is_busy_with(parent) {
            return;
        }

        let l_g = self.l_g(ctx);
        // eq. 1's l_tx_cs: what children requested (≥ what was granted),
        // so demand cascades root-ward before grants do.
        let l_rx_granted = self.data_rx_count(ctx.mac);
        let l_cs: u16 = self.child_demand.values().sum();
        let l_in = l_cs.max(l_rx_granted);
        let l_tx = self.data_tx_count(ctx.mac);
        let demand = l_g + l_in;
        // eq. 1: the minimum number of *additional* Tx cells needed.
        let deficit = demand as i32 - l_tx as i32;

        // §VI: a node may request *more* than the bare minimum — here,
        // when the smoothed queue shows sustained backlog, it plays the
        // game even at zero deficit (the full-queue case drives eq. 15
        // towards the parent's bound).
        let queue_pressure = self.queue_metric.value() > 1.0;

        if deficit > 0 || queue_pressure {
            self.excess_streak = 0;
            let l_rx_parent = self
                .eb_rx_free
                .get(&parent)
                .copied()
                .unwrap_or(0)
                .max(ctx.rpl.neighbor_rx_free(parent).unwrap_or(0));
            let Some(rank_weight) = ctx.rpl.rank().game_weight() else {
                return;
            };
            let q_max = ctx.mac.data_queue_capacity() as f64;
            let want = if l_rx_parent == 0 {
                // The parent has nothing to give *yet*. Send the bare
                // eq. 1 minimum anyway: the request is the demand signal
                // (`l_tx_cs`) the parent needs to chase capacity from its
                // own parent. It answers RC_ERR_NOCELLS until then; back
                // off so the signal does not monopolize the 6P cells.
                if let Some(until) = self.demand_signal_backoff {
                    if ctx.now < until {
                        return;
                    }
                }
                self.demand_signal_backoff = Some(ctx.now + gtt_sim::SimDuration::from_secs(8));
                deficit.max(1) as u16
            } else {
                let inputs = GameInputs {
                    rank_weight,
                    etx: ctx.mac.etx(parent).max(1.0),
                    queue_avg: self.queue_metric.value().min(q_max),
                    queue_max: q_max,
                    l_tx_min: deficit.max(1) as u16,
                    l_rx_parent,
                };
                inputs.best_response(&self.cfg.weights).cells.max(1)
            };
            let salt = ctx.mac.id().raw() as u64 + self.data_tx_count(ctx.mac) as u64;
            let candidates: Vec<CellSpec> =
                layout::candidate_tx_slots(self.frame(ctx.mac), want as usize * 2 + 6, salt)
                    .into_iter()
                    .map(|slot| CellSpec::new(slot, ch))
                    .collect();
            if candidates.is_empty() {
                return;
            }
            if let Some(msg) = ctx.sixtop.start_request(
                parent,
                SixpBody::AddRequest {
                    kind: SixpCellKind::Data,
                    num_cells: want,
                    cells: candidates,
                },
                ctx.now,
            ) {
                ctx.send_sixp(parent, msg);
            }
        } else if (-deficit) > DELETE_SLACK as i32 {
            // Light load: release cells beyond demand + slack (§IV rule
            // 3) — but only after the surplus persists for three periods,
            // so a queue that was just drained by a pressure-grant does
            // not bounce between ADD and DELETE.
            self.excess_streak = self.excess_streak.saturating_add(1);
            if self.excess_streak < 3 {
                return;
            }
            self.excess_streak = 0;
            let excess = ((-deficit) - DELETE_SLACK as i32) as usize;
            let mut tx_cells: Vec<Cell> = self
                .frame(ctx.mac)
                .cells()
                .iter()
                .filter(|c| {
                    c.class == CellClass::Data && c.options.tx && c.peer == Dest::Unicast(parent)
                })
                .copied()
                .collect();
            tx_cells.sort_by_key(|c| std::cmp::Reverse(c.slot));
            let victims: Vec<CellSpec> = tx_cells
                .iter()
                .take(excess)
                .map(|c| CellSpec::new(c.slot.raw(), c.channel_offset.raw()))
                .collect();
            if victims.is_empty() {
                return;
            }
            if let Some(msg) = ctx.sixtop.start_request(
                parent,
                SixpBody::DeleteRequest {
                    kind: SixpCellKind::Data,
                    cells: victims,
                },
                ctx.now,
            ) {
                ctx.send_sixp(parent, msg);
            }
        }
    }

    // ----- responder side ---------------------------------------------

    fn answer_add(
        &mut self,
        ctx: &mut SfContext<'_>,
        from: NodeId,
        kind: SixpCellKind,
        num_cells: u16,
        candidates: &[CellSpec],
    ) -> SixpBody {
        if kind == SixpCellKind::Data {
            // eq. 1: remember the child's demand even if we cannot grant
            // it yet — our own load balancer chases capacity for it.
            self.child_demand.insert(from, num_cells);
        }
        let want = match kind {
            SixpCellKind::SixP => 2u16,
            // Idempotent retries must be able to re-grant even at zero
            // remaining capacity; that case is handled per-cell below.
            SixpCellKind::Data => num_cells.min(self.rx_capacity(ctx.mac, ctx.rpl)),
        };
        let mut granted: Vec<CellSpec> = Vec::new();
        for spec in candidates {
            if granted.len() as u16 >= want.max(if kind == SixpCellKind::SixP { 2 } else { 0 }) {
                break;
            }
            if granted.len() as u16 >= want && kind == SixpCellKind::Data {
                break;
            }
            let slot = SlotOffset::new(spec.slot);
            let existing = self.frame(ctx.mac).cells_at(slot).next().copied();
            match existing {
                Some(c) if c.peer == Dest::Unicast(from) => {
                    // Re-grant of a cell we already installed (retry).
                    granted.push(*spec);
                    continue;
                }
                Some(_) => continue, // occupied by someone/something else
                None => {}
            }
            if kind == SixpCellKind::Data
                && !layout::rx_placement_ok(self.frame(ctx.mac), spec.slot)
            {
                continue;
            }
            granted.push(*spec);
        }
        let needed = match kind {
            SixpCellKind::SixP => 2,
            SixpCellKind::Data => 1,
        };
        if (granted.len() as u16) < needed {
            return SixpBody::AddResponse {
                code: ReturnCode::ErrNoCells,
                cells: vec![],
            };
        }
        // Install the responder-side cells.
        match kind {
            SixpCellKind::Data => {
                for spec in &granted {
                    self.install_cell(
                        ctx.mac,
                        Cell::data_rx(
                            SlotOffset::new(spec.slot),
                            ChannelOffset::new(spec.channel_offset),
                            from,
                        ),
                    );
                }
            }
            SixpCellKind::SixP => {
                granted.truncate(2);
                // Convention: first cell child→parent (our Rx), second
                // parent→child (our Tx).
                let c0 = granted[0];
                let c1 = granted[1];
                self.install_cell(
                    ctx.mac,
                    Cell::new(
                        SlotOffset::new(c0.slot),
                        ChannelOffset::new(c0.channel_offset),
                        CellOptions::RX,
                        Dest::Unicast(from),
                        CellClass::SixP,
                    ),
                );
                self.install_cell(
                    ctx.mac,
                    Cell::new(
                        SlotOffset::new(c1.slot),
                        ChannelOffset::new(c1.channel_offset),
                        CellOptions::TX,
                        Dest::Unicast(from),
                        CellClass::SixP,
                    ),
                );
            }
        }
        SixpBody::AddResponse {
            code: ReturnCode::Success,
            cells: granted,
        }
    }

    fn answer_delete(
        &mut self,
        ctx: &mut SfContext<'_>,
        from: NodeId,
        cells: &[CellSpec],
    ) -> SixpBody {
        // The child is shedding cells: shrink its recorded demand.
        if let Some(d) = self.child_demand.get_mut(&from) {
            *d = d.saturating_sub(cells.len() as u16);
        }
        for spec in cells {
            self.remove_cells(ctx.mac, |c| {
                c.slot.raw() == spec.slot && c.peer == Dest::Unicast(from)
            });
        }
        SixpBody::DeleteResponse {
            code: ReturnCode::Success,
            cells: cells.to_vec(),
        }
    }

    fn answer_ask_channel(&mut self, ctx: &mut SfContext<'_>, from: NodeId) -> SixpBody {
        match self
            .allocator
            .allocate(from, self.f_to_parent, self.f_my_children)
        {
            Some(ch) => SixpBody::AskChannelResponse {
                code: ReturnCode::Success,
                channel_offset: ch,
            },
            None => {
                let _ = ctx;
                SixpBody::AskChannelResponse {
                    code: ReturnCode::Err,
                    channel_offset: 0,
                }
            }
        }
    }

    // ----- requester-side completions ----------------------------------

    fn complete_add(
        &mut self,
        ctx: &mut SfContext<'_>,
        peer: NodeId,
        kind: SixpCellKind,
        cells: &[CellSpec],
    ) {
        match kind {
            SixpCellKind::Data => {
                for spec in cells {
                    self.install_cell(
                        ctx.mac,
                        Cell::data_tx(
                            SlotOffset::new(spec.slot),
                            ChannelOffset::new(spec.channel_offset),
                            peer,
                        ),
                    );
                }
            }
            SixpCellKind::SixP => {
                if cells.len() >= 2 {
                    self.install_cell(
                        ctx.mac,
                        Cell::new(
                            SlotOffset::new(cells[0].slot),
                            ChannelOffset::new(cells[0].channel_offset),
                            CellOptions::TX,
                            Dest::Unicast(peer),
                            CellClass::SixP,
                        ),
                    );
                    self.install_cell(
                        ctx.mac,
                        Cell::new(
                            SlotOffset::new(cells[1].slot),
                            ChannelOffset::new(cells[1].channel_offset),
                            CellOptions::RX,
                            Dest::Unicast(peer),
                            CellClass::SixP,
                        ),
                    );
                }
                self.sixp_cells_pending = false;
                self.sixp_cells_done = true;
            }
        }
    }
}

impl SchedulingFunction for GtTschSf {
    fn name(&self) -> &'static str {
        "gt-tsch"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn init(&mut self, ctx: &mut SfContext<'_>) {
        let mut sf = Slotframe::new(self.cfg.slotframe_len);
        for slot in layout::broadcast_offsets(self.cfg.slotframe_len, self.cfg.broadcast_slots()) {
            sf.add(Cell::broadcast(
                SlotOffset::new(slot),
                ChannelOffset::new(FBCAST),
            ));
        }
        ctx.mac.schedule_mut().add_slotframe(SF_HANDLE, sf);

        if self.cfg.hash_channels {
            // Ablation: every node derives its children-facing channel
            // from its own address; no coordination at all.
            self.f_my_children = Some(hash_channel(ctx.mac.id()));
            self.ask_channel_done = true;
            if ctx.rpl.is_root() {
                self.install_children_shared_rx(ctx);
            }
            return;
        }
        if ctx.rpl.is_root() {
            // Algorithm 1 line 2: the root picks a random children
            // channel from F − {f_bcast}.
            let mut ch = ctx.rng.gen_range_u32(0, u32::from(N_OFFSETS)) as u8;
            if ch == FBCAST {
                ch = (ch + 1) % N_OFFSETS;
            }
            self.f_my_children = Some(ch);
            self.ask_channel_done = true;
            self.install_children_shared_rx(ctx);
        }
    }

    fn periodic(&mut self, ctx: &mut SfContext<'_>) {
        self.queue_metric.update(ctx.mac.data_queue_len() as f64);
        if ctx.rpl.is_root() {
            return;
        }
        if ctx.rpl.parent().is_none() {
            return;
        }
        self.adopt_parent_channel(ctx);
        if self.f_to_parent.is_none() {
            return; // wait for the parent's EB
        }
        self.request_sixp_cells(ctx);
        self.request_ask_channel(ctx);
        self.load_balance(ctx);
    }

    fn on_parent_changed(&mut self, ctx: &mut SfContext<'_>, old: Option<NodeId>, new: NodeId) {
        if let Some(old_parent) = old {
            self.remove_cells(ctx.mac, |c| {
                c.peer == Dest::Unicast(old_parent)
                    && matches!(
                        c.class,
                        CellClass::Data | CellClass::SixP | CellClass::Shared
                    )
            });
            // Best-effort CLEAR so the old parent releases its side.
            if let Some(msg) = ctx
                .sixtop
                .start_request(old_parent, SixpBody::ClearRequest, ctx.now)
            {
                ctx.send_sixp(old_parent, msg);
            }
        }
        self.f_to_parent = None;
        self.sixp_cells_done = false;
        self.sixp_cells_pending = false;
        // Our children-facing channel was allocated by the old parent;
        // re-validate it with the new one (Algorithm 1 keeps three-hop
        // uniqueness only along current paths). Hash mode has no
        // coordination to redo.
        if !self.cfg.hash_channels {
            self.ask_channel_done = false;
            self.ask_channel_pending = false;
        }
        let _ = new;
        self.adopt_parent_channel(ctx);
    }

    fn on_eb(&mut self, ctx: &mut SfContext<'_>, src: NodeId, eb: &EbInfo) {
        if ctx.rpl.parent() == Some(src) && eb.rx_free > 0 {
            self.demand_signal_backoff = None;
        }
        self.eb_rx_free.insert(src, eb.rx_free);
        if let Some(ch) = eb.rx_channel {
            self.eb_channels.insert(src, ch);
            if ctx.rpl.parent() == Some(src) {
                self.adopt_parent_channel(ctx);
            }
        }
    }

    fn on_dao(&mut self, ctx: &mut SfContext<'_>, child: NodeId, no_path: bool) {
        if no_path {
            self.remove_cells(ctx.mac, |c| c.peer == Dest::Unicast(child));
            self.allocator.release(child);
            self.child_demand.remove(&child);
        }
    }

    fn on_sixtop_event(&mut self, ctx: &mut SfContext<'_>, event: &SixtopEvent) {
        match event {
            SixtopEvent::Request { from, seqnum, body } => {
                let response = match body {
                    SixpBody::AddRequest {
                        kind,
                        num_cells,
                        cells,
                    } => self.answer_add(ctx, *from, *kind, *num_cells, cells),
                    SixpBody::DeleteRequest { cells, .. } => self.answer_delete(ctx, *from, cells),
                    SixpBody::AskChannelRequest => self.answer_ask_channel(ctx, *from),
                    SixpBody::ClearRequest => {
                        self.remove_cells(ctx.mac, |c| {
                            c.peer == Dest::Unicast(*from)
                                && matches!(
                                    c.class,
                                    CellClass::Data | CellClass::SixP | CellClass::Shared
                                )
                        });
                        self.allocator.release(*from);
                        self.child_demand.remove(from);
                        SixpBody::ClearResponse {
                            code: ReturnCode::Success,
                        }
                    }
                    _ => SixpBody::ClearResponse {
                        code: ReturnCode::Err,
                    },
                };
                let msg = ctx.sixtop.respond(*seqnum, response);
                ctx.send_sixp(*from, msg);
            }
            SixtopEvent::Completed {
                peer,
                request,
                response,
            } => match (request, response) {
                (SixpBody::AddRequest { kind, .. }, SixpBody::AddResponse { cells, .. }) => {
                    self.complete_add(ctx, *peer, *kind, cells)
                }
                (SixpBody::DeleteRequest { .. }, SixpBody::DeleteResponse { cells, .. }) => {
                    for spec in cells {
                        self.remove_cells(ctx.mac, |c| {
                            c.slot.raw() == spec.slot
                                && c.peer == Dest::Unicast(*peer)
                                && c.class == CellClass::Data
                        });
                    }
                }
                (
                    SixpBody::AskChannelRequest,
                    SixpBody::AskChannelResponse { channel_offset, .. },
                ) => {
                    self.ask_channel_pending = false;
                    self.ask_channel_done = true;
                    self.f_my_children = Some(*channel_offset);
                    self.install_children_shared_rx(ctx);
                }
                _ => {}
            },
            SixtopEvent::Failed { request, .. } => match request {
                SixpBody::AskChannelRequest => {
                    self.ask_channel_pending = false;
                }
                SixpBody::AddRequest {
                    kind: SixpCellKind::SixP,
                    ..
                } => {
                    self.sixp_cells_pending = false;
                }
                _ => {}
            },
        }
    }

    fn dio_rx_free(&self, mac: &TschMac<Payload>, rpl: &RplNode) -> u16 {
        self.rx_capacity(mac, rpl)
    }

    fn eb_info(&self, mac: &TschMac<Payload>, rpl: &RplNode) -> EbInfo {
        EbInfo {
            rx_channel: self.f_my_children,
            rx_free: self.rx_capacity(mac, rpl),
        }
    }

    fn debug_summary(&self) -> String {
        format!(
            "f_par={:?} f_cs={:?} ask(done={},pend={}) 6pcells(done={},pend={}) demand={:?} eb_ch={:?} eb_rx={:?}",
            self.f_to_parent,
            self.f_my_children,
            self.ask_channel_done,
            self.ask_channel_pending,
            self.sixp_cells_done,
            self.sixp_cells_pending,
            self.child_demand,
            self.eb_channels,
            self.eb_rx_free,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtt_rpl::{Dio, Rank};
    use gtt_sim::{Pcg32, SimTime};
    use gtt_sixtop::SixtopLayer;

    /// A hand-driven harness around one SF instance.
    struct Harness {
        sf: GtTschSf,
        mac: TschMac<Payload>,
        rpl: RplNode,
        sixtop: SixtopLayer,
        rng: Pcg32,
        out: Vec<gtt_engine::OutgoingControl>,
        rate: f64,
    }

    impl Harness {
        fn new_root(id: u16) -> Self {
            Self::build(id, true)
        }

        fn new_node(id: u16) -> Self {
            Self::build(id, false)
        }

        fn build(id: u16, root: bool) -> Self {
            Self::build_with(id, root, GtTschConfig::paper_default())
        }

        fn build_with(id: u16, root: bool, cfg: GtTschConfig) -> Self {
            let id = NodeId::new(id);
            let mut h = Harness {
                sf: GtTschSf::new(cfg),
                mac: TschMac::new(id, Pcg32::new(id.raw() as u64 + 100)),
                rpl: if root {
                    RplNode::new_root(id, SimTime::ZERO)
                } else {
                    RplNode::new(id)
                },
                sixtop: SixtopLayer::new(id),
                rng: Pcg32::new(id.raw() as u64),
                out: Vec::new(),
                rate: 0.0,
            };
            h.with(|sf, ctx| sf.init(ctx));
            h
        }

        fn with(&mut self, f: impl FnOnce(&mut GtTschSf, &mut SfContext<'_>)) {
            let mut ctx = SfContext {
                mac: &mut self.mac,
                rpl: &self.rpl,
                sixtop: &mut self.sixtop,
                rng: &mut self.rng,
                now: SimTime::from_secs(10),
                app_rate_ppm: self.rate,
                out: &mut self.out,
            };
            f(&mut self.sf, &mut ctx);
        }

        fn join(&mut self, parent: u16, parent_channel: u8) {
            let p = NodeId::new(parent);
            self.rpl.handle_dio(
                p,
                Dio::new(NodeId::new(0), 1, Rank::ROOT).with_rx_free(6),
                1.0,
                SimTime::from_secs(1),
            );
            let eb = EbInfo::with_rx_channel(parent_channel);
            self.with(|sf, ctx| sf.on_eb(ctx, p, &eb));
        }

        /// Completes this node's most recent outgoing 6P request by
        /// synthesizing the peer's `response` (protocol-honest: it flows
        /// back through the 6P layer so the transaction slot frees up).
        fn pump_response(&mut self, response: SixpBody) {
            let (peer, seq) = self
                .out
                .iter()
                .rev()
                .find_map(|m| match (&m.to, &m.payload) {
                    (Dest::Unicast(p), Payload::SixP(msg)) if msg.body.is_request() => {
                        Some((*p, msg.seqnum))
                    }
                    _ => None,
                })
                .expect("an outgoing 6P request to answer");
            let msg = gtt_sixtop::SixpMessage::new(seq, response);
            if let Some(ev) = self.sixtop.handle_message(peer, msg) {
                self.with(|sf, ctx| sf.on_sixtop_event(ctx, &ev));
            }
        }

        /// Drives the join-time negotiation to completion: 6P cells then
        /// ASK-CHANNEL (granting `children_channel`).
        fn settle_join(&mut self, children_channel: u8) {
            self.with(|sf, ctx| sf.periodic(ctx));
            self.pump_response(SixpBody::AddResponse {
                code: ReturnCode::Success,
                cells: vec![CellSpec::new(9, 5), CellSpec::new(10, 5)],
            });
            self.with(|sf, ctx| sf.periodic(ctx));
            self.pump_response(SixpBody::AskChannelResponse {
                code: ReturnCode::Success,
                channel_offset: children_channel,
            });
        }

        fn cells(&self, class: CellClass) -> Vec<Cell> {
            self.mac
                .schedule()
                .frame(SF_HANDLE)
                .unwrap()
                .cells()
                .iter()
                .filter(|c| c.class == class)
                .copied()
                .collect()
        }
    }

    #[test]
    fn init_installs_uniform_broadcast_cells() {
        let h = Harness::new_node(5);
        let bcast = h.cells(CellClass::Broadcast);
        assert_eq!(bcast.len(), 4);
        let slots: Vec<u16> = bcast.iter().map(|c| c.slot.raw()).collect();
        assert_eq!(slots, vec![0, 8, 16, 24]);
        assert!(bcast.iter().all(|c| c.channel_offset.raw() == 0));
    }

    #[test]
    fn every_slotframe_length_validates_or_initialises() {
        // Each length fails validation or lays out working nodes: a root
        // listening in its children's shared slot, and a joined child
        // transmitting there. The even lengths below 24 have two
        // broadcast slots half a slotframe apart, too few for the third
        // shared slot.
        let mut rejected = Vec::new();
        for m in 8..=128 {
            let cfg = GtTschConfig {
                slotframe_len: m,
                ..GtTschConfig::paper_default()
            };
            if std::panic::catch_unwind(|| cfg.validate()).is_err() {
                rejected.push(m);
                continue;
            }
            let root = Harness::build_with(0, true, cfg.clone());
            let mut child = Harness::build_with(2, false, cfg);
            child.join(0, 5);
            let (rx, tx) = (
                root.cells(CellClass::Shared),
                child.cells(CellClass::Shared),
            );
            assert_eq!(rx.len(), 1, "m = {m}");
            assert_eq!(rx[0].slot, tx[0].slot, "m = {m}");
        }
        assert_eq!(rejected, (8..=22).step_by(2).collect::<Vec<u16>>());
    }

    #[test]
    fn root_picks_non_broadcast_children_channel() {
        let h = Harness::new_root(0);
        let ch = h.sf.children_channel().expect("root allocates at init");
        assert_ne!(ch, 0, "children channel must differ from f_bcast");
        // Shared Rx cells installed on that channel — the odd-parity half
        // of the 3 shared slots (where depth-1 children transmit).
        let shared = h.cells(CellClass::Shared);
        assert_eq!(shared.len(), 1);
        assert_eq!(shared[0].slot.raw(), 9);
        assert!(shared.iter().all(|c| c.channel_offset.raw() == ch));
        assert!(shared.iter().all(|c| c.options.rx && !c.options.tx));
    }

    #[test]
    fn child_installs_shared_tx_on_parent_channel() {
        let mut h = Harness::new_node(2);
        h.join(0, 5);
        assert_eq!(h.sf.parent_channel(), Some(5));
        // Depth-1 child: transmits to the parent in the odd-parity shared
        // slot (9) — exactly where the root listens.
        let shared = h.cells(CellClass::Shared);
        assert_eq!(shared.len(), 1, "{shared:?}");
        assert_eq!(shared[0].slot.raw(), 9);
        assert!(shared.iter().all(|c| c.channel_offset.raw() == 5));
        assert!(shared.iter().all(|c| c.options.tx && c.options.shared));
        assert!(shared
            .iter()
            .all(|c| c.peer == Dest::Unicast(NodeId::new(0))));
    }

    #[test]
    fn periodic_negotiates_sixp_cells_then_channel() {
        // RFC 8480 allows one outstanding transaction per neighbor pair,
        // so the join-time negotiation serializes: ADD(SixP) first, then
        // ASK-CHANNEL after it completes.
        let mut h = Harness::new_node(2);
        h.join(0, 5);
        h.with(|sf, ctx| sf.periodic(ctx));
        assert_eq!(h.out.len(), 1, "messages: {:?}", h.out);
        assert!(matches!(
            &h.out[0].payload,
            Payload::SixP(m) if matches!(m.body, SixpBody::AddRequest { kind: SixpCellKind::SixP, .. })
        ));
        h.pump_response(SixpBody::AddResponse {
            code: ReturnCode::Success,
            cells: vec![CellSpec::new(9, 5), CellSpec::new(10, 5)],
        });
        // Dedicated 6P cells installed: one Tx, one Rx.
        let sixp = h.cells(CellClass::SixP);
        assert_eq!(sixp.len(), 2);
        assert!(sixp.iter().any(|c| c.options.tx) && sixp.iter().any(|c| c.options.rx));

        h.with(|sf, ctx| sf.periodic(ctx));
        assert!(matches!(
            &h.out.last().unwrap().payload,
            Payload::SixP(m) if matches!(m.body, SixpBody::AskChannelRequest)
        ));
        h.pump_response(SixpBody::AskChannelResponse {
            code: ReturnCode::Success,
            channel_offset: 3,
        });
        assert_eq!(h.sf.children_channel(), Some(3));
    }

    #[test]
    fn parent_answers_ask_channel_with_algorithm_1() {
        let mut h = Harness::new_root(0);
        let own = h.sf.children_channel().unwrap();
        let event = SixtopEvent::Request {
            from: NodeId::new(3),
            seqnum: 0,
            body: SixpBody::AskChannelRequest,
        };
        h.with(|sf, ctx| sf.on_sixtop_event(ctx, &event));
        assert_eq!(h.out.len(), 1);
        let Payload::SixP(msg) = &h.out[0].payload else {
            panic!("expected 6P response");
        };
        let SixpBody::AskChannelResponse {
            code,
            channel_offset,
        } = msg.body
        else {
            panic!("expected ASK-CHANNEL response, got {}", msg);
        };
        assert!(code.is_success());
        assert_ne!(channel_offset, 0, "not f_bcast");
        assert_ne!(channel_offset, own, "not the root's own children channel");
    }

    #[test]
    fn parent_grants_data_cells_and_installs_rx() {
        let mut h = Harness::new_root(0);
        let event = SixtopEvent::Request {
            from: NodeId::new(3),
            seqnum: 0,
            body: SixpBody::AddRequest {
                kind: SixpCellKind::Data,
                num_cells: 2,
                cells: vec![
                    CellSpec::new(2, 4),
                    CellSpec::new(3, 4),
                    CellSpec::new(5, 4),
                ],
            },
        };
        h.with(|sf, ctx| sf.on_sixtop_event(ctx, &event));
        let rx = h.cells(CellClass::Data);
        assert_eq!(rx.len(), 2, "two Rx cells installed");
        assert!(rx.iter().all(|c| c.options.rx));
        assert!(rx.iter().all(|c| c.peer == Dest::Unicast(NodeId::new(3))));
        let Payload::SixP(msg) = &h.out[0].payload else {
            panic!()
        };
        let SixpBody::AddResponse { code, cells } = &msg.body else {
            panic!("expected ADD response")
        };
        assert!(code.is_success());
        assert_eq!(cells.len(), 2);
    }

    #[test]
    fn grant_is_idempotent_across_retries() {
        let mut h = Harness::new_root(0);
        let body = SixpBody::AddRequest {
            kind: SixpCellKind::Data,
            num_cells: 1,
            cells: vec![CellSpec::new(2, 4)],
        };
        for seq in [0, 0] {
            let event = SixtopEvent::Request {
                from: NodeId::new(3),
                seqnum: seq,
                body: body.clone(),
            };
            h.with(|sf, ctx| sf.on_sixtop_event(ctx, &event));
        }
        assert_eq!(h.cells(CellClass::Data).len(), 1, "no duplicate cells");
    }

    #[test]
    fn child_installs_tx_cells_on_completion() {
        let mut h = Harness::new_node(2);
        h.join(0, 5);
        let event = SixtopEvent::Completed {
            peer: NodeId::new(0),
            request: SixpBody::AddRequest {
                kind: SixpCellKind::Data,
                num_cells: 2,
                cells: vec![],
            },
            response: SixpBody::AddResponse {
                code: ReturnCode::Success,
                cells: vec![CellSpec::new(2, 5), CellSpec::new(5, 5)],
            },
        };
        h.with(|sf, ctx| sf.on_sixtop_event(ctx, &event));
        let data = h.cells(CellClass::Data);
        assert_eq!(data.len(), 2);
        assert!(data.iter().all(|c| c.options.tx));
        assert!(data.iter().all(|c| c.channel_offset.raw() == 5));
    }

    #[test]
    fn ask_channel_completion_installs_children_shared_rx() {
        let mut h = Harness::new_node(2);
        h.join(0, 5);
        let event = SixtopEvent::Completed {
            peer: NodeId::new(0),
            request: SixpBody::AskChannelRequest,
            response: SixpBody::AskChannelResponse {
                code: ReturnCode::Success,
                channel_offset: 3,
            },
        };
        h.with(|sf, ctx| sf.on_sixtop_event(ctx, &event));
        assert_eq!(h.sf.children_channel(), Some(3));
        // A depth-1 node's children transmit in the even-parity shared
        // slots {1, 17}; it must listen there.
        let shared_rx: Vec<Cell> = h
            .cells(CellClass::Shared)
            .into_iter()
            .filter(|c| c.options.rx)
            .collect();
        assert_eq!(shared_rx.len(), 2, "{shared_rx:?}");
        assert!(shared_rx.iter().all(|c| c.channel_offset.raw() == 3));
        let slots: Vec<u16> = shared_rx.iter().map(|c| c.slot.raw()).collect();
        assert_eq!(slots, vec![1, 17]);
    }

    #[test]
    fn dio_rx_free_enforces_tx_above_rx() {
        let mut h = Harness::new_node(2);
        h.join(0, 5);
        // No Tx cells yet: a forwarder must advertise 0.
        assert_eq!(h.sf.dio_rx_free(&h.mac, &h.rpl), 0);
        // Give it three Tx cells: capacity becomes 3 − 1 − 0 = 2.
        h.with(|sf, ctx| {
            for slot in [2, 3, 5] {
                sf.install_cell(
                    ctx.mac,
                    Cell::data_tx(SlotOffset::new(slot), ChannelOffset::new(5), NodeId::new(0)),
                );
            }
        });
        assert_eq!(h.sf.dio_rx_free(&h.mac, &h.rpl), 2);
    }

    #[test]
    fn root_advertises_free_capacity() {
        let h = Harness::new_root(0);
        let adv = h.sf.dio_rx_free(&h.mac, &h.rpl);
        assert!(adv > 0, "root must advertise capacity, got {adv}");
        assert!(adv <= RX_ADVERTISE_CAP);
    }

    #[test]
    fn load_balance_requests_game_optimal_cells() {
        let mut h = Harness::new_node(2);
        h.rate = 150.0; // heavy generation: l_g = ceil(150·0.48/60) = 2
        h.join(0, 5);
        h.settle_join(3);
        h.with(|sf, ctx| sf.periodic(ctx));
        let add_data = h.out.iter().find_map(|m| match &m.payload {
            Payload::SixP(msg) => match &msg.body {
                SixpBody::AddRequest {
                    kind: SixpCellKind::Data,
                    num_cells,
                    cells,
                } => Some((*num_cells, cells.len())),
                _ => None,
            },
            _ => None,
        });
        let (num, cand) = add_data.expect("a data ADD must be issued under load");
        assert!(num >= 2, "deficit is 2, requested {num}");
        assert!(num <= 6, "bounded by parent's advertised l_rx");
        assert!(cand >= num as usize, "enough candidates proposed");
    }

    #[test]
    fn light_load_triggers_delete() {
        let mut h = Harness::new_node(2);
        h.rate = 10.0; // l_g = 1
        h.join(0, 5);
        h.settle_join(3);
        // Pretend we once needed 5 cells.
        h.with(|sf, ctx| {
            for slot in [2, 3, 5, 6, 7] {
                sf.install_cell(
                    ctx.mac,
                    Cell::data_tx(SlotOffset::new(slot), ChannelOffset::new(5), NodeId::new(0)),
                );
            }
        });
        // DELETE requires a persistent (3-period) surplus streak.
        h.with(|sf, ctx| sf.periodic(ctx));
        h.with(|sf, ctx| sf.periodic(ctx));
        h.with(|sf, ctx| sf.periodic(ctx));
        let delete = h.out.iter().find_map(|m| match &m.payload {
            Payload::SixP(msg) => match &msg.body {
                SixpBody::DeleteRequest { cells, .. } => Some(cells.len()),
                _ => None,
            },
            _ => None,
        });
        // demand = 1, have 5, slack 1 ⇒ delete 3.
        assert_eq!(delete, Some(3));
    }

    #[test]
    fn parent_change_clears_old_cells() {
        let mut h = Harness::new_node(2);
        // Join through a deep relay (n9, rank 768 ⇒ our rank 1024)…
        h.rpl.handle_dio(
            NodeId::new(9),
            Dio::new(NodeId::new(0), 1, Rank::new(768)).with_rx_free(6),
            1.0,
            SimTime::from_secs(1),
        );
        let eb = EbInfo::with_rx_channel(5);
        h.with(|sf, ctx| sf.on_eb(ctx, NodeId::new(9), &eb));
        h.with(|sf, ctx| {
            sf.install_cell(
                ctx.mac,
                Cell::data_tx(SlotOffset::new(2), ChannelOffset::new(5), NodeId::new(9)),
            );
        });
        assert!(!h.cells(CellClass::Data).is_empty());
        assert!(!h.cells(CellClass::Shared).is_empty());

        // …then the root appears (cost 512, improvement > threshold):
        // RPL switches parents, after which the engine fires the hook.
        h.rpl.handle_dio(
            NodeId::new(0),
            Dio::new(NodeId::new(0), 1, Rank::ROOT).with_rx_free(6),
            1.0,
            SimTime::from_secs(2),
        );
        assert_eq!(h.rpl.parent(), Some(NodeId::new(0)));
        h.with(|sf, ctx| sf.on_parent_changed(ctx, Some(NodeId::new(9)), NodeId::new(0)));

        let data = h.cells(CellClass::Data);
        assert!(data.is_empty(), "old-parent data cells gone: {data:?}");
        assert!(
            h.cells(CellClass::Shared)
                .iter()
                .all(|c| c.peer != Dest::Unicast(NodeId::new(9))),
            "no shared cells towards the old parent"
        );
        // A CLEAR went out to the old parent.
        assert!(h.out.iter().any(|m| matches!(
            &m.payload,
            Payload::SixP(msg) if matches!(msg.body, SixpBody::ClearRequest)
        )));
    }

    #[test]
    fn no_path_dao_releases_child_state() {
        let mut h = Harness::new_root(0);
        // Child 3 asks for a channel and gets cells.
        let ask = SixtopEvent::Request {
            from: NodeId::new(3),
            seqnum: 0,
            body: SixpBody::AskChannelRequest,
        };
        h.with(|sf, ctx| sf.on_sixtop_event(ctx, &ask));
        let add = SixtopEvent::Request {
            from: NodeId::new(3),
            seqnum: 1,
            body: SixpBody::AddRequest {
                kind: SixpCellKind::Data,
                num_cells: 1,
                cells: vec![CellSpec::new(2, 4)],
            },
        };
        h.with(|sf, ctx| sf.on_sixtop_event(ctx, &add));
        assert_eq!(h.cells(CellClass::Data).len(), 1);
        h.with(|sf, ctx| sf.on_dao(ctx, NodeId::new(3), true));
        assert!(h.cells(CellClass::Data).is_empty());
    }
}
