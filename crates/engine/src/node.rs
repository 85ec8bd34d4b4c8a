//! A simulated IoT node: MAC + RPL + 6P + application + scheduler.

use gtt_mac::TschMac;
use gtt_net::{Dest, Frame, NodeId, PacketId};
use gtt_rpl::{RplAction, RplNode};
use gtt_sim::{Pcg32, SimDuration, SimTime, Timer};
use gtt_sixtop::{SixtopEvent, SixtopLayer};

use crate::payload::Payload;
use crate::scheduler::{OutgoingControl, SchedulingFunction, SfContext};

/// Constant-bit-rate application traffic source.
///
/// Generates one upward data packet every `60/rate_ppm` seconds, starting
/// at a random phase so nodes do not fire in lock-step (the paper's motes
/// boot asynchronously).
#[derive(Debug, Clone)]
pub struct AppTraffic {
    /// Packets per minute.
    pub rate_ppm: f64,
    period: SimDuration,
    next: SimTime,
}

impl AppTraffic {
    /// The lowest rate a source supports: one packet per `u32::MAX` µs
    /// (about 71.6 minutes), the longest period the initial phase can be
    /// drawn from.
    pub const MIN_RATE_PPM: f64 = 60_000_000.0 / u32::MAX as f64;

    /// The highest rate a source supports: one packet per microsecond
    /// of simulated time, the clock's resolution.
    pub const MAX_RATE_PPM: f64 = 60_000_000.0;

    /// True if `rate_ppm` is a rate [`AppTraffic::new`] accepts: from
    /// [`AppTraffic::MIN_RATE_PPM`] to [`AppTraffic::MAX_RATE_PPM`] (so
    /// neither NaN nor infinite).
    pub fn is_valid_rate(rate_ppm: f64) -> bool {
        (Self::MIN_RATE_PPM..=Self::MAX_RATE_PPM).contains(&rate_ppm)
    }

    /// Creates a CBR source with a random initial phase.
    ///
    /// # Panics
    ///
    /// Panics unless [`AppTraffic::is_valid_rate`] accepts `rate_ppm`.
    /// A faster source's period would round to 0 µs and it would never
    /// stop generating; a slower one's period would not fit the `u32`
    /// the phase is drawn in.
    pub fn new(rate_ppm: f64, rng: &mut Pcg32) -> Self {
        assert!(
            Self::is_valid_rate(rate_ppm),
            "traffic rate must be positive, at least {} ppm (one packet per u32::MAX µs) and \
             at most {} ppm (one packet per simulated microsecond), got {rate_ppm}",
            Self::MIN_RATE_PPM,
            Self::MAX_RATE_PPM
        );
        let period = SimDuration::from_secs_f64(60.0 / rate_ppm);
        let phase =
            SimDuration::from_micros(rng.gen_range_u32(0, period.as_micros().max(2) as u32) as u64);
        AppTraffic {
            rate_ppm,
            period,
            next: SimTime::ZERO + phase,
        }
    }

    /// Number of packets due at or before `now`; advances the phase.
    pub fn due_packets(&mut self, now: SimTime) -> u32 {
        self.due(now)
    }

    /// When the next packet becomes due (always in the future of the last
    /// [`AppTraffic::due_packets`] query).
    pub fn next_due(&self) -> SimTime {
        self.next
    }

    /// Number of packets due at or before `now`; advances the phase.
    fn due(&mut self, now: SimTime) -> u32 {
        let mut n = 0;
        while self.next <= now {
            self.next += self.period;
            n += 1;
        }
        n
    }
}

/// One simulated mote.
pub struct Node {
    /// TSCH MAC.
    pub mac: TschMac<Payload>,
    /// RPL routing.
    pub rpl: RplNode,
    /// 6P transaction layer.
    pub sixtop: SixtopLayer,
    /// The pluggable scheduling function.
    pub scheduler: Box<dyn SchedulingFunction>,
    /// Application traffic source (`None` for roots / silent nodes).
    pub app: Option<AppTraffic>,
    /// While set, due application packets are discarded instead of
    /// enqueued (duty-cycle-budget throttling). The source's phase keeps
    /// advancing, so unthrottling never releases a catch-up burst and the
    /// node's wake pattern is identical throttled or not.
    pub(crate) app_throttled: bool,
    pub(crate) rng: Pcg32,
    /// TSCH Enhanced Beacon timer (one-shot, re-armed with ±25%
    /// jitter on every firing).
    pub(crate) eb_timer: Timer,
    /// Scheduling-function `periodic` hook timer (periodic).
    pub(crate) sf_timer: Timer,
    /// RPL action scratch (fire_due / handle_dio out-buffer), reused so
    /// steady-state housekeeping and DIO handling never allocate.
    rpl_actions: Vec<RplAction>,
    /// Scheduler-hook control-message scratch ([`SfContext::out`]),
    /// reused for the same reason.
    control_out: Vec<OutgoingControl>,
    /// Nominal EB period (jittered ±25% per beacon).
    pub(crate) eb_period: SimDuration,
    /// `false` once the node has been killed by fault injection; a dead
    /// node neither plans slots nor runs timers.
    pub(crate) alive: bool,
    /// Data packets dropped because the node had no parent to forward to.
    pub(crate) routing_drops: u64,
    /// Packets this node generated (lifetime, unwindowed), which is
    /// also the sequence number of its next origin-keyed packet id
    /// (`id = origin << 48 | seq`): ids stay globally unique without a
    /// network-global counter, so id assignment is independent of which
    /// other nodes a core processes in the same slot.
    pub(crate) generated_total: u64,
    /// First ASN not yet reflected in the MAC's slot counters: the
    /// event-driven engine accounts skipped sleep slots lazily, and this
    /// is the low-water mark (see `Network::sync_accounting`).
    pub(crate) accounted_asn: u64,
    /// Memo of the last timer-deadline → wake-slot conversion, so
    /// rescheduling a node whose deadlines did not move skips the
    /// division (deadlines change on timer fires, not on every wake).
    pub(crate) timer_wake_memo: Option<(SimTime, u64)>,
}

/// What a node wants transmitted / recorded after an upkeep pass.
#[derive(Debug, Default)]
pub(crate) struct UpkeepOutput {
    /// Data packets generated this pass (the network assigns
    /// origin-keyed ids from [`Node::generated_total`]).
    pub generated_packets: u32,
    /// Parent changes to report to the scheduler (old, new).
    pub parent_changes: Vec<(Option<NodeId>, NodeId)>,
}

impl Node {
    pub(crate) fn new(
        mac: TschMac<Payload>,
        rpl: RplNode,
        sixtop: SixtopLayer,
        scheduler: Box<dyn SchedulingFunction>,
        rng: Pcg32,
    ) -> Self {
        Node {
            mac,
            rpl,
            sixtop,
            scheduler,
            app: None,
            app_throttled: false,
            rng,
            eb_timer: Timer::disarmed(),
            sf_timer: Timer::disarmed(),
            rpl_actions: Vec::new(),
            control_out: Vec::new(),
            eb_period: SimDuration::from_secs(2),
            alive: true,
            routing_drops: 0,
            generated_total: 0,
            accounted_asn: 0,
            timer_wake_memo: None,
        }
    }

    /// The earliest instant at which [`Node::upkeep`] would do anything:
    /// the minimum over the node-level timers (EB, SF period), the
    /// RPL layer's own deadline (neighbor/child expiry, ETX-driven rank
    /// refresh, Trickle firing, DAO refresh), pending 6P transaction
    /// deadlines and the application's next packet. Strictly before this
    /// instant, `upkeep` is a no-op (no state change, no RNG draw), which
    /// is what lets the event-driven engine skip it.
    pub(crate) fn next_timer_deadline(&self) -> Option<SimTime> {
        [
            self.eb_timer.deadline(),
            self.sf_timer.deadline(),
            self.rpl.next_deadline(),
            self.sixtop.next_deadline(),
            self.app.as_ref().map(AppTraffic::next_due),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.mac.id()
    }

    /// Lifetime count of packets generated by the local application.
    pub fn generated_total(&self) -> u64 {
        self.generated_total
    }

    /// Data packets dropped for lack of a route.
    pub fn routing_drops(&self) -> u64 {
        self.routing_drops
    }

    /// True unless the node was killed by fault injection.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// True while the application source is throttled (see
    /// [`Network::set_app_throttled`](crate::Network)).
    pub fn is_app_throttled(&self) -> bool {
        self.app_throttled
    }

    /// Runs a scheduler hook with a fully-wired [`SfContext`], then
    /// flushes any messages the hook queued into the MAC control queue.
    pub(crate) fn with_scheduler(
        &mut self,
        now: SimTime,
        f: impl FnOnce(&mut dyn SchedulingFunction, &mut SfContext<'_>),
    ) {
        // Reused out-buffer (taken for the duration of the hook): hooks
        // that queue nothing — the steady-state norm — never allocate.
        let mut out = std::mem::take(&mut self.control_out);
        let app_rate = self.app.as_ref().map_or(0.0, |a| a.rate_ppm);
        {
            let Node {
                mac,
                rpl,
                sixtop,
                scheduler,
                rng,
                ..
            } = self;
            let mut ctx = SfContext {
                mac,
                rpl,
                sixtop,
                rng,
                now,
                app_rate_ppm: app_rate,
                out: &mut out,
            };
            f(scheduler.as_mut(), &mut ctx);
        }
        self.flush_control(&mut out, now);
        self.control_out = out;
    }

    /// Enqueues scheduler-produced control messages, draining `out`.
    pub(crate) fn flush_control(&mut self, out: &mut Vec<OutgoingControl>, now: SimTime) {
        for msg in out.drain(..) {
            self.enqueue_control_payload(msg.to, msg.payload, now);
        }
    }

    /// Wraps a payload in a frame and enqueues it on the control queue.
    /// Control-queue overflow silently drops the frame (periodic control
    /// traffic is self-healing: EBs/DIOs recur, 6P retries).
    pub(crate) fn enqueue_control_payload(&mut self, to: Dest, payload: Payload, now: SimTime) {
        let class = payload
            .traffic_class()
            .expect("control path used for data payload");
        let id = PacketId::new(u64::MAX); // control frames are not tracked
        let frame = Frame::new(id, self.id(), to, now, payload);
        let _ = self.mac.enqueue_control(frame, class);
    }

    /// Handles RPL actions produced by `handle_dio_into` or
    /// `fire_due_into`, draining `actions` (a reusable buffer).
    pub(crate) fn process_rpl_actions(
        &mut self,
        actions: &mut Vec<RplAction>,
        now: SimTime,
        output: &mut UpkeepOutput,
    ) {
        for action in actions.drain(..) {
            match action {
                RplAction::BroadcastDio(mut dio) => {
                    // Patch in the GT-TSCH l_rx option (paper §VII).
                    dio.rx_free = self.scheduler.dio_rx_free(&self.mac, &self.rpl);
                    self.enqueue_control_payload(Dest::Broadcast, Payload::Dio(dio), now);
                }
                RplAction::SendDao { to, dao } => {
                    self.enqueue_control_payload(Dest::Unicast(to), Payload::Dao(dao), now);
                }
                RplAction::ParentChanged { old, new } => {
                    // Re-address queued upward data to the new parent.
                    if let Some(old_parent) = old {
                        let stranded = self
                            .mac
                            .drain_data_where(|f| f.dst == Dest::Unicast(old_parent));
                        for frame in stranded {
                            let mut f = frame;
                            f.dst = Dest::Unicast(new);
                            f.src = self.id();
                            let _ = self.mac.enqueue_data(f);
                        }
                    }
                    output.parent_changes.push((old, new));
                }
            }
        }
    }

    /// Per-slot upkeep: the node-level timers (EB, SF period), RPL's
    /// deadline-driven housekeeping, 6P retries and the application.
    /// Returns how many data packets the app generated (the network
    /// assigns their ids so they are globally unique).
    pub(crate) fn upkeep(&mut self, now: SimTime) -> UpkeepOutput {
        let mut output = UpkeepOutput::default();

        let eb_fired = self.eb_timer.fire_due(now);
        let sf_fired = self.sf_timer.fire_due(now);

        // TSCH Enhanced Beacons: only joined nodes advertise the DODAG.
        // The next beacon is re-armed with ±25% jitter (as Contiki-NG
        // randomizes TSCH_EB_PERIOD): with fixed phases, two hidden
        // senders can stay aligned on the broadcast-slot grid forever and
        // a third node between them would never decode either.
        if eb_fired {
            if self.rpl.is_joined() {
                let info = self.scheduler.eb_info(&self.mac, &self.rpl);
                self.enqueue_control_payload(Dest::Broadcast, Payload::Eb(info), now);
            }
            let base = self.eb_period.as_micros();
            let jitter = self.rng.gen_range_u32(0, (base / 2).max(2) as u32) as u64;
            self.eb_timer
                .arm(now + SimDuration::from_micros(base * 3 / 4 + jitter));
        }

        // RPL housekeeping: deadline-driven — the call is a provable
        // no-op before `RplNode::next_deadline`, so running it on every
        // upkeep costs nothing on wake-ups where no RPL work is due. The
        // action buffer is node-owned scratch: steady-state firing (a
        // Trickle DIO, a DAO refresh) appends into warm capacity.
        let mut actions = std::mem::take(&mut self.rpl_actions);
        {
            let Node { mac, rpl, .. } = self;
            let etx = |n: NodeId| mac.etx(n);
            rpl.fire_due_into(now, &etx, &mut actions);
        }
        if !actions.is_empty() {
            self.process_rpl_actions(&mut actions, now, &mut output);
        }
        self.rpl_actions = actions;

        // 6P timeouts / retries.
        let (resends, failures) = self.sixtop.poll(now);
        for (peer, msg) in resends {
            self.enqueue_control_payload(Dest::Unicast(peer), Payload::SixP(msg), now);
        }
        for event in failures {
            self.dispatch_sixtop_event(event, now);
        }

        // Scheduling-function period.
        if sf_fired {
            self.with_scheduler(now, |sf, ctx| sf.periodic(ctx));
        }

        // Application traffic: only joined, routed, unthrottled nodes
        // generate. `due` is drawn unconditionally so a throttled
        // source's phase advances exactly as an active one's would.
        if let Some(app) = self.app.as_mut() {
            let due = app.due(now);
            if due > 0 && !self.app_throttled && self.rpl.is_joined() && !self.rpl.is_root() {
                output.generated_packets = due;
            }
        }

        output
    }

    /// Takes the node's reusable RPL action buffer (empty) for an
    /// out-of-band `handle_dio_into` call; return it with
    /// [`Node::restore_rpl_actions`].
    pub(crate) fn take_rpl_actions(&mut self) -> Vec<RplAction> {
        std::mem::take(&mut self.rpl_actions)
    }

    /// Returns the buffer taken by [`Node::take_rpl_actions`].
    pub(crate) fn restore_rpl_actions(&mut self, actions: Vec<RplAction>) {
        debug_assert!(actions.is_empty(), "RPL action buffer must be drained");
        self.rpl_actions = actions;
    }

    /// Routes a 6P event through the scheduler.
    pub(crate) fn dispatch_sixtop_event(&mut self, event: SixtopEvent, now: SimTime) {
        self.with_scheduler(now, |sf, ctx| sf.on_sixtop_event(ctx, &event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_traffic_rate() {
        let mut rng = Pcg32::new(1);
        let mut app = AppTraffic::new(60.0, &mut rng); // 1 pkt/s
        let mut total = 0;
        for s in 1..=30 {
            total += app.due(SimTime::from_secs(s));
        }
        assert!((29..=31).contains(&total), "got {total} packets in 30 s");
    }

    #[test]
    fn app_traffic_phases_differ() {
        let mut rng = Pcg32::new(2);
        let a = AppTraffic::new(30.0, &mut rng);
        let b = AppTraffic::new(30.0, &mut rng);
        assert_ne!(a.next, b.next, "random phases should differ");
    }

    #[test]
    fn burst_catchup_counts_all_due() {
        let mut rng = Pcg32::new(3);
        let mut app = AppTraffic::new(120.0, &mut rng); // every 0.5 s
                                                        // Jump 10 s ahead: ~20 packets due at once.
        let due = app.due(SimTime::from_secs(10));
        assert!((19..=21).contains(&due), "got {due}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_rejected() {
        let mut rng = Pcg32::new(4);
        let _ = AppTraffic::new(0.0, &mut rng);
    }

    /// Above one packet per microsecond the period would round to 0 µs
    /// and `due` would loop forever; the source refuses such a rate.
    #[test]
    #[should_panic(
        expected = "at most 60000000 ppm (one packet per simulated microsecond), got 130000000"
    )]
    fn rate_above_one_packet_per_microsecond_rejected() {
        let mut rng = Pcg32::new(5);
        let _ = AppTraffic::new(1.3e8, &mut rng);
    }

    #[test]
    fn the_rate_limit_is_a_one_microsecond_period() {
        assert!(AppTraffic::is_valid_rate(AppTraffic::MAX_RATE_PPM));
        assert!(!AppTraffic::is_valid_rate(AppTraffic::MAX_RATE_PPM * 1.01));
        assert!(!AppTraffic::is_valid_rate(f64::NAN));
        assert!(!AppTraffic::is_valid_rate(0.0));
        let mut rng = Pcg32::new(6);
        let mut app = AppTraffic::new(AppTraffic::MAX_RATE_PPM, &mut rng);
        assert_eq!(app.period.as_micros(), 1);
        let start = app.next_due();
        assert_eq!(app.due(start + SimDuration::from_micros(9)), 10);
        // The lower limit: below one packet per `u32::MAX` µs the phase
        // draw's range would truncate, to nothing at a 2^32 µs period.
        let app = AppTraffic::new(AppTraffic::MIN_RATE_PPM, &mut rng);
        assert_eq!(app.period.as_micros(), u64::from(u32::MAX));
        assert!(!AppTraffic::is_valid_rate(60e6 / 2f64.powi(32)));
    }
}
