//! Composable dynamic-event overlays: timed environmental effects
//! applied over an experiment's measurement window.
//!
//! An [`Overlay`] is pure data — part of an
//! [`Experiment`](crate::Experiment), compared, cloned and canonically
//! encoded like every other input. One unified timeline driver (invoked
//! by [`Experiment::run`](crate::Experiment::run)) interleaves the
//! overlays' scheduled events with the simulation: it advances the
//! network to the next due event, applies it through the engine's
//! public mutation API ([`Network::set_link_prr`],
//! [`Network::move_node`], [`Network::set_app_throttled`]), and repeats
//! until the window closes. Because only public, core-agnostic entry
//! points are used, an overlaid run on the event-driven engine is
//! byte-identical to the same run on the `naive-step` oracle — the
//! `step_equivalence` suite pins all three overlay kinds.
//!
//! Overlays compose *across kinds*: events due at the same instant fire
//! in declaration order, and each kind touches disjoint state (link PRR
//! overrides, node positions, application throttles). Within a kind,
//! the stateful overlays do not stack — two noise timelines would
//! corrupt each other's PRR save/restore and two duty budgets would
//! fight over the throttle flags — so an experiment carries at most one
//! `Noise` and one `DutyCycle` overlay (any number of `Mobility`
//! traces is fine, positions are last-write-wins).

use gtt_engine::Network;
use gtt_mac::{Asn, SLOT_DURATION};
use gtt_net::{NodeId, Position};
use gtt_sim::{SimDuration, SimTime};

/// Periodic wideband interference: every `quiet + burst` of simulated
/// time, *all* audible links degrade to `prr_factor` of their nominal
/// packet-reception ratio for `burst`, then recover — the on/off duty
/// cycle of a co-located Wi-Fi transmitter or duty-cycled jammer
/// (PAPERS.md: the HRL-TSCH / E-MSF evaluation conditions).
///
/// Implemented on top of the engine's fault-injection machinery
/// ([`Network::set_link_prr`]): wideband noise is indistinguishable
/// from a synchronized PRR collapse across every link, and routing it
/// through the fault path keeps the event-driven core's lazy
/// accounting exact. The audible-link set is re-read at every burst,
/// so noise composes with mobility (a link that appeared mid-run is
/// degraded by the next burst like any other).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseBurst {
    /// Quiet time between bursts.
    pub quiet: SimDuration,
    /// Duration of each noise window.
    pub burst: SimDuration,
    /// Multiplier applied to every link's PRR while the noise is on
    /// (`0.0` = nothing decodes, `1.0` = no effect).
    pub prr_factor: f64,
}

impl NoiseBurst {
    /// A Wi-Fi-beacon-like interferer: 2 s of heavy wideband noise
    /// (links at 20% of nominal PRR) every 10 s.
    pub fn wifi_like() -> NoiseBurst {
        NoiseBurst {
            quiet: SimDuration::from_secs(8),
            burst: SimDuration::from_secs(2),
            prr_factor: 0.2,
        }
    }

    /// True if `prr_factor` is in `[0, 1]` and a quiet time plus burst
    /// is positive.
    pub(crate) fn is_valid(&self) -> bool {
        (0.0..=1.0).contains(&self.prr_factor) && !(self.quiet.is_zero() && self.burst.is_zero())
    }
}

/// One scheduled relocation of a step-mobility trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaypointHop {
    /// When the hop happens, measured from the start of the measurement
    /// window.
    pub at: SimDuration,
    /// Which node moves.
    pub node: NodeId,
    /// Where it lands.
    pub to: Position,
}

/// Step mobility: waypoint hops that rewrite node positions at
/// scheduled sim times. Each hop re-derives every affected link PRR
/// from the new distances and rebuilds the audibility adjacency
/// ([`Network::move_node`]) — nodes walk out of range, pick new RPL
/// parents, and rejoin elsewhere, the "heterogeneous mobile scenarios"
/// regime of PAPERS.md.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StepMobility {
    /// The hops, ordered by [`WaypointHop::at`] (non-decreasing).
    pub hops: Vec<WaypointHop>,
}

impl StepMobility {
    /// A trace with no hops; extend with [`StepMobility::hop`].
    pub fn new() -> Self {
        StepMobility::default()
    }

    /// Appends a hop (builder style).
    pub fn hop(mut self, at: SimDuration, node: NodeId, to: Position) -> Self {
        self.hops.push(WaypointHop { at, node, to });
        self
    }

    /// True if the hops are ordered by time and each names one of a
    /// network's `nodes` nodes.
    pub(crate) fn is_valid(&self, nodes: usize) -> bool {
        self.hops.windows(2).all(|w| w[0].at <= w[1].at)
            && self.hops.iter().all(|h| h.node.index() < nodes)
    }
}

/// Duty-cycle budgeting: nodes throttle their application traffic when
/// their radio-on budget for the current accounting window is
/// exhausted, and resume when the window rolls over — the
/// energy-constrained workload shape of PAPERS.md's HRL-TSCH / E-MSF
/// baselines.
///
/// Every `check`, each alive non-root node's radio-on share of the
/// current window (Tx + busy-Rx + idle-listen slots since the window
/// started, over the full window length) is compared against
/// `max_duty_percent`; nodes over budget are throttled
/// ([`Network::set_app_throttled`]) until the window resets. Throttled
/// sources keep their phase, so releasing never produces a catch-up
/// burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyCycleBudget {
    /// Length of one accounting window.
    pub window: SimDuration,
    /// How often consumption is evaluated within a window.
    pub check: SimDuration,
    /// Radio-on budget as a percentage of the window (`0 < p ≤ 100`).
    pub max_duty_percent: f64,
}

impl DutyCycleBudget {
    /// True if the window and check period are positive and the budget
    /// is in `(0, 100]`%.
    pub(crate) fn is_valid(&self) -> bool {
        !self.window.is_zero()
            && !self.check.is_zero()
            && self.max_duty_percent > 0.0
            && self.max_duty_percent <= 100.0
    }
}

/// One timed environmental effect of an experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum Overlay {
    /// Periodic wideband interference bursts.
    Noise(NoiseBurst),
    /// Scheduled waypoint hops rewriting node positions.
    Mobility(StepMobility),
    /// Radio-on budgets that throttle application traffic.
    DutyCycle(DutyCycleBudget),
}

impl Overlay {
    /// True if the overlay's parameters are valid for its kind on a
    /// network of `nodes` nodes ([`NoiseBurst::is_valid`],
    /// [`StepMobility::is_valid`], [`DutyCycleBudget::is_valid`]), and
    /// each of its durations still fits a `u64` µs clock when added to
    /// `end_us`, the run's end in µs. Every instant the driver derives is
    /// an instant no later than the end plus one such duration.
    pub(crate) fn is_valid(&self, nodes: usize, end_us: u64) -> bool {
        let fits = |d: SimDuration| end_us.checked_add(d.as_micros()).is_some();
        match self {
            Overlay::Noise(o) => o.is_valid() && fits(o.quiet) && fits(o.burst),
            Overlay::Mobility(o) => o.is_valid(nodes) && o.hops.iter().all(|h| fits(h.at)),
            Overlay::DutyCycle(o) => o.is_valid() && fits(o.window) && fits(o.check),
        }
    }
}

/// True if `overlays` can run together: at most one `Noise` and at
/// most one `DutyCycle` overlay (see the module docs — those kinds hold
/// save/restore state that does not stack).
pub(crate) fn stacks(overlays: &[Overlay]) -> bool {
    let count = |f: fn(&Overlay) -> bool| overlays.iter().filter(|o| f(o)).count();
    count(|o| matches!(o, Overlay::Noise(_))) <= 1
        && count(|o| matches!(o, Overlay::DutyCycle(_))) <= 1
}

/// Runtime state of one overlay while the driver runs.
enum State<'a> {
    Noise {
        o: &'a NoiseBurst,
        /// Next toggle instant.
        next: SimTime,
        /// Whether the noise is currently applied.
        on: bool,
        /// The degraded links, captured at burst start.
        links: Vec<(NodeId, NodeId)>,
        /// Pre-burst *overrides* (not effective PRRs) per link, so
        /// restoration re-installs exactly what fault injection had put
        /// there — or removes our override entirely, keeping the
        /// topology's override map empty between bursts (its emptiness
        /// is the reception hot path's fast-path condition).
        saved: Vec<Option<f64>>,
    },
    Mobility {
        o: &'a StepMobility,
        /// Measurement-window start the hop offsets are relative to.
        start: SimTime,
        /// Index of the next unfired hop.
        idx: usize,
    },
    Duty {
        o: &'a DutyCycleBudget,
        /// Start of the current accounting window (exact chain — no
        /// slot-rounding drift across windows).
        window_start: SimTime,
        /// Next consumption check (exact chain).
        next_check: SimTime,
        /// Per-node radio-on slots at `window_start`.
        baseline: Vec<u64>,
    },
}

/// Radio-on slots of node `i` since boot.
fn awake_slots(net: &Network, i: usize) -> u64 {
    let c = net.nodes()[i].mac.counters();
    c.tx_slots + c.rx_busy_slots + c.rx_idle_slots
}

/// All directed audible links of `net`'s topology, in id order.
fn audible_links(net: &Network) -> Vec<(NodeId, NodeId)> {
    let topo = net.topology();
    topo.node_ids()
        .flat_map(|a| {
            topo.audible_neighbors(a)
                .iter()
                .map(move |&b| (a, b))
                .collect::<Vec<_>>()
        })
        .collect()
}

impl<'a> State<'a> {
    /// The runtime state of `overlay` on `net`, over a window that ends
    /// at `end` (a slot boundary).
    fn new(overlay: &'a Overlay, net: &Network, end: SimTime) -> State<'a> {
        let start = net.now();
        assert!(
            overlay.is_valid(net.nodes().len(), end.as_micros()),
            "invalid overlay {overlay:?} on {} nodes ending at {end}: noise needs a prr_factor \
             in [0, 1] and a positive period, mobility hops ordered by time that each name a \
             node of the network, a duty budget positive periods and a budget in (0, 100]%, \
             and every duration must fit a u64 µs clock past the end",
            net.nodes().len()
        );
        match overlay {
            Overlay::Noise(o) => State::Noise {
                o,
                next: start + o.quiet,
                on: false,
                links: Vec::new(),
                saved: Vec::new(),
            },
            Overlay::Mobility(o) => State::Mobility { o, start, idx: 0 },
            Overlay::DutyCycle(o) => State::Duty {
                o,
                window_start: start,
                next_check: start + o.check,
                baseline: (0..net.nodes().len())
                    .map(|i| awake_slots(net, i))
                    .collect(),
            },
        }
    }

    /// When this overlay next wants to act (`None` = never again).
    fn next_time(&self) -> Option<SimTime> {
        match self {
            State::Noise { next, .. } => Some(*next),
            State::Mobility { o, start, idx } => o.hops.get(*idx).map(|h| *start + h.at),
            State::Duty {
                o,
                window_start,
                next_check,
                ..
            } => Some((*window_start + o.window).min(*next_check)),
        }
    }

    /// Applies every action due at or before `net.now()`.
    fn fire(&mut self, net: &mut Network) {
        let now = net.now();
        match self {
            State::Noise {
                o,
                next,
                on,
                links,
                saved,
            } => {
                if *on {
                    // Burst over: restore the exact pre-burst overrides.
                    for (&(a, b), &prev) in links.iter().zip(saved.iter()) {
                        match prev {
                            Some(prr) => net.set_link_prr(a, b, prr),
                            None => net.clear_link_prr(a, b),
                        }
                    }
                    *on = false;
                    *next = now + o.quiet;
                } else {
                    // Burst starts: degrade every currently-audible link
                    // (re-read so noise composes with mobility).
                    *links = audible_links(net);
                    saved.clear();
                    for &(a, b) in links.iter() {
                        saved.push(net.topology().link_prr_override(a, b));
                        let prr = net.topology().prr(a, b);
                        net.set_link_prr(a, b, prr * o.prr_factor);
                    }
                    *on = true;
                    *next = now + o.burst;
                }
            }
            State::Mobility { o, start, idx } => {
                while let Some(hop) = o.hops.get(*idx) {
                    if *start + hop.at > now {
                        break;
                    }
                    net.move_node(hop.node, hop.to);
                    *idx += 1;
                }
            }
            State::Duty {
                o,
                window_start,
                next_check,
                baseline,
            } => {
                if now >= *window_start + o.window {
                    // Window rollover: fresh budget for everyone. The
                    // boundary chain stays exact (+= window, not = now)
                    // so slot rounding never drifts the cadence.
                    *window_start += o.window;
                    *next_check = *window_start + o.check;
                    for (i, base) in baseline.iter_mut().enumerate() {
                        *base = awake_slots(net, i);
                        net.set_app_throttled(NodeId::from_index(i), false);
                    }
                } else {
                    let slot_us = SLOT_DURATION.as_micros();
                    let budget_us = o.window.as_micros() as f64 * o.max_duty_percent / 100.0;
                    for (i, &base) in baseline.iter().enumerate() {
                        let node = &net.nodes()[i];
                        if !node.is_alive() || node.rpl.is_root() || node.is_app_throttled() {
                            continue;
                        }
                        let consumed = (awake_slots(net, i) - base) * slot_us;
                        if consumed as f64 >= budget_us {
                            net.set_app_throttled(NodeId::from_index(i), true);
                        }
                    }
                    *next_check += o.check;
                }
            }
        }
    }

    /// End-of-window cleanup: leave the network free of overlay state.
    fn finish(&mut self, net: &mut Network) {
        match self {
            State::Noise {
                on, links, saved, ..
            } => {
                if *on {
                    for (&(a, b), &prev) in links.iter().zip(saved.iter()) {
                        match prev {
                            Some(prr) => net.set_link_prr(a, b, prr),
                            None => net.clear_link_prr(a, b),
                        }
                    }
                    *on = false;
                }
            }
            State::Mobility { .. } => {} // positions persist by design
            State::Duty { .. } => {
                for i in 0..net.nodes().len() {
                    net.set_app_throttled(NodeId::from_index(i), false);
                }
            }
        }
    }
}

/// Drives `net` for `window`, interleaving the overlays' scheduled
/// events with the simulation. With no overlays this is exactly
/// [`Network::run_for`].
///
/// # Panics
///
/// Panics unless [`Overlay::is_valid`] accepts every overlay on `net`'s
/// nodes and the window's end, and [`stacks`] accepts their combination.
pub(crate) fn drive(net: &mut Network, overlays: &[Overlay], window: SimDuration) {
    if overlays.is_empty() {
        net.run_for(window);
        return;
    }
    assert!(
        stacks(overlays),
        "at most one Noise and one DutyCycle overlay per experiment (wideband bursts and \
         throttle windows do not stack)"
    );
    let end = net.now() + window;
    let last = Asn::at_or_after(end).start_time();
    let mut states: Vec<State> = overlays.iter().map(|o| State::new(o, net, last)).collect();
    loop {
        let next = states.iter().filter_map(State::next_time).min();
        match next {
            Some(t) if t < end => {
                net.run_until(t);
                // Fire everything now due, in declaration order
                // (deterministic tie-break), repeating until quiescent:
                // slot rounding can overshoot past a later deadline, and
                // a fired event may schedule its successor at `now`
                // (zero-quiet noise flips straight back on).
                loop {
                    let now = net.now();
                    let mut fired = false;
                    for s in &mut states {
                        if s.next_time().is_some_and(|t| t <= now) {
                            s.fire(net);
                            fired = true;
                        }
                    }
                    if !fired {
                        break;
                    }
                }
            }
            _ => break,
        }
    }
    net.run_until(end);
    for s in &mut states {
        s.finish(net);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Experiment, RunSpec, ScenarioSpec, SchedulerKind};

    fn star_experiment(overlays: Vec<Overlay>) -> Experiment {
        Experiment {
            scenario: ScenarioSpec::star(6),
            scheduler: SchedulerKind::minimal(8),
            run: RunSpec {
                traffic_ppm: 30.0,
                warmup_secs: 30,
                measure_secs: 60,
                seed: 9,
                ..RunSpec::default()
            },
            overlays,
        }
    }

    #[test]
    fn noise_bursts_degrade_pdr_and_restore_links() {
        let clean = star_experiment(vec![]).run();
        let noisy = star_experiment(vec![Overlay::Noise(NoiseBurst {
            quiet: SimDuration::from_secs(3),
            burst: SimDuration::from_secs(3),
            prr_factor: 0.0, // total wideband blackout half the time
        })])
        .run();
        assert!(
            noisy.row.pdr_percent < clean.row.pdr_percent,
            "blackout windows must cost deliveries: {:.1}% !< {:.1}%",
            noisy.row.pdr_percent,
            clean.row.pdr_percent
        );
        // Restoration is exact: a second clean run after the machinery
        // existed must equal the first (determinism not perturbed).
        let clean2 = star_experiment(vec![]).run();
        assert_eq!(clean, clean2, "noise machinery must not leak state");
    }

    #[test]
    fn mobility_hops_relocate_nodes_at_their_times() {
        let moved = Position::new(400.0, 0.0);
        let exp = star_experiment(vec![Overlay::Mobility(
            StepMobility::new()
                .hop(SimDuration::from_secs(10), NodeId::new(3), moved)
                .hop(
                    SimDuration::from_secs(40),
                    NodeId::new(4),
                    Position::new(10.0, 0.0),
                ),
        )]);
        let mut net = exp.build_network();
        let report = exp.run_on(&mut net);
        assert_eq!(net.topology().position(NodeId::new(3)), moved);
        assert_eq!(
            net.topology().position(NodeId::new(4)),
            Position::new(10.0, 0.0)
        );
        // A node parked 400 m out is unreachable: it must cost delivery
        // relative to the clean run.
        let clean = star_experiment(vec![]).run();
        assert!(
            report.delivered < clean.delivered,
            "an out-of-range node must stop delivering: {} !< {}",
            report.delivered,
            clean.delivered
        );
    }

    #[test]
    fn duty_budget_throttles_traffic() {
        // The minimal schedule listens on the shared cell every 8th
        // slot, so a 1% duty budget is exhausted almost immediately.
        let tight = star_experiment(vec![Overlay::DutyCycle(DutyCycleBudget {
            window: SimDuration::from_secs(30),
            check: SimDuration::from_secs(2),
            max_duty_percent: 1.0,
        })]);
        let clean = star_experiment(vec![]).run();
        let mut net = tight.build_network();
        let throttled = tight.run_on(&mut net);
        assert!(
            throttled.generated < clean.generated / 2,
            "a 1% budget must suppress most traffic: {} !< {}",
            throttled.generated,
            clean.generated / 2
        );
        // The driver leaves no throttle behind after the window.
        assert!(net.nodes().iter().all(|n| !n.is_app_throttled()));
    }

    #[test]
    fn generous_duty_budget_changes_nothing() {
        let clean = star_experiment(vec![]).run();
        let budgeted = star_experiment(vec![Overlay::DutyCycle(DutyCycleBudget {
            window: SimDuration::from_secs(10),
            check: SimDuration::from_secs(1),
            max_duty_percent: 100.0,
        })])
        .run();
        assert_eq!(
            clean, budgeted,
            "an unexhaustible budget must be a no-op overlay"
        );
    }

    #[test]
    fn wifi_like_noise_is_sane() {
        let n = NoiseBurst::wifi_like();
        assert!(n.prr_factor > 0.0 && n.prr_factor < 1.0);
        assert!(!n.quiet.is_zero() && !n.burst.is_zero());
    }

    #[test]
    #[should_panic(expected = "prr_factor")]
    fn out_of_range_noise_rejected() {
        let mut exp = star_experiment(vec![Overlay::Noise(NoiseBurst {
            quiet: SimDuration::from_secs(1),
            burst: SimDuration::from_secs(1),
            prr_factor: 1.5,
        })]);
        exp.run.warmup_secs = 0;
        exp.run.measure_secs = 1;
        let _ = exp.run();
    }

    #[test]
    #[should_panic(expected = "do not stack")]
    fn stacked_noise_overlays_rejected() {
        // Two overlapping noise timelines would corrupt each other's
        // PRR save/restore (one's restore clears the other's active
        // burst); the driver refuses the combination outright.
        let mut exp = star_experiment(vec![
            Overlay::Noise(NoiseBurst::wifi_like()),
            Overlay::Noise(NoiseBurst {
                quiet: SimDuration::from_secs(4),
                burst: SimDuration::from_secs(4),
                prr_factor: 0.5,
            }),
        ]);
        exp.run.warmup_secs = 0;
        exp.run.measure_secs = 1;
        let _ = exp.run();
    }

    #[test]
    #[should_panic(expected = "do not stack")]
    fn stacked_duty_budgets_rejected() {
        let budget = DutyCycleBudget {
            window: SimDuration::from_secs(10),
            check: SimDuration::from_secs(1),
            max_duty_percent: 50.0,
        };
        let mut exp = star_experiment(vec![Overlay::DutyCycle(budget), Overlay::DutyCycle(budget)]);
        exp.run.warmup_secs = 0;
        exp.run.measure_secs = 1;
        let _ = exp.run();
    }

    #[test]
    #[should_panic(expected = "ordered by time")]
    fn unsorted_mobility_rejected() {
        let mut exp = star_experiment(vec![Overlay::Mobility(
            StepMobility::new()
                .hop(SimDuration::from_secs(10), NodeId::new(1), Position::ORIGIN)
                .hop(SimDuration::from_secs(5), NodeId::new(2), Position::ORIGIN),
        )]);
        exp.run.warmup_secs = 0;
        exp.run.measure_secs = 1;
        let _ = exp.run();
    }

    #[test]
    #[should_panic(expected = "name a node of the network")]
    fn mobility_hop_outside_the_network_rejected() {
        // Node 9 does not exist on the 7-node star: the driver names the
        // fault instead of indexing past the topology when the hop fires.
        let mut exp = star_experiment(vec![Overlay::Mobility(StepMobility::new().hop(
            SimDuration::from_secs(1),
            NodeId::new(9),
            Position::ORIGIN,
        ))]);
        exp.run.warmup_secs = 0;
        exp.run.measure_secs = 1;
        let _ = exp.run();
    }

    #[test]
    #[should_panic(expected = "must fit a u64 µs clock past the end")]
    fn duration_overflowing_the_clock_rejected() {
        // Without the bound, the first burst's end would be computed as
        // `now + burst`, past `u64::MAX` µs.
        let mut exp = star_experiment(vec![Overlay::Noise(NoiseBurst {
            quiet: SimDuration::ZERO,
            burst: SimDuration::from_micros(u64::MAX - 1),
            prr_factor: 0.5,
        })]);
        exp.run.warmup_secs = 0;
        exp.run.measure_secs = 1;
        let _ = exp.run();
    }
}
