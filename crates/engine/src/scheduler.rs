//! The scheduling-function seam.
//!
//! RFC 8480 leaves the *policy* of cell allocation to a Scheduling
//! Function. [`SchedulingFunction`] is that seam in this reproduction:
//! the engine owns the mechanism (timers, queues, the radio) and calls the
//! SF at well-defined points; the SF manipulates the node's schedule
//! through [`SfContext`] and requests message transmissions by pushing
//! [`OutgoingControl`] entries.

use gtt_mac::TschMac;
use gtt_net::{Dest, NodeId};
use gtt_rpl::RplNode;
use gtt_sim::{Pcg32, SimTime};
use gtt_sixtop::{SixtopEvent, SixtopLayer};

use crate::payload::{EbInfo, Payload};

/// A control message the scheduling function wants transmitted.
#[derive(Debug, Clone)]
pub struct OutgoingControl {
    /// Link-layer destination.
    pub to: Dest,
    /// Payload (typically [`Payload::SixP`]).
    pub payload: Payload,
}

/// Everything a scheduling function may touch while handling a hook.
///
/// The fields are disjoint borrows of the owning [`Node`](crate::Node),
/// so an SF can e.g. add cells to `mac` while reading `rpl` in the same
/// hook.
pub struct SfContext<'a> {
    /// The node's MAC: schedule, queues, link statistics.
    pub mac: &'a mut TschMac<Payload>,
    /// The node's routing state (read-only: routing belongs to RPL).
    pub rpl: &'a RplNode,
    /// The node's 6P layer, for starting transactions and building
    /// responses.
    pub sixtop: &'a mut SixtopLayer,
    /// Node-local randomness.
    pub rng: &'a mut Pcg32,
    /// Current simulation time.
    pub now: SimTime,
    /// The node's application packet generation rate (packets/minute);
    /// 0.0 for roots and silent nodes. Feeds the paper's `l_g` term.
    pub app_rate_ppm: f64,
    /// Messages to transmit after the hook returns.
    pub out: &'a mut Vec<OutgoingControl>,
}

impl SfContext<'_> {
    /// Convenience: queue a 6P message to `peer`.
    pub fn send_sixp(&mut self, peer: NodeId, msg: gtt_sixtop::SixpMessage) {
        self.out.push(OutgoingControl {
            to: Dest::Unicast(peer),
            payload: Payload::SixP(msg),
        });
    }
}

/// A TSCH scheduling function (6TiSCH SF).
///
/// Implemented by `gt-tsch` (the paper's contribution) and
/// `gtt-orchestra` (the autonomous baseline). All hooks except
/// [`SchedulingFunction::init`] have no-op defaults, because autonomous
/// schedulers like Orchestra need only react to parent changes.
///
/// `Send` is a supertrait so a [`Network`](crate::Network), which owns
/// one boxed scheduler per node, is itself `Send` and can be built on one
/// thread and run on another. Schedulers are plain owned state machines,
/// so this costs implementations nothing.
pub trait SchedulingFunction: Send {
    /// Short name used in reports ("gt-tsch", "orchestra", …).
    fn name(&self) -> &'static str;

    /// Downcast hook so tests and diagnostics can reach
    /// scheduler-specific state (e.g. GT-TSCH's channel assignments).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Called once at node start-up; installs the initial slotframes
    /// (broadcast/minimal cells so control traffic can flow).
    fn init(&mut self, ctx: &mut SfContext<'_>);

    /// Called every [`EngineConfig::sf_period`](crate::EngineConfig):
    /// GT-TSCH runs its load-balancing / game update here (§VI–VII).
    fn periodic(&mut self, ctx: &mut SfContext<'_>) {
        let _ = ctx;
    }

    /// The RPL parent changed (also fired on first join).
    fn on_parent_changed(&mut self, ctx: &mut SfContext<'_>, old: Option<NodeId>, new: NodeId) {
        let _ = (ctx, old, new);
    }

    /// An EB from `src` was received.
    fn on_eb(&mut self, ctx: &mut SfContext<'_>, src: NodeId, eb: &EbInfo) {
        let _ = (ctx, src, eb);
    }

    /// A DAO from `child` was processed by RPL (children set may have
    /// changed).
    fn on_dao(&mut self, ctx: &mut SfContext<'_>, child: NodeId, no_path: bool) {
        let _ = (ctx, child, no_path);
    }

    /// A 6P event fired: an incoming request to answer, or the completion
    /// or failure of a transaction this node initiated.
    fn on_sixtop_event(&mut self, ctx: &mut SfContext<'_>, event: &SixtopEvent) {
        let _ = (ctx, event);
    }

    /// The `l_rx` value to advertise in outgoing DIOs (paper §VII): the
    /// number of additional Rx cells this node could still grant its
    /// children. Orchestra returns 0 (it has no such concept).
    fn dio_rx_free(&self, mac: &TschMac<Payload>, rpl: &RplNode) -> u16 {
        let _ = (mac, rpl);
        0
    }

    /// The EB content to advertise (GT-TSCH piggybacks its children-to-me
    /// channel here).
    fn eb_info(&self, mac: &TschMac<Payload>, rpl: &RplNode) -> EbInfo {
        let _ = (mac, rpl);
        EbInfo::default()
    }

    /// One-line internal-state summary for diagnostics (shown by the
    /// harness's verbose mode; empty by default).
    fn debug_summary(&self) -> String {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default hooks are callable no-ops (smoke check that the trait
    /// stays object-safe and default-implemented).
    struct Noop;

    impl SchedulingFunction for Noop {
        fn name(&self) -> &'static str {
            "noop"
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn init(&mut self, _ctx: &mut SfContext<'_>) {}
    }

    #[test]
    fn trait_is_object_safe() {
        let sf: Box<dyn SchedulingFunction> = Box::new(Noop);
        assert_eq!(sf.name(), "noop");
    }
}
