//! Link-layer frames.

use std::fmt;

use gtt_sim::SimTime;

use crate::id::NodeId;

/// A unique identifier assigned to every packet at generation time.
///
/// The metrics layer keys end-to-end bookkeeping (delay, delivery,
/// duplicates) on packet ids, so ids stay stable while a packet is
/// forwarded hop by hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PacketId(u64);

impl PacketId {
    /// Creates a packet id from a raw counter value.
    pub const fn new(raw: u64) -> Self {
        PacketId(raw)
    }

    /// The raw counter value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Link-layer destination of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dest {
    /// A single neighbor; the receiver acknowledges in the same slot.
    Unicast(NodeId),
    /// All audible neighbors; never acknowledged.
    Broadcast,
}

impl Dest {
    /// The unicast target, if any.
    pub fn unicast(self) -> Option<NodeId> {
        match self {
            Dest::Unicast(n) => Some(n),
            Dest::Broadcast => None,
        }
    }

    /// True for [`Dest::Broadcast`].
    pub fn is_broadcast(self) -> bool {
        matches!(self, Dest::Broadcast)
    }
}

impl fmt::Display for Dest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dest::Unicast(n) => write!(f, "{n}"),
            Dest::Broadcast => f.write_str("bcast"),
        }
    }
}

/// A link-layer frame carrying an opaque payload `P`.
///
/// The payload type is chosen by the layer that owns the queue: the engine
/// instantiates `Frame<Payload>` where `Payload` is its enum over
/// application data, RPL and 6P messages. Keeping `gtt-net` generic means
/// the substrate has no dependency on any protocol crate.
///
/// # Example
///
/// ```
/// use gtt_net::{Dest, Frame, NodeId, PacketId};
/// use gtt_sim::SimTime;
///
/// let frame = Frame::new(
///     PacketId::new(1),
///     NodeId::new(2),
///     Dest::Unicast(NodeId::new(1)),
///     SimTime::ZERO,
///     "app-data",
/// );
/// assert_eq!(frame.hops, 0);
/// let fwd = frame.forwarded(NodeId::new(1), Dest::Unicast(NodeId::new(0)));
/// assert_eq!(fwd.hops, 1);
/// assert_eq!(fwd.origin, NodeId::new(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<P> {
    /// End-to-end packet identity (stable across hops).
    pub id: PacketId,
    /// Node that generated the packet.
    pub origin: NodeId,
    /// Link-layer sender of this hop.
    pub src: NodeId,
    /// Link-layer destination of this hop.
    pub dst: Dest,
    /// When the packet was generated (for end-to-end delay).
    pub generated_at: SimTime,
    /// Number of link-layer hops completed so far.
    pub hops: u8,
    /// Opaque payload.
    pub payload: P,
}

impl<P> Frame<P> {
    /// Creates a freshly generated frame (hop count 0, `src == origin`).
    pub fn new(id: PacketId, origin: NodeId, dst: Dest, generated_at: SimTime, payload: P) -> Self {
        Frame {
            id,
            origin,
            src: origin,
            dst,
            generated_at,
            hops: 0,
            payload,
        }
    }

    /// Returns a copy re-addressed for the next hop, with the hop counter
    /// incremented (saturating).
    pub fn forwarded(&self, new_src: NodeId, new_dst: Dest) -> Self
    where
        P: Clone,
    {
        Frame {
            id: self.id,
            origin: self.origin,
            src: new_src,
            dst: new_dst,
            generated_at: self.generated_at,
            hops: self.hops.saturating_add(1),
            payload: self.payload.clone(),
        }
    }

    /// Maps the payload, preserving all addressing metadata.
    pub fn map<Q>(self, f: impl FnOnce(P) -> Q) -> Frame<Q> {
        Frame {
            id: self.id,
            origin: self.origin,
            src: self.src,
            dst: self.dst,
            generated_at: self.generated_at,
            hops: self.hops,
            payload: f(self.payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Frame<&'static str> {
        Frame::new(
            PacketId::new(9),
            NodeId::new(4),
            Dest::Unicast(NodeId::new(2)),
            SimTime::from_millis(30),
            "hello",
        )
    }

    #[test]
    fn new_frame_has_zero_hops_and_src_origin() {
        let f = frame();
        assert_eq!(f.hops, 0);
        assert_eq!(f.src, f.origin);
    }

    #[test]
    fn forwarding_increments_hops_and_keeps_identity() {
        let f = frame();
        let g = f.forwarded(NodeId::new(2), Dest::Unicast(NodeId::new(0)));
        assert_eq!(g.id, f.id);
        assert_eq!(g.origin, f.origin);
        assert_eq!(g.generated_at, f.generated_at);
        assert_eq!(g.hops, 1);
        assert_eq!(g.src, NodeId::new(2));
    }

    #[test]
    fn hop_count_saturates() {
        let mut f = frame();
        f.hops = u8::MAX;
        let g = f.forwarded(NodeId::new(1), Dest::Broadcast);
        assert_eq!(g.hops, u8::MAX);
    }

    #[test]
    fn map_preserves_metadata() {
        let f = frame().map(|s| s.len());
        assert_eq!(f.payload, 5);
        assert_eq!(f.id, PacketId::new(9));
    }

    #[test]
    fn dest_helpers() {
        assert_eq!(
            Dest::Unicast(NodeId::new(3)).unicast(),
            Some(NodeId::new(3))
        );
        assert_eq!(Dest::Broadcast.unicast(), None);
        assert!(Dest::Broadcast.is_broadcast());
        assert_eq!(Dest::Broadcast.to_string(), "bcast");
        assert_eq!(Dest::Unicast(NodeId::new(3)).to_string(), "n3");
    }
}
