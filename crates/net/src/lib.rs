//! # gtt-net — radio medium, topology and link-quality substrate
//!
//! This crate models everything "below" the TSCH MAC for the GT-TSCH
//! reproduction: where nodes are, which links exist and how good they are,
//! and what every listening radio hears when a set of nodes transmit in the
//! same timeslot.
//!
//! The paper evaluates GT-TSCH in the Cooja emulator; this crate is the
//! substituted substrate. It reproduces the phenomena the evaluation
//! depends on:
//!
//! * **co-channel collisions** — two audible transmissions on one physical
//!   channel destroy each other at the listener (no capture effect, like
//!   Cooja's UDGM in its default configuration),
//! * **hidden terminals** — audibility is evaluated per listener, so two
//!   senders out of range of each other still collide at a node that hears
//!   both (§III problem 4 of the paper),
//! * **lossy links** — a clean (single-transmitter) reception still fails
//!   with probability `1 − PRR(link)`, driving the ETX metric of §VII-B.
//!
//! # Example
//!
//! ```
//! use gtt_net::{NodeId, Position, Topology, TopologyBuilder};
//!
//! let topo: Topology = TopologyBuilder::new(50.0)
//!     .node(Position::new(0.0, 0.0))
//!     .node(Position::new(30.0, 0.0))
//!     .node(Position::new(90.0, 0.0))
//!     .build();
//! let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
//! assert!(topo.in_range(a, b));
//! assert!(!topo.in_range(a, c)); // 90 m > 50 m range
//! assert!(topo.prr(a, b) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod frame;
pub mod geometry;
pub mod id;
pub mod medium;
pub mod queue;
mod spatial;
pub mod tap;
pub mod topology;

pub use channel::PhysicalChannel;
pub use frame::{Dest, Frame, PacketId};
pub use geometry::Position;
pub use id::{NodeId, PeerMap, MAX_NODES};
pub use medium::{DrawStreams, Listener, RadioMedium, RxOutcome, SlotOutcomes, Transmission};
pub use queue::{PacketQueue, QueueStats};
pub use tap::{FrameTap, TapRecord};
pub use topology::{LinkModel, Topology, TopologyBuilder};
