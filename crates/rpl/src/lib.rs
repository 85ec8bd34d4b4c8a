//! # gtt-rpl — RPL-lite routing for the GT-TSCH reproduction
//!
//! A compact implementation of the parts of RPL (RFC 6550) that the
//! GT-TSCH paper's stack exercises:
//!
//! * [`Rank`] — the logical distance to the DODAG root, computed with the
//!   **MRHOF** objective function over **ETX** (RFC 6719), exactly the
//!   `MRHOF` row of the paper's Table II. The game model's utility (eq. 3)
//!   consumes `Rank_i`, `Rank_min` and `MinStepOfRank` from here.
//! * [`TrickleTimer`] — RFC 6206 DIO pacing.
//! * [`Dio`] / [`Dao`] — control messages. `Dio` carries the paper's new
//!   option field advertising the parent's free Rx capacity (`l_rx`),
//!   which bounds each child's strategy set in the game (§VII).
//! * [`RplNode`] — the per-node routing state machine: neighbor table,
//!   hysteretic parent selection, children tracking via DAOs.
//!
//! Every run uses one set of RPL parameters, so they are crate constants:
//! the Trickle timing ([`TRICKLE_IMIN`], [`TRICKLE_DOUBLINGS`],
//! [`TRICKLE_K`]), the MRHOF hysteresis ([`PARENT_SWITCH_THRESHOLD`]),
//! the neighbor and child timeouts and the DAO refresh period.
//!
//! The crate is transport-agnostic: it never touches the radio. The engine
//! feeds it received messages and polls it for outgoing ones
//! ([`RplAction`]).
//!
//! # Example
//!
//! ```
//! use gtt_net::NodeId;
//! use gtt_rpl::{Rank, RplNode};
//! use gtt_sim::SimTime;
//!
//! let root = RplNode::new_root(NodeId::new(0), SimTime::ZERO);
//! assert_eq!(root.rank(), Rank::ROOT);
//! let node = RplNode::new(NodeId::new(1));
//! assert!(node.parent().is_none()); // joins once it hears a DIO
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod messages;
pub mod node;
pub mod rank;
pub mod trickle;

pub use messages::{Dao, Dio};
pub use node::{
    RplAction, RplNode, CHILD_TIMEOUT, DAO_PERIOD, NEIGHBOR_TIMEOUT, PARENT_SWITCH_THRESHOLD,
    TRICKLE_DOUBLINGS, TRICKLE_IMIN, TRICKLE_K,
};
pub use rank::{Rank, MIN_HOP_RANK_INCREASE};
pub use trickle::TrickleTimer;
