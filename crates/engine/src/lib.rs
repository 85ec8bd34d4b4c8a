//! # gtt-engine — node runtime and slot-synchronous network engine
//!
//! This crate composes the substrates ([`gtt_mac`], [`gtt_rpl`],
//! [`gtt_sixtop`], [`gtt_net`]) into runnable nodes and networks. It is
//! the moral equivalent of Contiki-NG + Cooja in the paper's evaluation:
//! each [`Node`] bundles a TSCH MAC, an RPL instance, a 6P layer, an
//! application traffic source and a pluggable [`SchedulingFunction`]; a
//! [`Network`] steps all nodes through timeslots, resolves the radio
//! medium, dispatches received frames up the stack and collects the
//! paper's six metrics into a [`NetworkReport`].
//!
//! The [`SchedulingFunction`] trait is the seam the paper's contribution
//! plugs into: `gt-tsch` (the game-theoretic scheduler) and
//! `gtt-orchestra` (the baseline) both implement it.
//!
//! # Example
//!
//! A two-node network with a trivial always-shared schedule:
//!
//! ```
//! use gtt_engine::{EngineConfig, MinimalSchedule, Network};
//! use gtt_net::{LinkModel, Position, TopologyBuilder};
//!
//! let topo = TopologyBuilder::new(50.0)
//!     .link_model(LinkModel::Perfect)
//!     .node(Position::new(0.0, 0.0))
//!     .node(Position::new(20.0, 0.0))
//!     .build();
//! let mut net = Network::builder(topo, EngineConfig::default())
//!     .root(gtt_net::NodeId::new(0))
//!     .scheduler_factory(|_, _| Box::new(MinimalSchedule::new(8)))
//!     .build();
//! net.run_for(gtt_sim::SimDuration::from_secs(30));
//! assert!(net.node(gtt_net::NodeId::new(1)).rpl.is_joined());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod minimal;
pub mod network;
pub mod node;
pub mod payload;
pub mod report;
pub mod scheduler;
mod wire;

pub use config::EngineConfig;
pub use minimal::MinimalSchedule;
pub use network::{Network, NetworkBuilder};
pub use node::{AppTraffic, Node};
pub use payload::{EbInfo, Payload};
pub use report::{NetworkReport, NodeSummary};
pub use scheduler::{OutgoingControl, SchedulingFunction, SfContext};
