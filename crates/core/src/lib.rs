//! # gt-tsch — the game-theoretic distributed TSCH scheduler
//!
//! This crate is the paper's primary contribution, reproduced in full:
//!
//! * [`game`] — the non-cooperative cell-allocation game of §VII:
//!   logarithmic utility weighted by DAG position (eq. 2–3), link-quality
//!   cost over ETX (eq. 4–5), queue cost over an EWMA queue metric
//!   (eq. 6–7), the combined payoff (eq. 8) and the closed-form
//!   KKT/Nash-optimal number of Tx cells (eq. 15). The existence and
//!   uniqueness arguments (Theorems 1–2) are checked numerically in the
//!   test suite.
//! * [`channel`] — Algorithm 1: the collision-free channel-allocation
//!   scheme that keeps each channel unique along three-hop paths
//!   (§III problems 1–4).
//! * [`layout`] — §IV slotframe construction (broadcast/6P/shared/sleep
//!   timeslots) and the §V Unicast-Data placement rules (Tx > Rx, one Tx
//!   between consecutive Rx, fair child interleaving).
//! * [`sf`] — [`GtTschSf`], the scheduling function gluing it all to the
//!   engine: EB channel piggybacking, 6P `ASK-CHANNEL`, ADD/DELETE cell
//!   negotiation and the §VI load balancer.
//!
//! # Example
//!
//! Computing the paper's optimal cell count (eq. 15) directly:
//!
//! ```
//! use gt_tsch::game::{GameInputs, GameWeights};
//!
//! let weights = GameWeights::default(); // α=1, β=0.5, γ=1
//! let inputs = GameInputs {
//!     rank_weight: 1.0,      // first-hop node (eq. 3)
//!     etx: 1.2,              // decent link
//!     queue_avg: 2.0,        // light backlog
//!     queue_max: 8.0,
//!     l_tx_min: 1,           // eq. 1 deficit
//!     l_rx_parent: 6,        // parent's advertised capacity
//! };
//! let l = inputs.best_response(&weights);
//! assert!((1..=6).contains(&l.cells));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod config;
pub mod game;
pub mod layout;
pub mod queue_metric;
pub mod sf;

pub use channel::ChannelAllocator;
pub use config::{GtTschConfig, DELETE_SLACK, FBCAST, RX_ADVERTISE_CAP, SHARED_SLOTS, ZETA};
pub use game::{BestResponse, Bound, GameInputs, GameWeights};
pub use queue_metric::QueueEwma;
pub use sf::GtTschSf;
