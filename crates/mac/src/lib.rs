//! # gtt-mac — IEEE 802.15.4e TSCH medium access control
//!
//! A from-scratch model of the TSCH MAC mode used by the GT-TSCH paper:
//!
//! * [`Asn`] — the absolute slot number that synchronizes the network,
//!   in [`SLOT_DURATION`]-long slots,
//! * [`channel`] / [`ChannelOffset`] — TSCH channel hopping
//!   (`channel = sequence[(ASN + offset) % len]`, §6.2.6.3 of the
//!   standard) over the paper's Table II [`HOPPING_SEQUENCE`],
//! * [`Cell`] / [`Slotframe`] / [`Schedule`] — the Channel Distribution
//!   Usage matrix: cells addressed by (slot offset, channel offset) with
//!   TSCH link options (Tx/Rx/Shared) and a scheduler-facing class
//!   (Broadcast / SixP / Data / Shared — the paper's five timeslot types,
//!   with Sleep as the absence of a cell),
//! * [`TschMac`] — the per-node MAC state machine: slot planning, queueing,
//!   acknowledgements, retransmission (up to [`MAX_RETRIES`], Table II),
//!   exponential backoff in shared cells, duty-cycle accounting and a
//!   per-peer [`EtxEstimator`], the ETX metric of the paper's §VII-B.
//!
//! The paper fixes the MAC parameters in its Table II, and every run uses
//! exactly those values, so they are crate constants:
//! [`SLOT_DURATION`], [`MAX_RETRIES`], the queue capacities, the backoff
//! exponents, [`IDLE_LISTEN_FRACTION`], [`ETX_ALPHA`] and the hopping
//! sequence.
//!
//! The MAC is generic over payload type `P`: upper layers (the engine)
//! define what rides inside frames; the MAC never inspects payloads.
//!
//! # Example
//!
//! ```
//! use gtt_mac::{channel, Asn, ChannelOffset};
//!
//! // Same (slot, offset) maps to different physical channels over time —
//! // that is the "channel hopping" in Time-Slotted Channel Hopping.
//! let a = channel(Asn::new(0), ChannelOffset::new(0));
//! let b = channel(Asn::new(1), ChannelOffset::new(0));
//! assert_ne!(a, b);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod airtime;
pub mod asn;
pub mod backoff;
pub mod cell;
pub mod hopping;
pub mod mac;
pub mod slotframe;
pub mod stats;
pub mod traffic;

pub use asn::{Asn, SlotOffset, SLOT_DURATION};
pub use backoff::{SharedCellBackoff, MAX_BACKOFF_EXPONENT, MIN_BACKOFF_EXPONENT};
pub use cell::{Cell, CellClass, CellOptions};
pub use hopping::{channel, ChannelOffset, HOPPING_SEQUENCE};
pub use mac::{
    BusyListens, MacCounters, SlotAction, SlotResult, TschMac, CONTROL_QUEUE_CAPACITY,
    DATA_QUEUE_CAPACITY, IDLE_LISTEN_FRACTION, MAX_RETRIES,
};
pub use slotframe::{Schedule, Slotframe, SlotframeHandle};
pub use stats::{EtxEstimator, ETX_ALPHA};
pub use traffic::TrafficClass;
