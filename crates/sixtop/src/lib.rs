//! # gtt-sixtop — the 6top (6P) protocol sublayer
//!
//! The IETF 6TiSCH stack updates TSCH schedules through pairwise 6P
//! transactions (RFC 8480). GT-TSCH is a *scheduling function* (SF) riding
//! on 6P: it issues `ADD`/`DELETE` requests to (de)allocate unicast data
//! cells and introduces a new command, **`ASK-CHANNEL` (code 0x0A)**, with
//! which a node asks its parent which channel it may use towards its own
//! children (paper §III, Fig. 4).
//!
//! This crate provides:
//!
//! * [`SixpMessage`] and its [`SixpBody`] — typed 6P messages with a
//!   binary wire format ([`SixpMessage::encode`] / [`SixpMessage::decode`])
//!   mirroring the RFC 8480 header layout,
//! * [`SixtopLayer`] — the per-node transaction engine: one outstanding
//!   transaction per neighbor, per-neighbor sequence numbers, timeout and
//!   retry handling (every run uses one [`SIXP_TIMEOUT`] and
//!   [`SIXP_MAX_RETRIES`], so they are crate constants),
//! * [`CellSpec`] — (slot offset, channel offset) pairs carried in
//!   ADD/DELETE cell lists.
//!
//! # Example
//!
//! ```
//! use gtt_net::NodeId;
//! use gtt_sixtop::{CellSpec, SixpBody, SixpMessage, SixtopLayer};
//! use gtt_sim::SimTime;
//!
//! let mut child = SixtopLayer::new(NodeId::new(2));
//! let msg = child
//!     .start_request(
//!         NodeId::new(1),
//!         SixpBody::AddRequest {
//!             kind: gtt_sixtop::SixpCellKind::Data,
//!             num_cells: 2,
//!             cells: vec![CellSpec::new(4, 1), CellSpec::new(9, 1)],
//!         },
//!         SimTime::ZERO,
//!     )
//!     .expect("no transaction in flight yet");
//! let bytes = msg.encode();
//! assert_eq!(SixpMessage::decode(&bytes).unwrap(), msg);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layer;
pub mod messages;

pub use layer::{SixtopEvent, SixtopLayer, SIXP_MAX_RETRIES, SIXP_TIMEOUT};
pub use messages::{
    CellSpec, ReturnCode, SixpBody, SixpCellKind, SixpDecodeError, SixpMessage, SIXP_SFID_GT_TSCH,
};
