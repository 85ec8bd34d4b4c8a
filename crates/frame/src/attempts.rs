//! A [`FrameTap`] that histograms transmission attempts per packet.
//!
//! The MAC retransmits an unacknowledged unicast frame in later slots,
//! so one logical packet shows up on the tap once per attempt — same
//! transmitter, same origin-keyed packet id, different ASN. Counting
//! those (src, packet) pairs makes the paper's 4-retransmission cap
//! (Table II: at most `MAX_RETRIES + 1 = 5` transmissions per frame)
//! directly observable from outside the MAC; `tests/paper_claims.rs`
//! asserts it on a lossy single-hop network, where each pair maps to
//! exactly one MAC frame and the bound is exact.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use gtt_net::{FrameTap, TapRecord};

/// Shared attempt counts: `(transmitter raw id, packet id) → attempts`.
pub type AttemptCounts = Arc<Mutex<BTreeMap<(u16, u64), u32>>>;

/// Counts per-(transmitter, packet) attempts of *tracked unicast*
/// frames — application data with an ACK outcome. Untracked control
/// frames (packet id `u64::MAX`) and broadcasts are ignored.
#[derive(Debug)]
pub struct AttemptLog {
    counts: AttemptCounts,
}

impl AttemptLog {
    /// Creates the tap and the shared map the caller reads afterwards.
    pub fn new() -> (AttemptLog, AttemptCounts) {
        let counts: AttemptCounts = Arc::default();
        (
            AttemptLog {
                counts: counts.clone(),
            },
            counts,
        )
    }
}

impl FrameTap for AttemptLog {
    fn on_transmission(&mut self, record: &TapRecord<'_>) {
        if record.packet.raw() == u64::MAX || record.acked.is_none() {
            return;
        }
        let key = (record.src.raw(), record.packet.raw());
        *self
            .counts
            .lock()
            .expect("attempt counts poisoned")
            .entry(key)
            .or_insert(0) += 1;
    }
}
