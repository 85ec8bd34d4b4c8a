//! The 6TiSCH *minimal configuration* scheduling function (RFC 8180).
//!
//! One slotframe, one shared broadcast cell at slot 0 for all control
//! traffic, and every remaining slot a contention-based shared cell for
//! everything else. This is the bootstrap schedule 6TiSCH networks run
//! before a real SF takes over; here it serves three purposes:
//!
//! * a third comparison point in the benches (the paper's related work
//!   §II discusses minimal-configuration latency problems found by
//!   Vallati et al.),
//! * the engine's built-in test scheduler,
//! * a template showing how little an SF must implement.

use gtt_mac::{
    Cell, CellClass, CellOptions, ChannelOffset, SlotOffset, Slotframe, SlotframeHandle,
};
use gtt_net::Dest;

use crate::scheduler::{SchedulingFunction, SfContext};

/// Minimal-configuration SF: slot 0 broadcast + shared data cells.
#[derive(Debug, Clone)]
pub struct MinimalSchedule {
    slotframe_len: u16,
}

impl MinimalSchedule {
    /// The shortest slotframe: slot 0 is the broadcast cell, and at
    /// least one shared data slot is needed.
    pub const MIN_SLOTFRAME_LEN: u16 = 2;

    /// Creates the SF with the given slotframe length.
    ///
    /// # Panics
    ///
    /// Panics if `slotframe_len` is below
    /// [`MinimalSchedule::MIN_SLOTFRAME_LEN`].
    pub fn new(slotframe_len: u16) -> Self {
        assert!(
            slotframe_len >= Self::MIN_SLOTFRAME_LEN,
            "minimal schedule needs ≥ 2 slots"
        );
        MinimalSchedule { slotframe_len }
    }
}

impl SchedulingFunction for MinimalSchedule {
    fn name(&self) -> &'static str {
        "minimal"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn init(&mut self, ctx: &mut SfContext<'_>) {
        let mut sf = Slotframe::new(self.slotframe_len);
        sf.add(Cell::broadcast(SlotOffset::new(0), ChannelOffset::new(0)));
        for slot in 1..self.slotframe_len {
            sf.add(Cell::new(
                SlotOffset::new(slot),
                ChannelOffset::new(0),
                CellOptions::TX_RX_SHARED,
                Dest::Broadcast,
                CellClass::Shared,
            ));
        }
        ctx.mac
            .schedule_mut()
            .add_slotframe(SlotframeHandle::new(0), sf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "≥ 2 slots")]
    fn tiny_slotframe_rejected() {
        let _ = MinimalSchedule::new(1);
    }

    #[test]
    fn name_is_minimal() {
        assert_eq!(MinimalSchedule::new(4).name(), "minimal");
    }
}
