//! Standard-derived airtime and frame-size constants (IEEE 802.15.4
//! O-QPSK PHY at 2.4 GHz, §12, and the TSCH timeslot template of
//! §6.5.4.2 / Table 8-96).
//!
//! The MAC model itself works in whole slots — it never needed byte
//! counts — but the wire codec (`gtt-frame`) makes frame sizes real,
//! and these constants pin the slot template against them: every
//! encodable MPDU must fit `aMaxPhyPacketSize`, its airtime must fit
//! `macTsMaxTx`, and the whole Tx + ACK exchange must fit the
//! simulator's 15 ms slot ([`SLOT_DURATION`] — deliberately
//! longer than the standard's default 10 ms template, which is why EBs
//! advertise a non-default timeslot template ID; see
//! `gtt_frame::GTT_TIMESLOT_TEMPLATE`). The cross-crate validation
//! test lives in `crates/frame/tests/airtime.rs`, next to the encoder
//! whose lengths it checks; adding these constants changes no report
//! bytes.
//!
//! [`SLOT_DURATION`]: crate::SLOT_DURATION

/// Microseconds to put one byte on the air: 250 kbit/s O-QPSK
/// (2.4 GHz PHY) = 62.5 ksymbol/s, 2 symbols per byte, 16 µs/symbol.
pub const US_PER_BYTE: u32 = 32;

/// PHY overhead preceding the MPDU: 4 preamble + 1 SFD + 1 PHR bytes
/// (the synchronization header and length field of §12.1).
pub const PHY_OVERHEAD_BYTES: u32 = 6;

/// `aMaxPhyPacketSize`: the largest MPDU the PHY carries.
pub const MAX_MPDU_BYTES: u32 = 127;

/// The immediate ACK MPDU: 2 FCF + 1 sequence number + 2 FCS.
pub const ACK_MPDU_BYTES: u32 = 5;

/// Airtime of an `mpdu_bytes`-byte frame, PHY header included.
pub const fn airtime_us(mpdu_bytes: u32) -> u32 {
    (PHY_OVERHEAD_BYTES + mpdu_bytes) * US_PER_BYTE
}

/// `macTsTxOffset` of the default template: transmission starts
/// 2120 µs into the slot (the receiver's guard time straddles it).
pub const TS_TX_OFFSET_US: u32 = 2120;

/// `macTsMaxTx`: the airtime budget for the data frame — exactly the
/// airtime of a maximum-size MPDU, `(127 + 6) × 32 = 4256` µs.
pub const TS_MAX_TX_US: u32 = airtime_us(MAX_MPDU_BYTES);

/// `macTsTxAckDelay`: gap between end of frame and start of ACK.
pub const TS_TX_ACK_DELAY_US: u32 = 1000;

/// `macTsMaxAck` of the default template: the ACK airtime budget.
/// 2400 µs covers enhanced ACKs up to 69 bytes; this simulator's
/// immediate ACK needs only [`airtime_us`]`(`[`ACK_MPDU_BYTES`]`)` =
/// 352 µs of it.
pub const TS_MAX_ACK_US: u32 = 2400;

/// Worst-case busy time of a transmit slot: offset, full-size frame,
/// turnaround, full ACK budget — 9776 µs, inside even the standard's
/// 10 ms default slot and comfortably inside the paper's 15 ms one.
pub const TS_BUSY_US: u32 = TS_TX_OFFSET_US + TS_MAX_TX_US + TS_TX_ACK_DELAY_US + TS_MAX_ACK_US;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IDLE_LISTEN_FRACTION, SLOT_DURATION};

    #[test]
    fn derived_values_match_the_standard_tables() {
        // Table 8-96 lists macTsMaxTx = 4256 µs; it must fall out of
        // the byte math, not be asserted independently.
        assert_eq!(TS_MAX_TX_US, 4256);
        assert_eq!(airtime_us(ACK_MPDU_BYTES), 352);
        assert_eq!(TS_BUSY_US, 9776);
        assert!(airtime_us(ACK_MPDU_BYTES) <= TS_MAX_ACK_US);
    }

    #[test]
    fn the_template_fits_the_papers_slot() {
        let slot_us = u32::try_from(SLOT_DURATION.as_micros()).unwrap();
        assert!(
            TS_BUSY_US <= slot_us,
            "worst-case Tx slot ({TS_BUSY_US} µs) overruns the {slot_us} µs slot"
        );
        // The idle-listen fraction models the receiver guard window
        // around TsTxOffset; it must stay within the slot's idle
        // portion or the duty-cycle accounting would double-count.
        let guard_us = (IDLE_LISTEN_FRACTION * slot_us as f64) as u32;
        assert!(guard_us < slot_us - TS_MAX_TX_US);
    }
}
