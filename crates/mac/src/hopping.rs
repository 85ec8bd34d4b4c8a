//! TSCH channel hopping.

use std::fmt;

use gtt_net::PhysicalChannel;

use crate::asn::Asn;

/// A channel offset: the frequency coordinate of a cell in the CDU matrix.
///
/// Unlike a [`PhysicalChannel`], a channel offset is *logical*: the radio
/// channel actually used in a slot is
/// `sequence[(ASN + offset) mod sequence_len]`, so a fixed offset hops
/// across the whole sequence over time, de-correlating persistent
/// narrow-band interference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChannelOffset(u8);

impl ChannelOffset {
    /// Creates a channel offset.
    pub const fn new(raw: u8) -> Self {
        ChannelOffset(raw)
    }

    /// Raw offset value.
    pub const fn raw(self) -> u8 {
        self.0
    }
}

impl fmt::Display for ChannelOffset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "co{}", self.0)
    }
}

impl From<u8> for ChannelOffset {
    fn from(raw: u8) -> Self {
        ChannelOffset(raw)
    }
}

/// The paper's Table II hopping sequence, `17, 23, 15, 25, 19, 11, 13,
/// 21`: the physical channels that logical channel offsets cycle
/// through. Its length is the number of usable channel offsets.
pub const HOPPING_SEQUENCE: [PhysicalChannel; 8] = [
    PhysicalChannel::new(17),
    PhysicalChannel::new(23),
    PhysicalChannel::new(15),
    PhysicalChannel::new(25),
    PhysicalChannel::new(19),
    PhysicalChannel::new(11),
    PhysicalChannel::new(13),
    PhysicalChannel::new(21),
];

/// The physical channel used by `offset` at `asn`:
/// `HOPPING_SEQUENCE[(ASN + offset) mod len]`.
///
/// # Example
///
/// ```
/// use gtt_mac::{channel, Asn, ChannelOffset};
///
/// // Offsets are congruent modulo the sequence length:
/// let c0 = channel(Asn::new(3), ChannelOffset::new(2));
/// let c1 = channel(Asn::new(4), ChannelOffset::new(1));
/// assert_eq!(c0, c1);
/// ```
pub fn channel(asn: Asn, offset: ChannelOffset) -> PhysicalChannel {
    let idx = (asn.raw() + offset.raw() as u64) % HOPPING_SEQUENCE.len() as u64;
    HOPPING_SEQUENCE[idx as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sequence_contents() {
        let nums: Vec<u8> = HOPPING_SEQUENCE.iter().map(|c| c.number()).collect();
        assert_eq!(nums, vec![17, 23, 15, 25, 19, 11, 13, 21]);
    }

    #[test]
    fn hopping_covers_whole_sequence_for_fixed_offset() {
        let offset = ChannelOffset::new(0);
        let mut seen: Vec<u8> = (0..8)
            .map(|asn| channel(Asn::new(asn), offset).number())
            .collect();
        seen.sort_unstable();
        let mut expected = vec![11, 13, 15, 17, 19, 21, 23, 25];
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }

    #[test]
    fn equal_offsets_same_slot_share_a_channel() {
        // The §III collision pre-condition: two cells with equal channel
        // offsets in the same slot always occupy the same physical channel.
        for asn in 0..32 {
            let a = channel(Asn::new(asn), ChannelOffset::new(3));
            let b = channel(Asn::new(asn), ChannelOffset::new(3));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn distinct_offsets_same_slot_differ() {
        for asn in 0..32 {
            let a = channel(Asn::new(asn), ChannelOffset::new(0));
            let b = channel(Asn::new(asn), ChannelOffset::new(1));
            assert_ne!(a, b, "paper sequence has no repeated channels");
        }
    }
}
