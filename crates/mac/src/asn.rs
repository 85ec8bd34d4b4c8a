//! Absolute slot numbers and slot offsets.

use std::fmt;
use std::ops::Add;

use gtt_sim::{SimDuration, SimTime};

/// Length of one timeslot (Table II: 15 ms).
pub const SLOT_DURATION: SimDuration = SimDuration::from_millis(15);

/// The TSCH Absolute Slot Number: slots elapsed since network start.
///
/// Every node in a synchronized TSCH network agrees on the ASN; it drives
/// channel hopping and slotframe phase. The standard carries it in 5 bytes;
/// we use a `u64` and never wrap.
///
/// # Example
///
/// ```
/// use gtt_mac::Asn;
/// let asn = Asn::new(70);
/// assert_eq!(asn.slot_offset(32).raw(), 6); // 70 mod 32
/// assert_eq!(asn.next().raw(), 71);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asn(u64);

/// An offset within a slotframe (`0 ≤ offset < slotframe length`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SlotOffset(u16);

impl Asn {
    /// The first slot of the network.
    pub const ZERO: Asn = Asn(0);

    /// Creates an ASN from a raw slot count.
    pub const fn new(raw: u64) -> Self {
        Asn(raw)
    }

    /// Raw slot count since network start.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The following slot.
    pub const fn next(self) -> Asn {
        Asn(self.0 + 1)
    }

    /// Position of this slot within a slotframe of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn slot_offset(self, len: u16) -> SlotOffset {
        assert!(len > 0, "slotframe length must be positive");
        SlotOffset((self.0 % len as u64) as u16)
    }

    /// Simulation time at which this slot starts.
    pub fn start_time(self) -> SimTime {
        SimTime::ZERO + SLOT_DURATION * self.0
    }

    /// The ASN in progress at `time`.
    pub fn at_time(time: SimTime) -> Asn {
        Asn(time.saturating_since(SimTime::ZERO).as_micros() / SLOT_DURATION.as_micros())
    }

    /// The first slot whose *start* is at or after `time` — the slot in
    /// which a slot-synchronous loop first observes a deadline at `time`.
    /// Used by the event-driven engine to convert timer deadlines into
    /// wake-up slots.
    pub fn at_or_after(time: SimTime) -> Asn {
        let us = time.saturating_since(SimTime::ZERO).as_micros();
        Asn(us.div_ceil(SLOT_DURATION.as_micros()))
    }
}

impl SlotOffset {
    /// Creates a slot offset.
    pub const fn new(raw: u16) -> Self {
        SlotOffset(raw)
    }

    /// Raw offset value.
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// The offset as a `usize` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl Add<u64> for Asn {
    type Output = Asn;
    fn add(self, rhs: u64) -> Asn {
        Asn(self.0 + rhs)
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asn{}", self.0)
    }
}

impl fmt::Display for SlotOffset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts{}", self.0)
    }
}

impl From<u16> for SlotOffset {
    fn from(raw: u16) -> Self {
        SlotOffset(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_offset_wraps() {
        assert_eq!(Asn::new(0).slot_offset(32).raw(), 0);
        assert_eq!(Asn::new(31).slot_offset(32).raw(), 31);
        assert_eq!(Asn::new(32).slot_offset(32).raw(), 0);
        assert_eq!(Asn::new(100).slot_offset(7).raw(), 2);
    }

    #[test]
    fn time_round_trip() {
        let asn = Asn::new(1234);
        let t = asn.start_time();
        assert_eq!(Asn::at_time(t), asn);
        // Mid-slot times still resolve to the same ASN.
        let mid = t + SimDuration::from_millis(7);
        assert_eq!(Asn::at_time(mid), asn);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Asn::ZERO + 5, Asn::new(5));
        assert_eq!(Asn::new(5).next(), Asn::new(6));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_length_slotframe_panics() {
        let _ = Asn::new(1).slot_offset(0);
    }

    #[test]
    fn display() {
        assert_eq!(Asn::new(9).to_string(), "asn9");
        assert_eq!(SlotOffset::new(3).to_string(), "ts3");
    }
}
