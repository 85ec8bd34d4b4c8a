//! The frame payload enum tying all protocol layers together.

use std::fmt;

use gtt_mac::TrafficClass;
use gtt_rpl::{Dao, Dio};
use gtt_sixtop::SixpMessage;

/// Contents of a TSCH Enhanced Beacon relevant to this reproduction.
///
/// Real EBs carry synchronization and join metadata; all nodes here share
/// the ASN by construction (the engine steps every node on one slot
/// clock, so there is no clock drift to correct), so the interesting part
/// is the GT-TSCH extension: the sender piggybacks the channel offset its
/// children must use to transmit to it (paper §III: "the channel that node
/// i can use for forwarding data to its parent p_i is piggybacked on TSCH
/// EB messages which are broadcast periodically by p_i").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EbInfo {
    /// Channel offset on which the sender receives from its children
    /// (`f_{·,sender}`); `None` when not yet allocated (or for schedulers
    /// without channel coordination, i.e. Orchestra).
    pub rx_channel: Option<u8>,
    /// The sender's free Rx capacity (`l_rx`). The paper carries this in
    /// a DIO option; this reproduction *additionally* piggybacks it on
    /// EBs because Trickle stretches DIO intervals to minutes while the
    /// load balancer needs capacity updates at the EB cadence (2 s).
    pub rx_free: u16,
}

impl EbInfo {
    /// An EB advertising the sender's children-to-sender channel.
    pub fn with_rx_channel(channel_offset: u8) -> Self {
        EbInfo {
            rx_channel: Some(channel_offset),
            rx_free: 0,
        }
    }

    /// Sets the advertised free Rx capacity.
    pub fn with_rx_free(mut self, rx_free: u16) -> Self {
        self.rx_free = rx_free;
        self
    }
}

/// What a frame carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Application data flowing towards the DODAG root.
    Data,
    /// TSCH Enhanced Beacon.
    Eb(EbInfo),
    /// RPL DODAG Information Object.
    Dio(Dio),
    /// RPL Destination Advertisement Object.
    Dao(Dao),
    /// A 6P message.
    SixP(SixpMessage),
}

impl Payload {
    /// The MAC traffic class this payload travels under (`None` = data
    /// queue).
    pub fn traffic_class(&self) -> Option<TrafficClass> {
        match self {
            Payload::Data => None,
            Payload::Eb(_) => Some(TrafficClass::Eb),
            Payload::Dio(_) => Some(TrafficClass::Broadcast),
            Payload::Dao(_) | Payload::SixP(_) => Some(TrafficClass::ControlUnicast),
        }
    }

    /// True for application data.
    pub fn is_data(&self) -> bool {
        matches!(self, Payload::Data)
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Data => f.write_str("data"),
            Payload::Eb(eb) => write!(f, "eb(rx_ch={:?})", eb.rx_channel),
            Payload::Dio(d) => write!(f, "{d}"),
            Payload::Dao(d) => write!(f, "{d}"),
            Payload::SixP(m) => write!(f, "{m}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtt_net::NodeId;
    use gtt_rpl::Rank;

    #[test]
    fn traffic_class_mapping() {
        assert_eq!(Payload::Data.traffic_class(), None);
        assert_eq!(
            Payload::Eb(EbInfo::default()).traffic_class(),
            Some(TrafficClass::Eb)
        );
        assert_eq!(
            Payload::Dio(Dio::new(NodeId::new(0), 1, Rank::ROOT)).traffic_class(),
            Some(TrafficClass::Broadcast)
        );
        assert_eq!(
            Payload::Dao(Dao::announce(NodeId::new(2))).traffic_class(),
            Some(TrafficClass::ControlUnicast)
        );
    }

    #[test]
    fn data_predicate() {
        assert!(Payload::Data.is_data());
        assert!(!Payload::Eb(EbInfo::with_rx_channel(3)).is_data());
    }

    #[test]
    fn eb_info_builder() {
        assert_eq!(EbInfo::with_rx_channel(5).rx_channel, Some(5));
        assert_eq!(EbInfo::default().rx_channel, None);
    }
}
