//! MAC payload encodings of the engine's control and data messages.
//!
//! Everything that is not an enhanced beacon rides in an 802.15.4 data
//! frame whose MAC payload starts with a 1-byte kind tag:
//!
//! ```text
//! 0x01 app data   id:u64 LE | generated_at_us:u64 LE | hops:u8
//! 0x02 RPL DIO    dodag_root:u16 LE | version:u8 | rank:u16 LE | rx_free:u16 LE
//! 0x03 RPL DAO    child:u16 LE | no_path:u8 (0/1)
//! 0x04 6P         the RFC 8480-style bytes of SixpMessage::encode
//! ```
//!
//! The simulator's application payload is abstract (there are no app
//! bytes to serialize), so the data encoding carries exactly the frame
//! metadata that makes a trace diffable: the origin-keyed packet id,
//! the generation timestamp and the hop count. Decoding is strict —
//! every kind has one canonical byte form, trailing bytes are rejected
//! — so `encode(decode(bytes)) == bytes` holds for every accepted
//! input.

use gtt_sixtop::SixpMessage;

use crate::FrameError;

const KIND_APP: u8 = 0x01;
const KIND_DIO: u8 = 0x02;
const KIND_DAO: u8 = 0x03;
const KIND_SIXP: u8 = 0x04;

/// Typed MAC payload of a data frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WirePayload {
    /// An application packet (the engine's `Payload::Data`).
    App {
        /// Origin-keyed engine packet id (`origin << 48 | seq`).
        id: u64,
        /// Generation time of the packet, microseconds of sim time.
        generated_us: u64,
        /// Hops travelled so far (incremented per forward).
        hops: u8,
    },
    /// An RPL DODAG Information Object.
    Dio {
        /// Short address of the DODAG root.
        dodag_root: u16,
        /// DODAG version.
        version: u8,
        /// Advertised rank (raw wire value).
        rank: u16,
        /// GT-TSCH rx-capacity piggyback.
        rx_free: u16,
    },
    /// An RPL Destination Advertisement Object.
    Dao {
        /// Short address of the advertising child.
        child: u16,
        /// No-path DAO (route retraction).
        no_path: bool,
    },
    /// A 6top protocol message (RFC 8480-style encoding).
    SixP(SixpMessage),
}

impl WirePayload {
    /// Appends the tagged payload bytes to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WirePayload::App {
                id,
                generated_us,
                hops,
            } => {
                buf.push(KIND_APP);
                buf.extend_from_slice(&id.to_le_bytes());
                buf.extend_from_slice(&generated_us.to_le_bytes());
                buf.push(*hops);
            }
            WirePayload::Dio {
                dodag_root,
                version,
                rank,
                rx_free,
            } => {
                buf.push(KIND_DIO);
                buf.extend_from_slice(&dodag_root.to_le_bytes());
                buf.push(*version);
                buf.extend_from_slice(&rank.to_le_bytes());
                buf.extend_from_slice(&rx_free.to_le_bytes());
            }
            WirePayload::Dao { child, no_path } => {
                buf.push(KIND_DAO);
                buf.extend_from_slice(&child.to_le_bytes());
                buf.push(u8::from(*no_path));
            }
            WirePayload::SixP(msg) => {
                buf.push(KIND_SIXP);
                buf.extend_from_slice(&msg.encode());
            }
        }
    }

    /// Decodes a tagged payload, rejecting unknown kinds, truncation,
    /// trailing bytes and non-canonical forms.
    pub fn decode(bytes: &[u8]) -> Result<Self, FrameError> {
        let (&kind, body) = bytes.split_first().ok_or(FrameError::Truncated)?;
        match kind {
            KIND_APP => {
                if body.len() != 17 {
                    return Err(FrameError::BadPayload);
                }
                Ok(WirePayload::App {
                    id: u64::from_le_bytes(body[0..8].try_into().expect("length checked")),
                    generated_us: u64::from_le_bytes(
                        body[8..16].try_into().expect("length checked"),
                    ),
                    hops: body[16],
                })
            }
            KIND_DIO => {
                if body.len() != 7 {
                    return Err(FrameError::BadPayload);
                }
                Ok(WirePayload::Dio {
                    dodag_root: u16::from_le_bytes([body[0], body[1]]),
                    version: body[2],
                    rank: u16::from_le_bytes([body[3], body[4]]),
                    rx_free: u16::from_le_bytes([body[5], body[6]]),
                })
            }
            KIND_DAO => {
                if body.len() != 3 {
                    return Err(FrameError::BadPayload);
                }
                let no_path = match body[2] {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::BadPayload),
                };
                Ok(WirePayload::Dao {
                    child: u16::from_le_bytes([body[0], body[1]]),
                    no_path,
                })
            }
            KIND_SIXP => {
                let msg = SixpMessage::decode(body).map_err(FrameError::BadSixp)?;
                // `SixpMessage::decode` tolerates nothing *inside* the
                // message but does not police length itself; requiring
                // the canonical re-encoding keeps byte-level round
                // trips exact (and rejects trailing garbage).
                if msg.encode() != body {
                    return Err(FrameError::BadPayload);
                }
                Ok(WirePayload::SixP(msg))
            }
            _ => Err(FrameError::BadPayload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtt_sixtop::{CellSpec, SixpBody, SixpCellKind};

    fn round_trip(p: &WirePayload) {
        let mut buf = Vec::new();
        p.encode(&mut buf);
        let decoded = WirePayload::decode(&buf).unwrap();
        assert_eq!(&decoded, p);
        let mut again = Vec::new();
        decoded.encode(&mut again);
        assert_eq!(again, buf);
    }

    #[test]
    fn every_kind_round_trips() {
        round_trip(&WirePayload::App {
            id: (3 << 48) | 99,
            generated_us: 1_234_567,
            hops: 2,
        });
        round_trip(&WirePayload::Dio {
            dodag_root: 0,
            version: 1,
            rank: 768,
            rx_free: 5,
        });
        round_trip(&WirePayload::Dao {
            child: 7,
            no_path: true,
        });
        round_trip(&WirePayload::SixP(SixpMessage::new(
            4,
            SixpBody::AddRequest {
                kind: SixpCellKind::Data,
                num_cells: 1,
                cells: vec![CellSpec::new(10, 3)],
            },
        )));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        WirePayload::Dao {
            child: 1,
            no_path: false,
        }
        .encode(&mut buf);
        buf.push(0);
        assert!(WirePayload::decode(&buf).is_err());
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert!(WirePayload::decode(&[0x7f, 1, 2, 3]).is_err());
        assert!(WirePayload::decode(&[]).is_err());
    }
}
