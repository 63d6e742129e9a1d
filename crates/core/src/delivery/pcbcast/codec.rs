//! Wire codec for PC-broadcast frames.
//!
//! Lives in its own file (rather than folded into `core/wire.rs`) so
//! the static analyzer's wire-panic audit can name it as a decode entry
//! file: every `decode` here is an audit root, and the whole reachable
//! cone must stay panic-free — these bytes come straight off a TCP
//! socket on the `causal-net` path.
//!
//! Format (little-endian, like the rest of the codec):
//!
//! ```text
//! PcEnvelope  := msg_id(12) ‖ payload
//! LinkFrame   := seq(8) ‖ LinkBody
//! LinkBody    := 0x00 ‖ T                      (Msg)
//!              | 0x01 ‖ token(8)               (Ping)
//!              | 0x02 ‖ token(8) ‖ len(4) ‖ (origin(4) ‖ wm(8))*  (Pong)
//!              | 0x03 ‖ cum(8) ‖ holes(8)      (Ack)
//! ```
//!
//! A data frame's ordering metadata is the 8-byte link sequence plus
//! the envelope's 12-byte id — constant in the group size, which is the
//! whole point ([`crate::wire::pc_overhead_bytes`]). An ack names the
//! frames its sender has lost in a fixed 64-bit bitmap over the
//! sequence numbers above `cum`, so its size is fixed too and decoding
//! it reads exactly 16 bytes.

use super::engine::PcEnvelope;
use super::link::{LinkBody, LinkFrame};
use crate::wire::{get_len, get_u32_le, get_u64_le, get_u8, put_len, DecodeError, WireEncode};
use causal_clocks::{MsgId, ProcessId};

const TAG_LB_MSG: u8 = 0;
const TAG_LB_PING: u8 = 1;
const TAG_LB_PONG: u8 = 2;
const TAG_LB_ACK: u8 = 3;

impl<T: WireEncode> WireEncode for LinkBody<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LinkBody::Msg(t) => {
                out.push(TAG_LB_MSG);
                t.encode(out);
            }
            LinkBody::Ping { token } => {
                out.push(TAG_LB_PING);
                out.extend_from_slice(&token.to_le_bytes());
            }
            LinkBody::Pong { token, delivered } => {
                out.push(TAG_LB_PONG);
                out.extend_from_slice(&token.to_le_bytes());
                put_len(out, delivered.len());
                for (origin, wm) in delivered {
                    out.extend_from_slice(&origin.as_u32().to_le_bytes());
                    out.extend_from_slice(&wm.to_le_bytes());
                }
            }
            LinkBody::Ack { cum, holes } => {
                out.push(TAG_LB_ACK);
                out.extend_from_slice(&cum.to_le_bytes());
                out.extend_from_slice(&holes.to_le_bytes());
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match get_u8(input)? {
            TAG_LB_MSG => Ok(LinkBody::Msg(T::decode(input)?)),
            TAG_LB_PING => Ok(LinkBody::Ping {
                token: get_u64_le(input)?,
            }),
            TAG_LB_PONG => {
                let token = get_u64_le(input)?;
                let n = get_len(input)?;
                let mut delivered = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let origin = ProcessId::new(get_u32_le(input)?);
                    let wm = get_u64_le(input)?;
                    delivered.push((origin, wm));
                }
                Ok(LinkBody::Pong { token, delivered })
            }
            TAG_LB_ACK => Ok(LinkBody::Ack {
                cum: get_u64_le(input)?,
                holes: get_u64_le(input)?,
            }),
            got => Err(DecodeError::InvalidTag { got }),
        }
    }
}

impl<T: WireEncode> WireEncode for LinkFrame<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seq.to_le_bytes());
        self.body.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let seq = get_u64_le(input)?;
        let body = LinkBody::decode(input)?;
        Ok(LinkFrame { seq, body })
    }
}

/// Id, payload — no ordering metadata at all.
impl<P: WireEncode> WireEncode for PcEnvelope<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.payload.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let id = MsgId::decode(input)?;
        let payload = P::decode(input)?;
        Ok(PcEnvelope { id, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Timed;
    use causal_simnet::SimTime;

    type Frame = LinkFrame<Timed<PcEnvelope<i64>>>;

    fn sample_frames() -> Vec<Frame> {
        let env = PcEnvelope {
            id: MsgId::new(ProcessId::new(3), 17),
            payload: -42i64,
        };
        vec![
            LinkFrame {
                seq: 9,
                body: LinkBody::Msg(Timed {
                    env,
                    sent_at: SimTime::from_micros(1234),
                }),
            },
            LinkFrame {
                seq: 1,
                body: LinkBody::Ping { token: 7 },
            },
            LinkFrame {
                seq: 2,
                body: LinkBody::Pong {
                    token: 7,
                    delivered: vec![(ProcessId::new(0), 5), (ProcessId::new(9), 1)],
                },
            },
            LinkFrame {
                seq: 0,
                body: LinkBody::Ack { cum: 11, holes: 0 },
            },
            LinkFrame {
                seq: 0,
                body: LinkBody::Ack {
                    cum: 11,
                    holes: 1 << 63 | 0b101,
                },
            },
        ]
    }

    #[test]
    fn link_frame_roundtrips_every_variant() {
        for frame in sample_frames() {
            let buf = frame.to_wire();
            assert_eq!(Frame::from_wire(&buf).unwrap(), frame);
        }
    }

    #[test]
    fn pc_envelope_metadata_is_twelve_bytes() {
        let env = PcEnvelope {
            id: MsgId::new(ProcessId::new(1), 2),
            payload: (),
        };
        assert_eq!(env.to_wire().len(), crate::wire::pc_overhead_bytes());
    }

    #[test]
    fn truncated_frames_error_never_panic() {
        for frame in sample_frames() {
            let full = frame.to_wire();
            for cut in 0..full.len() {
                let mut input = &full[..cut];
                assert!(
                    Frame::decode(&mut input).is_err(),
                    "cut at {cut} decoded anyway"
                );
            }
        }
    }

    #[test]
    fn bad_body_tag_rejected() {
        let mut buf = 5u64.to_le_bytes().to_vec();
        buf.push(0xEE);
        assert_eq!(
            Frame::from_wire(&buf),
            Err(DecodeError::InvalidTag { got: 0xEE })
        );
    }

    #[test]
    fn absurd_pong_length_rejected() {
        let mut buf = 2u64.to_le_bytes().to_vec(); // seq
        buf.push(super::TAG_LB_PONG);
        buf.extend_from_slice(&7u64.to_le_bytes()); // token
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // entry count
        assert!(matches!(
            Frame::from_wire(&buf),
            Err(DecodeError::LengthOutOfRange { .. })
        ));
    }
}
