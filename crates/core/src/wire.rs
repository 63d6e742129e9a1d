//! Binary wire codec for the protocol envelopes.
//!
//! The kernel-level communication interface the paper assumes (§3)
//! ultimately puts messages on a network, so the reproduction provides a
//! compact, dependency-free binary encoding for its wire types. The
//! simulator itself moves Rust values (cloning is cheaper and type-safe),
//! but the codec serves three purposes:
//!
//! - measuring **ordering metadata overhead** in bytes (an `OccursAfter`
//!   set vs. a vector timestamp vs. nothing) — reported by the ablation
//!   benches;
//! - the real-socket path: [`causal-net`'s] TCP transport frames every
//!   message with a [`FrameHeader`] and encodes the full
//!   [`StackWire`]/[`RbMsg`]/[`Timed`] stack through [`WireEncode`] —
//!   including the view-change variants, so virtually synchronous
//!   membership runs over TCP;
//! - round-trip property tests that pin the format.
//!
//! [`causal-net`'s]: https://example.org/causal-broadcast
//!
//! Format: little-endian, length-prefixed. No varints — simplicity and
//! determinism over byte-shaving. Decoding reads from the front of a
//! `&[u8]` and advances it, so consumers can concatenate structures.
//! Each type's layout is defined once, in its [`WireEncode`] impl:
//!
//! ```text
//! MsgId         := origin(4) ‖ seq(8)
//! VectorClock   := width(4) ‖ entry(8)*
//! GraphEnvelope := MsgId ‖ len(4) ‖ MsgId* ‖ payload      (id, deps)
//! VtEnvelope    := MsgId ‖ VectorClock ‖ payload
//! Timed<E>      := E ‖ sent_at(8)
//! RbMsg<E>      := 0x00 ‖ E                              (Data)
//!                | 0x01 ‖ RbAck                          (Ack)
//! RbAck         := cum:MsgId ‖ held_from(8) ‖ held(8) ‖ lost(8)
//! GroupView     := view_id(8) ‖ len(4) ‖ member(4)*
//! StackWire<E>  := 0x00 ‖ RbMsg<Timed<E>>                (Rb)
//!                | 0x01 ‖ VectorClock                    (StabilityReport)
//!                | 0x02                                  (Heartbeat)
//!                | 0x03 ‖ GroupView                      (Propose)
//!                | 0x04 ‖ view_id(8)                     (FlushAck)
//!                | 0x05 ‖ GroupView                      (Install)
//!                | 0x06 ‖ joiner(4)                      (JoinReq)
//!                | 0x07 ‖ LinkFrame<Timed<E>>            (Link)
//! ```
//!
//! The PC-broadcast envelope and link frames are laid out in
//! [`crate::delivery::pcbcast`]'s codec.

use crate::delivery::VtEnvelope;
use crate::osend::GraphEnvelope;
use crate::rbcast::{RbAck, RbMsg};
use crate::stack::{StackWire, Timed};
use causal_clocks::{MsgId, ProcessId, VectorClock};
use causal_membership::{GroupView, ViewId};
use causal_simnet::SimTime;
use std::fmt;

/// A decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the structure was complete.
    UnexpectedEnd,
    /// A length prefix exceeds the sanity limit.
    LengthOutOfRange {
        /// The length read from the wire.
        got: u64,
    },
    /// An enum discriminant byte has no corresponding variant.
    InvalidTag {
        /// The tag read from the wire.
        got: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of buffer"),
            DecodeError::LengthOutOfRange { got } => {
                write!(f, "length prefix {got} out of range")
            }
            DecodeError::InvalidTag { got } => write!(f, "invalid enum tag {got}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Types that know how to put themselves on the wire.
///
/// Implemented here for the protocol envelopes and common primitive
/// payloads; applications with richer operations implement it for their
/// op enums (see `CounterOp` in `causal-replica`).
pub trait WireEncode: Sized {
    /// Appends the encoded value to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes a value from the front of `input`, advancing it past the
    /// consumed bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if the buffer is truncated or malformed.
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError>;

    /// Encodes into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Encodes into a caller-owned scratch buffer, reusing its capacity.
    ///
    /// The buffer is cleared first; the returned slice is the encoded
    /// value. Hot paths (the TCP transport encodes every outbound message)
    /// call this with a long-lived scratch `Vec` so steady-state encoding
    /// allocates nothing.
    fn encode_to<'a>(&self, scratch: &'a mut Vec<u8>) -> &'a [u8] {
        scratch.clear();
        self.encode(scratch);
        scratch.as_slice()
    }

    /// Decodes a value that must consume the whole buffer.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, malformed data, or trailing bytes
    /// (reported as [`DecodeError::LengthOutOfRange`] carrying the number
    /// left over).
    fn from_wire(mut input: &[u8]) -> Result<Self, DecodeError> {
        let v = Self::decode(&mut input)?;
        if input.is_empty() {
            Ok(v)
        } else {
            Err(DecodeError::LengthOutOfRange {
                got: input.len() as u64,
            })
        }
    }
}

const MAX_LEN: u64 = 1 << 24; // 16M elements: simulation-scale sanity bound

/// The largest frame body the transport will produce or accept, in bytes.
pub const MAX_FRAME_LEN: u32 = 1 << 24;

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if input.len() < n {
        return Err(DecodeError::UnexpectedEnd);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

/// Reads a little-endian `u32` from the front of `input`.
///
/// # Errors
///
/// [`DecodeError::UnexpectedEnd`] on a truncated buffer.
pub fn get_u32_le(input: &mut &[u8]) -> Result<u32, DecodeError> {
    let b = take(input, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Reads a little-endian `u64` from the front of `input`.
///
/// # Errors
///
/// [`DecodeError::UnexpectedEnd`] on a truncated buffer.
pub fn get_u64_le(input: &mut &[u8]) -> Result<u64, DecodeError> {
    let b = take(input, 8)?;
    Ok(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

pub(crate) fn get_u8(input: &mut &[u8]) -> Result<u8, DecodeError> {
    Ok(take(input, 1)?[0])
}

pub(crate) fn put_len(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(&(len as u32).to_le_bytes());
}

pub(crate) fn get_len(input: &mut &[u8]) -> Result<usize, DecodeError> {
    let len = get_u32_le(input)? as u64;
    if len > MAX_LEN {
        return Err(DecodeError::LengthOutOfRange { got: len });
    }
    Ok(len as usize)
}

/// The length-prefix header framing every message on a stream transport.
///
/// A frame is `header ‖ body`, where the header is the body length as a
/// little-endian `u32`. Lengths above [`MAX_FRAME_LEN`] are rejected at
/// decode time — a desynchronized or hostile peer cannot make a receiver
/// allocate unboundedly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Body length in bytes.
    pub len: u32,
}

impl FrameHeader {
    /// Encoded size of the header itself.
    pub const ENCODED_LEN: usize = 4;

    /// Header for a body of `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`MAX_FRAME_LEN`] — senders must split or
    /// reject oversized bodies before framing.
    pub fn for_body_len(len: usize) -> Self {
        assert!(
            len as u64 <= MAX_FRAME_LEN as u64,
            "frame body of {len} bytes exceeds MAX_FRAME_LEN"
        );
        FrameHeader { len: len as u32 }
    }

    /// The header's wire bytes as a stack array — the transport frames
    /// every outbound message, so this path must not allocate.
    pub fn encoded(&self) -> [u8; Self::ENCODED_LEN] {
        self.len.to_le_bytes()
    }
}

impl WireEncode for FrameHeader {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.len.to_le_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = get_u32_le(input)?;
        if len > MAX_FRAME_LEN {
            return Err(DecodeError::LengthOutOfRange { got: len as u64 });
        }
        Ok(FrameHeader { len })
    }
}

/// The encoded size of a graph envelope's **ordering metadata** only
/// (id + dependency list), in bytes — what `OSend` adds to a payload.
pub fn graph_overhead_bytes(deps: usize) -> usize {
    12 + 4 + 12 * deps
}

/// The encoded size of a vector-clock envelope's ordering metadata
/// (id + timestamp) for a group of `n`, in bytes — what CBCAST adds.
pub fn vt_overhead_bytes(n: usize) -> usize {
    12 + 4 + 8 * n
}

/// The encoded size of a PC-broadcast envelope's ordering metadata (the
/// id alone), in bytes — **independent of group size**, the property the
/// engine exists for. The link layer adds an 8-byte per-frame sequence
/// number, also constant.
pub fn pc_overhead_bytes() -> usize {
    12
}

impl WireEncode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        get_u64_le(input)
    }
}

impl WireEncode for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(get_u64_le(input)? as i64)
    }
}

impl WireEncode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = get_len(input)?;
        let bytes = take(input, len)?;
        Ok(String::from_utf8_lossy(bytes).into_owned())
    }
}

impl WireEncode for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(())
    }
}

/// Origin and sequence packed: 4 + 8 = 12 bytes.
impl WireEncode for MsgId {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.origin().as_u32().to_le_bytes());
        out.extend_from_slice(&self.seq().to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let origin = ProcessId::new(get_u32_le(input)?);
        let seq = get_u64_le(input)?;
        Ok(MsgId::new(origin, seq))
    }
}

/// Length-prefixed entries.
impl WireEncode for VectorClock {
    fn encode(&self, out: &mut Vec<u8>) {
        put_len(out, self.width());
        for (_, v) in self.iter() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let width = get_len(input)?;
        if input.len() < width.saturating_mul(8) {
            return Err(DecodeError::UnexpectedEnd);
        }
        (0..width).map(|_| get_u64_le(input)).collect()
    }
}

impl WireEncode for SimTime {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.as_micros().to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(SimTime::from_micros(get_u64_le(input)?))
    }
}

/// Id, dependency set, payload.
impl<P: WireEncode> WireEncode for GraphEnvelope<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        put_len(out, self.deps.len());
        for d in self.deps.iter() {
            d.encode(out);
        }
        self.payload.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let id = MsgId::decode(input)?;
        let n = get_len(input)?;
        let mut deps = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            deps.push(MsgId::decode(input)?);
        }
        let payload = P::decode(input)?;
        Ok(GraphEnvelope {
            id,
            deps: crate::osend::share(deps),
            payload,
        })
    }
}

/// Id, vector timestamp, payload.
impl<P: WireEncode> WireEncode for VtEnvelope<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.vt.encode(out);
        self.payload.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let id = MsgId::decode(input)?;
        let vt = VectorClock::decode(input)?;
        let payload = P::decode(input)?;
        Ok(VtEnvelope { id, vt, payload })
    }
}

impl<E: WireEncode> WireEncode for Timed<E> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.env.encode(out);
        self.sent_at.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let env = E::decode(input)?;
        let sent_at = SimTime::decode(input)?;
        Ok(Timed { env, sent_at })
    }
}

const TAG_RB_DATA: u8 = 0;
const TAG_RB_ACK: u8 = 1;

impl<E: WireEncode> WireEncode for RbMsg<E> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RbMsg::Data(env) => {
                out.push(TAG_RB_DATA);
                env.encode(out);
            }
            RbMsg::Ack(ack) => {
                out.push(TAG_RB_ACK);
                ack.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match get_u8(input)? {
            TAG_RB_DATA => Ok(RbMsg::Data(E::decode(input)?)),
            TAG_RB_ACK => Ok(RbMsg::Ack(RbAck::decode(input)?)),
            got => Err(DecodeError::InvalidTag { got }),
        }
    }
}

/// Fixed size: `cum` (origin 4 ‖ seq 8) ‖ `held_from` 8 ‖ `held` 8 ‖
/// `lost` 8, 36 bytes.
impl WireEncode for RbAck {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cum.encode(out);
        out.extend_from_slice(&self.held_from.to_le_bytes());
        out.extend_from_slice(&self.held.to_le_bytes());
        out.extend_from_slice(&self.lost.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(RbAck {
            cum: MsgId::decode(input)?,
            held_from: get_u64_le(input)?,
            held: get_u64_le(input)?,
            lost: get_u64_le(input)?,
        })
    }
}

impl WireEncode for ViewId {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.as_u64().to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(ViewId::from_u64(get_u64_le(input)?))
    }
}

impl WireEncode for GroupView {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id().encode(out);
        put_len(out, self.len());
        for &m in self.members() {
            out.extend_from_slice(&m.as_u32().to_le_bytes());
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let id = ViewId::decode(input)?;
        let n = get_len(input)?;
        let mut members = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            members.push(ProcessId::new(get_u32_le(input)?));
        }
        // A view must have at least one member; the fallible constructor
        // turns an empty set into a decode error instead of a panic.
        GroupView::try_new(id, members).ok_or(DecodeError::LengthOutOfRange { got: n as u64 })
    }
}

const TAG_SW_RB: u8 = 0;
const TAG_SW_STABILITY: u8 = 1;
const TAG_SW_HEARTBEAT: u8 = 2;
const TAG_SW_PROPOSE: u8 = 3;
const TAG_SW_FLUSH_ACK: u8 = 4;
const TAG_SW_INSTALL: u8 = 5;
const TAG_SW_JOIN_REQ: u8 = 6;
const TAG_SW_LINK: u8 = 7;

impl<E: WireEncode> WireEncode for StackWire<E> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            StackWire::Rb(msg) => {
                out.push(TAG_SW_RB);
                msg.encode(out);
            }
            StackWire::StabilityReport(vt) => {
                out.push(TAG_SW_STABILITY);
                vt.encode(out);
            }
            StackWire::Heartbeat => out.push(TAG_SW_HEARTBEAT),
            StackWire::Propose(view) => {
                out.push(TAG_SW_PROPOSE);
                view.encode(out);
            }
            StackWire::FlushAck(view_id) => {
                out.push(TAG_SW_FLUSH_ACK);
                view_id.encode(out);
            }
            StackWire::Install(view) => {
                out.push(TAG_SW_INSTALL);
                view.encode(out);
            }
            StackWire::JoinReq { joiner } => {
                out.push(TAG_SW_JOIN_REQ);
                out.extend_from_slice(&joiner.as_u32().to_le_bytes());
            }
            StackWire::Link(frame) => {
                out.push(TAG_SW_LINK);
                frame.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match get_u8(input)? {
            TAG_SW_RB => Ok(StackWire::Rb(RbMsg::decode(input)?)),
            TAG_SW_STABILITY => Ok(StackWire::StabilityReport(VectorClock::decode(input)?)),
            TAG_SW_HEARTBEAT => Ok(StackWire::Heartbeat),
            TAG_SW_PROPOSE => Ok(StackWire::Propose(GroupView::decode(input)?)),
            TAG_SW_FLUSH_ACK => Ok(StackWire::FlushAck(ViewId::decode(input)?)),
            TAG_SW_INSTALL => Ok(StackWire::Install(GroupView::decode(input)?)),
            TAG_SW_JOIN_REQ => Ok(StackWire::JoinReq {
                joiner: ProcessId::new(get_u32_le(input)?),
            }),
            TAG_SW_LINK => Ok(StackWire::Link(
                crate::delivery::pcbcast::LinkFrame::decode(input)?,
            )),
            got => Err(DecodeError::InvalidTag { got }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osend::{OSender, OccursAfter};

    fn roundtrip_graph<P: WireEncode + Clone + PartialEq + std::fmt::Debug>(
        env: &GraphEnvelope<P>,
    ) {
        let buf = env.to_wire();
        let mut input = buf.as_slice();
        let decoded = GraphEnvelope::<P>::decode(&mut input).unwrap();
        assert_eq!(&decoded, env);
        assert!(input.is_empty(), "trailing bytes");
    }

    #[test]
    fn msg_id_roundtrip() {
        let id = MsgId::new(ProcessId::new(42), 123456789);
        let buf = id.to_wire();
        assert_eq!(buf.len(), 12);
        assert_eq!(MsgId::from_wire(&buf).unwrap(), id);
    }

    #[test]
    fn vector_clock_roundtrip() {
        let vt = VectorClock::from_entries([0, 5, u64::MAX, 3]);
        assert_eq!(VectorClock::from_wire(&vt.to_wire()).unwrap(), vt);
    }

    #[test]
    fn graph_envelope_roundtrip_various_payloads() {
        let mut tx = OSender::new(ProcessId::new(1));
        let a = tx.osend(7u64, OccursAfter::none());
        roundtrip_graph(&a);
        let b = tx.osend(99u64, OccursAfter::message(a.id));
        roundtrip_graph(&b);
        let mut tx2 = OSender::new(ProcessId::new(2));
        let s = tx2.osend(
            "hello causal world".to_string(),
            OccursAfter::all([a.id, b.id]),
        );
        roundtrip_graph(&s);
    }

    #[test]
    fn vt_envelope_roundtrip() {
        let env = VtEnvelope {
            id: MsgId::new(ProcessId::new(0), 1),
            vt: VectorClock::from_entries([1, 0, 2]),
            payload: -5i64,
        };
        let decoded: VtEnvelope<i64> = VtEnvelope::from_wire(&env.to_wire()).unwrap();
        assert_eq!(decoded, env);
    }

    #[test]
    fn truncated_buffers_error() {
        let mut tx = OSender::new(ProcessId::new(0));
        let env = tx.osend(1u64, OccursAfter::none());
        let full = env.to_wire();
        for cut in 0..full.len() {
            let mut trunc = &full[..cut];
            let out = GraphEnvelope::<u64>::decode(&mut trunc);
            assert_eq!(out, Err(DecodeError::UnexpectedEnd), "cut at {cut}");
        }
    }

    #[test]
    fn absurd_length_rejected() {
        let mut buf = Vec::new();
        MsgId::new(ProcessId::new(0), 1).encode(&mut buf);
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // deps length prefix
        let mut input = buf.as_slice();
        let out = GraphEnvelope::<u64>::decode(&mut input);
        assert!(matches!(out, Err(DecodeError::LengthOutOfRange { .. })));
    }

    #[test]
    fn overhead_formulas_match_encoding() {
        let mut tx = OSender::new(ProcessId::new(0));
        let a = tx.osend((), OccursAfter::none());
        let b = tx.osend((), OccursAfter::message(a.id));
        assert_eq!(b.to_wire().len(), graph_overhead_bytes(1));

        let env = VtEnvelope {
            id: MsgId::new(ProcessId::new(0), 1),
            vt: VectorClock::new(8),
            payload: (),
        };
        assert_eq!(env.to_wire().len(), vt_overhead_bytes(8));
    }

    #[test]
    fn graph_overhead_constant_vt_overhead_grows_with_group() {
        // The paper-relevant asymmetry: OSend metadata scales with the
        // number of *declared* dependencies; CBCAST metadata scales with
        // the *group size* regardless of semantics.
        assert_eq!(graph_overhead_bytes(1), graph_overhead_bytes(1));
        assert!(vt_overhead_bytes(64) > vt_overhead_bytes(4));
        assert!(graph_overhead_bytes(1) < vt_overhead_bytes(64));
    }

    #[test]
    fn frame_header_roundtrip_and_bounds() {
        let h = FrameHeader::for_body_len(4096);
        let buf = h.to_wire();
        assert_eq!(buf.len(), FrameHeader::ENCODED_LEN);
        assert_eq!(FrameHeader::from_wire(&buf).unwrap(), h);

        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut input = oversized.as_slice();
        assert!(matches!(
            FrameHeader::decode(&mut input),
            Err(DecodeError::LengthOutOfRange { .. })
        ));
    }

    #[test]
    fn stack_wire_roundtrips_every_variant() {
        type W = StackWire<GraphEnvelope<u64>>;
        let mut tx = OSender::new(ProcessId::new(3));
        let env = tx.osend(11u64, OccursAfter::none());
        let view = GroupView::new(ViewId::from_u64(4), [ProcessId::new(0), ProcessId::new(2)]);
        let msgs: Vec<W> = vec![
            StackWire::Rb(RbMsg::Data(Timed {
                env,
                sent_at: SimTime::from_micros(42),
            })),
            StackWire::Rb(RbMsg::Ack(RbAck {
                cum: MsgId::new(ProcessId::new(1), 9),
                held_from: 11,
                held: 0b101,
                lost: 0b1,
            })),
            StackWire::StabilityReport(VectorClock::from_entries([4, 0, 2])),
            StackWire::Heartbeat,
            StackWire::Propose(view.clone()),
            StackWire::FlushAck(view.id()),
            StackWire::Install(view),
            StackWire::JoinReq {
                joiner: ProcessId::new(7),
            },
            StackWire::Link(crate::delivery::pcbcast::LinkFrame {
                seq: 3,
                body: crate::delivery::pcbcast::LinkBody::Ack { cum: 2, holes: 6 },
            }),
        ];
        for msg in msgs {
            assert_eq!(W::from_wire(&msg.to_wire()).unwrap(), msg, "{msg:?}");
        }
    }

    /// One golden encoding per `StackWire` variant and per `LinkBody`
    /// variant, written out field by field from the layouts in the
    /// module docs and in `pcbcast`'s codec. A round trip cannot see two
    /// fields swapped on both sides; these bytes can.
    #[test]
    fn encodings_follow_the_documented_layout() {
        use crate::delivery::pcbcast::{LinkBody, LinkFrame};
        use crate::delivery::PcEnvelope;
        fn bytes(fields: &[&[u8]]) -> Vec<u8> {
            fields.concat()
        }
        let id = |origin: u32, seq: u64| bytes(&[&origin.to_le_bytes(), &seq.to_le_bytes()]);
        let view = GroupView::new(ViewId::from_u64(4), [ProcessId::new(0), ProcessId::new(2)]);
        let view_bytes = bytes(&[
            &4u64.to_le_bytes(),
            &2u32.to_le_bytes(),
            &0u32.to_le_bytes(),
            &2u32.to_le_bytes(),
        ]);
        let env = GraphEnvelope {
            id: MsgId::new(ProcessId::new(3), 5),
            deps: vec![MsgId::new(ProcessId::new(1), 2)].into(),
            payload: 11u64,
        };
        let stack: Vec<(StackWire<GraphEnvelope<u64>>, Vec<u8>)> = vec![
            (
                StackWire::Rb(RbMsg::Data(Timed {
                    env,
                    sent_at: SimTime::from_micros(42),
                })),
                bytes(&[
                    &[0x00, 0x00],
                    &id(3, 5),
                    &1u32.to_le_bytes(),
                    &id(1, 2),
                    &11u64.to_le_bytes(),
                    &42u64.to_le_bytes(),
                ]),
            ),
            (
                StackWire::Rb(RbMsg::Ack(RbAck {
                    cum: MsgId::new(ProcessId::new(1), 9),
                    held_from: 11,
                    held: 0b101,
                    lost: 0b1,
                })),
                bytes(&[
                    &[0x00, 0x01],
                    &id(1, 9),
                    &11u64.to_le_bytes(),
                    &5u64.to_le_bytes(),
                    &1u64.to_le_bytes(),
                ]),
            ),
            (
                StackWire::StabilityReport(VectorClock::from_entries([4, 0, 2])),
                bytes(&[
                    &[0x01],
                    &3u32.to_le_bytes(),
                    &4u64.to_le_bytes(),
                    &0u64.to_le_bytes(),
                    &2u64.to_le_bytes(),
                ]),
            ),
            (StackWire::Heartbeat, vec![0x02]),
            (
                StackWire::Propose(view.clone()),
                bytes(&[&[0x03], &view_bytes]),
            ),
            (
                StackWire::FlushAck(view.id()),
                bytes(&[&[0x04], &4u64.to_le_bytes()]),
            ),
            (StackWire::Install(view), bytes(&[&[0x05], &view_bytes])),
            (
                StackWire::JoinReq {
                    joiner: ProcessId::new(7),
                },
                bytes(&[&[0x06], &7u32.to_le_bytes()]),
            ),
            (
                StackWire::Link(LinkFrame {
                    seq: 3,
                    body: LinkBody::Ping { token: 8 },
                }),
                bytes(&[&[0x07], &3u64.to_le_bytes(), &[0x01], &8u64.to_le_bytes()]),
            ),
        ];
        for (msg, golden) in stack {
            assert_eq!(msg.to_wire(), golden, "{msg:?}");
            assert_eq!(StackWire::from_wire(&golden), Ok(msg));
        }

        type Frame = LinkFrame<Timed<PcEnvelope<u64>>>;
        let link: Vec<(Frame, Vec<u8>)> = vec![
            (
                LinkFrame {
                    seq: 9,
                    body: LinkBody::Msg(Timed {
                        env: PcEnvelope {
                            id: MsgId::new(ProcessId::new(3), 17),
                            payload: 21,
                        },
                        sent_at: SimTime::from_micros(1234),
                    }),
                },
                bytes(&[
                    &9u64.to_le_bytes(),
                    &[0x00],
                    &id(3, 17),
                    &21u64.to_le_bytes(),
                    &1234u64.to_le_bytes(),
                ]),
            ),
            (
                LinkFrame {
                    seq: 1,
                    body: LinkBody::Ping { token: 7 },
                },
                bytes(&[&1u64.to_le_bytes(), &[0x01], &7u64.to_le_bytes()]),
            ),
            (
                LinkFrame {
                    seq: 2,
                    body: LinkBody::Pong {
                        token: 8,
                        delivered: vec![(ProcessId::new(0), 5), (ProcessId::new(9), 1)],
                    },
                },
                bytes(&[
                    &2u64.to_le_bytes(),
                    &[0x02],
                    &8u64.to_le_bytes(),
                    &2u32.to_le_bytes(),
                    &0u32.to_le_bytes(),
                    &5u64.to_le_bytes(),
                    &9u32.to_le_bytes(),
                    &1u64.to_le_bytes(),
                ]),
            ),
            (
                LinkFrame {
                    seq: 0,
                    body: LinkBody::Ack { cum: 11, holes: 6 },
                },
                bytes(&[
                    &0u64.to_le_bytes(),
                    &[0x03],
                    &11u64.to_le_bytes(),
                    &6u64.to_le_bytes(),
                ]),
            ),
            (
                LinkFrame {
                    seq: 4,
                    body: LinkBody::Run(
                        [(3, 18, 22, 1240), (5, 1, 23, 1250)]
                            .map(|(origin, seq, payload, sent)| Timed {
                                env: PcEnvelope {
                                    id: MsgId::new(ProcessId::new(origin), seq),
                                    payload,
                                },
                                sent_at: SimTime::from_micros(sent),
                            })
                            .into(),
                    ),
                },
                bytes(&[
                    &4u64.to_le_bytes(),
                    &[0x04],
                    &2u32.to_le_bytes(),
                    &id(3, 18),
                    &22u64.to_le_bytes(),
                    &1240u64.to_le_bytes(),
                    &id(5, 1),
                    &23u64.to_le_bytes(),
                    &1250u64.to_le_bytes(),
                ]),
            ),
        ];
        for (frame, golden) in link {
            assert_eq!(frame.to_wire(), golden, "{frame:?}");
            assert_eq!(Frame::from_wire(&golden), Ok(frame));
        }
    }

    #[test]
    fn pc_overhead_is_constant_in_group_size() {
        use crate::delivery::PcEnvelope;
        let env = PcEnvelope {
            id: MsgId::new(ProcessId::new(0), 1),
            payload: (),
        };
        assert_eq!(env.to_wire().len(), pc_overhead_bytes());
        // The paper-relevant comparison: PC metadata beats a vector clock
        // from tiny groups up, and the gap widens linearly.
        assert!(pc_overhead_bytes() < vt_overhead_bytes(4));
        assert!(pc_overhead_bytes() < vt_overhead_bytes(10_000));
    }

    #[test]
    fn empty_group_view_rejected() {
        // id (8 bytes) + member count 0: a view must have a member.
        let mut buf = 4u64.to_le_bytes().to_vec();
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut input = buf.as_slice();
        assert_eq!(
            GroupView::decode(&mut input),
            Err(DecodeError::LengthOutOfRange { got: 0 })
        );
    }

    #[test]
    fn invalid_tags_rejected() {
        let buf = [9u8];
        let out: Result<StackWire<GraphEnvelope<u64>>, _> = StackWire::from_wire(&buf);
        assert_eq!(out, Err(DecodeError::InvalidTag { got: 9 }));
    }
}
