//! Wire-decode robustness: decoding **never panics**, on any input.
//!
//! The decode paths face bytes from the network; the `wire-unwrap` lint
//! (`cargo xtask lint`) keeps panicking combinators out of the source,
//! and this suite drives the point home dynamically — arbitrary buffers,
//! truncated valid encodings, and single-byte corruptions of valid
//! encodings must all produce `Ok` or `Err`, never unwind.

use causal_clocks::{MsgId, ProcessId, VectorClock};
use causal_core::delivery::pcbcast::{LinkBody, LinkFrame};
use causal_core::delivery::PcEnvelope;
use causal_core::osend::GraphEnvelope;
use causal_core::rbcast::{RbAck, RbMsg};
use causal_core::stack::{StackWire, Timed};
use causal_core::wire::{FrameHeader, WireEncode};
use causal_membership::{GroupView, ViewId};
use causal_simnet::SimTime;
use proptest::prelude::*;

/// Every decodable wire type, exercised from one byte buffer. Returns
/// how many of them accepted the input (to keep the calls observable).
fn decode_all(bytes: &[u8]) -> usize {
    let mut ok = 0;
    ok += usize::from(MsgId::from_wire(bytes).is_ok());
    ok += usize::from(VectorClock::from_wire(bytes).is_ok());
    ok += usize::from(FrameHeader::from_wire(bytes).is_ok());
    ok += usize::from(ViewId::from_wire(bytes).is_ok());
    ok += usize::from(GroupView::from_wire(bytes).is_ok());
    ok += usize::from(<GraphEnvelope<u64>>::from_wire(bytes).is_ok());
    ok += usize::from(<GraphEnvelope<String>>::from_wire(bytes).is_ok());
    ok += usize::from(<RbMsg<GraphEnvelope<u64>>>::from_wire(bytes).is_ok());
    ok += usize::from(<StackWire<GraphEnvelope<u64>>>::from_wire(bytes).is_ok());
    ok += usize::from(<StackWire<PcEnvelope<u64>>>::from_wire(bytes).is_ok());
    ok += usize::from(SimTime::from_wire(bytes).is_ok());
    ok
}

/// A structurally valid encoding of a representative nested message.
fn valid_encoding(origin: u32, seq: u64, deps: &[(u32, u64)], payload: u64) -> Vec<u8> {
    let env = GraphEnvelope {
        id: MsgId::new(ProcessId::new(origin), seq),
        deps: deps
            .iter()
            .map(|&(o, s)| MsgId::new(ProcessId::new(o), s.max(1)))
            .collect(),
        payload,
    };
    let msg: StackWire<GraphEnvelope<u64>> = StackWire::Rb(RbMsg::Data(Timed {
        env,
        sent_at: SimTime::ZERO,
    }));
    msg.to_wire()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary garbage: every decoder returns instead of panicking.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_all(&bytes);
    }

    /// Every truncation of a valid encoding fails cleanly (or succeeds,
    /// for the degenerate zero-length prefix of a type with an empty
    /// encoding) — and never panics.
    #[test]
    fn truncations_never_panic(
        origin in 0u32..8,
        seq in 1u64..1024,
        deps in proptest::collection::vec((0u32..8, 1u64..64), 0..5),
        payload in any::<u64>(),
    ) {
        let full = valid_encoding(origin, seq, &deps, payload);
        // The full buffer round-trips.
        prop_assert!(<StackWire<GraphEnvelope<u64>>>::from_wire(&full).is_ok());
        // Every proper prefix is rejected without panicking.
        for cut in 0..full.len() {
            prop_assert!(
                <StackWire<GraphEnvelope<u64>>>::from_wire(&full[..cut]).is_err(),
                "truncation to {cut} bytes decoded successfully"
            );
            let _ = decode_all(&full[..cut]);
        }
    }

    /// Single-byte corruptions at every position: decode returns, and if
    /// it succeeds the value re-encodes (no half-parsed state escapes).
    #[test]
    fn corruptions_never_panic(
        origin in 0u32..8,
        seq in 1u64..1024,
        deps in proptest::collection::vec((0u32..8, 1u64..64), 0..5),
        payload in any::<u64>(),
        flip in any::<u8>(),
    ) {
        let full = valid_encoding(origin, seq, &deps, payload);
        for pos in 0..full.len() {
            let mut mutated = full.clone();
            mutated[pos] ^= flip | 1; // always changes at least one bit
            if let Ok(decoded) = <StackWire<GraphEnvelope<u64>>>::from_wire(&mutated) {
                let _ = decoded.to_wire();
            }
        }
    }

    /// PC link frames face the same adversary: truncations and one-byte
    /// corruptions of a valid `StackWire::Link` encoding of a message or
    /// a run of messages never panic, and every proper prefix is
    /// rejected.
    #[test]
    fn pc_link_frames_survive_truncation_and_corruption(
        origin in 0u32..8,
        seq in 1u64..1024,
        stream_seq in 1u64..1024,
        payloads in proptest::collection::vec(any::<u64>(), 2..5),
        flip in any::<u8>(),
    ) {
        let timed = |k: usize| Timed {
            env: PcEnvelope {
                id: MsgId::new(ProcessId::new(origin), seq + k as u64),
                payload: payloads[k],
            },
            sent_at: SimTime::ZERO,
        };
        let bodies = [
            LinkBody::Msg(timed(0)),
            LinkBody::Run((0..payloads.len()).map(timed).collect()),
        ];
        for body in bodies {
            let msg: StackWire<PcEnvelope<u64>> = StackWire::Link(LinkFrame {
                seq: stream_seq,
                body,
            });
            let full = msg.to_wire();
            prop_assert!(<StackWire<PcEnvelope<u64>>>::from_wire(&full).is_ok());
            for cut in 0..full.len() {
                prop_assert!(
                    <StackWire<PcEnvelope<u64>>>::from_wire(&full[..cut]).is_err(),
                    "truncation to {cut} bytes decoded successfully"
                );
                let _ = decode_all(&full[..cut]);
            }
            for pos in 0..full.len() {
                let mut mutated = full.clone();
                mutated[pos] ^= flip | 1;
                if let Ok(decoded) = <StackWire<PcEnvelope<u64>>>::from_wire(&mutated) {
                    let _ = decoded.to_wire();
                }
            }
        }
    }

    /// The unsequenced link control frames — `Ack` (with and without a
    /// hole bitmap), `Ping`, `Pong` — face the same adversary as the
    /// data frames. These are the arms the `wire-symmetry` lint reasons
    /// about structurally; here the claim is dynamic: each round-trips
    /// exactly, every proper prefix is rejected, and one-byte
    /// corruptions never panic (re-encoding whatever still decodes, so
    /// no half-parsed state escapes).
    #[test]
    fn pc_link_control_frames_survive_truncation_and_corruption(
        stream_seq in 1u64..1024,
        token in any::<u64>(),
        cum in any::<u64>(),
        holes in any::<u64>(),
        delivered in proptest::collection::vec((0u32..16, 1u64..1024), 0..6),
        flip in any::<u8>(),
    ) {
        let bodies: Vec<LinkBody<Timed<PcEnvelope<u64>>>> = vec![
            LinkBody::Ack { cum, holes: 0 },
            LinkBody::Ack { cum, holes },
            LinkBody::Ping { token },
            LinkBody::Pong {
                token,
                delivered: delivered
                    .iter()
                    .map(|&(o, wm)| (ProcessId::new(o), wm))
                    .collect(),
            },
        ];
        for body in bodies {
            let msg: StackWire<PcEnvelope<u64>> = StackWire::Link(LinkFrame {
                seq: stream_seq,
                body,
            });
            let full = msg.to_wire();
            // Exact round-trip: the control frame decodes to a value that
            // re-encodes byte-identically (field order symmetry, dynamically).
            let decoded = <StackWire<PcEnvelope<u64>>>::from_wire(&full);
            prop_assert!(decoded.is_ok());
            prop_assert_eq!(decoded.expect("checked").to_wire(), full.clone());
            for cut in 0..full.len() {
                prop_assert!(
                    <StackWire<PcEnvelope<u64>>>::from_wire(&full[..cut]).is_err(),
                    "truncation to {cut} bytes decoded successfully"
                );
                let _ = decode_all(&full[..cut]);
            }
            for pos in 0..full.len() {
                let mut mutated = full.clone();
                mutated[pos] ^= flip | 1;
                if let Ok(decoded) = <StackWire<PcEnvelope<u64>>>::from_wire(&mutated) {
                    let _ = decoded.to_wire();
                }
            }
        }
    }

    /// The reliable-broadcast ack is fixed-size: with random prefixes
    /// and random SACK and lost bitmaps it round-trips exactly, every
    /// proper prefix is rejected, and one-byte corruptions never panic.
    #[test]
    fn rb_acks_with_random_bitmaps_survive_truncation_and_corruption(
        origin in any::<u32>(),
        cum in any::<u64>(),
        held_from in any::<u64>(),
        held in any::<u64>(),
        lost in any::<u64>(),
        flip in any::<u8>(),
    ) {
        let msg: StackWire<GraphEnvelope<u64>> = StackWire::Rb(RbMsg::Ack(RbAck {
            cum: MsgId::new(ProcessId::new(origin), cum),
            held_from,
            held,
            lost,
        }));
        let full = msg.to_wire();
        // Two tags and 36 bytes of status, whatever the bitmaps hold.
        prop_assert_eq!(full.len(), 38);
        let decoded = <StackWire<GraphEnvelope<u64>>>::from_wire(&full);
        prop_assert_eq!(decoded, Ok(msg));
        for cut in 0..full.len() {
            prop_assert!(
                <StackWire<GraphEnvelope<u64>>>::from_wire(&full[..cut]).is_err(),
                "truncation to {cut} bytes decoded successfully"
            );
            let _ = decode_all(&full[..cut]);
        }
        for pos in 0..full.len() {
            let mut mutated = full.clone();
            mutated[pos] ^= flip | 1;
            if let Ok(decoded) = <StackWire<GraphEnvelope<u64>>>::from_wire(&mutated) {
                let _ = decoded.to_wire();
            }
        }
    }

    /// Trailing garbage after a valid encoding is rejected by from_wire.
    #[test]
    fn trailing_bytes_rejected(
        origin in 0u32..8,
        seq in 1u64..1024,
        extra in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut buf = valid_encoding(origin, seq, &[], 7);
        buf.extend_from_slice(&extra);
        prop_assert!(<StackWire<GraphEnvelope<u64>>>::from_wire(&buf).is_err());
    }
}
