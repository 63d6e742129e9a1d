//! The connection handshake: the identifying `Hello` frame body.
//!
//! Frames on a connection are `u32-LE body length ‖ body`, the
//! [`FrameHeader`](causal_core::wire::FrameHeader) codec from
//! `causal-core`'s wire module; the reactor reassembles them in pooled
//! receive buffers ([`RecvBuf`](crate::buffer::RecvBuf)). The first frame
//! an initiator sends is a `Hello` naming it, built by [`hello_body`] and
//! checked by [`parse_hello`].

use causal_clocks::ProcessId;
use causal_core::wire::{get_u32_le, DecodeError};

/// First bytes of every connection: identifies the protocol ("CNE" + version).
pub const HELLO_MAGIC: u32 = u32::from_le_bytes(*b"CNE1");

/// The body of the identifying `Hello` frame an initiator sends first.
pub fn hello_body(me: ProcessId) -> Vec<u8> {
    let mut body = Vec::with_capacity(8);
    body.extend_from_slice(&HELLO_MAGIC.to_le_bytes());
    body.extend_from_slice(&me.as_u32().to_le_bytes());
    body
}

/// Parses a `Hello` body back into the initiator's id.
///
/// # Errors
///
/// [`DecodeError`] on truncation, bad magic, or trailing bytes.
pub fn parse_hello(body: &[u8]) -> Result<ProcessId, DecodeError> {
    let mut input = body;
    let magic = get_u32_le(&mut input)?;
    if magic != HELLO_MAGIC {
        return Err(DecodeError::InvalidTag {
            got: magic.to_le_bytes()[0],
        });
    }
    let id = ProcessId::new(get_u32_le(&mut input)?);
    if input.is_empty() {
        Ok(id)
    } else {
        Err(DecodeError::LengthOutOfRange {
            got: input.len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrip_and_rejection() {
        let body = hello_body(ProcessId::new(9));
        assert_eq!(parse_hello(&body).unwrap(), ProcessId::new(9));
        assert!(parse_hello(&body[..6]).is_err());
        let mut bad = body.clone();
        bad[0] ^= 0xFF;
        assert!(parse_hello(&bad).is_err());
    }
}
