//! Pooled receive buffers and the borrow-decoded frame path.
//!
//! Every established connection accumulates socket bytes in a
//! [`RecvBuf`] checked out of a shard-local [`BufferPool`]. Complete
//! frames are handed out as [`Frame`] views that **borrow the body bytes
//! in place** — the receive hot path never copies a frame body into an
//! owned `Vec`. The only bytes ever moved are the sub-frame leftovers
//! compacted to the buffer front between reads, bounded by one frame size.
//!
//! This module is registered as a wire-panic audit root
//! (`cargo xtask lint`): [`RecvBuf::next_frame`] faces raw network bytes,
//! so it is written in the checked style — `get`-based slicing,
//! `checked_add` length math, no unwraps.

use causal_core::wire::{DecodeError, FrameHeader, WireEncode};

/// A complete frame body borrowed from a connection's receive buffer.
///
/// The view lives only until the next buffer operation, which is exactly
/// the shape that forces zero-copy consumption: decode now, own only
/// what the decoder itself allocates.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    body: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Wraps an already-extracted body (used for loopback self-sends,
    /// which never touch a socket).
    pub fn new(body: &'a [u8]) -> Self {
        Frame { body }
    }

    /// The frame body bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.body
    }

    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the body is empty (empty frames are legal).
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }
}

/// Reassembles length-prefixed frames from a byte stream, in place.
///
/// `storage[start..end]` holds the unconsumed bytes; [`next_frame`]
/// yields borrowed [`Frame`]s and advances `start` past each complete
/// frame without moving memory.
///
/// [`next_frame`]: RecvBuf::next_frame
#[derive(Debug)]
pub struct RecvBuf {
    /// Fixed-length scratch (length == usable size, reused across reads).
    storage: Vec<u8>,
    /// Parse cursor: first unconsumed byte.
    start: usize,
    /// End of valid data.
    end: usize,
}

impl RecvBuf {
    fn from_storage(storage: Vec<u8>) -> Self {
        RecvBuf {
            storage,
            start: 0,
            end: 0,
        }
    }

    /// Extracts the next complete frame, borrowing its body from the
    /// buffer. Returns `Ok(None)` when only a partial frame (or nothing)
    /// is buffered.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on a length prefix above `MAX_FRAME_LEN` — the
    /// stream is desynchronized and the connection must be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame<'_>>, DecodeError> {
        let Some(window) = self.storage.get(self.start..self.end) else {
            return Ok(None);
        };
        if window.len() < FrameHeader::ENCODED_LEN {
            return Ok(None);
        }
        let mut input = window;
        let header = FrameHeader::decode(&mut input)?;
        let body_len = header.len as usize;
        let Some(body) = input.get(..body_len) else {
            return Ok(None); // body not fully buffered yet
        };
        let consumed = FrameHeader::ENCODED_LEN
            .checked_add(body_len)
            .and_then(|c| self.start.checked_add(c));
        let Some(new_start) = consumed else {
            return Err(DecodeError::LengthOutOfRange {
                got: header.len as u64,
            });
        };
        self.start = new_start;
        Ok(Some(Frame { body }))
    }

    /// Returns a writable tail region of at least `min_space` bytes for
    /// the next socket read, compacting leftovers to the front (a copy
    /// bounded by one partial frame) and growing the storage only when a
    /// single frame exceeds it.
    pub fn read_space(&mut self, min_space: usize) -> &mut [u8] {
        if self.start == self.end {
            // Fully drained: reset without any copying.
            self.start = 0;
            self.end = 0;
        }
        if self.storage.len() - self.end < min_space {
            // Compact the partial tail to the front.
            self.storage.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.storage.len() - self.end < min_space {
                // One frame larger than the storage: grow to fit.
                self.storage.resize(self.end + min_space, 0);
            }
        }
        &mut self.storage[self.end..]
    }

    /// Records that a read deposited `n` bytes into the slice returned by
    /// [`read_space`](RecvBuf::read_space).
    pub fn commit_read(&mut self, n: usize) {
        debug_assert!(self.end + n <= self.storage.len());
        self.end = (self.end + n).min(self.storage.len());
    }

    /// Whether every buffered byte has been consumed (the buffer can go
    /// back to the pool).
    pub fn is_drained(&self) -> bool {
        self.start == self.end
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.end - self.start
    }
}

/// A stack of reusable receive buffers, owned by one poller shard (no
/// locking — each shard pools its own).
///
/// Idle connections hold no buffer at all: a [`RecvBuf`] is checked out
/// when bytes arrive and returned as soon as it drains, so a large mostly
/// quiet mesh pays O(active connections) buffer memory, not O(sockets).
#[derive(Debug)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    buf_size: usize,
    max_pooled: usize,
    /// Total checkouts served from the free stack (vs fresh allocations).
    reuses: u64,
    allocs: u64,
}

impl BufferPool {
    /// A pool of `buf_size`-byte buffers keeping at most `max_pooled`
    /// free ones around.
    pub fn new(buf_size: usize, max_pooled: usize) -> Self {
        BufferPool {
            free: Vec::new(),
            buf_size: buf_size.max(FrameHeader::ENCODED_LEN),
            max_pooled,
            reuses: 0,
            allocs: 0,
        }
    }

    /// Checks a buffer out, reusing a pooled one when available.
    pub fn acquire(&mut self) -> RecvBuf {
        match self.free.pop() {
            Some(storage) => {
                self.reuses += 1;
                RecvBuf::from_storage(storage)
            }
            None => {
                self.allocs += 1;
                RecvBuf::from_storage(vec![0; self.buf_size])
            }
        }
    }

    /// Returns a drained buffer to the pool. Buffers that grew past the
    /// pool size (oversized frames) and overflow beyond `max_pooled` are
    /// dropped instead of hoarded.
    pub fn release(&mut self, buf: RecvBuf) {
        let storage = buf.storage;
        if storage.len() == self.buf_size && self.free.len() < self.max_pooled {
            self.free.push(storage);
        }
    }

    /// `(reuses, fresh allocations)` served so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.reuses, self.allocs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends one frame (`header ‖ body`) to `out`.
    fn append_frame(out: &mut Vec<u8>, body: &[u8]) {
        FrameHeader::for_body_len(body.len()).encode(out);
        out.extend_from_slice(body);
    }

    fn feed(rb: &mut RecvBuf, bytes: &[u8]) {
        let space = rb.read_space(bytes.len());
        space[..bytes.len()].copy_from_slice(bytes);
        rb.commit_read(bytes.len());
    }

    #[test]
    fn frames_are_borrowed_from_storage_not_copied() {
        let mut pool = BufferPool::new(4096, 4);
        let mut rb = pool.acquire();
        let mut wire = Vec::new();
        append_frame(&mut wire, b"zero-copy");
        append_frame(&mut wire, b"path");
        feed(&mut rb, &wire);

        let lo = rb.storage.as_ptr() as usize;
        let hi = lo + rb.storage.len();
        let f = rb.next_frame().unwrap().unwrap();
        assert_eq!(f.bytes(), b"zero-copy");
        let p = f.bytes().as_ptr() as usize;
        assert!(
            p >= lo && p + f.len() <= hi,
            "frame body must live inside the recv buffer (no copy)"
        );
        let f = rb.next_frame().unwrap().unwrap();
        assert_eq!(f.bytes(), b"path");
        let p = f.bytes().as_ptr() as usize;
        assert!(p >= lo && p + f.len() <= hi);
        assert!(rb.next_frame().unwrap().is_none());
        assert!(rb.is_drained());
    }

    #[test]
    fn partial_frames_reassemble_across_reads() {
        let mut pool = BufferPool::new(64, 4);
        let mut rb = pool.acquire();
        let mut wire = Vec::new();
        append_frame(&mut wire, b"fragmented-frame-body");
        for chunk in wire.chunks(3) {
            feed(&mut rb, chunk);
        }
        let f = rb.next_frame().unwrap().unwrap();
        assert_eq!(f.bytes(), b"fragmented-frame-body");
        assert!(rb.is_drained());
    }

    #[test]
    fn compaction_preserves_partial_tail() {
        let mut pool = BufferPool::new(32, 4);
        let mut rb = pool.acquire();
        let mut wire = Vec::new();
        append_frame(&mut wire, b"aaaaaaaaaaaaaaaa"); // 20 bytes on the wire
        append_frame(&mut wire, b"bbbbbbbbbbbbbbbb");
        // First read: all of frame a plus a sliver of b.
        feed(&mut rb, &wire[..24]);
        assert_eq!(
            rb.next_frame().unwrap().unwrap().bytes(),
            b"aaaaaaaaaaaaaaaa"
        );
        assert!(rb.next_frame().unwrap().is_none());
        // Second read would overflow the 32-byte storage without
        // compaction; read_space must make room by sliding the tail.
        feed(&mut rb, &wire[24..]);
        assert_eq!(
            rb.next_frame().unwrap().unwrap().bytes(),
            b"bbbbbbbbbbbbbbbb"
        );
        assert!(rb.is_drained());
    }

    #[test]
    fn oversized_frame_grows_storage_and_release_drops_it() {
        let mut pool = BufferPool::new(16, 4);
        let mut rb = pool.acquire();
        let mut wire = Vec::new();
        append_frame(&mut wire, &[7u8; 100]);
        feed(&mut rb, &wire);
        let f = rb.next_frame().unwrap().unwrap();
        assert_eq!(f.len(), 100);
        assert!(rb.is_drained());
        assert!(rb.storage.len() > 16);
        pool.release(rb);
        // The grown buffer was not pooled; the next acquire allocates.
        let (_, allocs_before) = pool.counters();
        let _rb = pool.acquire();
        assert_eq!(pool.counters().1, allocs_before + 1);
    }

    #[test]
    fn bad_length_prefix_is_a_decode_error() {
        let mut pool = BufferPool::new(64, 4);
        let mut rb = pool.acquire();
        feed(&mut rb, &u32::MAX.to_le_bytes());
        assert!(rb.next_frame().is_err());
    }

    #[test]
    fn pool_reuses_released_buffers() {
        let mut pool = BufferPool::new(1024, 2);
        let a = pool.acquire();
        pool.release(a);
        let _b = pool.acquire();
        let (reuses, allocs) = pool.counters();
        assert_eq!((reuses, allocs), (1, 1));
    }
}
