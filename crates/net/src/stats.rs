//! Per-link transport counters.
//!
//! Counters are lock-free atomics shared between the writer, reader, and
//! driver threads; [`NetStats::snapshot`] reads them at a single point for
//! reporting. Relaxed ordering suffices — the counters are monotonic and
//! independently meaningful.

use causal_clocks::ProcessId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters for one directed link (this node → one peer, plus what
/// this node received *from* that peer).
#[derive(Debug, Default)]
pub struct LinkStats {
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_recv: AtomicU64,
    bytes_recv: AtomicU64,
    reconnects: AtomicU64,
    send_drops: AtomicU64,
    writes: AtomicU64,
    frames_written: AtomicU64,
    bytes_written: AtomicU64,
}

impl LinkStats {
    pub(crate) fn record_sent(&self, bytes: usize) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_recv(&self, bytes: usize) {
        self.msgs_recv.fetch_add(1, Ordering::Relaxed);
        self.bytes_recv.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_send_drop(&self) {
        self.send_drops.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_send_drops(&self, n: u64) {
        self.send_drops.fetch_add(n, Ordering::Relaxed);
    }

    /// One successful socket write that carried `frames` coalesced frames
    /// totalling `bytes` on the wire (headers included).
    pub(crate) fn record_write(&self, frames: u64, bytes: u64) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.frames_written.fetch_add(frames, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one link's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkSnapshot {
    /// Frames handed to the link for transmission.
    pub msgs_sent: u64,
    /// Frame-body bytes handed to the link.
    pub bytes_sent: u64,
    /// Frames received from this peer.
    pub msgs_recv: u64,
    /// Frame-body bytes received from this peer.
    pub bytes_recv: u64,
    /// Connections re-established after a previously live one failed.
    pub reconnects: u64,
    /// Frames dropped because the link was down (the reliability layer
    /// above retransmits, so drops cost latency, not correctness).
    pub send_drops: u64,
    /// Socket writes issued (each one `write_all` + flush of a batch).
    pub writes: u64,
    /// Frames carried by those writes. `frames_written / writes` is the
    /// coalescing factor — above 1 means batching is happening.
    pub frames_written: u64,
    /// Wire bytes carried by those writes, frame headers included.
    pub bytes_written: u64,
}

impl LinkSnapshot {
    /// Mean frames per socket write (1.0 when nothing was written).
    pub fn frames_per_write(&self) -> f64 {
        if self.writes == 0 {
            1.0
        } else {
            self.frames_written as f64 / self.writes as f64
        }
    }
}

/// Reactor-level counters: the event-loop's own syscall economy, shared
/// by every node riding the same poller pool.
///
/// These are reactor-wide (one poller pool can drive many nodes), so a
/// node's [`NetSnapshot`] carries a copy of the pool it runs on.
#[derive(Debug, Default)]
pub struct ReactorStats {
    epoll_waits: AtomicU64,
    epoll_wakeups: AtomicU64,
    wake_notifies: AtomicU64,
    read_syscalls: AtomicU64,
    writev_syscalls: AtomicU64,
    accepts: AtomicU64,
    connects_started: AtomicU64,
    timer_fires: AtomicU64,
}

impl ReactorStats {
    pub(crate) fn record_epoll_wait(&self, events: usize) {
        self.epoll_waits.fetch_add(1, Ordering::Relaxed);
        if events > 0 {
            self.epoll_wakeups.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_wake_notify(&self) {
        self.wake_notifies.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_read_syscall(&self) {
        self.read_syscalls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_writev_syscall(&self) {
        self.writev_syscalls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_accept(&self) {
        self.accepts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_connect_started(&self) {
        self.connects_started.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_timer_fire(&self) {
        self.timer_fires.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the reactor counters at one point in time.
    pub fn snapshot(&self) -> ReactorSnapshot {
        ReactorSnapshot {
            epoll_waits: self.epoll_waits.load(Ordering::Relaxed),
            epoll_wakeups: self.epoll_wakeups.load(Ordering::Relaxed),
            wake_notifies: self.wake_notifies.load(Ordering::Relaxed),
            read_syscalls: self.read_syscalls.load(Ordering::Relaxed),
            writev_syscalls: self.writev_syscalls.load(Ordering::Relaxed),
            accepts: self.accepts.load(Ordering::Relaxed),
            connects_started: self.connects_started.load(Ordering::Relaxed),
            timer_fires: self.timer_fires.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a reactor's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorSnapshot {
    /// `epoll_wait` calls issued across all shards.
    pub epoll_waits: u64,
    /// `epoll_wait` returns that carried at least one event.
    pub epoll_wakeups: u64,
    /// Cross-thread `eventfd` wakes issued by senders toward shards.
    pub wake_notifies: u64,
    /// `read` syscalls issued on connections.
    pub read_syscalls: u64,
    /// `writev` syscalls issued on connections.
    pub writev_syscalls: u64,
    /// Connections accepted.
    pub accepts: u64,
    /// Outbound connection attempts started.
    pub connects_started: u64,
    /// Reactor timers fired (reconnect backoff, Hello deadlines).
    pub timer_fires: u64,
}

/// Live counters for one node's transport: a [`LinkStats`] per peer plus
/// node-level receive-path and decode counters.
#[derive(Debug)]
pub struct NetStats {
    links: Vec<LinkStats>,
    decode_errors: AtomicU64,
    bytes_read: AtomicU64,
    frames_borrowed: AtomicU64,
}

impl NetStats {
    /// Counters for a group of `n` members.
    pub fn new(n: usize) -> Self {
        NetStats {
            links: (0..n).map(|_| LinkStats::default()).collect(),
            decode_errors: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            frames_borrowed: AtomicU64::new(0),
        }
    }

    /// The counters of the link to/from `peer`, if `peer` is in range.
    pub(crate) fn link(&self, peer: ProcessId) -> Option<&LinkStats> {
        self.links.get(peer.as_usize())
    }

    pub(crate) fn record_decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_bytes_read(&self, n: u64) {
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// One frame handed to the sink as a borrowed view of the pooled
    /// receive buffer — the zero-copy path.
    pub(crate) fn record_frame_borrowed(&self) {
        self.frames_borrowed.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies all counters at one point in time. `reactor` is the pool
    /// this node's sockets run on.
    pub fn snapshot_with(&self, reactor: ReactorSnapshot) -> NetSnapshot {
        NetSnapshot {
            links: self
                .links
                .iter()
                .map(|l| LinkSnapshot {
                    msgs_sent: l.msgs_sent.load(Ordering::Relaxed),
                    bytes_sent: l.bytes_sent.load(Ordering::Relaxed),
                    msgs_recv: l.msgs_recv.load(Ordering::Relaxed),
                    bytes_recv: l.bytes_recv.load(Ordering::Relaxed),
                    reconnects: l.reconnects.load(Ordering::Relaxed),
                    send_drops: l.send_drops.load(Ordering::Relaxed),
                    writes: l.writes.load(Ordering::Relaxed),
                    frames_written: l.frames_written.load(Ordering::Relaxed),
                    bytes_written: l.bytes_written.load(Ordering::Relaxed),
                })
                .collect(),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            frames_borrowed: self.frames_borrowed.load(Ordering::Relaxed),
            reactor,
        }
    }

    /// Copies all counters with no attached reactor (unit tests).
    pub fn snapshot(&self) -> NetSnapshot {
        self.snapshot_with(ReactorSnapshot::default())
    }
}

/// Point-in-time copy of a node's transport counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// One entry per group member, indexed by [`ProcessId`]; a node's own
    /// entry counts loopback self-sends.
    pub links: Vec<LinkSnapshot>,
    /// Frames or message bodies that failed to decode.
    pub decode_errors: u64,
    /// Socket bytes read for this node (frame headers included).
    pub bytes_read: u64,
    /// Frames delivered to the decode sink as borrowed views of pooled
    /// receive buffers — the zero-copy receive path. Equal to
    /// [`total_recv`](Self::total_recv) when every frame a node received
    /// came over a socket (see `tests/tcp_cluster.rs`).
    pub frames_borrowed: u64,
    /// Counters of the reactor (poller pool) this node's sockets run on.
    /// Reactor-wide: nodes sharing a pool see the same numbers.
    pub reactor: ReactorSnapshot,
}

impl NetSnapshot {
    /// Total frames sent across all links.
    pub fn total_sent(&self) -> u64 {
        self.links.iter().map(|l| l.msgs_sent).sum()
    }

    /// Total frames received across all links.
    pub fn total_recv(&self) -> u64 {
        self.links.iter().map(|l| l.msgs_recv).sum()
    }

    /// Total socket writes across all links.
    pub fn total_writes(&self) -> u64 {
        self.links.iter().map(|l| l.writes).sum()
    }

    /// Total frames carried by socket writes across all links.
    pub fn total_frames_written(&self) -> u64 {
        self.links.iter().map(|l| l.frames_written).sum()
    }

    /// Mean frames per socket write across all links (1.0 if none).
    pub fn frames_per_write(&self) -> f64 {
        let writes = self.total_writes();
        if writes == 0 {
            1.0
        } else {
            self.total_frames_written() as f64 / writes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_into_snapshot() {
        let stats = NetStats::new(2);
        let link = stats.link(ProcessId::new(1)).unwrap();
        link.record_sent(10);
        link.record_sent(5);
        link.record_recv(3);
        link.record_reconnect();
        link.record_send_drop();
        link.record_send_drops(2);
        link.record_write(3, 100);
        link.record_write(1, 20);
        stats.record_decode_error();

        let snap = stats.snapshot();
        assert_eq!(snap.links[1].msgs_sent, 2);
        assert_eq!(snap.links[1].bytes_sent, 15);
        assert_eq!(snap.links[1].msgs_recv, 1);
        assert_eq!(snap.links[1].bytes_recv, 3);
        assert_eq!(snap.links[1].reconnects, 1);
        assert_eq!(snap.links[1].send_drops, 3);
        assert_eq!(snap.links[1].writes, 2);
        assert_eq!(snap.links[1].frames_written, 4);
        assert_eq!(snap.links[1].bytes_written, 120);
        assert_eq!(snap.links[1].frames_per_write(), 2.0);
        assert_eq!(snap.decode_errors, 1);
        assert_eq!(snap.total_sent(), 2);
        assert_eq!(snap.total_writes(), 2);
        assert_eq!(snap.total_frames_written(), 4);
        assert_eq!(snap.frames_per_write(), 2.0);
        // A link that never wrote reports the neutral ratio.
        assert_eq!(snap.links[0].frames_per_write(), 1.0);
        assert!(stats.link(ProcessId::new(9)).is_none());
    }
}
