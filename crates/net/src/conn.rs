//! Per-peer link state and the node-facing connection manager.
//!
//! Connections are **directional**: for every ordered pair `(a, b)` of
//! group members, `a` owns one outbound connection to `b`. Links are
//! created **lazily on first send** and all of a node's sockets are
//! driven by the shared [`Reactor`] poller pool — a mostly quiet member
//! of a large group costs a listener and O(live links) queue memory, not
//! threads.
//!
//! Failure policy (unchanged from the thread-per-pair transport): a
//! failed write tears the connection down and the in-flight batch is
//! **dropped**; queued frames ride into the reconnect episode
//! (exponential backoff, bounded attempts), and exhausting an episode
//! drops the queue. The reliable broadcast layer above retransmits on a
//! timer, so dropped frames cost latency, not correctness — mirroring
//! the paper's kernel-interface assumption that the network may lose
//! messages.

use crate::buffer::Frame;
use crate::frame::hello_body;
use crate::reactor::{Reactor, NO_CONN};
use crate::stats::NetStats;
use causal_clocks::ProcessId;
use causal_core::wire::FrameHeader;
use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// How long [`ConnectionManager::shutdown`] waits for every reactor
/// shard to acknowledge closing this node's sockets.
const SHUTDOWN_ACK_DEADLINE: Duration = Duration::from_secs(5);

/// Delay before the first reconnect attempt of an episode; doubles per
/// failure, up to [`BACKOFF_MAX`].
const BACKOFF_INITIAL: Duration = Duration::from_millis(10);

/// Ceiling on the exponential backoff delay.
const BACKOFF_MAX: Duration = Duration::from_millis(500);

/// Connection attempts per reconnect episode: eleven waits, about 3.1 s
/// in all. When they run out, everything queued on the link is dropped
/// (counted in
/// [`LinkSnapshot::send_drops`](crate::stats::LinkSnapshot::send_drops));
/// the next outbound frame starts a fresh episode.
const MAX_CONNECT_RETRIES: u32 = 12;

/// Receives inbound frames as borrowed views of the pooled receive
/// buffers — the zero-copy hand-off point between the reactor's read
/// path and a node's decoder.
///
/// Called on reactor shard threads; implementations decode (or copy, if
/// they must) before returning, because the view dies with the call.
pub trait InboundSink: Send + Sync {
    /// Handles one frame from `from`. Returns `false` when the receiver
    /// is gone and the connection should close.
    fn on_frame(&self, from: ProcessId, frame: Frame<'_>) -> bool;
}

/// One frame queued toward a peer: the 4-byte length header plus the
/// body. Unicast sends own their bytes; multicast fan-out shares one
/// `Arc` encoding across every per-peer queue, and the vectored write
/// path hands both parts to the kernel without re-concatenating them.
pub(crate) struct OutFrame {
    header: [u8; FrameHeader::ENCODED_LEN],
    body: FrameBody,
}

enum FrameBody {
    Owned(Vec<u8>),
    Shared(Arc<[u8]>),
}

impl OutFrame {
    fn with_body(body: FrameBody) -> Self {
        let len = match &body {
            FrameBody::Owned(v) => v.len(),
            FrameBody::Shared(a) => a.len(),
        };
        OutFrame {
            header: FrameHeader::for_body_len(len).encoded(),
            body,
        }
    }

    pub(crate) fn owned(body: Vec<u8>) -> Self {
        Self::with_body(FrameBody::Owned(body))
    }

    pub(crate) fn shared(body: Arc<[u8]>) -> Self {
        Self::with_body(FrameBody::Shared(body))
    }

    /// The identifying handshake frame an initiator sends first.
    pub(crate) fn hello(me: ProcessId) -> Self {
        Self::owned(hello_body(me))
    }

    pub(crate) fn header_bytes(&self) -> &[u8] {
        &self.header
    }

    pub(crate) fn body_bytes(&self) -> &[u8] {
        match &self.body {
            FrameBody::Owned(v) => v,
            FrameBody::Shared(a) => a,
        }
    }

    /// Total bytes this frame occupies on the wire.
    pub(crate) fn wire_len(&self) -> usize {
        FrameHeader::ENCODED_LEN + self.body_bytes().len()
    }
}

/// Connection lifecycle of one link, driven by sender CAS transitions
/// (`Idle → Connecting`) and shard-side completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkMode {
    /// No connection and nothing in flight; the next send starts one.
    Idle,
    /// A connect episode is running (attempt in flight or backoff timer
    /// armed).
    Connecting,
    /// Established; frames flush through the reactor's write path.
    Up,
}

impl LinkMode {
    fn as_u8(self) -> u8 {
        match self {
            LinkMode::Idle => 0,
            LinkMode::Connecting => 1,
            LinkMode::Up => 2,
        }
    }

    fn of_u8(v: u8) -> LinkMode {
        match v {
            1 => LinkMode::Connecting,
            2 => LinkMode::Up,
            _ => LinkMode::Idle,
        }
    }
}

/// Backoff progress of the current connect episode (shard-only).
struct Episode {
    attempts: u32,
    next_delay: Duration,
}

/// Everything shared about one directed link: the outbound frame queue,
/// connection mode, and the live-socket handle used for fault injection.
///
/// Senders (the driver thread) enqueue and flip flags; the link's
/// reactor shard owns connecting, flushing, and teardown.
pub(crate) struct LinkState {
    /// Id of the owning node within the reactor (teardown scoping).
    pub(crate) node_id: u64,
    /// The sending node (named in the Hello handshake).
    pub(crate) me: ProcessId,
    /// The destination.
    pub(crate) peer: ProcessId,
    /// Where the destination listens.
    pub(crate) addr: SocketAddr,
    /// Reactor shard this link's socket lives on.
    pub(crate) shard: usize,
    /// Owning node's shutdown flag (checked by the shard before
    /// reconnecting).
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Owning node's counters.
    pub(crate) stats: Arc<NetStats>,
    /// Slot token of the live/in-progress connection on the shard
    /// ([`NO_CONN`] when none). Written only by the shard thread.
    pub(crate) conn_token: AtomicUsize,
    queue: Mutex<VecDeque<OutFrame>>,
    queued_bytes: AtomicUsize,
    mode: AtomicU8,
    dirty: AtomicBool,
    /// Clone of the currently live outbound stream, for fault injection
    /// ([`ConnectionManager::force_disconnect`]) and shutdown.
    live: Mutex<Option<TcpStream>>,
    ever_connected: AtomicBool,
    episode: Mutex<Episode>,
}

impl LinkState {
    fn new(
        node_id: u64,
        me: ProcessId,
        peer: ProcessId,
        addr: SocketAddr,
        shard: usize,
        shutdown: Arc<AtomicBool>,
        stats: Arc<NetStats>,
    ) -> Self {
        LinkState {
            node_id,
            me,
            peer,
            addr,
            shard,
            shutdown,
            stats,
            conn_token: AtomicUsize::new(NO_CONN),
            queue: Mutex::new(VecDeque::new()),
            queued_bytes: AtomicUsize::new(0),
            mode: AtomicU8::new(LinkMode::Idle.as_u8()),
            dirty: AtomicBool::new(false),
            live: Mutex::new(None),
            ever_connected: AtomicBool::new(false),
            episode: Mutex::new(Episode {
                attempts: 0,
                next_delay: BACKOFF_INITIAL,
            }),
        }
    }

    // -- sender side --------------------------------------------------------

    /// Queues one frame. The queue has no byte cap; what empties it
    /// while the peer is unreachable is an exhausted reconnect episode.
    fn enqueue(&self, frame: OutFrame) {
        self.queued_bytes
            .fetch_add(frame.wire_len(), Ordering::Relaxed);
        self.queue.lock().unwrap().push_back(frame);
    }

    /// `Idle → Connecting`; true when this sender starts the episode.
    fn try_begin_connect(&self) -> bool {
        self.mode
            .compare_exchange(
                LinkMode::Idle.as_u8(),
                LinkMode::Connecting.as_u8(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Flags queued work; true when the flag was clear (shard needs a
    /// wake).
    fn mark_dirty(&self) -> bool {
        !self.dirty.swap(true, Ordering::AcqRel)
    }

    /// Hard-closes the live socket (fault injection / shutdown); the
    /// shard observes the failure through epoll.
    fn kill_live(&self) {
        if let Some(stream) = self.live.lock().unwrap().take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    // -- shard side ---------------------------------------------------------

    pub(crate) fn mode(&self) -> LinkMode {
        LinkMode::of_u8(self.mode.load(Ordering::Acquire))
    }

    pub(crate) fn set_mode(&self, mode: LinkMode) {
        self.mode.store(mode.as_u8(), Ordering::Release);
    }

    pub(crate) fn clear_dirty(&self) {
        self.dirty.store(false, Ordering::Release);
    }

    pub(crate) fn set_live(&self, stream: Option<TcpStream>) {
        *self.live.lock().unwrap() = stream;
    }

    /// Marks the link as having connected at least once; returns whether
    /// it already had (i.e. this establishment is a *re*connect).
    ///
    /// AcqRel: the "was this a reconnect" answer orders against the
    /// connection state published by whichever thread established the
    /// previous episode.
    pub(crate) fn mark_connected(&self) -> bool {
        self.ever_connected.swap(true, Ordering::AcqRel)
    }

    pub(crate) fn record_reconnect(&self) {
        if let Some(l) = self.stats.link(self.peer) {
            l.record_reconnect();
        }
    }

    pub(crate) fn record_drops(&self, n: u64) {
        if n > 0 {
            if let Some(l) = self.stats.link(self.peer) {
                l.record_send_drops(n);
            }
        }
    }

    pub(crate) fn has_queued(&self) -> bool {
        self.queued_bytes.load(Ordering::Relaxed) > 0
    }

    /// Moves everything queued into the shard's in-flight queue.
    pub(crate) fn drain_queue_into(&self, dst: &mut VecDeque<OutFrame>) {
        let mut q = self.queue.lock().unwrap();
        while let Some(frame) = q.pop_front() {
            self.queued_bytes
                .fetch_sub(frame.wire_len(), Ordering::Relaxed);
            dst.push_back(frame);
        }
    }

    /// Drops everything queued, counting the frames as send drops (an
    /// exhausted reconnect episode or node teardown).
    pub(crate) fn abandon_queue(&self) {
        let dropped = {
            let mut q = self.queue.lock().unwrap();
            std::mem::take(&mut *q)
        };
        let bytes: usize = dropped.iter().map(OutFrame::wire_len).sum();
        self.queued_bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.record_drops(dropped.len() as u64);
    }

    /// Starts a fresh backoff schedule for a new connect episode.
    pub(crate) fn episode_reset(&self) {
        let mut ep = self.episode.lock().unwrap();
        ep.attempts = 0;
        ep.next_delay = BACKOFF_INITIAL;
    }

    /// Books one failed attempt. Returns the delay before the next one,
    /// or `None` when the episode's retry budget is exhausted.
    pub(crate) fn episode_next_delay(&self) -> Option<Duration> {
        let mut ep = self.episode.lock().unwrap();
        ep.attempts += 1;
        if ep.attempts >= MAX_CONNECT_RETRIES {
            return None;
        }
        let delay = ep.next_delay;
        ep.next_delay = (delay * 2).min(BACKOFF_MAX);
        Some(delay)
    }
}

/// The per-node slice of transport shared by every link and inbound
/// connection of one node: identity, counters, shutdown flag, and the
/// frame sink.
pub(crate) struct NodeCore {
    /// Reactor-unique id scoping this node's sockets for teardown.
    pub(crate) id: u64,
    pub(crate) me: ProcessId,
    pub(crate) stats: Arc<NetStats>,
    pub(crate) sink: Arc<dyn InboundSink>,
    pub(crate) shutdown: Arc<AtomicBool>,
}

/// Owns one node's transport face: lazily created per-peer links, the
/// listener registration, and shutdown. All sockets are driven by the
/// [`Reactor`] passed at start — this type spawns **no threads**.
///
/// All methods take `&self`; the manager is shared between the driver
/// thread and the controlling [`NodeHandle`](crate::node::NodeHandle)
/// through an `Arc`.
pub struct ConnectionManager {
    core: Arc<NodeCore>,
    peer_addrs: Vec<SocketAddr>,
    links: Vec<OnceLock<Arc<LinkState>>>,
    reactor: Arc<Reactor>,
    stopped: AtomicBool,
}

impl std::fmt::Debug for ConnectionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnectionManager")
            .field("me", &self.core.me)
            .field("peers", &self.links.len())
            .finish_non_exhaustive()
    }
}

impl ConnectionManager {
    /// Registers node `me` on `reactor`. `peer_addrs` is indexed by
    /// [`ProcessId`] and must include an entry for `me` itself (ignored —
    /// self-sends loop straight into `sink` without touching a socket).
    /// Inbound frames arrive on `sink` from reactor shard threads.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures.
    pub fn start(
        me: ProcessId,
        listener: TcpListener,
        peer_addrs: &[SocketAddr],
        stats: Arc<NetStats>,
        sink: Arc<dyn InboundSink>,
        reactor: Arc<Reactor>,
    ) -> io::Result<Self> {
        let core = Arc::new(NodeCore {
            id: reactor.next_node_id(),
            me,
            stats,
            sink,
            shutdown: Arc::new(AtomicBool::new(false)),
        });
        let shard = reactor.assign_shard();
        reactor.add_listener(shard, listener, Arc::clone(&core))?;
        Ok(ConnectionManager {
            core,
            peer_addrs: peer_addrs.to_vec(),
            links: peer_addrs.iter().map(|_| OnceLock::new()).collect(),
            reactor,
            stopped: AtomicBool::new(false),
        })
    }

    /// The link toward `to`, created on first use (`None` for self or an
    /// out-of-range id).
    fn link_for(&self, to: ProcessId) -> Option<&Arc<LinkState>> {
        if to == self.core.me {
            return None;
        }
        let slot = self.links.get(to.as_usize())?;
        let addr = *self.peer_addrs.get(to.as_usize())?;
        Some(slot.get_or_init(|| {
            Arc::new(LinkState::new(
                self.core.id,
                self.core.me,
                to,
                addr,
                self.reactor.assign_shard(),
                Arc::clone(&self.core.shutdown),
                Arc::clone(&self.core.stats),
            ))
        }))
    }

    /// Queues `frame` toward `to` and nudges the link's shard: a clean
    /// link gets a connect request, a live one a dirty-flag wake (at
    /// most one per flush cycle — the flag stays set until the shard
    /// drains the queue).
    fn dispatch(&self, to: ProcessId, frame: OutFrame) {
        if self.core.shutdown.load(Ordering::SeqCst) {
            if let Some(l) = self.core.stats.link(to) {
                l.record_send_drop();
            }
            return;
        }
        let Some(link) = self.link_for(to) else {
            if let Some(l) = self.core.stats.link(to) {
                l.record_send_drop();
            }
            return;
        };
        link.enqueue(frame);
        if link.try_begin_connect() {
            link.mark_dirty();
            self.reactor.request_connect(Arc::clone(link));
        } else if link.mark_dirty() {
            self.reactor.mark_dirty(Arc::clone(link));
        }
    }

    /// Hands an encoded message body to the link toward `to`. Self-sends
    /// loop straight into the sink as a borrowed frame.
    pub fn send_to(&self, to: ProcessId, body: Vec<u8>) {
        if let Some(link) = self.core.stats.link(to) {
            link.record_sent(body.len());
        }
        if to == self.core.me {
            self.core.sink.on_frame(self.core.me, Frame::new(&body));
            return;
        }
        self.dispatch(to, OutFrame::owned(body));
    }

    /// Hands one encoded body to every link in `targets` without copying
    /// it: each per-peer queue gets a reference to the same shared bytes
    /// and the vectored write path sends them in place. A self target
    /// loops straight into the sink.
    pub fn multicast(&self, targets: &[ProcessId], body: Arc<[u8]>) {
        for &to in targets {
            if let Some(link) = self.core.stats.link(to) {
                link.record_sent(body.len());
            }
            if to == self.core.me {
                self.core.sink.on_frame(self.core.me, Frame::new(&body));
                continue;
            }
            self.dispatch(to, OutFrame::shared(Arc::clone(&body)));
        }
    }

    /// Fault injection: hard-closes the live outbound connection to `to`
    /// (both directions of the socket), as if the network cut it. The
    /// link's shard notices through epoll and reconnects with backoff if
    /// frames are queued or the next send arrives.
    pub fn force_disconnect(&self, to: ProcessId) {
        if let Some(Some(link)) = self.links.get(to.as_usize()).map(OnceLock::get) {
            link.kill_live();
        }
    }

    /// Closes every socket this node owns and waits (bounded) for its
    /// reactor shards to acknowledge. Idempotent; spawns nothing, joins
    /// nothing — the shared reactor keeps running for other nodes.
    pub fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        self.core.shutdown.store(true, Ordering::SeqCst);
        for link in self.links.iter().filter_map(OnceLock::get) {
            link.kill_live();
        }
        self.reactor.drop_node(self.core.id, SHUTDOWN_ACK_DEADLINE);
    }
}
