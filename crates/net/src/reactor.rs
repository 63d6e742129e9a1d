//! The event loop: a small sharded poller pool driving every connection.
//!
//! One [`Reactor`] owns `poller_shards` threads, each running an `epoll`
//! loop over its share of listeners and connections plus an `eventfd`
//! waker. All nodes of a process can share one reactor (see
//! [`LoopbackCluster`](crate::LoopbackCluster)), so transport thread
//! count is **O(shards)** regardless of group size — against the
//! O(n²) reader/writer threads of the old thread-per-directed-pair
//! transport.
//!
//! Responsibilities per shard:
//!
//! - **accept**: non-blocking listeners; each accepted socket waits for
//!   its `Hello` frame under a deadline timer, then feeds decoded frames
//!   to its node's sink;
//! - **connect**: non-blocking `connect` driven to completion by
//!   `EPOLLOUT`, with exponential-backoff retry timers and the same
//!   bounded-episode drop semantics as the old blocking transport;
//! - **read**: sockets drain into pooled [`RecvBuf`]s and frames are
//!   borrow-decoded in place — zero frame-body copies;
//! - **write**: per-link queues flush through vectored `writev` batches
//!   over the encode-once frame bytes (headers and shared `Arc<[u8]>`
//!   bodies as separate iovecs — no coalescing copy either).
//!
//! Cross-thread input arrives two ways: a command queue (listen /
//! connect / drop-node) and a dirty-link list (links with newly queued
//! frames); both are drained after every `eventfd` wake.

use crate::buffer::{BufferPool, RecvBuf};
use crate::config::TcpConfig;
use crate::conn::{LinkMode, LinkState, NodeCore, OutFrame};
use crate::frame::parse_hello;
use crate::stats::{ReactorSnapshot, ReactorStats};
use crate::sys::{self, EpollEvent};
use std::collections::{BinaryHeap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token value reserved for each shard's eventfd waker.
const WAKER_TOKEN: u64 = u64::MAX;
/// Sentinel for "link has no live connection slot".
pub(crate) const NO_CONN: usize = usize::MAX;
/// Events fetched per `epoll_wait`.
const EVENT_BATCH: usize = 256;
/// Scratch size for draining unexpected inbound bytes on outbound links.
const DISCARD_BUF: usize = 4096;
/// The idle `epoll_wait` ceiling: with no timer due, a shard still wakes
/// this often.
const IDLE_WAIT: Duration = Duration::from_millis(200);
/// How long an accepted connection may sit silent before its identifying
/// `Hello` frame must have arrived.
const HELLO_TIMEOUT: Duration = Duration::from_secs(2);
/// Ceiling on the bytes of one vectored write batch: the shard gathers
/// queued frames into at most this many bytes of `writev` iovecs per
/// syscall. Batching only coalesces what is already queued, so it never
/// adds latency; the cap keeps one connection from monopolizing its
/// shard.
const MAX_BATCH_BYTES: usize = 256 * 1024;
/// Size of each pooled receive buffer, and the minimum space offered to
/// every socket read.
const RECV_BUFFER_BYTES: usize = 64 * 1024;
/// Free receive buffers each shard keeps for reuse.
const RECV_POOL_BUFFERS: usize = 64;

// ---------------------------------------------------------------------------
// Public reactor handle
// ---------------------------------------------------------------------------

/// A sharded epoll poller pool. Create once (per process or per node),
/// share via `Arc`; dropping the last handle stops the shard threads.
pub struct Reactor {
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("shards", &self.shared.shards.len())
            .finish_non_exhaustive()
    }
}

struct Shared {
    shards: Vec<ShardHandle>,
    shutdown: AtomicBool,
    next_shard: AtomicUsize,
    next_node: AtomicU64,
    stats: Arc<ReactorStats>,
}

/// The cross-thread face of one shard.
struct ShardHandle {
    inject: Mutex<Vec<Cmd>>,
    dirty: Mutex<Vec<Arc<LinkState>>>,
    waker: sys::EventFd,
}

impl ShardHandle {
    fn push_cmd(&self, cmd: Cmd) {
        self.inject.lock().unwrap().push(cmd);
    }

    fn push_dirty(&self, link: Arc<LinkState>) {
        self.dirty.lock().unwrap().push(link);
    }

    fn take_cmds(&self) -> Vec<Cmd> {
        std::mem::take(&mut *self.inject.lock().unwrap())
    }

    fn take_dirty(&self) -> Vec<Arc<LinkState>> {
        std::mem::take(&mut *self.dirty.lock().unwrap())
    }
}

enum Cmd {
    Listen {
        listener: TcpListener,
        node: Arc<NodeCore>,
    },
    Connect {
        link: Arc<LinkState>,
    },
    DropNode {
        node_id: u64,
        latch: Arc<Latch>,
    },
}

impl Reactor {
    /// Boots the poller pool: `config.poller_shards` event-loop threads
    /// (at least one).
    ///
    /// # Errors
    ///
    /// Propagates `epoll`/`eventfd` creation failures.
    pub fn start(config: &TcpConfig) -> io::Result<Arc<Reactor>> {
        let n = config.poller_shards.max(1);
        let mut handles = Vec::with_capacity(n);
        for _ in 0..n {
            handles.push(ShardHandle {
                inject: Mutex::new(Vec::new()),
                dirty: Mutex::new(Vec::new()),
                waker: sys::EventFd::new()?,
            });
        }
        let shared = Arc::new(Shared {
            shards: handles,
            shutdown: AtomicBool::new(false),
            next_shard: AtomicUsize::new(0),
            next_node: AtomicU64::new(1),
            stats: Arc::new(ReactorStats::default()),
        });
        let mut threads = Vec::with_capacity(n);
        for idx in 0..n {
            let shard = Shard::new(idx, Arc::clone(&shared))?;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("causal-net-shard-{idx}"))
                    .spawn(move || shard.run())?,
            );
        }
        Ok(Arc::new(Reactor {
            shared,
            threads: Mutex::new(threads),
        }))
    }

    /// Snapshot of the pool-wide event-loop counters.
    pub fn stats(&self) -> ReactorSnapshot {
        self.shared.stats.snapshot()
    }

    /// Allocates a process-unique node id.
    pub(crate) fn next_node_id(&self) -> u64 {
        self.shared.next_node.fetch_add(1, Ordering::Relaxed)
    }

    /// Picks the shard for the next listener or link (round-robin).
    pub(crate) fn assign_shard(&self) -> usize {
        self.shared.next_shard.fetch_add(1, Ordering::Relaxed) % self.shared.shards.len()
    }

    /// Registers a node's listener on shard `shard`.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures.
    pub(crate) fn add_listener(
        &self,
        shard: usize,
        listener: TcpListener,
        node: Arc<NodeCore>,
    ) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        self.dispatch(shard, Cmd::Listen { listener, node });
        Ok(())
    }

    /// Asks `link`'s shard to start a connect episode.
    pub(crate) fn request_connect(&self, link: Arc<LinkState>) {
        let shard = link.shard;
        self.dispatch(shard, Cmd::Connect { link });
    }

    /// Flags `link` as having queued frames and wakes its shard.
    pub(crate) fn mark_dirty(&self, link: Arc<LinkState>) {
        let shard = link.shard;
        if let Some(h) = self.shared.shards.get(shard) {
            h.push_dirty(link);
            self.shared.stats.record_wake_notify();
            h.waker.notify();
        }
    }

    /// Closes every socket, listener, and timer belonging to `node_id`,
    /// blocking (bounded) until all shards acknowledge. Part of a node's
    /// prompt-shutdown path.
    pub(crate) fn drop_node(&self, node_id: u64, deadline: Duration) {
        let latch = Arc::new(Latch::new(self.shared.shards.len()));
        for h in &self.shared.shards {
            h.push_cmd(Cmd::DropNode {
                node_id,
                latch: Arc::clone(&latch),
            });
            self.shared.stats.record_wake_notify();
            h.waker.notify();
        }
        latch.wait(deadline);
    }

    fn dispatch(&self, shard: usize, cmd: Cmd) {
        if let Some(h) = self.shared.shards.get(shard) {
            h.push_cmd(cmd);
            self.shared.stats.record_wake_notify();
            h.waker.notify();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for h in &self.shared.shards {
            h.waker.notify();
        }
        for t in self.threads.lock().unwrap().drain(..) {
            let _ = t.join();
        }
    }
}

/// Count-down latch for synchronous cross-shard operations.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(n: usize) -> Self {
        Latch {
            remaining: Mutex::new(n),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().unwrap();
        *left = left.saturating_sub(1);
        if *left == 0 {
            self.done.notify_all();
        }
    }

    /// Waits until the count reaches zero or `deadline` elapses.
    fn wait(&self, deadline: Duration) {
        let until = Instant::now() + deadline;
        let mut left = self.remaining.lock().unwrap();
        while *left > 0 {
            let now = Instant::now();
            if now >= until {
                return;
            }
            let (guard, _) = self.done.wait_timeout(left, until - now).unwrap();
            left = guard;
        }
    }
}

// ---------------------------------------------------------------------------
// Shard event loop
// ---------------------------------------------------------------------------

struct Slot {
    gen: u64,
    kind: SlotKind,
}

enum SlotKind {
    Listener {
        listener: TcpListener,
        node: Arc<NodeCore>,
    },
    /// Accepted connection; `from` is `None` until the Hello frame lands.
    Inbound {
        stream: TcpStream,
        node: Arc<NodeCore>,
        from: Option<causal_clocks::ProcessId>,
        recv: Option<RecvBuf>,
    },
    /// Outbound connect in flight (`EPOLLOUT` completes it).
    Connecting {
        stream: TcpStream,
        link: Arc<LinkState>,
    },
    /// Established outbound link carrying the write queue.
    Outbound {
        stream: TcpStream,
        link: Arc<LinkState>,
        inflight: VecDeque<OutFrame>,
        /// Wire bytes of the front in-flight frame already written.
        inflight_off: usize,
        /// Whether `EPOLLOUT` is currently armed.
        want_write: bool,
    },
}

struct TimerEntry {
    at: Instant,
    seq: u64,
    kind: TimerKind,
}

enum TimerKind {
    /// Next attempt of a connect episode.
    Reconnect { link: Arc<LinkState> },
    /// An accepted connection must have identified itself by now.
    HelloDeadline { token: usize, gen: u64 },
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct Shard {
    idx: usize,
    epoll: sys::Epoll,
    shared: Arc<Shared>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    next_gen: u64,
    timers: BinaryHeap<TimerEntry>,
    timer_seq: u64,
    pool: BufferPool,
}

impl Shard {
    fn new(idx: usize, shared: Arc<Shared>) -> io::Result<Self> {
        let epoll = sys::Epoll::new()?;
        epoll.add(shared.shards[idx].waker.raw(), sys::EV_READ, WAKER_TOKEN)?;
        Ok(Shard {
            idx,
            epoll,
            shared,
            slots: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            pool: BufferPool::new(RECV_BUFFER_BYTES, RECV_POOL_BUFFERS),
        })
    }

    fn run(mut self) {
        let mut events = vec![EpollEvent::default(); EVENT_BATCH];
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.teardown_all();
                return;
            }
            let timeout = self.next_timeout();
            let n = self.epoll.wait(&mut events, Some(timeout)).unwrap_or(0);
            self.shared.stats.record_epoll_wait(n);
            for ev in &events[..n] {
                if ev.token() == WAKER_TOKEN {
                    self.shared.shards[self.idx].waker.drain();
                }
            }
            self.process_inject();
            for ev in &events[..n] {
                if ev.token() != WAKER_TOKEN {
                    self.handle_event(ev.token() as usize, ev.events());
                }
            }
            self.fire_timers();
            self.process_dirty();
        }
    }

    /// Sleep no longer than the next timer or the idle poll ceiling.
    fn next_timeout(&self) -> Duration {
        match self.timers.peek() {
            Some(t) => {
                t.at.saturating_duration_since(Instant::now())
                    .min(IDLE_WAIT)
            }
            None => IDLE_WAIT,
        }
    }

    // -- slot bookkeeping ---------------------------------------------------

    fn insert_slot(&mut self, kind: SlotKind) -> usize {
        self.next_gen += 1;
        let slot = Slot {
            gen: self.next_gen,
            kind,
        };
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        }
    }

    fn remove_slot(&mut self, token: usize) -> Option<Slot> {
        let slot = self.slots.get_mut(token)?.take()?;
        self.free.push(token);
        Some(slot)
    }

    // -- cross-thread input -------------------------------------------------

    fn process_inject(&mut self) {
        let cmds = self.shared.shards[self.idx].take_cmds();
        for cmd in cmds {
            match cmd {
                Cmd::Listen { listener, node } => {
                    let fd = listener.as_raw_fd();
                    let token = self.insert_slot(SlotKind::Listener { listener, node });
                    if self.epoll.add(fd, sys::EV_READ, token as u64).is_err() {
                        self.remove_slot(token);
                    }
                }
                Cmd::Connect { link } => {
                    if link.shutdown.load(Ordering::SeqCst) {
                        link.abandon_queue();
                        continue;
                    }
                    link.episode_reset();
                    self.attempt_connect(link);
                }
                Cmd::DropNode { node_id, latch } => {
                    self.drop_node_conns(node_id);
                    latch.count_down();
                }
            }
        }
    }

    fn process_dirty(&mut self) {
        let links = self.shared.shards[self.idx].take_dirty();
        for link in links {
            let token = link.conn_token.load(Ordering::Relaxed);
            if token != NO_CONN {
                self.flush_conn(token);
            }
        }
    }

    fn drop_node_conns(&mut self, node_id: u64) {
        let tokens: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let s = s.as_ref()?;
                let owner = match &s.kind {
                    SlotKind::Listener { node, .. } | SlotKind::Inbound { node, .. } => node.id,
                    SlotKind::Connecting { link, .. } | SlotKind::Outbound { link, .. } => {
                        link.node_id
                    }
                };
                (owner == node_id).then_some(i)
            })
            .collect();
        for token in tokens {
            self.close_slot(token);
        }
    }

    /// Closes and frees one slot, whatever its kind.
    fn close_slot(&mut self, token: usize) {
        let Some(slot) = self.remove_slot(token) else {
            return;
        };
        match slot.kind {
            SlotKind::Listener { listener, .. } => {
                self.epoll.delete(listener.as_raw_fd());
            }
            SlotKind::Inbound { stream, recv, .. } => {
                self.epoll.delete(stream.as_raw_fd());
                if let Some(rb) = recv {
                    self.pool.release(rb);
                }
            }
            SlotKind::Connecting { stream, link } => {
                self.epoll.delete(stream.as_raw_fd());
                link.conn_token.store(NO_CONN, Ordering::Relaxed);
                link.set_mode(LinkMode::Idle);
                link.abandon_queue();
            }
            SlotKind::Outbound {
                stream,
                link,
                inflight,
                ..
            } => {
                self.epoll.delete(stream.as_raw_fd());
                link.conn_token.store(NO_CONN, Ordering::Relaxed);
                link.set_live(None);
                link.set_mode(LinkMode::Idle);
                link.record_drops(inflight.len() as u64);
                link.abandon_queue();
            }
        }
    }

    fn teardown_all(&mut self) {
        let tokens: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].is_some())
            .collect();
        for t in tokens {
            self.close_slot(t);
        }
        // Acknowledge any late commands so no caller blocks on a latch.
        self.process_inject();
    }

    // -- timers -------------------------------------------------------------

    fn arm_timer(&mut self, at: Instant, kind: TimerKind) {
        self.timer_seq += 1;
        self.timers.push(TimerEntry {
            at,
            seq: self.timer_seq,
            kind,
        });
    }

    fn fire_timers(&mut self) {
        loop {
            match self.timers.peek() {
                Some(t) if t.at <= Instant::now() => {}
                _ => return,
            }
            let Some(entry) = self.timers.pop() else {
                return;
            };
            self.shared.stats.record_timer_fire();
            match entry.kind {
                TimerKind::Reconnect { link } => {
                    if link.shutdown.load(Ordering::SeqCst) {
                        link.abandon_queue();
                        link.set_mode(LinkMode::Idle);
                        continue;
                    }
                    if link.mode() == LinkMode::Connecting
                        && link.conn_token.load(Ordering::Relaxed) == NO_CONN
                    {
                        self.attempt_connect(link);
                    }
                }
                TimerKind::HelloDeadline { token, gen } => {
                    let silent = matches!(
                        self.slots.get(token).and_then(|s| s.as_ref()),
                        Some(Slot { gen: g, kind: SlotKind::Inbound { from: None, .. } })
                            if *g == gen
                    );
                    if silent {
                        self.close_slot(token);
                    }
                }
            }
        }
    }

    // -- outbound connect ---------------------------------------------------

    /// One connect attempt. On immediate failure, schedules the next
    /// attempt (or gives the episode up).
    fn attempt_connect(&mut self, link: Arc<LinkState>) {
        self.shared.stats.record_connect_started();
        match sys::connect_nonblocking(&link.addr) {
            Ok(sys::ConnectStart::Ready(stream)) => self.establish(link, stream),
            Ok(sys::ConnectStart::Pending(stream)) => {
                let fd = stream.as_raw_fd();
                let token = self.insert_slot(SlotKind::Connecting {
                    stream,
                    link: Arc::clone(&link),
                });
                link.conn_token.store(token, Ordering::Relaxed);
                if self.epoll.add(fd, sys::EV_WRITE, token as u64).is_err() {
                    self.remove_slot(token);
                    link.conn_token.store(NO_CONN, Ordering::Relaxed);
                    self.connect_failed(link);
                }
            }
            Err(_) => self.connect_failed(link),
        }
    }

    /// Books one failed attempt: back off and retry, or exhaust the
    /// episode (dropping everything queued, as the blocking transport
    /// did when its retry budget ran out).
    fn connect_failed(&mut self, link: Arc<LinkState>) {
        match link.episode_next_delay() {
            Some(delay) => {
                let at = Instant::now() + delay;
                self.arm_timer(at, TimerKind::Reconnect { link });
            }
            None => {
                link.abandon_queue();
                link.set_mode(LinkMode::Idle);
            }
        }
    }

    /// A fresh outbound connection is live: identify with `Hello`, then
    /// flush whatever the link queued while connecting.
    fn establish(&mut self, link: Arc<LinkState>, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if link.mark_connected() {
            link.record_reconnect();
        }
        link.set_live(stream.try_clone().ok());
        link.episode_reset();
        let fd = stream.as_raw_fd();
        let mut inflight = VecDeque::new();
        inflight.push_back(OutFrame::hello(link.me));
        let token = self.insert_slot(SlotKind::Outbound {
            stream,
            link: Arc::clone(&link),
            inflight,
            inflight_off: 0,
            want_write: false,
        });
        link.conn_token.store(token, Ordering::Relaxed);
        link.set_mode(LinkMode::Up);
        if self.epoll.add(fd, sys::EV_READ, token as u64).is_err() {
            self.conn_failed(token);
            return;
        }
        self.flush_conn(token);
    }

    /// Tears a live outbound connection down after an I/O failure and
    /// decides what happens next: a queued backlog starts a fresh
    /// reconnect episode immediately, an empty queue goes idle until the
    /// next send.
    fn conn_failed(&mut self, token: usize) {
        let Some(slot) = self.remove_slot(token) else {
            return;
        };
        let SlotKind::Outbound {
            stream,
            link,
            inflight,
            ..
        } = slot.kind
        else {
            return;
        };
        self.epoll.delete(stream.as_raw_fd());
        drop(stream);
        link.conn_token.store(NO_CONN, Ordering::Relaxed);
        link.set_live(None);
        // The in-flight batch is gone with the connection; the
        // reliability layer above retransmits, so this costs latency only.
        link.record_drops(inflight.len() as u64);
        if link.shutdown.load(Ordering::SeqCst) {
            link.abandon_queue();
            link.set_mode(LinkMode::Idle);
            return;
        }
        if link.has_queued() {
            link.set_mode(LinkMode::Connecting);
            link.episode_reset();
            self.attempt_connect(link);
        } else {
            link.set_mode(LinkMode::Idle);
        }
    }

    // -- event dispatch -----------------------------------------------------

    fn handle_event(&mut self, token: usize, bits: u32) {
        let kind_probe = match self.slots.get(token).and_then(|s| s.as_ref()) {
            Some(s) => match &s.kind {
                SlotKind::Listener { .. } => 0u8,
                SlotKind::Inbound { .. } => 1,
                SlotKind::Connecting { .. } => 2,
                SlotKind::Outbound { .. } => 3,
            },
            None => return, // closed earlier this cycle
        };
        match kind_probe {
            0 => self.accept_ready(token),
            1 => self.inbound_ready(token),
            2 => self.connecting_ready(token, bits),
            _ => self.outbound_ready(token, bits),
        }
    }

    fn accept_ready(&mut self, token: usize) {
        loop {
            let (stream, node) = {
                let Some(Slot {
                    kind: SlotKind::Listener { listener, node },
                    ..
                }) = self.slots.get(token).and_then(|s| s.as_ref())
                else {
                    return;
                };
                match listener.accept() {
                    Ok((stream, _)) => (stream, Arc::clone(node)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(_) => return,
                }
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.shared.stats.record_accept();
            let fd = stream.as_raw_fd();
            let t = self.insert_slot(SlotKind::Inbound {
                stream,
                node,
                from: None,
                recv: None,
            });
            if self.epoll.add(fd, sys::EV_READ, t as u64).is_err() {
                self.remove_slot(t);
                continue;
            }
            let gen = self.slots[t].as_ref().map(|s| s.gen).unwrap_or(0);
            self.arm_timer(
                Instant::now() + HELLO_TIMEOUT,
                TimerKind::HelloDeadline { token: t, gen },
            );
        }
    }

    /// Drains an accepted connection: reads into the pooled buffer, then
    /// borrow-decodes every complete frame in place and hands it to the
    /// node's sink. Returns the buffer to the pool once drained.
    fn inbound_ready(&mut self, token: usize) {
        let Some(mut slot) = self.slots.get_mut(token).and_then(|s| s.take()) else {
            return;
        };
        let mut close = false;
        if let SlotKind::Inbound {
            stream,
            node,
            from,
            recv,
        } = &mut slot.kind
        {
            let mut rb = match recv.take() {
                Some(rb) => rb,
                None => self.pool.acquire(),
            };
            close = !pump_inbound(stream, node, from, &mut rb, &self.shared.stats);
            if !close && !rb.is_drained() {
                *recv = Some(rb);
            } else {
                self.pool.release(rb);
            }
        }
        let fd_kind_restore = !close;
        if fd_kind_restore {
            if let Some(entry) = self.slots.get_mut(token) {
                *entry = Some(slot);
            }
        } else {
            // Close: mimic close_slot for an already-taken slot.
            if let SlotKind::Inbound { stream, recv, .. } = slot.kind {
                self.epoll.delete(stream.as_raw_fd());
                if let Some(rb) = recv {
                    self.pool.release(rb);
                }
            }
            self.free.push(token);
        }
    }

    fn connecting_ready(&mut self, token: usize, bits: u32) {
        let Some(slot) = self.remove_slot(token) else {
            return;
        };
        let SlotKind::Connecting { stream, link } = slot.kind else {
            return;
        };
        self.epoll.delete(stream.as_raw_fd());
        link.conn_token.store(NO_CONN, Ordering::Relaxed);
        let failed = bits & (sys::EV_ERROR | sys::EV_HUP) != 0;
        if !failed && sys::take_socket_error(&stream).is_ok() {
            if link.shutdown.load(Ordering::SeqCst) {
                link.abandon_queue();
                link.set_mode(LinkMode::Idle);
                return;
            }
            self.establish(link, stream);
        } else {
            drop(stream);
            self.connect_failed(link);
        }
    }

    fn outbound_ready(&mut self, token: usize, bits: u32) {
        if bits & (sys::EV_ERROR | sys::EV_HUP) != 0 {
            self.conn_failed(token);
            return;
        }
        if bits & sys::EV_READ != 0 {
            // Peers never send payload on our outbound socket; readable
            // means EOF/RST (e.g. a force-disconnect) or stray bytes to
            // discard.
            let mut scratch = [0u8; DISCARD_BUF];
            let outcome = {
                let Some(Slot {
                    kind: SlotKind::Outbound { stream, .. },
                    ..
                }) = self.slots.get(token).and_then(|s| s.as_ref())
                else {
                    return;
                };
                sys::read_fd(stream.as_raw_fd(), &mut scratch)
            };
            match outcome {
                Ok(0) => {
                    self.conn_failed(token);
                    return;
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => {
                    self.conn_failed(token);
                    return;
                }
            }
        }
        if bits & sys::EV_WRITE != 0 {
            self.flush_conn(token);
        }
    }

    // -- vectored write path ------------------------------------------------

    /// Flushes a link's queue through its live connection with vectored
    /// writes: frame headers and (shared, encode-once) bodies go to the
    /// kernel as separate iovecs — no coalescing copy.
    fn flush_conn(&mut self, token: usize) {
        let Some(mut slot) = self.slots.get_mut(token).and_then(|s| s.take()) else {
            return;
        };
        let mut failed = false;
        if let SlotKind::Outbound {
            stream,
            link,
            inflight,
            inflight_off,
            want_write,
        } = &mut slot.kind
        {
            // Clear-then-drain: anything pushed after the clear re-marks
            // the link dirty and re-wakes us, so nothing is lost.
            link.clear_dirty();
            link.drain_queue_into(inflight);
            let stats_link = link.stats.link(link.peer);
            loop {
                if inflight.is_empty() {
                    *inflight_off = 0;
                    if *want_write {
                        *want_write = false;
                        let _ = self
                            .epoll
                            .modify(stream.as_raw_fd(), sys::EV_READ, token as u64);
                    }
                    break;
                }
                self.shared.stats.record_writev_syscall();
                let segs = IovSegments::new(inflight, *inflight_off);
                match sys::writev_fd(stream.as_raw_fd(), segs) {
                    Ok((written, submitted)) => {
                        let completed = advance_inflight(inflight, inflight_off, written);
                        if let Some(l) = stats_link {
                            l.record_write(completed, written as u64);
                        }
                        if written < submitted {
                            // Socket buffer full mid-batch: wait for
                            // writability.
                            if !*want_write {
                                *want_write = true;
                                let _ = self.epoll.modify(
                                    stream.as_raw_fd(),
                                    sys::EV_READ | sys::EV_WRITE,
                                    token as u64,
                                );
                            }
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if !*want_write {
                            *want_write = true;
                            let _ = self.epoll.modify(
                                stream.as_raw_fd(),
                                sys::EV_READ | sys::EV_WRITE,
                                token as u64,
                            );
                        }
                        break;
                    }
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        if let Some(entry) = self.slots.get_mut(token) {
            *entry = Some(slot);
        }
        if failed {
            self.conn_failed(token);
        }
    }
}

/// Streams one `writev` batch out of the in-flight queue as raw wire
/// segments — header then body per frame, starting `offset` bytes into
/// the front frame, stopping once [`MAX_BATCH_BYTES`] wire bytes have
/// been yielded. No intermediate collection: [`sys::writev_fd`] consumes the
/// iterator straight into its stack iovec array (which also enforces the
/// [`sys::MAX_IOVECS`] cap; a frame split across batches resumes via the
/// caller's running offset).
struct IovSegments<'a> {
    frames: std::collections::vec_deque::Iter<'a, OutFrame>,
    pending_body: Option<&'a [u8]>,
    skip: usize,
    bytes: usize,
}

impl<'a> IovSegments<'a> {
    fn new(inflight: &'a VecDeque<OutFrame>, offset: usize) -> Self {
        IovSegments {
            frames: inflight.iter(),
            pending_body: None,
            skip: offset,
            bytes: 0,
        }
    }
}

impl<'a> Iterator for IovSegments<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        loop {
            if let Some(body) = self.pending_body.take() {
                if self.skip < body.len() {
                    let seg = &body[self.skip..];
                    self.skip = 0;
                    self.bytes += seg.len();
                    return Some(seg);
                }
                self.skip -= body.len();
                continue;
            }
            if self.bytes >= MAX_BATCH_BYTES {
                return None;
            }
            let frame = self.frames.next()?;
            let header = frame.header_bytes();
            self.pending_body = Some(frame.body_bytes());
            if self.skip < header.len() {
                let seg = &header[self.skip..];
                self.skip = 0;
                self.bytes += seg.len();
                return Some(seg);
            }
            self.skip -= header.len();
        }
    }
}

/// Pops fully written frames off the in-flight queue after a `writev`
/// accepted `written` bytes; returns how many frames completed.
fn advance_inflight(
    inflight: &mut VecDeque<OutFrame>,
    inflight_off: &mut usize,
    written: usize,
) -> u64 {
    let mut remaining = written;
    let mut completed = 0u64;
    while remaining > 0 {
        let Some(front) = inflight.front() else {
            break;
        };
        let left = front.wire_len() - *inflight_off;
        if remaining >= left {
            remaining -= left;
            *inflight_off = 0;
            inflight.pop_front();
            completed += 1;
        } else {
            *inflight_off += remaining;
            remaining = 0;
        }
    }
    completed
}

/// Reads and dispatches everything currently available on an inbound
/// connection. Returns `false` when the connection must close (EOF,
/// I/O error, handshake violation, frame desync, or a departed sink).
fn pump_inbound(
    stream: &TcpStream,
    node: &Arc<NodeCore>,
    from: &mut Option<causal_clocks::ProcessId>,
    rb: &mut RecvBuf,
    reactor_stats: &ReactorStats,
) -> bool {
    loop {
        let space = rb.read_space(RECV_BUFFER_BYTES);
        let n = match sys::read_fd(stream.as_raw_fd(), space) {
            Ok(0) => return false,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(_) => return false,
        };
        rb.commit_read(n);
        reactor_stats.record_read_syscall();
        node.stats.record_bytes_read(n as u64);
        loop {
            let frame = match rb.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => {
                    // Desynchronized framing: nothing downstream is
                    // trustworthy, so drop the connection and let the
                    // peer's writer re-establish it.
                    node.stats.record_decode_error();
                    return false;
                }
            };
            match *from {
                None => {
                    // Handshake: the first frame must be a valid Hello
                    // naming a known peer.
                    match parse_hello(frame.bytes()) {
                        Ok(id) if node.stats.link(id).is_some() => *from = Some(id),
                        _ => {
                            node.stats.record_decode_error();
                            return false;
                        }
                    }
                }
                Some(peer) => {
                    let len = frame.len();
                    node.stats.record_frame_borrowed();
                    if !node.sink.on_frame(peer, frame) {
                        return false; // driver gone
                    }
                    // Counted only once handed to the sink, so the
                    // counters never run ahead of what the actor can
                    // still observe.
                    if let Some(l) = node.stats.link(peer) {
                        l.record_recv(len);
                    }
                }
            }
        }
    }
}
