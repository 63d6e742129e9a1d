//! Hosting a sans-IO [`Actor`] on a real TCP node.
//!
//! [`spawn_node`] wires one actor to a [`ConnectionManager`] and drives it
//! on a dedicated thread through the same
//! [`ActorRunner`](causal_simnet::ActorRunner) the in-process threaded
//! runtime uses. Outbound messages are encoded with
//! [`WireEncode`](causal_core::wire::WireEncode) and framed onto per-peer
//! connections; inbound frames are **borrow-decoded on the reactor shard**
//! straight out of the pooled receive buffers (no frame-body copy ever),
//! then delivered as `on_message` callbacks; `Context::set_timer` works
//! unchanged.
//!
//! [`spawn_node_on`] hosts many nodes on one shared [`Reactor`], keeping
//! transport threads at O(poller shards) for a whole in-process cluster.

use crate::buffer::Frame;
use crate::config::TcpConfig;
use crate::conn::{ConnectionManager, InboundSink};
use crate::reactor::Reactor;
use crate::stats::{NetSnapshot, NetStats};
use causal_clocks::ProcessId;
use causal_core::wire::WireEncode;
use causal_simnet::runner::{ActorRunner, Transport};
use causal_simnet::Actor;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// [`Transport`] impl: encode, then hand to the connection manager.
///
/// Every encode goes through one long-lived scratch buffer, so
/// steady-state serialization never re-grows a fresh `Vec`; a multicast
/// encodes **once** into shared bytes queued toward every destination
/// (and written from, via vectored I/O) without per-peer copies.
struct TcpTransport {
    manager: Arc<ConnectionManager>,
    scratch: Vec<u8>,
}

impl<M: WireEncode> Transport<M> for TcpTransport {
    fn send(&mut self, to: ProcessId, msg: M) {
        let bytes = msg.encode_to(&mut self.scratch);
        self.manager.send_to(to, bytes.to_vec());
    }

    fn multicast(&mut self, to: &[ProcessId], msg: M)
    where
        M: Clone,
    {
        let bytes: Arc<[u8]> = Arc::from(msg.encode_to(&mut self.scratch));
        self.manager.multicast(to, bytes);
    }
}

/// Decodes frames where they land — on the reactor shard, borrowing the
/// body bytes in place — and forwards owned messages to the driver.
///
/// Only what the decoder itself allocates crosses the thread boundary;
/// the wire bytes never get a second home.
struct DecodeSink<M> {
    tx: Sender<(ProcessId, M)>,
    stats: Arc<NetStats>,
}

impl<M> InboundSink for DecodeSink<M>
where
    M: WireEncode + Send,
{
    fn on_frame(&self, from: ProcessId, frame: Frame<'_>) -> bool {
        match M::from_wire(frame.bytes()) {
            Ok(msg) => self.tx.send((from, msg)).is_ok(),
            Err(_) => {
                self.stats.record_decode_error();
                true // a bad body is the sender's bug, not a stream desync
            }
        }
    }
}

/// Control handle for a running TCP node.
///
/// The actor itself lives on the driver thread; it comes back (with a
/// final counter snapshot) from [`join`](NodeHandle::join).
#[derive(Debug)]
pub struct NodeHandle<A: Actor> {
    me: ProcessId,
    stop: Arc<AtomicBool>,
    manager: Arc<ConnectionManager>,
    stats: Arc<NetStats>,
    reactor: Arc<Reactor>,
    driver: Option<JoinHandle<A>>,
}

impl<A: Actor> NodeHandle<A> {
    /// The hosted node's identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Current transport counters (including the reactor's).
    pub fn stats(&self) -> NetSnapshot {
        self.stats.snapshot_with(self.reactor.stats())
    }

    /// The reactor this node's sockets run on.
    pub fn reactor(&self) -> &Arc<Reactor> {
        &self.reactor
    }

    /// Fault injection: hard-close the live outbound connection to `to`.
    /// The transport reconnects with backoff on the next send.
    pub fn force_disconnect(&self, to: ProcessId) {
        self.manager.force_disconnect(to);
    }

    /// Asks the driver to stop without blocking. Call on every node of a
    /// group before joining any of them so the group winds down together.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Stops the node (if still running), tears the transport down, and
    /// returns the actor with a final counter snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the driver thread panicked.
    pub fn join(mut self) -> (A, NetSnapshot) {
        self.request_stop();
        let actor = self
            .driver
            .take()
            .expect("join called once")
            .join()
            .expect("driver thread panicked");
        (actor, self.stats.snapshot_with(self.reactor.stats()))
    }
}

/// Boots `actor` as group member `me` on `listener`, connecting out to
/// `peer_addrs` (indexed by [`ProcessId`], including a slot for `me`),
/// with a private [`Reactor`] sized by `config.poller_shards`.
///
/// `seed` derives the actor's RNG, as in the other runtimes.
///
/// # Errors
///
/// Propagates socket and reactor configuration failures.
pub fn spawn_node<A>(
    actor: A,
    me: ProcessId,
    listener: TcpListener,
    peer_addrs: &[SocketAddr],
    seed: u64,
    config: TcpConfig,
) -> io::Result<NodeHandle<A>>
where
    A: Actor + Send + 'static,
    A::Msg: WireEncode + Send + 'static,
{
    let reactor = Reactor::start(&config)?;
    spawn_node_on(&reactor, actor, me, listener, peer_addrs, seed, config)
}

/// Like [`spawn_node`], but rides an existing [`Reactor`] — the way to
/// host many nodes in one process without multiplying event-loop
/// threads (see [`LoopbackCluster`](crate::LoopbackCluster)).
///
/// # Errors
///
/// Propagates socket configuration failures.
pub fn spawn_node_on<A>(
    reactor: &Arc<Reactor>,
    actor: A,
    me: ProcessId,
    listener: TcpListener,
    peer_addrs: &[SocketAddr],
    seed: u64,
    config: TcpConfig,
) -> io::Result<NodeHandle<A>>
where
    A: Actor + Send + 'static,
    A::Msg: WireEncode + Send + 'static,
{
    let n = peer_addrs.len();
    let stats = Arc::new(NetStats::new(n));
    let (inbox_tx, inbox_rx) = channel();
    let sink = Arc::new(DecodeSink::<A::Msg> {
        tx: inbox_tx,
        stats: Arc::clone(&stats),
    });
    let manager = Arc::new(ConnectionManager::start(
        me,
        listener,
        peer_addrs,
        config.clone(),
        Arc::clone(&stats),
        sink,
        Arc::clone(reactor),
    )?);
    let stop = Arc::new(AtomicBool::new(false));

    let driver = std::thread::Builder::new()
        .name(format!("causal-net-node-{}", me.as_u32()))
        .spawn({
            let manager = Arc::clone(&manager);
            let stop = Arc::clone(&stop);
            move || drive(actor, me, n, seed, manager, stop, inbox_rx, config)
        })?;

    Ok(NodeHandle {
        me,
        stop,
        manager,
        stats,
        reactor: Arc::clone(reactor),
        driver: Some(driver),
    })
}

/// How many already-arrived messages the driver delivers per wakeup
/// before re-checking timers; bounds timer latency under flood.
const INBOX_DRAIN_BATCH: usize = 128;

#[allow(clippy::too_many_arguments)]
fn drive<A>(
    actor: A,
    me: ProcessId,
    n: usize,
    seed: u64,
    manager: Arc<ConnectionManager>,
    stop: Arc<AtomicBool>,
    inbox_rx: Receiver<(ProcessId, A::Msg)>,
    config: TcpConfig,
) -> A
where
    A: Actor,
    A::Msg: WireEncode,
{
    let mut transport = TcpTransport {
        manager: Arc::clone(&manager),
        scratch: Vec::new(),
    };
    let mut runner = ActorRunner::new(actor, me, n, seed);
    runner.start(&mut transport);
    while !stop.load(Ordering::SeqCst) {
        runner.fire_due_timers(&mut transport);
        let now = Instant::now();
        let wait_until = runner
            .next_timer_deadline()
            .map(|at| at.min(now + config.poll_interval))
            .unwrap_or(now + config.poll_interval);
        let timeout = wait_until.saturating_duration_since(now);
        match inbox_rx.recv_timeout(timeout) {
            Ok((from, msg)) => {
                runner.on_message(&mut transport, from, msg);
                // Under load the inbox holds a backlog; drain a bounded
                // batch before paying the timer/clock bookkeeping again
                // (bounded so a flood cannot starve due timers).
                for _ in 0..INBOX_DRAIN_BATCH {
                    match inbox_rx.try_recv() {
                        Ok((from, msg)) => runner.on_message(&mut transport, from, msg),
                        Err(_) => break,
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Clean shutdown: deliver what has already arrived before tearing the
    // transport down, so a stop requested after "all frames received"
    // leaves the actor having seen all of them.
    while let Ok((from, msg)) = inbox_rx.try_recv() {
        runner.on_message(&mut transport, from, msg);
    }
    manager.shutdown();
    runner.into_actor()
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_simnet::Context;
    use std::time::Duration;

    /// Frames node 0 floods at node 1 from `on_start`, faster than one
    /// write can carry them, so the writer must coalesce.
    const BURST: u64 = 5_000;

    /// Echo actor speaking u64 payloads: node 0 sends [`BURST`] pings to
    /// node 1, which echoes each back incremented.
    struct Echo {
        got: Vec<u64>,
    }
    impl Actor for Echo {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            if ctx.me() == ProcessId::new(0) {
                for k in 0..BURST {
                    ctx.send(ProcessId::new(1), k);
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: ProcessId, msg: u64) {
            self.got.push(msg);
            if ctx.me() == ProcessId::new(1) {
                ctx.send(from, msg + BURST);
            }
        }
    }

    #[test]
    fn two_nodes_exchange_over_tcp() {
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let handles: Vec<NodeHandle<Echo>> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                spawn_node(
                    Echo { got: Vec::new() },
                    ProcessId::new(i as u32),
                    listener,
                    &addrs,
                    7,
                    TcpConfig::default(),
                )
                .unwrap()
            })
            .collect();

        let deadline = Instant::now() + Duration::from_secs(30);
        while handles[0].stats().links[1].msgs_recv < BURST && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        for h in &handles {
            h.request_stop();
        }
        let mut done: Vec<(Echo, NetSnapshot)> =
            handles.into_iter().map(NodeHandle::join).collect();
        let (n1, _) = done.pop().unwrap();
        let (n0, s0) = done.pop().unwrap();
        let mut got0 = n0.got.clone();
        got0.sort_unstable();
        assert_eq!(got0, (BURST..2 * BURST).collect::<Vec<_>>(), "echoes lost");
        let mut got1 = n1.got.clone();
        got1.sort_unstable();
        assert_eq!(got1, (0..BURST).collect::<Vec<_>>(), "pings lost");
        assert_eq!(s0.links[1].msgs_sent, BURST);
        assert_eq!(s0.decode_errors, 0);
        // The echoes came back over a socket: every one of them must have
        // been handed to the sink as a borrowed (zero-copy) frame view.
        assert!(s0.frames_borrowed >= BURST);
        assert_eq!(s0.frame_copies, 0);
        // The burst outran the writer, which batched it into fewer writes.
        let per_write = s0.links[1].frames_per_write();
        assert!(
            per_write > 1.0,
            "writer did not coalesce: {per_write} frames per write"
        );
        assert!(s0.bytes_read > 0);
        assert!(s0.reactor.epoll_waits > 0);
    }
}
