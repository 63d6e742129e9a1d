//! [`LoopbackCluster`]: boot a whole group on ephemeral localhost ports.
//!
//! The test/demo harness for the TCP transport: binds one listener per
//! member on `127.0.0.1:0`, collects the assigned addresses, and spawns
//! every node onto **one shared [`Reactor`]** — a whole in-process
//! cluster costs `poller_shards` event-loop threads plus one driver per
//! node, whatever its size (links are created lazily on first send, so a
//! sparse overlay like PC-broadcast's tree opens only the sockets it
//! uses). Used by the integration tests to run the real causal-broadcast
//! stack over real sockets, and by `examples/tcp_counter.rs`.

use crate::config::TcpConfig;
use crate::node::{spawn_node_on, NodeHandle};
use crate::reactor::Reactor;
use crate::stats::NetSnapshot;
use causal_clocks::ProcessId;
use causal_core::wire::WireEncode;
use causal_simnet::Actor;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// A group of TCP nodes on ephemeral localhost ports, sharing one
/// poller pool.
#[derive(Debug)]
pub struct LoopbackCluster<A: Actor> {
    handles: Vec<NodeHandle<A>>,
    addrs: Vec<SocketAddr>,
    reactor: Arc<Reactor>,
}

impl<A> LoopbackCluster<A>
where
    A: Actor + Send + 'static,
    A::Msg: WireEncode + Send + 'static,
{
    /// Boots one node per actor. Actor `i` becomes [`ProcessId`] `i`; its
    /// RNG seed is `seed + i`.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures.
    ///
    /// # Panics
    ///
    /// Panics if `actors` is empty.
    pub fn spawn(actors: Vec<A>, seed: u64, config: TcpConfig) -> io::Result<Self> {
        assert!(!actors.is_empty(), "cluster requires at least one node");
        // Bind every listener before spawning any node, so the full
        // address map exists up front and no connect races a bind.
        let listeners: Vec<TcpListener> = actors
            .iter()
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<io::Result<_>>()?;
        let reactor = Reactor::start(&config)?;
        let handles = actors
            .into_iter()
            .zip(listeners)
            .enumerate()
            .map(|(i, (actor, listener))| {
                spawn_node_on(
                    &reactor,
                    actor,
                    ProcessId::new(i as u32),
                    listener,
                    &addrs,
                    seed.wrapping_add(i as u64),
                )
            })
            .collect::<io::Result<_>>()?;
        Ok(LoopbackCluster {
            handles,
            addrs,
            reactor,
        })
    }

    /// The shared reactor driving every member's sockets.
    pub fn reactor(&self) -> &Arc<Reactor> {
        &self.reactor
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether the cluster is empty (never true after `spawn`).
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// The listen addresses, indexed by [`ProcessId`].
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The control handle of member `i`.
    pub fn handle(&self, i: usize) -> &NodeHandle<A> {
        &self.handles[i]
    }

    /// Fault injection: cuts the live connections between `a` and `b` in
    /// both directions. The transports reconnect with backoff; the
    /// reliability layer retransmits whatever was in flight.
    pub fn sever_link(&self, a: usize, b: usize) {
        self.handles[a].force_disconnect(ProcessId::new(b as u32));
        self.handles[b].force_disconnect(ProcessId::new(a as u32));
    }

    /// Stops every node (stop flags first, then joins) and returns the
    /// actors with their final transport counters.
    ///
    /// # Panics
    ///
    /// Panics if a driver thread panicked.
    pub fn shutdown(self) -> Vec<(A, NetSnapshot)> {
        for h in &self.handles {
            h.request_stop();
        }
        self.handles.into_iter().map(NodeHandle::join).collect()
    }
}
