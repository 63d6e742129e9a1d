//! Real TCP transport for the sans-IO causal broadcast stack.
//!
//! The protocol crates (`causal-core`, `causal-replica`) are written as
//! [`Actor`](causal_simnet::Actor) state machines with no knowledge of
//! their transport. The simulator runs them deterministically; the
//! threaded runtime runs them over in-process channels; this crate runs
//! them over **real TCP sockets** — the deployment shape the paper's
//! kernel-level communication interface (§3) assumes.
//!
//! Layering:
//!
//! ```text
//!   Actor (CausalNode<CounterReplica>, …)      sans-IO state machine
//!   ─────────────────────────────────────
//!   ActorRunner (causal-simnet)                receive loop, timers, RNG,
//!                                              dispatch
//!   ─────────────────────────────────────
//!   ConnectionManager (this crate)             lazy per-peer links, reconnect
//!   ─────────────────────────────────────
//!   Reactor (this crate)                       sharded epoll event loops,
//!                                              writev batches, pooled
//!                                              zero-copy receive buffers
//!   ─────────────────────────────────────
//!   FrameHeader + WireEncode (causal-core)     length-prefixed binary codec
//!   ─────────────────────────────────────
//!   raw epoll/eventfd/writev syscalls          O(shards) threads, any group
//! ```
//!
//! The event-driven engine replaces the original two-threads-per-directed-
//! pair design: all sockets of all nodes sharing a [`Reactor`] are driven
//! by `poller_shards` event-loop threads. Outbound frames queue per link
//! and leave in vectored `writev` batches whose iovecs point straight at
//! the encode-once bytes (a multicast body is one `Arc<[u8]>` shared by
//! every peer's queue); inbound bytes land in pooled buffers and frames
//! are **borrow-decoded in place** — the receive hot path never copies a
//! frame body (`NetSnapshot::frames_borrowed` counts every frame decoded
//! in place, and the TCP tests assert it equals every frame received).
//!
//! The transport is deliberately *lossy at the edges*: frames in flight
//! when a connection drops are gone, and frames sent while a link is down
//! are dropped after a bounded reconnect effort. That is exactly the
//! network model the protocols are built for — the reliable broadcast
//! layer acks and retransmits, so a [`LoopbackCluster`] converges through
//! forced disconnects (see `tests/tcp_cluster.rs`).
//!
//! # Examples
//!
//! `examples/tcp_counter.rs` boots a three-member replicated counter over
//! localhost TCP. In short:
//!
//! ```no_run
//! use causal_net::{LoopbackCluster, TcpConfig};
//! use causal_clocks::ProcessId;
//! use causal_core::stack::CausalNode;
//! use causal_replica::counter::CounterReplica;
//!
//! let nodes: Vec<CausalNode<CounterReplica>> = (0..3)
//!     .map(|i| CausalNode::new(ProcessId::new(i), 3, CounterReplica::new()))
//!     .collect();
//! let cluster = LoopbackCluster::spawn(nodes, 42, TcpConfig::default()).unwrap();
//! // … let the application drive operations …
//! for (node, stats) in cluster.shutdown() {
//!     println!("{:?}: value={} sent={}", node.me(), node.app().value(), stats.total_sent());
//! }
//! ```

// Unsafe is denied crate-wide and allowed back in exactly one module:
// `sys`, the thin raw-syscall layer (epoll/eventfd/writev/non-blocking
// connect). Everything above it is safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
mod cluster;
mod config;
pub mod conn;
pub mod frame;
mod node;
mod reactor;
pub mod stats;
mod sys;

pub use buffer::{BufferPool, Frame, RecvBuf};
pub use cluster::LoopbackCluster;
pub use config::TcpConfig;
pub use conn::{ConnectionManager, InboundSink};
pub use node::{spawn_node, spawn_node_on, NodeHandle};
pub use reactor::Reactor;
pub use stats::{LinkSnapshot, NetSnapshot, NetStats, ReactorSnapshot};
