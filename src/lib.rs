//! # causal-broadcast
//!
//! A production-quality Rust reproduction of *Causal Broadcasting and
//! Consistency of Distributed Shared Data* (K. Ravindran & K. Shah,
//! ICDCS 1994).
//!
//! This façade crate re-exports the workspace members:
//!
//! - [`clocks`] — logical clocks (vector, matrix) and identifiers.
//! - [`simnet`] — deterministic discrete-event network simulator with
//!   latency models and fault injection.
//! - [`membership`] — process-group views, failure detection, and flush.
//! - [`core`] — the paper's contribution: the `OSend`/`ASend` primitives,
//!   message dependency graphs `R(M)`, causal delivery engines, stable
//!   points, causal activities, and the protocol stack
//!   ([`core::stack`]) that hosts each replica, with view-synchronous
//!   membership as a way to build it.
//! - [`replica`] — data-access protocols built on the model: front-end
//!   managers (§6.1), decentralized lock arbitration (§6.2), a name service
//!   with application-level consistency checks (§5.2), a conferencing
//!   document, a card game, and baseline protocols.
//! - [`net`] — a real TCP transport carrying the same sans-IO actors over
//!   sockets: length-prefixed framing, per-peer reconnect with backoff,
//!   and the [`LoopbackCluster`](causal_net::LoopbackCluster) harness.
//!
//! See `examples/quickstart.rs` for a complete runnable tour of the API,
//! and `examples/tcp_counter.rs` for the same replicas over real TCP.

#![forbid(unsafe_code)]

pub use causal_clocks as clocks;
pub use causal_core as core;
pub use causal_membership as membership;
pub use causal_net as net;
pub use causal_replica as replica;
pub use causal_simnet as simnet;

/// One-stop imports for applications built on the library.
///
/// ```
/// use causal_broadcast::prelude::*;
///
/// let mut tx = OSender::new(ProcessId::new(0));
/// let env = tx.osend("op", OccursAfter::none());
/// assert_eq!(env.id.origin(), ProcessId::new(0));
/// ```
pub mod prelude {
    pub use causal_clocks::{CausalOrdering, MatrixClock, MsgId, ProcessId, VectorClock};
    pub use causal_core::delivery::{
        CbcastEngine, Delivered, DeliveryEngine, GraphDelivery, VtEnvelope,
    };
    pub use causal_core::graph::MsgGraph;
    pub use causal_core::osend::{GraphEnvelope, OSender, OccursAfter};
    pub use causal_core::stable::{CausalActivity, LogEntry, StablePoint, StablePointDetector};
    pub use causal_core::stack::{
        App, CausalNode, CbcastNode, Emitter, NodeStats, ProtocolStack, StackWire, VsyncConfig,
    };
    pub use causal_core::statemachine::{OpClass, Operation};
    pub use causal_core::total::{DeterministicMerge, RoundMsg, SeqEnvelope, Sequencer};
    pub use causal_membership::{GroupView, ViewId, ViewManager};
    pub use causal_simnet::{
        Actor, Context, FaultPlan, LatencyModel, NetConfig, Partition, SimDuration, SimTime,
        Simulation,
    };
}
