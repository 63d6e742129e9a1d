//! The core model of *Causal Broadcasting and Consistency of Distributed
//! Shared Data* (Ravindran & Shah, ICDCS 1994).
//!
//! A distributed application is a group of entities sharing data through
//! broadcast **data-access messages**. The application expresses its
//! consistency requirements as **causality constraints** `R(M)` — explicit
//! `occurs-after` precedence relations between messages — and the
//! communication layer delivers messages at every member in an order
//! consistent with `R(M)`. Agreement on the shared data value is then
//! obtained *without extra protocol messages* at **stable points**:
//! messages whose causal past covers everything delivered so far, which
//! every member detects locally at the same position in the computation.
//!
//! The crate is organized around the paper's own vocabulary:
//!
//! | Paper concept | Module |
//! |---|---|
//! | `OSend(Msg, G, Occurs-After(m₁ ∧ m₂ …))` (§3.3) | [`osend`] |
//! | Message dependency graphs `R(M)` (§3.1, Fig. 3) | [`graph`] |
//! | Causal broadcast delivery (§3, Fig. 2) | [`delivery`] |
//! | `ASend` total ordering over concurrent sets (§5.2, Fig. 4) | [`total`] |
//! | Stable points & causal activities (§4) | [`stable`] |
//! | State transitions `F : M × S → S`, commutativity (§3.2, §5.1) | [`statemachine`] |
//! | Reliable broadcast over a lossy network | [`rbcast`] |
//! | Naming lost messages in a sequenced stream | [`holes`] |
//! | The composed Figure-4 stack around a pluggable engine, its engine aliases ([`stack::CausalNode`], [`stack::CbcastNode`], [`stack::PcNode`]) and view-synchronous membership ([`stack::ProtocolStack::with_membership`]) | [`stack`] |
//!
//! The consistency validators and the trace oracle that check these
//! claims over recorded executions live in the `causal-verify` crate
//! (`causal_verify::check`, `causal_verify::check_trace`).
//!
//! # Examples
//!
//! The Figure 2 scenario — `m_k → ‖{m'_i, m'_j}` — expressed with `OSend`
//! and delivered through the graph engine:
//!
//! ```
//! use causal_clocks::ProcessId;
//! use causal_core::delivery::{DeliveryEngine, GraphDelivery};
//! use causal_core::graph::MsgGraph;
//! use causal_core::osend::{OSender, OccursAfter};
//!
//! let (pi, pj, pk) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
//! let mut sender_k = OSender::new(pk);
//! let mut sender_i = OSender::new(pi);
//! let mut sender_j = OSender::new(pj);
//!
//! let mk = sender_k.osend("mk", OccursAfter::none());
//! let mi = sender_i.osend("m'i", OccursAfter::message(mk.id));
//! let mj = sender_j.osend("m'j", OccursAfter::message(mk.id));
//!
//! // A receiver sees m'j first: it is buffered until mk arrives.
//! let mut rx = GraphDelivery::new();
//! assert!(rx.on_receive(mj.clone()).is_empty());
//! let delivered = rx.on_receive(mk.clone());
//! assert_eq!(delivered.len(), 2); // mk unblocks m'j
//! assert!(!rx.on_receive(mi.clone()).is_empty());
//!
//! // The delivered envelopes carry R(M): m'i and m'j stay concurrent.
//! let mut graph = MsgGraph::new();
//! for env in [&mk, &mj, &mi] {
//!     graph.add(env.id, &env.deps).unwrap();
//! }
//! assert!(graph.is_concurrent(mi.id, mj.id));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delivery;
pub mod graph;
pub mod holes;
pub mod osend;
pub mod rbcast;
pub mod stability;
pub mod stable;
pub mod stack;
pub mod statemachine;
pub mod total;
pub mod trace;
pub mod wire;

pub use causal_clocks::{CausalOrdering, MsgId, ProcessId, VectorClock};
