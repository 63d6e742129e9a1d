//! Per-member execution traces: the raw material of the verification
//! layer.
//!
//! A [`ProtocolStack`](crate::stack::ProtocolStack) built with
//! [`with_tracing`](crate::stack::ProtocolStack::with_tracing) appends one
//! [`TraceEvent`] per observable protocol action to its private
//! [`MemberTrace`]. Because each member records only its *own* actions,
//! tracing works identically under the discrete-event simulator, the
//! threaded runtime, and the `causal-net` TCP transport: no shared state,
//! no clock, no synchronization. After a run, a harness collects the
//! per-member traces and hands them to the `causal-verify` oracle, which
//! checks the paper's invariants (delivery order consistent with `R(M)`,
//! no duplicate or lost delivery, stable-point agreement, view agreement)
//! across the group.
//!
//! The trace is the stack's one record of each delivery's dependency
//! set, and the dependency graph `R(M)` ([`MemberTrace::graph`]) is
//! rebuilt from it. It is not the only per-node record: the stack's
//! delivery log (`ProtocolStack::log`), every stable point
//! (`ProtocolStack::stable_points`) and every latency sample
//! (`NodeStats`) are kept whether or not tracing is on, even under
//! `with_gc`. The delivery engines keep no record of their own.

use crate::graph::{GraphError, MsgGraph};
use causal_clocks::{MsgId, ProcessId, VectorClock};
use causal_membership::GroupView;

/// One observable protocol action at one member, in local order.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// This member broadcast a new message.
    Send {
        /// The assigned message id.
        id: MsgId,
    },
    /// The reliability layer received a data copy from the network.
    Receive {
        /// The message id.
        id: MsgId,
        /// `false` if the copy was a duplicate absorbed by dedup.
        fresh: bool,
    },
    /// The delivery engine released a message to the application.
    Deliver {
        /// The message id.
        id: MsgId,
        /// Declared direct dependencies (graph engines; `None` under
        /// vector-clock engines).
        deps: Option<Vec<MsgId>>,
        /// The vector timestamp stamped on the envelope (vector-clock
        /// engines; `None` under graph engines).
        vt: Option<VectorClock>,
        /// `true` if the application classified the operation as
        /// non-commutative (a synchronization candidate).
        sync_candidate: bool,
    },
    /// A delivered synchronization message closed a stable point.
    StablePoint {
        /// Ordinal of the point (0-based).
        ordinal: usize,
        /// The synchronization message.
        msg: MsgId,
        /// The application state bytes at the point, if the app
        /// implements [`App::snapshot`](crate::stack::App::snapshot).
        snapshot: Option<Vec<u8>>,
    },
    /// Virtually synchronous membership installed a view at this member.
    ViewInstalled {
        /// The installed view.
        view: GroupView,
    },
    /// The member was crashed (test control).
    Crashed,
}

/// The ordered event log of one group member.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberTrace {
    me: ProcessId,
    events: Vec<TraceEvent>,
}

impl MemberTrace {
    /// An empty trace for member `me`.
    pub fn new(me: ProcessId) -> Self {
        MemberTrace {
            me,
            events: Vec::new(),
        }
    }

    /// The member this trace belongs to.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Appends an event (hosting stacks call this; harnesses only read).
    pub fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The recorded events, in local order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// `true` if the member was crashed at any point.
    pub fn crashed(&self) -> bool {
        self.events.iter().any(|e| matches!(e, TraceEvent::Crashed))
    }

    /// Rebuilds the delivered prefix of the dependency graph `R(M)` from
    /// the recorded deliveries, as any member can (§4: `R(M)` is
    /// reproducible information). Deliveries without a declared dependency
    /// set (vector-clock and PC engines) contribute nothing.
    ///
    /// # Errors
    ///
    /// The first [`GraphError`] hit: a delivery named a dependency not
    /// delivered before it, or a message was delivered twice. A trace of a
    /// causally ordered member that starts mid-run (a suffix taken with
    /// `take_trace`) fails the same way.
    pub fn graph(&self) -> Result<MsgGraph, GraphError> {
        let mut graph = MsgGraph::new();
        for e in &self.events {
            if let TraceEvent::Deliver {
                id,
                deps: Some(deps),
                ..
            } = e
            {
                graph.add(*id, deps)?;
            }
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(p: u32, s: u64) -> MsgId {
        MsgId::new(ProcessId::new(p), s)
    }

    #[test]
    fn accessors_filter_by_kind() {
        let mut t = MemberTrace::new(ProcessId::new(1));
        assert!(t.is_empty());
        t.record(TraceEvent::Send { id: id(1, 1) });
        t.record(TraceEvent::Receive {
            id: id(0, 1),
            fresh: true,
        });
        t.record(TraceEvent::Receive {
            id: id(0, 1),
            fresh: false,
        });
        t.record(TraceEvent::Deliver {
            id: id(0, 1),
            deps: Some(vec![]),
            vt: None,
            sync_candidate: true,
        });
        assert_eq!(t.me(), ProcessId::new(1));
        assert_eq!(t.len(), 4);
        assert!(!t.crashed());
        t.record(TraceEvent::Crashed);
        assert!(t.crashed());
    }

    fn deliver(id: MsgId, deps: Option<Vec<MsgId>>) -> TraceEvent {
        TraceEvent::Deliver {
            id,
            deps,
            vt: None,
            sync_candidate: false,
        }
    }

    #[test]
    fn graph_rebuilds_declared_relation() {
        // Figure 2: m_k -> ||{m'_i, m'_j}, delivered m'_j first.
        let (mk, mi, mj) = (id(2, 1), id(0, 1), id(1, 1));
        let mut t = MemberTrace::new(ProcessId::new(0));
        t.record(TraceEvent::Send { id: mi });
        t.record(deliver(mk, Some(vec![])));
        t.record(deliver(mj, Some(vec![mk])));
        t.record(deliver(mi, Some(vec![mk])));
        let g = t.graph().unwrap();
        assert_eq!(g.len(), 3);
        assert!(g.causally_precedes(mk, mi));
        assert!(g.is_concurrent(mi, mj));
        assert_eq!(g.insertion_order(), &[mk, mj, mi]);
    }

    #[test]
    fn graph_of_dependency_free_deliveries_is_empty() {
        let mut t = MemberTrace::new(ProcessId::new(0));
        t.record(deliver(id(0, 1), None));
        t.record(deliver(id(1, 1), None));
        assert!(t.graph().unwrap().is_empty());
    }

    #[test]
    fn graph_of_suffix_trace_is_an_error() {
        // The dependency was delivered before this trace began.
        let mut t = MemberTrace::new(ProcessId::new(0));
        t.record(deliver(id(0, 2), Some(vec![id(0, 1)])));
        assert_eq!(
            t.graph(),
            Err(GraphError::MissingDependency {
                node: id(0, 2),
                dep: id(0, 1)
            })
        );
    }
}
