//! Verification layer for the causal-broadcast protocol stack.
//!
//! The paper's central claims — every member's delivery order respects
//! `R(M)` (§3), all members agree on the shared-data value at locally
//! detected stable points (§4), and any permutation of a concurrent
//! commutative window yields the same state (§5.1) — are *properties of
//! executions*. This crate checks them mechanically, in three layers:
//!
//! 1. **Trace oracle** ([`oracle`]): any
//!    [`ProtocolStack`](causal_core::stack::ProtocolStack) built with
//!    `with_tracing()` records a per-member
//!    [`MemberTrace`](causal_core::trace::MemberTrace) under every runtime
//!    (simnet, threaded, TCP). [`trace::Trace`] assembles the group's
//!    traces and [`oracle::check_trace`] verifies the paper's invariants
//!    in polynomial time, building on the per-log validators in
//!    [`check`], in the spirit of Bouajjani et al.'s *On Verifying
//!    Causal Consistency*: a single execution is checked
//!    against the causal-consistency definition, with the replica's
//!    sequential specification (Mostéfaoui/Perrin/Raynal) supplying the
//!    state-agreement obligations.
//! 2. **Schedule explorer** ([`explorer`]): an exhaustive DFS over
//!    message-delivery interleavings of small configurations with
//!    sleep-set partial-order reduction, running the oracle at every
//!    quiescent terminal state and minimizing any failing schedule into
//!    a replayable counterexample.
//! 3. **Replayable traces** ([`trace`]): a line-oriented text format for
//!    traces so counterexamples can be committed under `regressions/` and
//!    re-checked forever.
//!
//! The `cargo xtask lint` static pass (the third leg of the verification
//! tooling) lives in the workspace's `xtask` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod check;
pub mod explorer;
pub mod oracle;
pub mod trace;

pub use check::Violation;
pub use explorer::{explore_stacks, Explorer, MsgClass, PorStats, ScriptStep};
pub use oracle::{check_trace, OracleConfig, OracleReport, OracleViolation};
pub use trace::Trace;
