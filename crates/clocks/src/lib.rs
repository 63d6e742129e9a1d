//! Logical clocks and identifiers for causally ordered distributed computations.
//!
//! This crate provides the time-keeping substrate used by the
//! `causal-broadcast` workspace, a reproduction of *Causal Broadcasting and
//! Consistency of Distributed Shared Data* (Ravindran & Shah, ICDCS 1994):
//!
//! - [`ProcessId`], [`MsgId`]: identifiers for entities and messages.
//! - [`VectorClock`]: vector timestamps with the partial-order comparison
//!   used to decide causal precedence and concurrency, plus the classic
//!   CBCAST causal-delivery condition (Birman, Schiper & Stephenson 1991).
//! - [`MatrixClock`]: matrix clocks used for message-stability detection
//!   (everyone-knows-that-everyone-received), which enables garbage
//!   collection of delivery buffers.
//! - [`IdWindow`]: per-message state keyed by [`MsgId`], laid out as one
//!   window per origin whose floor retires a prefix at a time; it is also
//!   the in-order gate of every sequenced stream ([`Offer`]).
//!
//! # Examples
//!
//! ```
//! use causal_clocks::{ProcessId, VectorClock, CausalOrdering};
//!
//! let p0 = ProcessId::new(0);
//! let p1 = ProcessId::new(1);
//!
//! let mut a = VectorClock::new(2);
//! let mut b = VectorClock::new(2);
//! a.increment(p0); // a = [1, 0]
//! b.increment(p1); // b = [0, 1]
//! assert_eq!(a.compare(&b), CausalOrdering::Concurrent);
//!
//! b.merge(&a);     // b = [1, 1]
//! assert_eq!(a.compare(&b), CausalOrdering::Before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ids;
mod matrix;
mod ordering;
mod vector;
mod window;

pub use ids::{MsgId, ProcessId};
pub use matrix::MatrixClock;
pub use ordering::CausalOrdering;
pub use vector::{DeliveryCheck, VectorClock};
pub use window::{IdWindow, Offer};
