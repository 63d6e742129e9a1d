//! PC-broadcast: preventive causal broadcast with constant-size headers.
//!
//! The subsystem behind the [`PcEngine`] delivery engine, after Nédelec,
//! Molli & Mostéfaoui, *Breaking the Scalability Barrier of Causal
//! Broadcast for Large and Dynamic Systems* (2018). Three layers:
//!
//! - [`overlay`]: the deterministic spanning overlay (balanced k-ary
//!   tree over sorted member ids) that replaces full-mesh dissemination;
//! - [`link`]: synthesized FIFO links — per-link sequencing, reassembly,
//!   cumulative acks, named losses, retransmission — the ordering
//!   substrate;
//! - [`engine`]: the engine proper — forward-on-delivery over safe
//!   links, the per-origin watermark gate, and the ping/pong quarantine
//!   protocol for links opened by membership churn.
//!
//! The wire codec for link frames lives in [`codec`] so the static
//! analyzer's wire-panic audit covers its decode paths alongside
//! `core/wire.rs`.

pub mod codec;
pub mod engine;
pub mod link;
pub mod overlay;

pub use engine::{PcEngine, PcEnvelope};
pub use link::{Link, LinkBody, LinkClock, LinkFrame};
