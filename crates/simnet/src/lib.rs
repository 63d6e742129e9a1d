//! Deterministic discrete-event network simulation for protocol evaluation.
//!
//! The paper's protocols (causal broadcast, `OSend`/`ASend`, replicated data
//! access) were designed for a distributed operating-system kernel over a
//! real network. This crate substitutes a **deterministic discrete-event
//! simulator**: protocol state machines run as [`Actor`]s on simulated
//! nodes identified by [`ProcessId`](causal_clocks::ProcessId), exchanging
//! messages through a configurable network ([`NetConfig`]) with latency
//! models ([`LatencyModel`]), message drops, duplication, and partitions
//! ([`Partition`]). A fixed RNG seed makes every run — including every
//! benchmark figure — exactly reproducible.
//!
//! A small real-thread runtime ([`threaded`]) runs the same [`Actor`]s over
//! in-process channels, demonstrating that the protocol crates are
//! transport-agnostic (sans-IO); the `causal-net` crate carries them over
//! real TCP sockets. Both drive their actors through the [`runner`]'s one
//! receive loop, [`ActorRunner::serve`].
//!
//! # Examples
//!
//! ```
//! use causal_clocks::ProcessId;
//! use causal_simnet::{Actor, Context, LatencyModel, NetConfig, Simulation};
//!
//! /// Each node greets every other node once and counts greetings received.
//! struct Greeter { greeted: usize }
//!
//! impl Actor for Greeter {
//!     type Msg = &'static str;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
//!         ctx.broadcast("hello");
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, Self::Msg>,
//!                   _from: ProcessId, _msg: Self::Msg) {
//!         self.greeted += 1;
//!     }
//! }
//!
//! let nodes = vec![Greeter { greeted: 0 }, Greeter { greeted: 0 }, Greeter { greeted: 0 }];
//! let mut sim = Simulation::new(
//!     nodes,
//!     NetConfig::with_latency(LatencyModel::constant_micros(500)),
//!     42,
//! );
//! sim.run_to_quiescence();
//! assert!(sim.nodes().iter().all(|n| n.greeted == 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod arena;
mod event;
mod fault;
mod latency;
mod metrics;
pub mod reference;
pub mod runner;
mod sim;
pub mod threaded;
mod time;
mod trace;
mod wheel;

pub use actor::{Actor, Command, Context};
pub use fault::{FaultPlan, Partition};
pub use latency::LatencyModel;
pub use metrics::{Histogram, Metrics};
pub use runner::{ActorRunner, RunnerStats, Transport};
pub use sim::{NetConfig, Simulation};
pub use time::{SimDuration, SimTime};
pub use trace::{NetEvent, NetTrace};
