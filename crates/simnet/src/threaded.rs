//! A real-thread runtime for [`Actor`]s over in-process channels.
//!
//! The protocol crates are sans-IO: the same [`Actor`] that runs under the
//! deterministic [`Simulation`](crate::Simulation) also runs here, on one OS
//! thread per node with unbounded `std::sync::mpsc` channels as links. This
//! runtime exists to demonstrate transport independence and to exercise the
//! protocols under *real* (non-deterministic) interleavings in integration
//! tests; quantitative experiments use the simulator, and `causal-net`
//! carries the same actors over real TCP sockets.
//!
//! Each node thread hands its actor to [`ActorRunner::serve`] — the same
//! receive loop the TCP transport runs — so this file is only the channel
//! plumbing.
//!
//! # Examples
//!
//! ```
//! use causal_clocks::ProcessId;
//! use causal_simnet::threaded::run_threaded;
//! use causal_simnet::{Actor, Context};
//! use std::time::Duration;
//!
//! struct Greeter { greeted: usize }
//! impl Actor for Greeter {
//!     type Msg = u8;
//!     fn on_start(&mut self, ctx: &mut Context<'_, u8>) { ctx.broadcast(1); }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, u8>, _from: ProcessId, _m: u8) {
//!         self.greeted += 1;
//!     }
//! }
//!
//! let nodes = vec![Greeter { greeted: 0 }, Greeter { greeted: 0 }];
//! let done = run_threaded(nodes, Duration::from_millis(200), 7);
//! assert!(done.iter().all(|n| n.greeted == 1));
//! ```

use crate::actor::Actor;
use crate::runner::{ActorRunner, RunnerStats, Transport};
use causal_clocks::ProcessId;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

type Link<M> = (ProcessId, M);

/// Fans outbound messages onto the per-node channels.
struct Mesh<M> {
    me: ProcessId,
    senders: Vec<Sender<Link<M>>>,
}

impl<M> Transport<M> for Mesh<M> {
    fn send(&mut self, to: ProcessId, msg: M) {
        // Ignore send failures: the peer may already have passed the
        // deadline and hung up.
        let _ = self.senders[to.as_usize()].send((self.me, msg));
    }
}

/// Runs each actor on its own OS thread for (at least) `duration` of wall
/// time, then joins the threads and returns the actors for inspection.
/// A node notices the deadline at its next wakeup, so it may run up to
/// one poll interval (20 ms) past it, and it delivers what has already
/// reached it before it stops.
///
/// Message links are unbounded mpsc channels (reliable, FIFO, unbounded
/// latency jitter from the OS scheduler). Timers are serviced with
/// millisecond-ish precision. `seed` derives each node's RNG, keeping
/// actor-level randomness reproducible even though interleavings are not.
///
/// # Panics
///
/// Panics if `nodes` is empty or if a node thread panics.
pub fn run_threaded<A>(nodes: Vec<A>, duration: Duration, seed: u64) -> Vec<A>
where
    A: Actor + Send + 'static,
    A::Msg: Send + 'static,
{
    run_threaded_with_stats(nodes, duration, seed)
        .into_iter()
        .map(|(node, _)| node)
        .collect()
}

/// [`run_threaded`], additionally returning each node's
/// [`RunnerStats`] — the allocation/throughput counters of the shared
/// [`ActorRunner`] driver. Tests use the `scratch_grows` counter to assert
/// that steady-state message handling performs no per-message command
/// allocation on the threaded path too.
///
/// # Panics
///
/// Panics if `nodes` is empty or if a node thread panics.
fn run_threaded_with_stats<A>(nodes: Vec<A>, duration: Duration, seed: u64) -> Vec<(A, RunnerStats)>
where
    A: Actor + Send + 'static,
    A::Msg: Send + 'static,
{
    assert!(
        !nodes.is_empty(),
        "threaded runtime requires at least one node"
    );
    let n = nodes.len();
    let mut senders: Vec<Sender<Link<A::Msg>>> = Vec::with_capacity(n);
    let mut receivers: Vec<Receiver<Link<A::Msg>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(rx);
    }

    let deadline = Instant::now() + duration;
    let mut handles = Vec::with_capacity(n);
    for (i, (node, rx)) in nodes.into_iter().zip(receivers).enumerate() {
        let me = ProcessId::new(i as u32);
        let mut mesh = Mesh {
            me,
            senders: senders.clone(),
        };
        let handle = std::thread::spawn(move || {
            let mut runner = ActorRunner::new(node, me, n, seed.wrapping_add(i as u64));
            runner.serve(&mut mesh, &rx, || Instant::now() >= deadline);
            let stats = runner.stats();
            (runner.into_actor(), stats)
        });
        handles.push(handle);
    }
    drop(senders);
    handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;
    use crate::SimDuration;

    struct PingPong {
        bounces: u32,
    }
    impl Actor for PingPong {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.me() == ProcessId::new(0) {
                ctx.send(ProcessId::new(1), 6);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, msg: u32) {
            self.bounces += 1;
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
    }

    #[test]
    fn ping_pong_over_threads() {
        let nodes = vec![PingPong { bounces: 0 }, PingPong { bounces: 0 }];
        let done = run_threaded(nodes, Duration::from_millis(300), 1);
        // 6,5,4,3,2,1,0 -> 7 deliveries split across two nodes.
        assert_eq!(done[0].bounces + done[1].bounces, 7);
    }

    #[test]
    fn threaded_runtime_reports_allocation_free_stats() {
        let nodes = vec![PingPong { bounces: 0 }, PingPong { bounces: 0 }];
        let done = run_threaded_with_stats(nodes, Duration::from_millis(300), 1);
        let total_bounces: u32 = done.iter().map(|(n, _)| n.bounces).sum();
        assert_eq!(total_bounces, 7);
        for (_, stats) in &done {
            // PingPong issues at most one command per callback: the scratch
            // buffer grows once (0 → first burst) and never again.
            assert!(
                stats.scratch_grows <= 1,
                "per-message allocation on the threaded path: {stats:?}"
            );
            assert!(stats.callbacks >= 1);
        }
    }

    struct TimerTicker {
        fired: u32,
    }
    impl Actor for TimerTicker {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            ctx.set_timer(SimDuration::from_millis(5), 0);
        }
        fn on_message(&mut self, _: &mut Context<'_, ()>, _: ProcessId, _: ()) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _tag: u64) {
            self.fired += 1;
            if self.fired < 3 {
                ctx.set_timer(SimDuration::from_millis(5), 0);
            }
        }
    }

    #[test]
    fn timers_fire_on_threads() {
        let done = run_threaded(
            vec![TimerTicker { fired: 0 }],
            Duration::from_millis(300),
            1,
        );
        assert_eq!(done[0].fired, 3);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_rejected() {
        let _ = run_threaded(Vec::<PingPong>::new(), Duration::from_millis(1), 0);
    }
}
