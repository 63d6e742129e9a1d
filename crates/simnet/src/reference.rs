//! The original heap-based simulation core, kept as a differential oracle.
//!
//! This is the engine as it stood before the bucketed-queue refactor: one
//! global `BinaryHeap` whose events own their payloads, a fresh command
//! `Vec` per actor callback, and a linear partition scan per transmission.
//! It is deliberately *not* optimized — its value is that it is simple
//! enough to audit, and that [`Simulation`](crate::Simulation) must match
//! it bit-for-bit: same seed, same actors, same configuration ⇒ identical
//! traces, metrics, and final actor states. The differential suites
//! (`tests/sim_differential.rs`, the proptests in `sim_props.rs`) run
//! this core from outside the crate; that is why it is a public module
//! rather than test-only code.
//!
//! Determinism depends on both cores drawing from the RNG in exactly the
//! same order: per transmission, one Bernoulli draw for drop, one for
//! duplication, then one latency sample per copy. Changing either core's
//! draw order is a compatibility break that the differential tests catch.

use crate::actor::{Actor, Command, Context};
use crate::{Metrics, NetConfig, NetEvent, NetTrace, SimDuration, SimTime};
use causal_clocks::ProcessId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A scheduled event owning its payload, ordered by `(at, seq)`.
#[derive(Debug, Clone)]
struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

#[derive(Debug, Clone)]
enum EventKind<M> {
    Deliver {
        from: ProcessId,
        to: ProcessId,
        msg: M,
        sent_at: SimTime,
    },
    Timer {
        node: ProcessId,
        tag: u64,
    },
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<M> Eq for Scheduled<M> {}

impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The heap-based discrete-event engine (pre-refactor behavior).
///
/// Drives the same [`Actor`]s as [`crate::Simulation`] with the same
/// public surface (minus the batched-step API), so a scenario can be run
/// on both cores and compared event for event.
///
/// # Examples
///
/// ```
/// use causal_simnet::{NetConfig, Simulation, reference};
/// # use causal_clocks::ProcessId;
/// # use causal_simnet::{Actor, Context};
/// # struct Echo { got: u32 }
/// # impl Actor for Echo {
/// #     type Msg = u32;
/// #     fn on_start(&mut self, ctx: &mut Context<'_, u32>) { ctx.broadcast(1); }
/// #     fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {
/// #         self.got += 1;
/// #     }
/// # }
/// # let mk = || vec![Echo { got: 0 }, Echo { got: 0 }];
/// let mut fast = Simulation::new(mk(), NetConfig::new(), 7);
/// let mut oracle = reference::Simulation::new(mk(), NetConfig::new(), 7);
/// fast.enable_trace();
/// oracle.enable_trace();
/// fast.run_to_quiescence();
/// oracle.run_to_quiescence();
/// assert_eq!(fast.trace(), oracle.trace());
/// assert_eq!(fast.metrics(), oracle.metrics());
/// ```
#[derive(Debug)]
pub struct Simulation<A: Actor> {
    nodes: Vec<A>,
    queue: BinaryHeap<Reverse<Scheduled<A::Msg>>>,
    now: SimTime,
    next_seq: u64,
    rng: StdRng,
    config: NetConfig,
    metrics: Metrics,
    trace: Option<NetTrace>,
    events_processed: u64,
    in_flight: u64,
}

impl<A: Actor> Simulation<A> {
    /// Creates a simulation over `nodes` (node `i` gets identity `p_i`) and
    /// runs every actor's [`Actor::on_start`] at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<A>, config: NetConfig, seed: u64) -> Self {
        assert!(!nodes.is_empty(), "simulation requires at least one node");
        let mut sim = Simulation {
            nodes,
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            rng: StdRng::seed_from_u64(seed),
            config,
            metrics: Metrics::new(),
            trace: None,
            events_processed: 0,
            in_flight: 0,
        };
        for i in 0..sim.nodes.len() {
            let me = ProcessId::new(i as u32);
            let mut ctx = Context::new(me, sim.now, sim.nodes.len(), &mut sim.rng);
            sim.nodes[i].on_start(&mut ctx);
            let commands = ctx.take_commands();
            sim.apply_commands(me, commands);
        }
        sim
    }

    /// Enables transport-event tracing (disabled by default).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(NetTrace::new());
        }
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&NetTrace> {
        self.trace.as_ref()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `false` — a simulation always has nodes. Provided for API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Shared view of all nodes.
    pub fn nodes(&self) -> &[A] {
        &self.nodes
    }

    /// Shared view of one node.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn node(&self, p: ProcessId) -> &A {
        &self.nodes[p.as_usize()]
    }

    /// Exclusive view of one node.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn node_mut(&mut self, p: ProcessId) -> &mut A {
        &mut self.nodes[p.as_usize()]
    }

    /// Run metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Calls `f` on node `p` with a live [`Context`] at the current time,
    /// then applies the commands it issued.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn poke<F, R>(&mut self, p: ProcessId, f: F) -> R
    where
        F: FnOnce(&mut A, &mut Context<'_, A::Msg>) -> R,
    {
        let mut ctx = Context::new(p, self.now, self.nodes.len(), &mut self.rng);
        let out = f(&mut self.nodes[p.as_usize()], &mut ctx);
        let commands = ctx.take_commands();
        self.apply_commands(p, commands);
        out
    }

    /// Processes the next scheduled event. Returns `false` when the queue
    /// is empty (quiescence).
    pub fn step(&mut self) -> bool {
        let Some(Reverse(event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.at >= self.now, "time went backwards");
        self.now = event.at;
        self.events_processed += 1;
        match event.kind {
            EventKind::Deliver {
                from,
                to,
                msg,
                sent_at,
            } => {
                self.in_flight -= 1;
                self.metrics.delivered += 1;
                if let Some(trace) = &mut self.trace {
                    trace.push(NetEvent::Delivered {
                        at: self.now,
                        from,
                        to,
                        sent_at,
                    });
                }
                let mut ctx = Context::new(to, self.now, self.nodes.len(), &mut self.rng);
                self.nodes[to.as_usize()].on_message(&mut ctx, from, msg);
                let commands = ctx.take_commands();
                self.apply_commands(to, commands);
            }
            EventKind::Timer { node, tag } => {
                self.metrics.timers_fired += 1;
                if let Some(trace) = &mut self.trace {
                    trace.push(NetEvent::TimerFired {
                        at: self.now,
                        node,
                        tag,
                    });
                }
                let mut ctx = Context::new(node, self.now, self.nodes.len(), &mut self.rng);
                self.nodes[node.as_usize()].on_timer(&mut ctx, tag);
                let commands = ctx.take_commands();
                self.apply_commands(node, commands);
            }
        }
        true
    }

    /// Runs until no event is scheduled at or before `deadline`; the clock
    /// ends at `deadline` or later only if an event lands exactly there.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs until the event queue drains, returning the final time.
    ///
    /// # Panics
    ///
    /// Panics after 50 million events as a runaway-protocol guard.
    pub fn run_to_quiescence(&mut self) -> SimTime {
        const MAX_EVENTS: u64 = 50_000_000;
        let start = self.events_processed;
        while self.step() {
            assert!(
                self.events_processed - start < MAX_EVENTS,
                "simulation did not quiesce within {MAX_EVENTS} events"
            );
        }
        self.now
    }

    /// Consumes the simulation and returns the actors for inspection.
    pub fn into_nodes(self) -> Vec<A> {
        self.nodes
    }

    fn schedule(&mut self, at: SimTime, kind: EventKind<A::Msg>) {
        if matches!(kind, EventKind::Deliver { .. }) {
            self.in_flight += 1;
            self.metrics.peak_in_flight = self.metrics.peak_in_flight.max(self.in_flight);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Scheduled { at, seq, kind }));
    }

    fn apply_commands(&mut self, me: ProcessId, commands: Vec<Command<A::Msg>>) {
        for command in commands {
            match command {
                Command::Send { to, msg } => self.transmit(me, to, msg),
                Command::Multicast { to, msg } => {
                    // Per-target transmissions in command order, so each
                    // leg draws faults/latency exactly as the equivalent
                    // sequence of `Send`s would (determinism under a seed).
                    for dest in to {
                        self.transmit(me, dest, msg.clone());
                    }
                }
                Command::SetTimer { delay, tag } => {
                    self.schedule(self.now + delay, EventKind::Timer { node: me, tag });
                }
            }
        }
    }

    /// Applies faults/partitions/latency to one transmission and schedules
    /// the delivery (or drops it). Loopback sends bypass the network.
    fn transmit(&mut self, from: ProcessId, to: ProcessId, msg: A::Msg) {
        self.metrics.sent += 1;
        if from == to {
            // Loopback: immediate, reliable.
            self.schedule(
                self.now,
                EventKind::Deliver {
                    from,
                    to,
                    msg,
                    sent_at: self.now,
                },
            );
            return;
        }
        if let Some(trace) = &mut self.trace {
            trace.push(NetEvent::Sent {
                at: self.now,
                from,
                to,
            });
        }
        let severed = self.config.severed(from, to, self.now);
        let dropped = severed
            || self
                .rng
                .gen_bool(self.config.fault_plan().drop_prob().clamp(0.0, 1.0));
        if dropped {
            self.metrics.dropped += 1;
            if let Some(trace) = &mut self.trace {
                trace.push(NetEvent::Dropped {
                    at: self.now,
                    from,
                    to,
                });
            }
            return;
        }
        let copies = if self
            .rng
            .gen_bool(self.config.fault_plan().dup_prob().clamp(0.0, 1.0))
        {
            self.metrics.duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            let latency: SimDuration = self.config.latency_model().sample(&mut self.rng);
            self.schedule(
                self.now + latency,
                EventKind::Deliver {
                    from,
                    to,
                    msg: msg.clone(),
                    sent_at: self.now,
                },
            );
        }
    }
}
