//! The discrete-event simulation engine.
//!
//! This is the bucketed core: events live in a [`CalendarQueue`] as small
//! `Copy` records, payloads live in a generation-checked `MsgArena`, and
//! actor commands are collected into one recycled scratch buffer. The
//! pre-refactor heap engine survives as [`crate::reference`], and the
//! differential suites hold the two bit-for-bit equal.

use crate::actor::{Actor, Command, Context};
use crate::arena::MsgArena;
use crate::event::{EventKind, Scheduled};
use crate::fault::PartitionSchedule;
use crate::wheel::CalendarQueue;
use crate::{
    FaultPlan, LatencyModel, Metrics, NetEvent, NetTrace, Partition, QueueConfig, SimDuration,
    SimTime,
};
use causal_clocks::ProcessId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Network configuration: latency model, probabilistic faults, and
/// scheduled partitions.
///
/// # Examples
///
/// ```
/// use causal_simnet::{FaultPlan, LatencyModel, NetConfig};
///
/// let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 900))
///     .faults(FaultPlan::new().with_drop_prob(0.01));
/// assert!(!cfg.fault_plan().is_fault_free());
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetConfig {
    latency: LatencyModel,
    faults: FaultPlan,
    partitions: Vec<Partition>,
    link_overrides: Vec<(ProcessId, ProcessId, LatencyModel)>,
}

impl NetConfig {
    /// A fault-free network with the default (LAN-like) latency.
    pub fn new() -> Self {
        NetConfig::default()
    }

    /// A fault-free network with the given latency model.
    pub fn with_latency(latency: LatencyModel) -> Self {
        NetConfig {
            latency,
            ..NetConfig::default()
        }
    }

    /// Sets the probabilistic fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Adds a scheduled partition.
    pub fn partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// Overrides the latency model of one directed link (e.g. a slow or
    /// remote member). Later overrides for the same pair win.
    pub fn link_latency(mut self, from: ProcessId, to: ProcessId, model: LatencyModel) -> Self {
        self.link_overrides.push((from, to, model));
        self
    }

    /// The latency model in effect for a directed link.
    pub fn latency_for(&self, from: ProcessId, to: ProcessId) -> &LatencyModel {
        self.link_overrides
            .iter()
            .rev()
            .find(|(f, t, _)| *f == from && *t == to)
            .map(|(_, _, m)| m)
            .unwrap_or(&self.latency)
    }

    /// The default latency model in effect.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// The fault plan in effect.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The scheduled partitions, in configuration order.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Full scan over every partition; the bucketed core uses the
    /// incremental [`PartitionSchedule`] instead, and the differential
    /// tests keep the two answers equal.
    pub(crate) fn severed(&self, from: ProcessId, to: ProcessId, at: SimTime) -> bool {
        self.partitions.iter().any(|p| p.severs(from, to, at))
    }
}

/// A deterministic discrete-event simulation of a group of [`Actor`]s.
///
/// Events (message deliveries, timer firings) are processed in
/// `(time, scheduling-sequence)` order, so two runs with the same actors,
/// configuration, and seed produce identical histories — and identical to
/// the [`reference`](crate::reference) core's, which this engine replaces
/// for throughput:
///
/// - events wait in a bucketed `CalendarQueue` instead of a global heap;
/// - payloads live in a generation-checked `MsgArena`, so queue traffic
///   is fixed-size and steady-state runs allocate nothing per message;
/// - actor commands collect into one recycled scratch buffer instead of a
///   fresh `Vec` per callback;
/// - [`run_events`](Self::run_events) / [`drain_timestamp`](Self::drain_timestamp)
///   batch stepping for driver loops.
///
/// # Examples
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug)]
pub struct Simulation<A: Actor> {
    nodes: Vec<A>,
    queue: CalendarQueue,
    arena: MsgArena<A::Msg>,
    now: SimTime,
    next_seq: u64,
    rng: StdRng,
    config: NetConfig,
    partitions: PartitionSchedule,
    metrics: Metrics,
    trace: Option<NetTrace>,
    events_processed: u64,
    scratch: Vec<Command<A::Msg>>,
}

impl<A: Actor> Simulation<A> {
    /// Creates a simulation over `nodes` (node `i` gets identity `p_i`) and
    /// runs every actor's [`Actor::on_start`] at time zero. Uses the
    /// default event-queue geometry ([`QueueConfig::default`]).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<A>, config: NetConfig, seed: u64) -> Self {
        Simulation::with_queue_config(nodes, config, seed, QueueConfig::default())
    }

    /// [`new`](Self::new) with explicit event-queue geometry, for workloads
    /// whose latency profile doesn't fit the default bucket span. Queue
    /// geometry never affects results — only speed.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or `queue` is invalid.
    pub fn with_queue_config(
        nodes: Vec<A>,
        config: NetConfig,
        seed: u64,
        queue: QueueConfig,
    ) -> Self {
        assert!(!nodes.is_empty(), "simulation requires at least one node");
        let partitions = PartitionSchedule::new(config.partitions());
        let mut sim = Simulation {
            nodes,
            queue: CalendarQueue::new(queue),
            arena: MsgArena::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            rng: StdRng::seed_from_u64(seed),
            config,
            partitions,
            metrics: Metrics::new(),
            trace: None,
            events_processed: 0,
            scratch: Vec::new(),
        };
        for i in 0..sim.nodes.len() {
            let me = ProcessId::new(i as u32);
            sim.run_callback(me, |node, ctx| node.on_start(ctx));
        }
        sim
    }

    /// Enables transport-event tracing (disabled by default; traces grow
    /// with run length).
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

    /// Exclusive view of one node (e.g. to inject client requests between
    /// [`step`](Self::step)s). Use [`poke`](Self::poke) when the mutation
    /// needs to send messages.
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

    /// Messages currently in flight (scheduled for delivery but not yet
    /// delivered) — the live population of the message arena.
    pub fn in_flight(&self) -> usize {
        self.arena.live()
    }

    /// Events waiting in the queue (deliveries and timers).
    pub fn events_queued(&self) -> usize {
        self.queue.len()
    }

    /// Calls `f` on node `p` with a live [`Context`] at the current time,
    /// then applies the commands it issued. This is how external drivers
    /// (workload generators, examples) inject requests mid-run.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn poke<F, R>(&mut self, p: ProcessId, f: F) -> R
    where
        F: FnOnce(&mut A, &mut Context<'_, A::Msg>) -> R,
    {
        self.run_callback(p, |node, ctx| f(node, ctx))
    }

    /// Processes the next scheduled event. Returns `false` when the queue
    /// is empty (quiescence).
    pub fn step(&mut self) -> bool {
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.at >= self.now, "time went backwards");
        self.now = event.at;
        self.events_processed += 1;
        self.fire(event);
        true
    }

    /// Processes up to `max` events, returning how many ran (fewer only on
    /// quiescence). Batching keeps driver loops out of the per-event path:
    /// a harness can interleave workload injection every `n` events instead
    /// of wrapping every [`step`](Self::step).
    pub fn run_events(&mut self, max: u64) -> u64 {
        let mut done = 0;
        while done < max {
            let Some(event) = self.queue.pop() else {
                break;
            };
            debug_assert!(event.at >= self.now, "time went backwards");
            self.now = event.at;
            self.events_processed += 1;
            self.fire(event);
            done += 1;
        }
        done
    }

    /// Processes every event of the next occupied simulated instant —
    /// including events that callbacks schedule *at* that instant (loopback
    /// deliveries, zero-delay timers) — and returns how many ran. Zero
    /// means quiescence. This is the batched unit drivers want when they
    /// inspect state "between" simulated times: afterwards, no event is
    /// pending at `now()`.
    pub fn drain_timestamp(&mut self) -> u64 {
        let Some((instant, _)) = self.queue.peek_key() else {
            return 0;
        };
        let mut done = 0;
        while let Some((at, _)) = self.queue.peek_key() {
            if at != instant {
                break;
            }
            let event = self.queue.pop().expect("peeked event");
            self.now = event.at;
            self.events_processed += 1;
            self.fire(event);
            done += 1;
        }
        done
    }

    /// Runs until no event is scheduled at or before `deadline`; the clock
    /// ends at `deadline` or later only if an event lands exactly there.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((at, _)) = self.queue.peek_key() {
            if at > deadline {
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
    /// Panics after 50 million events as a runaway-protocol guard
    /// (e.g. two actors ping-ponging forever).
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

    /// Dispatches one popped event to its actor callback.
    fn fire(&mut self, event: Scheduled) {
        match event.kind {
            EventKind::Deliver {
                from,
                to,
                msg,
                sent_at,
            } => {
                let msg = self.arena.reclaim(msg);
                self.metrics.delivered += 1;
                if let Some(trace) = &mut self.trace {
                    trace.push(NetEvent::Delivered {
                        at: self.now,
                        from,
                        to,
                        sent_at,
                    });
                }
                self.run_callback(to, |node, ctx| node.on_message(ctx, from, msg));
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
                self.run_callback(node, |n, ctx| n.on_timer(ctx, tag));
            }
        }
    }

    /// Runs one actor callback against the recycled scratch buffer, then
    /// applies (and drains) the commands it issued and stores the buffer
    /// back for the next callback.
    fn run_callback<F, R>(&mut self, p: ProcessId, f: F) -> R
    where
        F: FnOnce(&mut A, &mut Context<'_, A::Msg>) -> R,
    {
        let scratch = std::mem::take(&mut self.scratch);
        let mut ctx = Context::with_scratch(p, self.now, self.nodes.len(), &mut self.rng, scratch);
        let out = f(&mut self.nodes[p.as_usize()], &mut ctx);
        let mut commands = ctx.take_commands();
        self.apply_commands(p, &mut commands);
        self.scratch = commands;
        out
    }

    fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Scheduled { at, seq, kind });
    }

    /// Parks `msg` in the arena and schedules its delivery.
    fn schedule_delivery(&mut self, at: SimTime, from: ProcessId, to: ProcessId, msg: A::Msg) {
        let msg = self.arena.insert(msg);
        self.metrics.peak_in_flight = self.arena.peak() as u64;
        self.schedule(
            at,
            EventKind::Deliver {
                from,
                to,
                msg,
                sent_at: self.now,
            },
        );
    }

    fn apply_commands(&mut self, me: ProcessId, commands: &mut Vec<Command<A::Msg>>) {
        for command in commands.drain(..) {
            match command {
                Command::Send { to, msg } => self.transmit(me, to, msg),
                Command::Multicast { to, msg } => {
                    // Per-target transmissions in command order, so each
                    // leg draws faults/latency exactly as the equivalent
                    // sequence of `Send`s would (determinism under a seed).
                    let legs = to.len();
                    let mut msg = Some(msg);
                    for (i, dest) in to.into_iter().enumerate() {
                        let payload = if i + 1 == legs {
                            msg.take().expect("one payload per multicast")
                        } else {
                            msg.as_ref().expect("payload moved early").clone()
                        };
                        self.transmit(me, dest, payload);
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
    ///
    /// The RNG draw order — drop Bernoulli, dup Bernoulli, one latency
    /// sample per copy — is the determinism contract shared with
    /// [`crate::reference`]; both cores must keep it exactly.
    fn transmit(&mut self, from: ProcessId, to: ProcessId, msg: A::Msg) {
        self.metrics.sent += 1;
        if from == to {
            // Loopback: immediate, reliable.
            self.schedule_delivery(self.now, from, to, msg);
            return;
        }
        if let Some(trace) = &mut self.trace {
            trace.push(NetEvent::Sent {
                at: self.now,
                from,
                to,
            });
        }
        let severed = self.partitions.severed(from, to, self.now);
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
        let mut msg = Some(msg);
        for i in 0..copies {
            let latency: SimDuration = self.config.latency_for(from, to).sample(&mut self.rng);
            let payload = if i + 1 == copies {
                msg.take().expect("one payload per copy")
            } else {
                msg.as_ref().expect("payload moved early").clone()
            };
            self.schedule_delivery(self.now + latency, from, to, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts deliveries; on start, node 0 broadcasts `rounds` batches.
    struct Counter {
        received: Vec<(ProcessId, u32)>,
        send_on_start: u32,
    }

    impl Actor for Counter {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            for k in 0..self.send_on_start {
                ctx.broadcast(k);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, u32>, from: ProcessId, msg: u32) {
            self.received.push((from, msg));
        }
    }

    fn counters(n: usize, send_on_start: u32) -> Vec<Counter> {
        (0..n)
            .map(|i| Counter {
                received: Vec::new(),
                send_on_start: if i == 0 { send_on_start } else { 0 },
            })
            .collect()
    }

    #[test]
    fn broadcast_reaches_all_others() {
        let mut sim = Simulation::new(counters(4, 1), NetConfig::new(), 1);
        sim.run_to_quiescence();
        assert_eq!(sim.node(ProcessId::new(0)).received.len(), 0);
        for i in 1..4 {
            assert_eq!(sim.node(ProcessId::new(i)).received.len(), 1);
        }
        assert_eq!(sim.metrics().sent, 3);
        assert_eq!(sim.metrics().delivered, 3);
    }

    #[test]
    fn constant_latency_is_exact() {
        let cfg = NetConfig::with_latency(LatencyModel::constant_micros(777));
        let mut sim = Simulation::new(counters(2, 1), cfg, 1);
        sim.enable_trace();
        sim.run_to_quiescence();
        assert_eq!(sim.now(), SimTime::from_micros(777));
        let latencies: Vec<u64> = sim
            .trace()
            .unwrap()
            .events()
            .iter()
            .filter_map(|e| match e {
                NetEvent::Delivered { at, sent_at, .. } => {
                    Some(at.saturating_since(*sent_at).as_micros())
                }
                _ => None,
            })
            .collect();
        assert_eq!(latencies, vec![777]);
    }

    #[test]
    fn link_override_changes_one_direction_only() {
        let cfg = NetConfig::with_latency(LatencyModel::constant_micros(100)).link_latency(
            ProcessId::new(0),
            ProcessId::new(1),
            LatencyModel::constant_micros(9000),
        );
        // p0 broadcasts to p1 and p2: p1's copy rides the slow link.
        let mut sim = Simulation::new(counters(3, 1), cfg, 1);
        sim.enable_trace();
        sim.run_to_quiescence();
        let deliveries: Vec<(ProcessId, u64)> = sim
            .trace()
            .unwrap()
            .events()
            .iter()
            .filter_map(|e| match e {
                NetEvent::Delivered { to, at, .. } => Some((*to, at.as_micros())),
                _ => None,
            })
            .collect();
        assert!(deliveries.contains(&(ProcessId::new(1), 9000)));
        assert!(deliveries.contains(&(ProcessId::new(2), 100)));
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(10, 1000));
            let mut sim = Simulation::new(counters(3, 10), cfg, seed);
            sim.enable_trace();
            sim.run_to_quiescence();
            sim.trace().unwrap().clone()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn drops_are_counted_and_not_delivered() {
        let cfg = NetConfig::new().faults(FaultPlan::new().with_drop_prob(1.0));
        let mut sim = Simulation::new(counters(2, 5), cfg, 1);
        sim.run_to_quiescence();
        assert_eq!(sim.metrics().dropped, 5);
        assert_eq!(sim.metrics().delivered, 0);
    }

    #[test]
    fn duplicates_deliver_twice() {
        let cfg = NetConfig::new().faults(FaultPlan::new().with_dup_prob(1.0));
        let mut sim = Simulation::new(counters(2, 3), cfg, 1);
        sim.run_to_quiescence();
        assert_eq!(sim.metrics().duplicated, 3);
        assert_eq!(sim.node(ProcessId::new(1)).received.len(), 6);
    }

    #[test]
    fn partition_drops_cross_traffic_then_heals() {
        struct Periodic {
            received: u32,
        }
        impl Actor for Periodic {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.me() == ProcessId::new(0) {
                    ctx.set_timer(SimDuration::from_micros(100), 0);
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: ProcessId, _msg: ()) {
                self.received += 1;
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _tag: u64) {
                ctx.broadcast(());
                if ctx.now() < SimTime::from_micros(1000) {
                    ctx.set_timer(SimDuration::from_micros(100), 0);
                }
            }
        }
        // Partition 0 from 1 during [0, 500µs): roughly half the periodic
        // broadcasts are lost.
        let cfg =
            NetConfig::with_latency(LatencyModel::constant_micros(1)).partition(Partition::new(
                [ProcessId::new(0)],
                [ProcessId::new(1)],
                SimTime::ZERO,
                SimTime::from_micros(500),
            ));
        let nodes = vec![Periodic { received: 0 }, Periodic { received: 0 }];
        let mut sim = Simulation::new(nodes, cfg, 1);
        sim.run_to_quiescence();
        // Broadcasts at 100..=1000 step 100: 10 sends; those at <500 dropped.
        assert_eq!(sim.node(ProcessId::new(1)).received, 6);
        assert_eq!(sim.metrics().dropped, 4);
    }

    #[test]
    fn loopback_bypasses_faults() {
        struct SelfSender {
            got: bool,
        }
        impl Actor for SelfSender {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                let me = ctx.me();
                ctx.send(me, ());
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: ProcessId, _msg: ()) {
                self.got = true;
            }
        }
        let cfg = NetConfig::new().faults(FaultPlan::new().with_drop_prob(1.0));
        let mut sim = Simulation::new(vec![SelfSender { got: false }], cfg, 1);
        sim.run_to_quiescence();
        assert!(sim.node(ProcessId::new(0)).got);
    }

    #[test]
    fn poke_injects_requests() {
        let mut sim = Simulation::new(counters(2, 0), NetConfig::new(), 1);
        sim.poke(ProcessId::new(0), |_node, ctx| ctx.broadcast(9));
        sim.run_to_quiescence();
        assert_eq!(
            sim.node(ProcessId::new(1)).received,
            vec![(ProcessId::new(0), 9)]
        );
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut sim = Simulation::new(counters(2, 0), NetConfig::new(), 1);
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.now(), SimTime::from_millis(5));
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerActor {
            fired: Vec<u64>,
        }
        impl Actor for TimerActor {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(SimDuration::from_micros(30), 3);
                ctx.set_timer(SimDuration::from_micros(10), 1);
                ctx.set_timer(SimDuration::from_micros(20), 2);
            }
            fn on_message(&mut self, _: &mut Context<'_, ()>, _: ProcessId, _: ()) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Simulation::new(vec![TimerActor { fired: vec![] }], NetConfig::new(), 1);
        sim.run_to_quiescence();
        assert_eq!(sim.node(ProcessId::new(0)).fired, vec![1, 2, 3]);
        assert_eq!(sim.metrics().timers_fired, 3);
    }

    #[test]
    fn far_future_timer_rides_the_overflow_tier() {
        // 10 simulated seconds is far beyond the default ~65 ms wheel
        // horizon, the reconnect-backoff shape the overflow tier exists for.
        struct Backoff {
            fired_at: Option<SimTime>,
        }
        impl Actor for Backoff {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(10_000), 42);
            }
            fn on_message(&mut self, _: &mut Context<'_, ()>, _: ProcessId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, ()>, tag: u64) {
                assert_eq!(tag, 42);
                self.fired_at = Some(ctx.now());
            }
        }
        let mut sim = Simulation::new(vec![Backoff { fired_at: None }], NetConfig::new(), 1);
        sim.run_to_quiescence();
        assert_eq!(
            sim.node(ProcessId::new(0)).fired_at,
            Some(SimTime::from_millis(10_000))
        );
    }

    #[test]
    fn run_events_batches_and_reports_count() {
        let mut sim = Simulation::new(counters(4, 10), NetConfig::new(), 1);
        // 10 broadcasts × 3 destinations = 30 deliveries pending.
        assert_eq!(sim.run_events(12), 12);
        assert_eq!(sim.events_processed(), 12);
        assert_eq!(sim.run_events(1_000), 18);
        assert_eq!(sim.run_events(1_000), 0, "quiescent");
        assert_eq!(sim.metrics().delivered, 30);
    }

    #[test]
    fn drain_timestamp_consumes_one_instant_with_cascades() {
        struct Chain {
            got: Vec<u32>,
        }
        impl Actor for Chain {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if ctx.me() == ProcessId::new(0) {
                    let me = ctx.me();
                    ctx.send(me, 3); // loopback cascade at t=0
                    ctx.set_timer(SimDuration::from_micros(500), 0);
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: ProcessId, msg: u32) {
                self.got.push(msg);
                if msg > 0 {
                    let me = ctx.me();
                    ctx.send(me, msg - 1); // still at the same instant
                }
            }
            fn on_timer(&mut self, _: &mut Context<'_, u32>, _: u64) {}
        }
        let mut sim = Simulation::new(vec![Chain { got: vec![] }], NetConfig::new(), 1);
        // Instant 0: the whole loopback cascade (3, 2, 1, 0), not the timer.
        assert_eq!(sim.drain_timestamp(), 4);
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.node(ProcessId::new(0)).got, vec![3, 2, 1, 0]);
        // Next instant: the timer alone.
        assert_eq!(sim.drain_timestamp(), 1);
        assert_eq!(sim.now(), SimTime::from_micros(500));
        assert_eq!(sim.drain_timestamp(), 0, "quiescent");
    }

    #[test]
    fn arena_drains_to_zero_at_quiescence() {
        let cfg = NetConfig::new().faults(FaultPlan::new().with_dup_prob(0.5));
        let mut sim = Simulation::new(counters(5, 20), cfg, 3);
        sim.run_to_quiescence();
        assert_eq!(sim.in_flight(), 0);
        assert_eq!(sim.events_queued(), 0);
        assert!(sim.metrics().peak_in_flight > 0);
    }

    #[test]
    fn matches_reference_core_under_faults() {
        let mk_cfg = || {
            NetConfig::with_latency(LatencyModel::uniform_micros(10, 2_000))
                .faults(FaultPlan::new().with_drop_prob(0.2).with_dup_prob(0.2))
                .partition(Partition::new(
                    [ProcessId::new(0)],
                    [ProcessId::new(1), ProcessId::new(2)],
                    SimTime::from_micros(100),
                    SimTime::from_micros(5_000),
                ))
        };
        for seed in 0..5u64 {
            let mut fast = Simulation::new(counters(4, 25), mk_cfg(), seed);
            let mut oracle = crate::reference::Simulation::new(counters(4, 25), mk_cfg(), seed);
            fast.enable_trace();
            oracle.enable_trace();
            fast.run_to_quiescence();
            oracle.run_to_quiescence();
            assert_eq!(fast.trace(), oracle.trace(), "seed {seed}");
            assert_eq!(fast.metrics(), oracle.metrics(), "seed {seed}");
            assert_eq!(fast.now(), oracle.now(), "seed {seed}");
            assert_eq!(fast.events_processed(), oracle.events_processed());
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_simulation_rejected() {
        let _ = Simulation::<Counter>::new(vec![], NetConfig::new(), 0);
    }
}
