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
use crate::wheel::{CalendarQueue, QueueConfig};
use crate::{
    FaultPlan, LatencyModel, Metrics, NetEvent, NetTrace, Partition, SimDuration, SimTime,
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
/// assert_eq!(cfg.fault_plan().drop_prob(), 0.01);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetConfig {
    latency: LatencyModel,
    faults: FaultPlan,
    partitions: Vec<Partition>,
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

    /// The latency model in effect on every link.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// The fault plan in effect.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// `true` if a scheduled partition severs `from → to` at `at`: a scan
    /// over every partition, which both simulator cores run per
    /// transmission (most configurations schedule none).
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
///   fresh `Vec` per callback.
///
/// [`step`](Self::step) is the one way to advance it:
/// [`run_until`](Self::run_until) and
/// [`run_to_quiescence`](Self::run_to_quiescence) loop over it.
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
    metrics: Metrics,
    trace: Option<NetTrace>,
    events_processed: u64,
    scratch: Vec<Command<A::Msg>>,
}

impl<A: Actor> Simulation<A> {
    /// Creates a simulation over `nodes` (node `i` gets identity `p_i`) and
    /// runs every actor's [`Actor::on_start`] at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<A>, config: NetConfig, seed: u64) -> Self {
        Simulation::with_queue_config(nodes, config, seed, QueueConfig::default())
    }

    /// [`new`](Self::new) with explicit event-queue geometry, which never
    /// affects results (the tests below hold every geometry to the
    /// reference core).
    pub(crate) fn with_queue_config(
        nodes: Vec<A>,
        config: NetConfig,
        seed: u64,
        queue: QueueConfig,
    ) -> Self {
        assert!(!nodes.is_empty(), "simulation requires at least one node");
        let mut sim = Simulation {
            nodes,
            queue: CalendarQueue::new(queue),
            arena: MsgArena::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            rng: StdRng::seed_from_u64(seed),
            config,
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
        let mut msg = Some(msg);
        for i in 0..copies {
            let latency: SimDuration = self.config.latency_model().sample(&mut self.rng);
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
    use proptest::prelude::*;

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
    fn arena_drains_to_zero_at_quiescence() {
        let cfg = NetConfig::new().faults(FaultPlan::new().with_dup_prob(0.5));
        let mut sim = Simulation::new(counters(5, 20), cfg, 3);
        sim.run_to_quiescence();
        assert_eq!(sim.in_flight(), 0);
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

    /// Every node broadcasts `rounds` batches on a timer and counts
    /// receptions: deliveries and timers interleaved across many days.
    struct Chatty {
        rounds: u32,
        sent_rounds: u32,
        received: u64,
    }

    impl Actor for Chatty {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.set_timer(SimDuration::from_micros(500), 0);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: ProcessId, _msg: u32) {
            self.received += 1;
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _tag: u64) {
            ctx.broadcast(self.sent_rounds);
            self.sent_rounds += 1;
            if self.sent_rounds < self.rounds {
                ctx.set_timer(SimDuration::from_micros(500), 0);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The bucketed core equals the heap-based reference core bit for
        /// bit across random fault configurations, partitions, and random
        /// queue geometries: bucket span and ring size must never be
        /// observable, even at degenerate settings (1 µs days, 2 buckets)
        /// where almost everything rides the overflow heap.
        #[test]
        fn bucketed_core_equals_reference_core(
            latency in prop_oneof![
                Just(LatencyModel::constant_micros(300)),
                Just(LatencyModel::uniform_micros(50, 4000)),
                Just(LatencyModel::exponential_micros(100, 700)),
            ],
            drop in 0.0f64..0.5,
            dup in 0.0f64..0.3,
            seed in any::<u64>(),
            n in 2usize..5,
            rounds in 1u32..5,
            with_partition in any::<bool>(),
            shift in 0u32..12,
            bucket_pow in 1u32..10,
        ) {
            let mut cfg = NetConfig::with_latency(latency)
                .faults(FaultPlan::new().with_drop_prob(drop).with_dup_prob(dup));
            if with_partition && n >= 3 {
                cfg = cfg.partition(Partition::new(
                    [ProcessId::new(0)],
                    [ProcessId::new(1)],
                    SimTime::from_micros(700),
                    SimTime::from_micros(1_900),
                ));
            }
            let mk_nodes = || -> Vec<Chatty> {
                (0..n)
                    .map(|_| Chatty { rounds, sent_rounds: 0, received: 0 })
                    .collect()
            };
            let queue = QueueConfig { bucket_micros_log2: shift, buckets: 1 << bucket_pow };
            let mut fast = Simulation::with_queue_config(mk_nodes(), cfg.clone(), seed, queue);
            let mut oracle = crate::reference::Simulation::new(mk_nodes(), cfg, seed);
            fast.enable_trace();
            oracle.enable_trace();
            fast.run_to_quiescence();
            oracle.run_to_quiescence();
            prop_assert_eq!(fast.trace(), oracle.trace());
            prop_assert_eq!(fast.metrics(), oracle.metrics());
            prop_assert_eq!(fast.now(), oracle.now());
            prop_assert_eq!(fast.events_processed(), oracle.events_processed());
            let fast_received: Vec<u64> = fast.nodes().iter().map(|c| c.received).collect();
            let oracle_received: Vec<u64> = oracle.nodes().iter().map(|c| c.received).collect();
            prop_assert_eq!(fast_received, oracle_received);
        }
    }
}
