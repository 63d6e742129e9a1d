//! Simulation glue: group members running the full protocol stack.
//!
//! [`CausalNode`] hosts an application ([`CausalApp`]) on one simulated
//! group member and wires together the layers of Figure 4 of the paper:
//!
//! ```text
//!        application            (CausalApp: data-access operations)
//!   ───────────────────────
//!    stable-point detection     (stable::StablePointDetector)
//!   ───────────────────────
//!    causal delivery            (delivery::GraphDelivery — OSend order)
//!   ───────────────────────
//!    reliable broadcast         (rbcast::ReliableBroadcast — ack/rtx)
//!   ───────────────────────
//!    simulated network          (causal_simnet::Simulation)
//! ```
//!
//! [`CbcastNode`] is the same stack with vector-clock (CBCAST) delivery in
//! place of the explicit graph engine, used by the semantic-vs-potential
//! causality ablation.

use crate::delivery::{CbcastEngine, GraphDelivery, VtEnvelope};
use crate::osend::{GraphEnvelope, OSender, OccursAfter};
use crate::rbcast::{HasMsgId, RbMsg, ReliableBroadcast};
use crate::stability::StabilityTracker;
use crate::stable::{LogEntry, StablePoint, StablePointDetector};
use crate::statemachine::OpClass;
use causal_clocks::{MsgId, ProcessId, VectorClock};
use causal_simnet::{Actor, Context, Histogram, SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};

/// Wire messages of a [`CausalNode`] group: reliability-layer traffic plus
/// gossiped stability reports (delivered-prefix clocks used for garbage
/// collection).
#[derive(Debug, Clone, PartialEq)]
pub enum GroupWire<E> {
    /// Reliable-broadcast data or acknowledgement.
    Rb(RbMsg<Timed<E>>),
    /// A member's delivered-prefix clock (gossip; loss-tolerant).
    StabilityReport(VectorClock),
}

/// An envelope tagged with its send time, so receivers can measure
/// end-to-end (application-level) delivery latency — transport plus any
/// causal buffering delay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timed<E> {
    /// The protocol envelope.
    pub env: E,
    /// Simulated time at which the originator sent it.
    pub sent_at: SimTime,
}

impl<E: HasMsgId> HasMsgId for Timed<E> {
    fn msg_id(&self) -> MsgId {
        self.env.msg_id()
    }
}

/// Collector for the operations an application wants to broadcast from
/// inside a delivery callback.
#[derive(Debug)]
pub struct Emitter<Op> {
    sends: Vec<(Op, OccursAfter)>,
}

impl<Op> Emitter<Op> {
    /// Creates an empty emitter. Hosting nodes create these around every
    /// app callback; standalone construction is useful for driving a
    /// [`CausalApp`] directly in tests.
    pub fn new() -> Self {
        Emitter { sends: Vec::new() }
    }

    /// Queues `op` for broadcast, ordered after `after` (an `OSend`).
    pub fn osend(&mut self, op: Op, after: OccursAfter) {
        self.sends.push((op, after));
    }

    /// Removes and returns the queued sends (what a hosting node does
    /// after the callback returns).
    pub fn drain(&mut self) -> Vec<(Op, OccursAfter)> {
        std::mem::take(&mut self.sends)
    }
}

impl<Op> Default for Emitter<Op> {
    fn default() -> Self {
        Emitter::new()
    }
}

/// An application hosted on a [`CausalNode`]: consumes causally delivered
/// operations and may emit further operations in response.
pub trait CausalApp {
    /// The data-access operation type broadcast within the group.
    type Op: Clone;

    /// Called once at simulation start; may emit initial operations.
    fn on_start(&mut self, _me: ProcessId, _out: &mut Emitter<Self::Op>) {}

    /// Classifies an operation (§6): commutative operations never close
    /// stable points. The default treats everything as non-commutative,
    /// which is safe for strictly ordered workloads; applications with
    /// commutative operations (inc/dec, annotations, …) must override.
    fn classify(&self, _op: &Self::Op) -> OpClass {
        OpClass::NonCommutative
    }

    /// Called for every operation released by causal delivery (including
    /// this member's own), in this member's delivery order.
    fn on_deliver(&mut self, env: &GraphEnvelope<Self::Op>, out: &mut Emitter<Self::Op>);

    /// Called when a delivered message closes a stable point.
    fn on_stable_point(&mut self, _sp: StablePoint, _out: &mut Emitter<Self::Op>) {}
}

/// Per-node statistics collected by [`CausalNode`] and [`CbcastNode`].
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Operations released to the application.
    pub delivered: u64,
    /// Stable points detected (always 0 for [`CbcastNode`]).
    pub stable_points: u64,
    /// End-to-end latency (send to application delivery, including causal
    /// buffering) of every delivered operation.
    pub delivery_latency: Histogram,
    /// Delivery instants per message, for offline analysis.
    pub delivery_times: Vec<(MsgId, SimTime)>,
}

/// Default retransmission period for the reliability layer.
pub const DEFAULT_RETRANSMIT: SimDuration = SimDuration::from_millis(5);

const TIMER_RETRANSMIT: u64 = 1;

/// A group member running application + stable points + causal (graph)
/// delivery + reliable broadcast, drivable by the simulator.
///
/// Requests are injected from outside the simulation via
/// [`Simulation::poke`](causal_simnet::Simulation::poke) calling
/// [`osend`](CausalNode::osend), or emitted by the app itself from its
/// callbacks.
#[derive(Debug)]
pub struct CausalNode<A: CausalApp> {
    me: ProcessId,
    app: A,
    osender: OSender,
    delivery: GraphDelivery<A::Op>,
    detector: StablePointDetector,
    rb: ReliableBroadcast<Timed<GraphEnvelope<A::Op>>>,
    retransmit_every: SimDuration,
    timer_armed: bool,
    sent_times: HashMap<MsgId, SimTime>,
    log_entries: Vec<LogEntry>,
    stats: NodeStats,
    stability: Option<StabilityTracker>,
    report_every: u64,
    deliveries_since_report: u64,
    record_analysis: bool,
}

impl<A: CausalApp> CausalNode<A> {
    /// Creates the member `me` of a group of `n`, hosting `app`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the group.
    pub fn new(me: ProcessId, n: usize, app: A) -> Self {
        CausalNode {
            me,
            app,
            osender: OSender::new(me),
            delivery: GraphDelivery::new(),
            detector: StablePointDetector::new(),
            rb: ReliableBroadcast::new(me, n),
            retransmit_every: DEFAULT_RETRANSMIT,
            timer_armed: false,
            sent_times: HashMap::new(),
            log_entries: Vec::new(),
            stats: NodeStats::default(),
            stability: None,
            report_every: 0,
            deliveries_since_report: 0,
            record_analysis: true,
        }
    }

    /// Overrides the retransmission period (default
    /// [`DEFAULT_RETRANSMIT`]).
    pub fn with_retransmit_every(mut self, period: SimDuration) -> Self {
        self.retransmit_every = period;
        self
    }

    /// Enables stability-based garbage collection: every `report_every`
    /// deliveries this member gossips its delivered-prefix clock, and
    /// prunes per-message state (delivery engine, reliability layer, send
    /// times) once the prefix is known delivered everywhere.
    ///
    /// GC mode is for long-running deployments: it also disables the
    /// unbounded analysis records ([`log_entries`](Self::log_entries),
    /// per-message delivery times), which cannot be compacted.
    ///
    /// # Panics
    ///
    /// Panics if `report_every` is zero.
    pub fn with_gc(mut self, n: usize, report_every: u64) -> Self {
        assert!(report_every > 0, "report period must be positive");
        self.stability = Some(StabilityTracker::new(self.me, n));
        self.report_every = report_every;
        self.record_analysis = false;
        self
    }

    /// Per-message bookkeeping entries currently retained (what GC
    /// bounds): delivery engine + reliability layer + send-time table.
    pub fn retained_state(&self) -> usize {
        self.delivery.retained_len() + self.rb.retained_len() + self.sent_times.len()
    }

    /// This member's identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The hosted application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Exclusive access to the hosted application.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Collected statistics.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Exclusive access to the statistics (for percentile queries).
    pub fn stats_mut(&mut self) -> &mut NodeStats {
        &mut self.stats
    }

    /// The member's delivery log.
    pub fn log(&self) -> &[MsgId] {
        self.delivery.log()
    }

    /// The delivery log paired with each message's direct dependencies —
    /// the form [`check::causal_order_respected`](crate::check::causal_order_respected)
    /// consumes.
    pub fn log_with_deps(&self) -> Vec<(MsgId, Vec<MsgId>)> {
        self.log_entries
            .iter()
            .map(|e| (e.id, e.deps.clone()))
            .collect()
    }

    /// The delivery log as classified [`LogEntry`]s — the form the
    /// stable-point validators consume.
    pub fn log_entries(&self) -> &[LogEntry] {
        &self.log_entries
    }

    /// Stable points detected so far.
    pub fn stable_points(&self) -> &[StablePoint] {
        self.detector.points()
    }

    /// Messages buffered awaiting causal predecessors.
    pub fn pending_len(&self) -> usize {
        self.delivery.pending_len()
    }

    /// Broadcasts `op` ordered after `after`; returns the assigned id.
    ///
    /// Call inside [`Simulation::poke`](causal_simnet::Simulation::poke)
    /// so the sends actually leave the node.
    pub fn osend(
        &mut self,
        ctx: &mut Context<'_, WireMsg<A>>,
        op: A::Op,
        after: OccursAfter,
    ) -> MsgId {
        let released = self.do_osend(ctx, op, after);
        self.process_released(ctx, released);
        self.osender.last_sent().expect("just sent")
    }

    fn do_osend(
        &mut self,
        ctx: &mut Context<'_, WireMsg<A>>,
        op: A::Op,
        after: OccursAfter,
    ) -> Vec<GraphEnvelope<A::Op>> {
        let env = self.osender.osend(op, after);
        let timed = Timed {
            env: env.clone(),
            sent_at: ctx.now(),
        };
        // One multicast per broadcast: the copies are identical, so a
        // serializing transport encodes the envelope once for the group.
        let (targets, msg) = self.rb.broadcast_grouped(timed);
        ctx.multicast(targets, GroupWire::Rb(msg));
        self.arm_timer(ctx);
        self.sent_times.insert(env.id, ctx.now());
        self.delivery.on_receive(env)
    }

    fn arm_timer(&mut self, ctx: &mut Context<'_, WireMsg<A>>) {
        if !self.timer_armed && self.rb.has_pending() {
            ctx.set_timer(self.retransmit_every, TIMER_RETRANSMIT);
            self.timer_armed = true;
        }
    }

    fn process_released(
        &mut self,
        ctx: &mut Context<'_, WireMsg<A>>,
        released: Vec<GraphEnvelope<A::Op>>,
    ) {
        let mut queue: VecDeque<GraphEnvelope<A::Op>> = released.into();
        while let Some(env) = queue.pop_front() {
            self.stats.delivered += 1;
            if self.record_analysis {
                self.stats.delivery_times.push((env.id, ctx.now()));
            }
            if let Some(&sent_at) = self.sent_times.get(&env.id) {
                self.stats
                    .delivery_latency
                    .record(ctx.now().saturating_since(sent_at));
            }
            let candidate = self.app.classify(&env.payload) == OpClass::NonCommutative;
            if self.record_analysis {
                self.log_entries
                    .push(LogEntry::new(env.id, env.deps.clone(), candidate));
            }
            let sp = self.detector.on_deliver(env.id, &env.deps, candidate);
            if let Some(stability) = &mut self.stability {
                stability.on_deliver(env.id);
                self.deliveries_since_report += 1;
            }
            let mut out = Emitter::new();
            self.app.on_deliver(&env, &mut out);
            if let Some(sp) = sp {
                self.stats.stable_points += 1;
                self.app.on_stable_point(sp, &mut out);
            }
            for (op, after) in out.drain() {
                queue.extend(self.do_osend(ctx, op, after));
            }
        }
        self.maybe_gossip_and_compact(ctx);
    }

    /// Gossips the delivered-prefix clock when due and compacts against
    /// the latest stable prefix.
    fn maybe_gossip_and_compact(&mut self, ctx: &mut Context<'_, WireMsg<A>>) {
        let Some(stability) = &mut self.stability else {
            return;
        };
        if self.deliveries_since_report >= self.report_every {
            self.deliveries_since_report = 0;
            let report = stability.local_report();
            ctx.broadcast(GroupWire::StabilityReport(report));
        }
        self.compact_now();
    }

    fn compact_now(&mut self) {
        let Some(stability) = &self.stability else {
            return;
        };
        let stable = stability.stable();
        if stable.total_events() == 0 {
            return;
        }
        self.delivery.compact(stable);
        self.rb.compact(stable);
        self.sent_times
            .retain(|id, _| id.seq() > stable.get(id.origin()));
    }
}

/// The wire message type of a [`CausalNode`] group.
pub type WireMsg<A> = GroupWire<GraphEnvelope<<A as CausalApp>::Op>>;

impl<A: CausalApp> Actor for CausalNode<A> {
    type Msg = WireMsg<A>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let mut out = Emitter::new();
        self.app.on_start(self.me, &mut out);
        let mut released = Vec::new();
        for (op, after) in out.drain() {
            released.extend(self.do_osend(ctx, op, after));
        }
        self.process_released(ctx, released);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ProcessId, msg: Self::Msg) {
        match msg {
            GroupWire::Rb(RbMsg::Data(timed)) => {
                let (fresh, acks) = self.rb.on_data(from, timed);
                for (to, ack) in acks {
                    ctx.send(to, GroupWire::Rb(ack));
                }
                if let Some(timed) = fresh {
                    self.sent_times.entry(timed.env.id).or_insert(timed.sent_at);
                    let released = self.delivery.on_receive(timed.env);
                    self.process_released(ctx, released);
                }
            }
            GroupWire::Rb(RbMsg::Ack(id)) => self.rb.on_ack(from, id),
            GroupWire::StabilityReport(report) => {
                if let Some(stability) = &mut self.stability {
                    stability.on_report(from, &report);
                    self.compact_now();
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, tag: u64) {
        if tag != TIMER_RETRANSMIT {
            return;
        }
        self.timer_armed = false;
        if self.rb.has_pending() {
            for (targets, msg) in self.rb.retransmissions_grouped() {
                ctx.multicast(targets, GroupWire::Rb(msg));
            }
            self.arm_timer(ctx);
        }
    }
}

/// An application hosted on a [`CbcastNode`]: consumes vector-clock
/// causally delivered operations.
pub trait BcastApp {
    /// The operation type broadcast within the group.
    type Op: Clone;

    /// Called for every operation released by CBCAST delivery (including
    /// this member's own).
    fn on_deliver(&mut self, env: &VtEnvelope<Self::Op>, out: &mut BcastEmitter<Self::Op>);
}

/// Collector for operations a [`BcastApp`] wants to broadcast from inside
/// a delivery callback.
#[derive(Debug)]
pub struct BcastEmitter<Op> {
    sends: Vec<Op>,
}

impl<Op> BcastEmitter<Op> {
    /// Creates an empty emitter (standalone construction is useful for
    /// driving a [`BcastApp`] directly in tests).
    pub fn new() -> Self {
        BcastEmitter { sends: Vec::new() }
    }

    /// Queues `op` for CBCAST broadcast.
    pub fn broadcast(&mut self, op: Op) {
        self.sends.push(op);
    }

    /// Removes and returns the queued sends.
    pub fn drain(&mut self) -> Vec<Op> {
        std::mem::take(&mut self.sends)
    }
}

impl<Op> Default for BcastEmitter<Op> {
    fn default() -> Self {
        BcastEmitter::new()
    }
}

/// A group member with vector-clock (CBCAST) delivery instead of
/// explicit-graph delivery — the "potential causality" arm of the
/// semantic-vs-potential ablation.
#[derive(Debug)]
pub struct CbcastNode<A: BcastApp> {
    me: ProcessId,
    app: A,
    engine: CbcastEngine<A::Op>,
    rb: ReliableBroadcast<Timed<VtEnvelope<A::Op>>>,
    retransmit_every: SimDuration,
    timer_armed: bool,
    sent_times: HashMap<MsgId, SimTime>,
    stats: NodeStats,
}

impl<A: BcastApp> CbcastNode<A> {
    /// Creates the member `me` of a group of `n`, hosting `app`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the group.
    pub fn new(me: ProcessId, n: usize, app: A) -> Self {
        CbcastNode {
            me,
            app,
            engine: CbcastEngine::new(me, n),
            rb: ReliableBroadcast::new(me, n),
            retransmit_every: DEFAULT_RETRANSMIT,
            timer_armed: false,
            sent_times: HashMap::new(),
            stats: NodeStats::default(),
        }
    }

    /// This member's identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The hosted application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Collected statistics.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Exclusive access to the statistics.
    pub fn stats_mut(&mut self) -> &mut NodeStats {
        &mut self.stats
    }

    /// The member's delivery log.
    pub fn log(&self) -> &[MsgId] {
        self.engine.log()
    }

    /// Messages buffered awaiting causal predecessors.
    pub fn pending_len(&self) -> usize {
        self.engine.pending_len()
    }

    /// Broadcasts `op` (causality inferred from the vector clock).
    pub fn broadcast(&mut self, ctx: &mut Context<'_, BcastWire<A>>, op: A::Op) -> MsgId {
        let env = self.engine.broadcast(op);
        self.deliver_locally(ctx, env.clone());
        env.id
    }

    fn deliver_locally(&mut self, ctx: &mut Context<'_, BcastWire<A>>, env: VtEnvelope<A::Op>) {
        let timed = Timed {
            env: env.clone(),
            sent_at: ctx.now(),
        };
        let (targets, msg) = self.rb.broadcast_grouped(timed);
        ctx.multicast(targets, msg);
        self.arm_timer(ctx);
        self.sent_times.insert(env.id, ctx.now());
        // The engine already self-delivered at broadcast(); run the app.
        self.run_app(ctx, vec![env]);
    }

    fn arm_timer(&mut self, ctx: &mut Context<'_, BcastWire<A>>) {
        if !self.timer_armed && self.rb.has_pending() {
            ctx.set_timer(self.retransmit_every, TIMER_RETRANSMIT);
            self.timer_armed = true;
        }
    }

    fn run_app(&mut self, ctx: &mut Context<'_, BcastWire<A>>, released: Vec<VtEnvelope<A::Op>>) {
        let mut queue: VecDeque<VtEnvelope<A::Op>> = released.into();
        while let Some(env) = queue.pop_front() {
            self.stats.delivered += 1;
            self.stats.delivery_times.push((env.id, ctx.now()));
            if let Some(&sent_at) = self.sent_times.get(&env.id) {
                self.stats
                    .delivery_latency
                    .record(ctx.now().saturating_since(sent_at));
            }
            let mut out = BcastEmitter::new();
            self.app.on_deliver(&env, &mut out);
            for op in out.drain() {
                let new_env = self.engine.broadcast(op);
                let timed = Timed {
                    env: new_env.clone(),
                    sent_at: ctx.now(),
                };
                let (targets, msg) = self.rb.broadcast_grouped(timed);
                ctx.multicast(targets, msg);
                self.arm_timer(ctx);
                self.sent_times.insert(new_env.id, ctx.now());
                queue.push_back(new_env);
            }
        }
    }
}

/// The wire message type of a [`CbcastNode`] group.
pub type BcastWire<A> = RbMsg<Timed<VtEnvelope<<A as BcastApp>::Op>>>;

impl<A: BcastApp> Actor for CbcastNode<A> {
    type Msg = BcastWire<A>;

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ProcessId, msg: Self::Msg) {
        match msg {
            RbMsg::Data(timed) => {
                let (fresh, acks) = self.rb.on_data(from, timed);
                for (to, ack) in acks {
                    ctx.send(to, ack);
                }
                if let Some(timed) = fresh {
                    self.sent_times.entry(timed.env.id).or_insert(timed.sent_at);
                    let released = self.engine.on_receive(timed.env);
                    self.run_app(ctx, released);
                }
            }
            RbMsg::Ack(id) => self.rb.on_ack(from, id),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, tag: u64) {
        if tag != TIMER_RETRANSMIT {
            return;
        }
        self.timer_armed = false;
        if self.rb.has_pending() {
            for (targets, msg) in self.rb.retransmissions_grouped() {
                ctx.multicast(targets, msg);
            }
            self.arm_timer(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_simnet::{FaultPlan, LatencyModel, NetConfig, Simulation};

    /// Accumulating integer counter: Add(k) sums, no reaction. Payloads
    /// `1..=9` model commutative increments; anything else is a
    /// synchronization (non-commutative) operation.
    #[derive(Debug, Default)]
    struct Sum {
        value: i64,
        seen: Vec<MsgId>,
    }

    impl CausalApp for Sum {
        type Op = i64;
        fn on_deliver(&mut self, env: &GraphEnvelope<i64>, _out: &mut Emitter<i64>) {
            self.value += env.payload;
            self.seen.push(env.id);
        }
        fn classify(&self, op: &i64) -> OpClass {
            if (1..=9).contains(op) {
                OpClass::Commutative
            } else {
                OpClass::NonCommutative
            }
        }
    }

    fn group(n: usize) -> Vec<CausalNode<Sum>> {
        (0..n)
            .map(|i| CausalNode::new(ProcessId::new(i as u32), n, Sum::default()))
            .collect()
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn broadcast_reaches_every_member() {
        let mut sim = Simulation::new(group(3), NetConfig::new(), 7);
        sim.poke(p(0), |node, ctx| {
            node.osend(ctx, 5, OccursAfter::none());
        });
        sim.run_to_quiescence();
        for i in 0..3 {
            assert_eq!(sim.node(p(i)).app().value, 5);
            assert_eq!(sim.node(p(i)).stats().delivered, 1);
        }
    }

    #[test]
    fn causal_order_enforced_across_members() {
        // p0 sends a; p1, upon delivering a, sends b after a. Every member
        // must deliver a before b regardless of network jitter.
        #[derive(Debug, Default)]
        struct Reactor {
            log: Vec<i64>,
            reacted: bool,
        }
        impl CausalApp for Reactor {
            type Op = i64;
            fn on_deliver(&mut self, env: &GraphEnvelope<i64>, out: &mut Emitter<i64>) {
                self.log.push(env.payload);
                if env.payload == 1 && !self.reacted {
                    self.reacted = true;
                    out.osend(2, OccursAfter::message(env.id));
                }
            }
        }
        for seed in 0..20 {
            let nodes: Vec<CausalNode<Reactor>> = (0..4)
                .map(|i| CausalNode::new(p(i), 4, Reactor::default()))
                .collect();
            let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(10, 5000));
            let mut sim = Simulation::new(nodes, cfg, seed);
            sim.poke(p(0), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
            sim.run_to_quiescence();
            for i in 0..4 {
                // Only p1 reacts (the others also see payload 1 but we let
                // them react too — dedupe by `reacted` makes 1 reaction per
                // member; ordering must still hold pairwise).
                let log = &sim.node(p(i)).app().log;
                let pos1 = log.iter().position(|&v| v == 1).unwrap();
                for (j, &v) in log.iter().enumerate() {
                    if v == 2 {
                        assert!(j > pos1, "seed {seed}: 2 delivered before 1");
                    }
                }
            }
        }
    }

    #[test]
    fn lossy_network_still_delivers_everywhere() {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 1000))
            .faults(FaultPlan::new().with_drop_prob(0.4).with_dup_prob(0.1));
        let mut sim = Simulation::new(group(4), cfg, 99);
        for k in 0..10 {
            let sender = p(k % 4);
            sim.poke(sender, |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
        }
        sim.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(sim.node(p(i)).app().value, 10, "member {i}");
            assert_eq!(sim.node(p(i)).pending_len(), 0);
        }
        // Reliability cost was actually exercised.
        assert!(sim.metrics().dropped > 0);
    }

    #[test]
    fn stable_points_detected_in_simulation() {
        let mut sim = Simulation::new(group(3), NetConfig::new(), 3);
        let nc0 = sim.poke(p(0), |node, ctx| node.osend(ctx, 100, OccursAfter::none()));
        sim.run_to_quiescence();
        let c1 = sim.poke(p(1), |node, ctx| {
            node.osend(ctx, 1, OccursAfter::message(nc0))
        });
        let c2 = sim.poke(p(2), |node, ctx| {
            node.osend(ctx, 2, OccursAfter::message(nc0))
        });
        sim.run_to_quiescence();
        sim.poke(p(0), |node, ctx| {
            node.osend(ctx, 0, OccursAfter::all([c1, c2]))
        });
        sim.run_to_quiescence();
        for i in 0..3 {
            let node = sim.node(p(i));
            assert_eq!(node.stats().stable_points, 2, "member {i}");
            let points: Vec<MsgId> = node.stable_points().iter().map(|sp| sp.msg).collect();
            assert_eq!(points, vec![nc0, sim.node(p(0)).log()[3]]);
            assert_eq!(node.app().value, 103);
        }
    }

    #[test]
    fn logs_are_linearizations_of_a_common_graph() {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(10, 4000));
        let mut sim = Simulation::new(group(4), cfg, 17);
        let root = sim.poke(p(0), |n, ctx| n.osend(ctx, 1, OccursAfter::none()));
        sim.run_to_quiescence();
        for i in 1..4 {
            sim.poke(p(i), |n, ctx| n.osend(ctx, 1, OccursAfter::message(root)));
        }
        sim.run_to_quiescence();
        let mut graph = crate::graph::MsgGraph::new();
        for e in sim.node(p(0)).log_entries() {
            graph.add(e.id, &e.deps).unwrap();
        }
        let logs: Vec<Vec<MsgId>> = (0..4).map(|i| sim.node(p(i)).log().to_vec()).collect();
        assert!(crate::check::logs_linearize_graph(&graph, &logs).is_ok());
        for log in &logs {
            assert_eq!(log.first(), Some(&root));
        }
    }

    /// CBCAST app that just sums.
    #[derive(Debug, Default)]
    struct VtSum {
        value: i64,
    }
    impl BcastApp for VtSum {
        type Op = i64;
        fn on_deliver(&mut self, env: &VtEnvelope<i64>, _out: &mut BcastEmitter<i64>) {
            self.value += env.payload;
        }
    }

    #[test]
    fn gc_bounds_retained_state() {
        let n = 3;
        let run = |gc: bool| {
            let nodes: Vec<CausalNode<Sum>> = (0..n)
                .map(|i| {
                    let node = CausalNode::new(p(i as u32), n, Sum::default());
                    if gc {
                        node.with_gc(n, 5)
                    } else {
                        node
                    }
                })
                .collect();
            let mut sim = Simulation::new(nodes, NetConfig::new(), 42);
            for k in 0..200u32 {
                sim.poke(p(k % n as u32), |node, ctx| {
                    node.osend(ctx, 1, OccursAfter::none());
                });
                let deadline = sim.now() + causal_simnet::SimDuration::from_millis(1);
                sim.run_until(deadline);
            }
            sim.run_to_quiescence();
            // Correctness unaffected by GC.
            for i in 0..n {
                assert_eq!(sim.node(p(i as u32)).app().value, 200);
            }
            (0..n)
                .map(|i| sim.node(p(i as u32)).retained_state())
                .max()
                .unwrap()
        };
        let without_gc = run(false);
        let with_gc = run(true);
        assert!(
            with_gc * 4 < without_gc,
            "GC should bound retained state: {with_gc} vs {without_gc}"
        );
    }

    #[test]
    fn gc_preserves_causal_ordering() {
        // Chained sends keep depending on compacted messages; deliveries
        // must still respect the chain.
        let n = 3;
        let nodes: Vec<CausalNode<Sum>> = (0..n)
            .map(|i| CausalNode::new(p(i as u32), n, Sum::default()).with_gc(n, 3))
            .collect();
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 2000))
            .faults(FaultPlan::new().with_drop_prob(0.2));
        let mut sim = Simulation::new(nodes, cfg, 9);
        let mut prev: Option<MsgId> = None;
        for _ in 0..50 {
            let after = prev.map_or(OccursAfter::none(), OccursAfter::message);
            prev = Some(sim.poke(p(0), move |node, ctx| node.osend(ctx, 1, after)));
            let deadline = sim.now() + causal_simnet::SimDuration::from_millis(2);
            sim.run_until(deadline);
        }
        sim.run_to_quiescence();
        for i in 0..n {
            assert_eq!(sim.node(p(i as u32)).app().value, 50);
            // Log order must equal send order (it is a chain).
            let seqs: Vec<u64> = sim
                .node(p(i as u32))
                .log()
                .iter()
                .map(|m| m.seq())
                .collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted);
        }
    }

    #[test]
    fn cbcast_node_group_converges_under_loss() {
        let nodes: Vec<CbcastNode<VtSum>> = (0..3)
            .map(|i| CbcastNode::new(p(i), 3, VtSum::default()))
            .collect();
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(50, 2000))
            .faults(FaultPlan::new().with_drop_prob(0.3));
        let mut sim = Simulation::new(nodes, cfg, 5);
        for k in 0..9 {
            sim.poke(p(k % 3), |node, ctx| {
                node.broadcast(ctx, 1);
            });
        }
        sim.run_to_quiescence();
        for i in 0..3 {
            assert_eq!(sim.node(p(i)).app().value, 9);
            assert_eq!(sim.node(p(i)).pending_len(), 0);
            assert_eq!(sim.node(p(i)).log().len(), 9);
        }
    }
}
