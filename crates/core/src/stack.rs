//! The one protocol stack: Figure 4 of the paper, composed once around a
//! pluggable delivery engine.
//!
//! [`ProtocolStack<D, A>`] hosts an application ([`App`]) on one group
//! member and wires together the paper's layers:
//!
//! ```text
//!        application            (App: data-access operations)
//!   ───────────────────────
//!    stable-point detection     (stable::StablePointDetector)
//!    stability gossip / GC      (stability::StabilityTracker, optional)
//!   ───────────────────────
//!    causal delivery            (any delivery::DeliveryEngine)
//!   ───────────────────────
//!    view-synchronous           (causal_membership::ViewManager,
//!    membership                  optional: every membership decision;
//!                                the stack flushes and installs)
//!   ───────────────────────
//!    reliable broadcast         (rbcast::ReliableBroadcast — one
//!                                cumulative ack per peer per origin per
//!                                ack period, named losses resent at
//!                                once, a backstop retransmission tick)
//!   ───────────────────────
//!    network                    (causal_simnet Simulation / threaded
//!                                runtime, or causal-net TCP)
//! ```
//!
//! The delivery engine decides *when* a received envelope is released to
//! the application: [`GraphDelivery`] waits for the declared `Occurs-After`
//! predecessors (the paper's semantic causality), [`CbcastEngine`] for the
//! sender's whole causal past (ISIS CBCAST potential causality). Everything
//! around the engine — reliability, retransmission, stability gossip and
//! garbage collection, stable-point detection, virtually synchronous view
//! changes — is written exactly once here.
//!
//! [`CausalNode`], [`CbcastNode`], and [`VsyncNode`](crate::vsync::VsyncNode)
//! are thin type aliases instantiating the stack; they exist so call sites
//! read like the paper's vocabulary.
//!
//! Because the stack is a sans-IO [`Actor`], the same node runs unchanged
//! under the discrete-event simulator, the threaded runtime, and the
//! `causal-net` TCP transport — including the membership machinery, which
//! is just more messages and timers.
//!
//! Every membership decision (failure detection, who proposes, flush acks
//! and install, join routing, retries) lives in the sans-IO
//! [`ViewManager`]. The stack feeds it liveness, the membership messages
//! and the check and join-retry ticks, sends what it returns, and performs
//! its two local actions: the **flush** (relay the removed members'
//! messages, then report done) and the **install** (reconfigure rbcast,
//! stability and the engine, drain parked sends, call the app).
//! Heartbeats stay here: they ride the rbcast ack tick.
//!
//! Every period derives from the retransmission period P: the ack tick
//! runs every P/4 and the membership check every P/2. Without membership
//! the ack tick is armed only while acks are due; with membership it
//! runs for the group's lifetime and sends each member that is owed no
//! ack that period a heartbeat instead.

use crate::delivery::pcbcast::{LinkClock, LinkFrame};
use crate::delivery::{
    CbcastEngine, Delivered, DeliveryEngine, GraphDelivery, LinkDelivery, PcEngine, VtEnvelope,
};
use crate::osend::{GraphEnvelope, OccursAfter};
use crate::rbcast::{HasMsgId, RbAck, RbMsg, ReliableBroadcast};
use crate::stability::{ReportTo, StabilityTracker};
use crate::stable::{StablePoint, StablePointDetector};
use crate::statemachine::OpClass;
use crate::trace::{MemberTrace, TraceEvent};
use causal_clocks::{IdWindow, MsgId, ProcessId, VectorClock};
use causal_membership::{GroupView, ManagerAction, MembershipMsg, ViewId, ViewManager};
use causal_simnet::{Actor, Context, Histogram, SimDuration, SimTime};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// Wire messages of a [`ProtocolStack`] group: reliability-layer traffic,
/// gossiped stability reports, and (when membership is enabled) the
/// view-change protocol.
///
/// Nodes without membership enabled simply never send the membership
/// variants; receiving one is a no-op, so static and view-synchronous
/// groups share one wire type per engine.
#[derive(Debug, Clone, PartialEq)]
pub enum StackWire<E> {
    /// Reliable-broadcast data or acknowledgement.
    Rb(RbMsg<Timed<E>>),
    /// A member's delivered-prefix clock (gossip; loss-tolerant).
    StabilityReport(VectorClock),
    /// Liveness beacon.
    Heartbeat,
    /// Coordinator proposes the next view.
    Propose(GroupView),
    /// Survivor has flushed for the proposed view.
    FlushAck(ViewId),
    /// Coordinator finalizes the view.
    Install(GroupView),
    /// A node outside the group asks the contacted member to admit it
    /// (forwarded to the coordinator if the contact is not it).
    JoinReq {
        /// The node requesting admission.
        joiner: ProcessId,
    },
    /// An overlay link frame of a routed engine
    /// ([`DeliveryEngine::ROUTED`]): PC-broadcast data, the fresh-link
    /// ping/pong handshake, or a cumulative link acknowledgement.
    /// Non-routed stacks never send or receive it.
    Link(LinkFrame<Timed<E>>),
}

/// The membership machine's messages travel as the matching
/// [`StackWire`] variants.
impl<E> From<MembershipMsg> for StackWire<E> {
    fn from(msg: MembershipMsg) -> Self {
        match msg {
            MembershipMsg::Propose(view) => StackWire::Propose(view),
            MembershipMsg::FlushAck(view_id) => StackWire::FlushAck(view_id),
            MembershipMsg::Install(view) => StackWire::Install(view),
            MembershipMsg::JoinReq { joiner } => StackWire::JoinReq { joiner },
        }
    }
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
    /// app callback; standalone construction is useful for driving an
    /// [`App`] directly in tests.
    pub fn new() -> Self {
        Emitter { sends: Vec::new() }
    }

    /// Queues `op` for broadcast, ordered after `after` (an `OSend`).
    pub fn osend(&mut self, op: Op, after: OccursAfter) {
        self.sends.push((op, after));
    }

    /// Queues `op` for broadcast with no declared ordering constraint —
    /// what vector-clock (CBCAST) applications use, since their engine
    /// infers causality from delivery history.
    pub fn broadcast(&mut self, op: Op) {
        self.osend(op, OccursAfter::none());
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

/// An application hosted on a [`ProtocolStack`]: consumes causally
/// delivered operations and may emit further operations in response.
///
/// One trait serves every engine. Graph-engine apps see the declared
/// dependency set in [`Delivered::deps`]; vector-clock apps see `None`
/// there and simply ignore it.
pub trait App {
    /// The data-access operation type broadcast within the group.
    type Op: Clone;

    /// Called once at start (for membership joiners: once admitted); may
    /// emit initial operations.
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
    fn on_deliver(&mut self, env: Delivered<'_, Self::Op>, out: &mut Emitter<Self::Op>);

    /// Called when a delivered message closes a stable point (never fires
    /// under engines that do not track explicit dependencies).
    fn on_stable_point(&mut self, _sp: StablePoint, _out: &mut Emitter<Self::Op>) {}

    /// Called when virtually synchronous membership installs a new group
    /// view at this member (after the flush barrier lifted and parked
    /// sends drained). Operations emitted here are broadcast in the new
    /// view. Never fires on stacks without membership enabled.
    fn on_view(&mut self, _view: &GroupView, _out: &mut Emitter<Self::Op>) {}

    /// A canonical byte serialization of the application's current state,
    /// captured by tracing stacks at every stable point so the
    /// verification oracle can check the paper's agreement claim (§4):
    /// every member holds the *same state bytes* at the same stable
    /// point. Return `None` (the default) to opt out of state-agreement
    /// checking; the structural stable-point checks still run.
    fn snapshot(&self) -> Option<Vec<u8>> {
        None
    }
}

/// Per-node statistics collected by the stack. Counts live elsewhere:
/// deliveries in [`ProtocolStack::log`], stable points in
/// [`ProtocolStack::stable_points`], and the per-delivery record in the
/// [`MemberTrace`] of a stack built [`with_tracing`](ProtocolStack::with_tracing).
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// End-to-end latency (send to application delivery, including causal
    /// buffering) of every delivered operation.
    pub delivery_latency: Histogram,
}

/// Default retransmission period P for the reliability layer.
pub const DEFAULT_RETRANSMIT: SimDuration = SimDuration::from_millis(5);

/// Ack ticks per retransmission period: the ack tick runs every P/4, so
/// an ack reaches its sender well within the P a copy waits before the
/// backstop resends it. Where membership runs, the same tick carries the
/// heartbeats.
pub const ACK_TICKS_PER_RETRANSMIT: u64 = 4;

/// Membership checks per retransmission period: suspicion, takeover, the
/// retries of a pending change and a joiner's retries run every P/2.
pub const CHECKS_PER_RETRANSMIT: u64 = 2;

const TIMER_RETRANSMIT: u64 = 1;
const TIMER_ACK: u64 = 2;
const TIMER_FD_CHECK: u64 = 11;
const TIMER_JOIN_RETRY: u64 = 13;

/// Timing configuration of the membership machinery. The ack and
/// heartbeat tick (P/4) and the membership check (P/2) derive from
/// `retransmit_every` (P).
///
/// The defaults suit the discrete-event simulator's microsecond latencies.
/// Real transports (TCP) should scale both up — see
/// `tests/tcp_vsync.rs` for a wall-clock-friendly configuration.
#[derive(Debug, Clone, Copy)]
pub struct VsyncConfig {
    /// Silence threshold after which a member is suspected. At least
    /// 1 µs: building a view-synchronous stack with less panics.
    pub suspect_after: SimDuration,
    /// Reliability-layer retransmission period P.
    pub retransmit_every: SimDuration,
}

impl Default for VsyncConfig {
    fn default() -> Self {
        VsyncConfig {
            suspect_after: SimDuration::from_millis(6),
            retransmit_every: SimDuration::from_millis(4),
        }
    }
}

/// The membership side-state of a stack with view synchrony enabled: the
/// machine that makes every membership decision, and what the stack keeps
/// to carry those decisions out.
struct MembershipState<D: DeliveryEngine> {
    manager: ViewManager,
    /// Envelopes delivered, retained for flush re-broadcast and joiner
    /// replay.
    store: Vec<Timed<D::Envelope>>,
    /// Sends requested while a view change was flushing.
    outbox: VecDeque<(D::Op, OccursAfter)>,
}

/// A group member running the full Figure-4 stack around a pluggable
/// [`DeliveryEngine`], drivable by any sans-IO runtime.
///
/// Requests are injected from outside the runtime via
/// [`Simulation::poke`](causal_simnet::Simulation::poke) calling
/// [`osend`](ProtocolStack::osend), or emitted by the app itself from its
/// callbacks. See the [module docs](self) for the layer diagram and the
/// [`CausalNode`]/[`CbcastNode`]/[`VsyncNode`](crate::vsync::VsyncNode)
/// aliases for the common instantiations.
pub struct ProtocolStack<D: DeliveryEngine, A: App<Op = D::Op>> {
    me: ProcessId,
    app: A,
    engine: D,
    detector: StablePointDetector,
    rb: ReliableBroadcast<Timed<D::Envelope>>,
    retransmit_every: SimDuration,
    rtx_armed: bool,
    /// Whether the ack tick is armed: while acks are due, and for good
    /// where membership runs.
    ack_armed: bool,
    /// The acks of one ack period, kept so that ticks allocate nothing.
    acks: Vec<(ProcessId, RbAck)>,
    /// Send time per message still on record; GC raises its floors.
    sent_times: IdWindow<SimTime>,
    last_sent: Option<MsgId>,
    /// The ids of the delivered messages, in delivery order.
    log: Vec<MsgId>,
    stats: NodeStats,
    stability: Option<StabilityTracker>,
    report_every: u64,
    deliveries_since_report: u64,
    membership: Option<MembershipState<D>>,
    tracer: Option<MemberTrace>,
    crashed: bool,
    /// What the engine made of one input (an inbound link frame, a data
    /// copy, a local send, a view install, a retransmission tick),
    /// drained before the input's handling returns.
    /// Its `released` is the queue [`process_released`](Self::process_released)
    /// works through. Kept, like `spare` and `emitter`, so that
    /// steady-state traffic allocates no vectors.
    engine_out: LinkDelivery<D::Envelope>,
    /// The queue's second buffer: `process_released` swaps it in while it
    /// hands one round of envelopes to the app.
    spare: Vec<D::Envelope>,
    /// What the app emits from one callback, empty between callbacks.
    emitter: Emitter<D::Op>,
}

impl<D: DeliveryEngine, A: App<Op = D::Op>> fmt::Debug for ProtocolStack<D, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolStack")
            .field("me", &self.me)
            .field("delivered", &self.log.len())
            .field("pending", &self.engine.pending_len())
            .field("membership", &self.membership.is_some())
            .finish_non_exhaustive()
    }
}

impl<D: DeliveryEngine, A: App<Op = D::Op>> ProtocolStack<D, A> {
    /// Creates the member `me` of a static group of `n`, hosting `app`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the group.
    pub fn new(me: ProcessId, n: usize, app: A) -> Self {
        // Routed engines disseminate over their own overlay; in a static
        // group the full-mesh reliability layer would only retain O(n)
        // peer state per node for traffic that never flows. Membership
        // re-enables it (see `with_membership`) for the flush/replay
        // side-channel.
        let rb = if D::ROUTED {
            ReliableBroadcast::with_peers(me, [])
        } else {
            ReliableBroadcast::new(me, n)
        };
        Self::assemble(me, app, D::for_member(me, n), rb)
    }

    fn assemble(
        me: ProcessId,
        app: A,
        engine: D,
        rb: ReliableBroadcast<Timed<D::Envelope>>,
    ) -> Self {
        ProtocolStack {
            me,
            app,
            engine,
            detector: StablePointDetector::new(),
            rb,
            retransmit_every: DEFAULT_RETRANSMIT,
            rtx_armed: false,
            ack_armed: false,
            acks: Vec::new(),
            sent_times: IdWindow::new(),
            last_sent: None,
            log: Vec::new(),
            stats: NodeStats::default(),
            stability: None,
            report_every: 0,
            deliveries_since_report: 0,
            membership: None,
            tracer: None,
            crashed: false,
            engine_out: LinkDelivery::default(),
            spare: Vec::new(),
            emitter: Emitter::new(),
        }
    }

    /// Creates member `me` of an initial group of `n` with virtually
    /// synchronous membership enabled: the node heartbeats, suspects
    /// silent members, and runs the flush/install view-change protocol.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the group.
    pub fn with_membership(me: ProcessId, n: usize, app: A, config: VsyncConfig) -> Self {
        // Membership's flush re-broadcast and joiner replay run over the
        // reliability layer even under routed engines, so those stacks
        // need the full peer set after all.
        let rb = ReliableBroadcast::new(me, n);
        let suspect_after = config.suspect_after.as_micros();
        Self::assemble(me, app, D::for_member(me, n), rb).with_manager(
            ViewManager::new(me, GroupView::initial(n), suspect_after),
            config,
        )
    }

    fn with_manager(mut self, manager: ViewManager, config: VsyncConfig) -> Self {
        self.retransmit_every = config.retransmit_every;
        self.membership = Some(MembershipState {
            manager,
            store: Vec::new(),
            outbox: VecDeque::new(),
        });
        self
    }

    /// Overrides the retransmission period (default
    /// [`DEFAULT_RETRANSMIT`]).
    pub fn with_retransmit_every(mut self, period: SimDuration) -> Self {
        self.retransmit_every = period;
        self
    }

    /// Enables stability-based garbage collection: every `report_every`
    /// deliveries this member reports its delivered-prefix clock, and
    /// prunes per-message state (delivery engine, reliability layer, send
    /// times) once the prefix is known delivered everywhere.
    ///
    /// A routed stack without membership has no full-mesh channel, so it
    /// reports over its engine's overlay tree
    /// ([`StabilityTracker::over_tree`]): to its parent, with stable
    /// vectors flowing back down. Every other stack gossips to all
    /// members ([`StabilityTracker::new`]).
    ///
    /// This is stability GC only: it changes nothing the stack records.
    /// The delivery log ([`log`](Self::log)), the stable points
    /// ([`stable_points`](Self::stable_points)) and the latency samples
    /// ([`stats`](Self::stats)) still grow with every delivery, as does
    /// the opt-in [`MemberTrace`] ([`with_tracing`](Self::with_tracing))
    /// where it is on.
    ///
    /// # Panics
    ///
    /// Panics if `report_every` is zero.
    pub fn with_gc(mut self, n: usize, report_every: u64) -> Self {
        assert!(report_every > 0, "report period must be positive");
        let tree = if D::ROUTED && self.membership.is_none() {
            self.engine.overlay_tree()
        } else {
            None
        };
        self.stability = Some(match tree {
            Some(tree) => StabilityTracker::over_tree(self.me, n, tree.parent, tree.children),
            None => StabilityTracker::new(self.me, n),
        });
        self.report_every = report_every;
        self
    }

    /// Enables event tracing: the stack appends one
    /// [`TraceEvent`] per send, receipt,
    /// delivery, stable point, view installation, and crash to a private
    /// [`MemberTrace`], which a verification harness collects after the
    /// run. Purely local (no extra messages), so it works unchanged under
    /// any runtime. Dependency sets, stable-point snapshots and the
    /// rebuilt `R(M)` ([`MemberTrace::graph`]) are read from the trace;
    /// the delivery log, the stable points and the latency samples are
    /// kept without it.
    pub fn with_tracing(mut self) -> Self {
        self.tracer = Some(MemberTrace::new(self.me));
        self
    }

    /// The recorded trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&MemberTrace> {
        self.tracer.as_ref()
    }

    /// Removes and returns the recorded trace (for harnesses that consume
    /// nodes). Tracing stays enabled with a fresh, empty trace.
    pub fn take_trace(&mut self) -> Option<MemberTrace> {
        let taken = self.tracer.take();
        if taken.is_some() {
            self.tracer = Some(MemberTrace::new(self.me));
        }
        taken
    }

    /// Per-message bookkeeping entries currently retained (what GC
    /// bounds): delivery engine + reliability layer + send-time table.
    pub fn retained_state(&self) -> usize {
        self.engine.retained_len() + self.rb.retained_len() + self.sent_times.len()
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

    /// The delivery engine.
    pub fn engine(&self) -> &D {
        &self.engine
    }

    /// Collected statistics.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// The member's delivery log: the ids of the messages handed to the
    /// app, own sends included, in delivery order.
    pub fn log(&self) -> &[MsgId] {
        &self.log
    }

    /// Stable points detected so far.
    pub fn stable_points(&self) -> &[StablePoint] {
        self.detector.points()
    }

    /// Messages buffered awaiting causal predecessors.
    pub fn pending_len(&self) -> usize {
        self.engine.pending_len()
    }

    /// `true` while a proposed view change is flushing (new sends park in
    /// the outbox until the view installs). Always `false` without
    /// membership.
    pub fn is_flushing(&self) -> bool {
        self.membership
            .as_ref()
            .is_some_and(|m| m.manager.is_flushing())
    }

    /// The currently installed view.
    ///
    /// # Panics
    ///
    /// Panics if membership is not enabled.
    pub fn view(&self) -> &GroupView {
        self.membership
            .as_ref()
            .expect("membership not enabled on this node")
            .manager
            .current()
    }

    /// `true` while this node is still outside the group awaiting its
    /// first installed view.
    pub fn is_joining(&self) -> bool {
        self.membership
            .as_ref()
            .is_some_and(|m| m.manager.is_joining())
    }

    /// Silences this member from now on (test control: models a crash).
    pub fn crash(&mut self) {
        self.crashed = true;
        if let Some(t) = &mut self.tracer {
            t.record(TraceEvent::Crashed);
        }
    }

    /// Broadcasts `op` ordered after `after`; returns the assigned id.
    ///
    /// Call inside [`Simulation::poke`](causal_simnet::Simulation::poke)
    /// so the sends actually leave the node. Returns `None` when the node
    /// is crashed, or while a view change is flushing — then the send is
    /// parked and drains at installation (the flush barrier).
    pub fn osend(
        &mut self,
        ctx: &mut Context<'_, StackWire<D::Envelope>>,
        op: D::Op,
        after: OccursAfter,
    ) -> Option<MsgId> {
        if self.crashed {
            return None;
        }
        if self.is_flushing() {
            let mem = self
                .membership
                .as_mut()
                .expect("flushing implies membership");
            mem.outbox.push_back((op, after));
            return None;
        }
        self.transmit(ctx, op, after);
        let id = self.last_sent;
        self.process_released(ctx);
        id
    }

    /// Broadcasts `op` with no declared ordering constraint — the CBCAST
    /// entry point (causality inferred from the vector clock).
    pub fn broadcast(
        &mut self,
        ctx: &mut Context<'_, StackWire<D::Envelope>>,
        op: D::Op,
    ) -> Option<MsgId> {
        self.osend(ctx, op, OccursAfter::none())
    }

    /// Broadcasts `op` and queues what its self-delivery released for
    /// [`process_released`](Self::process_released).
    fn transmit(
        &mut self,
        ctx: &mut Context<'_, StackWire<D::Envelope>>,
        op: D::Op,
        after: OccursAfter,
    ) {
        let env = self
            .engine
            .send_into(op, after, &mut self.engine_out.released);
        let id = env.msg_id();
        let timed = Timed {
            env,
            sent_at: ctx.now(),
        };
        if D::ROUTED {
            // Routed engines disseminate over their overlay links (the
            // link layer provides per-link reliability + FIFO).
            for (to, frame) in self.engine.route_broadcast(timed) {
                ctx.send(to, StackWire::Link(frame));
            }
        } else {
            // One multicast per broadcast: the copies are identical, so a
            // serializing transport encodes the envelope once for the
            // group.
            let (targets, msg) = self.rb.broadcast_grouped(timed);
            ctx.multicast(targets, StackWire::Rb(msg));
        }
        self.arm_retransmit(ctx);
        self.sent_times.insert(id, ctx.now());
        self.last_sent = Some(id);
        if let Some(t) = &mut self.tracer {
            t.record(TraceEvent::Send { id });
        }
    }

    /// What a routed engine's links read of this stack's clock: the time
    /// now and the retransmission period, from which they judge which
    /// frames are lost.
    fn link_clock(&self, ctx: &Context<'_, StackWire<D::Envelope>>) -> LinkClock {
        LinkClock {
            now: ctx.now(),
            period: self.retransmit_every,
        }
    }

    /// Arms the ack tick, P/4 from now: while acks are due, and always
    /// where membership runs, since the tick carries the heartbeats.
    fn arm_ack(&mut self, ctx: &mut Context<'_, StackWire<D::Envelope>>) {
        if !self.ack_armed && (self.membership.is_some() || self.rb.has_due()) {
            ctx.set_timer(self.retransmit_every / ACK_TICKS_PER_RETRANSMIT, TIMER_ACK);
            self.ack_armed = true;
        }
    }

    /// Sends the acks due, one per (sender, origin) pair, leaving them in
    /// `self.acks` (sorted by destination).
    fn send_acks(&mut self, ctx: &mut Context<'_, StackWire<D::Envelope>>) {
        let clock = self.link_clock(ctx);
        self.acks.clear();
        self.rb.take_acks(clock, &mut self.acks);
        for &(to, ack) in &self.acks {
            ctx.send(to, StackWire::Rb(RbMsg::Ack(ack)));
        }
    }

    /// Sends the link frames the engine queued in `engine_out.sends`: the
    /// one way a routed engine's frames reach the network, besides
    /// [`route_broadcast`](DeliveryEngine::route_broadcast)'s.
    fn send_link_frames(&mut self, ctx: &mut Context<'_, StackWire<D::Envelope>>) {
        for (to, frame) in self.engine_out.sends.drain(..) {
            ctx.send(to, StackWire::Link(frame));
        }
    }

    fn arm_retransmit(&mut self, ctx: &mut Context<'_, StackWire<D::Envelope>>) {
        if !self.rtx_armed && (self.rb.has_pending() || self.engine.link_has_pending()) {
            ctx.set_timer(self.retransmit_every, TIMER_RETRANSMIT);
            self.rtx_armed = true;
        }
    }

    /// Hands the queued envelopes to the app in order, then what the
    /// app's own sends release, and so on, then reports and compacts. The
    /// queue is worked through in rounds: one round's envelopes go to the
    /// app while its sends queue theirs for the next, which is the order a
    /// single first-in, first-out queue gives.
    fn process_released(&mut self, ctx: &mut Context<'_, StackWire<D::Envelope>>) {
        while !self.engine_out.released.is_empty() {
            let spare = std::mem::take(&mut self.spare);
            let mut round = std::mem::replace(&mut self.engine_out.released, spare);
            for env in round.drain(..) {
                self.deliver(ctx, env);
            }
            self.spare = round;
        }
        self.maybe_report_and_compact(ctx);
    }

    /// Delivers one released envelope: latency, stable-point detection,
    /// stability, tracing, the app, then the membership store, which takes
    /// the envelope itself once the app has seen it. The app's sends go
    /// out at once, or park while a view change flushes.
    fn deliver(&mut self, ctx: &mut Context<'_, StackWire<D::Envelope>>, env: D::Envelope) {
        let id = env.msg_id();
        self.log.push(id);
        let sent_at = self.sent_times.get(id).copied();
        if let Some(sent_at) = sent_at {
            self.stats
                .delivery_latency
                .record(ctx.now().saturating_since(sent_at));
        }
        let delivered = D::view(&env);
        let candidate = self.app.classify(delivered.payload) == OpClass::NonCommutative;
        let sp = match delivered.deps {
            Some(deps) => self.detector.on_deliver(id, deps, candidate),
            // Without explicit dependencies (vector-clock engines) the
            // paper's §4 detection rule has nothing to work with.
            None => None,
        };
        if let Some(stability) = &mut self.stability {
            stability.on_deliver(id);
            self.deliveries_since_report += 1;
        }
        if let Some(t) = &mut self.tracer {
            t.record(TraceEvent::Deliver {
                id,
                deps: delivered.deps.map(<[MsgId]>::to_vec),
                vt: D::clock_of(&env).cloned(),
                sync_candidate: candidate,
            });
        }
        let mut out = std::mem::take(&mut self.emitter);
        self.app.on_deliver(D::view(&env), &mut out);
        if let Some(sp) = sp {
            if let Some(t) = &mut self.tracer {
                // The state *after* processing the closing sync
                // message is the paper's stable-point state.
                t.record(TraceEvent::StablePoint {
                    ordinal: sp.ordinal,
                    msg: sp.msg,
                    snapshot: self.app.snapshot(),
                });
            }
            self.app.on_stable_point(sp, &mut out);
        }
        if let Some(mem) = self.membership.as_mut() {
            // Retained for flush re-broadcast and joiner replay.
            mem.store.push(Timed {
                env,
                sent_at: sent_at.unwrap_or_else(|| ctx.now()),
            });
        }
        for (op, after) in out.sends.drain(..) {
            if self.is_flushing() {
                let mem = self
                    .membership
                    .as_mut()
                    .expect("flushing implies membership");
                mem.outbox.push_back((op, after));
            } else {
                self.transmit(ctx, op, after);
            }
        }
        self.emitter = out;
    }

    /// Reports the delivered-prefix clock when due and compacts if the
    /// stable prefix advanced.
    fn maybe_report_and_compact(&mut self, ctx: &mut Context<'_, StackWire<D::Envelope>>) {
        let Some(stability) = &mut self.stability else {
            return;
        };
        if self.deliveries_since_report >= self.report_every {
            self.deliveries_since_report = 0;
            stability.on_cadence();
            self.send_reports(ctx);
        }
        self.compact_now();
    }

    /// Sends every stability report the tracker has queued.
    fn send_reports(&mut self, ctx: &mut Context<'_, StackWire<D::Envelope>>) {
        let Some(stability) = &mut self.stability else {
            return;
        };
        while let Some((to, report)) = stability.take_report() {
            let msg = StackWire::StabilityReport(report);
            match to {
                ReportTo::Everyone => ctx.broadcast(msg),
                ReportTo::Members(&[one]) => ctx.send(one, msg),
                ReportTo::Members(members) => ctx.multicast(members.to_vec(), msg),
            }
        }
    }

    /// Compacts engine, reliability layer and send times against the
    /// stable prefix, only when it rose since the last compaction: every
    /// layer absorbs ids inside an already compacted prefix as duplicates,
    /// so an unchanged prefix leaves nothing new to prune.
    fn compact_now(&mut self) {
        let Some(stable) = self
            .stability
            .as_mut()
            .and_then(StabilityTracker::take_advance)
        else {
            return;
        };
        self.engine.compact(stable);
        self.rb.compact(stable);
        self.sent_times.compact(stable);
    }

    /// Feeds one input to the membership machine, if membership is
    /// enabled, at the time now, and carries out what it decides.
    fn membership_input(
        &mut self,
        ctx: &mut Context<'_, StackWire<D::Envelope>>,
        input: impl FnOnce(&mut ViewManager, u64) -> Vec<ManagerAction>,
    ) {
        let Some(mem) = self.membership.as_mut() else {
            return;
        };
        let actions = input(&mut mem.manager, ctx.now().as_micros());
        self.perform(ctx, actions);
    }

    fn perform(
        &mut self,
        ctx: &mut Context<'_, StackWire<D::Envelope>>,
        actions: Vec<ManagerAction>,
    ) {
        for action in actions {
            match action {
                ManagerAction::Send { to, msg } => ctx.send(to, msg.into()),
                ManagerAction::BeginFlush { removed, to } => {
                    // Virtual-synchrony flush: relay the messages we have
                    // delivered from members being removed to every
                    // survivor (duplicates are absorbed), so nobody misses
                    // a message only some survivors saw. The reliability
                    // layer resends a lost copy until it is acknowledged.
                    let mem = self.membership.as_ref().expect("membership enabled");
                    for timed in &mem.store {
                        if removed.contains(&timed.msg_id().origin()) {
                            if let Some((targets, msg)) = self.rb.relay(&to, timed.clone()) {
                                ctx.multicast(targets, StackWire::Rb(msg));
                            }
                        }
                    }
                    self.arm_retransmit(ctx);
                    self.membership_input(ctx, ViewManager::flush_done);
                }
                ManagerAction::Installed { view, joined } => self.on_installed(ctx, view, joined),
            }
        }
    }

    /// Reconfigures the layers for the installed `view`, lifts the flush
    /// barrier, and tells the application (`joined`: this node was just
    /// admitted, so its app starts now).
    fn on_installed(
        &mut self,
        ctx: &mut Context<'_, StackWire<D::Envelope>>,
        view: GroupView,
        joined: bool,
    ) {
        let store = &self.membership.as_ref().expect("membership enabled").store;
        let rb = &mut self.rb;
        // Stop waiting for acknowledgements from removed members, and
        // take them out of the stable minimum: their last reports would
        // otherwise hold it down for good.
        let removed: Vec<ProcessId> = rb.peers().filter(|p| !view.contains(*p)).collect();
        for dead in removed {
            rb.remove_peer(dead);
            if let Some(stability) = &mut self.stability {
                stability.remove_member(dead);
            }
        }
        // Admit new members: target future broadcasts at them, extend the
        // in-flight unacknowledged sets, and replay the delivered history
        // (log-replay state transfer; their dedupe absorbs overlap with
        // the in-flight retransmissions).
        let known: BTreeSet<ProcessId> = rb.peers().collect();
        let added: Vec<ProcessId> = view
            .members()
            .iter()
            .copied()
            .filter(|&m| m != self.me && !known.contains(&m))
            .collect();
        for &new in &added {
            rb.add_peer(new);
            for (to, msg) in rb.extend_unacked(new) {
                ctx.send(to, StackWire::Rb(msg));
            }
            for timed in store.iter().cloned() {
                if let Some((_, msg)) = rb.relay(&[new], timed) {
                    ctx.send(new, StackWire::Rb(msg));
                }
            }
            if !self.rtx_armed && rb.has_pending() {
                ctx.set_timer(self.retransmit_every, TIMER_RETRANSMIT);
                self.rtx_armed = true;
            }
        }
        if let Some(t) = &mut self.tracer {
            t.record(TraceEvent::ViewInstalled { view: view.clone() });
        }
        // Routed engines reconcile their overlay with the new member set:
        // removed members' links drop, fresh links open quarantined and
        // start their ping/pong handshake here.
        self.engine
            .on_members(view.members(), &mut self.engine_out.sends);
        self.send_link_frames(ctx);
        self.arm_retransmit(ctx);
        // The flush barrier lifts: drain parked sends.
        while let Some((op, after)) = self
            .membership
            .as_mut()
            .expect("membership enabled")
            .outbox
            .pop_front()
        {
            self.transmit(ctx, op, after);
            self.process_released(ctx);
        }
        // Tell the application; operations it emits in response go out in
        // the new view, behind the drained parked sends.
        let mut out = Emitter::new();
        if joined {
            self.app.on_start(self.me, &mut out);
        }
        self.app.on_view(&view, &mut out);
        for (op, after) in out.drain() {
            self.transmit(ctx, op, after);
            self.process_released(ctx);
        }
    }
}

/// The data path: what the stack does with each full-mesh data copy, ack
/// and stability report, and each overlay link frame. Steady-state traffic
/// through these allocates only what a new message needs of its own.
impl<D: DeliveryEngine, A: App<Op = D::Op>> ProtocolStack<D, A> {
    /// A full-mesh data copy from `from`: the reliability layer judges it
    /// (and may name lost copies at once), the engine takes it if fresh,
    /// and what that releases goes up the stack.
    fn on_rb_data(
        &mut self,
        ctx: &mut Context<'_, StackWire<D::Envelope>>,
        from: ProcessId,
        timed: Timed<D::Envelope>,
    ) {
        let rid = timed.msg_id();
        let clock = self.link_clock(ctx);
        let (fresh, named) = self.rb.on_data_at(from, timed, clock);
        if let Some((to, ack)) = named {
            ctx.send(to, StackWire::Rb(ack));
        }
        self.arm_ack(ctx);
        // The engine may have already seen the message through its own
        // overlay links (routed engines overlap with the membership
        // flush/replay side-channel), so freshness is the *engine's*
        // verdict, not the reliability layer's.
        let mut engine_fresh = false;
        if let Some(timed) = fresh {
            self.sent_times
                .get_or_insert_with(timed.msg_id(), || timed.sent_at);
            self.engine.on_replay_into(timed, &mut self.engine_out);
            engine_fresh = self.engine_out.receipts.first().is_some_and(|r| r.2);
            self.engine_out.receipts.clear();
            self.send_link_frames(ctx);
            self.arm_retransmit(ctx);
        }
        if let Some(t) = &mut self.tracer {
            t.record(TraceEvent::Receive {
                id: rid,
                fresh: engine_fresh,
            });
        }
        self.process_released(ctx);
    }

    /// `from`'s ack of one origin: retire what it covers, resend what it
    /// names lost.
    fn on_rb_ack(
        &mut self,
        ctx: &mut Context<'_, StackWire<D::Envelope>>,
        from: ProcessId,
        ack: RbAck,
    ) {
        for (to, resend) in self.rb.on_ack(from, ack) {
            ctx.send(to, StackWire::Rb(resend));
        }
    }

    /// `from`'s stability report: fold it in, pass on what the tracker
    /// queues, and compact if the stable prefix rose.
    fn on_stability_report(
        &mut self,
        ctx: &mut Context<'_, StackWire<D::Envelope>>,
        from: ProcessId,
        report: &VectorClock,
    ) {
        if let Some(stability) = &mut self.stability {
            stability.on_report(from, report);
            self.send_reports(ctx);
            self.compact_now();
        }
    }

    /// An overlay link frame from `from` (routed engines only).
    fn on_link(
        &mut self,
        ctx: &mut Context<'_, StackWire<D::Envelope>>,
        from: ProcessId,
        frame: LinkFrame<Timed<D::Envelope>>,
    ) {
        let clock = self.link_clock(ctx);
        let history: &[Timed<D::Envelope>] = match &self.membership {
            Some(mem) => mem.store.as_slice(),
            None => &[],
        };
        self.engine
            .on_link_frame_into(from, frame, history, clock, &mut self.engine_out);
        for (id, sent_at, fresh) in self.engine_out.receipts.drain(..) {
            if fresh {
                self.sent_times.get_or_insert_with(id, || sent_at);
            }
            if let Some(t) = &mut self.tracer {
                t.record(TraceEvent::Receive { id, fresh });
            }
        }
        self.send_link_frames(ctx);
        self.arm_retransmit(ctx);
        self.process_released(ctx);
    }
}

impl<A: App> ProtocolStack<GraphDelivery<A::Op>, A> {
    /// Creates a node **outside** the group that will ask `contact` to
    /// admit it. Until its first view installs, the node neither
    /// broadcasts nor heartbeats; once admitted it receives the full
    /// message history (log-replay state transfer) from the existing
    /// members and participates normally.
    ///
    /// Joining is specific to the graph engine: vector-clock engines size
    /// their clocks to a fixed group and cannot represent an outsider.
    pub fn joining(me: ProcessId, contact: ProcessId, app: A, config: VsyncConfig) -> Self {
        let engine = GraphDelivery::for_member(me, 1);
        let suspect_after = config.suspect_after.as_micros();
        Self::assemble(me, app, engine, ReliableBroadcast::with_peers(me, []))
            .with_manager(ViewManager::joining(me, contact, suspect_after), config)
    }
}

impl<D: DeliveryEngine, A: App<Op = D::Op>> Actor for ProtocolStack<D, A> {
    type Msg = StackWire<D::Envelope>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        if self.membership.is_some() {
            self.arm_ack(ctx);
            // Every member checks for suspects: if the coordinator itself
            // dies, the lowest-ranked live member takes over.
            let check = self.retransmit_every / CHECKS_PER_RETRANSMIT;
            ctx.set_timer(check, TIMER_FD_CHECK);
            self.membership_input(ctx, ViewManager::start);
            if self.is_joining() {
                ctx.set_timer(check, TIMER_JOIN_RETRY);
                return; // the app starts once the node is admitted
            }
        }
        let mut out = Emitter::new();
        self.app.on_start(self.me, &mut out);
        for (op, after) in out.drain() {
            self.transmit(ctx, op, after);
        }
        self.process_released(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ProcessId, msg: Self::Msg) {
        if self.crashed {
            return;
        }
        if let Some(mem) = self.membership.as_mut() {
            mem.manager.observe(from, ctx.now().as_micros());
        }
        match msg {
            StackWire::Rb(RbMsg::Data(timed)) => self.on_rb_data(ctx, from, timed),
            StackWire::Rb(RbMsg::Ack(ack)) => self.on_rb_ack(ctx, from, ack),
            StackWire::StabilityReport(report) => self.on_stability_report(ctx, from, &report),
            StackWire::Heartbeat => {}
            StackWire::Propose(view) => {
                self.membership_input(ctx, |m, _| m.on_propose(from, view));
            }
            StackWire::FlushAck(view_id) => {
                self.membership_input(ctx, |m, now| m.on_flush_ack(now, from, view_id));
            }
            StackWire::Install(view) => {
                self.membership_input(ctx, |m, now| m.on_install(now, view));
            }
            StackWire::JoinReq { joiner } => {
                self.membership_input(ctx, |m, _| m.on_join_req(joiner));
            }
            StackWire::Link(frame) => self.on_link(ctx, from, frame),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, tag: u64) {
        if self.crashed {
            return;
        }
        match tag {
            TIMER_RETRANSMIT => {
                self.rtx_armed = false;
                if self.rb.has_pending() {
                    for (targets, msg) in self.rb.retransmissions_grouped() {
                        ctx.multicast(targets, StackWire::Rb(msg));
                    }
                }
                let clock = self.link_clock(ctx);
                self.engine
                    .link_retransmissions(clock, &mut self.engine_out.sends);
                self.send_link_frames(ctx);
                self.arm_retransmit(ctx);
            }
            TIMER_ACK => {
                self.ack_armed = false;
                self.send_acks(ctx);
                if let Some(mem) = &self.membership {
                    // Any frame counts as liveness, so a member that gets
                    // acks this period needs no heartbeat.
                    for &m in mem.manager.current().members() {
                        let acked = self.acks.binary_search_by_key(&m, |&(to, _)| to).is_ok();
                        if m != self.me && !acked {
                            ctx.send(m, StackWire::Heartbeat);
                        }
                    }
                }
                self.arm_ack(ctx);
            }
            TIMER_FD_CHECK => {
                self.membership_input(ctx, ViewManager::on_check);
                let check = self.retransmit_every / CHECKS_PER_RETRANSMIT;
                ctx.set_timer(check, TIMER_FD_CHECK);
            }
            TIMER_JOIN_RETRY => {
                self.membership_input(ctx, |m, _| m.on_join_retry());
                if self.is_joining() {
                    let check = self.retransmit_every / CHECKS_PER_RETRANSMIT;
                    ctx.set_timer(check, TIMER_JOIN_RETRY);
                }
            }
            _ => {}
        }
    }
}

/// The full stack over explicit-graph (`OSend`) delivery — the paper's
/// semantic-causality configuration.
pub type CausalNode<A> = ProtocolStack<GraphDelivery<<A as App>::Op>, A>;

/// The full stack over vector-clock (CBCAST) delivery — the "potential
/// causality" arm of the semantic-vs-potential ablation.
pub type CbcastNode<A> = ProtocolStack<CbcastEngine<<A as App>::Op>, A>;

/// The wire message type of a [`CausalNode`] group.
pub type WireMsg<A> = StackWire<GraphEnvelope<<A as App>::Op>>;

/// The wire message type of a [`CbcastNode`] group.
pub type BcastWire<A> = StackWire<VtEnvelope<<A as App>::Op>>;

/// The full stack over PC-broadcast delivery — constant-overhead causal
/// order from FIFO dissemination over a spanning overlay.
pub type PcNode<A> = ProtocolStack<PcEngine<<A as App>::Op>, A>;

/// The wire message type of a [`PcNode`] group.
pub type PcWire<A> = StackWire<crate::delivery::PcEnvelope<<A as App>::Op>>;
