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
//! [`CausalNode`], [`CbcastNode`] and [`PcNode`] name the stack over each
//! engine, and [`WireMsg`], [`BcastWire`] and [`PcWire`] their wire types,
//! so call sites read like the paper's vocabulary.
//!
//! Because the stack is a sans-IO [`Actor`], the same node runs unchanged
//! under the discrete-event simulator, the threaded runtime, and the
//! `causal-net` TCP transport — including the membership machinery, which
//! is just more messages and timers.
//!
//! # Membership
//!
//! Membership is a way to build the stack, not another type:
//! [`with_membership`](ProtocolStack::with_membership) builds a member of
//! a virtually synchronous group (the paper's ISIS-style groups, §3), and
//! [`joining`](ProtocolStack::joining) a node that asks a member to admit
//! it. Every membership decision (failure detection, who proposes, flush
//! acks and install, join routing, retries) lives in the sans-IO
//! [`ViewManager`]. The stack feeds it liveness, the membership messages
//! and the check tick, sends what it returns, and performs its two local
//! actions:
//!
//! - the **flush**: relay the messages delivered from the removed members
//!   to the survivors over the reliability layer, which resends each copy
//!   until it is acknowledged (so a message *some* survivor saw reaches
//!   *all* of them), park new sends, then report done;
//! - the **install**: stop waiting for the removed members' acks and
//!   reports, admit the added ones (target broadcasts at them, extend the
//!   unacknowledged sets to them, replay the delivered history: log-replay
//!   state transfer, whose overlap their duplicate suppression absorbs),
//!   reconfigure the engine, drain the parked sends, and call the app. A
//!   joiner's app starts ([`App::on_start`]) at its first install, before
//!   it sees the view.
//!
//! Every message is thus delivered in the view it was sent in, and the
//! survivors agree when the next view installs (virtual synchrony), which
//! keeps the stable-point agreement sound across failures. Heartbeats stay
//! here: they ride the rbcast ack tick.
//!
//! Every period derives from the retransmission period P: the ack tick
//! runs every P/4 and the membership check every P/2. Without membership
//! the ack tick is armed only while acks are due; with membership it
//! runs for the group's lifetime and sends each member that is owed no
//! ack that period a heartbeat instead.

use crate::delivery::pcbcast::{LinkClock, LinkFrame};
use crate::delivery::{
    CbcastEngine, Delivered, DeliveryEngine, GraphDelivery, PcEngine, TimedDelivery, VtEnvelope,
};
use crate::osend::{GraphEnvelope, OccursAfter};
use crate::rbcast::{HasMsgId, RbAck, RbMsg, ReliableBroadcast};
use crate::stability::{ReportTo, StabilityTracker};
use crate::stable::{StablePoint, StablePointDetector};
use crate::statemachine::OpClass;
use crate::trace::{MemberTrace, TraceEvent};
use causal_clocks::{MsgId, ProcessId, VectorClock};
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
    type Op: Clone + Send + Sync;

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
    /// buffering) of every delivered operation, in fixed memory.
    pub delivery_latency: Histogram,
}

/// Default retransmission period P for the reliability layer.
pub const DEFAULT_RETRANSMIT: SimDuration = SimDuration::from_millis(5);

/// Default retransmission period P of a stack with membership
/// ([`with_membership`](ProtocolStack::with_membership),
/// [`joining`](ProtocolStack::joining)): its ack and heartbeat tick (P/4)
/// and its membership check (P/2) run every 1 ms and 2 ms.
/// [`with_retransmit_every`](ProtocolStack::with_retransmit_every)
/// overrides it.
pub const MEMBERSHIP_RETRANSMIT: SimDuration = SimDuration::from_millis(4);

/// Ack ticks per retransmission period: the ack tick runs every P/4, so
/// an ack reaches its sender well within the P a copy waits before the
/// backstop resends it. Where membership runs, the same tick carries the
/// heartbeats.
pub const ACK_TICKS_PER_RETRANSMIT: u64 = 4;

/// Membership checks per retransmission period: suspicion, takeover, the
/// retries of a pending change and a joiner's retries run every P/2.
pub const CHECKS_PER_RETRANSMIT: u64 = 2;

/// Envelopes per segment of a membership stack's store. A segment is
/// allocated at this capacity when the last one fills and never grows, so
/// the store grows without copying what it holds (256 KiB per segment at
/// 64 bytes per envelope).
const STORE_SEGMENT: usize = 4_096;

const TIMER_RETRANSMIT: u64 = 1;
const TIMER_ACK: u64 = 2;
const TIMER_FD_CHECK: u64 = 11;

/// Timing configuration of the membership machinery: the suspicion
/// threshold. The retransmission period P, from which the ack and
/// heartbeat tick (P/4) and the membership check (P/2) derive, is set on
/// the stack: [`MEMBERSHIP_RETRANSMIT`] unless
/// [`with_retransmit_every`](ProtocolStack::with_retransmit_every)
/// overrides it.
///
/// The defaults suit the discrete-event simulator's microsecond latencies.
/// Real transports (TCP) should scale the threshold and P up — see
/// `tests/tcp_vsync.rs` for a wall-clock-friendly configuration.
#[derive(Debug, Clone, Copy)]
pub struct VsyncConfig {
    /// Silence threshold after which a member is suspected. At least
    /// 1 µs: building a view-synchronous stack with less panics.
    pub suspect_after: SimDuration,
}

impl Default for VsyncConfig {
    fn default() -> Self {
        VsyncConfig {
            suspect_after: SimDuration::from_millis(6),
        }
    }
}

/// The membership side-state of a stack with view synchrony enabled: the
/// machine that makes every membership decision, and what the stack keeps
/// to carry those decisions out.
struct MembershipState<D: DeliveryEngine> {
    manager: ViewManager,
    /// Envelopes delivered, in delivery order across its segments of
    /// [`STORE_SEGMENT`] each, retained for flush re-broadcast, joiner
    /// replay and a routed engine's pong flush.
    store: Vec<Vec<Timed<D::Envelope>>>,
    /// Sends requested while a view change was flushing.
    outbox: VecDeque<(D::Op, OccursAfter)>,
}

impl<D: DeliveryEngine> MembershipState<D> {
    /// Appends a delivered envelope to the store, in a fresh segment when
    /// the last one is full.
    fn store_delivered(&mut self, timed: Timed<D::Envelope>) {
        match self.store.last_mut() {
            Some(segment) if segment.len() < STORE_SEGMENT => segment.push(timed),
            _ => {
                let mut segment = Vec::with_capacity(STORE_SEGMENT);
                segment.push(timed);
                self.store.push(segment);
            }
        }
    }
}

/// A group member running the full Figure-4 stack around a pluggable
/// [`DeliveryEngine`], drivable by any sans-IO runtime.
///
/// Requests are injected from outside the runtime via
/// [`Simulation::poke`](causal_simnet::Simulation::poke) calling
/// [`osend`](ProtocolStack::osend), or emitted by the app itself from its
/// callbacks. See the [module docs](self) for the layer diagram and the
/// [`CausalNode`]/[`CbcastNode`]/[`PcNode`] aliases for the common
/// instantiations.
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
    engine_out: TimedDelivery<D::Envelope>,
    /// The queue's second buffer: `process_released` swaps it in while it
    /// hands one round of envelopes to the app.
    spare: Vec<Timed<D::Envelope>>,
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
            log: Vec::new(),
            stats: NodeStats::default(),
            stability: None,
            report_every: 0,
            deliveries_since_report: 0,
            membership: None,
            tracer: None,
            crashed: false,
            engine_out: TimedDelivery::default(),
            spare: Vec::new(),
            emitter: Emitter::new(),
        }
    }

    /// Creates member `me` of an initial group of `n` with virtually
    /// synchronous membership enabled: the node heartbeats, suspects
    /// silent members, and runs the flush/install view-change protocol.
    /// Its timers run for the group's lifetime, so simulations drive it
    /// with [`run_until`](causal_simnet::Simulation::run_until), not
    /// `run_to_quiescence`.
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
        let manager = ViewManager::new(me, GroupView::initial(n), suspect_after);
        Self::assemble(me, app, D::for_member(me, n), rb).with_manager(manager)
    }

    fn with_manager(mut self, manager: ViewManager) -> Self {
        self.retransmit_every = MEMBERSHIP_RETRANSMIT;
        self.membership = Some(MembershipState {
            manager,
            store: Vec::new(),
            outbox: VecDeque::new(),
        });
        self
    }

    /// Overrides the retransmission period P (default
    /// [`DEFAULT_RETRANSMIT`], or [`MEMBERSHIP_RETRANSMIT`] with
    /// membership).
    pub fn with_retransmit_every(mut self, period: SimDuration) -> Self {
        self.retransmit_every = period;
        self
    }

    /// Enables stability-based garbage collection: every `report_every`
    /// deliveries this member reports its delivered-prefix clock, and
    /// prunes per-message state (delivery engine, reliability layer) once
    /// the prefix is known delivered everywhere.
    ///
    /// A routed stack without membership has no full-mesh channel, so it
    /// reports over its engine's overlay tree
    /// ([`StabilityTracker::over_tree`]): to its parent, with stable
    /// vectors flowing back down. Every other stack gossips to all
    /// members ([`StabilityTracker::new`]).
    ///
    /// This is stability GC only: it changes nothing the stack records.
    /// The delivery log ([`log`](Self::log)) and the stable points
    /// ([`stable_points`](Self::stable_points)) still grow with every
    /// delivery, as do the membership store of a view-synchronous stack
    /// and the opt-in [`MemberTrace`] ([`with_tracing`](Self::with_tracing))
    /// where it is on. The latency histogram ([`stats`](Self::stats))
    /// keeps fixed memory.
    ///
    /// # Panics
    ///
    /// Panics if `report_every` is zero.
    pub fn with_gc(mut self, n: usize, report_every: u64) -> Self {
        assert!(report_every > 0, "report period must be positive");
        let tree = if self.is_static_routed() {
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
    /// the delivery log, the stable points and the latency histogram are
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
    /// bounds): delivery engine + reliability layer.
    pub fn retained_state(&self) -> usize {
        self.engine.retained_len() + self.rb.retained_len()
    }

    /// Messages this member holds without knowing them stable: its
    /// deliveries above the stable prefix (all of them without GC), plus
    /// what its engine holds parked.
    pub fn unstable_len(&self) -> usize {
        let stable = self
            .stability
            .as_ref()
            .map_or(0, |s| s.stable().total_events());
        (self.log.len() as u64).saturating_sub(stable) as usize + self.engine.pending_len()
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
        let id = self.send_or_park(ctx, op, after)?;
        self.process_released(ctx);
        Some(id)
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

    /// Transmits `op` at once, or parks it in the outbox while a view
    /// change flushes; returns the assigned id when it was transmitted.
    fn send_or_park(
        &mut self,
        ctx: &mut Context<'_, StackWire<D::Envelope>>,
        op: D::Op,
        after: OccursAfter,
    ) -> Option<MsgId> {
        if self.is_flushing() {
            let mem = self
                .membership
                .as_mut()
                .expect("flushing implies membership");
            mem.outbox.push_back((op, after));
            return None;
        }
        Some(self.transmit(ctx, op, after))
    }

    /// Broadcasts `op`, queues what its self-delivery released for
    /// [`process_released`](Self::process_released), and returns the id
    /// it assigned.
    fn transmit(
        &mut self,
        ctx: &mut Context<'_, StackWire<D::Envelope>>,
        op: D::Op,
        after: OccursAfter,
    ) -> MsgId {
        let timed = self
            .engine
            .send_timed(op, after, ctx.now(), &mut self.engine_out.released);
        let id = timed.msg_id();
        if D::ROUTED {
            // Routed engines disseminate over their overlay links (the
            // link layer provides per-link reliability + FIFO).
            self.engine
                .route_broadcast_into(timed, &mut self.engine_out.sends);
            self.send_link_frames(ctx);
        } else {
            // One multicast per broadcast: the copies are identical, so a
            // serializing transport encodes the envelope once for the
            // group.
            let (targets, msg) = self.rb.broadcast_grouped(timed);
            ctx.multicast(targets, StackWire::Rb(msg));
        }
        self.arm_retransmit(ctx);
        if let Some(t) = &mut self.tracer {
            t.record(TraceEvent::Send { id });
        }
        id
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
    /// one way a routed engine's frames reach the network.
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
            for timed in round.drain(..) {
                self.deliver(ctx, timed);
            }
            self.spare = round;
        }
        self.maybe_report_and_compact(ctx);
    }

    /// Delivers one released envelope: latency, stable-point detection,
    /// stability, tracing, the app, then the membership store, which takes
    /// the envelope itself once the app has seen it. The app's sends go
    /// out at once, or park while a view change flushes.
    fn deliver(
        &mut self,
        ctx: &mut Context<'_, StackWire<D::Envelope>>,
        timed: Timed<D::Envelope>,
    ) {
        let id = timed.msg_id();
        self.log.push(id);
        self.stats
            .delivery_latency
            .record(ctx.now().saturating_since(timed.sent_at));
        let env = &timed.env;
        let delivered = D::view(env);
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
                vt: D::clock_of(env).cloned(),
                sync_candidate: candidate,
            });
        }
        let mut out = std::mem::take(&mut self.emitter);
        self.app.on_deliver(D::view(env), &mut out);
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
            mem.store_delivered(timed);
        }
        for (op, after) in out.sends.drain(..) {
            self.send_or_park(ctx, op, after);
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

    /// Compacts engine and reliability layer against the stable prefix,
    /// only when it rose since the last compaction: every layer absorbs
    /// ids inside an already compacted prefix as duplicates, so an
    /// unchanged prefix leaves nothing new to prune. The reliability
    /// layer of a static routed stack is built with no peers and never
    /// carries a copy, so it is left alone.
    fn compact_now(&mut self) {
        let static_routed = self.is_static_routed();
        let Some(stable) = self
            .stability
            .as_mut()
            .and_then(StabilityTracker::take_advance)
        else {
            return;
        };
        self.engine.compact(stable);
        if !static_routed {
            self.rb.compact(stable);
        }
    }

    /// A routed engine without membership: its overlay carries every
    /// message, and its reliability layer, built with no peers (see
    /// [`new`](Self::new)), carries none. A membership stack is never
    /// static, even once a crash has left it without peers.
    fn is_static_routed(&self) -> bool {
        D::ROUTED && self.membership.is_none()
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
                    for timed in mem.store.iter().flatten() {
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
            for timed in store.iter().flatten().cloned() {
                if let Some((_, msg)) = rb.relay(&[new], timed) {
                    ctx.send(new, StackWire::Rb(msg));
                }
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
            self.engine.on_replay_into(timed, &mut self.engine_out);
            engine_fresh = self.engine_out.receipts.first().is_some_and(|r| r.1);
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
        let history: &[Vec<Timed<D::Envelope>>] = match &self.membership {
            Some(mem) => &mem.store,
            None => &[],
        };
        self.engine
            .on_link_frame_into(from, frame, history, clock, &mut self.engine_out);
        for (id, fresh) in self.engine_out.receipts.drain(..) {
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
    /// admit it, at start and again at each membership check. Until its
    /// first view installs, the node neither broadcasts nor heartbeats;
    /// once admitted it receives the full message history (log-replay
    /// state transfer) from the existing members and participates
    /// normally.
    ///
    /// Joining is specific to the graph engine: vector-clock engines size
    /// their clocks to a fixed group and cannot represent an outsider.
    pub fn joining(me: ProcessId, contact: ProcessId, app: A, config: VsyncConfig) -> Self {
        let engine = GraphDelivery::for_member(me, 1);
        let suspect_after = config.suspect_after.as_micros();
        Self::assemble(me, app, engine, ReliableBroadcast::with_peers(me, []))
            .with_manager(ViewManager::joining(me, contact, suspect_after))
    }
}

impl<D: DeliveryEngine, A: App<Op = D::Op>> Actor for ProtocolStack<D, A> {
    type Msg = StackWire<D::Envelope>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        if self.membership.is_some() {
            self.arm_ack(ctx);
            // Every member checks for suspects: if the coordinator itself
            // dies, the lowest-ranked live member takes over. A joiner's
            // check asks its contact again until it is admitted.
            let check = self.retransmit_every / CHECKS_PER_RETRANSMIT;
            ctx.set_timer(check, TIMER_FD_CHECK);
            self.membership_input(ctx, ViewManager::start);
            if self.is_joining() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use causal_simnet::{FaultPlan, LatencyModel, NetConfig, Partition, Simulation};

    /// Accumulating integer counter: Add(k) sums, no reaction. Payloads
    /// `1..=9` model commutative increments; anything else is a
    /// synchronization (non-commutative) operation.
    #[derive(Debug, Default)]
    struct Sum {
        value: i64,
        /// How often the stack started the app.
        starts: u32,
    }

    impl App for Sum {
        type Op = i64;
        fn on_start(&mut self, _me: ProcessId, _out: &mut Emitter<i64>) {
            self.starts += 1;
        }
        fn on_deliver(&mut self, env: Delivered<'_, i64>, _out: &mut Emitter<i64>) {
            self.value += *env.payload;
        }
        fn classify(&self, op: &i64) -> OpClass {
            if (1..=9).contains(op) {
                OpClass::Commutative
            } else {
                OpClass::NonCommutative
            }
        }
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Members `0..n` of a group hosting [`Sum`]: static, or with
    /// membership under the default config.
    fn group(n: usize, membership: bool) -> Vec<CausalNode<Sum>> {
        (0..n)
            .map(|i| {
                let me = p(i as u32);
                if membership {
                    CausalNode::with_membership(me, n, Sum::default(), VsyncConfig::default())
                } else {
                    CausalNode::new(me, n, Sum::default())
                }
            })
            .collect()
    }

    #[test]
    fn broadcast_reaches_every_member() {
        let mut sim = Simulation::new(group(3, false), NetConfig::new(), 7);
        sim.poke(p(0), |node, ctx| {
            node.osend(ctx, 5, OccursAfter::none());
        });
        sim.run_to_quiescence();
        for i in 0..3 {
            assert_eq!(sim.node(p(i)).app().value, 5);
            assert_eq!(sim.node(p(i)).log().len(), 1);
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
        impl App for Reactor {
            type Op = i64;
            fn on_deliver(&mut self, env: Delivered<'_, i64>, out: &mut Emitter<i64>) {
                self.log.push(*env.payload);
                if *env.payload == 1 && !self.reacted {
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
        let mut sim = Simulation::new(group(4, false), cfg, 99);
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
        let mut sim = Simulation::new(group(3, false), NetConfig::new(), 3);
        let nc0 = sim
            .poke(p(0), |node, ctx| node.osend(ctx, 100, OccursAfter::none()))
            .unwrap();
        sim.run_to_quiescence();
        let c1 = sim
            .poke(p(1), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::message(nc0))
            })
            .unwrap();
        let c2 = sim
            .poke(p(2), |node, ctx| {
                node.osend(ctx, 2, OccursAfter::message(nc0))
            })
            .unwrap();
        sim.run_to_quiescence();
        sim.poke(p(0), |node, ctx| {
            node.osend(ctx, 0, OccursAfter::all([c1, c2]))
        });
        sim.run_to_quiescence();
        for i in 0..3 {
            let node = sim.node(p(i));
            let points: Vec<MsgId> = node.stable_points().iter().map(|sp| sp.msg).collect();
            assert_eq!(points, vec![nc0, sim.node(p(0)).log()[3]]);
            assert_eq!(node.app().value, 103);
        }
    }

    #[test]
    fn logs_are_linearizations_of_a_common_graph() {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(10, 4000));
        let nodes = group(4, false)
            .into_iter()
            .map(|n| n.with_tracing())
            .collect();
        let mut sim = Simulation::new(nodes, cfg, 17);
        let root = sim
            .poke(p(0), |n, ctx| n.osend(ctx, 1, OccursAfter::none()))
            .unwrap();
        sim.run_to_quiescence();
        for i in 1..4 {
            sim.poke(p(i), |n, ctx| n.osend(ctx, 1, OccursAfter::message(root)));
        }
        sim.run_to_quiescence();
        let graph = sim.node(p(0)).trace().unwrap().graph().unwrap();
        for i in 0..4 {
            let log = sim.node(p(i)).log();
            assert!(graph.is_linearization(log), "member {i}");
            assert_eq!(log.first(), Some(&root));
        }
    }

    /// CBCAST app that just sums — same unified [`App`] trait; the
    /// vector-clock engine hands it `deps: None`.
    #[derive(Debug, Default)]
    struct VtSum {
        value: i64,
    }
    impl App for VtSum {
        type Op = i64;
        fn on_deliver(&mut self, env: Delivered<'_, i64>, _out: &mut Emitter<i64>) {
            assert!(env.deps.is_none(), "cbcast carries no explicit deps");
            self.value += *env.payload;
        }
    }

    /// Member 0 of a two-member group sends `m1` at 1 ms, whose copy to
    /// member 1 is lost, and `m2`, ordered after it, at 1.3 ms. Member 1
    /// holds `m2` back until `m1`'s repair arrives, then delivers both at
    /// once. Checks that each latency sample there is the delivery time
    /// minus the origin's send time, which the engine kept while it
    /// buffered the message.
    fn held_back_message_keeps_its_send_time<D: DeliveryEngine<Op = i64>>(
        nodes: Vec<ProtocolStack<D, Sum>>,
    ) {
        let (t1, t2) = (SimTime::from_micros(1_000), SimTime::from_micros(1_300));
        let cfg = NetConfig::with_latency(LatencyModel::constant_micros(100)).partition(
            Partition::new([p(0)], [p(1)], t1, SimTime::from_micros(1_100)),
        );
        let mut sim = Simulation::new(nodes, cfg, 1);
        sim.run_until(t1);
        let m1 = sim.poke(p(0), |node, ctx| node.osend(ctx, 1, OccursAfter::none()));
        sim.run_until(t2);
        sim.poke(p(0), |node, ctx| {
            node.osend(ctx, 2, OccursAfter::message(m1.expect("sent")))
        });
        sim.run_until(t2 + SimDuration::from_micros(150));
        assert!(sim.node(p(1)).log().is_empty());
        assert_eq!(sim.node(p(1)).pending_len(), 1, "m2 is held back");
        while sim.node(p(1)).log().len() < 2 {
            assert!(sim.step(), "m1 was never repaired");
        }
        let delivered = sim.now();
        let latency = &sim.node(p(1)).stats().delivery_latency;
        assert_eq!(latency.len(), 2);
        assert_eq!(latency.max(), delivered.saturating_since(t1), "m1");
        assert_eq!(latency.min(), delivered.saturating_since(t2), "m2");
    }

    #[test]
    fn graph_engine_keeps_the_send_time_of_a_message_awaiting_its_dependency() {
        held_back_message_keeps_its_send_time(group(2, false));
    }

    #[test]
    fn vector_engine_keeps_the_send_time_of_a_message_awaiting_its_predecessor() {
        let nodes = (0..2).map(|i| CbcastNode::new(p(i), 2, Sum::default()));
        held_back_message_keeps_its_send_time(nodes.collect());
    }

    #[test]
    fn pc_engine_keeps_the_send_time_of_a_frame_parked_in_reassembly() {
        let nodes = (0..2).map(|i| PcNode::new(p(i), 2, Sum::default()));
        held_back_message_keeps_its_send_time(nodes.collect());
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
                let deadline = sim.now() + SimDuration::from_millis(1);
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
            prev = sim.poke(p(0), move |node, ctx| node.osend(ctx, 1, after));
            let deadline = sim.now() + SimDuration::from_millis(2);
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
    fn gc_mode_traces_rebuild_the_common_graph() {
        // Stability GC compacts the engines, never the trace: every member
        // still rebuilds all of R(M) from what it recorded.
        let n = 3;
        let nodes: Vec<CausalNode<Sum>> = (0..n)
            .map(|i| {
                CausalNode::new(p(i as u32), n, Sum::default())
                    .with_gc(n, 3)
                    .with_tracing()
            })
            .collect();
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 2000))
            .faults(FaultPlan::new().with_drop_prob(0.2));
        let mut sim = Simulation::new(nodes, cfg, 11);
        let mut prev: Option<MsgId> = None;
        for k in 0..30u32 {
            // Every other op extends a chain; the rest stay concurrent.
            let after = match prev {
                Some(m) if k % 2 == 1 => OccursAfter::message(m),
                _ => OccursAfter::none(),
            };
            prev = sim.poke(p(k % n as u32), move |node, ctx| node.osend(ctx, 1, after));
            let deadline = sim.now() + SimDuration::from_millis(1);
            sim.run_until(deadline);
        }
        sim.run_to_quiescence();
        assert!(sim.metrics().dropped > 0);
        let reference = sim.node(p(0)).trace().unwrap().graph().unwrap();
        assert_eq!(reference.len(), 30);
        for i in 0..n {
            let node = sim.node(p(i as u32));
            let graph = node.trace().unwrap().graph().unwrap();
            assert_eq!(node.log().len(), 30, "member {i}");
            assert!(node.log().iter().all(|&m| graph.contains(m)), "member {i}");
            assert_eq!(graph, reference, "member {i}");
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
            // The vector-clock engine never closes stable points.
            assert!(sim.node(p(i)).stable_points().is_empty());
        }
    }

    #[test]
    fn steady_state_group_behaves_like_causal_node() {
        let mut sim = Simulation::new(group(3, true), NetConfig::new(), 1);
        for k in 0..12u32 {
            sim.poke(p(k % 3), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
            let deadline = sim.now() + SimDuration::from_millis(1);
            sim.run_until(deadline);
        }
        sim.run_until(SimTime::from_millis(60));
        for i in 0..3 {
            assert_eq!(sim.node(p(i)).app().value, 12);
            assert_eq!(sim.node(p(i)).view(), &GroupView::initial(3));
            assert_eq!(sim.node(p(i)).view().id(), ViewId::initial());
        }
    }

    #[test]
    fn crashed_member_is_removed_and_survivors_continue() {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 900));
        let mut sim = Simulation::new(group(4, true), cfg, 7);
        // Updates flow; p3 crashes mid-stream.
        for k in 0..10u32 {
            sim.poke(p(k % 4), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
            let deadline = sim.now() + SimDuration::from_millis(1);
            sim.run_until(deadline);
        }
        sim.node_mut(p(3)).crash();
        sim.run_until(SimTime::from_millis(40));

        let expected_view = GroupView::initial(4).without(p(3));
        for i in 0..3 {
            assert_eq!(sim.node(p(i)).view(), &expected_view, "member {i}");
        }

        // Survivors keep working in the new view.
        for k in 0..6u32 {
            sim.poke(p(k % 3), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
            let deadline = sim.now() + SimDuration::from_millis(1);
            sim.run_until(deadline);
        }
        sim.run_until(SimTime::from_millis(80));
        let values: Vec<i64> = (0..3).map(|i| sim.node(p(i)).app().value).collect();
        assert!(values.windows(2).all(|w| w[0] == w[1]), "{values:?}");
        assert_eq!(values[0], 16);
        for i in 0..3 {
            assert_eq!(sim.node(p(i)).pending_len(), 0);
        }
    }

    #[test]
    fn flush_spreads_messages_only_some_survivors_saw() {
        // p3 broadcasts right before crashing, while partitioned from p2:
        // only p0/p1 receive the message directly. Virtual synchrony
        // requires it to reach p2 before the new view is installed.
        let cfg =
            NetConfig::with_latency(LatencyModel::constant_micros(300)).partition(Partition::new(
                [p(3)],
                [p(2)],
                SimTime::ZERO,
                SimTime::from_millis(200), // never heals within the test
            ));
        let mut sim = Simulation::new(group(4, true), cfg, 3);
        sim.run_until(SimTime::from_millis(2));
        sim.poke(p(3), |node, ctx| {
            node.osend(ctx, 5, OccursAfter::none());
        });
        // Let the direct copies (to p0, p1) land, then crash p3 so its
        // own retransmissions to p2 never succeed.
        sim.run_until(SimTime::from_millis(3));
        sim.node_mut(p(3)).crash();
        sim.run_until(SimTime::from_millis(60));

        let expected_view = GroupView::initial(4).without(p(3));
        for i in 0..3 {
            assert_eq!(sim.node(p(i)).view(), &expected_view, "member {i}");
            assert_eq!(
                sim.node(p(i)).app().value,
                5,
                "member {i} must have received the flushed message"
            );
        }
    }

    #[test]
    fn joiner_is_admitted_and_receives_full_history() {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 900));
        // Three members plus one outsider (p3) that joins via p1.
        let mut nodes = group(3, true);
        nodes.push(CausalNode::joining(
            p(3),
            p(1),
            Sum::default(),
            VsyncConfig::default(),
        ));
        let mut sim = Simulation::new(nodes, cfg, 11);
        // History accumulates before the join completes.
        for k in 0..6u32 {
            sim.poke(p(k % 3), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
        }
        sim.run_until(SimTime::from_millis(40));

        let expected_view = GroupView::initial(3).with(p(3));
        for i in 0..4 {
            assert_eq!(sim.node(p(i)).view(), &expected_view, "member {i}");
        }
        assert!(!sim.node(p(3)).is_joining());
        // The joiner received the full replayed history.
        assert_eq!(sim.node(p(3)).app().value, 6);

        // And participates in new traffic both ways.
        sim.poke(p(3), |node, ctx| {
            node.osend(ctx, 1, OccursAfter::none());
        });
        sim.poke(p(0), |node, ctx| {
            node.osend(ctx, 1, OccursAfter::none());
        });
        sim.run_until(SimTime::from_millis(80));
        for i in 0..4 {
            assert_eq!(sim.node(p(i)).app().value, 8, "member {i}");
            assert_eq!(sim.node(p(i)).pending_len(), 0);
        }
    }

    #[test]
    fn join_survives_message_loss() {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 900))
            .faults(FaultPlan::new().with_drop_prob(0.25));
        let mut nodes = group(3, true);
        nodes.push(CausalNode::joining(
            p(3),
            p(0),
            Sum::default(),
            VsyncConfig::default(),
        ));
        let mut sim = Simulation::new(nodes, cfg, 23);
        for k in 0..5u32 {
            sim.poke(p(k % 3), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
        }
        sim.run_until(SimTime::from_millis(120));
        assert!(!sim.node(p(3)).is_joining());
        for i in 0..4 {
            assert_eq!(sim.node(p(i)).app().value, 5, "member {i}");
            assert_eq!(sim.node(p(i)).view().len(), 4);
        }
    }

    #[test]
    fn sends_park_during_flush_and_drain_after() {
        let cfg = NetConfig::with_latency(LatencyModel::constant_micros(200));
        let mut sim = Simulation::new(group(3, true), cfg, 5);
        sim.node_mut(p(2)).crash();
        // Wait until the coordinator starts flushing, then submit.
        let mut submitted = false;
        for _ in 0..200 {
            let deadline = sim.now() + SimDuration::from_micros(500);
            sim.run_until(deadline);
            if sim.node(p(0)).is_flushing() && !submitted {
                submitted = true;
                let parked = sim.poke(p(0), |node, ctx| node.osend(ctx, 7, OccursAfter::none()));
                assert!(parked.is_none(), "send must park during flush");
            }
            if sim.node(p(0)).view().len() == 2 {
                break;
            }
        }
        assert!(submitted, "never observed the flushing window");
        sim.run_until(sim.now() + SimDuration::from_millis(20));
        for i in 0..2 {
            assert_eq!(sim.node(p(i)).app().value, 7, "member {i}");
        }
    }

    #[test]
    fn joiner_cut_off_from_its_contact_asks_again_at_each_check() {
        // A partition cuts the joiner off from its contact for its first
        // three check periods: the request at start and the two check
        // ticks' retries are lost, the one at the heal gets through.
        let check = MEMBERSHIP_RETRANSMIT / CHECKS_PER_RETRANSMIT;
        let heals = SimTime::ZERO + check * 3;
        let cfg = NetConfig::with_latency(LatencyModel::constant_micros(300))
            .partition(Partition::new([p(3)], [p(1)], SimTime::ZERO, heals));
        let mut nodes = group(3, true);
        nodes.push(CausalNode::joining(
            p(3),
            p(1),
            Sum::default(),
            VsyncConfig::default(),
        ));
        let mut sim = Simulation::new(nodes, cfg, 2);
        sim.poke(p(0), |node, ctx| node.osend(ctx, 1, OccursAfter::none()));
        sim.run_until(heals);
        assert!(sim.node(p(3)).is_joining(), "admitted before the heal");
        assert_eq!(sim.metrics().dropped, 3, "one lost request per check");
        assert_eq!(sim.node(p(3)).app().starts, 0);

        sim.run_until(heals + check * 2);
        assert!(!sim.node(p(3)).is_joining(), "not admitted after the heal");
        let expected_view = GroupView::initial(3).with(p(3));
        for i in 0..4 {
            assert_eq!(sim.node(p(i)).view(), &expected_view, "member {i}");
            assert_eq!(sim.node(p(i)).app().value, 1, "member {i}");
            assert_eq!(sim.node(p(i)).app().starts, 1, "member {i}");
        }
    }

    /// The store of `node`, after checking that every segment still has
    /// the capacity it was allocated at (a reallocation would have
    /// changed it) and that every segment but the last is full.
    fn store_segments<D: DeliveryEngine<Op = i64>>(
        node: &ProtocolStack<D, Sum>,
    ) -> &[Vec<Timed<D::Envelope>>] {
        let store = &node.membership.as_ref().expect("membership").store;
        for (k, segment) in store.iter().enumerate() {
            assert_eq!(segment.capacity(), STORE_SEGMENT, "segment {k} reallocated");
            let last = k + 1 == store.len();
            assert!(
                last || segment.len() == STORE_SEGMENT,
                "segment {k} not full"
            );
        }
        store
    }

    #[test]
    fn store_segments_are_allocated_once_and_never_grow() {
        let mut mem = MembershipState::<PcEngine<i64>> {
            manager: ViewManager::new(p(0), GroupView::initial(1), 1),
            store: Vec::new(),
            outbox: VecDeque::new(),
        };
        let total = 2 * STORE_SEGMENT as u64 + 100;
        let mut first = None;
        for seq in 1..=total {
            let env = crate::delivery::PcEnvelope {
                id: MsgId::new(p(0), seq),
                payload: 0,
            };
            mem.store_delivered(Timed {
                env,
                sent_at: SimTime::ZERO,
            });
            let head = mem.store[0].as_ptr();
            assert_eq!(*first.get_or_insert(head), head, "the first segment moved");
        }
        assert_eq!(mem.store.len(), 3);
        for segment in &mem.store {
            assert_eq!(segment.capacity(), STORE_SEGMENT);
        }
        let seqs: Vec<u64> = mem.store.iter().flatten().map(|t| t.env.id.seq()).collect();
        assert_eq!(seqs, (1..=total).collect::<Vec<_>>());
    }

    #[test]
    fn crash_flush_relays_a_removed_members_messages_across_a_segment_boundary() {
        // The group delivers all but six slots of a store segment. Then
        // p3, cut off from p2, broadcasts a burst of twelve that only p0
        // and p1 receive, and crashes: the burst straddles the end of
        // their stores' first segment, and the flush must relay all of it
        // to p2.
        let filled = STORE_SEGMENT as u64 - 6;
        let cut = SimTime::from_millis(120);
        let cfg = NetConfig::with_latency(LatencyModel::constant_micros(300)).partition(
            Partition::new([p(3)], [p(2)], cut, SimTime::from_millis(1_000)),
        );
        let mut sim = Simulation::new(group(4, true), cfg, 3);
        for k in 0..filled {
            sim.poke(p((k % 4) as u32), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
            sim.run_until(sim.now() + SimDuration::from_micros(20));
        }
        sim.run_until(cut);
        for i in 0..4 {
            assert_eq!(sim.node(p(i)).log().len() as u64, filled, "member {i}");
        }
        let burst: Vec<MsgId> = (0..12)
            .map(|_| sim.poke(p(3), |node, ctx| node.osend(ctx, 1, OccursAfter::none())))
            .map(|id| id.expect("sent"))
            .collect();
        sim.run_until(cut + SimDuration::from_millis(1));
        sim.node_mut(p(3)).crash();
        sim.run_until(cut + SimDuration::from_millis(60));

        for i in 0..2 {
            let store = store_segments(sim.node(p(i)));
            let in_burst = |k: usize| {
                let segment = store[k].iter();
                segment.filter(|t| burst.contains(&t.msg_id())).count()
            };
            assert_eq!(store.len(), 2, "member {i}");
            assert_eq!((in_burst(0), in_burst(1)), (6, 6), "member {i}");
        }
        let expected_view = GroupView::initial(4).without(p(3));
        for i in 0..3 {
            assert_eq!(sim.node(p(i)).view(), &expected_view, "member {i}");
            assert_eq!(sim.node(p(i)).app().value, filled as i64 + 12, "member {i}");
        }
    }

    #[test]
    fn joiner_admitted_after_more_than_a_segment_of_history_reaches_the_incumbents_value() {
        // A partition keeps the joiner from its contact while the group
        // delivers more than a store segment; once it heals, the joiner
        // is admitted and replayed the whole store.
        let history = STORE_SEGMENT as u64 + 500;
        let heals = SimTime::from_millis(150);
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 900))
            .partition(Partition::new([p(3)], [p(1)], SimTime::ZERO, heals));
        let mut nodes = group(3, true);
        nodes.push(CausalNode::joining(
            p(3),
            p(1),
            Sum::default(),
            VsyncConfig::default(),
        ));
        let mut sim = Simulation::new(nodes, cfg, 11);
        for k in 0..history {
            sim.poke(p((k % 3) as u32), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
            sim.run_until(sim.now() + SimDuration::from_micros(20));
        }
        sim.run_until(heals);
        assert!(sim.node(p(3)).is_joining(), "admitted before the heal");
        assert_eq!(store_segments(sim.node(p(0))).len(), 2);

        sim.run_until(heals + SimDuration::from_millis(40));
        assert!(!sim.node(p(3)).is_joining(), "not admitted after the heal");
        for i in 0..4 {
            assert_eq!(sim.node(p(i)).app().value, history as i64, "member {i}");
            assert_eq!(sim.node(p(i)).pending_len(), 0, "member {i}");
        }
        assert_eq!(store_segments(sim.node(p(3))).len(), 2);
    }
}
