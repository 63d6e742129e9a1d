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
//!    view-synchronous           (causal_membership, optional:
//!    membership                  heartbeats, flush, install)
//!   ───────────────────────
//!    reliable broadcast         (rbcast::ReliableBroadcast — ack/rtx)
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

use crate::delivery::pcbcast::LinkFrame;
use crate::delivery::{
    CbcastEngine, Delivered, DeliveryEngine, GraphDelivery, PcEngine, VtEnvelope,
};
use crate::osend::{GraphEnvelope, OccursAfter};
use crate::rbcast::{HasMsgId, RbMsg, ReliableBroadcast};
use crate::stability::{ReportTo, StabilityTracker};
use crate::stable::{StablePoint, StablePointDetector};
use crate::statemachine::OpClass;
use crate::trace::{MemberTrace, TraceEvent};
use causal_clocks::{IdWindow, MsgId, ProcessId, VectorClock};
use causal_membership::{
    FlushStatus, GroupView, HeartbeatDetector, ManagerAction, ViewId, ViewManager,
};
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

/// Default retransmission period for the reliability layer.
pub const DEFAULT_RETRANSMIT: SimDuration = SimDuration::from_millis(5);

const TIMER_RETRANSMIT: u64 = 1;
const TIMER_HEARTBEAT: u64 = 10;
const TIMER_FD_CHECK: u64 = 11;
const TIMER_JOIN_RETRY: u64 = 13;

/// Timing configuration of the membership machinery.
///
/// The defaults suit the discrete-event simulator's microsecond latencies.
/// Real transports (TCP) should scale everything up — see
/// `tests/tcp_vsync.rs` for a wall-clock-friendly configuration.
#[derive(Debug, Clone, Copy)]
pub struct VsyncConfig {
    /// Heartbeat period.
    pub heartbeat_every: SimDuration,
    /// Silence threshold after which a member is suspected.
    pub suspect_after: SimDuration,
    /// Coordinator's failure-detector polling period.
    pub check_every: SimDuration,
    /// Reliability-layer retransmission period.
    pub retransmit_every: SimDuration,
}

impl Default for VsyncConfig {
    fn default() -> Self {
        VsyncConfig {
            heartbeat_every: SimDuration::from_millis(1),
            suspect_after: SimDuration::from_millis(6),
            check_every: SimDuration::from_millis(2),
            retransmit_every: SimDuration::from_millis(4),
        }
    }
}

/// The membership side-state of a stack with view synchrony enabled.
struct MembershipState<D: DeliveryEngine> {
    manager: ViewManager,
    fd: HeartbeatDetector,
    config: VsyncConfig,
    /// Envelopes delivered, retained for flush re-broadcast and joiner
    /// replay.
    store: Vec<Timed<D::Envelope>>,
    /// Sends requested while a view change was flushing.
    outbox: VecDeque<(D::Op, OccursAfter)>,
    installed_views: Vec<GroupView>,
    /// `Some(contact)` while this node is outside the group trying to join.
    joining_via: Option<ProcessId>,
}

impl<D: DeliveryEngine> MembershipState<D> {
    fn new(me: ProcessId, view: GroupView, config: VsyncConfig) -> Self {
        MembershipState {
            manager: ViewManager::new(me, view),
            fd: HeartbeatDetector::new(config.suspect_after.as_micros()),
            config,
            store: Vec::new(),
            outbox: VecDeque::new(),
            installed_views: Vec::new(),
            joining_via: None,
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
    /// Send time per message still on record; GC raises its floors.
    sent_times: IdWindow<SimTime>,
    last_sent: Option<MsgId>,
    stats: NodeStats,
    stability: Option<StabilityTracker>,
    report_every: u64,
    deliveries_since_report: u64,
    membership: Option<MembershipState<D>>,
    tracer: Option<MemberTrace>,
    crashed: bool,
}

impl<D: DeliveryEngine, A: App<Op = D::Op>> fmt::Debug for ProtocolStack<D, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolStack")
            .field("me", &self.me)
            .field("delivered", &self.engine.log().len())
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
        ProtocolStack {
            me,
            app,
            engine: D::for_member(me, n),
            detector: StablePointDetector::new(),
            // Routed engines disseminate over their own overlay; in a
            // static group the full-mesh reliability layer would only
            // retain O(n) peer state per node for traffic that never
            // flows. Membership re-enables it (see `with_membership`) for
            // the flush/replay side-channel.
            rb: if D::ROUTED {
                ReliableBroadcast::with_peers(me, [])
            } else {
                ReliableBroadcast::new(me, n)
            },
            retransmit_every: DEFAULT_RETRANSMIT,
            rtx_armed: false,
            sent_times: IdWindow::new(),
            last_sent: None,
            stats: NodeStats::default(),
            stability: None,
            report_every: 0,
            deliveries_since_report: 0,
            membership: None,
            tracer: None,
            crashed: false,
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
        let mut node = Self::new(me, n, app);
        // Membership's flush re-broadcast and joiner replay run over the
        // reliability layer even under routed engines, so those stacks
        // need the full peer set after all.
        node.rb = ReliableBroadcast::new(me, n);
        node.retransmit_every = config.retransmit_every;
        node.membership = Some(MembershipState::new(me, GroupView::initial(n), config));
        node
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
    /// This is stability GC only: it changes nothing the stack records. The
    /// per-node delivery record is the opt-in [`MemberTrace`]
    /// ([`with_tracing`](Self::with_tracing)), which a long-running
    /// deployment simply leaves off.
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
    /// any runtime. The trace is the stack's one per-node delivery record:
    /// dependency sets, stable-point snapshots and the rebuilt `R(M)`
    /// ([`MemberTrace::graph`]) are read from it.
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

    /// The member's delivery log.
    pub fn log(&self) -> &[MsgId] {
        self.engine.log()
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
            .is_some_and(|m| m.manager.status() == FlushStatus::Flushing)
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

    /// Views installed after the initial one (empty without membership).
    pub fn installed_views(&self) -> &[GroupView] {
        self.membership
            .as_ref()
            .map_or(&[], |m| m.installed_views.as_slice())
    }

    /// `true` while this node is still outside the group awaiting its
    /// first installed view.
    pub fn is_joining(&self) -> bool {
        self.membership
            .as_ref()
            .is_some_and(|m| m.joining_via.is_some())
    }

    /// Silences this member from now on (test control: models a crash).
    pub fn crash(&mut self) {
        self.crashed = true;
        if let Some(t) = &mut self.tracer {
            t.record(TraceEvent::Crashed);
        }
    }

    /// `true` if this member has been crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
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
        let released = self.transmit(ctx, op, after);
        let id = self.last_sent;
        self.process_released(ctx, released);
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

    fn transmit(
        &mut self,
        ctx: &mut Context<'_, StackWire<D::Envelope>>,
        op: D::Op,
        after: OccursAfter,
    ) -> Vec<D::Envelope> {
        let (env, released) = self.engine.send(op, after);
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
        released
    }

    fn arm_retransmit(&mut self, ctx: &mut Context<'_, StackWire<D::Envelope>>) {
        if !self.rtx_armed && (self.rb.has_pending() || self.engine.link_has_pending()) {
            ctx.set_timer(self.retransmit_every, TIMER_RETRANSMIT);
            self.rtx_armed = true;
        }
    }

    fn process_released(
        &mut self,
        ctx: &mut Context<'_, StackWire<D::Envelope>>,
        released: Vec<D::Envelope>,
    ) {
        let mut queue: VecDeque<D::Envelope> = released.into();
        while let Some(env) = queue.pop_front() {
            let id = env.msg_id();
            let sent_at = self.sent_times.get(id).copied();
            if let Some(sent_at) = sent_at {
                self.stats
                    .delivery_latency
                    .record(ctx.now().saturating_since(sent_at));
            }
            if let Some(mem) = self.membership.as_mut() {
                // Retained for flush re-broadcast and joiner replay.
                mem.store.push(Timed {
                    env: env.clone(),
                    sent_at: sent_at.unwrap_or_else(|| ctx.now()),
                });
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
            let mut out = Emitter::new();
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
            for (op, after) in out.drain() {
                if self.is_flushing() {
                    let mem = self
                        .membership
                        .as_mut()
                        .expect("flushing implies membership");
                    mem.outbox.push_back((op, after));
                } else {
                    queue.extend(self.transmit(ctx, op, after));
                }
            }
        }
        self.maybe_report_and_compact(ctx);
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

    fn perform(
        &mut self,
        ctx: &mut Context<'_, StackWire<D::Envelope>>,
        actions: Vec<ManagerAction>,
    ) {
        for action in actions {
            match action {
                ManagerAction::BeginFlush { view } => {
                    // Virtual-synchrony flush: push the messages we have
                    // delivered from members being removed out to every
                    // survivor (duplicates are absorbed), so nobody misses
                    // a message only some survivors saw.
                    let me = self.me;
                    let mem = self.membership.as_ref().expect("membership enabled");
                    let removed: Vec<ProcessId> = mem
                        .manager
                        .current()
                        .members()
                        .iter()
                        .copied()
                        .filter(|m| !view.contains(*m))
                        .collect();
                    let survivors: Vec<ProcessId> = view
                        .members()
                        .iter()
                        .copied()
                        .filter(|&m| m != me)
                        .collect();
                    for timed in &mem.store {
                        if removed.contains(&timed.msg_id().origin()) {
                            ctx.multicast(
                                survivors.clone(),
                                StackWire::Rb(RbMsg::Data(timed.clone())),
                            );
                        }
                    }
                    let done = self
                        .membership
                        .as_mut()
                        .expect("membership enabled")
                        .manager
                        .flush_complete();
                    self.perform(ctx, done);
                }
                ManagerAction::SendPropose { to, view } => {
                    for m in to {
                        ctx.send(m, StackWire::Propose(view.clone()));
                    }
                }
                ManagerAction::SendFlushAck { to, view_id } => {
                    ctx.send(to, StackWire::FlushAck(view_id));
                }
                ManagerAction::SendInstall { to, view } => {
                    for m in to {
                        ctx.send(m, StackWire::Install(view.clone()));
                    }
                }
                ManagerAction::Installed(view) => self.on_installed(ctx, view),
            }
        }
    }

    fn on_installed(&mut self, ctx: &mut Context<'_, StackWire<D::Envelope>>, view: GroupView) {
        {
            let mem = self.membership.as_mut().expect("membership enabled");
            let rb = &mut self.rb;
            // Stop waiting for acknowledgements from removed members, and
            // take them out of the stable minimum: their last reports
            // would otherwise hold it down for good.
            let removed: Vec<ProcessId> = rb.peers().filter(|p| !view.contains(*p)).collect();
            for dead in removed {
                rb.remove_peer(dead);
                mem.fd.forget(dead);
                if let Some(stability) = &mut self.stability {
                    stability.remove_member(dead);
                }
            }
            // Admit new members: target future broadcasts at them, extend
            // the in-flight unacknowledged sets, and replay the delivered
            // history (log-replay state transfer; their dedupe absorbs
            // overlap with the in-flight retransmissions).
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
                for (to, msg) in rb.replay_to(new, mem.store.iter().cloned()) {
                    ctx.send(to, StackWire::Rb(msg));
                }
                if !self.rtx_armed && rb.has_pending() {
                    ctx.set_timer(self.retransmit_every, TIMER_RETRANSMIT);
                    self.rtx_armed = true;
                }
                mem.fd.observe(new, ctx.now().as_micros());
            }
            // A joiner installing its first group view is now a member.
            if mem.joining_via.take().is_some() {
                for m in view.members().to_vec() {
                    if m != self.me {
                        rb.add_peer(m);
                        mem.fd.observe(m, ctx.now().as_micros());
                    }
                }
            }
            if let Some(t) = &mut self.tracer {
                t.record(TraceEvent::ViewInstalled { view: view.clone() });
            }
            mem.installed_views.push(view);
        }
        // Routed engines reconcile their overlay with the new member set:
        // removed members' links drop, fresh links open quarantined and
        // start their ping/pong handshake here.
        {
            let members = self
                .membership
                .as_ref()
                .expect("membership enabled")
                .installed_views
                .last()
                .expect("a view was just installed")
                .members()
                .to_vec();
            for (to, frame) in self.engine.on_members(&members) {
                ctx.send(to, StackWire::Link(frame));
            }
            self.arm_retransmit(ctx);
        }
        // The flush barrier lifts: drain parked sends.
        loop {
            let next = self
                .membership
                .as_mut()
                .expect("membership enabled")
                .outbox
                .pop_front();
            let Some((op, after)) = next else { break };
            let released = self.transmit(ctx, op, after);
            self.process_released(ctx, released);
        }
        // Tell the application; operations it emits in response go out in
        // the new view, behind the drained parked sends.
        let installed = self
            .membership
            .as_ref()
            .expect("membership enabled")
            .installed_views
            .last()
            .expect("a view was just installed")
            .clone();
        let mut out = Emitter::new();
        self.app.on_view(&installed, &mut out);
        for (op, after) in out.drain() {
            let released = self.transmit(ctx, op, after);
            self.process_released(ctx, released);
        }
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
        let mut mem = MembershipState::new(me, GroupView::new(ViewId::initial(), [me]), config);
        mem.joining_via = Some(contact);
        ProtocolStack {
            me,
            app,
            engine: GraphDelivery::for_member(me, 1),
            detector: StablePointDetector::new(),
            rb: ReliableBroadcast::with_peers(me, []),
            retransmit_every: config.retransmit_every,
            rtx_armed: false,
            sent_times: IdWindow::new(),
            last_sent: None,
            stats: NodeStats::default(),
            stability: None,
            report_every: 0,
            deliveries_since_report: 0,
            membership: Some(mem),
            tracer: None,
            crashed: false,
        }
    }
}

impl<D: DeliveryEngine, A: App<Op = D::Op>> Actor for ProtocolStack<D, A> {
    type Msg = StackWire<D::Envelope>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        if let Some(mem) = self.membership.as_mut() {
            ctx.set_timer(mem.config.heartbeat_every, TIMER_HEARTBEAT);
            // Every member polls its failure detector: if the coordinator
            // itself dies, the lowest-ranked live member takes over.
            ctx.set_timer(mem.config.check_every, TIMER_FD_CHECK);
            if let Some(contact) = mem.joining_via {
                ctx.send(contact, StackWire::JoinReq { joiner: self.me });
                ctx.set_timer(mem.config.check_every, TIMER_JOIN_RETRY);
                return; // apps start only once the node is a member
            }
            // Treat everyone as alive at start.
            let now = ctx.now().as_micros();
            let members = mem.manager.current().members().to_vec();
            for m in members {
                if m != self.me {
                    mem.fd.observe(m, now);
                }
            }
        }
        let mut out = Emitter::new();
        self.app.on_start(self.me, &mut out);
        let mut released = Vec::new();
        for (op, after) in out.drain() {
            released.extend(self.transmit(ctx, op, after));
        }
        self.process_released(ctx, released);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ProcessId, msg: Self::Msg) {
        if self.crashed {
            return;
        }
        if let Some(mem) = self.membership.as_mut() {
            mem.fd.observe(from, ctx.now().as_micros());
        }
        match msg {
            StackWire::Rb(RbMsg::Data(timed)) => {
                let rid = timed.msg_id();
                let (fresh, acks) = self.rb.on_data(from, timed);
                for (to, ack) in acks {
                    ctx.send(to, StackWire::Rb(ack));
                }
                // The engine may have already seen the message through its
                // own overlay links (routed engines overlap with the
                // membership flush/replay side-channel), so freshness is
                // the *engine's* verdict, not the reliability layer's.
                let mut engine_fresh = false;
                let mut released = Vec::new();
                if let Some(timed) = fresh {
                    self.sent_times
                        .get_or_insert_with(timed.msg_id(), || timed.sent_at);
                    let out = self.engine.on_replay(timed);
                    engine_fresh = out.receipts.first().is_some_and(|r| r.2);
                    for (to, frame) in out.sends {
                        ctx.send(to, StackWire::Link(frame));
                    }
                    self.arm_retransmit(ctx);
                    released = out.released;
                }
                if let Some(t) = &mut self.tracer {
                    t.record(TraceEvent::Receive {
                        id: rid,
                        fresh: engine_fresh,
                    });
                }
                self.process_released(ctx, released);
            }
            StackWire::Rb(RbMsg::Ack(id)) => self.rb.on_ack(from, id),
            StackWire::StabilityReport(report) => {
                if let Some(stability) = &mut self.stability {
                    stability.on_report(from, &report);
                    self.send_reports(ctx);
                    self.compact_now();
                }
            }
            StackWire::Heartbeat => {}
            StackWire::Propose(view) => {
                let Some(mem) = self.membership.as_mut() else {
                    return;
                };
                let actions = mem.manager.on_propose(from, view);
                self.perform(ctx, actions);
            }
            StackWire::FlushAck(view_id) => {
                let Some(mem) = self.membership.as_mut() else {
                    return;
                };
                if mem.manager.pending().is_none() && mem.manager.current().id() == view_id {
                    // The member missed our Install (lost message) and is
                    // re-acking: resend it.
                    let view = mem.manager.current().clone();
                    ctx.send(from, StackWire::Install(view));
                } else {
                    let actions = mem.manager.on_flush_ack(from, view_id);
                    self.perform(ctx, actions);
                }
            }
            StackWire::Install(view) => {
                let Some(mem) = self.membership.as_mut() else {
                    return;
                };
                let actions = mem.manager.on_install(view);
                self.perform(ctx, actions);
            }
            StackWire::JoinReq { joiner } => {
                let Some(mem) = self.membership.as_mut() else {
                    return;
                };
                if mem.manager.current().contains(joiner) {
                    // Already admitted: the joiner missed the Install
                    // (lost message) — resend it.
                    let view = mem.manager.current().clone();
                    ctx.send(joiner, StackWire::Install(view));
                } else if !mem.manager.is_coordinator() {
                    // Relay to the coordinator, which runs the change.
                    let coordinator = mem.manager.current().coordinator();
                    ctx.send(coordinator, StackWire::JoinReq { joiner });
                } else if mem.manager.pending().is_none() {
                    let next = mem.manager.current().with(joiner);
                    if let Ok(actions) = mem.manager.propose(next) {
                        self.perform(ctx, actions);
                    }
                    // Busy with another change: the joiner's retry covers it.
                }
            }
            StackWire::Link(frame) => {
                let history: &[Timed<D::Envelope>] = match &self.membership {
                    Some(mem) => mem.store.as_slice(),
                    None => &[],
                };
                let out = self.engine.on_link_frame(from, frame, history);
                for (id, sent_at, fresh) in out.receipts {
                    if fresh {
                        self.sent_times.get_or_insert_with(id, || sent_at);
                    }
                    if let Some(t) = &mut self.tracer {
                        t.record(TraceEvent::Receive { id, fresh });
                    }
                }
                for (to, f) in out.sends {
                    ctx.send(to, StackWire::Link(f));
                }
                self.arm_retransmit(ctx);
                self.process_released(ctx, out.released);
            }
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
                for (to, frame) in self.engine.link_retransmissions() {
                    ctx.send(to, StackWire::Link(frame));
                }
                self.arm_retransmit(ctx);
            }
            TIMER_HEARTBEAT => {
                let Some(mem) = self.membership.as_ref() else {
                    return;
                };
                for m in mem.manager.current().members().to_vec() {
                    if m != self.me {
                        ctx.send(m, StackWire::Heartbeat);
                    }
                }
                ctx.set_timer(mem.config.heartbeat_every, TIMER_HEARTBEAT);
            }
            TIMER_FD_CHECK => {
                let Some(mem) = self.membership.as_mut() else {
                    return;
                };
                let check_every = mem.config.check_every;
                let mut to_perform = Vec::new();
                if let Some(pending) = mem.manager.pending().cloned() {
                    // A change is in flight: retry lost membership
                    // messages (they have no reliability layer).
                    if mem.manager.pending_proposer() == Some(self.me) {
                        for m in pending.members().to_vec() {
                            if m != self.me && mem.manager.current().contains(m) {
                                ctx.send(m, StackWire::Propose(pending.clone()));
                            }
                        }
                    } else {
                        to_perform = mem.manager.flush_complete();
                    }
                } else {
                    let suspects = mem.fd.suspects(ctx.now().as_micros());
                    let in_view: Vec<ProcessId> = suspects
                        .into_iter()
                        .filter(|&s| mem.manager.current().contains(s))
                        .collect();
                    if let Some(&dead) = in_view.first() {
                        // The lowest-ranked *live* member proposes —
                        // coordinator takeover when the coordinator died.
                        let next = mem.manager.current().without(dead);
                        if let Ok(actions) = mem.manager.propose_takeover(next, &in_view) {
                            to_perform = actions;
                        }
                    }
                }
                self.perform(ctx, to_perform);
                ctx.set_timer(check_every, TIMER_FD_CHECK);
            }
            TIMER_JOIN_RETRY => {
                let Some(mem) = self.membership.as_ref() else {
                    return;
                };
                if let Some(contact) = mem.joining_via {
                    ctx.send(contact, StackWire::JoinReq { joiner: self.me });
                    ctx.set_timer(mem.config.check_every, TIMER_JOIN_RETRY);
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
