//! Delivery engines: ordering message streams before the application sees
//! them.
//!
//! Two causal engines realize the paper's §3.2 observation interfaces:
//!
//! - [`GraphDelivery`]: **explicit-graph** (Psync-style) delivery — a
//!   message waits exactly for its declared `Occurs-After` predecessors.
//!   This carries the application's *semantic* ordering.
//! - [`CbcastEngine`]: **vector-clock** (ISIS CBCAST-style) delivery — a
//!   message waits for everything its sender had delivered before sending
//!   (*potential* causality), which may include incidental dependencies the
//!   application never asked for.
//!
//! A third causal engine scales past both: [`PcEngine`] (PC-broadcast,
//! Nédelec et al.) derives causal order from FIFO dissemination over a
//! spanning overlay and carries **constant-size** per-message metadata —
//! see [`mod@pcbcast`]. It is *routed* ([`DeliveryEngine::ROUTED`]): it
//! disseminates over its own overlay links instead of full-mesh
//! reliable broadcast, through the `LinkFrame` hooks below.
//!
//! The weaker baseline needs no engine at all: `causal_replica`'s
//! `WeakOrderNode` applies each operation on receipt.
//!
//! The [`mod@reference`] module keeps the seed (pre-indexing) algorithms
//! of both causal engines as differential oracles; protocol code should
//! never use them.
//!
//! An engine only orders. The record of what a member delivered is the
//! stack's: [`ProtocolStack::log`](crate::stack::ProtocolStack::log).

mod graph_engine;
pub mod pcbcast;
pub mod reference;
mod vector_engine;

pub use graph_engine::GraphDelivery;
pub use pcbcast::{PcEngine, PcEnvelope};
pub use vector_engine::{CbcastEngine, VtEnvelope};

use crate::osend::OccursAfter;
use crate::rbcast::HasMsgId;
use crate::stack::Timed;
use causal_clocks::{MsgId, ProcessId, VectorClock};
use causal_simnet::SimTime;
use pcbcast::link::{LinkClock, LinkFrame};
use pcbcast::overlay::TreePosition;

/// Engine-agnostic view of one delivered message, handed to the unified
/// [`App`](crate::stack::App) trait.
///
/// The explicit-graph engines expose the declared `Occurs-After` set in
/// `deps`; the vector-clock engines order by *potential* causality and
/// carry no per-message dependency set, so `deps` is `None` (which also
/// disables stable-point detection, exactly as the paper's §4 detection
/// rule requires the explicit relation).
#[derive(Debug, Clone, Copy)]
pub struct Delivered<'a, Op> {
    /// Unique message identity (origin + per-origin sequence).
    pub id: MsgId,
    /// Declared direct causal predecessors, if the engine tracks them.
    pub deps: Option<&'a [MsgId]>,
    /// The application payload.
    pub payload: &'a Op,
}

impl<'a, Op> Delivered<'a, Op> {
    /// Views a graph envelope as a delivered message: the graph engines'
    /// [`view`](DeliveryEngine::view), and handy when feeding apps by hand
    /// in tests without running an engine.
    pub fn from_graph(env: &'a crate::osend::GraphEnvelope<Op>) -> Self {
        Delivered {
            id: env.id,
            deps: Some(&env.deps),
            payload: &env.payload,
        }
    }
}

/// A destination-addressed overlay link frame a routed engine wants
/// transmitted.
pub type LinkSend<E> = (ProcessId, LinkFrame<Timed<E>>);

/// What a routed engine produced from one inbound frame (or one replayed
/// envelope): receipt records for tracing, envelopes released to the
/// application, and frames to transmit (forwards, acks, handshakes).
///
/// `R` is what one release carries: the envelope alone, as the untimed
/// [`on_link_frame`](DeliveryEngine::on_link_frame) returns it, or the
/// envelope with its origin's send time ([`TimedDelivery`]), as the
/// stack's path takes it.
#[derive(Debug)]
pub struct LinkDelivery<E, R = E> {
    /// `(id, fresh)` per data message processed, in link order. `fresh`
    /// is `false` for duplicates the engine absorbed.
    pub receipts: Vec<(MsgId, bool)>,
    /// Releases to the application, in delivery order.
    pub released: Vec<R>,
    /// Frames to transmit.
    pub sends: Vec<LinkSend<E>>,
}

/// A [`LinkDelivery`] whose releases carry their origin's send time: what
/// the engine hands the stack, which records each delivery's latency from
/// it.
pub type TimedDelivery<E> = LinkDelivery<E, Timed<E>>;

impl<E, R> Default for LinkDelivery<E, R> {
    fn default() -> Self {
        LinkDelivery {
            receipts: Vec::new(),
            released: Vec::new(),
            sends: Vec::new(),
        }
    }
}

/// A causal delivery engine pluggable into
/// [`ProtocolStack`](crate::stack::ProtocolStack): the layer that decides
/// *when* a received envelope may be released to the application.
///
/// Implemented by [`GraphDelivery`] (explicit `Occurs-After` graphs, the
/// paper's semantic causality), [`CbcastEngine`] (vector clocks, ISIS
/// CBCAST potential causality), [`PcEngine`] (PC-broadcast), and the seed
/// algorithms of the first two in [`mod@reference`] (used for
/// differential testing). An engine keeps no delivery log: the envelopes
/// it releases, in release order, are the member's deliveries, and the
/// stack records them.
///
/// Every envelope an engine holds or releases travels as a [`Timed`], with
/// its origin's send time, so the stack keeps no send-time record of its
/// own: it reads each delivery's latency from the release. The
/// untimed entry points ([`send`](Self::send),
/// [`on_receive_into`](Self::on_receive_into),
/// [`on_link_frame`](Self::on_link_frame)) wrap the timed ones with a zero
/// send time and strip it from what they return.
pub trait DeliveryEngine {
    /// The application operation type carried in envelopes.
    type Op: Clone;
    /// The engine's wire envelope.
    type Envelope: HasMsgId + Clone + Send + Sync;

    /// `true` for engines that disseminate over their own overlay links
    /// ([`PcEngine`]) instead of full-mesh reliable broadcast. The stack
    /// branches on this: routed broadcasts go out as link frames via
    /// [`route_broadcast`](Self::route_broadcast), inbound link frames
    /// through [`on_link_frame_into`](Self::on_link_frame_into), and membership
    /// changes through [`on_members`](Self::on_members).
    const ROUTED: bool = false;

    /// Creates the sending-capable engine for member `me` of a group of
    /// `n`. Engines that size per-member state (vector clocks) panic if
    /// `me` is outside the group; graph engines ignore `n`.
    fn for_member(me: ProcessId, n: usize) -> Self;

    /// Stamps `op` into a broadcast envelope ordered after `after` and
    /// self-delivers it. Returns the envelope to disseminate plus every
    /// envelope the self-delivery released locally (the new message and
    /// any messages it unblocked).
    ///
    /// Engines that infer ordering from delivery history (vector clocks)
    /// ignore `after`: anything already delivered locally is covered by
    /// the clock stamp.
    fn send(&mut self, op: Self::Op, after: OccursAfter) -> (Self::Envelope, Vec<Self::Envelope>) {
        let mut released = Vec::new();
        let timed = self.send_timed(op, after, SimTime::ZERO, &mut released);
        (timed.env, released.into_iter().map(|t| t.env).collect())
    }

    /// Like [`send`](Self::send), for a message sent at `sent_at`:
    /// returns the envelope stamped with it, and appends what the
    /// self-delivery released to `released`, each with its origin's send
    /// time. This is the stack's send path, which drains one retained
    /// buffer.
    fn send_timed(
        &mut self,
        op: Self::Op,
        after: OccursAfter,
        sent_at: SimTime,
        released: &mut Vec<Timed<Self::Envelope>>,
    ) -> Timed<Self::Envelope>;

    /// Handles an envelope received from the network; returns the
    /// envelopes released to the application, in delivery order.
    fn on_receive(&mut self, env: Self::Envelope) -> Vec<Self::Envelope> {
        let mut out = Vec::new();
        self.on_receive_into(env, &mut out);
        out
    }

    /// Like [`on_receive`](Self::on_receive), appending the released
    /// envelopes to `out` instead of returning a fresh vector. It runs
    /// [`on_receive_timed`](Self::on_receive_timed) with a zero send time
    /// through a vector of its own.
    fn on_receive_into(&mut self, env: Self::Envelope, out: &mut Vec<Self::Envelope>) {
        let mut released = Vec::new();
        let timed = Timed {
            env,
            sent_at: SimTime::ZERO,
        };
        self.on_receive_timed(timed, &mut released);
        out.extend(released.into_iter().map(|t| t.env));
    }

    /// Handles an envelope received with its origin's send time,
    /// appending what it releases to `released`, each with its origin's
    /// send time. An envelope the engine buffers keeps its send time
    /// until it is released. This is the flood-path entry point: the
    /// stack drains one retained buffer through it, so steady-state
    /// receive processing allocates nothing (the causal engines also keep
    /// their internal drain scratch across calls for the same reason).
    fn on_receive_timed(
        &mut self,
        timed: Timed<Self::Envelope>,
        released: &mut Vec<Timed<Self::Envelope>>,
    );

    /// Projects an envelope to the engine-agnostic delivered view.
    fn view<'a>(env: &'a Self::Envelope) -> Delivered<'a, Self::Op>;

    /// The vector timestamp stamped on `env`, for engines that carry one
    /// (vector-clock engines). The verification layer uses it to check
    /// delivery orders against potential causality; graph engines, which
    /// carry explicit dependency sets instead, return `None` (the
    /// default).
    fn clock_of(_env: &Self::Envelope) -> Option<&VectorClock> {
        None
    }

    /// Messages buffered awaiting causal predecessors.
    fn pending_len(&self) -> usize;

    /// Duplicate receptions absorbed so far.
    fn duplicates(&self) -> u64;

    /// Hook for engines that keep records stability GC should switch off.
    /// No engine keeps one, and `with_gc` does not call this. It stays a
    /// no-op for drivers that configure an engine the way a GC stack
    /// would (perfbench's layer replay).
    fn enable_gc_mode(&mut self) {}

    /// Forgets per-message state for the globally stable prefix. Engines
    /// without compaction support ignore the call.
    fn compact(&mut self, _stable: &VectorClock) {}

    /// Per-message entries currently retained (what [`compact`](Self::compact)
    /// bounds). Engines without compaction report 0.
    fn retained_len(&self) -> usize {
        0
    }

    // --- Routed-engine hooks (no-ops unless `ROUTED`) ------------------

    /// Reconciles the engine's overlay with a newly installed member
    /// set, appending the handshake frames of freshly-opened links to
    /// `sends`.
    fn on_members(&mut self, _members: &[ProcessId], _sends: &mut Vec<LinkSend<Self::Envelope>>) {}

    /// Disseminates a freshly originated (and already self-delivered)
    /// envelope over the overlay; returns the frames to transmit.
    fn route_broadcast(&mut self, timed: Timed<Self::Envelope>) -> Vec<LinkSend<Self::Envelope>> {
        let mut sends = Vec::new();
        self.route_broadcast_into(timed, &mut sends);
        sends
    }

    /// Like [`route_broadcast`](Self::route_broadcast), appending the
    /// frames to `sends` instead of returning a fresh vector: the stack's
    /// send path, which drains one retained buffer.
    fn route_broadcast_into(
        &mut self,
        _timed: Timed<Self::Envelope>,
        _sends: &mut Vec<LinkSend<Self::Envelope>>,
    ) {
    }

    /// Handles one inbound overlay link frame. `history` is the
    /// membership layer's retained delivered envelopes (delivery order),
    /// which quarantine flushing draws from; static stacks pass `&[]`.
    ///
    /// The frame is handled on [`LinkClock::STOPPED`], so a link never
    /// names a lost frame here: a replay of captured frames releases
    /// what the live run released, without the hole reports that depend
    /// on when frames arrived. `history` is copied into one segment.
    fn on_link_frame(
        &mut self,
        from: ProcessId,
        frame: LinkFrame<Timed<Self::Envelope>>,
        history: &[Timed<Self::Envelope>],
    ) -> LinkDelivery<Self::Envelope> {
        let mut out = TimedDelivery::default();
        let segments = [history.to_vec()];
        self.on_link_frame_into(from, frame, &segments, LinkClock::STOPPED, &mut out);
        LinkDelivery {
            receipts: out.receipts,
            released: out.released.into_iter().map(|t| t.env).collect(),
            sends: out.sends,
        }
    }

    /// Like [`on_link_frame`](Self::on_link_frame) at `clock`, appending
    /// to `out` instead of returning a fresh [`LinkDelivery`], each
    /// release with its origin's send time. `history` comes as the
    /// membership store's segments, read in order. This is the flood-path
    /// entry point: the stack passes its time and retransmission period,
    /// from which links judge which frames are lost, and drains one
    /// retained `out` per frame, so steady-state link traffic allocates
    /// no vectors.
    fn on_link_frame_into(
        &mut self,
        _from: ProcessId,
        _frame: LinkFrame<Timed<Self::Envelope>>,
        _history: &[Vec<Timed<Self::Envelope>>],
        _clock: LinkClock,
        _out: &mut TimedDelivery<Self::Envelope>,
    ) {
    }

    /// Handles an envelope arriving through the reliable-broadcast
    /// side-channel (a full-mesh data copy, virtual-synchrony flush
    /// re-broadcast, joiner replay), appending to `out`. The single
    /// receipt records whether the engine had not yet seen it — routed
    /// engines deduplicate here, since their link streams and the
    /// side-channel overlap. The stack drains one retained `out` per
    /// copy, so steady-state copies allocate no vectors. Non-routed
    /// engines release through [`on_receive_timed`](Self::on_receive_timed)
    /// and send nothing.
    fn on_replay_into(
        &mut self,
        timed: Timed<Self::Envelope>,
        out: &mut TimedDelivery<Self::Envelope>,
    ) {
        out.receipts.push((timed.msg_id(), true));
        self.on_receive_timed(timed, &mut out.released);
    }

    /// Appends to `sends` the frames the retransmission tick at `clock`
    /// sends: every unacknowledged link frame, and an ack on each link
    /// whose inbound stream has holes due to be named.
    fn link_retransmissions(
        &mut self,
        _clock: LinkClock,
        _sends: &mut Vec<LinkSend<Self::Envelope>>,
    ) {
    }

    /// Whether any link frame still awaits acknowledgement.
    fn link_has_pending(&self) -> bool {
        false
    }

    /// This member's parent and children in the engine's overlay tree,
    /// derived with the engine's own fanout. A routed stack without
    /// membership runs its stability convergecast over these edges
    /// ([`StabilityTracker::over_tree`](crate::stability::StabilityTracker::over_tree)),
    /// so the stability tree is the dissemination tree. `None` (the
    /// default) leaves the stack on full-mesh stability gossip.
    fn overlay_tree(&self) -> Option<TreePosition> {
        None
    }
}
