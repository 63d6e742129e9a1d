//! Reliable broadcast: cumulative acknowledgement, named losses and a
//! backstop retransmission tick over a lossy network.
//!
//! The paper's delivery guarantees presuppose that every broadcast message
//! eventually reaches every member ("the receipt of m guarantees that any
//! dependency on m … is eventually satisfiable at all members", §3.3).
//! Over the simulator's lossy links this layer supplies that guarantee:
//! a sender keeps a copy of each message until every peer it sent the
//! message to has acknowledged it, and receivers absorb duplicates.
//!
//! # The ack
//!
//! A receiver does not answer each copy. It keeps each origin's received
//! prefix as the floor of its `seen` window, so every copy at or below
//! the floor is a duplicate, and it parks each copy received above the
//! floor with the time it arrived. A copy that arrives, fresh or not,
//! makes its (sender, origin) pair due. Once per ack period the hosting
//! stack drains the due pairs ([`take_acks`](ReliableBroadcast::take_acks))
//! and sends each such sender one [`RbAck`] per origin: the received
//! prefix `cum`, a SACK bitmap of the copies held above it, and a bitmap
//! of the copies named lost. On an ack the sender removes the acking peer
//! from every copy of that origin at or below `cum` or marked held, in
//! one pass over its copies. A duplicate makes its pair due again, so the
//! next ack supersedes a lost one and a resent copy is always answered.
//!
//! # The SACK
//!
//! `osend` adds no implicit FIFO dependency, so after a crash a survivor
//! can hold a relayed copy of `(o, k + 1)` while `(o, k)` reached no
//! survivor. That survivor's prefix for `o` then never passes `k`, and
//! only the SACK can retire, at the relayer, the copies it holds above
//! the hole. So the SACK's 64-copy window is anchored at the lowest copy
//! above the prefix received from that sender since its last ack, not at
//! the prefix: it covers what the sender last sent, however far above the
//! hole it sits, and copies beyond the window come back as duplicates and
//! are covered by a later ack.
//!
//! # Naming lost copies
//!
//! Losses are repaired by the loss rule PC links use ([`holes`]),
//! not by the tick. A copy missing below one that has been parked for
//! W = P/8 is named in the `lost` bitmap over the 64 copies above `cum`,
//! at once: the arrival that finds the hole answers straight away, to the
//! origin if it is a peer (it keeps every copy it has not retired) and
//! otherwise to the sender. The periodic ack to that holder names the
//! holes due at its tick too, and a hole still missing is named again
//! after P/2. The holder resends each named copy it still owes the
//! receiver, at once, and nothing else.
//!
//! # The tick is a backstop
//!
//! The retransmission tick resends only the copies whose last
//! transmission came before the previous tick, which a per-copy tick
//! count tells without a clock. Every unacknowledged copy is therefore
//! resent within 2P of its last transmission, so liveness rests on
//! neither naming nor any one ack. A lost copy stays unacknowledged and
//! the tick resends it, if naming has not repaired it first. A lost ack
//! leaves the copies it covered unacknowledged, so the tick resends them,
//! and the duplicates make the pair due again. A lost named resend is
//! named again after P/2, or resent by the tick. Naming and the periodic
//! ack only bring a repair or a retirement forward.
//!
//! # No options
//!
//! W and the ack period derive from the stack's retransmission period P.
//! W = P/8, as for PC links. The ack period is P/4, with or without
//! membership (where membership runs, the same tick carries the
//! heartbeats), so an ack reaches the sender well within the P a copy
//! waits before the backstop can resend it. Neither needs an option: too
//! small a W resends copies that were merely reordered, too large a W
//! delays a repair towards the tick, a shorter ack period only sends more
//! acks, and a longer one only retires copies later. None of that touches
//! correctness.

use crate::holes::{self, HoleNamer, LinkClock, REPORT_SPAN};
use causal_clocks::{IdWindow, MsgId, Offer, ProcessId, VectorClock};
use causal_simnet::SimTime;
use std::collections::BTreeMap;

/// Envelope types that carry a unique message identity (implemented by
/// both the graph and vector-clock envelopes).
pub trait HasMsgId {
    /// The unique identity of this message.
    fn msg_id(&self) -> MsgId;
}

impl<P> HasMsgId for crate::osend::GraphEnvelope<P> {
    fn msg_id(&self) -> MsgId {
        self.id
    }
}

impl<P> HasMsgId for crate::delivery::VtEnvelope<P> {
    fn msg_id(&self) -> MsgId {
        self.id
    }
}

/// Wire messages of the reliability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RbMsg<E> {
    /// An application envelope (original transmission or resend).
    Data(E),
    /// One origin's status at the receiver: what it holds of that
    /// origin's stream, and which copies it has lost.
    Ack(RbAck),
}

/// One origin's status at a receiver, sent to a member that sent it
/// copies of that origin (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbAck {
    /// The origin, and the received prefix: the receiver holds every
    /// copy of `cum.origin()` numbered up to `cum.seq()`.
    pub cum: MsgId,
    /// The number of bit 0 of `held`, above `cum`.
    pub held_from: u64,
    /// Bit `i` set: the receiver holds copy `held_from + i`.
    pub held: u64,
    /// Bit `i` set: copy `cum.seq() + 1 + i` is lost, so resend it.
    pub lost: u64,
}

impl RbAck {
    /// Whether the receiver holds copy `seq` of the ack's origin: it lies
    /// in the prefix or is marked held.
    pub fn covers(&self, seq: u64) -> bool {
        seq <= self.cum.seq()
            || seq
                .checked_sub(self.held_from)
                .is_some_and(|i| i < REPORT_SPAN && self.held >> i & 1 == 1)
    }
}

/// Per-member reliability state: tracks unacknowledged copies of messages
/// this member sent, deduplicates incoming data, and keeps what each
/// sender is owed an ack for.
///
/// Sans-IO: methods return `(destination, message)` pairs for the hosting
/// node to transmit.
///
/// # Examples
///
/// ```
/// use causal_clocks::{MsgId, ProcessId};
/// use causal_core::holes::LinkClock;
/// use causal_core::osend::{OSender, OccursAfter};
/// use causal_core::rbcast::{RbMsg, ReliableBroadcast};
///
/// let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
/// let mut tx = OSender::new(p0);
/// let env = tx.osend("op", OccursAfter::none());
///
/// let mut rb = ReliableBroadcast::new(p0, 2);
/// let (targets, msg) = rb.broadcast_grouped(env.clone());
/// assert_eq!(targets, [p1]);
/// assert_eq!(msg, RbMsg::Data(env.clone()));
/// assert_eq!(rb.pending_acks(), 1);
///
/// // The receiver answers at its next ack period, not per copy.
/// let mut rx = ReliableBroadcast::new(p1, 2);
/// assert_eq!(rx.on_data(p0, env.clone()), (Some(env.clone()), None));
/// let mut acks = Vec::new();
/// rx.take_acks(LinkClock::STOPPED, &mut acks);
/// let [(to, ack)] = acks[..] else { panic!("one ack") };
/// assert_eq!((to, ack.cum), (p0, MsgId::new(p0, 1)));
///
/// assert!(rb.on_ack(p1, ack).is_empty());
/// assert_eq!(rb.pending_acks(), 0);              // fully acknowledged
/// ```
#[derive(Debug, Clone)]
pub struct ReliableBroadcast<E> {
    me: ProcessId,
    peers: PeerSet,
    outgoing: IdWindow<Outgoing<E>>,
    /// Order of initiation, for deterministic retransmission order
    /// (joiner replay makes it differ from `outgoing`'s id order).
    outgoing_order: Vec<MsgId>,
    /// Copies received. Each origin's floor is its received prefix:
    /// every copy at or below it was received, or pruned as stable, and
    /// is absorbed as a duplicate. Each copy above the floor is parked
    /// with the time it arrived.
    seen: IdWindow<SimTime>,
    /// Per origin: how far its stream reaches and which holes have been
    /// named.
    naming: BTreeMap<ProcessId, HoleNamer>,
    /// The (sender, origin) pairs owed an ack, sorted, each with the
    /// lowest copy above the prefix received from that sender since its
    /// last ack.
    due: Vec<Due>,
    /// Retransmission ticks so far.
    ticks: u64,
    retransmissions: u64,
    repairs: u64,
    duplicates: u64,
}

#[derive(Debug, Clone)]
struct Outgoing<E> {
    env: E,
    unacked: PeerSet,
    /// The tick count when this copy was last transmitted.
    sent_tick: u64,
}

/// A (sender, origin) pair owed an ack.
#[derive(Debug, Clone, Copy)]
struct Due {
    to: ProcessId,
    origin: ProcessId,
    /// The lowest copy above the prefix received from `to` since its
    /// last ack; [`NO_COPY`] if there was none.
    low: u64,
}

/// [`Due::low`] when no copy above the prefix arrived.
const NO_COPY: u64 = u64::MAX;

/// A flat set of process ids: ids below 64, which cover every group this
/// workspace runs, are the bits of one word, so copying the set, adding,
/// removing and testing a member cost one word operation and allocate
/// nothing; larger ids (members admitted past 63) sit in a sorted vector.
#[derive(Debug, Clone, Default)]
struct PeerSet {
    low: u64,
    high: Vec<ProcessId>,
}

impl PeerSet {
    /// Adds `p`; returns whether it was absent.
    fn insert(&mut self, p: ProcessId) -> bool {
        match Self::bit(p) {
            Some(bit) => {
                let absent = self.low & bit == 0;
                self.low |= bit;
                absent
            }
            None => match self.high.binary_search(&p) {
                Ok(_) => false,
                Err(at) => {
                    self.high.insert(at, p);
                    true
                }
            },
        }
    }

    /// Removes `p`; returns whether it was present.
    fn remove(&mut self, p: ProcessId) -> bool {
        match Self::bit(p) {
            Some(bit) => {
                let present = self.low & bit != 0;
                self.low &= !bit;
                present
            }
            None => match self.high.binary_search(&p) {
                Ok(at) => {
                    self.high.remove(at);
                    true
                }
                Err(_) => false,
            },
        }
    }

    fn contains(&self, p: ProcessId) -> bool {
        match Self::bit(p) {
            Some(bit) => self.low & bit != 0,
            None => self.high.binary_search(&p).is_ok(),
        }
    }

    fn is_empty(&self) -> bool {
        self.low == 0 && self.high.is_empty()
    }

    fn len(&self) -> usize {
        self.low.count_ones() as usize + self.high.len()
    }

    /// The members in ascending order.
    fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let mut bits = self.low;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros();
            bits &= bits - 1;
            Some(ProcessId::new(i))
        })
        .chain(self.high.iter().copied())
    }

    /// `p`'s bit in the inline word, if it has one.
    fn bit(p: ProcessId) -> Option<u64> {
        let i = p.as_usize();
        (i < 64).then(|| 1 << i)
    }
}

impl<E: HasMsgId + Clone> ReliableBroadcast<E> {
    /// Creates the reliability state for member `me` of a group of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the group.
    pub fn new(me: ProcessId, n: usize) -> Self {
        assert!(me.as_usize() < n, "member id outside group");
        Self::with_peers(me, (0..n as u32).map(ProcessId::new))
    }

    /// The owning member.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The peers currently owed acknowledgements for new broadcasts, in
    /// ascending order.
    pub fn peers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.peers.iter()
    }

    /// Starts including `peer` in future broadcasts — called after a view
    /// change admits a new member. In-flight messages are unaffected (the
    /// joiner's state transfer covers them).
    pub fn add_peer(&mut self, peer: ProcessId) {
        if peer != self.me {
            self.peers.insert(peer);
        }
    }

    /// Creates reliability state with an explicit peer set (used by a
    /// joining member, which starts with no peers until its first view is
    /// installed).
    pub fn with_peers<I: IntoIterator<Item = ProcessId>>(me: ProcessId, peers: I) -> Self {
        let mut set = PeerSet::default();
        for p in peers {
            if p != me {
                set.insert(p);
            }
        }
        ReliableBroadcast {
            me,
            peers: set,
            outgoing: IdWindow::new(),
            outgoing_order: Vec::new(),
            seen: IdWindow::new(),
            naming: BTreeMap::new(),
            due: Vec::new(),
            ticks: 0,
            retransmissions: 0,
            repairs: 0,
            duplicates: 0,
        }
    }

    /// Adds `peer` to the unacknowledged set of every in-flight outgoing
    /// message and returns fresh transmissions to it — used when a new
    /// member joins so that messages broadcast *before* the join still
    /// reach it (the complement of the store replay, which covers
    /// messages already fully acknowledged).
    pub fn extend_unacked(&mut self, peer: ProcessId) -> Vec<(ProcessId, RbMsg<E>)> {
        if peer == self.me {
            return Vec::new();
        }
        let mut sends = Vec::new();
        for &id in &self.outgoing_order {
            let out = self.outgoing.get_mut(id).expect("ordered ids exist");
            if out.unacked.insert(peer) {
                out.sent_tick = self.ticks;
                sends.push((peer, RbMsg::Data(out.env.clone())));
            }
        }
        sends
    }

    /// Stops expecting acknowledgements from `peer` — called after a view
    /// change removes a crashed member. Outstanding copies owed to it are
    /// dropped, fully acknowledged messages are retired, acks due to it
    /// are dropped, and its stream's naming state is forgotten (a relayed
    /// copy of its messages starts it afresh).
    pub fn remove_peer(&mut self, peer: ProcessId) {
        self.peers.remove(peer);
        let outgoing = &mut self.outgoing;
        self.outgoing_order.retain(|&id| {
            let out = outgoing.get_mut(id).expect("ordered ids exist");
            out.unacked.remove(peer);
            let retired = out.unacked.is_empty();
            if retired {
                outgoing.remove(id);
            }
            !retired
        });
        self.due.retain(|d| d.to != peer);
        self.naming.remove(&peer);
    }

    /// Reliably relays a stored envelope (own or others') to `peers`: the
    /// log-replay state transfer to a joining member, and the flush
    /// re-broadcast of a removed member's messages to the survivors. The
    /// envelope is tracked as outgoing with `peers` as unacknowledged
    /// targets, so the normal retransmission machinery covers losses.
    /// Peers an in-flight copy already targets (e.g. via
    /// [`extend_unacked`](Self::extend_unacked)) are skipped. Returns the
    /// multicast to the newly targeted peers, if there are any.
    pub fn relay(&mut self, peers: &[ProcessId], env: E) -> Option<(Vec<ProcessId>, RbMsg<E>)> {
        let id = env.msg_id();
        let ticks = self.ticks;
        let targets: Vec<ProcessId> = match self.outgoing.get_mut(id) {
            Some(out) => {
                let added: Vec<ProcessId> = peers
                    .iter()
                    .copied()
                    .filter(|&p| out.unacked.insert(p))
                    .collect();
                if !added.is_empty() {
                    out.sent_tick = ticks;
                }
                added
            }
            None if peers.is_empty() => Vec::new(),
            None => {
                let mut unacked = PeerSet::default();
                for &p in peers {
                    unacked.insert(p);
                }
                self.outgoing.insert(
                    id,
                    Outgoing {
                        env: env.clone(),
                        unacked,
                        sent_tick: ticks,
                    },
                );
                self.outgoing_order.push(id);
                peers.to_vec()
            }
        };
        (!targets.is_empty()).then(|| (targets, RbMsg::Data(env)))
    }

    /// Registers a locally originated envelope and returns its initial
    /// transmission as a single multicast: the target list (every other
    /// member, ascending) and *one* message for all of them. The initial
    /// copies are identical per peer, so a transport can encode the
    /// message once for the whole group (see `Context::multicast`). An
    /// empty target list means no peers. The caller delivers the
    /// envelope to its *own* stack directly (self-delivery is reliable).
    /// The target list is the one allocation: the retained copy's
    /// unacknowledged set is a flat copy of the peer set.
    pub fn broadcast_grouped(&mut self, env: E) -> (Vec<ProcessId>, RbMsg<E>) {
        let id = env.msg_id();
        self.accept(id, SimTime::ZERO);
        let mut targets = Vec::with_capacity(self.peers.len());
        targets.extend(self.peers.iter());
        let msg = RbMsg::Data(env.clone());
        if !self.peers.is_empty() {
            let sent_tick = self.ticks;
            self.outgoing.insert(
                id,
                Outgoing {
                    env,
                    unacked: self.peers.clone(),
                    sent_tick,
                },
            );
            self.outgoing_order.push(id);
        }
        (targets, msg)
    }

    /// Handles incoming data on a stopped clock ([`LinkClock::STOPPED`]):
    /// see [`on_data_at`](Self::on_data_at). Nothing is ever parked long
    /// enough to count a hole as lost, so no ack comes back; callers
    /// without a clock (replays, layer-level harnesses) use it.
    pub fn on_data(
        &mut self,
        from: ProcessId,
        env: E,
    ) -> (Option<E>, Option<(ProcessId, RbMsg<E>)>) {
        self.on_data_at(from, env, LinkClock::STOPPED)
    }

    /// Handles a copy that arrived from `from` at `clock.now`. Returns the
    /// envelope if it is fresh (to be handed to the delivery engine),
    /// plus an ack to send at once if this arrival found holes to name
    /// (see the [module docs](self)). Fresh or not, the copy makes the
    /// pair (`from`, origin) due for the next
    /// [`take_acks`](Self::take_acks). Ids at or below the origin's
    /// received prefix, which [`compact`](Self::compact) may also raise,
    /// are duplicates. Allocates nothing once the windows have grown to
    /// the traffic's reordering depth.
    pub fn on_data_at(
        &mut self,
        from: ProcessId,
        env: E,
        clock: LinkClock,
    ) -> (Option<E>, Option<(ProcessId, RbMsg<E>)>) {
        let id = env.msg_id();
        let (origin, seq) = (id.origin(), id.seq());
        let fresh = self.accept(id, clock.now);
        self.duplicates += u64::from(!fresh);
        let point = self.seen.floor(origin);
        self.mark_due(from, origin, if seq > point { seq } else { NO_COPY });
        self.naming.entry(origin).or_default().on_arrival(seq);
        let lost = self.holes_due(origin, clock);
        let named = (lost != 0).then(|| {
            let holder = if self.peers.contains(origin) {
                origin
            } else {
                from
            };
            (holder, RbMsg::Ack(self.status(origin, NO_COPY, lost)))
        });
        (fresh.then_some(env), named)
    }

    /// Records copy `id` as received at `now`: raises its origin's prefix
    /// over it and every parked successor if it is next in sequence, and
    /// parks it otherwise. A duplicate keeps the first copy's arrival
    /// time. Returns whether the copy is fresh.
    fn accept(&mut self, id: MsgId, now: SimTime) -> bool {
        match self.seen.offer(id, now) {
            Offer::Duplicate => false,
            Offer::Parked => true,
            Offer::Next(_) => {
                while self.seen.pop_next(id.origin()).is_some() {}
                true
            }
        }
    }

    /// Makes (`to`, `origin`) due, noting `low`, a copy above the prefix
    /// received from `to`, or [`NO_COPY`].
    fn mark_due(&mut self, to: ProcessId, origin: ProcessId, low: u64) {
        match self
            .due
            .binary_search_by_key(&(to, origin), |d| (d.to, d.origin))
        {
            Ok(i) => self.due[i].low = self.due[i].low.min(low),
            Err(i) => self.due.insert(i, Due { to, origin, low }),
        }
    }

    /// The holes of `origin`'s stream to name at `clock` (see
    /// [`HoleNamer::holes_due`]).
    fn holes_due(&mut self, origin: ProcessId, clock: LinkClock) -> u64 {
        let point = self.seen.floor(origin);
        let seen = &self.seen;
        match self.naming.get_mut(&origin) {
            Some(namer) => namer.holes_due(point, clock, |seq| {
                seen.get(MsgId::new(origin, seq)).copied()
            }),
            None => 0,
        }
    }

    /// `origin`'s status: its received prefix, the copies held in the
    /// 64 above `low` (or above the prefix, if `low` is not above it),
    /// and `lost`.
    fn status(&self, origin: ProcessId, low: u64, lost: u64) -> RbAck {
        let cum = self.seen.floor(origin);
        let above = cum.saturating_add(1);
        let held_from = if low == NO_COPY {
            above
        } else {
            low.max(above)
        };
        let top = self.naming.get(&origin).map_or(0, HoleNamer::top);
        let last = top.min(held_from.saturating_add(REPORT_SPAN - 1));
        let mut held = 0;
        for seq in held_from..=last {
            if self.seen.contains(MsgId::new(origin, seq)) {
                held |= 1 << (seq - held_from);
            }
        }
        RbAck {
            cum: MsgId::new(origin, cum),
            held_from,
            held,
            lost,
        }
    }

    /// Appends one ack per due (sender, origin) pair to `out`, in
    /// (sender, origin) order, and clears the due set: what the hosting
    /// stack sends once per ack period. An ack to the holder of the
    /// origin's copies (the origin if it is a peer, else the sender) also
    /// names the holes due at `clock`.
    pub fn take_acks(&mut self, clock: LinkClock, out: &mut Vec<(ProcessId, RbAck)>) {
        for i in 0..self.due.len() {
            let Due { to, origin, low } = self.due[i];
            let lost = if to == origin || !self.peers.contains(origin) {
                self.holes_due(origin, clock)
            } else {
                0
            };
            out.push((to, self.status(origin, low, lost)));
        }
        self.due.clear();
    }

    /// `true` while some sender is owed an ack (keep the ack tick armed).
    pub fn has_due(&self) -> bool {
        !self.due.is_empty()
    }

    /// Handles `from`'s status of one origin: retires `from` from every
    /// copy of that origin the ack covers, in one pass, and returns a
    /// resend of each copy it names lost that is still owed to `from`.
    pub fn on_ack(&mut self, from: ProcessId, ack: RbAck) -> Vec<(ProcessId, RbMsg<E>)> {
        let origin = ack.cum.origin();
        let outgoing = &mut self.outgoing;
        self.outgoing_order.retain(|&id| {
            if id.origin() != origin || !ack.covers(id.seq()) {
                return true;
            }
            let out = outgoing.get_mut(id).expect("ordered ids exist");
            out.unacked.remove(from);
            let retired = out.unacked.is_empty();
            if retired {
                outgoing.remove(id);
            }
            !retired
        });
        self.resend_named(from, ack)
    }

    /// A copy of each outgoing message `ack` names lost that `from` has
    /// not acknowledged. A name of a copy not held, or already retired
    /// for `from`, resends nothing.
    fn resend_named(&mut self, from: ProcessId, ack: RbAck) -> Vec<(ProcessId, RbMsg<E>)> {
        let mut sends = Vec::new();
        for seq in holes::named(ack.cum.seq(), ack.lost) {
            let Some(out) = self.outgoing.get_mut(MsgId::new(ack.cum.origin(), seq)) else {
                continue;
            };
            if out.unacked.contains(from) {
                out.sent_tick = self.ticks;
                self.repairs += 1;
                sends.push((from, RbMsg::Data(out.env.clone())));
            }
        }
        sends
    }

    /// The backstop: a retransmission of every unacknowledged message
    /// whose last transmission came before the previous call, as one
    /// multicast per message (initiation order) of the single copy the
    /// peers still owing an acknowledgement (ascending) all get. Call
    /// from a periodic timer of period P: every unacknowledged copy is
    /// then resent within 2P of its last transmission.
    pub fn retransmissions_grouped(&mut self) -> Vec<(Vec<ProcessId>, RbMsg<E>)> {
        self.ticks += 1;
        let mut out = Vec::new();
        for &id in &self.outgoing_order {
            let outgoing = self.outgoing.get_mut(id).expect("ordered ids exist");
            if outgoing.sent_tick + 1 >= self.ticks {
                continue;
            }
            outgoing.sent_tick = self.ticks;
            let mut targets = Vec::with_capacity(outgoing.unacked.len());
            targets.extend(outgoing.unacked.iter());
            self.retransmissions += targets.len() as u64;
            out.push((targets, RbMsg::Data(outgoing.env.clone())));
        }
        out
    }

    /// `true` while any copy is unacknowledged (keep the retransmit timer
    /// armed).
    pub fn has_pending(&self) -> bool {
        !self.outgoing.is_empty()
    }

    /// Total outstanding (message, peer) acknowledgements.
    pub fn pending_acks(&self) -> usize {
        self.outgoing.iter().map(|(_, o)| o.unacked.len()).sum()
    }

    /// Copies retransmitted by the backstop tick so far.
    pub fn retransmission_count(&self) -> u64 {
        self.retransmissions
    }

    /// Copies resent so far because a peer named them lost.
    pub fn repair_count(&self) -> u64 {
        self.repairs
    }

    /// Duplicate data receptions absorbed so far.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates
    }

    /// Raises each origin's received prefix to the globally stable prefix
    /// (see [`StabilityTracker`](crate::stability::StabilityTracker)),
    /// dropping the copies parked below it and absorbing those parked
    /// just above it. A stable message was
    /// delivered everywhere, so a late copy of it (a retransmission whose
    /// ack was lost) is a duplicate. Under full-mesh traffic the received
    /// prefix is already at least the stable one; the prefix rises here
    /// for origins whose messages reached this member another way (a
    /// routed engine's overlay). Unacknowledged outgoing copies are never
    /// pruned — they are precisely the unstable messages. Costs one step
    /// per origin plus one per pruned entry, and one more per origin
    /// while copies stay parked (a layer that carries no traffic pays
    /// only the first; `ProtocolStack::compact_now` does not call this
    /// for a static routed stack); origins outside `stable`'s width
    /// (members admitted later) keep their prefixes.
    pub fn compact(&mut self, stable: &VectorClock) {
        self.seen.compact(stable);
        // Only a parked copy can sit just above a raised prefix.
        if self.seen.is_empty() {
            return;
        }
        for (origin, _) in stable.iter() {
            while self.seen.pop_next(origin).is_some() {}
        }
    }

    /// Copies parked above their origin's received prefix (what
    /// [`compact`](Self::compact) and arriving predecessors bound).
    pub fn retained_len(&self) -> usize {
        self.seen.len()
    }

    /// Slots allocated for per-message state, empty or not.
    #[cfg(test)]
    fn slot_capacity(&self) -> usize {
        self.seen.slot_capacity() + self.outgoing.slot_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osend::{GraphEnvelope, OSender, OccursAfter};
    use crate::stack::DEFAULT_RETRANSMIT;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn env(sender: &mut OSender, payload: u8) -> GraphEnvelope<u8> {
        sender.osend(payload, OccursAfter::none())
    }

    fn at(micros: u64) -> LinkClock {
        LinkClock {
            now: SimTime::from_micros(micros),
            period: DEFAULT_RETRANSMIT,
        }
    }

    /// The acks `rb` sends at an ack period ending at `micros`.
    fn acks_at(
        rb: &mut ReliableBroadcast<GraphEnvelope<u8>>,
        micros: u64,
    ) -> Vec<(ProcessId, RbAck)> {
        let mut acks = Vec::new();
        rb.take_acks(at(micros), &mut acks);
        acks
    }

    fn ack(origin: ProcessId, cum: u64) -> RbAck {
        RbAck {
            cum: MsgId::new(origin, cum),
            held_from: cum + 1,
            held: 0,
            lost: 0,
        }
    }

    #[test]
    fn broadcast_targets_all_peers() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 4);
        let e = env(&mut tx, 1);
        let (targets, msg) = rb.broadcast_grouped(e.clone());
        assert_eq!(targets, vec![p(1), p(2), p(3)]);
        assert_eq!(msg, RbMsg::Data(e));
        assert_eq!(rb.pending_acks(), 3);
        assert!(rb.has_pending());
    }

    #[test]
    fn one_cumulative_prefix_acks_every_copy_in_order() {
        let mut tx = OSender::new(p(0));
        let mut sender = ReliableBroadcast::new(p(0), 3);
        let mut rx = ReliableBroadcast::new(p(1), 3);
        for k in 1..=3 {
            let e = env(&mut tx, k);
            sender.broadcast_grouped(e.clone());
            // No copy is answered on its own.
            assert_eq!(rx.on_data_at(p(0), e.clone(), at(0)), (Some(e), None));
        }
        assert_eq!(rx.retained_len(), 0);
        let acks = acks_at(&mut rx, 1_000);
        assert_eq!(acks, vec![(p(0), ack(p(0), 3))]);
        assert!(!rx.has_due());
        assert!(sender.on_ack(p(1), acks[0].1).is_empty());
        assert_eq!(sender.pending_acks(), 3); // p2 still owes all three
                                              // A stale ack retires nothing more and is harmless.
        sender.on_ack(p(1), ack(p(0), 1));
        sender.on_ack(p(2), ack(p(0), 3));
        assert!(!sender.has_pending());
    }

    #[test]
    fn a_sack_retires_copies_held_far_above_a_hole_that_never_fills() {
        // p1 relays p0's messages 2..=100 to p2; message 1 reached no
        // survivor, so p2's prefix for p0 stays at 0.
        let mut tx = OSender::new(p(0));
        let envs: Vec<_> = (0..=100).map(|k| env(&mut tx, k as u8)).collect();
        let mut relayer = ReliableBroadcast::new(p(1), 3);
        relayer.remove_peer(p(0));
        let mut rx = ReliableBroadcast::new(p(2), 3);
        rx.remove_peer(p(0));
        for e in &envs[1..] {
            relayer.relay(&[p(2)], e.clone());
        }
        for e in &envs[1..] {
            assert!(rx.on_data_at(p(1), e.clone(), at(0)).0.is_some());
        }
        let mut now = 0;
        for round in 0.. {
            assert!(round < 8, "the relayer never stopped resending");
            now += 1_000;
            for (to, ack) in acks_at(&mut rx, now) {
                assert_eq!((to, ack.cum), (p(1), MsgId::new(p(0), 0)));
                relayer.on_ack(p(2), ack);
            }
            if !relayer.has_pending() {
                break;
            }
            // The backstop resends what no ack covered yet, and the
            // duplicates make the pair due again.
            for (targets, msg) in relayer.retransmissions_grouped() {
                let RbMsg::Data(e) = msg else {
                    panic!("{msg:?}")
                };
                assert_eq!(targets, vec![p(2)]);
                assert!(rx.on_data_at(p(1), e, at(now)).0.is_none());
            }
        }
        assert_eq!(relayer.pending_acks(), 0);
        assert_eq!(rx.retained_len(), 100);
    }

    #[test]
    fn a_hole_outwaited_by_a_later_copy_is_named_and_only_it_is_resent() {
        let mut tx = OSender::new(p(0));
        let envs: Vec<_> = (1..=4).map(|k| env(&mut tx, k)).collect();
        let mut sender = ReliableBroadcast::new(p(0), 2);
        for e in &envs {
            sender.broadcast_grouped(e.clone());
        }
        let mut rx = ReliableBroadcast::new(p(1), 2);
        let w = DEFAULT_RETRANSMIT.as_micros() / 8;
        assert_eq!(rx.on_data_at(p(0), envs[0].clone(), at(0)).1, None);
        // Copy 2 is lost; copy 3 arrives but has not yet outwaited it.
        assert_eq!(rx.on_data_at(p(0), envs[2].clone(), at(0)).1, None);
        let (_, named) = rx.on_data_at(p(0), envs[3].clone(), at(w));
        let Some((to, RbMsg::Ack(named))) = named else {
            panic!("no hole named: {named:?}")
        };
        assert_eq!(to, p(0));
        assert_eq!(named.cum, MsgId::new(p(0), 1));
        assert_eq!(named.lost, 0b1);
        assert!(named.covers(3) && named.covers(4) && !named.covers(2));
        // The sender retires 1, 3 and 4 and resends just 2.
        let resent = sender.on_ack(p(1), named);
        assert_eq!(resent, vec![(p(1), RbMsg::Data(envs[1].clone()))]);
        assert_eq!(sender.pending_acks(), 1);
        assert_eq!(sender.repair_count(), 1);
        // Not named again before P/2.
        assert_eq!(acks_at(&mut rx, w + 1)[0].1.lost, 0);
        assert!(rx.on_data_at(p(0), envs[1].clone(), at(w + 2)).0.is_some());
        assert_eq!(acks_at(&mut rx, w + 3), vec![(p(0), ack(p(0), 4))]);
    }

    #[test]
    fn a_duplicate_of_a_parked_copy_keeps_its_first_arrival() {
        let mut tx = OSender::new(p(0));
        let envs: Vec<_> = (1..=3).map(|k| env(&mut tx, k)).collect();
        let mut rx = ReliableBroadcast::new(p(1), 2);
        // Copy 1 is lost. Copy 2 parks at 0 µs, and a resent copy of it
        // at 500 µs is absorbed without restamping it.
        assert_eq!(rx.on_data_at(p(0), envs[1].clone(), at(0)).1, None);
        assert_eq!(rx.on_data_at(p(0), envs[1].clone(), at(500)), (None, None));
        assert_eq!(rx.duplicate_count(), 1);
        // At 700 µs copy 2 has waited W since it first arrived.
        let (_, named) = rx.on_data_at(p(0), envs[2].clone(), at(700));
        let Some((to, RbMsg::Ack(named))) = named else {
            panic!("no hole named: {named:?}")
        };
        assert_eq!(
            (to, named.cum, named.lost),
            (p(0), MsgId::new(p(0), 0), 0b1)
        );
    }

    #[test]
    fn a_duplicate_is_reacked_at_the_next_period() {
        let mut tx = OSender::new(p(0));
        let e = env(&mut tx, 7);
        let mut rb = ReliableBroadcast::new(p(1), 3);
        rb.on_data_at(p(0), e.clone(), at(0));
        assert_eq!(acks_at(&mut rb, 1_000).len(), 1);
        // That ack was lost; the sender's backstop resends.
        assert!(acks_at(&mut rb, 2_000).is_empty());
        assert_eq!(rb.on_data_at(p(0), e, at(3_000)), (None, None));
        assert_eq!(rb.duplicate_count(), 1);
        assert!(rb.has_due());
        assert_eq!(acks_at(&mut rb, 4_000), vec![(p(0), ack(p(0), 1))]);
    }

    #[test]
    fn on_data_runs_on_a_stopped_clock_and_names_nothing() {
        let mut tx = OSender::new(p(0));
        let envs: Vec<_> = (1..=20).map(|k| env(&mut tx, k)).collect();
        let mut rb = ReliableBroadcast::new(p(1), 2);
        // Every other copy is lost.
        for e in envs.iter().step_by(2) {
            assert_eq!(rb.on_data(p(0), e.clone()), (Some(e.clone()), None));
        }
        let mut acks = Vec::new();
        rb.take_acks(LinkClock::STOPPED, &mut acks);
        assert_eq!(acks.len(), 1);
        let ack = acks[0].1;
        assert_eq!((ack.cum.seq(), ack.lost), (1, 0));
        assert!((3..=19).step_by(2).all(|k| ack.covers(k)));
    }

    #[test]
    fn the_backstop_resends_only_copies_older_than_a_tick() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 3);
        let e1 = env(&mut tx, 1);
        let e2 = env(&mut tx, 2);
        rb.broadcast_grouped(e1.clone());
        assert!(rb.retransmissions_grouped().is_empty());
        rb.broadcast_grouped(e2.clone());
        rb.on_ack(p(1), ack(p(0), 1));
        // e1 still owed to p2; e2, sent after the last tick, waits.
        assert_eq!(
            rb.retransmissions_grouped(),
            vec![(vec![p(2)], RbMsg::Data(e1))]
        );
        assert_eq!(
            rb.retransmissions_grouped(),
            vec![(vec![p(1), p(2)], RbMsg::Data(e2))]
        );
        assert_eq!(rb.retransmission_count(), 3);
    }

    #[test]
    fn late_copy_below_the_compaction_floor_is_a_duplicate() {
        // The stable prefix can pass what this layer received when the
        // messages arrived another way (a routed engine's overlay). The
        // prefix then rises over it and over the copy parked above it.
        let mut tx = OSender::new(p(0));
        let e1 = env(&mut tx, 1);
        let e2 = env(&mut tx, 2);
        let e3 = env(&mut tx, 3);
        let mut rb = ReliableBroadcast::new(p(1), 3);
        rb.on_data(p(0), e3.clone());
        assert_eq!(rb.retained_len(), 1);
        rb.compact(&VectorClock::from_entries([2, 0, 0]));
        assert_eq!(rb.retained_len(), 0);
        assert_eq!(rb.on_data(p(0), e1), (None, None));
        assert_eq!(rb.on_data(p(0), e2), (None, None));
        assert_eq!(rb.duplicate_count(), 2);
        let mut acks = Vec::new();
        rb.take_acks(LinkClock::STOPPED, &mut acks);
        assert_eq!(acks[0].1.cum, MsgId::new(p(0), 3));
        let e4 = env(&mut tx, 4);
        assert_eq!(rb.on_data(p(0), e4.clone()).0, Some(e4));
        assert_eq!(rb.retained_len(), 0);
    }

    #[test]
    fn a_copy_parked_just_above_a_raised_prefix_is_drained() {
        // p0's copies 3 and 5 park behind missing 1, 2 and 4, and p2's
        // copy 2 behind missing 1. A stable prefix of 2 from p0 and none
        // from p2 drains p0's copy 3 alone.
        let mut tx0 = OSender::new(p(0));
        let p0: Vec<_> = (1..=5).map(|k| env(&mut tx0, k)).collect();
        let mut tx2 = OSender::new(p(2));
        let p2: Vec<_> = (1..=2).map(|k| env(&mut tx2, k)).collect();
        let mut rb = ReliableBroadcast::new(p(1), 3);
        for e in [&p0[2], &p0[4], &p2[1]] {
            assert!(rb.on_data(e.id.origin(), e.clone()).0.is_some());
        }
        assert_eq!(rb.retained_len(), 3);
        rb.compact(&VectorClock::from_entries([2, 0, 0]));
        assert_eq!(rb.retained_len(), 2);
        let mut acks = Vec::new();
        rb.take_acks(LinkClock::STOPPED, &mut acks);
        let cum = |origin| {
            acks.iter()
                .find(|(_, a)| a.cum.origin() == origin)
                .map(|(_, a)| a.cum)
        };
        assert_eq!(cum(p(0)), Some(MsgId::new(p(0), 3)));
        // Copy 4 fills the last hole and releases the parked copy 5.
        assert_eq!(rb.on_data(p(0), p0[3].clone()).0, Some(p0[3].clone()));
        assert_eq!(rb.retained_len(), 1);
        assert_eq!(rb.on_data(p(0), p0[4].clone()).0, None);
        // With nothing parked, compaction still raises the prefixes.
        assert_eq!(rb.on_data(p(2), p2[0].clone()).0, Some(p2[0].clone()));
        assert_eq!(rb.retained_len(), 0);
        rb.compact(&VectorClock::from_entries([7, 0, 3]));
        assert_eq!(rb.on_data(p(0), env(&mut tx0, 6)).0, None);
        assert_eq!(rb.duplicate_count(), 2);
    }

    #[test]
    fn ids_outside_the_floor_width_are_fresh() {
        // A member admitted after compaction has no floor entry; neither
        // does a corrupt frame's origin. Their ids get the verdicts a
        // plain set gives, across further compactions.
        for origin in [p(5), p(u32::MAX)] {
            let mut rb: ReliableBroadcast<GraphEnvelope<u8>> = ReliableBroadcast::new(p(0), 2);
            rb.compact(&VectorClock::from_entries([1, 1]));
            let mut joiner = OSender::new(origin);
            let e = env(&mut joiner, 1);
            assert_eq!(rb.on_data(origin, e.clone()).0, Some(e.clone()));
            assert_eq!(rb.on_data(origin, e.clone()).0, None);
            rb.compact(&VectorClock::from_entries([2, 2]));
            assert_eq!(rb.on_data(origin, e).0, None);
            assert_eq!(rb.retained_len(), 0);
            assert_eq!(rb.duplicate_count(), 2);
        }
    }

    #[test]
    fn far_sequence_numbers_allocate_no_slots_for_the_gap() {
        let mut rb: ReliableBroadcast<GraphEnvelope<u8>> = ReliableBroadcast::new(p(0), 2);
        for seq in [1, 2, u64::MAX - 1] {
            let e = GraphEnvelope {
                id: MsgId::new(p(1), seq),
                deps: Default::default(),
                payload: 0,
            };
            assert!(rb.on_data(p(1), e.clone()).0.is_some());
            assert!(rb.on_data(p(1), e).0.is_none());
        }
        assert_eq!(rb.retained_len(), 1);
        assert!(rb.slot_capacity() < 64, "{}", rb.slot_capacity());
        let mut acks = Vec::new();
        rb.take_acks(LinkClock::STOPPED, &mut acks);
        assert!(acks[0].1.covers(u64::MAX - 1));
    }

    #[test]
    fn remove_peer_drops_owed_copies() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 3);
        let e = env(&mut tx, 1);
        rb.broadcast_grouped(e.clone());
        assert_eq!(rb.pending_acks(), 2);
        rb.remove_peer(p(2));
        assert_eq!(rb.pending_acks(), 1);
        assert_eq!(rb.peers().collect::<Vec<_>>(), vec![p(1)]);
        // The remaining ack retires the message entirely.
        rb.on_ack(p(1), ack(p(0), 1));
        assert!(!rb.has_pending());
        // New broadcasts no longer target the removed peer.
        assert_eq!(rb.broadcast_grouped(env(&mut tx, 2)).0, vec![p(1)]);
    }

    #[test]
    fn with_peers_and_add_peer() {
        let mut tx = OSender::new(p(5));
        let mut rb = ReliableBroadcast::with_peers(p(5), []);
        assert!(rb.broadcast_grouped(env(&mut tx, 1)).0.is_empty());
        rb.add_peer(p(0));
        rb.add_peer(p(5)); // self: ignored
        assert_eq!(rb.broadcast_grouped(env(&mut tx, 2)).0, vec![p(0)]);
    }

    #[test]
    fn extend_unacked_retargets_in_flight_messages() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 2);
        let e1 = env(&mut tx, 1);
        let e2 = env(&mut tx, 2);
        rb.broadcast_grouped(e1.clone());
        rb.broadcast_grouped(e2.clone());
        rb.on_ack(p(1), ack(p(0), 1)); // e1 fully acked: retired
        rb.add_peer(p(2));
        let sends = rb.extend_unacked(p(2));
        // Only e2 is still in flight: one fresh copy to the joiner.
        assert_eq!(sends.len(), 1);
        assert!(matches!(&sends[0].1, RbMsg::Data(d) if d.id == e2.id));
        assert_eq!(rb.pending_acks(), 2); // e2 owed to p1 and p2
        assert!(rb.extend_unacked(p(2)).is_empty()); // idempotent
    }

    #[test]
    fn relayed_copies_are_resent_until_every_target_acks() {
        // p1 relays a message of a removed member p0 to survivors p2, p3.
        let mut tx = OSender::new(p(0));
        let e = env(&mut tx, 1);
        let mut rb = ReliableBroadcast::new(p(1), 4);
        rb.on_data(p(0), e.clone());
        let relayed = rb.relay(&[p(2), p(3)], e.clone());
        assert_eq!(relayed, Some((vec![p(2), p(3)], RbMsg::Data(e.clone()))));
        // Targets it already owes are skipped; new ones are added.
        assert_eq!(rb.relay(&[p(3)], e.clone()), None);
        rb.on_ack(p(2), ack(p(0), 1));
        assert!(rb.retransmissions_grouped().is_empty());
        assert_eq!(
            rb.retransmissions_grouped(),
            vec![(vec![p(3)], RbMsg::Data(e.clone()))]
        );
        rb.on_ack(p(3), ack(p(0), 1));
        assert!(!rb.has_pending());
        // Nobody to relay to: nothing is tracked.
        assert_eq!(rb.relay(&[], e), None);
        assert!(!rb.has_pending());
    }

    #[test]
    fn remove_last_outstanding_peer_retires_message() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 2);
        rb.broadcast_grouped(env(&mut tx, 1));
        assert!(rb.has_pending());
        rb.remove_peer(p(1));
        assert!(!rb.has_pending());
        assert!(rb.retransmissions_grouped().is_empty());
    }

    #[test]
    fn single_member_group_has_no_sends() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 1);
        assert!(rb.broadcast_grouped(env(&mut tx, 1)).0.is_empty());
        assert!(!rb.has_pending());
    }

    #[test]
    fn own_broadcast_is_seen_no_self_duplicate() {
        // If the transport loops our own Data back, it is absorbed.
        let mut tx = OSender::new(p(0));
        let e = env(&mut tx, 1);
        let mut rb = ReliableBroadcast::new(p(0), 2);
        rb.broadcast_grouped(e.clone());
        assert_eq!(rb.on_data(p(1), e), (None, None));
    }
}
