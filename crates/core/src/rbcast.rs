//! Reliable broadcast: positive-acknowledgement retransmission over a
//! lossy network.
//!
//! The paper's delivery guarantees presuppose that every broadcast message
//! eventually reaches every member ("the receipt of m guarantees that any
//! dependency on m … is eventually satisfiable at all members", §3.3).
//! Over the simulator's lossy links this layer supplies that guarantee:
//! the originator keeps a copy of each message until every peer has
//! acknowledged it, retransmitting on a timer; receivers acknowledge every
//! copy and absorb duplicates.

use causal_clocks::{IdWindow, MsgId, ProcessId, VectorClock};
use std::collections::BTreeSet;

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
    /// An application envelope (original transmission or retransmission).
    Data(E),
    /// Acknowledgement of `Data` carrying this id.
    Ack(MsgId),
}

/// Per-member reliability state: tracks unacknowledged copies of messages
/// this member originated and deduplicates incoming data.
///
/// Sans-IO: methods return `(destination, message)` pairs for the hosting
/// node to transmit.
///
/// # Examples
///
/// ```
/// use causal_clocks::ProcessId;
/// use causal_core::osend::{OSender, OccursAfter};
/// use causal_core::rbcast::{RbMsg, ReliableBroadcast};
///
/// let mut tx = OSender::new(ProcessId::new(0));
/// let env = tx.osend("op", OccursAfter::none());
///
/// let mut rb = ReliableBroadcast::new(ProcessId::new(0), 3);
/// let (targets, msg) = rb.broadcast_grouped(env.clone());
/// assert_eq!(targets, [ProcessId::new(1), ProcessId::new(2)]);
/// assert_eq!(msg, RbMsg::Data(env.clone()));     // one copy for both
/// assert_eq!(rb.pending_acks(), 2);
///
/// rb.on_ack(ProcessId::new(1), env.id);
/// rb.on_ack(ProcessId::new(2), env.id);
/// assert_eq!(rb.pending_acks(), 0);              // fully acknowledged
/// ```
#[derive(Debug, Clone)]
pub struct ReliableBroadcast<E> {
    me: ProcessId,
    peers: BTreeSet<ProcessId>,
    outgoing: IdWindow<Outgoing<E>>,
    /// Order of initiation, for deterministic retransmission order
    /// (joiner replay makes it differ from `outgoing`'s id order).
    outgoing_order: Vec<MsgId>,
    /// Ids accepted so far. Its floors are the compacted prefix: ids at
    /// or below them were pruned and are absorbed as duplicates.
    seen: IdWindow<()>,
    retransmissions: u64,
    duplicates: u64,
}

#[derive(Debug, Clone)]
struct Outgoing<E> {
    env: E,
    unacked: BTreeSet<ProcessId>,
}

impl<E: HasMsgId + Clone> ReliableBroadcast<E> {
    /// Creates the reliability state for member `me` of a group of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the group.
    pub fn new(me: ProcessId, n: usize) -> Self {
        assert!(me.as_usize() < n, "member id outside group");
        ReliableBroadcast {
            me,
            peers: (0..n as u32)
                .map(ProcessId::new)
                .filter(|&p| p != me)
                .collect(),
            outgoing: IdWindow::new(),
            outgoing_order: Vec::new(),
            seen: IdWindow::new(),
            retransmissions: 0,
            duplicates: 0,
        }
    }

    /// The owning member.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The peers currently owed acknowledgements for new broadcasts.
    pub fn peers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.peers.iter().copied()
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
        ReliableBroadcast {
            me,
            peers: peers.into_iter().filter(|&p| p != me).collect(),
            outgoing: IdWindow::new(),
            outgoing_order: Vec::new(),
            seen: IdWindow::new(),
            retransmissions: 0,
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
                sends.push((peer, RbMsg::Data(out.env.clone())));
            }
        }
        sends
    }

    /// Stops expecting acknowledgements from `peer` — called after a view
    /// change removes a crashed member. Outstanding copies owed to it are
    /// dropped; fully acknowledged messages are retired.
    pub fn remove_peer(&mut self, peer: ProcessId) {
        self.peers.remove(&peer);
        let outgoing = &mut self.outgoing;
        self.outgoing_order.retain(|&id| {
            let out = outgoing.get_mut(id).expect("ordered ids exist");
            out.unacked.remove(&peer);
            let retired = out.unacked.is_empty();
            if retired {
                outgoing.remove(id);
            }
            !retired
        });
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
        let targets: Vec<ProcessId> = match self.outgoing.get_mut(id) {
            Some(out) => peers
                .iter()
                .copied()
                .filter(|&p| out.unacked.insert(p))
                .collect(),
            None if peers.is_empty() => Vec::new(),
            None => {
                let unacked = peers.iter().copied().collect();
                self.outgoing.insert(
                    id,
                    Outgoing {
                        env: env.clone(),
                        unacked,
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
    pub fn broadcast_grouped(&mut self, env: E) -> (Vec<ProcessId>, RbMsg<E>) {
        let id = env.msg_id();
        self.seen.insert(id, ());
        let unacked = self.peers.clone();
        let targets: Vec<ProcessId> = unacked.iter().copied().collect();
        let msg = RbMsg::Data(env.clone());
        if !unacked.is_empty() {
            self.outgoing.insert(id, Outgoing { env, unacked });
            self.outgoing_order.push(id);
        }
        (targets, msg)
    }

    /// Handles incoming data. Returns the envelope if it is fresh (to be
    /// handed to the delivery engine) plus the acknowledgement to send
    /// back; duplicates still produce an acknowledgement. Ids at or below
    /// the [`compact`](Self::compact) floor are duplicates: a late copy
    /// whose ack was lost is not re-admitted.
    pub fn on_data(&mut self, from: ProcessId, env: E) -> (Option<E>, Vec<(ProcessId, RbMsg<E>)>) {
        let id = env.msg_id();
        let ack = vec![(from, RbMsg::Ack(id))];
        if self.seen.insert(id, ()).is_none() {
            (Some(env), ack)
        } else {
            self.duplicates += 1;
            (None, ack)
        }
    }

    /// Handles an acknowledgement from a peer.
    pub fn on_ack(&mut self, from: ProcessId, id: MsgId) {
        if let Some(out) = self.outgoing.get_mut(id) {
            out.unacked.remove(&from);
            if out.unacked.is_empty() {
                self.outgoing.remove(id);
                self.outgoing_order.retain(|&m| m != id);
            }
        }
    }

    /// Returns a retransmission for every message still unacknowledged,
    /// as one multicast per in-flight message (initiation order): the
    /// peers still owing an acknowledgement (ascending) and the single
    /// copy they all get. Call from a periodic timer.
    pub fn retransmissions_grouped(&mut self) -> Vec<(Vec<ProcessId>, RbMsg<E>)> {
        let mut out = Vec::new();
        for &id in &self.outgoing_order {
            let outgoing = self.outgoing.get(id).expect("ordered ids exist");
            let targets: Vec<ProcessId> = outgoing.unacked.iter().copied().collect();
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

    /// Retransmitted copies so far.
    pub fn retransmission_count(&self) -> u64 {
        self.retransmissions
    }

    /// Duplicate data receptions absorbed so far.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates
    }

    /// Every message id this layer has accepted (own broadcasts plus
    /// fresh receipts), in (origin, seq) order — the reliable-broadcast
    /// contract's delivered set, which verification harnesses compare
    /// against what the delivery engine actually released. Compaction
    /// prunes the stable prefix, so use it on uncompacted runs.
    pub fn seen_ids(&self) -> impl Iterator<Item = MsgId> + '_ {
        self.seen.iter().map(|(id, ())| id)
    }

    /// Forgets duplicate-suppression entries for the globally stable
    /// prefix (see [`StabilityTracker`](crate::stability::StabilityTracker)):
    /// the prefix becomes a floor below which [`on_data`](Self::on_data)
    /// absorbs late copies (a retransmission whose ack was lost) without
    /// a per-id entry, so those `seen` entries are dead weight.
    /// Unacknowledged outgoing copies are never pruned — they are
    /// precisely the unstable messages. Costs one step per origin plus
    /// one per pruned entry; origins outside `stable`'s width (members
    /// admitted later) keep their entries.
    pub fn compact(&mut self, stable: &VectorClock) {
        self.seen.compact(stable);
    }

    /// Retained duplicate-suppression entries (what [`compact`](Self::compact)
    /// bounds).
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

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn env(sender: &mut OSender, payload: u8) -> GraphEnvelope<u8> {
        sender.osend(payload, OccursAfter::none())
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
    fn acks_clear_pending() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 3);
        let e = env(&mut tx, 1);
        rb.broadcast_grouped(e.clone());
        rb.on_ack(p(1), e.id);
        assert_eq!(rb.pending_acks(), 1);
        rb.on_ack(p(2), e.id);
        assert!(!rb.has_pending());
        // Late/duplicate ack is harmless.
        rb.on_ack(p(2), e.id);
    }

    #[test]
    fn fresh_data_released_and_acked() {
        let mut tx = OSender::new(p(0));
        let e = env(&mut tx, 7);
        let mut rb = ReliableBroadcast::new(p(1), 3);
        let (fresh, acks) = rb.on_data(p(0), e.clone());
        assert_eq!(fresh, Some(e.clone()));
        assert_eq!(acks, vec![(p(0), RbMsg::Ack(e.id))]);
    }

    #[test]
    fn duplicate_data_reacked_but_not_released() {
        let mut tx = OSender::new(p(0));
        let e = env(&mut tx, 7);
        let mut rb = ReliableBroadcast::new(p(1), 3);
        rb.on_data(p(0), e.clone());
        let (fresh, acks) = rb.on_data(p(0), e.clone());
        assert_eq!(fresh, None);
        assert_eq!(acks.len(), 1); // re-ack so the sender can stop
        assert_eq!(rb.duplicate_count(), 1);
    }

    #[test]
    fn late_copy_below_the_compaction_floor_is_a_duplicate() {
        let mut tx = OSender::new(p(0));
        let e1 = env(&mut tx, 1);
        let e2 = env(&mut tx, 2);
        let mut rb = ReliableBroadcast::new(p(1), 3);
        rb.on_data(p(0), e1.clone());
        rb.compact(&VectorClock::from_entries([1, 0, 0]));
        assert_eq!(rb.retained_len(), 0);
        // The sender never saw our ack and retransmits.
        let (fresh, acks) = rb.on_data(p(0), e1.clone());
        assert_eq!(fresh, None);
        assert_eq!(acks, vec![(p(0), RbMsg::Ack(e1.id))]);
        assert_eq!(rb.duplicate_count(), 1);
        assert_eq!(rb.retained_len(), 0);
        // Above the floor, data is still fresh.
        assert_eq!(rb.on_data(p(0), e2.clone()).0, Some(e2));
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
            assert_eq!(rb.retained_len(), 1);
            assert_eq!(rb.duplicate_count(), 2);
        }
    }

    #[test]
    fn far_sequence_numbers_allocate_no_slots_for_the_gap() {
        let mut rb: ReliableBroadcast<GraphEnvelope<u8>> = ReliableBroadcast::new(p(0), 2);
        for seq in [1, 2, u64::MAX - 1] {
            let e = GraphEnvelope {
                id: MsgId::new(p(1), seq),
                deps: vec![],
                payload: 0,
            };
            assert!(rb.on_data(p(1), e.clone()).0.is_some());
            assert!(rb.on_data(p(1), e).0.is_none());
        }
        assert_eq!(rb.retained_len(), 3);
        assert!(rb.slot_capacity() < 64, "{}", rb.slot_capacity());
    }

    #[test]
    fn retransmissions_cover_unacked_only() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 3);
        let e1 = env(&mut tx, 1);
        let e2 = env(&mut tx, 2);
        rb.broadcast_grouped(e1.clone());
        rb.broadcast_grouped(e2.clone());
        rb.on_ack(p(1), e1.id);
        // e1 still owed to p2; e2 owed to both. Initiation order.
        assert_eq!(
            rb.retransmissions_grouped(),
            vec![
                (vec![p(2)], RbMsg::Data(e1)),
                (vec![p(1), p(2)], RbMsg::Data(e2)),
            ]
        );
        assert_eq!(rb.retransmission_count(), 3);
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
        rb.on_ack(p(1), e.id);
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
        rb.on_ack(p(1), e1.id); // e1 fully acked: retired
        rb.add_peer(p(2));
        let sends = rb.extend_unacked(p(2));
        // Only e2 is still in flight: one fresh copy to the joiner.
        assert_eq!(sends.len(), 1);
        assert!(matches!(&sends[0].1, RbMsg::Data(d) if d.id == e2.id));
        assert_eq!(rb.pending_acks(), 2); // e2 owed to p1 and p2
                                          // Idempotent.
        assert!(rb.extend_unacked(p(2)).is_empty());
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
        rb.on_ack(p(2), e.id);
        assert_eq!(
            rb.retransmissions_grouped(),
            vec![(vec![p(3)], RbMsg::Data(e.clone()))]
        );
        rb.on_ack(p(3), e.id);
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
        let (fresh, _) = rb.on_data(p(1), e);
        assert_eq!(fresh, None);
    }
}
