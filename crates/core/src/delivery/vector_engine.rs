//! Vector-clock causal delivery (ISIS CBCAST-style).

use super::{Delivered, DeliveryEngine};
use crate::osend::OccursAfter;
use crate::stack::Timed;
use causal_clocks::{DeliveryCheck, MsgId, ProcessId, VectorClock};
use causal_simnet::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// A broadcast message stamped with its sender's vector clock at send time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VtEnvelope<P> {
    /// Unique message identity.
    pub id: MsgId,
    /// The sender's vector clock *after* incrementing its own entry.
    pub vt: VectorClock,
    /// The application payload.
    pub payload: P,
}

/// A buffered out-of-order envelope with its origin's send time, stamped
/// with its arrival rank so the drain releases simultaneously deliverable
/// messages in arrival order (the order the seed engine's linear rescan
/// produced).
#[derive(Debug, Clone)]
struct Buffered<P> {
    arrival: u64,
    timed: Timed<VtEnvelope<P>>,
}

/// Per-member CBCAST engine: causal delivery from *potential* causality.
///
/// Following Birman, Schiper & Stephenson (1991): a sender increments its
/// own vector-clock entry and stamps the message; a receiver delivers a
/// message from `j` once it is the next in `j`'s sequence and every
/// message the sender had delivered before sending has been delivered
/// locally (see [`VectorClock::delivery_check`]).
///
/// This engine orders by everything the sender *might* have depended on —
/// including messages that merely happened to be delivered before the send
/// (incidental ordering). The ablation benches compare it against the
/// explicit-graph engine, which carries only the application's declared
/// (semantic) ordering.
///
/// # Buffer indexing
///
/// Out-of-order messages are buffered in **per-origin queues** keyed by
/// sequence number, and each queue head registers the single vector-clock
/// entry it is currently waiting on. A delivery therefore wakes only the
/// heads that could actually have become deliverable instead of rescanning
/// the whole buffer: drain cost is O(released + woken), not O(pending) per
/// delivery, which is what lets the engine absorb large out-of-order
/// bursts (see `DESIGN.md`, "Hot paths & benchmarking"). The seed
/// implementation with a flat rescan is preserved as
/// [`reference::FlatCbcastEngine`](crate::delivery::reference::FlatCbcastEngine)
/// and the equivalence proptests pin this engine to its delivery order.
///
/// # Examples
///
/// ```
/// use causal_clocks::ProcessId;
/// use causal_core::delivery::{CbcastEngine, DeliveryEngine};
///
/// let mut p0 = CbcastEngine::new(ProcessId::new(0), 2);
/// let mut p1 = CbcastEngine::new(ProcessId::new(1), 2);
///
/// let m1 = p0.broadcast("first");
/// let m2 = p0.broadcast("second");
///
/// // p1 receives them out of order: m2 is buffered until m1 arrives.
/// assert!(p1.on_receive(m2.clone()).is_empty());
/// let released = p1.on_receive(m1.clone());
/// assert_eq!(released.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CbcastEngine<P> {
    me: ProcessId,
    vt: VectorClock,
    /// Per-origin out-of-order buffers keyed by sequence number. Only a
    /// queue's head (lowest seq) can ever be deliverable, so each origin
    /// contributes at most one delivery candidate.
    queues: Vec<BTreeMap<u64, Buffered<P>>>,
    /// `blocked[k]`: the `(process, entry value)` the head of origin `k`'s
    /// queue is currently registered as waiting for, if any.
    blocked: Vec<Option<(ProcessId, u64)>>,
    /// `waiters[j]`: heads waiting for `vt[j]` to reach a threshold, as
    /// `Reverse((threshold, waiting origin))`. Entries are validated
    /// against `blocked` when popped, so superseded registrations are
    /// dropped lazily instead of being removed eagerly.
    waiters: Vec<BinaryHeap<Reverse<(u64, u32)>>>,
    /// Total buffered envelopes across all queues.
    buffered: usize,
    /// Monotone arrival stamp for drain-order tie-breaking.
    arrivals: u64,
    duplicates: u64,
    /// Drain scratch — `(arrival, origin)` of heads known deliverable but
    /// not yet popped. Kept across calls (always drained empty) so the
    /// receive flood path allocates nothing in steady state.
    ready: BinaryHeap<Reverse<(u64, u32)>>,
    /// Drain scratch — origins whose clock entry advanced since the last
    /// wake pass. Same reuse discipline as `ready`.
    advanced: Vec<ProcessId>,
}

impl<P> CbcastEngine<P> {
    /// Creates the engine for member `me` of a group of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the group.
    pub fn new(me: ProcessId, n: usize) -> Self {
        assert!(me.as_usize() < n, "member id outside group");
        CbcastEngine {
            me,
            vt: VectorClock::new(n),
            queues: (0..n).map(|_| BTreeMap::new()).collect(),
            blocked: vec![None; n],
            waiters: (0..n).map(|_| BinaryHeap::new()).collect(),
            buffered: 0,
            arrivals: 0,
            duplicates: 0,
            ready: BinaryHeap::new(),
            advanced: Vec::new(),
        }
    }

    /// Stamps a broadcast: increments the local entry, which counts as
    /// the local (self-)delivery, and returns the envelope to disseminate
    /// to the other members.
    pub fn broadcast(&mut self, payload: P) -> VtEnvelope<P>
    where
        P: Clone,
    {
        let seq = self.vt.increment(self.me);
        let id = MsgId::new(self.me, seq);
        VtEnvelope {
            id,
            vt: self.vt.clone(),
            payload,
        }
    }

    /// Buffers a non-deliverable envelope in its origin's queue,
    /// absorbing duplicates of already-buffered ids in O(log queue).
    fn buffer(&mut self, timed: Timed<VtEnvelope<P>>) {
        let origin = timed.env.id.origin();
        let seq = timed.env.id.seq();
        let queue = &mut self.queues[origin.as_usize()];
        if queue.contains_key(&seq) {
            self.duplicates += 1;
            return;
        }
        let new_head = queue.keys().next().is_none_or(|&head| seq < head);
        let arrival = self.arrivals;
        self.arrivals += 1;
        queue.insert(seq, Buffered { arrival, timed });
        self.buffered += 1;
        if new_head {
            // A freshly arrived envelope is never deliverable (otherwise
            // on_receive_timed would have delivered it), so this only
            // re-registers the queue's blocker.
            self.check_head(origin);
        }
    }

    fn deliver(&mut self, timed: Timed<VtEnvelope<P>>, released: &mut Vec<Timed<VtEnvelope<P>>>) {
        self.vt.apply_delivery(&timed.env.vt);
        released.push(timed);
    }

    /// Re-examines the head of `origin`'s queue: returns its arrival
    /// stamp if it is deliverable, otherwise registers the single entry
    /// it waits on and returns `None`.
    fn check_head(&mut self, origin: ProcessId) -> Option<u64> {
        loop {
            let k = origin.as_usize();
            let Some((_, head)) = self.queues[k].iter().next() else {
                self.blocked[k] = None;
                return None;
            };
            match self.vt.delivery_check(&head.timed.env.vt, origin) {
                DeliveryCheck::Deliverable => {
                    self.blocked[k] = None;
                    return Some(head.arrival);
                }
                DeliveryCheck::MissingFromSender { got, .. } => {
                    // Deliverable once vt[origin] reaches got - 1.
                    self.block_on(origin, origin, got - 1);
                    return None;
                }
                DeliveryCheck::MissingPredecessor { process, need, .. } => {
                    self.block_on(origin, process, need);
                    return None;
                }
                DeliveryCheck::Duplicate => {
                    // Unreachable in steady state (the clock cannot pass a
                    // buffered sequence number without delivering it), but
                    // absorb defensively rather than wedge the queue.
                    self.queues[k].pop_first();
                    self.buffered -= 1;
                    self.duplicates += 1;
                }
            }
        }
    }

    fn block_on(&mut self, origin: ProcessId, blocker: ProcessId, need: u64) {
        self.blocked[origin.as_usize()] = Some((blocker, need));
        self.waiters[blocker.as_usize()].push(Reverse((need, origin.as_u32())));
    }

    /// Releases everything made deliverable by a delivery from `origin`,
    /// waking only registered heads whose threshold has been reached.
    /// Simultaneously deliverable heads release in arrival order, matching
    /// the seed engine's linear-rescan drain.
    fn drain_from(&mut self, origin: ProcessId, released: &mut Vec<Timed<VtEnvelope<P>>>) {
        // Both scratch collections live on the engine and are empty here:
        // every path below drains them before returning.
        debug_assert!(self.ready.is_empty() && self.advanced.is_empty());
        self.advanced.push(origin);
        loop {
            while let Some(j) = self.advanced.pop() {
                let v = self.vt.get(j);
                while let Some(&Reverse((need, k))) = self.waiters[j.as_usize()].peek() {
                    if need > v {
                        break;
                    }
                    self.waiters[j.as_usize()].pop();
                    let k = ProcessId::new(k);
                    if self.blocked[k.as_usize()] != Some((j, need)) {
                        continue; // superseded registration
                    }
                    if let Some(arrival) = self.check_head(k) {
                        self.ready.push(Reverse((arrival, k.as_u32())));
                    }
                }
            }
            let Some(Reverse((_, k))) = self.ready.pop() else {
                break;
            };
            let k = ProcessId::new(k);
            let (_, head) = self.queues[k.as_usize()]
                .pop_first()
                .expect("ready origin has a queued head");
            self.buffered -= 1;
            self.deliver(head.timed, released);
            self.advanced.push(k);
            // The next message in k's queue was never examined as a head.
            if let Some(arrival) = self.check_head(k) {
                self.ready.push(Reverse((arrival, k.as_u32())));
            }
        }
    }

    /// The member's current vector clock.
    pub fn clock(&self) -> &VectorClock {
        &self.vt
    }
}

impl<P: Clone + Send + Sync> DeliveryEngine for CbcastEngine<P> {
    type Op = P;
    type Envelope = VtEnvelope<P>;

    fn for_member(me: ProcessId, n: usize) -> Self {
        CbcastEngine::new(me, n)
    }

    /// The `after` predicate is ignored: vector-clock causality already
    /// orders the broadcast after everything delivered locally, which
    /// covers (and over-approximates) any deliverable `Occurs-After` set.
    fn send_timed(
        &mut self,
        op: P,
        _after: OccursAfter,
        sent_at: SimTime,
        released: &mut Vec<Timed<VtEnvelope<P>>>,
    ) -> Timed<VtEnvelope<P>> {
        let timed = Timed {
            env: self.broadcast(op),
            sent_at,
        };
        released.push(timed.clone());
        timed
    }

    fn on_receive_timed(
        &mut self,
        timed: Timed<VtEnvelope<P>>,
        released: &mut Vec<Timed<VtEnvelope<P>>>,
    ) {
        let origin = timed.env.id.origin();
        match self.vt.delivery_check(&timed.env.vt, origin) {
            DeliveryCheck::Deliverable => {
                self.deliver(timed, released);
                self.drain_from(origin, released);
            }
            DeliveryCheck::Duplicate => {
                self.duplicates += 1;
            }
            DeliveryCheck::MissingFromSender { .. } | DeliveryCheck::MissingPredecessor { .. } => {
                self.buffer(timed);
            }
        }
    }

    fn view<'a>(env: &'a VtEnvelope<P>) -> Delivered<'a, P> {
        Delivered {
            id: env.id,
            deps: None,
            payload: &env.payload,
        }
    }

    fn clock_of(env: &VtEnvelope<P>) -> Option<&VectorClock> {
        Some(&env.vt)
    }

    fn pending_len(&self) -> usize {
        self.buffered
    }

    fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// The ids of `released`, in release order.
    fn ids<P>(released: &[VtEnvelope<P>]) -> Vec<MsgId> {
        released.iter().map(|e| e.id).collect()
    }

    #[test]
    fn own_broadcast_self_delivers() {
        let mut e = CbcastEngine::new(p(0), 2);
        let (env, released) = e.send('x', OccursAfter::none());
        assert_eq!(env.id, MsgId::new(p(0), 1));
        assert_eq!(ids(&released), [env.id]);
        assert_eq!(e.clock().get(p(0)), 1);
    }

    #[test]
    fn in_order_delivery() {
        let mut tx = CbcastEngine::new(p(0), 2);
        let mut rx = CbcastEngine::new(p(1), 2);
        let m1 = tx.broadcast(1);
        let m2 = tx.broadcast(2);
        let mut out = Vec::new();
        rx.on_receive_into(m1.clone(), &mut out);
        assert_eq!(out.len(), 1);
        rx.on_receive_into(m2.clone(), &mut out);
        assert_eq!(ids(&out), [m1.id, m2.id]);
    }

    #[test]
    fn reordered_sender_stream_is_fixed() {
        let mut tx = CbcastEngine::new(p(0), 2);
        let mut rx = CbcastEngine::new(p(1), 2);
        let m1 = tx.broadcast(1);
        let m2 = tx.broadcast(2);
        assert!(rx.on_receive(m2.clone()).is_empty());
        assert_eq!(rx.pending_len(), 1);
        let out = rx.on_receive(m1.clone());
        assert_eq!(
            out.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn cross_sender_causality_enforced() {
        // p0 broadcasts a; p1 delivers a then broadcasts b (b causally
        // after a). p2 receiving b first must wait for a.
        let mut p0 = CbcastEngine::new(p(0), 3);
        let mut p1 = CbcastEngine::new(p(1), 3);
        let mut p2 = CbcastEngine::new(p(2), 3);
        let a = p0.broadcast('a');
        p1.on_receive(a.clone());
        let b = p1.broadcast('b');
        assert!(p2.on_receive(b.clone()).is_empty());
        let out = p2.on_receive(a.clone());
        assert_eq!(
            out.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec!['a', 'b']
        );
    }

    #[test]
    fn concurrent_messages_deliver_either_order() {
        let mut p0 = CbcastEngine::new(p(0), 3);
        let mut p1 = CbcastEngine::new(p(1), 3);
        let a = p0.broadcast('a');
        let b = p1.broadcast('b');
        assert!(a.vt.concurrent_with(&b.vt));
        let mut rx1 = CbcastEngine::new(p(2), 3);
        assert_eq!(rx1.on_receive(a.clone()).len(), 1);
        assert_eq!(rx1.on_receive(b.clone()).len(), 1);
        let mut rx2 = CbcastEngine::new(p(2), 3);
        assert_eq!(rx2.on_receive(b.clone()).len(), 1);
        assert_eq!(rx2.on_receive(a.clone()).len(), 1);
    }

    #[test]
    fn duplicates_absorbed() {
        let mut tx = CbcastEngine::new(p(0), 2);
        let mut rx = CbcastEngine::new(p(1), 2);
        let m1 = tx.broadcast(1);
        rx.on_receive(m1.clone());
        assert!(rx.on_receive(m1.clone()).is_empty());
        assert_eq!(rx.duplicates(), 1);

        // Duplicate of a buffered (not yet deliverable) message.
        let m2 = tx.broadcast(2);
        let m3 = tx.broadcast(3);
        assert!(rx.on_receive(m3.clone()).is_empty());
        assert!(rx.on_receive(m3.clone()).is_empty());
        assert_eq!(rx.duplicates(), 2);
        assert_eq!(rx.on_receive(m2.clone()).len(), 2);
    }

    #[test]
    fn incidental_ordering_is_captured() {
        // p1 delivers p0's a *before* broadcasting b, even though the
        // application never related them: CBCAST still orders a -> b.
        // This is the "potential causality" cost the paper's OSend avoids.
        let mut p0 = CbcastEngine::new(p(0), 3);
        let mut p1 = CbcastEngine::new(p(1), 3);
        let a = p0.broadcast('a');
        p1.on_receive(a.clone());
        let b = p1.broadcast('b');
        assert!(a.vt.precedes(&b.vt));
    }

    #[test]
    fn deep_reorder_cascades_in_sequence_order() {
        // A whole sender stream arriving reversed: the last arrival must
        // release every buffered message, in sequence order, through the
        // per-origin queue (the indexed engine's worst-case burst).
        let mut tx = CbcastEngine::new(p(0), 2);
        let mut rx = CbcastEngine::new(p(1), 2);
        let msgs: Vec<_> = (0..50).map(|k| tx.broadcast(k)).collect();
        for m in msgs.iter().skip(1).rev() {
            assert!(rx.on_receive(m.clone()).is_empty());
        }
        assert_eq!(rx.pending_len(), 49);
        let out = rx.on_receive(msgs[0].clone());
        assert_eq!(out.len(), 50);
        let payloads: Vec<i32> = out.iter().map(|e| e.payload).collect();
        assert_eq!(payloads, (0..50).collect::<Vec<_>>());
        assert_eq!(rx.pending_len(), 0);
    }

    #[test]
    fn cross_origin_wake_chain() {
        // p0's b depends on p1's a; p2 buffers both, then receives the
        // missing predecessor last. The wake must hop across origins.
        let mut p0 = CbcastEngine::new(p(0), 3);
        let mut p1 = CbcastEngine::new(p(1), 3);
        let mut p2 = CbcastEngine::new(p(2), 3);
        let a1 = p1.broadcast('a');
        let a2 = p1.broadcast('A');
        p0.on_receive(a1.clone());
        p0.on_receive(a2.clone());
        let b = p0.broadcast('b');
        assert!(p2.on_receive(b.clone()).is_empty());
        assert!(p2.on_receive(a2.clone()).is_empty());
        assert_eq!(p2.pending_len(), 2);
        let out = p2.on_receive(a1.clone());
        assert_eq!(
            out.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec!['a', 'A', 'b']
        );
    }

    #[test]
    #[should_panic(expected = "outside group")]
    fn member_outside_group_rejected() {
        let _ = CbcastEngine::<u8>::new(p(5), 3);
    }
}
