//! Explicit-graph causal delivery: a message waits for its declared
//! dependencies only.

use super::{Delivered, DeliveryEngine};
use crate::osend::{GraphEnvelope, OSender, OccursAfter};
use causal_clocks::{IdWindow, MsgId, ProcessId, VectorClock};

/// Per-member delivery engine for [`GraphEnvelope`]s.
///
/// Messages are released to the application as soon as every id in their
/// `deps` set has been delivered — the delivery rule of the paper's
/// `OSend` model: *"a member of G changes from its current state to a new
/// state by processing Msg in the context of causal relation m → Msg"*
/// (§3.3). Duplicates are absorbed, out-of-order arrivals are buffered,
/// and deliveries cascade (one arrival can release a chain of waiters).
///
/// The engine keeps no copy of the dependency graph `R(M)`: the released
/// envelopes carry it, and a tracing stack rebuilds it from its
/// [`MemberTrace`](crate::trace::MemberTrace::graph).
///
/// Cascading releases are driven by per-message missing-dependency
/// counters: each delivery decrements the counters of its registered
/// waiters and releases those that reach zero, so a cascade costs
/// O(released + waiter registrations touched) rather than re-checking
/// every dependency of every waiter. The seed full-rescan implementation
/// is preserved as
/// [`reference::ScanGraphDelivery`](crate::delivery::reference::ScanGraphDelivery)
/// and the equivalence proptests pin this engine to its delivery order.
///
/// # Examples
///
/// ```
/// use causal_clocks::ProcessId;
/// use causal_core::delivery::{DeliveryEngine, GraphDelivery};
/// use causal_core::osend::{OSender, OccursAfter};
///
/// let mut tx = OSender::new(ProcessId::new(0));
/// let a = tx.osend("a", OccursAfter::none());
/// let b = tx.osend("b", OccursAfter::message(a.id));
///
/// let mut rx = GraphDelivery::new();
/// assert!(rx.on_receive(b.clone()).is_empty());       // b buffered
/// let released = rx.on_receive(a.clone());            // a releases both
/// let order: Vec<_> = released.iter().map(|e| e.payload).collect();
/// assert_eq!(order, vec!["a", "b"]);
/// ```
#[derive(Debug, Clone)]
pub struct GraphDelivery<P> {
    /// Per-message state. Each origin's floor is its compacted prefix:
    /// ids at or below it are known delivered-and-stable though their
    /// slots were dropped.
    slots: IdWindow<Slot<P>>,
    /// Slots holding a buffered message.
    pending: usize,
    duplicates: u64,
    /// Emptied waiter lists, for the next dependency that gains a waiter:
    /// the cascade returns each list it has worked through, so buffering
    /// reuses the same few allocations. There are never more of them than
    /// dependencies that once had waiters at the same time.
    spare_waiters: Vec<Vec<MsgId>>,
    /// Sending endpoint, present when the engine was built for a member
    /// (see [`DeliveryEngine::for_member`]). Receive-only engines
    /// (validators, tests) have none.
    sender: Option<OSender>,
}

/// What the engine knows about one message id.
#[derive(Debug, Clone)]
struct Slot<P> {
    /// Messages waiting on this one, in registration order. A delivery
    /// counts against them at once; the cascade drains the list when it
    /// reaches this message.
    waiters: Vec<MsgId>,
    state: State<P>,
}

#[derive(Debug, Clone)]
enum State<P> {
    /// Named as a dependency, not received yet.
    Awaited,
    /// Received, with `missing` dependencies still undelivered.
    Pending {
        env: GraphEnvelope<P>,
        missing: usize,
    },
    Delivered,
}

impl<P> Default for Slot<P> {
    fn default() -> Self {
        Slot {
            waiters: Vec::new(),
            state: State::Awaited,
        }
    }
}

impl<P> GraphDelivery<P> {
    /// Creates a receive-only engine with nothing delivered.
    pub fn new() -> Self {
        GraphDelivery {
            slots: IdWindow::new(),
            pending: 0,
            duplicates: 0,
            spare_waiters: Vec::new(),
            sender: None,
        }
    }

    fn is_satisfied(&self, dep: MsgId) -> bool {
        match self.slots.get(dep) {
            Some(slot) => matches!(slot.state, State::Delivered),
            None => self.slots.is_retired(dep),
        }
    }

    fn deliver(&mut self, env: GraphEnvelope<P>) -> GraphEnvelope<P> {
        let id = env.id;
        let slot = self
            .slots
            .get_or_insert_with(id, Slot::default)
            .expect("a delivered id lies above the floor");
        slot.state = State::Delivered;
        // Count the delivery against every waiter registered on this id
        // now (registrations are only consumed later, when the cascade
        // reaches this message), so a waiter's counter always reflects the
        // full delivered set — exactly what the reference engine's re-check
        // against `delivered` sees.
        let waiters = std::mem::take(&mut slot.waiters);
        if !waiters.is_empty() {
            for &w in &waiters {
                if let Some(Slot {
                    state: State::Pending { missing, .. },
                    ..
                }) = self.slots.get_mut(w)
                {
                    *missing -= 1;
                }
            }
            self.slots
                .get_mut(id)
                .expect("the slot was just marked delivered")
                .waiters = waiters;
        }
        env
    }

    /// Releases any pending messages whose last dependency just arrived,
    /// transitively. Counters are decremented in [`deliver`](Self::deliver)
    /// the instant a message lands; this pass walks the released messages
    /// in FIFO order and emits each waiter whose counter has reached zero
    /// at its earliest registration encounter — the same release order as
    /// the reference engine's full dependency re-check, without ever
    /// re-checking a dependency (each registration is touched twice: one
    /// decrement, one readiness glance).
    fn cascade(&mut self, released: &mut Vec<GraphEnvelope<P>>) {
        let mut i = released.len() - 1;
        while i < released.len() {
            let just = released[i].id;
            let mut waiters = self
                .slots
                .get_mut(just)
                .map(|slot| std::mem::take(&mut slot.waiters))
                .unwrap_or_default();
            for &w in &waiters {
                let Some(slot) = self.slots.get_mut(w) else {
                    continue;
                };
                if let State::Pending { missing: 0, .. } = slot.state {
                    let State::Pending { env, .. } =
                        std::mem::replace(&mut slot.state, State::Delivered)
                    else {
                        unreachable!("matched as pending above");
                    };
                    self.pending -= 1;
                    released.push(self.deliver(env));
                }
            }
            if waiters.capacity() > 0 {
                waiters.clear();
                self.spare_waiters.push(waiters);
            }
            i += 1;
        }
    }

    /// `true` if `id` has been delivered to the application and not yet
    /// compacted.
    pub fn is_delivered(&self, id: MsgId) -> bool {
        matches!(
            self.slots.get(id),
            Some(Slot {
                state: State::Delivered,
                ..
            })
        )
    }

    /// Ids currently buffered awaiting dependencies, in (origin, seq)
    /// order.
    pub fn pending_ids(&self) -> impl Iterator<Item = MsgId> + '_ {
        self.slots
            .iter()
            .filter(|(_, slot)| matches!(slot.state, State::Pending { .. }))
            .map(|(id, _)| id)
    }

    /// Slots allocated for per-message state, empty or not.
    #[cfg(test)]
    fn slot_capacity(&self) -> usize {
        self.slots.slot_capacity()
    }
}

impl<P> Default for GraphDelivery<P> {
    fn default() -> Self {
        GraphDelivery::new()
    }
}

impl<P: Clone> DeliveryEngine for GraphDelivery<P> {
    type Op = P;
    type Envelope = GraphEnvelope<P>;

    /// Group size is irrelevant to the explicit-graph engine: ordering
    /// state is per-message, not per-member.
    fn for_member(me: ProcessId, _n: usize) -> Self {
        let mut engine = GraphDelivery::new();
        engine.sender = Some(OSender::new(me));
        engine
    }

    fn send_into(
        &mut self,
        op: P,
        after: OccursAfter,
        released: &mut Vec<GraphEnvelope<P>>,
    ) -> GraphEnvelope<P> {
        let env = self
            .sender
            .as_mut()
            .expect("receive-only engine cannot send (construct with for_member)")
            .osend(op, after);
        self.on_receive_into(env.clone(), released);
        env
    }

    /// Missing dependencies are counted in place and cascades extend
    /// `released` directly, so a steady-state arrival allocates nothing.
    fn on_receive_into(&mut self, env: GraphEnvelope<P>, released: &mut Vec<GraphEnvelope<P>>) {
        let fresh = match self.slots.get(env.id) {
            Some(slot) => matches!(slot.state, State::Awaited),
            None => !self.slots.is_retired(env.id),
        };
        if !fresh {
            self.duplicates += 1;
            return;
        }
        let missing = env.deps.iter().filter(|&&d| !self.is_satisfied(d)).count();
        if missing == 0 {
            let delivered = self.deliver(env);
            released.push(delivered);
            self.cascade(released);
        } else {
            for &d in env.deps.iter() {
                if !self.is_satisfied(d) {
                    let waiters = &mut self
                        .slots
                        .get_or_insert_with(d, Slot::default)
                        .expect("an unsatisfied dependency lies above the floor")
                        .waiters;
                    if waiters.capacity() == 0 {
                        if let Some(spare) = self.spare_waiters.pop() {
                            *waiters = spare;
                        }
                    }
                    waiters.push(env.id);
                }
            }
            self.pending += 1;
            let slot = self
                .slots
                .get_or_insert_with(env.id, Slot::default)
                .expect("a fresh id lies above the floor");
            slot.state = State::Pending { env, missing };
        }
    }

    fn view<'a>(env: &'a GraphEnvelope<P>) -> Delivered<'a, P> {
        Delivered::from_graph(env)
    }

    fn pending_len(&self) -> usize {
        self.pending
    }

    fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Forgets per-message state for the globally **stable** prefix: ids
    /// with `seq <= stable[origin]` are dropped, and future references to
    /// them (duplicates, dependencies) are resolved against the raised
    /// floor instead. Only the slots that just became stable are touched.
    ///
    /// Soundness requires `stable` to really be a stable prefix (delivered
    /// at every member — see
    /// [`StabilityTracker`](crate::stability::StabilityTracker)): only
    /// then are all of its ids delivered here, with no *pending* message
    /// at any member waiting on one of them.
    fn compact(&mut self, stable: &VectorClock) {
        self.slots.compact(stable);
    }

    /// Retained per-message bookkeeping entries (the quantity compaction
    /// bounds): one window slot per id the engine holds state for,
    /// whether delivered, buffered, or named as a dependency and awaited.
    fn retained_len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osend::{OSender, OccursAfter};
    use causal_clocks::ProcessId;

    fn senders(n: u32) -> Vec<OSender> {
        (0..n).map(|i| OSender::new(ProcessId::new(i))).collect()
    }

    /// The ids of `released`, in release order.
    fn ids<P>(released: &[GraphEnvelope<P>]) -> Vec<MsgId> {
        released.iter().map(|e| e.id).collect()
    }

    #[test]
    fn unconstrained_delivers_immediately() {
        let mut tx = senders(1);
        let mut rx = GraphDelivery::new();
        let env = tx[0].osend(1u8, OccursAfter::none());
        let out = rx.on_receive(env.clone());
        assert!(rx.is_delivered(env.id));
        assert_eq!(ids(&out), [env.id]);
    }

    #[test]
    fn buffers_until_dependency_arrives() {
        let mut tx = senders(1);
        let a = tx[0].osend('a', OccursAfter::none());
        let b = tx[0].osend('b', OccursAfter::message(a.id));
        let mut rx = GraphDelivery::new();
        assert!(rx.on_receive(b.clone()).is_empty());
        assert_eq!(rx.pending_len(), 1);
        let out = rx.on_receive(a.clone());
        assert_eq!(
            out.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec!['a', 'b']
        );
        assert_eq!(rx.pending_len(), 0);
    }

    #[test]
    fn cascades_through_chains() {
        // a <- b <- c <- d arriving in reverse order.
        let mut tx = senders(1);
        let a = tx[0].osend(0u8, OccursAfter::none());
        let b = tx[0].osend(1u8, OccursAfter::message(a.id));
        let c = tx[0].osend(2u8, OccursAfter::message(b.id));
        let d = tx[0].osend(3u8, OccursAfter::message(c.id));
        let mut rx = GraphDelivery::new();
        assert!(rx.on_receive(d.clone()).is_empty());
        assert!(rx.on_receive(c.clone()).is_empty());
        assert!(rx.on_receive(b.clone()).is_empty());
        let out = rx.on_receive(a.clone());
        assert_eq!(ids(&out), [a.id, b.id, c.id, d.id]);
    }

    #[test]
    fn and_dependency_waits_for_all() {
        let mut tx = senders(3);
        let a = tx[0].osend('a', OccursAfter::none());
        let b = tx[1].osend('b', OccursAfter::none());
        let sync = tx[2].osend('s', OccursAfter::all([a.id, b.id]));
        let mut rx = GraphDelivery::new();
        assert!(rx.on_receive(sync.clone()).is_empty());
        assert_eq!(rx.on_receive(a.clone()).len(), 1); // only a
        let out = rx.on_receive(b.clone());
        assert_eq!(
            out.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec!['b', 's']
        );
    }

    #[test]
    fn duplicates_absorbed_pending_and_delivered() {
        let mut tx = senders(1);
        let a = tx[0].osend('a', OccursAfter::none());
        let b = tx[0].osend('b', OccursAfter::message(a.id));
        let mut rx = GraphDelivery::new();
        let mut out = Vec::new();
        rx.on_receive_into(b.clone(), &mut out);
        rx.on_receive_into(b.clone(), &mut out); // duplicate while pending
        rx.on_receive_into(a.clone(), &mut out);
        rx.on_receive_into(a.clone(), &mut out); // duplicate after delivery
        assert_eq!(rx.duplicates(), 2);
        assert_eq!(ids(&out), [a.id, b.id]);
    }

    #[test]
    fn concurrent_messages_deliver_in_arrival_order() {
        let mut tx = senders(2);
        let a = tx[0].osend('a', OccursAfter::none());
        let b = tx[1].osend('b', OccursAfter::none());
        let (mut out1, mut out2) = (Vec::new(), Vec::new());
        let mut rx1 = GraphDelivery::new();
        rx1.on_receive_into(a.clone(), &mut out1);
        rx1.on_receive_into(b.clone(), &mut out1);
        let mut rx2 = GraphDelivery::new();
        rx2.on_receive_into(b.clone(), &mut out2);
        rx2.on_receive_into(a.clone(), &mut out2);
        // Different orders at different members — allowed for concurrent
        // messages.
        assert_eq!(ids(&out1), [a.id, b.id]);
        assert_eq!(ids(&out2), [b.id, a.id]);
    }

    #[test]
    fn diamond_releases_once() {
        // a <- {b, c} <- d; arrival order d, b, c, a.
        let mut tx = senders(4);
        let a = tx[0].osend('a', OccursAfter::none());
        let b = tx[1].osend('b', OccursAfter::message(a.id));
        let c = tx[2].osend('c', OccursAfter::message(a.id));
        let d = tx[3].osend('d', OccursAfter::all([b.id, c.id]));
        let mut rx = GraphDelivery::new();
        assert!(rx.on_receive(d.clone()).is_empty());
        assert!(rx.on_receive(b.clone()).is_empty());
        assert!(rx.on_receive(c.clone()).is_empty());
        let out = ids(&rx.on_receive(a.clone()));
        assert_eq!(out.len(), 4);
        assert_eq!(out.first(), Some(&a.id));
        assert_eq!(out.last(), Some(&d.id));
        // d delivered exactly once despite two waiter registrations.
        assert_eq!(out.iter().filter(|&&m| m == d.id).count(), 1);
    }

    #[test]
    fn compact_prunes_stable_prefix() {
        let mut tx = senders(1);
        let mut rx = GraphDelivery::new();
        let mut sent = Vec::new();
        let mut out = Vec::new();
        let mut prev: Option<MsgId> = None;
        for k in 0..6u8 {
            let after = prev.map_or(OccursAfter::none(), OccursAfter::message);
            let env = tx[0].osend(k, after);
            prev = Some(env.id);
            sent.push(env.id);
            rx.on_receive_into(env, &mut out);
        }
        assert_eq!(ids(&out), sent);
        // One slot per delivered message.
        assert_eq!(rx.retained_len(), 6);
        // First four messages are stable everywhere.
        rx.compact(&VectorClock::from_entries([4]));
        assert_eq!(rx.retained_len(), 2);
        // Duplicates of compacted ids are absorbed.
        let dup = GraphEnvelope {
            id: sent[0],
            deps: Default::default(),
            payload: 0u8,
        };
        assert!(rx.on_receive(dup).is_empty());
        assert_eq!(rx.duplicates(), 1);
    }

    #[test]
    fn deps_on_compacted_messages_are_satisfied() {
        let mut tx = senders(1);
        let mut rx = GraphDelivery::new();
        let a = tx[0].osend('a', OccursAfter::none());
        rx.on_receive(a.clone());
        rx.compact(&VectorClock::from_entries([1]));
        // A new message depending on the compacted `a` delivers at once.
        let b = tx[0].osend('b', OccursAfter::message(a.id));
        assert_eq!(rx.on_receive(b).len(), 1);
    }

    #[test]
    fn compact_thresholds_merge_monotonically() {
        let mut tx = senders(1);
        let mut rx = GraphDelivery::new();
        let a = tx[0].osend('a', OccursAfter::none());
        let b = tx[0].osend('b', OccursAfter::message(a.id));
        rx.on_receive(a);
        rx.on_receive(b);
        rx.compact(&VectorClock::from_entries([2]));
        rx.compact(&VectorClock::from_entries([1])); // older info: no-op
        assert_eq!(rx.retained_len(), 0);
    }

    #[test]
    fn pending_ids_reports_buffer() {
        let mut tx = senders(1);
        let a = tx[0].osend('a', OccursAfter::none());
        let b = tx[0].osend('b', OccursAfter::message(a.id));
        let mut rx = GraphDelivery::new();
        rx.on_receive(b.clone());
        assert_eq!(rx.pending_ids().collect::<Vec<_>>(), vec![b.id]);
    }

    #[test]
    fn origins_outside_the_compacted_width_get_set_verdicts() {
        // After a compaction sized to one origin, ids of an origin beyond
        // its width (a joiner, or a corrupt frame) are delivered, absorbed
        // as duplicates and buffered exactly as without compaction.
        let mut tx = senders(1);
        let mut rx = GraphDelivery::new();
        rx.on_receive(tx[0].osend(0u8, OccursAfter::none()));
        rx.compact(&VectorClock::from_entries([1]));
        let mut far = OSender::new(ProcessId::new(u32::MAX));
        let a = far.osend(1u8, OccursAfter::none());
        let b = far.osend(2u8, OccursAfter::message(a.id));
        let c = far.osend(3u8, OccursAfter::message(b.id));
        let mut out = Vec::new();
        rx.on_receive_into(a.clone(), &mut out);
        assert_eq!(out.len(), 1);
        rx.on_receive_into(a, &mut out);
        assert_eq!(rx.duplicates(), 1);
        rx.on_receive_into(c.clone(), &mut out);
        assert_eq!(rx.pending_ids().collect::<Vec<_>>(), vec![c.id]);
        rx.compact(&VectorClock::from_entries([1]));
        rx.on_receive_into(b, &mut out);
        assert_eq!(out.iter().map(|e| e.payload).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(rx.retained_len(), 3);
    }

    #[test]
    fn far_sequence_numbers_allocate_no_slots_for_the_gap() {
        let mut tx = senders(1);
        let mut rx = GraphDelivery::new();
        let a = tx[0].osend(0u8, OccursAfter::none());
        rx.on_receive(a.clone());
        let far = MsgId::new(ProcessId::new(0), u64::MAX - 1);
        // As a dependency: the waiter buffers behind an id nobody sent.
        let waiter = tx[0].osend(1u8, OccursAfter::all([a.id, far]));
        assert!(rx.on_receive(waiter).is_empty());
        // As the id itself.
        let stray = GraphEnvelope {
            id: far,
            deps: Default::default(),
            payload: 2u8,
        };
        assert_eq!(rx.on_receive(stray.clone()).len(), 2);
        assert!(rx.on_receive(stray).is_empty());
        assert_eq!(rx.duplicates(), 1);
        assert!(rx.slot_capacity() < 64, "{}", rx.slot_capacity());
    }

    #[test]
    fn non_gc_memory_follows_the_live_entries_under_bounded_reorder() {
        // 100,000 messages from four origins, each depending on its
        // origin's previous one, arrive shuffled within blocks of 32: the
        // window holds every delivered id (nothing is compacted), but no
        // arrival ahead of its predecessor allocates slots beyond the
        // reorder window.
        const ORIGINS: u32 = 4;
        const PER_ORIGIN: u64 = 25_000;
        const BLOCK: usize = 32;
        let mut stream: Vec<GraphEnvelope<u64>> = Vec::new();
        for seq in 1..=PER_ORIGIN {
            for o in 0..ORIGINS {
                let id = MsgId::new(ProcessId::new(o), seq);
                let deps = if seq > 1 {
                    [MsgId::new(ProcessId::new(o), seq - 1)].into()
                } else {
                    Default::default()
                };
                stream.push(GraphEnvelope {
                    id,
                    deps,
                    payload: seq,
                });
            }
        }
        // Deterministic in-block shuffle (reversal plus rotation).
        for (k, block) in stream.chunks_mut(BLOCK).enumerate() {
            block.reverse();
            block.rotate_left(k % BLOCK.min(block.len()));
        }
        let mut rx = GraphDelivery::new();
        let mut out = Vec::new();
        for env in stream {
            rx.on_receive_into(env, &mut out);
            let live = rx.slots.len();
            assert!(
                rx.slot_capacity() <= 2 * (live + BLOCK) + 16 * ORIGINS as usize,
                "capacity {} for {live} live entries",
                rx.slot_capacity()
            );
        }
        assert_eq!(out.len(), (ORIGINS as u64 * PER_ORIGIN) as usize);
        assert_eq!(rx.pending_len(), 0);
    }
}
