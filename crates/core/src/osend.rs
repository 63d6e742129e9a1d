//! The `OSend` primitive: explicit, predicate-style causal ordering.
//!
//! §3.3 of the paper: *"A member may encapsulate a causal relation in a
//! `OSend` primitive that takes the form `OSend(Msg, G, Occurs-After(m))`"*
//! — a message is handed to the group together with the set of messages it
//! must be processed after. An AND dependency `Occurs-After(m₁ ∧ m₂ ∧ …)`
//! (relation (3) in the paper) orders a message after *all* of a set of
//! predecessors, which is how synchronization messages close a set of
//! concurrent messages.
//!
//! Unlike vector-clock causality — which infers ordering from the
//! *incidental* order in which a process happened to deliver messages —
//! `OSend` carries the application's *semantic* ordering only (the paper's
//! footnote 1, after Cheriton & Skeen). The ablation benches quantify the
//! difference.

use causal_clocks::{MsgId, ProcessId};
use std::fmt;
use std::sync::Arc;

/// The ordering predicate of an `OSend`: the set of messages the new
/// message must occur after (an AND dependency; empty = unconstrained).
///
/// # Examples
///
/// ```
/// use causal_clocks::{MsgId, ProcessId};
/// use causal_core::osend::OccursAfter;
///
/// let m1 = MsgId::new(ProcessId::new(0), 1);
/// let m2 = MsgId::new(ProcessId::new(1), 1);
///
/// assert!(OccursAfter::none().is_unconstrained());
/// assert_eq!(OccursAfter::message(m1).deps(), &[m1]);
/// assert_eq!(OccursAfter::all([m2, m1, m1]).deps(), &[m1, m2]); // sorted, deduped
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct OccursAfter {
    /// Shared with every envelope [`OSender::osend`] stamps with it.
    deps: Arc<[MsgId]>,
}

impl OccursAfter {
    /// No ordering constraint (the paper's `m = NULL` case).
    pub fn none() -> Self {
        OccursAfter::default()
    }

    /// Occurs after a single message.
    pub fn message(m: MsgId) -> Self {
        OccursAfter {
            deps: Arc::from([m]),
        }
    }

    /// Occurs after *all* of the given messages (AND dependency).
    /// Duplicates are removed and the set is kept sorted.
    pub fn all<I: IntoIterator<Item = MsgId>>(deps: I) -> Self {
        let mut deps: Vec<_> = deps.into_iter().collect();
        deps.sort_unstable();
        deps.dedup();
        OccursAfter { deps: share(deps) }
    }

    /// The (sorted) dependency set.
    pub fn deps(&self) -> &[MsgId] {
        &self.deps
    }

    /// `true` if the message can be processed without constraint.
    pub fn is_unconstrained(&self) -> bool {
        self.deps.is_empty()
    }

    /// Number of direct dependencies.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// `true` when there are no dependencies.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }
}

/// One shared allocation holding `deps`; an empty set allocates nothing.
pub(crate) fn share(deps: Vec<MsgId>) -> Arc<[MsgId]> {
    if deps.is_empty() {
        Arc::default()
    } else {
        deps.into()
    }
}

impl fmt::Display for OccursAfter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.deps.is_empty() {
            return write!(f, "occurs-after(NULL)");
        }
        write!(f, "occurs-after(")?;
        for (i, d) in self.deps.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<MsgId> for OccursAfter {
    fn from_iter<I: IntoIterator<Item = MsgId>>(iter: I) -> Self {
        OccursAfter::all(iter)
    }
}

/// A message as broadcast by `OSend`: identity, AND-dependency set, and
/// application payload.
///
/// The envelope *is* the wire representation used by the delivery engines:
/// a member may process `payload` only after every id in `deps` has been
/// processed.
///
/// The dependency set is shared, not owned: every copy of a message (each
/// multicast leg, the reliability layer's retained copy, a relay, the
/// membership store) points at the one set its sender stamped, so copying
/// an envelope copies its payload and bumps a reference count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphEnvelope<P> {
    /// Unique message identity (origin + per-origin sequence).
    pub id: MsgId,
    /// Sorted AND-set of direct causal predecessors.
    pub deps: Arc<[MsgId]>,
    /// The application payload (a data-access operation).
    pub payload: P,
}

impl<P> GraphEnvelope<P> {
    /// Maps the payload, keeping identity and dependencies.
    pub fn map<Q>(self, f: impl FnOnce(P) -> Q) -> GraphEnvelope<Q> {
        GraphEnvelope {
            id: self.id,
            deps: self.deps,
            payload: f(self.payload),
        }
    }
}

/// Per-member sending endpoint: assigns message identities and packages
/// payloads with their [`OccursAfter`] predicates.
///
/// # Examples
///
/// ```
/// use causal_clocks::ProcessId;
/// use causal_core::osend::{OSender, OccursAfter};
///
/// let mut tx = OSender::new(ProcessId::new(0));
/// let a = tx.osend("inc", OccursAfter::none());
/// let b = tx.osend("read", OccursAfter::message(a.id));
/// assert_eq!(b.id.seq(), 2);
/// assert_eq!(*b.deps, [a.id]);
/// assert_eq!(tx.last_sent(), Some(b.id));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OSender {
    me: ProcessId,
    next_seq: u64,
}

impl OSender {
    /// Creates the endpoint for member `me`. Sequence numbers start at 1.
    pub fn new(me: ProcessId) -> Self {
        OSender { me, next_seq: 1 }
    }

    /// The owning member.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Packages `payload` for broadcast, ordered after `after`.
    ///
    /// This is the paper's `OSend(Msg, G, Occurs-After(..))` minus the
    /// transport: the returned envelope is handed to a broadcast layer
    /// (e.g. [`rbcast`](crate::rbcast)) for dissemination to the group `G`.
    pub fn osend<P>(&mut self, payload: P, after: OccursAfter) -> GraphEnvelope<P> {
        let id = MsgId::new(self.me, self.next_seq);
        self.next_seq += 1;
        GraphEnvelope {
            id,
            deps: after.deps,
            payload,
        }
    }

    /// The paper's `ASend({m'_1, m'_2, …}, Occurs-After(Msg))` (§5.2,
    /// relation (5)) realized with ordering metadata alone: the set of
    /// payloads is emitted as a **chain** after `after`, so every member
    /// processes them in exactly this (arbitrary but fixed) sequence —
    /// `Msg → m'_1 → m'_2 → …` at all members.
    ///
    /// This form suits one member totally ordering a batch it originates;
    /// for total order over *spontaneous* messages from many members use
    /// [`DeterministicMerge`](crate::total::DeterministicMerge) or the
    /// [`Sequencer`](crate::total::Sequencer).
    pub fn asend<P, I>(&mut self, payloads: I, after: OccursAfter) -> Vec<GraphEnvelope<P>>
    where
        I: IntoIterator<Item = P>,
    {
        let mut prev = after;
        payloads
            .into_iter()
            .map(|payload| {
                let env = self.osend(payload, prev.clone());
                prev = OccursAfter::message(env.id);
                env
            })
            .collect()
    }

    /// The id of the most recently sent message, if any.
    pub fn last_sent(&self) -> Option<MsgId> {
        if self.next_seq == 1 {
            None
        } else {
            Some(MsgId::new(self.me, self.next_seq - 1))
        }
    }

    /// How many messages this endpoint has sent.
    pub fn sent_count(&self) -> u64 {
        self.next_seq - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid(p: u32, s: u64) -> MsgId {
        MsgId::new(ProcessId::new(p), s)
    }

    #[test]
    fn occurs_after_none_is_unconstrained() {
        let oa = OccursAfter::none();
        assert!(oa.is_unconstrained());
        assert!(oa.is_empty());
        assert_eq!(oa.len(), 0);
    }

    #[test]
    fn occurs_after_all_sorts_and_dedups() {
        let oa = OccursAfter::all([mid(1, 2), mid(0, 1), mid(1, 2)]);
        assert_eq!(oa.deps(), &[mid(0, 1), mid(1, 2)]);
        assert_eq!(oa.len(), 2);
    }

    #[test]
    fn occurs_after_from_iterator() {
        let oa: OccursAfter = [mid(0, 2), mid(0, 1)].into_iter().collect();
        assert_eq!(oa.deps(), &[mid(0, 1), mid(0, 2)]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(OccursAfter::none().to_string(), "occurs-after(NULL)");
        let oa = OccursAfter::all([mid(0, 1), mid(1, 1)]);
        assert_eq!(oa.to_string(), "occurs-after(p0#1 ∧ p1#1)");
    }

    #[test]
    fn osender_assigns_increasing_seq() {
        let mut tx = OSender::new(ProcessId::new(3));
        assert_eq!(tx.last_sent(), None);
        assert_eq!(tx.sent_count(), 0);
        let a = tx.osend(1u8, OccursAfter::none());
        let b = tx.osend(2u8, OccursAfter::none());
        assert_eq!(a.id, mid(3, 1));
        assert_eq!(b.id, mid(3, 2));
        assert_eq!(tx.sent_count(), 2);
    }

    #[test]
    fn envelope_carries_deps() {
        let mut tx = OSender::new(ProcessId::new(0));
        let a = tx.osend((), OccursAfter::none());
        let env = tx.osend((), OccursAfter::all([a.id, mid(7, 9)]));
        assert_eq!(*env.deps, [a.id, mid(7, 9)]);
    }

    #[test]
    fn asend_chains_the_batch() {
        let mut tx = OSender::new(ProcessId::new(0));
        let root = tx.osend('r', OccursAfter::none());
        let batch = tx.asend(['a', 'b', 'c'], OccursAfter::message(root.id));
        assert_eq!(batch.len(), 3);
        assert_eq!(*batch[0].deps, [root.id]);
        assert_eq!(*batch[1].deps, [batch[0].id]);
        assert_eq!(*batch[2].deps, [batch[1].id]);
    }

    #[test]
    fn asend_empty_batch_is_empty() {
        let mut tx = OSender::new(ProcessId::new(0));
        let out: Vec<GraphEnvelope<u8>> = tx.asend([], OccursAfter::none());
        assert!(out.is_empty());
        assert_eq!(tx.sent_count(), 0);
    }

    #[test]
    fn asend_order_identical_at_all_receivers() {
        use crate::delivery::{DeliveryEngine, GraphDelivery};
        let mut tx = OSender::new(ProcessId::new(0));
        let batch = tx.asend([1u8, 2, 3], OccursAfter::none());
        // Receiver 1 gets the batch in order; receiver 2 reversed.
        let mut rx1 = GraphDelivery::new();
        let mut log1 = Vec::new();
        for env in &batch {
            log1.extend(rx1.on_receive(env.clone()).into_iter().map(|e| e.payload));
        }
        let mut rx2 = GraphDelivery::new();
        let mut log2 = Vec::new();
        for env in batch.iter().rev() {
            log2.extend(rx2.on_receive(env.clone()).into_iter().map(|e| e.payload));
        }
        assert_eq!(log1, vec![1, 2, 3]);
        assert_eq!(log2, vec![1, 2, 3]);
    }

    #[test]
    fn envelope_map_preserves_identity() {
        let mut tx = OSender::new(ProcessId::new(0));
        let env = tx.osend(21u32, OccursAfter::none());
        let mapped = env.clone().map(|v| v * 2);
        assert_eq!(mapped.id, env.id);
        assert_eq!(mapped.deps, env.deps);
        assert_eq!(mapped.payload, 42);
    }
}
