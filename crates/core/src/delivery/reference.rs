//! Reference (pre-indexing) delivery engines: the seed implementation's
//! algorithms, behind the same [`DeliveryEngine`] trait as the indexed
//! engines.
//!
//! They exist as differential oracles. The equivalence proptests in
//! `crates/core/tests/core_props.rs` feed identical randomized schedules
//! (drops, duplicates, reorders) to an indexed engine and its reference
//! twin and require **identical release orders** — the indexed
//! rewrites are pure data-structure changes, not behavior changes. The
//! schedule explorer's `graph-ref` and `vector-ref` rows run them too.
//!
//! Do not use these in protocol code: their drains rescan the whole
//! pending buffer after every delivery, which is O(pending) per delivery
//! and quadratic under out-of-order bursts.

use crate::osend::{GraphEnvelope, OSender, OccursAfter};
use crate::stack::Timed;
use causal_clocks::{DeliveryCheck, MsgId, ProcessId, VectorClock};
use causal_simnet::SimTime;
use std::collections::{HashMap, HashSet};

use super::{Delivered, DeliveryEngine, VtEnvelope};

/// The seed CBCAST engine: a flat pending `Vec` rescanned linearly after
/// every delivery.
///
/// Functionally identical to [`CbcastEngine`](super::CbcastEngine) — same
/// delivery order, same duplicate accounting — just O(pending) per
/// delivery instead of O(woken).
#[derive(Debug, Clone)]
pub struct FlatCbcastEngine<P> {
    me: ProcessId,
    vt: VectorClock,
    pending: Vec<Timed<VtEnvelope<P>>>,
    duplicates: u64,
}

impl<P> FlatCbcastEngine<P> {
    /// Creates the engine for member `me` of a group of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the group.
    pub fn new(me: ProcessId, n: usize) -> Self {
        assert!(me.as_usize() < n, "member id outside group");
        FlatCbcastEngine {
            me,
            vt: VectorClock::new(n),
            pending: Vec::new(),
            duplicates: 0,
        }
    }

    /// Stamps a broadcast exactly like
    /// [`CbcastEngine::broadcast`](super::CbcastEngine::broadcast).
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

    fn deliver(&mut self, timed: Timed<VtEnvelope<P>>, released: &mut Vec<Timed<VtEnvelope<P>>>) {
        self.vt.apply_delivery(&timed.env.vt);
        released.push(timed);
    }

    fn drain_pending(&mut self, released: &mut Vec<Timed<VtEnvelope<P>>>) {
        loop {
            let idx = self.pending.iter().position(|p| {
                self.vt.delivery_check(&p.env.vt, p.env.id.origin()) == DeliveryCheck::Deliverable
            });
            match idx {
                Some(i) => {
                    let timed = self.pending.remove(i);
                    self.deliver(timed, released);
                }
                None => break,
            }
        }
    }

    /// The member's current vector clock.
    pub fn clock(&self) -> &VectorClock {
        &self.vt
    }
}

/// The seed explicit-graph engine: a cascade that re-checks **every**
/// dependency of every registered waiter after each delivery.
///
/// Delivery order and duplicate accounting match
/// [`GraphDelivery`](super::GraphDelivery); graph maintenance and
/// compaction are omitted (they do not affect delivery order).
#[derive(Debug, Clone)]
pub struct ScanGraphDelivery<P> {
    delivered: HashSet<MsgId>,
    pending: HashMap<MsgId, Timed<GraphEnvelope<P>>>,
    waiters: HashMap<MsgId, Vec<MsgId>>,
    seen: HashSet<MsgId>,
    duplicates: u64,
    /// Sending endpoint, present when built via
    /// [`DeliveryEngine::for_member`].
    sender: Option<OSender>,
}

impl<P> ScanGraphDelivery<P> {
    /// Creates an engine with nothing delivered.
    pub fn new() -> Self {
        ScanGraphDelivery {
            delivered: HashSet::new(),
            pending: HashMap::new(),
            waiters: HashMap::new(),
            seen: HashSet::new(),
            duplicates: 0,
            sender: None,
        }
    }

    fn deliver(&mut self, timed: Timed<GraphEnvelope<P>>) -> Timed<GraphEnvelope<P>> {
        self.delivered.insert(timed.env.id);
        timed
    }

    fn cascade(&mut self, released: &mut Vec<Timed<GraphEnvelope<P>>>) {
        let mut i = released.len() - 1;
        while i < released.len() {
            let just = released[i].env.id;
            if let Some(waiters) = self.waiters.remove(&just) {
                for w in waiters {
                    let ready = match self.pending.get(&w) {
                        Some(timed) => timed.env.deps.iter().all(|&d| self.delivered.contains(&d)),
                        None => false, // already released via another path
                    };
                    if ready {
                        let timed = self.pending.remove(&w).expect("checked above");
                        released.push(self.deliver(timed));
                    }
                }
            }
            i += 1;
        }
    }
}

impl<P> Default for ScanGraphDelivery<P> {
    fn default() -> Self {
        ScanGraphDelivery::new()
    }
}

impl<P: Clone + Send + Sync> DeliveryEngine for FlatCbcastEngine<P> {
    type Op = P;
    type Envelope = VtEnvelope<P>;

    fn for_member(me: ProcessId, n: usize) -> Self {
        FlatCbcastEngine::new(me, n)
    }

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
        match self.vt.delivery_check(&timed.env.vt, timed.env.id.origin()) {
            DeliveryCheck::Deliverable => {
                self.deliver(timed, released);
                self.drain_pending(released);
            }
            DeliveryCheck::Duplicate => {
                self.duplicates += 1;
            }
            DeliveryCheck::MissingFromSender { .. } | DeliveryCheck::MissingPredecessor { .. } => {
                // Absorb duplicates of already-buffered messages too —
                // via the linear scan this module exists to preserve.
                if self.pending.iter().any(|p| p.env.id == timed.env.id) {
                    self.duplicates += 1;
                } else {
                    self.pending.push(timed);
                }
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
        self.pending.len()
    }

    fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

impl<P: Clone + Send + Sync> DeliveryEngine for ScanGraphDelivery<P> {
    type Op = P;
    type Envelope = GraphEnvelope<P>;

    fn for_member(me: ProcessId, _n: usize) -> Self {
        let mut engine = ScanGraphDelivery::new();
        engine.sender = Some(OSender::new(me));
        engine
    }

    fn send_timed(
        &mut self,
        op: P,
        after: OccursAfter,
        sent_at: SimTime,
        released: &mut Vec<Timed<GraphEnvelope<P>>>,
    ) -> Timed<GraphEnvelope<P>> {
        let env = self
            .sender
            .as_mut()
            .expect("receive-only engine cannot send (construct with for_member)")
            .osend(op, after);
        let timed = Timed { env, sent_at };
        self.on_receive_timed(timed.clone(), released);
        timed
    }

    fn on_receive_timed(
        &mut self,
        timed: Timed<GraphEnvelope<P>>,
        released: &mut Vec<Timed<GraphEnvelope<P>>>,
    ) {
        let id = timed.env.id;
        if !self.seen.insert(id) {
            self.duplicates += 1;
            return;
        }
        let missing: Vec<MsgId> = timed
            .env
            .deps
            .iter()
            .copied()
            .filter(|&d| !self.delivered.contains(&d))
            .collect();
        if missing.is_empty() {
            released.push(self.deliver(timed));
            self.cascade(released);
        } else {
            for &d in &missing {
                self.waiters.entry(d).or_default().push(id);
            }
            self.pending.insert(id, timed);
        }
    }

    fn view<'a>(env: &'a GraphEnvelope<P>) -> Delivered<'a, P> {
        Delivered::from_graph(env)
    }

    fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::{CbcastEngine, GraphDelivery};
    use crate::osend::{OSender, OccursAfter};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn flat_engine_matches_indexed_on_reversed_stream() {
        let mut tx_flat = FlatCbcastEngine::new(p(0), 2);
        let mut tx_idx = CbcastEngine::new(p(0), 2);
        let msgs: Vec<_> = (0..40).map(|k| tx_flat.broadcast(k)).collect();
        for k in 0..40 {
            tx_idx.broadcast(k);
        }
        let mut flat = FlatCbcastEngine::new(p(1), 2);
        let mut idx = CbcastEngine::new(p(1), 2);
        let (mut flat_order, mut idx_order) = (Vec::new(), Vec::new());
        for m in msgs.iter().rev() {
            let a = flat.on_receive(m.clone());
            let b = idx.on_receive(m.clone());
            assert_eq!(a, b);
            flat_order.extend(a.iter().map(|e| e.id));
            idx_order.extend(b.iter().map(|e| e.id));
        }
        assert_eq!(flat_order.len(), 40);
        assert_eq!(flat_order, idx_order);
        assert_eq!(flat.duplicates(), idx.duplicates());
    }

    #[test]
    fn scan_engine_matches_indexed_on_reversed_chain() {
        let mut tx = OSender::new(p(0));
        let mut prev = None;
        let envs: Vec<_> = (0..40u8)
            .map(|k| {
                let after = prev.map_or(OccursAfter::none(), OccursAfter::message);
                let env = tx.osend(k, after);
                prev = Some(env.id);
                env
            })
            .collect();
        let mut scan = ScanGraphDelivery::new();
        let mut idx = GraphDelivery::new();
        let (mut scan_order, mut idx_order) = (Vec::new(), Vec::new());
        for e in envs.iter().rev() {
            let a: Vec<_> = scan.on_receive(e.clone()).iter().map(|e| e.id).collect();
            let b: Vec<_> = idx.on_receive(e.clone()).iter().map(|e| e.id).collect();
            assert_eq!(a, b);
            scan_order.extend(a);
            idx_order.extend(b);
        }
        assert_eq!(scan_order.len(), 40);
        assert_eq!(scan_order, idx_order);
    }
}
