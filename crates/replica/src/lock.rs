//! Decentralized lock arbitration (§6.2, Figure 5).
//!
//! Access to a shared page is arbitrated without a lock server: in each
//! **arbitration cycle** `S`, every member spontaneously broadcasts a
//! `LOCK` request. Once a member has received the *predetermined number*
//! of `LOCK` messages (one per member), it runs a **deterministic
//! arbitration algorithm** — all members therefore select the *same*
//! holder sequence, "thereby ensuring consensus among members". The
//! current holder completes its page access and broadcasts a `TFR`
//! (transfer) advising transfer of the lock to the next member in the
//! arbitration sequence; after the last member transfers, cycle `S+1`
//! begins:
//!
//! ```text
//! ASend([LOCK, i, S], Occurs-After([TFR, 1, S-1] ∧ … ∧ [TFR, M, S-1]))
//! ASend([TFR, j, S],  Occurs-After([LOCK, 1, S] ∧ … ∧ [LOCK, j, S]))
//! ```
//!
//! The total order over each cycle's spontaneous `LOCK` set is exactly the
//! paper's `ASend`: concurrent messages, deterministically merged.

use causal_clocks::{MsgId, ProcessId};
use causal_core::delivery::Delivered;
use causal_core::node::{App, Emitter};
use causal_core::osend::OccursAfter;
use causal_core::statemachine::OpClass;
use std::collections::BTreeMap;

/// Wire operations of the arbitration protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOp {
    /// `[LOCK, member, S]` — a spontaneous request for cycle `S`.
    Lock {
        /// The arbitration cycle.
        cycle: u64,
    },
    /// `[TFR, position, S]` — the holder at `position` in cycle `S`'s
    /// arbitration sequence has finished its access and transfers on.
    Tfr {
        /// The arbitration cycle.
        cycle: u64,
        /// Position (0-based) of the transferring holder in the cycle's
        /// arbitration sequence.
        position: u32,
    },
}

/// One member of the arbitration group, hosted on a
/// [`CausalNode`](causal_core::node::CausalNode).
///
/// Every member requests the lock every cycle (the paper's scenario).
/// The deterministic arbitration selects holders in ascending member-id
/// order of the requesters; any deterministic rule works as long as every
/// member applies the same one.
#[derive(Debug, Clone)]
pub struct LockMember {
    me: ProcessId,
    n: usize,
    max_cycles: u64,
    /// LOCK messages seen per cycle: member → message id.
    locks: BTreeMap<u64, BTreeMap<ProcessId, MsgId>>,
    /// TFR messages seen per cycle, by position.
    tfrs: BTreeMap<u64, BTreeMap<u32, MsgId>>,
    /// The holder sequence this member computed for each completed-arbitration cycle.
    sequences: BTreeMap<u64, Vec<ProcessId>>,
    /// `(cycle, position-in-sequence)` acquisitions by this member.
    acquisitions: Vec<(u64, u32)>,
    lock_requested: BTreeMap<u64, bool>,
    tfr_sent: BTreeMap<u64, bool>,
}

impl LockMember {
    /// Creates member `me` of an `n`-member group arbitrating
    /// `max_cycles` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(me: ProcessId, n: usize, max_cycles: u64) -> Self {
        assert!(n > 0, "the group needs members");
        LockMember {
            me,
            n,
            max_cycles,
            locks: BTreeMap::new(),
            tfrs: BTreeMap::new(),
            sequences: BTreeMap::new(),
            acquisitions: Vec::new(),
            lock_requested: BTreeMap::new(),
            tfr_sent: BTreeMap::new(),
        }
    }

    /// The holder sequences computed so far (cycle → sequence). Identical
    /// at every member — the consensus the protocol provides.
    pub fn sequences(&self) -> &BTreeMap<u64, Vec<ProcessId>> {
        &self.sequences
    }

    /// The `(cycle, position)` pairs at which this member held the lock.
    pub fn acquisitions(&self) -> &[(u64, u32)] {
        &self.acquisitions
    }

    /// `true` when every cycle has fully transferred at this member.
    pub fn all_cycles_complete(&self) -> bool {
        (0..self.max_cycles).all(|c| self.tfrs.get(&c).is_some_and(|t| t.len() == self.n))
    }

    /// The deterministic arbitration algorithm: requesters in ascending
    /// member-id order. Every member runs the same pure function on the
    /// same (complete) LOCK set, hence agrees.
    fn arbitrate(locks: &BTreeMap<ProcessId, MsgId>) -> Vec<ProcessId> {
        locks.keys().copied().collect() // BTreeMap: already ascending
    }

    fn request_lock(&mut self, cycle: u64, after: OccursAfter, out: &mut Emitter<LockOp>) {
        if self.lock_requested.insert(cycle, true).is_none() {
            out.osend(LockOp::Lock { cycle }, after);
        }
    }

    /// Take the lock (modeled as instantaneous page access) and transfer.
    fn acquire_and_transfer(&mut self, cycle: u64, position: u32, out: &mut Emitter<LockOp>) {
        if self.tfr_sent.insert(cycle, true).is_none() {
            self.acquisitions.push((cycle, position));
            // TFR occurs after every LOCK of the cycle and the previous TFR.
            let mut deps: Vec<MsgId> = self.locks[&cycle].values().copied().collect();
            if position > 0 {
                deps.push(self.tfrs[&cycle][&(position - 1)]);
            }
            out.osend(LockOp::Tfr { cycle, position }, OccursAfter::all(deps));
        }
    }

    fn maybe_act(&mut self, cycle: u64, out: &mut Emitter<LockOp>) {
        // Arbitrate once the predetermined number of LOCKs has arrived.
        let Some(locks) = self.locks.get(&cycle) else {
            return;
        };
        if locks.len() < self.n {
            return;
        }
        let sequence = Self::arbitrate(locks);
        self.sequences
            .entry(cycle)
            .or_insert_with(|| sequence.clone());

        // How far have the transfers progressed?
        let transferred = self.tfrs.get(&cycle).map_or(0, BTreeMap::len) as u32;
        if (transferred as usize) < sequence.len() && sequence[transferred as usize] == self.me {
            self.acquire_and_transfer(cycle, transferred, out);
        }
    }

    fn maybe_open_next_cycle(&mut self, completed: u64, out: &mut Emitter<LockOp>) {
        let next = completed + 1;
        if next >= self.max_cycles {
            return;
        }
        // LOCK(S+1) occurs after all TFRs of cycle S.
        let deps: Vec<MsgId> = self.tfrs[&completed].values().copied().collect();
        self.request_lock(next, OccursAfter::all(deps), out);
    }
}

impl App for LockMember {
    type Op = LockOp;

    fn on_start(&mut self, me: ProcessId, out: &mut Emitter<LockOp>) {
        debug_assert_eq!(me, self.me);
        if self.max_cycles > 0 {
            self.request_lock(0, OccursAfter::none(), out);
        }
    }

    fn on_deliver(&mut self, env: Delivered<'_, LockOp>, out: &mut Emitter<LockOp>) {
        match *env.payload {
            LockOp::Lock { cycle } => {
                self.locks
                    .entry(cycle)
                    .or_default()
                    .insert(env.id.origin(), env.id);
                self.maybe_act(cycle, out);
            }
            LockOp::Tfr { cycle, position } => {
                self.tfrs.entry(cycle).or_default().insert(position, env.id);
                let done = self.tfrs[&cycle].len();
                if done == self.n {
                    self.maybe_open_next_cycle(cycle, out);
                } else {
                    self.maybe_act(cycle, out);
                }
            }
        }
    }

    fn classify(&self, op: &LockOp) -> OpClass {
        // LOCKs of a cycle are spontaneous/concurrent; TFRs are the
        // ordered backbone.
        match op {
            LockOp::Lock { .. } => OpClass::Commutative,
            LockOp::Tfr { .. } => OpClass::NonCommutative,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_core::node::CausalNode;
    use causal_simnet::{FaultPlan, LatencyModel, NetConfig, Simulation};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn run(n: usize, cycles: u64, seed: u64, drop: f64) -> Simulation<CausalNode<LockMember>> {
        let nodes: Vec<CausalNode<LockMember>> = (0..n)
            .map(|i| CausalNode::new(p(i as u32), n, LockMember::new(p(i as u32), n, cycles)))
            .collect();
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 3000))
            .faults(FaultPlan::new().with_drop_prob(drop));
        let mut sim = Simulation::new(nodes, cfg, seed);
        sim.run_to_quiescence();
        sim
    }

    #[test]
    fn all_members_complete_all_cycles() {
        let sim = run(4, 3, 1, 0.0);
        for i in 0..4 {
            assert!(sim.node(p(i)).app().all_cycles_complete(), "member {i}");
        }
    }

    #[test]
    fn holder_sequences_identical_at_every_member() {
        let sim = run(5, 4, 7, 0.0);
        let reference = sim.node(p(0)).app().sequences().clone();
        assert_eq!(reference.len(), 4);
        for i in 1..5 {
            assert_eq!(sim.node(p(i)).app().sequences(), &reference, "member {i}");
        }
    }

    #[test]
    fn every_member_acquires_once_per_cycle() {
        let sim = run(3, 5, 3, 0.0);
        for i in 0..3 {
            let acq = sim.node(p(i)).app().acquisitions();
            assert_eq!(acq.len(), 5, "member {i}");
            let cycles: Vec<u64> = acq.iter().map(|&(c, _)| c).collect();
            assert_eq!(cycles, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn transfers_respect_arbitration_order() {
        let sim = run(4, 2, 9, 0.0);
        for i in 0..4 {
            let app = sim.node(p(i)).app();
            for (cycle, seq) in app.sequences() {
                // This member's position in the sequence matches its
                // recorded acquisition position.
                let pos = seq.iter().position(|&m| m == p(i)).unwrap() as u32;
                let acq = app
                    .acquisitions()
                    .iter()
                    .find(|&&(c, _)| c == *cycle)
                    .unwrap();
                assert_eq!(acq.1, pos);
            }
        }
    }

    #[test]
    fn survives_message_loss() {
        let sim = run(3, 3, 11, 0.3);
        for i in 0..3 {
            assert!(sim.node(p(i)).app().all_cycles_complete(), "member {i}");
        }
        assert!(sim.metrics().dropped > 0);
    }

    #[test]
    fn tfrs_are_stable_points() {
        let sim = run(3, 2, 13, 0.0);
        for i in 0..3 {
            // 3 TFRs per cycle × 2 cycles = 6 stable points.
            assert_eq!(sim.node(p(i)).stable_points().len(), 6, "member {i}");
        }
    }
}
