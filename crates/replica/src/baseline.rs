//! Baseline replication strategies for the evaluation harnesses.
//!
//! The paper's claims are comparative: causal ordering with commutativity
//! knowledge provides *more asynchronism* than totally ordering every
//! message, and *more safety* than weaker orderings. These actors provide
//! the comparison points:
//!
//! - [`SequencedNode`]: every operation is routed through a **fixed
//!   sequencer** and applied in a single global total order (ABCAST-style
//!   baseline; the paper's §5.2 total-ordering function realized with a
//!   sequencer instead of deterministic merge).
//! - [`WeakOrderNode`]: operations applied in per-sender FIFO order or in
//!   raw arrival order — orderings *weaker* than causal, showing the
//!   anomalies causal order prevents.
//!
//! Baselines assume a reliable (fault-free) transport; the ordering
//! comparison experiments run all strategies over identical fault-free
//! networks so that only ordering costs differ.

use causal_clocks::{MsgId, ProcessId};
use causal_core::delivery::{FifoDelivery, FifoEnvelope};
use causal_core::node::NodeStats;
use causal_core::statemachine::Operation;
use causal_core::total::{DeterministicMerge, RoundMsg, SeqEnvelope, Sequencer, TotalOrderBuffer};
use causal_simnet::{Actor, Context, SimTime};

/// Wire messages of the sequencer baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum TotalWire<O> {
    /// A member forwards an operation to the sequencer.
    Request {
        /// The submitting member.
        origin: ProcessId,
        /// Submission time (for end-to-end latency measurement).
        sent_at: SimTime,
        /// The operation.
        op: O,
    },
    /// The sequencer disseminates the globally ordered operation.
    Ordered {
        /// The stamped envelope.
        env: SeqEnvelope<O>,
        /// Original submission time.
        sent_at: SimTime,
    },
}

/// A replica applying every operation in one global total order assigned
/// by a fixed sequencer (member `p0`).
///
/// Submission path: member → sequencer → broadcast → in-order apply; a
/// non-sequencer member pays two network hops before anyone applies its
/// operation, and *every* operation — commutative or not — waits for its
/// global-order turn. This is the cost the paper's relaxed model avoids.
#[derive(Debug)]
pub struct SequencedNode<S, O> {
    me: ProcessId,
    state: S,
    sequencer: Option<Sequencer>,
    buffer: TotalOrderBuffer<O>,
    applied: Vec<(u64, ProcessId)>,
    stats: NodeStats,
}

impl<S, O: Operation<S>> SequencedNode<S, O> {
    /// The member that plays sequencer.
    pub const SEQUENCER: ProcessId = ProcessId::new(0);

    /// Creates member `me` with the given initial state.
    pub fn new(me: ProcessId, initial: S) -> Self {
        SequencedNode {
            me,
            state: initial,
            sequencer: (me == Self::SEQUENCER).then(Sequencer::new),
            buffer: TotalOrderBuffer::new(),
            applied: Vec::new(),
            stats: NodeStats::default(),
        }
    }

    /// The replica state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// `(global_seq, origin)` of every applied operation, in apply order.
    pub fn applied(&self) -> &[(u64, ProcessId)] {
        &self.applied
    }

    /// Collected statistics.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Submits an operation into the total order (call via
    /// [`Simulation::poke`](causal_simnet::Simulation::poke)).
    pub fn submit(&mut self, ctx: &mut Context<'_, TotalWire<O>>, op: O)
    where
        O: Clone,
    {
        let sent_at = ctx.now();
        if let Some(seq) = &mut self.sequencer {
            let env = seq.order(self.me, op);
            ctx.broadcast_all(TotalWire::Ordered { env, sent_at });
        } else {
            ctx.send(
                Self::SEQUENCER,
                TotalWire::Request {
                    origin: self.me,
                    sent_at,
                    op,
                },
            );
        }
    }

    fn apply_in_order(
        &mut self,
        ctx: &Context<'_, TotalWire<O>>,
        env: SeqEnvelope<O>,
        sent_at: SimTime,
    ) {
        for ready in self.buffer.on_receive(env) {
            ready.payload.apply(&mut self.state);
            self.applied.push((ready.global_seq, ready.from));
            self.stats
                .delivery_latency
                .record(ctx.now().saturating_since(sent_at));
        }
    }
}

impl<S, O: Operation<S>> Actor for SequencedNode<S, O> {
    type Msg = TotalWire<O>;

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, _from: ProcessId, msg: Self::Msg) {
        match msg {
            TotalWire::Request {
                origin,
                sent_at,
                op,
            } => {
                let seq = self
                    .sequencer
                    .as_mut()
                    .expect("only the sequencer receives requests");
                let env = seq.order(origin, op);
                ctx.broadcast_all(TotalWire::Ordered { env, sent_at });
            }
            TotalWire::Ordered { env, sent_at } => self.apply_in_order(ctx, env, sent_at),
        }
    }
}

/// The ordering guarantee a [`WeakOrderNode`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeakOrdering {
    /// Per-sender FIFO order (gaps buffered), no cross-sender order.
    Fifo,
    /// Raw network arrival order.
    Unordered,
}

/// Wire message of the weak-ordering baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct WeakWire<O> {
    /// Message identity (`origin`, per-origin sequence starting at 1).
    pub id: MsgId,
    /// Submission time.
    pub sent_at: SimTime,
    /// The operation.
    pub op: O,
}

/// A replica applying operations under an ordering *weaker* than causal:
/// per-sender FIFO or none at all. Exists to demonstrate (and count) the
/// causal anomalies the paper's model rules out.
#[derive(Debug)]
pub struct WeakOrderNode<S, O> {
    me: ProcessId,
    mode: WeakOrdering,
    state: S,
    next_seq: u64,
    fifo: FifoDelivery<(O, SimTime)>,
    applied: Vec<MsgId>,
    stats: NodeStats,
}

impl<S, O: Operation<S>> WeakOrderNode<S, O> {
    /// Creates member `me` with the given ordering mode and initial state.
    pub fn new(me: ProcessId, mode: WeakOrdering, initial: S) -> Self {
        WeakOrderNode {
            me,
            mode,
            state: initial,
            next_seq: 1,
            fifo: FifoDelivery::new(),
            applied: Vec::new(),
            stats: NodeStats::default(),
        }
    }

    /// The replica state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Applied message ids in apply order.
    pub fn applied(&self) -> &[MsgId] {
        &self.applied
    }

    /// Collected statistics.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Submits an operation (applied locally immediately; broadcast to the
    /// group).
    pub fn submit(&mut self, ctx: &mut Context<'_, WeakWire<O>>, op: O)
    where
        O: Clone,
    {
        let id = MsgId::new(self.me, self.next_seq);
        self.next_seq += 1;
        ctx.broadcast_all(WeakWire {
            id,
            sent_at: ctx.now(),
            op,
        });
    }

    fn apply(&mut self, ctx: &Context<'_, WeakWire<O>>, id: MsgId, op: &O, sent_at: SimTime) {
        op.apply(&mut self.state);
        self.applied.push(id);
        self.stats
            .delivery_latency
            .record(ctx.now().saturating_since(sent_at));
    }
}

impl<S, O: Operation<S>> Actor for WeakOrderNode<S, O> {
    type Msg = WeakWire<O>;

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, _from: ProcessId, msg: Self::Msg) {
        match self.mode {
            WeakOrdering::Unordered => self.apply(ctx, msg.id, &msg.op, msg.sent_at),
            WeakOrdering::Fifo => {
                let released = self.fifo.on_receive(FifoEnvelope {
                    id: msg.id,
                    payload: (msg.op, msg.sent_at),
                });
                for env in released {
                    let (op, sent_at) = env.payload;
                    self.apply(ctx, env.id, &op, sent_at);
                }
            }
        }
    }
}

/// Wire message of the deterministic-merge total order: a round-tagged
/// operation plus its submission time.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeWire<O> {
    /// The round-tagged message.
    pub msg: RoundMsg<O>,
    /// Submission time.
    pub sent_at: SimTime,
}

/// A replica realizing the paper's `ASend` by **deterministic merge**
/// (§5.2): each member contributes exactly one operation per round; once
/// a member holds the full round it releases the round's operations in a
/// deterministic order, so all members apply the identical total order
/// with *no ordering messages at all*.
///
/// The price is the round barrier: nothing in round `S` applies until the
/// slowest member's contribution has arrived — a latency that grows with
/// group size, which is exactly the paper's "total ordering may be
/// feasible when the group size is not large".
#[derive(Debug)]
pub struct MergeOrderNode<S, O> {
    me: ProcessId,
    n: usize,
    state: S,
    merge: DeterministicMerge<O>,
    next_round: u64,
    sent_times: std::collections::HashMap<(u64, ProcessId), SimTime>,
    applied: Vec<(u64, ProcessId)>,
    stats: NodeStats,
}

impl<S, O: Operation<S>> MergeOrderNode<S, O> {
    /// Creates member `me` of a group of `n` with the given initial state.
    pub fn new(me: ProcessId, n: usize, initial: S) -> Self {
        MergeOrderNode {
            me,
            n,
            state: initial,
            merge: DeterministicMerge::new(n),
            next_round: 0,
            sent_times: std::collections::HashMap::new(),
            applied: Vec::new(),
            stats: NodeStats::default(),
        }
    }

    /// The replica state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// `(round, origin)` of every applied operation, in apply order.
    pub fn applied(&self) -> &[(u64, ProcessId)] {
        &self.applied
    }

    /// Collected statistics.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Submits this member's contribution to its next round.
    pub fn submit(&mut self, ctx: &mut Context<'_, MergeWire<O>>, op: O)
    where
        O: Clone,
    {
        let msg = RoundMsg {
            round: self.next_round,
            from: self.me,
            payload: op,
        };
        self.next_round += 1;
        ctx.broadcast_all(MergeWire {
            msg,
            sent_at: ctx.now(),
        });
    }
}

impl<S, O: Operation<S>> Actor for MergeOrderNode<S, O> {
    type Msg = MergeWire<O>;

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, _from: ProcessId, msg: Self::Msg) {
        self.sent_times
            .insert((msg.msg.round, msg.msg.from), msg.sent_at);
        for ready in self.merge.on_receive(msg.msg) {
            ready.payload.apply(&mut self.state);
            self.applied.push((ready.round, ready.from));
            if let Some(&sent_at) = self.sent_times.get(&(ready.round, ready.from)) {
                self.stats
                    .delivery_latency
                    .record(ctx.now().saturating_since(sent_at));
            }
        }
        let _ = self.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::CounterOp;
    use causal_simnet::{LatencyModel, NetConfig, Simulation};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn seq_group(n: usize) -> Vec<SequencedNode<i64, CounterOp>> {
        (0..n).map(|i| SequencedNode::new(p(i as u32), 0)).collect()
    }

    #[test]
    fn sequencer_gives_identical_apply_order() {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 5000));
        let mut sim = Simulation::new(seq_group(4), cfg, 3);
        for k in 0..12u32 {
            sim.poke(p(k % 4), |node, ctx| node.submit(ctx, CounterOp::Inc(1)));
        }
        sim.run_to_quiescence();
        let reference = sim.node(p(0)).applied().to_vec();
        assert_eq!(reference.len(), 12);
        for i in 1..4 {
            assert_eq!(sim.node(p(i)).applied(), &reference[..], "member {i}");
            assert_eq!(*sim.node(p(i)).state(), 12);
        }
    }

    #[test]
    fn sequencer_orders_conflicting_sets_identically() {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 5000));
        let mut sim = Simulation::new(seq_group(3), cfg, 5);
        sim.poke(p(1), |node, ctx| node.submit(ctx, CounterOp::Set(10)));
        sim.poke(p(2), |node, ctx| node.submit(ctx, CounterOp::Set(20)));
        sim.run_to_quiescence();
        let final_states: Vec<i64> = (0..3).map(|i| *sim.node(p(i)).state()).collect();
        assert!(final_states.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn non_sequencer_pays_extra_hop() {
        let cfg = NetConfig::with_latency(LatencyModel::constant_micros(1000));
        let mut sim = Simulation::new(seq_group(2), cfg, 1);
        sim.poke(p(1), |node, ctx| node.submit(ctx, CounterOp::Inc(1)));
        sim.run_to_quiescence();
        // p1's op travels p1 -> p0 (1ms) -> broadcast (1ms): latency at p1
        // is 2ms, vs 1ms had p1 been the sequencer.
        let lat = sim.node(p(1)).stats().delivery_latency.max();
        assert_eq!(lat.as_micros(), 2000);
    }

    #[test]
    fn fifo_keeps_per_sender_order_only() {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(10, 10_000));
        let nodes: Vec<WeakOrderNode<i64, CounterOp>> = (0..3)
            .map(|i| WeakOrderNode::new(p(i), WeakOrdering::Fifo, 0))
            .collect();
        let mut sim = Simulation::new(nodes, cfg, 7);
        for k in 0..5 {
            sim.poke(p(0), |node, ctx| node.submit(ctx, CounterOp::Inc(k)));
        }
        sim.run_to_quiescence();
        for i in 0..3 {
            let applied = sim.node(p(i)).applied();
            let seqs: Vec<u64> = applied.iter().map(|m| m.seq()).collect();
            assert_eq!(seqs, vec![1, 2, 3, 4, 5], "member {i}");
        }
    }

    #[test]
    fn unordered_converges_for_commutative_ops_only() {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(10, 10_000));
        let nodes: Vec<WeakOrderNode<i64, CounterOp>> = (0..3)
            .map(|i| WeakOrderNode::new(p(i), WeakOrdering::Unordered, 0))
            .collect();
        let mut sim = Simulation::new(nodes, cfg, 9);
        for k in 0..6u32 {
            sim.poke(p(k % 3), |node, ctx| node.submit(ctx, CounterOp::Inc(1)));
        }
        sim.run_to_quiescence();
        for i in 0..3 {
            assert_eq!(*sim.node(p(i)).state(), 6);
        }
    }

    #[test]
    fn merge_order_identical_at_all_members() {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 9000));
        let nodes: Vec<MergeOrderNode<i64, CounterOp>> =
            (0..4).map(|i| MergeOrderNode::new(p(i), 4, 0)).collect();
        let mut sim = Simulation::new(nodes, cfg, 13);
        for round in 0..3 {
            for i in 0..4u32 {
                sim.poke(p(i), |node, ctx| {
                    node.submit(ctx, CounterOp::Set(i as i64 * 10 + round))
                });
            }
        }
        sim.run_to_quiescence();
        let reference = sim.node(p(0)).applied().to_vec();
        assert_eq!(reference.len(), 12);
        for i in 1..4 {
            assert_eq!(sim.node(p(i)).applied(), &reference[..], "member {i}");
            assert_eq!(sim.node(p(i)).state(), sim.node(p(0)).state());
        }
    }

    #[test]
    fn merge_order_has_no_ordering_messages() {
        // n members, r rounds: exactly n*n*r transport messages (each
        // contribution broadcast to all, incl. self) — zero protocol
        // overhead beyond the data itself.
        let cfg = NetConfig::with_latency(LatencyModel::constant_micros(500));
        let nodes: Vec<MergeOrderNode<i64, CounterOp>> =
            (0..3).map(|i| MergeOrderNode::new(p(i), 3, 0)).collect();
        let mut sim = Simulation::new(nodes, cfg, 1);
        for i in 0..3u32 {
            sim.poke(p(i), |node, ctx| node.submit(ctx, CounterOp::Inc(1)));
        }
        sim.run_to_quiescence();
        assert_eq!(sim.metrics().sent, 9);
        for i in 0..3 {
            assert_eq!(*sim.node(p(i)).state(), 3);
        }
    }

    #[test]
    fn unordered_diverges_on_non_commutative_ops() {
        // Two concurrent Sets: without ordering, members can disagree.
        // With enough jitter and seeds, find at least one divergence —
        // demonstrating the anomaly (deterministically, given the seed).
        let mut diverged = false;
        for seed in 0..50 {
            let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(10, 10_000));
            let nodes: Vec<WeakOrderNode<i64, CounterOp>> = (0..3)
                .map(|i| WeakOrderNode::new(p(i), WeakOrdering::Unordered, 0))
                .collect();
            let mut sim = Simulation::new(nodes, cfg, seed);
            sim.poke(p(1), |node, ctx| node.submit(ctx, CounterOp::Set(10)));
            sim.poke(p(2), |node, ctx| node.submit(ctx, CounterOp::Set(20)));
            sim.run_to_quiescence();
            let states: Vec<i64> = (0..3).map(|i| *sim.node(p(i)).state()).collect();
            if states.windows(2).any(|w| w[0] != w[1]) {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "expected at least one divergent interleaving");
    }
}
