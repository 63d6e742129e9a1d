//! Property-based tests for the core delivery, ordering, and stability
//! invariants.

use causal_clocks::{MsgId, ProcessId, VectorClock};
use causal_core::delivery::pcbcast::overlay::tree_position;
use causal_core::delivery::pcbcast::{Link, LinkBody, LinkClock, LinkFrame};
use causal_core::delivery::reference::{FlatCbcastEngine, ScanGraphDelivery};
use causal_core::delivery::{
    CbcastEngine, DeliveryEngine, GraphDelivery, LinkSend, PcEngine, PcEnvelope, VtEnvelope,
};
use causal_core::graph::MsgGraph;
use causal_core::osend::{GraphEnvelope, OSender, OccursAfter};
use causal_core::rbcast::{HasMsgId, RbAck, RbMsg, ReliableBroadcast};
use causal_core::stability::{ReportTo, StabilityTracker};
use causal_core::stable::{LogEntry, StablePointDetector};
use causal_core::stack::{StackWire, Timed, DEFAULT_RETRANSMIT};
use causal_core::statemachine::{is_transition_preserving, Operation};
use causal_core::total::{DeterministicMerge, RoundMsg};
use causal_core::wire::{self, WireEncode};
use causal_simnet::{SimDuration, SimTime};
use causal_verify::check;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A randomly generated message universe: message `i` (0-based) originates
/// at process `i % n_procs` and depends on a random subset of messages
/// `< i` (so the dependency relation is acyclic by construction).
#[derive(Debug, Clone)]
struct RandomDag {
    n_procs: usize,
    /// deps[i] = indices of the messages message i depends on.
    deps: Vec<Vec<usize>>,
    /// arrival[k] = index of the k-th arriving message at the receiver.
    arrival: Vec<usize>,
}

/// The ids of `released`, in release order.
fn ids<E: HasMsgId>(released: &[E]) -> Vec<MsgId> {
    released.iter().map(HasMsgId::msg_id).collect()
}

fn msg_id(dag_index: usize, n_procs: usize, seqs: &mut [u64]) -> MsgId {
    let origin = dag_index % n_procs;
    seqs[origin] += 1;
    MsgId::new(ProcessId::new(origin as u32), seqs[origin])
}

fn dag_envelopes(dag: &RandomDag) -> Vec<GraphEnvelope<usize>> {
    let mut seqs = vec![0u64; dag.n_procs];
    let mut ids = Vec::with_capacity(dag.deps.len());
    for i in 0..dag.deps.len() {
        ids.push(msg_id(i, dag.n_procs, &mut seqs));
    }
    dag.deps
        .iter()
        .enumerate()
        .map(|(i, deps)| GraphEnvelope {
            id: ids[i],
            deps: {
                let mut d: Vec<MsgId> = deps.iter().map(|&j| ids[j]).collect();
                d.sort_unstable();
                d.dedup();
                d.into()
            },
            payload: i,
        })
        .collect()
}

fn arb_dag(max_msgs: usize) -> impl Strategy<Value = RandomDag> {
    (2usize..=4, 1usize..=max_msgs)
        .prop_flat_map(|(n_procs, n_msgs)| {
            let deps = (0..n_msgs)
                .map(|i| {
                    if i == 0 {
                        Just(Vec::new()).boxed()
                    } else {
                        proptest::collection::vec(0..i, 0..=i.min(3)).boxed()
                    }
                })
                .collect::<Vec<_>>();
            (Just(n_procs), deps, Just(n_msgs))
        })
        .prop_flat_map(|(n_procs, deps, n_msgs)| {
            let arrival = Just((0..n_msgs).collect::<Vec<_>>()).prop_shuffle();
            (Just(n_procs), Just(deps), arrival)
        })
        .prop_map(|(n_procs, deps, arrival)| RandomDag {
            n_procs,
            deps,
            arrival,
        })
}

proptest! {
    /// Whatever order envelopes arrive in, the graph engine (1) delivers
    /// everything, (2) never delivers a message before its declared
    /// dependencies, and (3) produces a linearization of the common graph.
    #[test]
    fn graph_delivery_always_linearizes(dag in arb_dag(24)) {
        let envs = dag_envelopes(&dag);
        let mut rx = GraphDelivery::new();
        let mut delivered = Vec::new();
        for &k in &dag.arrival {
            delivered.extend(rx.on_receive(envs[k].clone()));
        }
        prop_assert_eq!(delivered.len(), envs.len());
        prop_assert_eq!(rx.pending_len(), 0);

        // Rebuild the reference graph in definition order.
        let mut graph = MsgGraph::new();
        for env in &envs {
            graph.add(env.id, &env.deps).unwrap();
        }
        prop_assert!(graph.is_linearization(&ids(&delivered)));
        let dep_log: Vec<(MsgId, Vec<MsgId>)> =
            delivered.iter().map(|e| (e.id, e.deps.to_vec())).collect();
        prop_assert!(check::causal_order_respected(&dep_log, 0).is_ok());
    }

    /// Duplicated arrivals change nothing: same release order, every
    /// duplicate absorbed.
    #[test]
    fn graph_delivery_idempotent_under_duplication(dag in arb_dag(16)) {
        let envs = dag_envelopes(&dag);
        let mut once = GraphDelivery::new();
        let mut once_out = Vec::new();
        for &k in &dag.arrival {
            once.on_receive_into(envs[k].clone(), &mut once_out);
        }
        let mut twice = GraphDelivery::new();
        let mut twice_out = Vec::new();
        for &k in &dag.arrival {
            twice.on_receive_into(envs[k].clone(), &mut twice_out);
            twice.on_receive_into(envs[k].clone(), &mut twice_out);
        }
        prop_assert_eq!(ids(&once_out), ids(&twice_out));
        prop_assert_eq!(twice.duplicates(), envs.len() as u64);
    }

    /// Two members receiving the same envelopes in different orders build
    /// identical dependency graphs from what they release (the "stable
    /// information" property); `MsgGraph::add` also checks that each
    /// release follows its dependencies.
    #[test]
    fn graphs_identical_across_members(dag in arb_dag(16), seed in 0u64..1000) {
        let envs = dag_envelopes(&dag);
        let released_graph = |order: &mut dyn Iterator<Item = usize>| {
            let mut rx = GraphDelivery::new();
            let mut graph = MsgGraph::new();
            for k in order {
                for env in rx.on_receive(envs[k].clone()) {
                    graph.add(env.id, &env.deps).unwrap();
                }
            }
            graph
        };
        let g1 = released_graph(&mut dag.arrival.iter().copied());
        // Second member: rotate the arrival order deterministically.
        let rot = (seed as usize) % envs.len().max(1);
        let len = dag.arrival.len();
        let g2 = released_graph(&mut (0..len).map(|i| dag.arrival[(i + rot) % len]));
        prop_assert_eq!(g1.len(), envs.len());
        prop_assert_eq!(g1, g2);
    }

    /// CBCAST: a sender's stream plus cross-sender potential causality is
    /// respected at a receiver under arbitrary reordering of the wire.
    #[test]
    fn cbcast_respects_potential_causality(
        sends_per in proptest::collection::vec(1usize..5, 3),
        shuffle in proptest::collection::vec(0usize..1000, 20),
    ) {
        // Three senders broadcast in lockstep, each delivering everything
        // available before each send (maximal potential causality).
        let n = 3;
        let mut engines: Vec<CbcastEngine<usize>> =
            (0..n).map(|i| CbcastEngine::new(ProcessId::new(i as u32), n)).collect();
        let mut wire: Vec<VtEnvelope<usize>> = Vec::new();
        let mut counter = 0usize;
        for round in 0..*sends_per.iter().max().unwrap() {
            for s in 0..n {
                if round < sends_per[s] {
                    // Deliver everything on the wire to sender s first.
                    for env in wire.clone() {
                        engines[s].on_receive(env);
                    }
                    let env = engines[s].broadcast(counter);
                    counter += 1;
                    wire.push(env);
                }
            }
        }
        // A fresh receiver gets the wire in a shuffled order.
        let mut order: Vec<usize> = (0..wire.len()).collect();
        for (i, &r) in shuffle.iter().enumerate() {
            if !order.is_empty() {
                let len = order.len();
                order.swap(i % len, r % len);
            }
        }
        // The observer reuses p2's slot but never broadcasts itself, so
        // even "its own" workload messages arrive like any other sender's.
        let mut log: Vec<(MsgId, causal_clocks::VectorClock)> = Vec::new();
        let mut observer = CbcastEngine::<usize>::new(ProcessId::new(2), n);
        for &k in &order {
            for released in observer.on_receive(wire[k].clone()) {
                log.push((released.id, released.vt.clone()));
            }
        }
        prop_assert_eq!(log.len(), wire.len());
        prop_assert!(check::vt_logs_respect_causality(&[log]).is_ok());
    }

    /// Deterministic merge emits the same total order for every arrival
    /// permutation.
    #[test]
    fn merge_total_order_is_permutation_invariant(
        rounds in 1usize..5,
        members in 2usize..5,
        perm_seed in any::<u64>(),
    ) {
        let mut msgs = Vec::new();
        for r in 0..rounds as u64 {
            for m in 0..members {
                msgs.push(RoundMsg { round: r, from: ProcessId::new(m as u32), payload: (r, m) });
            }
        }
        // Reference order: natural arrival.
        let mut merge_a = DeterministicMerge::new(members);
        let mut out_a = Vec::new();
        for m in &msgs {
            out_a.extend(merge_a.on_receive(m.clone()));
        }
        // Permuted arrival (simple LCG-driven Fisher-Yates).
        let mut order: Vec<usize> = (0..msgs.len()).collect();
        let mut state = perm_seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let mut merge_b = DeterministicMerge::new(members);
        let mut out_b = Vec::new();
        for &k in &order {
            out_b.extend(merge_b.on_receive(msgs[k].clone()));
        }
        prop_assert_eq!(out_a, out_b);
    }

    /// Commutative operation sets are always transition-preserving.
    #[test]
    fn commutative_sets_are_transition_preserving(
        deltas in proptest::collection::vec(-100i64..100, 0..6),
        initial in -1000i64..1000,
    ) {
        #[derive(Clone)]
        struct Add(i64);
        impl Operation<i64> for Add {
            fn apply(&self, s: &mut i64) { *s += self.0; }
            fn is_commutative(&self) -> bool { true }
        }
        let ops: Vec<Add> = deltas.into_iter().map(Add).collect();
        prop_assert!(is_transition_preserving(&initial, &ops, 1000));
    }

    /// §6.1 cycles: every member flags the same stable points whatever
    /// interleaving of the commutative interior it observed.
    #[test]
    fn stable_points_reproducible_across_interleavings(
        cycles in 1usize..4,
        width in 1usize..5,
        rotations in proptest::collection::vec(0usize..7, 3),
    ) {
        // Build the §6.1 relation: nc(0) -> ||{c...} -> nc(1) -> ...
        let nc_id = |r: u64| MsgId::new(ProcessId::new(0), r + 1);
        let c_id = |r: u64, k: usize| MsgId::new(ProcessId::new(1 + k as u32), r + 1);
        let mut structure: Vec<(MsgId, Vec<MsgId>, bool)> = Vec::new();
        structure.push((nc_id(0), vec![], true));
        for r in 0..cycles as u64 {
            let interior: Vec<MsgId> = (0..width).map(|k| c_id(r, k)).collect();
            for &c in &interior {
                structure.push((c, vec![nc_id(r)], false));
            }
            structure.push((nc_id(r + 1), interior, true));
        }
        // Each "member" delivers with its interior rotated differently —
        // any rotation is a valid causal delivery order here.
        let member_logs: Vec<Vec<LogEntry>> = rotations.iter().map(|&rot| {
            let mut log = Vec::new();
            let mut i = 0;
            while i < structure.len() {
                let (id, deps, sync) = structure[i].clone();
                if sync {
                    log.push(LogEntry::new(id, deps, true));
                    i += 1;
                } else {
                    // Collect the whole interior run and rotate it.
                    let mut run = Vec::new();
                    while i < structure.len() && !structure[i].2 {
                        run.push(structure[i].clone());
                        i += 1;
                    }
                    let r = rot % run.len().max(1);
                    run.rotate_left(r);
                    for (id, deps, sync) in run {
                        log.push(LogEntry::new(id, deps, sync));
                    }
                }
            }
            log
        }).collect();
        prop_assert!(check::stable_points_consistent(&member_logs).is_ok());
        // And the detector flags exactly cycles+1 points on each.
        for log in &member_logs {
            let mut det = StablePointDetector::new();
            let found: Vec<MsgId> = log
                .iter()
                .filter_map(|e| det.on_deliver(e.id, &e.deps, e.sync_candidate).map(|sp| sp.msg))
                .collect();
            prop_assert_eq!(found.len(), cycles + 1);
        }
    }
}

fn arb_msg_id() -> impl Strategy<Value = MsgId> {
    (0u32..64, 1u64..1_000_000).prop_map(|(p, s)| MsgId::new(ProcessId::new(p), s))
}

proptest! {
    /// Wire codec: graph envelopes round-trip for arbitrary ids, dep sets,
    /// and string payloads.
    #[test]
    fn wire_graph_envelope_roundtrips(
        id in arb_msg_id(),
        deps in proptest::collection::vec(arb_msg_id(), 0..10),
        payload in ".*",
    ) {
        let env = GraphEnvelope {
            id,
            deps: deps.into(),
            payload,
        };
        let mut buf = Vec::new();
        env.encode(&mut buf);
        let mut input = buf.as_slice();
        let decoded = GraphEnvelope::<String>::decode(&mut input).unwrap();
        prop_assert_eq!(decoded, env);
        prop_assert!(input.is_empty());
    }

    /// Wire codec: vt envelopes round-trip for arbitrary clocks.
    #[test]
    fn wire_vt_envelope_roundtrips(
        id in arb_msg_id(),
        entries in proptest::collection::vec(any::<u64>(), 0..32),
        payload in any::<i64>(),
    ) {
        let env = VtEnvelope { id, vt: VectorClock::from_entries(entries), payload };
        let mut buf = Vec::new();
        env.encode(&mut buf);
        let mut input = buf.as_slice();
        let decoded = VtEnvelope::<i64>::decode(&mut input).unwrap();
        prop_assert_eq!(decoded, env);
    }

    /// Wire codec: decoding arbitrary junk never panics.
    #[test]
    fn wire_decode_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut input = junk.as_slice();
        let _ = GraphEnvelope::<u64>::decode(&mut input);
        let mut input2 = junk.as_slice();
        let _ = VtEnvelope::<u64>::decode(&mut input2);
    }

    /// Frame header: round-trips at every legal length, including the
    /// boundaries 0 and MAX_FRAME_LEN.
    #[test]
    fn frame_header_roundtrips(raw in 0u32..=wire::MAX_FRAME_LEN) {
        // Exercise the exact boundaries alongside arbitrary lengths.
        for len in [0, raw, wire::MAX_FRAME_LEN] {
            let header = wire::FrameHeader { len };
            let buf = header.to_wire();
            prop_assert_eq!(buf.len(), wire::FrameHeader::ENCODED_LEN);
            prop_assert_eq!(wire::FrameHeader::from_wire(&buf).unwrap(), header);
        }
    }

    /// Frame header: every truncated prefix fails with UnexpectedEnd, never
    /// a panic or a bogus success.
    #[test]
    fn frame_header_truncation_detected(len in 0u32..=wire::MAX_FRAME_LEN) {
        let buf = wire::FrameHeader { len }.to_wire();
        for cut in 0..buf.len() {
            let mut input = &buf[..cut];
            prop_assert_eq!(
                wire::FrameHeader::decode(&mut input),
                Err(wire::DecodeError::UnexpectedEnd)
            );
        }
    }

    /// Frame header: lengths beyond MAX_FRAME_LEN are rejected as
    /// LengthOutOfRange, reporting the offending length.
    #[test]
    fn frame_header_oversized_rejected(excess in 1u32..=(u32::MAX - wire::MAX_FRAME_LEN)) {
        let bad = wire::MAX_FRAME_LEN + excess;
        let mut buf = Vec::new();
        buf.extend_from_slice(&bad.to_le_bytes());
        let mut input = buf.as_slice();
        prop_assert_eq!(
            wire::FrameHeader::decode(&mut input),
            Err(wire::DecodeError::LengthOutOfRange { got: bad as u64 })
        );
    }
}

proptest! {
    /// The indexed CBCAST engine is observationally identical to the seed
    /// flat-rescan engine under arbitrary schedules: reorders, duplicated
    /// receptions, and drops (messages that simply never arrive). Every
    /// `on_receive` must release the same envelopes in the same order,
    /// and the whole release order, clock, buffer depth, and duplicate
    /// count must all agree.
    #[test]
    fn cbcast_indexed_equivalent_to_flat_engine(
        sends_per in proptest::collection::vec(1usize..6, 3),
        raw_sched in proptest::collection::vec(0usize..1000, 0..80),
    ) {
        // Multi-sender wire with maximal potential causality, as in
        // cbcast_respects_potential_causality above.
        let n = 3;
        let mut engines: Vec<CbcastEngine<usize>> =
            (0..n).map(|i| CbcastEngine::new(ProcessId::new(i as u32), n)).collect();
        let mut wire: Vec<VtEnvelope<usize>> = Vec::new();
        let mut counter = 0usize;
        for round in 0..*sends_per.iter().max().unwrap() {
            for s in 0..n {
                if round < sends_per[s] {
                    for env in wire.clone() {
                        engines[s].on_receive(env);
                    }
                    wire.push(engines[s].broadcast(counter));
                    counter += 1;
                }
            }
        }
        // The schedule is a random multiset over the wire: indices may
        // repeat (duplicates) or be absent entirely (drops), in any order.
        let mut flat = FlatCbcastEngine::<usize>::new(ProcessId::new(2), n);
        let mut indexed = CbcastEngine::<usize>::new(ProcessId::new(2), n);
        let (mut flat_order, mut indexed_order) = (Vec::new(), Vec::new());
        for &raw in &raw_sched {
            let env = &wire[raw % wire.len()];
            let a = flat.on_receive(env.clone());
            let b = indexed.on_receive(env.clone());
            flat_order.extend(ids(&a));
            indexed_order.extend(ids(&b));
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(flat_order, indexed_order);
        prop_assert_eq!(flat.clock(), indexed.clock());
        prop_assert_eq!(flat.pending_len(), indexed.pending_len());
        prop_assert_eq!(flat.duplicates(), indexed.duplicates());
    }

    /// The counted-cascade graph engine is observationally identical to
    /// the seed full-recheck engine under the same schedule family:
    /// random DAGs, arrival orders with duplicates and drops.
    #[test]
    fn graph_indexed_equivalent_to_scan_engine(
        dag in arb_dag(20),
        raw_sched in proptest::collection::vec(0usize..1000, 0..60),
    ) {
        let envs = dag_envelopes(&dag);
        let mut scan = ScanGraphDelivery::<usize>::new();
        let mut indexed = GraphDelivery::<usize>::new();
        let (mut scan_order, mut indexed_order) = (Vec::new(), Vec::new());
        for &raw in &raw_sched {
            let env = &envs[raw % envs.len()];
            let a = ids(&scan.on_receive(env.clone()));
            let b = ids(&indexed.on_receive(env.clone()));
            prop_assert_eq!(&a, &b);
            scan_order.extend(a);
            indexed_order.extend(b);
        }
        prop_assert_eq!(scan_order, indexed_order);
        prop_assert_eq!(scan.pending_len(), indexed.pending_len());
        prop_assert_eq!(scan.duplicates(), indexed.duplicates());
    }
}

// ---------------------------------------------------------------------------
// PC-broadcast: differential properties against the vector engine.
// ---------------------------------------------------------------------------

type PcFrame = LinkFrame<Timed<PcEnvelope<u64>>>;

/// A deterministic mini-network over a PC group: one frame queue per
/// directed overlay link, which the proptest schedule can reorder
/// (deliver from any queue position), duplicate (deliver a copy but keep
/// the original in flight), or drop (discard — recovered later by the
/// links' retransmission protocol). A member can crash, which re-derives
/// the overlay at every survivor.
struct PcNet {
    /// `None` once the member has crashed.
    engines: Vec<Option<PcEngine<u64>>>,
    queues: BTreeMap<(usize, usize), Vec<PcFrame>>,
    /// Each member's delivered envelopes in delivery order (its own
    /// sends included): the stack's membership store, which pong flushes
    /// replay from.
    history: Vec<Vec<Timed<PcEnvelope<u64>>>>,
}

impl PcNet {
    fn new(n: usize) -> Self {
        PcNet {
            engines: (0..n)
                .map(|i| Some(PcEngine::for_member(ProcessId::new(i as u32), n)))
                .collect(),
            queues: BTreeMap::new(),
            history: vec![Vec::new(); n],
        }
    }

    /// The engines of the members that have not crashed.
    fn live(&self) -> impl Iterator<Item = &PcEngine<u64>> {
        self.engines.iter().flatten()
    }

    /// The delivery order of each member that has not crashed, read from
    /// its history.
    fn live_logs(&self) -> Vec<Vec<MsgId>> {
        self.engines
            .iter()
            .zip(&self.history)
            .filter(|(engine, _)| engine.is_some())
            .map(|(_, history)| history.iter().map(|t| t.env.id).collect())
            .collect()
    }

    fn enqueue(&mut self, from: usize, sends: Vec<LinkSend<PcEnvelope<u64>>>) {
        for (to, frame) in sends {
            if self.engines[to.as_usize()].is_some() {
                self.queues
                    .entry((from, to.as_usize()))
                    .or_default()
                    .push(frame);
            }
        }
    }

    fn broadcast(&mut self, node: usize, payload: u64) -> MsgId {
        let engine = self.engines[node].as_mut().expect("sender alive");
        let (env, _self_delivery) = engine.send(payload, OccursAfter::none());
        let id = env.id;
        let timed = Timed {
            env,
            sent_at: SimTime::ZERO,
        };
        self.history[node].push(timed.clone());
        let sends = engine.route_broadcast(timed);
        self.enqueue(node, sends);
        id
    }

    fn deliver(&mut self, (from, to): (usize, usize), frame: PcFrame) {
        let Some(engine) = self.engines[to].as_mut() else {
            return;
        };
        let out = engine.on_link_frame(ProcessId::new(from as u32), frame, &self.history[to]);
        self.history[to].extend(out.released.into_iter().map(|env| Timed {
            env,
            sent_at: SimTime::ZERO,
        }));
        self.enqueue(to, out.sends);
    }

    /// Crashes `victim`: its queues vanish with it, and every survivor
    /// re-derives the overlay, opening quarantined links where the tree
    /// changed.
    fn crash(&mut self, victim: usize) {
        self.engines[victim] = None;
        self.queues.retain(|&(a, b), _| a != victim && b != victim);
        let survivors: Vec<ProcessId> = (0..self.engines.len())
            .filter(|&i| self.engines[i].is_some())
            .map(|i| ProcessId::new(i as u32))
            .collect();
        for i in 0..self.engines.len() {
            if let Some(engine) = self.engines[i].as_mut() {
                let mut sends = Vec::new();
                engine.on_members(&survivors, &mut sends);
                self.enqueue(i, sends);
            }
        }
    }

    /// One adversarial network step: `a` picks among the non-empty
    /// queues, `b` a position within it, and `action % 3` decides
    /// deliver / duplicate / drop.
    fn scramble_step(&mut self, a: usize, b: usize, action: u8) {
        let live: Vec<(usize, usize)> = self
            .queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&k, _)| k)
            .collect();
        let Some(&key) = live.get(a % live.len().max(1)) else {
            return;
        };
        let queue = self.queues.get_mut(&key).expect("live key");
        let idx = b % queue.len();
        match action % 3 {
            0 => {
                let frame = queue.remove(idx);
                self.deliver(key, frame);
            }
            1 => {
                // Duplicate: deliver a copy, leave the original in flight.
                let frame = queue[idx].clone();
                self.deliver(key, frame);
            }
            _ => {
                // Drop. Sequenced frames sit unacked at the sender and
                // come back via retransmission; a dropped ack resolves
                // when the retransmitted duplicate is re-acked.
                queue.remove(idx);
            }
        }
    }

    /// First link with frames still queued, if any.
    fn next_busy_link(&self) -> Option<(usize, usize)> {
        self.queues
            .iter()
            .find(|(_, q)| !q.is_empty())
            .map(|(&k, _)| k)
    }

    /// Runs the network loss- and reorder-free to quiescence: delivers
    /// every queued frame in order, then pumps retransmissions, until no
    /// link has unacknowledged frames.
    fn drain(&mut self) {
        for _round in 0..64 {
            while let Some(key) = self.next_busy_link() {
                let frame = self
                    .queues
                    .get_mut(&key)
                    .expect("found non-empty")
                    .remove(0);
                self.deliver(key, frame);
            }
            if !self.live().any(|e| e.link_has_pending()) {
                return;
            }
            for i in 0..self.engines.len() {
                if let Some(engine) = self.engines[i].as_mut() {
                    let mut rtx = Vec::new();
                    engine.link_retransmissions(LinkClock::STOPPED, &mut rtx);
                    self.enqueue(i, rtx);
                }
            }
        }
        panic!("PC network failed to quiesce");
    }
}

fn arb_pc_body() -> impl Strategy<Value = LinkBody<Timed<PcEnvelope<u64>>>> {
    prop_oneof![
        (arb_msg_id(), any::<u64>(), any::<u64>()).prop_map(|(id, payload, at)| {
            LinkBody::Msg(Timed {
                env: PcEnvelope { id, payload },
                sent_at: SimTime::from_micros(at),
            })
        }),
        any::<u64>().prop_map(|token| LinkBody::Ping { token }),
        (
            any::<u64>(),
            proptest::collection::vec((0u32..64, any::<u64>()), 0..8)
        )
            .prop_map(|(token, entries)| LinkBody::Pong {
                token,
                delivered: entries
                    .into_iter()
                    .map(|(p, w)| (ProcessId::new(p), w))
                    .collect(),
            }),
        (any::<u64>(), any::<u64>()).prop_map(|(cum, holes)| LinkBody::Ack { cum, holes }),
    ]
}

proptest! {
    /// Differential check of PC-broadcast against the vector engine:
    /// run a random multi-sender workload over the overlay under an
    /// adversarial schedule (within-link reorder, duplication, frame
    /// loss with retransmission), then replay every node's PC delivery
    /// log through CBCAST. Shadow vector engines mint a vt-stamped twin
    /// of each message from its origin's own log prefix, and a per-node
    /// observer must accept the node's log with **zero buffering** —
    /// any hold-back means the constant-metadata engine produced an
    /// order the vector clocks refute. The resulting logs must be
    /// byte-identical on the wire.
    #[test]
    fn pc_delivery_logs_are_vector_engine_logs(
        n in 3usize..=9,
        script in proptest::collection::vec(
            (0usize..10_000, 0usize..10_000, 0u8..16),
            8..120,
        ),
    ) {
        let mut net = PcNet::new(n);
        let mut payloads: BTreeMap<MsgId, u64> = BTreeMap::new();
        let mut counter = 0u64;
        for &(a, b, kind) in &script {
            if kind >= 12 {
                let id = net.broadcast(a % n, counter);
                payloads.insert(id, counter);
                counter += 1;
            } else {
                net.scramble_step(a, b, kind);
            }
        }
        // Make sure at least one message exists, then let the protocol
        // recover everything the schedule scrambled or dropped.
        if payloads.is_empty() {
            let id = net.broadcast(0, counter);
            payloads.insert(id, counter);
        }
        net.drain();

        // Every node delivered every message exactly once.
        let mut expected: Vec<MsgId> = payloads.keys().copied().collect();
        expected.sort_unstable();
        let logs = net.live_logs();
        for (i, (e, log)) in net.live().zip(&logs).enumerate() {
            prop_assert_eq!(e.pending_len(), 0, "node {} still buffering", i);
            let mut ids = log.clone();
            ids.sort_unstable();
            prop_assert_eq!(&ids, &expected, "node {} delivered a different set", i);
        }

        // Mint the vt twin of each message. Origin o's shadow engine
        // walks o's PC log in order: its own entries become broadcasts
        // (capturing exactly the causal past PC gave them), foreign
        // entries are receives of already-minted twins. Cross-origin
        // waits resolve monotonically unless PC produced a causal cycle.
        let mut shadows: Vec<CbcastEngine<u64>> = (0..n)
            .map(|i| CbcastEngine::new(ProcessId::new(i as u32), n))
            .collect();
        let mut minted: BTreeMap<MsgId, VtEnvelope<u64>> = BTreeMap::new();
        let mut pos = vec![0usize; n];
        loop {
            let mut progressed = false;
            for o in 0..n {
                while pos[o] < logs[o].len() {
                    let id = logs[o][pos[o]];
                    if id.origin().as_usize() == o {
                        let env = shadows[o].broadcast(payloads[&id]);
                        prop_assert_eq!(env.id, id, "shadow seq diverged at origin {}", o);
                        minted.insert(id, env);
                    } else if let Some(env) = minted.get(&id) {
                        shadows[o].on_receive(env.clone());
                    } else {
                        break;
                    }
                    pos[o] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        for o in 0..n {
            prop_assert_eq!(
                pos[o], logs[o].len(),
                "mint deadlock: node {}'s PC log is causally cyclic", o
            );
        }

        // The observer pass: a fresh vector engine per node consumes the
        // node's PC log front to back. Each receive must release exactly
        // that message — immediately, with nothing held back.
        for (o, log) in logs.iter().enumerate() {
            let mut observer = CbcastEngine::<u64>::new(ProcessId::new(o as u32), n);
            let mut observed = Vec::new();
            for &id in log {
                if id.origin().as_usize() == o {
                    let (env, released) = observer.send(payloads[&id], OccursAfter::none());
                    prop_assert_eq!(env.id, id);
                    observed.extend(ids(&released));
                } else {
                    let released = ids(&observer.on_receive(minted[&id].clone()));
                    prop_assert_eq!(
                        &released, &vec![id],
                        "vector engine refuses node {}'s PC order at {}", o, id
                    );
                    observed.extend(released);
                }
            }
            prop_assert_eq!(observer.pending_len(), 0);
            // Byte-identical delivery logs between the two engines.
            let pc_bytes: Vec<u8> = log.iter().flat_map(|id| id.to_wire()).collect();
            let vt_bytes: Vec<u8> = observed.iter().flat_map(|id| id.to_wire()).collect();
            prop_assert_eq!(pc_bytes, vt_bytes, "logs differ on the wire at node {}", o);
        }
    }

    /// PC link frames survive the wire for every body shape and
    /// arbitrary sequence numbers, via the stack's `Link` variant.
    #[test]
    fn pc_link_frames_roundtrip_on_the_wire(
        seq in any::<u64>(),
        body in arb_pc_body(),
    ) {
        let msg: StackWire<PcEnvelope<u64>> = StackWire::Link(LinkFrame { seq, body });
        let buf = msg.to_wire();
        let decoded = <StackWire<PcEnvelope<u64>>>::from_wire(&buf).expect("round-trip");
        prop_assert_eq!(decoded, msg);
    }
}

/// PC-broadcast buffers in proportion to churn, not to group size
/// (Nédelec, Molli & Mostéfaoui, SRDS 2018). The same three-phase
/// workload runs at 10, 32 and 100 members: 12 broadcasts drained, 12
/// more still in flight when interior member 1 crashes, and 12 over the
/// repaired overlay. Every survivor ends with the full message set,
/// because pong flushes replay from each member's history what the
/// crash swallowed, and the peak buffered count is the same at every
/// size.
#[test]
fn churn_buffering_does_not_grow_with_group_size() {
    const ROUNDS: usize = 12;
    const VICTIM: usize = 1;
    let mut peaks = Vec::new();
    for n in [10, 32, 100] {
        let mut net = PcNet::new(n);
        let mut sent = Vec::new();
        for phase in 0..3 {
            for k in 0..ROUNDS {
                let sender = k % n;
                if phase == 0 || sender != VICTIM {
                    sent.push(net.broadcast(sender, sent.len() as u64));
                }
            }
            if phase == 1 {
                net.crash(VICTIM);
            }
            net.drain();
        }
        sent.sort_unstable();
        for (i, log) in net.live_logs().into_iter().enumerate() {
            let mut ids = log;
            ids.sort_unstable();
            assert_eq!(ids, sent, "live member {i} of {n} missed messages");
        }
        peaks.push(net.live().map(PcEngine::peak_buffered).max().unwrap_or(0));
    }
    assert!(peaks[0] > 0, "the crash buffered nothing: {peaks:?}");
    assert!(
        peaks.iter().all(|&p| p == peaks[0]),
        "peak buffered grew with group size: {peaks:?} at n = 10, 32, 100"
    );
}

/// A sender link, a receiver link, and the frames between them: data
/// frames on their way to the receiver and acks on their way back, each
/// in no particular order, with a clock both links read.
struct LinkPair {
    tx: Link<u64>,
    rx: Link<u64>,
    data: Vec<LinkFrame<u64>>,
    /// Acks on their way back, as `(cum, holes)`.
    acks: Vec<(u64, u64)>,
    /// Every body the receiver released, in release order.
    released: Vec<LinkBody<u64>>,
    /// The last ack the receiver returned.
    last_ack: u64,
    /// Model: every sequence number the receiver was fed, and the
    /// longest prefix `1..=prefix` among them.
    seen: BTreeSet<u64>,
    prefix: u64,
    /// Frames the sender has pushed; frame `k` carries body `k`.
    pushed: u64,
    /// The time both links read.
    now: SimTime,
    /// Model: when each sequence number first reached the receiver.
    arrived: BTreeMap<u64, SimTime>,
    /// Model: when the receiver last named each sequence number lost.
    named: BTreeMap<u64, SimTime>,
}

/// The retransmission period the links read: W = P/8 = 625 µs, and a
/// hole is named again after P/2 = 2.5 ms.
const LINK_PERIOD: SimDuration = DEFAULT_RETRANSMIT;

/// The sequence numbers an ack at `cum` names in `holes`.
fn named_seqs(cum: u64, holes: u64) -> Vec<u64> {
    (0..64)
        .filter(|i| holes >> i & 1 == 1)
        .map(|i| cum + 1 + i)
        .collect()
}

impl LinkPair {
    fn new() -> Self {
        LinkPair {
            tx: Link::new_safe(),
            rx: Link::new_safe(),
            data: Vec::new(),
            acks: Vec::new(),
            released: Vec::new(),
            last_ack: 0,
            seen: BTreeSet::new(),
            prefix: 0,
            pushed: 0,
            now: SimTime::ZERO,
            arrived: BTreeMap::new(),
            named: BTreeMap::new(),
        }
    }

    fn clock(&self) -> LinkClock {
        LinkClock {
            now: self.now,
            period: LINK_PERIOD,
        }
    }

    /// The sender sends its next frame.
    fn push(&mut self) {
        self.pushed += 1;
        let frame = self.tx.push(LinkBody::Msg(self.pushed));
        self.data.push(frame);
    }

    fn advance(&mut self, micros: u64) {
        self.now += SimDuration::from_micros(micros);
    }

    /// Feeds `frame` to the receiver and checks what it did against the
    /// model: its in-order point is the longest prefix it was fed, it
    /// released exactly that far, it buffers exactly what it was fed
    /// above the point, and it sent back at most one ack (see
    /// [`LinkPair::take_ack`]).
    fn receive(&mut self, frame: LinkFrame<u64>) {
        self.seen.insert(frame.seq);
        self.arrived.entry(frame.seq).or_insert(self.now);
        while self.seen.contains(&(self.prefix + 1)) {
            self.prefix += 1;
        }
        let mut replies = Vec::new();
        self.rx
            .on_frame(frame, self.clock(), &mut self.released, &mut replies);
        let point = self.rx.in_order_point();
        assert_eq!(point, self.prefix);
        assert_eq!(self.released.len() as u64, point);
        assert_eq!(self.rx.buffered(), self.seen.range(point + 1..).count());
        assert!(replies.len() <= 1, "{replies:?}");
        for reply in replies {
            self.take_ack(reply);
        }
    }

    /// Checks an ack the receiver sent and puts it on its way back. Its
    /// point neither falls nor passes the receiver's in-order point, and
    /// each hole it names was sent, is missing at the receiver, lies
    /// below a frame that arrived at least W ago, and was last named at
    /// least P/2 ago, if ever.
    fn take_ack(&mut self, reply: LinkFrame<u64>) {
        let LinkBody::Ack { cum, holes } = reply.body else {
            panic!("the receiver sent {reply:?}");
        };
        let point = self.rx.in_order_point();
        assert!(cum >= self.last_ack, "ack fell: {cum} < {}", self.last_ack);
        assert!(cum <= point, "ack {cum} passes the point {point}");
        self.last_ack = cum;
        let outwait = LINK_PERIOD.as_micros() / 8;
        for seq in named_seqs(cum, holes) {
            assert!(seq <= self.pushed, "named {seq}, which was never sent");
            assert!(!self.seen.contains(&seq), "named {seq}, which arrived");
            let waited = |t: &SimTime| self.now.saturating_since(*t).as_micros();
            assert!(
                self.arrived
                    .range(seq + 1..)
                    .any(|(_, t)| waited(t) >= outwait),
                "named {seq} at {}, below no frame parked for W",
                self.now
            );
            if let Some(last) = self.named.get(&seq) {
                let again = waited(last);
                assert!(
                    again >= LINK_PERIOD.as_micros() / 2,
                    "named {seq} again after {again} µs"
                );
            }
            self.named.insert(seq, self.now);
        }
        self.acks.push((cum, holes));
    }

    /// Feeds an ack to the sender, which resends exactly the retained
    /// frames it names; the resends go on their way to the receiver.
    fn ack_sender(&mut self, cum: u64, holes: u64) {
        let (mut none, mut resent) = (Vec::new(), Vec::new());
        let ack = LinkFrame {
            seq: 0,
            body: LinkBody::Ack { cum, holes },
        };
        self.tx.on_frame(ack, self.clock(), &mut none, &mut resent);
        assert!(none.is_empty());
        let named = named_seqs(cum, holes);
        for frame in &resent {
            assert!(named.contains(&frame.seq), "resent unnamed {frame:?}");
            assert_eq!(frame.body, LinkBody::Msg(frame.seq));
        }
        self.data.extend(resent);
    }

    /// The retransmission tick: the receiver names the holes due, and
    /// the sender resends its unacknowledged tail.
    fn tick(&mut self) {
        if let Some(report) = self.rx.hole_report(self.clock()) {
            self.take_ack(report);
        }
        self.data.extend(self.tx.retransmissions());
    }

    /// Delivers everything in flight in send order, then repairs losses
    /// by retransmission ticks `step` apart until the sender holds
    /// nothing unacked.
    fn quiesce(&mut self, step: u64) {
        for _round in 0..8 {
            for frame in std::mem::take(&mut self.data) {
                self.receive(frame);
            }
            for (cum, holes) in std::mem::take(&mut self.acks) {
                self.ack_sender(cum, holes);
            }
            if !self.tx.has_pending() {
                return;
            }
            self.advance(step);
            self.tick();
        }
        panic!("the link failed to quiesce");
    }

    /// Repairs losses with no retransmission burst: delivers everything
    /// in flight, lets the sender answer every ack, and when nothing is
    /// in flight lets P/2 pass and has the receiver name what it still
    /// misses, until the receiver holds the whole stream.
    fn quiesce_by_naming(&mut self) {
        for _round in 0..64 {
            for frame in std::mem::take(&mut self.data) {
                self.receive(frame);
            }
            for (cum, holes) in std::mem::take(&mut self.acks) {
                self.ack_sender(cum, holes);
            }
            if self.rx.in_order_point() == self.pushed {
                return;
            }
            if self.data.is_empty() {
                self.advance(LINK_PERIOD.as_micros() / 2);
                if let Some(report) = self.rx.hole_report(self.clock()) {
                    self.take_ack(report);
                }
            }
        }
        panic!("naming failed to repair the stream");
    }
}

proptest! {
    /// Link reassembly under random schedules: frames arrive in any
    /// order, duplicated or dropped, acks are lost or reordered, and now
    /// and then a stray frame lands at a far sequence number. Every body
    /// is released exactly once and in sequence order, acks never fall
    /// or pass the receiver's in-order point, the strays neither block
    /// nor reorder the stream, and once retransmission bursts have
    /// repaired the drops only the strays stay buffered. The clock
    /// stands still, so no hole is ever named.
    #[test]
    fn link_reassembly_releases_each_body_once_in_order(
        frames in 1u64..=300,
        script in proptest::collection::vec((0usize..10_000, 0u8..16), 0..1200),
    ) {
        let mut pair = LinkPair::new();
        let mut strays = BTreeSet::new();
        for &(pick, kind) in &script {
            match kind {
                0..=4 if pair.pushed < frames => pair.push(),
                5..=8 if !pair.data.is_empty() => {
                    let frame = pair.data.swap_remove(pick % pair.data.len());
                    pair.receive(frame);
                }
                9 if !pair.data.is_empty() => {
                    let frame = pair.data[pick % pair.data.len()].clone();
                    pair.receive(frame);
                }
                10 if !pair.data.is_empty() => {
                    pair.data.swap_remove(pick % pair.data.len());
                }
                11 if !pair.acks.is_empty() => {
                    let (cum, holes) = pair.acks.swap_remove(pick % pair.acks.len());
                    if pick % 4 != 0 {
                        pair.ack_sender(cum, holes);
                    }
                }
                12 => pair.tick(),
                13 => {
                    let seq = u64::MAX - 1 - (pick % 3) as u64;
                    strays.insert(seq);
                    pair.receive(LinkFrame { seq, body: LinkBody::Msg(0) });
                }
                _ => {}
            }
        }
        while pair.pushed < frames {
            pair.push();
        }
        pair.quiesce(0);
        let expected: Vec<LinkBody<u64>> = (1..=frames).map(LinkBody::Msg).collect();
        prop_assert_eq!(&pair.released, &expected);
        prop_assert_eq!(pair.rx.in_order_point(), frames);
        prop_assert_eq!(pair.rx.buffered(), strays.len());
        prop_assert_eq!(pair.last_ack, frames);
        prop_assert!(pair.named.is_empty());
        prop_assert_eq!(pair.tx.repair_count(), 0);
    }

    /// Hole naming under random schedules on a running clock: frames
    /// arrive at random times, reordered, duplicated or dropped; acks
    /// are lost at random whether or not they name holes; the sender
    /// resends what acks name; and now and then a tick names the holes
    /// due and resends the unacknowledged tail. After every step each
    /// named frame was sent, was missing when named, lies below a frame
    /// parked for at least W, and was not named in the P/2 before, and
    /// the prefix model above still holds. At the end every body has
    /// been released once, in order.
    #[test]
    fn link_names_only_outwaited_holes(
        frames in 1u64..=200,
        script in proptest::collection::vec((0usize..10_000, 0u8..16, 0u64..400), 0..1500),
    ) {
        let mut pair = LinkPair::new();
        for &(pick, kind, micros) in &script {
            match kind {
                0..=3 if pair.pushed < frames => pair.push(),
                4..=7 if !pair.data.is_empty() => {
                    let frame = pair.data.swap_remove(pick % pair.data.len());
                    pair.receive(frame);
                }
                8 if !pair.data.is_empty() => {
                    let frame = pair.data[pick % pair.data.len()].clone();
                    pair.receive(frame);
                }
                9 if !pair.data.is_empty() => {
                    pair.data.swap_remove(pick % pair.data.len());
                }
                10 if !pair.acks.is_empty() => {
                    let (cum, holes) = pair.acks.swap_remove(pick % pair.acks.len());
                    if pick % 4 != 0 {
                        pair.ack_sender(cum, holes);
                    }
                }
                11 if pick % 8 == 0 => pair.tick(),
                _ => pair.advance(micros),
            }
        }
        while pair.pushed < frames {
            pair.push();
        }
        pair.quiesce(LINK_PERIOD.as_micros());
        let expected: Vec<LinkBody<u64>> = (1..=frames).map(LinkBody::Msg).collect();
        prop_assert_eq!(&pair.released, &expected);
        prop_assert_eq!(pair.rx.in_order_point(), frames);
        prop_assert_eq!(pair.rx.buffered(), 0);
        prop_assert_eq!(pair.last_ack, frames);
    }

    /// With no retransmission burst and no lost hole report, naming
    /// alone repairs every dropped frame a later frame outran: the
    /// schedule drops data frames (resends included) at random, every
    /// ack reaches the sender, and the stream closes with a frame that
    /// is never dropped, so every drop lies below a frame that arrived.
    #[test]
    fn naming_alone_repairs_every_outrun_loss(
        frames in 2u64..=150,
        script in proptest::collection::vec((0usize..10_000, 0u8..12, 0u64..400), 0..1200),
    ) {
        let mut pair = LinkPair::new();
        let mut dropped = 0;
        for &(pick, kind, micros) in &script {
            match kind {
                0..=2 if pair.pushed < frames => pair.push(),
                3..=5 if !pair.data.is_empty() => {
                    let frame = pair.data.swap_remove(pick % pair.data.len());
                    pair.receive(frame);
                }
                6 if !pair.data.is_empty() => {
                    pair.data.swap_remove(pick % pair.data.len());
                    dropped += 1;
                }
                7 if !pair.acks.is_empty() => {
                    let (cum, holes) = pair.acks.swap_remove(pick % pair.acks.len());
                    pair.ack_sender(cum, holes);
                }
                _ => pair.advance(micros),
            }
        }
        while pair.pushed <= frames {
            pair.push();
        }
        pair.quiesce_by_naming();
        let expected: Vec<LinkBody<u64>> = (1..=pair.pushed).map(LinkBody::Msg).collect();
        prop_assert_eq!(&pair.released, &expected);
        prop_assert_eq!(pair.tx.retransmit_count(), 0);
        prop_assert!(!pair.tx.has_pending());
        if dropped > 0 {
            prop_assert!(pair.tx.repair_count() > 0);
        }
    }
}

/// A reliable-broadcast sender and receiver and the traffic between
/// them, on a clock both read. The sender, member 1, broadcasts its own
/// messages and relays those of member 0, which crashed. One of member
/// 0's messages reached no survivor, so the sender never relays it: a
/// hole that never fills. The receiver is member 2.
struct RbPair {
    tx: ReliableBroadcast<GraphEnvelope<u64>>,
    rx: ReliableBroadcast<GraphEnvelope<u64>>,
    /// Every message member 0 sent, the hole included.
    crashed: Vec<GraphEnvelope<u64>>,
    /// The sequence number of member 0's message that never arrives.
    hole: u64,
    /// How many of member 0's messages the sender has got through
    /// (relayed, or skipped as the hole).
    relayed: u64,
    own: OSender,
    /// Member 1's broadcasts so far.
    broadcast: u64,
    /// Copies on their way to the receiver.
    data: Vec<GraphEnvelope<u64>>,
    /// Acks on their way back to the sender.
    acks: Vec<RbAck>,
    /// The time both read.
    now: SimTime,
    /// Model: when each id first reached the receiver.
    arrived: BTreeMap<MsgId, SimTime>,
    /// Model: the ids the receiver released.
    released: BTreeSet<MsgId>,
    /// Model: when the receiver last named each id lost.
    named: BTreeMap<MsgId, SimTime>,
    /// Model: the sender's backstop ticks, and the tick count at each
    /// copy's last transmission.
    ticks: u64,
    sent_tick: BTreeMap<MsgId, u64>,
}

const CRASHED: ProcessId = ProcessId::new(0);
const SENDER: ProcessId = ProcessId::new(1);
const RECEIVER: ProcessId = ProcessId::new(2);

impl RbPair {
    fn new(crashed: u64, hole: u64) -> Self {
        let mut origin = OSender::new(CRASHED);
        RbPair {
            tx: ReliableBroadcast::with_peers(SENDER, [RECEIVER]),
            rx: ReliableBroadcast::with_peers(RECEIVER, [SENDER]),
            crashed: (1..=crashed)
                .map(|k| origin.osend(k, OccursAfter::none()))
                .collect(),
            hole,
            relayed: 0,
            own: OSender::new(SENDER),
            broadcast: 0,
            data: Vec::new(),
            acks: Vec::new(),
            now: SimTime::ZERO,
            arrived: BTreeMap::new(),
            released: BTreeSet::new(),
            named: BTreeMap::new(),
            ticks: 0,
            sent_tick: BTreeMap::new(),
        }
    }

    fn clock(&self) -> LinkClock {
        LinkClock {
            now: self.now,
            period: LINK_PERIOD,
        }
    }

    fn advance(&mut self, micros: u64) {
        self.now += SimDuration::from_micros(micros);
    }

    /// How many messages `origin` sent.
    fn issued(&self, origin: ProcessId) -> u64 {
        if origin == CRASHED {
            self.crashed.len() as u64
        } else {
            self.broadcast
        }
    }

    /// The receiver's model prefix for `origin`.
    fn prefix(&self, origin: ProcessId) -> u64 {
        (1..)
            .find(|&k| !self.arrived.contains_key(&MsgId::new(origin, k)))
            .expect("a finite stream")
            - 1
    }

    /// The sender broadcasts its next message.
    fn broadcast(&mut self) {
        self.broadcast += 1;
        let env = self.own.osend(self.broadcast, OccursAfter::none());
        let (targets, msg) = self.tx.broadcast_grouped(env.clone());
        assert_eq!((targets, msg), (vec![RECEIVER], RbMsg::Data(env.clone())));
        self.sent_tick.insert(env.id, self.ticks);
        self.data.push(env);
    }

    /// The sender relays member 0's next message, unless it is the hole.
    fn relay(&mut self) {
        self.relayed += 1;
        if self.relayed == self.hole {
            return;
        }
        let env = self.crashed[self.relayed as usize - 1].clone();
        let relayed = self.tx.relay(&[RECEIVER], env.clone());
        assert_eq!(relayed, Some((vec![RECEIVER], RbMsg::Data(env.clone()))));
        self.sent_tick.insert(env.id, self.ticks);
        self.data.push(env);
    }

    /// Feeds a copy to the receiver: it is released iff it is the first
    /// copy of its id, and an ack comes back at once only if it names
    /// holes, to the sender (the crashed origin is no peer, and member
    /// 1 is its own messages' origin).
    fn receive(&mut self, env: GraphEnvelope<u64>) {
        let id = env.id;
        let first = !self.arrived.contains_key(&id);
        self.arrived.entry(id).or_insert(self.now);
        let (fresh, named) = self.rx.on_data_at(SENDER, env, self.clock());
        assert_eq!(fresh.is_some(), first, "{id:?} released wrongly");
        if fresh.is_some() {
            assert!(self.released.insert(id), "{id:?} released twice");
        }
        if let Some((to, msg)) = named {
            let RbMsg::Ack(ack) = msg else {
                panic!("the receiver sent {msg:?}");
            };
            assert_eq!(to, SENDER);
            assert_ne!(ack.lost, 0, "an unprompted ack named nothing");
            self.take_ack(ack);
        }
    }

    /// Checks an ack the receiver sent and puts it on its way back. Its
    /// prefix is the receiver's, it marks held only ids that arrived,
    /// and each id it names lost was sent by its origin, is missing at
    /// the receiver, lies below a copy that arrived at least W ago, and
    /// was last named at least P/2 ago, if ever.
    fn take_ack(&mut self, ack: RbAck) {
        let origin = ack.cum.origin();
        assert_eq!(ack.cum.seq(), self.prefix(origin), "{ack:?}");
        assert!(ack.held_from > ack.cum.seq(), "{ack:?}");
        for i in (0..64).filter(|i| ack.held >> i & 1 == 1) {
            let id = MsgId::new(origin, ack.held_from + i);
            assert!(
                self.arrived.contains_key(&id),
                "held {id:?}, which never arrived"
            );
        }
        let outwait = LINK_PERIOD.as_micros() / 8;
        let waited = |t: &SimTime| self.now.saturating_since(*t).as_micros();
        for seq in named_seqs(ack.cum.seq(), ack.lost) {
            let id = MsgId::new(origin, seq);
            assert!(
                seq <= self.issued(origin),
                "named {id:?}, which was never sent"
            );
            assert!(
                !self.arrived.contains_key(&id),
                "named {id:?}, which arrived"
            );
            assert!(
                self.arrived
                    .range(id..MsgId::new(origin, u64::MAX))
                    .any(|(_, t)| waited(t) >= outwait),
                "named {id:?} at {}, below no copy parked for W",
                self.now
            );
            if let Some(last) = self.named.get(&id) {
                let again = waited(last);
                assert!(
                    again >= LINK_PERIOD.as_micros() / 2,
                    "named {id:?} again after {again} µs"
                );
            }
            self.named.insert(id, self.now);
        }
        self.acks.push(ack);
    }

    /// The receiver's ack period: one ack per origin it got copies of.
    fn ack_tick(&mut self) {
        let mut acks = Vec::new();
        self.rx.take_acks(self.clock(), &mut acks);
        assert!(!self.rx.has_due());
        let origins: BTreeSet<ProcessId> = acks.iter().map(|(_, a)| a.cum.origin()).collect();
        assert_eq!(origins.len(), acks.len(), "two acks of one origin");
        for (to, ack) in acks {
            assert_eq!(to, SENDER);
            self.take_ack(ack);
        }
    }

    /// Feeds an ack to the sender, which resends exactly the copies it
    /// names that are still unacknowledged.
    fn ack_sender(&mut self, ack: RbAck) {
        for (to, msg) in self.tx.on_ack(RECEIVER, ack) {
            let RbMsg::Data(env) = msg else {
                panic!("the sender sent {msg:?}");
            };
            assert_eq!(to, RECEIVER);
            assert_eq!(env.id.origin(), ack.cum.origin());
            assert!(
                named_seqs(ack.cum.seq(), ack.lost).contains(&env.id.seq()),
                "resent unnamed {:?}",
                env.id
            );
            self.sent_tick.insert(env.id, self.ticks);
            self.data.push(env);
        }
    }

    /// The sender's backstop tick: it resends only copies whose last
    /// transmission came before the previous tick.
    fn backstop(&mut self) {
        self.ticks += 1;
        for (targets, msg) in self.tx.retransmissions_grouped() {
            let RbMsg::Data(env) = msg else {
                panic!("the sender sent {msg:?}");
            };
            assert_eq!(targets, vec![RECEIVER]);
            let last = self.sent_tick[&env.id];
            assert!(
                last + 2 <= self.ticks,
                "{:?} resent at tick {}, last sent at tick {last}",
                env.id,
                self.ticks
            );
            self.sent_tick.insert(env.id, self.ticks);
            self.data.push(env);
        }
    }

    /// Sends what is left, then delivers everything in flight each ack
    /// period, with the backstop every fourth, until the sender holds
    /// nothing unacknowledged.
    fn quiesce(&mut self, own: u64) {
        while self.broadcast < own {
            self.broadcast();
        }
        while self.relayed < self.crashed.len() as u64 {
            self.relay();
        }
        for round in 0..256 {
            for env in std::mem::take(&mut self.data) {
                self.receive(env);
            }
            self.advance(LINK_PERIOD.as_micros() / 4);
            self.ack_tick();
            for ack in std::mem::take(&mut self.acks) {
                self.ack_sender(ack);
            }
            if self.tx.pending_acks() == 0 {
                return;
            }
            if round % 4 == 3 {
                self.backstop();
            }
        }
        panic!(
            "reliable broadcast failed to quiesce: {} acks pending",
            self.tx.pending_acks()
        );
    }
}

proptest! {
    /// Cumulative acks, SACKs and named losses under random schedules on
    /// a running clock: copies and acks are reordered, duplicated and
    /// dropped, and the receiver's ack periods and the sender's backstop
    /// ticks come at random. Every fresh envelope is released once;
    /// every named id was sent, was missing, lies below a copy parked at
    /// least W earlier, and was not named in the P/2 before; and the
    /// backstop resends only copies older than a period. At quiescence
    /// nothing is unacknowledged, even the relayed copies far above the
    /// hole that never fills, and everything but the hole was released.
    #[test]
    fn rbcast_acks_retire_everything_held_and_name_only_outwaited_holes(
        own in 0u64..=100,
        crashed in 1u64..=150,
        hole in 1u64..=20,
        script in proptest::collection::vec((0usize..10_000, 0u8..18, 0u64..400), 0..1500),
    ) {
        let mut pair = RbPair::new(crashed, hole.min(crashed));
        for &(pick, kind, micros) in &script {
            match kind {
                0..=1 if pair.broadcast < own => pair.broadcast(),
                2..=3 if pair.relayed < crashed => pair.relay(),
                4..=6 if !pair.data.is_empty() => {
                    let env = pair.data.swap_remove(pick % pair.data.len());
                    pair.receive(env);
                }
                7 if !pair.data.is_empty() => {
                    let env = pair.data[pick % pair.data.len()].clone();
                    pair.receive(env);
                }
                8 if !pair.data.is_empty() => {
                    pair.data.swap_remove(pick % pair.data.len());
                }
                9..=10 if !pair.acks.is_empty() => {
                    let ack = pair.acks.swap_remove(pick % pair.acks.len());
                    if pick % 4 != 0 {
                        pair.ack_sender(ack);
                    }
                }
                11 if !pair.acks.is_empty() => {
                    let ack = pair.acks[pick % pair.acks.len()];
                    pair.ack_sender(ack);
                }
                12 => pair.ack_tick(),
                13 if pick % 4 == 0 => pair.backstop(),
                _ => pair.advance(micros),
            }
        }
        pair.quiesce(own);
        prop_assert_eq!(pair.tx.pending_acks(), 0);
        prop_assert!(!pair.tx.has_pending());
        let hole = MsgId::new(CRASHED, pair.hole);
        let expected: BTreeSet<MsgId> = pair
            .crashed
            .iter()
            .map(|e| e.id)
            .filter(|&id| id != hole)
            .chain((1..=own).map(|k| MsgId::new(SENDER, k)))
            .collect();
        prop_assert_eq!(&pair.released, &expected);
        prop_assert_eq!(pair.rx.retained_len() as u64, crashed - pair.hole);
    }
}

/// n convergecast trackers over the k-ary tree of a static group, and
/// the reports in flight between them.
struct TreeGroup {
    trackers: Vec<StabilityTracker>,
    /// `(from, to, report)`, in send order.
    in_flight: Vec<(ProcessId, ProcessId, VectorClock)>,
}

impl TreeGroup {
    fn new(n: usize, fanout: usize) -> Self {
        let group: Vec<ProcessId> = ProcessId::all(n).collect();
        let trackers = group
            .iter()
            .map(|&me| {
                let tree = tree_position(me, &group, fanout).expect("a member");
                StabilityTracker::over_tree(me, n, tree.parent, tree.children)
            })
            .collect();
        TreeGroup {
            trackers,
            in_flight: Vec::new(),
        }
    }

    /// Moves member `m`'s queued reports onto the network.
    fn send(&mut self, m: usize) {
        let from = ProcessId::new(m as u32);
        while let Some((to, report)) = self.trackers[m].take_report() {
            let ReportTo::Members(members) = to else {
                panic!("a tree member reported to everyone");
            };
            for &to in members {
                self.in_flight.push((from, to, report.clone()));
            }
        }
    }

    fn cadence(&mut self, m: usize) {
        self.trackers[m].on_cadence();
        self.send(m);
    }

    /// Delivers (or with `lose`, drops) the in-flight report at `k`.
    fn receive(&mut self, k: usize, lose: bool) {
        let (from, to, report) = self.in_flight.remove(k);
        assert_eq!(report.width(), self.trackers.len(), "reports are n wide");
        if !lose {
            self.trackers[to.as_usize()].on_report(from, &report);
            self.send(to.as_usize());
        }
    }

    /// Asserts that no stable vector exceeds any member's prefix and
    /// that none fell below `last`, then records them in `last`.
    fn check(&self, last: &mut [Vec<u64>]) {
        let prefixes: Vec<VectorClock> = self
            .trackers
            .iter()
            .map(StabilityTracker::local_report)
            .collect();
        for (m, t) in self.trackers.iter().enumerate() {
            let stable = t.stable().as_ref();
            if stable.is_empty() {
                assert!(last[m].is_empty(), "member {m}'s vector vanished");
                continue;
            }
            for prefix in &prefixes {
                let above = stable.iter().zip(prefix.as_ref()).any(|(s, p)| s > p);
                assert!(
                    !above,
                    "member {m} holds {stable:?} above a prefix {prefix}"
                );
            }
            let fell = stable
                .iter()
                .zip(&last[m])
                .any(|(now, before)| now < before);
            assert!(!fell, "member {m}'s stable vector fell below {:?}", last[m]);
            last[m] = stable.to_vec();
        }
    }

    /// Delivers every report in flight, and every report that causes.
    fn drain(&mut self) {
        while !self.in_flight.is_empty() {
            self.receive(0, false);
        }
    }
}

proptest! {
    /// Stability by convergecast over a static tree, under random
    /// delivery, report and loss schedules: no member's stable vector
    /// ever exceeds any member's contiguous prefix, no stable vector ever
    /// falls, and once every member has delivered everything, one
    /// lossless report round — children before parents — makes every
    /// stable vector the common prefix.
    #[test]
    fn tree_stability_is_safe_monotone_and_converges(
        n in 1usize..20,
        fanout in 1usize..5,
        msgs in 1usize..48,
        steps in proptest::collection::vec((0u8..4, 0usize..1000, 0usize..1000), 0..400),
    ) {
        // Message i comes from origin i % n with a dense per-origin seq.
        let msg = |i: usize| MsgId::new(ProcessId::new((i % n) as u32), (i / n) as u64 + 1);
        let mut g = TreeGroup::new(n, fanout);
        let mut last: Vec<Vec<u64>> = vec![Vec::new(); n];
        for &(kind, a, b) in &steps {
            match kind {
                0 => g.trackers[a % n].on_deliver(msg(b % msgs)),
                1 => g.cadence(a % n),
                _ if g.in_flight.is_empty() => continue,
                k => {
                    let at = a % g.in_flight.len();
                    g.receive(at, k == 3);
                }
            }
            g.check(&mut last);
        }
        // Everyone delivers everything; the leftovers land.
        for t in &mut g.trackers {
            for i in 0..msgs {
                t.on_deliver(msg(i));
            }
        }
        g.drain();
        g.check(&mut last);
        // One report round: ranks follow ids, so descending ids put every
        // child before its parent.
        for m in (0..n).rev() {
            g.cadence(m);
            g.drain();
            g.check(&mut last);
        }
        let common = g.trackers[0].local_report();
        for (m, t) in g.trackers.iter().enumerate() {
            prop_assert_eq!(t.stable(), &common, "member {}", m);
        }
    }
}

/// The stable-point rule over a `BTreeSet` frontier, as the detector
/// first stated it: a sync candidate closes a point when its
/// dependencies contain every frontier member; then its dependencies
/// leave the frontier and it joins.
#[derive(Debug, Default)]
struct FrontierModel {
    frontier: BTreeSet<MsgId>,
    delivered: usize,
    points: usize,
}

impl FrontierModel {
    fn on_deliver(&mut self, id: MsgId, deps: &[MsgId], sync_candidate: bool) -> Option<usize> {
        let is_sync = sync_candidate && self.frontier.iter().all(|f| deps.contains(f));
        for d in deps {
            self.frontier.remove(d);
        }
        self.frontier.insert(id);
        let log_index = self.delivered;
        self.delivered += 1;
        is_sync.then(|| {
            self.points += 1;
            log_index
        })
    }
}

/// A deterministic xorshift stream expanding one random step into a
/// burst of deliveries.
struct Draws(u64);

impl Draws {
    fn next(&mut self, below: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % below
    }
}

/// Ids for a delivery stream: four origins, sequences from 1, mostly in
/// order, sometimes jumping further ahead than an `IdWindow` lane
/// reaches, and sometimes going back to a sequence skipped earlier.
struct Ids {
    next: [u64; 4],
    skipped: Vec<MsgId>,
}

impl Ids {
    fn fresh(&mut self, draws: &mut Draws) -> MsgId {
        if !self.skipped.is_empty() && draws.next(8) == 0 {
            let i = draws.next(self.skipped.len() as u64) as usize;
            return self.skipped.swap_remove(i);
        }
        let o = draws.next(4) as usize;
        let origin = ProcessId::new(o as u32);
        if draws.next(16) == 0 {
            let jump = 1 + draws.next(100);
            for s in 1..=jump.min(3) {
                self.skipped.push(MsgId::new(origin, self.next[o] + s));
            }
            self.next[o] += jump;
        }
        self.next[o] += 1;
        MsgId::new(origin, self.next[o])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `concurrent_pairs` (ancestor bitsets) counts exactly the pairs
    /// that pairwise `relation` calls concurrent, on DAGs wider than one
    /// 64-bit word.
    #[test]
    fn concurrent_pairs_match_pairwise_relations(dag in arb_dag(100)) {
        let mut graph = MsgGraph::new();
        for env in dag_envelopes(&dag) {
            graph.add(env.id, &env.deps).unwrap();
        }
        let ids = graph.insertion_order();
        let mut pairwise = 0;
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                pairwise += usize::from(graph.relation(a, b) == causal_clocks::CausalOrdering::Concurrent);
            }
        }
        prop_assert_eq!(graph.concurrent_pairs(), pairwise);
    }

    /// The detector's windowed frontier gives the `BTreeSet` model's
    /// stable points at every delivery and its frontier, in the same
    /// order, after every step: on streams with repeated and unsorted
    /// dependencies, dependencies on ids not (yet) delivered, dep-less
    /// sync messages, and sync-free runs whose frontier reaches thousands
    /// of ids.
    #[test]
    fn stable_point_detector_matches_a_btreeset_frontier(
        steps in proptest::collection::vec((0u8..16, any::<u64>()), 1..40),
    ) {
        let mut det = StablePointDetector::new();
        let mut model = FrontierModel::default();
        let mut ids = Ids { next: [0; 4], skipped: Vec::new() };
        let mut delivered: Vec<MsgId> = Vec::new();
        for (kind, seed) in steps {
            let mut draws = Draws(seed | 1);
            // (deps, sync candidate) of each delivery in this step.
            let mut burst: Vec<(Vec<MsgId>, bool)> = Vec::new();
            match kind {
                // A sync-free run: commutative, no dependencies.
                0..=1 => {
                    for _ in 0..1 + draws.next(3_000) {
                        burst.push((Vec::new(), false));
                    }
                }
                // A dep-less sync message.
                2 => burst.push((Vec::new(), true)),
                // A message covering the whole frontier, shuffled and
                // with repeats.
                3..=5 => {
                    let mut deps: Vec<MsgId> = model.frontier.iter().copied().collect();
                    for _ in 0..draws.next(4) {
                        if let Some(&d) = deps.get(draws.next(deps.len().max(1) as u64) as usize) {
                            deps.push(d);
                        }
                    }
                    for i in (1..deps.len()).rev() {
                        deps.swap(i, draws.next(i as u64 + 1) as usize);
                    }
                    burst.push((deps, draws.next(4) != 0));
                }
                // Messages depending on part of the frontier, or on any
                // delivered id, or on an id nobody delivered yet.
                _ => {
                    for _ in 0..1 + draws.next(20) {
                        let mut deps = Vec::new();
                        for _ in 0..draws.next(6) {
                            let d = match draws.next(3) {
                                0 if !model.frontier.is_empty() => {
                                    let k = draws.next(model.frontier.len() as u64) as usize;
                                    *model.frontier.iter().nth(k).expect("in range")
                                }
                                1 if !delivered.is_empty() => {
                                    delivered[draws.next(delivered.len() as u64) as usize]
                                }
                                _ => MsgId::new(ProcessId::new(draws.next(5) as u32), 1 + draws.next(10_000)),
                            };
                            deps.push(d);
                        }
                        burst.push((deps, draws.next(2) == 0));
                    }
                }
            }
            for (deps, candidate) in burst {
                let id = ids.fresh(&mut draws);
                delivered.push(id);
                let got = det.on_deliver(id, &deps, candidate).map(|sp| sp.log_index);
                prop_assert_eq!(got, model.on_deliver(id, &deps, candidate));
            }
            prop_assert!(det.frontier().eq(model.frontier.iter().copied()));
            prop_assert_eq!(det.points().len(), model.points);
        }
    }
}
