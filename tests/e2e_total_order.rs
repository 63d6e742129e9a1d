//! End-to-end total ordering (`ASend`, §5.2): the deterministic-merge and
//! sequencer realizations must produce identical apply orders at every
//! member, and agree with each other on the per-round message sets.

use causal_broadcast::clocks::ProcessId;
use causal_broadcast::replica::baseline::{MergeOrderNode, SequencedNode, WeakOrderNode};
use causal_broadcast::replica::counter::CounterOp;
use causal_broadcast::simnet::{LatencyModel, NetConfig, SimDuration, Simulation};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

#[test]
fn merge_identical_across_members_and_seeds() {
    for seed in 0..8 {
        let n = 5;
        let nodes: Vec<MergeOrderNode<i64, CounterOp>> = (0..n)
            .map(|i| MergeOrderNode::new(p(i as u32), n, 0))
            .collect();
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(50, 8000));
        let mut sim = Simulation::new(nodes, cfg, seed);
        for round in 0..6 {
            for i in 0..n as u32 {
                sim.poke(p(i), move |node, ctx| {
                    node.submit(ctx, CounterOp::Set((round * 10 + i as usize) as i64))
                });
            }
            let deadline = sim.now() + SimDuration::from_millis(2);
            sim.run_until(deadline);
        }
        sim.run_to_quiescence();
        let reference = sim.node(p(0)).applied().to_vec();
        assert_eq!(reference.len(), 30);
        for i in 1..n {
            assert_eq!(
                sim.node(p(i as u32)).applied(),
                &reference[..],
                "seed {seed} member {i}"
            );
            assert_eq!(sim.node(p(i as u32)).state(), sim.node(p(0)).state());
        }
    }
}

#[test]
fn sequencer_identical_across_members_and_seeds() {
    for seed in 0..8 {
        let n = 4;
        let nodes: Vec<SequencedNode<i64, CounterOp>> =
            (0..n).map(|i| SequencedNode::new(p(i as u32), 0)).collect();
        let cfg = NetConfig::with_latency(LatencyModel::exponential_micros(100, 900));
        let mut sim = Simulation::new(nodes, cfg, seed);
        for k in 0..20u32 {
            sim.poke(p(k % n as u32), move |node, ctx| {
                node.submit(ctx, CounterOp::Set(k as i64))
            });
            let deadline = sim.now() + SimDuration::from_micros(700);
            sim.run_until(deadline);
        }
        sim.run_to_quiescence();
        let reference = sim.node(p(0)).applied().to_vec();
        assert_eq!(reference.len(), 20);
        for i in 1..n {
            assert_eq!(sim.node(p(i as u32)).applied(), &reference[..]);
        }
        // Total order => identical final state even for pure overwrites.
        let states: Vec<i64> = (0..n).map(|i| *sim.node(p(i as u32)).state()).collect();
        assert!(states.windows(2).all(|w| w[0] == w[1]));
    }
}

#[test]
fn sequencer_respects_submission_count_per_member() {
    let n = 3;
    let nodes: Vec<SequencedNode<i64, CounterOp>> =
        (0..n).map(|i| SequencedNode::new(p(i as u32), 0)).collect();
    let mut sim = Simulation::new(nodes, NetConfig::new(), 1);
    for i in 0..n as u32 {
        for _ in 0..4 {
            sim.poke(p(i), |node, ctx| node.submit(ctx, CounterOp::Inc(1)));
        }
    }
    sim.run_to_quiescence();
    let applied = sim.node(p(0)).applied();
    for i in 0..n as u32 {
        assert_eq!(applied.iter().filter(|(_, from)| *from == p(i)).count(), 4);
    }
    // Global sequence numbers are gapless 1..=12.
    let mut seqs: Vec<u64> = applied.iter().map(|(s, _)| *s).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (1..=12).collect::<Vec<_>>());
}

#[test]
fn weak_orderings_allow_divergence_total_order_does_not() {
    // The same conflicting workload through all three stacks: only the
    // total order guarantees convergence for non-commutative ops.
    let conflicting = |sim: &mut Simulation<SequencedNode<i64, CounterOp>>| {
        sim.poke(p(1), |node, ctx| node.submit(ctx, CounterOp::Set(1)));
        sim.poke(p(2), |node, ctx| node.submit(ctx, CounterOp::Set(2)));
    };
    let cfg = || NetConfig::with_latency(LatencyModel::uniform_micros(10, 10_000));

    // Total order: always converges, every seed.
    for seed in 0..20 {
        let nodes: Vec<SequencedNode<i64, CounterOp>> =
            (0..3).map(|i| SequencedNode::new(p(i), 0)).collect();
        let mut sim = Simulation::new(nodes, cfg(), seed);
        conflicting(&mut sim);
        sim.run_to_quiescence();
        let states: Vec<i64> = (0..3).map(|i| *sim.node(p(i)).state()).collect();
        assert!(states.windows(2).all(|w| w[0] == w[1]), "seed {seed}");
    }

    // Unordered: some seed diverges.
    let mut diverged = false;
    for seed in 0..20 {
        let nodes: Vec<WeakOrderNode<i64, CounterOp>> =
            (0..3).map(|i| WeakOrderNode::new(p(i), 0)).collect();
        let mut sim = Simulation::new(nodes, cfg(), seed);
        sim.poke(p(1), |node, ctx| node.submit(ctx, CounterOp::Set(1)));
        sim.poke(p(2), |node, ctx| node.submit(ctx, CounterOp::Set(2)));
        sim.run_to_quiescence();
        let states: Vec<i64> = (0..3).map(|i| *sim.node(p(i)).state()).collect();
        if states.windows(2).any(|w| w[0] != w[1]) {
            diverged = true;
            break;
        }
    }
    assert!(diverged, "unordered delivery should diverge for some seed");
}
