//! End-to-end: the §6.1 replicated counter protocol across many seeds,
//! with every paper claim machine-checked per run.

use causal_broadcast::clocks::{MsgId, ProcessId};
use causal_broadcast::core::check;
use causal_broadcast::core::graph::MsgGraph;
use causal_broadcast::core::node::CausalNode;
use causal_broadcast::core::osend::OccursAfter;
use causal_broadcast::core::statemachine::OpClass;
use causal_broadcast::replica::counter::{CounterOp, CounterReplica};
use causal_broadcast::replica::frontend::FrontEndManager;
use causal_broadcast::simnet::{LatencyModel, NetConfig, SimDuration, Simulation};
use causal_verify::{check_trace, OracleConfig, OracleReport, Trace};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn group(n: usize) -> Vec<CausalNode<CounterReplica>> {
    (0..n)
        .map(|i| CausalNode::new(p(i as u32), n, CounterReplica::new()).with_tracing())
        .collect()
}

/// Runs the trace oracle over the whole group, panicking on a violation.
fn oracle(sim: &Simulation<CausalNode<CounterReplica>>) -> OracleReport {
    check_trace(&Trace::from_stacks(sim.nodes()), &OracleConfig::default())
        .unwrap_or_else(|v| panic!("oracle violation: {v}"))
}

/// Member `i`'s dependency graph, rebuilt from its trace.
fn member_graph(sim: &Simulation<CausalNode<CounterReplica>>, i: u32) -> MsgGraph {
    sim.node(p(i)).trace().unwrap().graph().unwrap()
}

/// Drives `cycles` §6.1 processing cycles through a group, pacing
/// submissions, and returns the finished simulation.
fn run_cycles(
    n: usize,
    cycles: usize,
    f_bar: usize,
    seed: u64,
) -> Simulation<CausalNode<CounterReplica>> {
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 3000));
    let mut sim = Simulation::new(group(n), cfg, seed);
    let mut fe = FrontEndManager::new();
    let mut submitter = 0usize;
    for cycle in 0..cycles {
        let after = fe.ordering_for(OpClass::NonCommutative);
        let nc = if cycle % 2 == 0 {
            CounterOp::Set(cycle as i64 * 10)
        } else {
            CounterOp::Read
        };
        let id = sim
            .poke(p((submitter % n) as u32), move |node, ctx| {
                node.osend(ctx, nc, after)
            })
            .unwrap();
        fe.record(id, OpClass::NonCommutative);
        submitter += 1;
        for k in 0..f_bar {
            let after = fe.ordering_for(OpClass::Commutative);
            let op = if k % 2 == 0 {
                CounterOp::Inc(k as i64 + 1)
            } else {
                CounterOp::Dec(k as i64)
            };
            let id = sim
                .poke(p((submitter % n) as u32), move |node, ctx| {
                    node.osend(ctx, op, after)
                })
                .unwrap();
            fe.record(id, OpClass::Commutative);
            submitter += 1;
            let deadline = sim.now() + SimDuration::from_micros(150);
            sim.run_until(deadline);
        }
    }
    sim.run_to_quiescence();
    sim
}

#[test]
fn every_member_delivers_everything() {
    let sim = run_cycles(4, 6, 5, 1);
    let expected = 6 * (1 + 5);
    for i in 0..4 {
        assert_eq!(sim.node(p(i)).log().len(), expected, "member {i}");
        assert_eq!(sim.node(p(i)).pending_len(), 0);
    }
}

#[test]
fn all_logs_respect_declared_causality() {
    for seed in 0..10 {
        let sim = run_cycles(3, 4, 6, seed);
        // The oracle checks each member's log against its declared deps.
        assert_eq!(oracle(&sim).dep_logs, 3);
    }
}

#[test]
fn all_logs_linearize_one_common_graph() {
    for seed in 0..10 {
        let sim = run_cycles(4, 3, 8, seed);
        let graph = member_graph(&sim, 0);
        let logs: Vec<Vec<MsgId>> = (0..4).map(|i| sim.node(p(i)).log().to_vec()).collect();
        check::logs_linearize_graph(&graph, &logs).unwrap();
        // Graphs are identical at all members (stable information).
        for i in 1..4 {
            assert_eq!(member_graph(&sim, i), graph);
        }
    }
}

#[test]
fn stable_points_reproducible_at_every_member() {
    for seed in 0..10 {
        let sim = run_cycles(5, 5, 4, seed);
        // Same stable points and activity contents at every member.
        oracle(&sim);
        // Every nc is a stable point: 5 cycles => 5 points.
        for i in 0..5 {
            assert_eq!(sim.node(p(i)).stable_points().len(), 5, "member {i}");
        }
    }
}

#[test]
fn reads_agree_across_members_and_seeds() {
    for seed in 0..10 {
        let sim = run_cycles(3, 6, 7, seed);
        let reference = sim.node(p(0)).app().read_answers().to_vec();
        assert!(!reference.is_empty());
        for i in 1..3 {
            assert_eq!(
                sim.node(p(i)).app().read_answers(),
                &reference[..],
                "seed {seed} member {i}"
            );
        }
    }
}

#[test]
fn final_values_converge() {
    for seed in 20..30 {
        let sim = run_cycles(4, 4, 10, seed);
        let values: Vec<i64> = (0..4).map(|i| sim.node(p(i)).app().value()).collect();
        assert!(check::replicas_agree(&values), "seed {seed}: {values:?}");
    }
}

#[test]
fn interior_concurrency_exists_but_is_fenced() {
    let sim = run_cycles(3, 3, 6, 3);
    let graph = member_graph(&sim, 0);
    // Commutative runs leave concurrent pairs...
    assert!(graph.concurrent_pairs() > 0);
    // ...but every nc message is a global synchronization point.
    let sync = graph.sync_points();
    assert_eq!(sync.len(), 3);
}

#[test]
fn zero_f_bar_reduces_to_strict_total_order() {
    let sim = run_cycles(3, 8, 0, 4);
    let graph = member_graph(&sim, 0);
    assert_eq!(graph.concurrent_pairs(), 0);
    // Chain: every message is a sync point.
    assert_eq!(graph.sync_points().len(), 8);
    // All members share one identical delivery order.
    let reference = sim.node(p(0)).log().to_vec();
    for i in 1..3 {
        assert_eq!(sim.node(p(i)).log(), &reference[..]);
    }
}

#[test]
fn self_contained_single_member_group() {
    // Degenerate group of one: everything is local, still correct.
    let cfg = NetConfig::new();
    let mut sim = Simulation::new(group(1), cfg, 0);
    sim.poke(p(0), |node, ctx| {
        node.osend(ctx, CounterOp::Set(5), OccursAfter::none())
    });
    sim.poke(p(0), |node, ctx| {
        let last = node.log().last().copied().unwrap();
        node.osend(ctx, CounterOp::Read, OccursAfter::message(last))
    });
    sim.run_to_quiescence();
    assert_eq!(sim.node(p(0)).app().read_answers()[0].1, 5);
}
