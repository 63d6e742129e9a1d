//! Property tests for the replica protocols: the front-end manager's
//! generated relation, the lock arbitration consensus, and GC
//! transparency.

use causal_clocks::{MsgId, ProcessId};
use causal_core::graph::MsgGraph;
use causal_core::osend::{OSender, OccursAfter};
use causal_core::stable::StablePointDetector;
use causal_core::stack::CausalNode;
use causal_core::statemachine::OpClass;
use causal_replica::counter::{CounterOp, CounterReplica};
use causal_replica::frontend::FrontEndManager;
use causal_replica::lock::LockMember;
use causal_simnet::{FaultPlan, LatencyModel, NetConfig, SimDuration, Simulation};
use proptest::prelude::*;

/// The §6.1 front-end invariant, stated against the paper's *global*
/// definition: every non-commutative request is a synchronization point
/// of the final dependency graph (`MsgGraph::is_sync_point`), and the
/// local streaming detector flags exactly those messages.
#[test]
fn frontend_ncs_are_global_sync_points() {
    proptest!(ProptestConfig::with_cases(64), |(
        widths in proptest::collection::vec(0usize..6, 1..6),
    )| {
        let mut fe = FrontEndManager::new();
        let mut tx = OSender::new(ProcessId::new(0));
        let mut graph = MsgGraph::new();
        let mut detector = StablePointDetector::new();
        let mut ncs: Vec<MsgId> = Vec::new();
        let mut detected: Vec<MsgId> = Vec::new();

        for &width in &widths {
            let env = fe.submit(&mut tx, (), OpClass::NonCommutative);
            graph.add(env.id, &env.deps).unwrap();
            if detector.on_deliver(env.id, &env.deps, true).is_some() {
                detected.push(env.id);
            }
            ncs.push(env.id);
            for _ in 0..width {
                let env = fe.submit(&mut tx, (), OpClass::Commutative);
                graph.add(env.id, &env.deps).unwrap();
                detector.on_deliver(env.id, &env.deps, false);
            }
        }
        // Close the last cycle so the trailing commutative run is fenced.
        let close = fe.submit(&mut tx, (), OpClass::NonCommutative);
        graph.add(close.id, &close.deps).unwrap();
        if detector.on_deliver(close.id, &close.deps, true).is_some() {
            detected.push(close.id);
        }
        ncs.push(close.id);

        // Global definition: every nc is a sync point of the final graph.
        for &nc in &ncs {
            prop_assert!(graph.is_sync_point(nc), "{nc} not a global sync point");
        }
        // Local detection found exactly the ncs.
        prop_assert_eq!(detected, ncs);
    });
}

/// Lock arbitration reaches consensus for arbitrary group sizes, cycle
/// counts, seeds, and loss rates.
#[test]
fn lock_arbitration_consensus_prop() {
    proptest!(ProptestConfig::with_cases(12), |(
        n in 2usize..6,
        cycles in 1u64..4,
        seed in any::<u64>(),
        drop in prop_oneof![Just(0.0), Just(0.25)],
    )| {
        let nodes: Vec<CausalNode<LockMember>> = (0..n)
            .map(|i| {
                let id = ProcessId::new(i as u32);
                CausalNode::new(id, n, LockMember::new(id, n, cycles))
            })
            .collect();
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 2000))
            .faults(FaultPlan::new().with_drop_prob(drop));
        let mut sim = Simulation::new(nodes, cfg, seed);
        sim.run_to_quiescence();
        let reference = sim.node(ProcessId::new(0)).app().sequences().clone();
        prop_assert_eq!(reference.len() as u64, cycles);
        for i in 0..n {
            let app = sim.node(ProcessId::new(i as u32)).app();
            prop_assert_eq!(app.sequences(), &reference);
            prop_assert!(app.all_cycles_complete());
        }
    });
}

/// Garbage collection is semantically invisible: the same workload with
/// GC on and off produces identical replica values and read answers.
#[test]
fn gc_is_transparent_prop() {
    proptest!(ProptestConfig::with_cases(12), |(
        ops in 10usize..60,
        seed in any::<u64>(),
        report_every in 1u64..20,
    )| {
        let run = |gc: bool| {
            let n = 3;
            let nodes: Vec<CausalNode<CounterReplica>> = (0..n)
                .map(|i| {
                    let node =
                        CausalNode::new(ProcessId::new(i as u32), n, CounterReplica::new());
                    if gc { node.with_gc(n, report_every) } else { node }
                })
                .collect();
            let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 1500));
            let mut sim = Simulation::new(nodes, cfg, seed);
            for k in 0..ops {
                sim.poke(ProcessId::new((k % n) as u32), |node, ctx| {
                    node.osend(ctx, CounterOp::Inc(1), OccursAfter::none());
                });
                let deadline = sim.now() + SimDuration::from_micros(500);
                sim.run_until(deadline);
            }
            sim.run_to_quiescence();
            (0..n)
                .map(|i| sim.node(ProcessId::new(i as u32)).app().value())
                .collect::<Vec<i64>>()
        };
        let plain = run(false);
        let compacted = run(true);
        prop_assert_eq!(&plain, &compacted);
        prop_assert_eq!(plain[0] as usize, ops);
    });
}
