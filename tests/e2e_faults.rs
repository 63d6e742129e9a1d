//! Failure injection: message loss, duplication, and partitions against
//! the full stack — the reliability + causal-delivery layers must mask
//! everything. Each run records per-member traces and hands them to the
//! `causal-verify` oracle, so every invariant (exactly-once, dependency
//! order, delivered-set agreement) is checked on the actual execution,
//! not just on end-state values.

use causal_broadcast::clocks::ProcessId;
use causal_broadcast::core::check;
use causal_broadcast::core::delivery::DeliveryEngine;
use causal_broadcast::core::node::CausalNode;
use causal_broadcast::core::osend::OccursAfter;
use causal_broadcast::core::stack::{App, ProtocolStack};
use causal_broadcast::replica::counter::{CounterOp, CounterReplica};
use causal_broadcast::simnet::{
    FaultPlan, LatencyModel, NetConfig, Partition, SimDuration, SimTime, Simulation,
};
use causal_verify::{check_trace, OracleConfig, OracleReport, Trace};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn group(n: usize) -> Vec<CausalNode<CounterReplica>> {
    (0..n)
        .map(|i| CausalNode::new(p(i as u32), n, CounterReplica::new()).with_tracing())
        .collect()
}

/// Collects the group's recorded traces out of the simulation and runs
/// the full quiescent-run oracle, panicking on any violation.
fn assert_oracle_clean<D, A>(sim: &Simulation<ProtocolStack<D, A>>, n: usize) -> OracleReport
where
    D: DeliveryEngine,
    A: App<Op = D::Op>,
{
    let trace = Trace::new(
        (0..n)
            .filter_map(|i| sim.node(p(i as u32)).trace().cloned())
            .collect(),
    );
    match check_trace(&trace, &OracleConfig::default()) {
        Ok(report) => report,
        Err(v) => panic!("oracle violation: {v}"),
    }
}

fn spray_updates(sim: &mut Simulation<CausalNode<CounterReplica>>, n: usize, count: usize) {
    for k in 0..count {
        let submitter = p((k % n) as u32);
        sim.poke(submitter, |node, ctx| {
            node.osend(ctx, CounterOp::Inc(1), OccursAfter::none())
        });
        let deadline = sim.now() + SimDuration::from_micros(400);
        sim.run_until(deadline);
    }
}

#[test]
fn heavy_loss_converges() {
    for seed in 0..5 {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 2000))
            .faults(FaultPlan::new().with_drop_prob(0.5));
        let mut sim = Simulation::new(group(4), cfg, seed);
        spray_updates(&mut sim, 4, 30);
        sim.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(sim.node(p(i)).app().value(), 30, "seed {seed} member {i}");
            assert_eq!(sim.node(p(i)).pending_len(), 0);
        }
        assert!(sim.metrics().dropped > 0, "fault injection must trigger");
        let report = assert_oracle_clean(&sim, 4);
        assert_eq!(report.deliveries, 4 * 30, "seed {seed}");
    }
}

#[test]
fn duplication_is_absorbed() {
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 1000))
        .faults(FaultPlan::new().with_dup_prob(0.5));
    let mut sim = Simulation::new(group(3), cfg, 9);
    spray_updates(&mut sim, 3, 20);
    sim.run_to_quiescence();
    for i in 0..3 {
        // Exactly-once application despite at-least-once transport.
        assert_eq!(sim.node(p(i)).app().value(), 20);
        assert_eq!(sim.node(p(i)).log().len(), 20);
    }
    assert!(sim.metrics().duplicated > 0);
    // The oracle's duplicate-delivery check sees every transport-level
    // duplicate as a non-fresh receive and every delivery exactly once.
    let report = assert_oracle_clean(&sim, 3);
    assert_eq!(report.deliveries, 3 * 20);
}

#[test]
fn loss_and_duplication_together() {
    let cfg = NetConfig::with_latency(LatencyModel::exponential_micros(100, 700))
        .faults(FaultPlan::new().with_drop_prob(0.3).with_dup_prob(0.3));
    let mut sim = Simulation::new(group(5), cfg, 77);
    spray_updates(&mut sim, 5, 40);
    sim.run_to_quiescence();
    let values: Vec<i64> = (0..5).map(|i| sim.node(p(i)).app().value()).collect();
    assert!(check::replicas_agree(&values));
    assert_eq!(values[0], 40);
    assert_oracle_clean(&sim, 5);
}

#[test]
fn partition_heals_and_state_reconverges() {
    // p0 | {p1, p2} partitioned for the first 20ms; updates flow during
    // the partition and must reach everyone after it heals.
    let cfg =
        NetConfig::with_latency(LatencyModel::constant_micros(500)).partition(Partition::new(
            [p(0)],
            [p(1), p(2)],
            SimTime::ZERO,
            SimTime::from_millis(20),
        ));
    let mut sim = Simulation::new(group(3), cfg, 5);
    // During the partition: both sides update.
    for k in 0..10 {
        let submitter = p(k % 3);
        sim.poke(submitter, |node, ctx| {
            node.osend(ctx, CounterOp::Inc(1), OccursAfter::none())
        });
        let deadline = sim.now() + SimDuration::from_millis(1);
        sim.run_until(deadline);
    }
    // Mid-partition: sides have diverged views (p0 can't see p1/p2 ops).
    assert!(sim.node(p(0)).app().value() < 10);
    sim.run_to_quiescence();
    for i in 0..3 {
        assert_eq!(sim.node(p(i)).app().value(), 10, "member {i}");
    }
    assert_oracle_clean(&sim, 3);
}

#[test]
fn causal_chains_survive_loss() {
    // A dependent chain built through reactions; loss reorders heavily but
    // delivery order must still respect the chain at every member.
    use causal_broadcast::core::delivery::Delivered;
    use causal_broadcast::core::node::{App, Emitter};

    #[derive(Debug, Default)]
    struct Chainer {
        me: Option<ProcessId>,
        seen: Vec<i64>,
    }
    impl App for Chainer {
        type Op = i64;
        fn on_start(&mut self, me: ProcessId, _out: &mut Emitter<i64>) {
            self.me = Some(me);
        }
        fn on_deliver(&mut self, env: Delivered<'_, i64>, out: &mut Emitter<i64>) {
            self.seen.push(*env.payload);
            // Only member p1 extends the chain, up to depth 10.
            if self.me == Some(ProcessId::new(1)) && *env.payload < 10 {
                out.osend(*env.payload + 1, OccursAfter::message(env.id));
            }
        }
    }

    for seed in 0..5 {
        let nodes: Vec<CausalNode<Chainer>> = (0..3)
            .map(|i| CausalNode::new(p(i), 3, Chainer::default()).with_tracing())
            .collect();
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 5000))
            .faults(FaultPlan::new().with_drop_prob(0.4));
        let mut sim = Simulation::new(nodes, cfg, seed);
        sim.poke(p(0), |node, ctx| node.osend(ctx, 0i64, OccursAfter::none()));
        sim.run_to_quiescence();
        for i in 0..3 {
            let seen = &sim.node(p(i)).app().seen;
            // Every member sees each chain value; within one member's log
            // the chain values 0..=10 appear in increasing order.
            let positions: Vec<usize> = (0..=10)
                .map(|v| seen.iter().position(|&x| x == v).unwrap())
                .collect();
            assert!(
                positions.windows(2).all(|w| w[0] < w[1]),
                "seed {seed} member {i}: chain inverted: {seen:?}"
            );
        }
        // The oracle re-derives the same guarantee from the recorded
        // dependency sets (and checks exactly-once on top).
        assert_oracle_clean(&sim, 3);
    }
}
