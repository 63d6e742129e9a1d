//! End-to-end scenario runners shared by the experiment binaries.

use crate::workload::MixWorkload;
use causal_clocks::ProcessId;
use causal_core::check;
use causal_core::node::CausalNode;
use causal_core::statemachine::{OpClass, Operation};
use causal_replica::baseline::{SequencedNode, WeakOrderNode, WeakOrdering};
use causal_replica::counter::{CounterOp, CounterReplica};
use causal_replica::frontend::FrontEndManager;
use causal_simnet::{FaultPlan, Histogram, LatencyModel, NetConfig, SimDuration, Simulation};
use causal_verify::{check_trace, OracleConfig, Trace};

/// Configuration of one commutative-mix run (§6.1).
#[derive(Debug, Clone)]
pub struct MixConfig {
    /// Number of server replicas (group size).
    pub n_replicas: usize,
    /// Processing cycles to generate.
    pub cycles: usize,
    /// Mean commutative requests per cycle (the paper's `f̄`).
    pub f_bar: usize,
    /// Gap between successive request submissions.
    pub interval: SimDuration,
    /// Network latency model.
    pub latency: LatencyModel,
    /// Probability each transmission is lost (retransmission recovers).
    pub drop_prob: f64,
    /// RNG seed (workload and network).
    pub seed: u64,
}

impl Default for MixConfig {
    fn default() -> Self {
        MixConfig {
            n_replicas: 3,
            cycles: 20,
            f_bar: 20,
            interval: SimDuration::from_micros(200),
            latency: LatencyModel::uniform_micros(200, 800),
            drop_prob: 0.0,
            seed: 42,
        }
    }
}

/// Measurements from one mix run.
#[derive(Debug, Clone)]
pub struct MixStats {
    /// Requests submitted.
    pub ops: usize,
    /// Mean end-to-end delivery latency (µs), over every delivery at every
    /// replica.
    pub mean_latency_us: f64,
    /// Median delivery latency (µs).
    pub p50_us: u64,
    /// 99th-percentile delivery latency (µs).
    pub p99_us: u64,
    /// Completed-run wall time in simulated µs.
    pub duration_us: u64,
    /// Requests fully delivered everywhere per simulated second.
    pub throughput_ops_per_s: f64,
    /// Transport messages sent (ordering + reliability overhead included).
    pub msgs_sent: u64,
    /// Stable points detected per replica (0 for baselines).
    pub stable_points: u64,
    /// Concurrent message pairs left by the ordering (0 for total order).
    pub concurrent_pairs: usize,
    /// Whether all replicas agreed (final state, and at stable points for
    /// the causal run).
    pub consistent: bool,
}

fn merged_latency<I: IntoIterator<Item = Histogram>>(parts: I) -> Histogram {
    let mut all = Histogram::new();
    for h in parts {
        all.merge(&h);
    }
    all
}

/// Runs the §6.1 mix through the paper's protocol: causal broadcast with
/// `OSend` ordering generated by a front-end manager, commutative
/// operations left concurrent.
pub fn run_causal_mix(config: &MixConfig) -> MixStats {
    let n = config.n_replicas;
    let workload = MixWorkload::generate(config.cycles, config.f_bar, false, config.seed);
    let nodes: Vec<CausalNode<CounterReplica>> = (0..n)
        .map(|i| CausalNode::new(ProcessId::new(i as u32), n, CounterReplica::new()).with_tracing())
        .collect();
    let cfg = NetConfig::with_latency(config.latency)
        .faults(FaultPlan::new().with_drop_prob(config.drop_prob));
    let mut sim = Simulation::new(nodes, cfg, config.seed);

    // The harness plays the front-end manager of §6.1: it knows every
    // request id and generates the Ncid/{Cid} ordering; requests originate
    // at rotating members.
    let mut fe = FrontEndManager::new();
    let mut deadline = sim.now();
    for mix_op in workload.ops() {
        let submitter = ProcessId::new((mix_op.submitter % n) as u32);
        let class = if mix_op.op.is_commutative() {
            OpClass::Commutative
        } else {
            OpClass::NonCommutative
        };
        let after = fe.ordering_for(class);
        let op = mix_op.op;
        let id = sim
            .poke(submitter, move |node, ctx| node.osend(ctx, op, after))
            .expect("benchmark nodes never park sends");
        fe.record(id, class);
        deadline += config.interval;
        sim.run_until(deadline);
    }
    let duration = sim.run_to_quiescence();

    // Validate the paper's agreement claims before reporting numbers.
    let trace = Trace::from_stacks(sim.nodes());
    let values: Vec<i64> = (0..n)
        .map(|i| sim.node(ProcessId::new(i as u32)).app().value())
        .collect();
    let reads: Vec<_> = (0..n)
        .map(|i| {
            sim.node(ProcessId::new(i as u32))
                .app()
                .read_answers()
                .to_vec()
        })
        .collect();
    let consistent = check_trace(&trace, &OracleConfig::default()).is_ok()
        && check::replicas_agree(&values)
        && check::replicas_agree(&reads);
    let graph = trace.members()[0].graph().unwrap_or_default();

    let mut latency = merged_latency((0..n).map(|i| {
        sim.node(ProcessId::new(i as u32))
            .stats()
            .delivery_latency
            .clone()
    }));
    MixStats {
        ops: workload.ops().len(),
        mean_latency_us: latency.mean_micros(),
        p50_us: latency.percentile(0.5).as_micros(),
        p99_us: latency.percentile(0.99).as_micros(),
        duration_us: duration.as_micros(),
        throughput_ops_per_s: workload.ops().len() as f64 / duration.as_secs_f64().max(1e-9),
        msgs_sent: sim.metrics().sent,
        stable_points: sim.node(ProcessId::new(0)).stable_points().len() as u64,
        concurrent_pairs: graph.concurrent_pairs(),
        consistent,
    }
}

/// Runs the same workload with **every** operation totally ordered
/// through a fixed sequencer — the ordering-cost baseline.
pub fn run_sequenced_mix(config: &MixConfig) -> MixStats {
    let n = config.n_replicas;
    let workload = MixWorkload::generate(config.cycles, config.f_bar, false, config.seed);
    let nodes: Vec<SequencedNode<i64, CounterOp>> = (0..n)
        .map(|i| SequencedNode::new(ProcessId::new(i as u32), 0))
        .collect();
    // Baselines assume a reliable transport: fault-free network.
    let cfg = NetConfig::with_latency(config.latency);
    let mut sim = Simulation::new(nodes, cfg, config.seed);

    let mut deadline = sim.now();
    for mix_op in workload.ops() {
        let submitter = ProcessId::new((mix_op.submitter % n) as u32);
        let op = mix_op.op;
        sim.poke(submitter, move |node, ctx| node.submit(ctx, op));
        deadline += config.interval;
        sim.run_until(deadline);
    }
    let duration = sim.run_to_quiescence();

    let orders: Vec<_> = (0..n)
        .map(|i| sim.node(ProcessId::new(i as u32)).applied().to_vec())
        .collect();
    let states: Vec<i64> = (0..n)
        .map(|i| *sim.node(ProcessId::new(i as u32)).state())
        .collect();
    let consistent = check::replicas_agree(&orders) && check::replicas_agree(&states);

    let mut latency = merged_latency((0..n).map(|i| {
        sim.node(ProcessId::new(i as u32))
            .stats()
            .delivery_latency
            .clone()
    }));
    MixStats {
        ops: workload.ops().len(),
        mean_latency_us: latency.mean_micros(),
        p50_us: latency.percentile(0.5).as_micros(),
        p99_us: latency.percentile(0.99).as_micros(),
        duration_us: duration.as_micros(),
        throughput_ops_per_s: workload.ops().len() as f64 / duration.as_secs_f64().max(1e-9),
        msgs_sent: sim.metrics().sent,
        stable_points: 0,
        concurrent_pairs: 0,
        consistent,
    }
}

/// Runs the same workload with **no** ordering at all — the latency floor,
/// but without consistency for non-commutative operations.
pub fn run_unordered_mix(config: &MixConfig) -> MixStats {
    let n = config.n_replicas;
    let workload = MixWorkload::generate(config.cycles, config.f_bar, false, config.seed);
    let nodes: Vec<WeakOrderNode<i64, CounterOp>> = (0..n)
        .map(|i| WeakOrderNode::new(ProcessId::new(i as u32), WeakOrdering::Unordered, 0))
        .collect();
    let cfg = NetConfig::with_latency(config.latency);
    let mut sim = Simulation::new(nodes, cfg, config.seed);

    let mut deadline = sim.now();
    for mix_op in workload.ops() {
        let submitter = ProcessId::new((mix_op.submitter % n) as u32);
        let op = mix_op.op;
        sim.poke(submitter, move |node, ctx| node.submit(ctx, op));
        deadline += config.interval;
        sim.run_until(deadline);
    }
    let duration = sim.run_to_quiescence();

    let states: Vec<i64> = (0..n)
        .map(|i| *sim.node(ProcessId::new(i as u32)).state())
        .collect();
    let consistent = check::replicas_agree(&states);

    let mut latency = merged_latency((0..n).map(|i| {
        sim.node(ProcessId::new(i as u32))
            .stats()
            .delivery_latency
            .clone()
    }));
    MixStats {
        ops: workload.ops().len(),
        mean_latency_us: latency.mean_micros(),
        p50_us: latency.percentile(0.5).as_micros(),
        p99_us: latency.percentile(0.99).as_micros(),
        duration_us: duration.as_micros(),
        throughput_ops_per_s: workload.ops().len() as f64 / duration.as_secs_f64().max(1e-9),
        msgs_sent: sim.metrics().sent,
        stable_points: 0,
        concurrent_pairs: 0,
        consistent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MixConfig {
        MixConfig {
            n_replicas: 3,
            cycles: 5,
            f_bar: 4,
            ..MixConfig::default()
        }
    }

    #[test]
    fn causal_mix_is_consistent() {
        let stats = run_causal_mix(&small());
        assert!(stats.consistent);
        assert_eq!(stats.ops, 25);
        // Every nc is a stable point: cycles + trailing structure.
        assert!(stats.stable_points >= 5);
        assert!(stats.concurrent_pairs > 0);
    }

    #[test]
    fn sequenced_mix_is_consistent_but_serial() {
        let stats = run_sequenced_mix(&small());
        assert!(stats.consistent);
        assert_eq!(stats.concurrent_pairs, 0);
    }

    #[test]
    fn causal_latency_beats_total_order_at_high_f() {
        let config = MixConfig {
            n_replicas: 5,
            cycles: 10,
            f_bar: 20,
            ..MixConfig::default()
        };
        let causal = run_causal_mix(&config);
        let total = run_sequenced_mix(&config);
        assert!(causal.consistent && total.consistent);
        assert!(
            causal.mean_latency_us < total.mean_latency_us,
            "causal {} vs total {}",
            causal.mean_latency_us,
            total.mean_latency_us
        );
    }

    #[test]
    fn unordered_is_fastest_floor() {
        let config = small();
        let unordered = run_unordered_mix(&config);
        let causal = run_causal_mix(&config);
        assert!(unordered.mean_latency_us <= causal.mean_latency_us);
    }

    #[test]
    fn causal_mix_survives_drops() {
        let config = MixConfig {
            drop_prob: 0.2,
            ..small()
        };
        let stats = run_causal_mix(&config);
        assert!(stats.consistent);
    }
}
