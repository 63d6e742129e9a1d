//! **E3 + E8 — Figure 4 / §5.2**: the total-ordering layer above causal
//! broadcast, and its group-size scaling.
//!
//! The same spontaneous workload (one commutative operation per member per
//! round) runs through three stacks:
//!
//! - **causal-only** — no cross-sender order (spontaneous commutative
//!   messages need none): the latency floor;
//! - **ASend / deterministic merge** — identical total order with zero
//!   ordering messages, paying the round barrier;
//! - **sequencer** — identical total order via a fixed sequencer, paying
//!   an extra hop plus centralization.
//!
//! The paper's claim (§5.2, citing \[12\]): *"Total ordering may be feasible
//! when the group size is not large"* — i.e. total-order latency grows
//! with `n` while the causal floor stays flat.

use causal_bench::table::fmt_ms;
use causal_bench::Table;
use causal_clocks::ProcessId;
use causal_core::osend::OccursAfter;
use causal_core::stack::CausalNode;
use causal_replica::baseline::{MergeOrderNode, SequencedNode};
use causal_replica::counter::{CounterOp, CounterReplica};
use causal_simnet::{Histogram, LatencyModel, NetConfig, SimDuration, Simulation};

const ROUNDS: usize = 30;
const SEED: u64 = 7;

fn latency_model() -> LatencyModel {
    // Long-tailed (shared-link) latency: the round barrier of a total
    // order then pays the max over n draws, which grows with n.
    LatencyModel::exponential_micros(200, 800)
}

fn interval() -> SimDuration {
    SimDuration::from_millis(4)
}

/// One spontaneous commutative op per member per round, causal-only.
fn run_causal(n: usize) -> (f64, u64, u64) {
    let nodes: Vec<CausalNode<CounterReplica>> = (0..n)
        .map(|i| CausalNode::new(ProcessId::new(i as u32), n, CounterReplica::new()))
        .collect();
    let mut sim = Simulation::new(nodes, NetConfig::with_latency(latency_model()), SEED);
    let mut deadline = sim.now();
    for _ in 0..ROUNDS {
        for i in 0..n {
            sim.poke(ProcessId::new(i as u32), |node, ctx| {
                node.osend(ctx, CounterOp::Inc(1), OccursAfter::none())
            });
        }
        deadline += interval();
        sim.run_until(deadline);
    }
    sim.run_to_quiescence();
    let mut h = Histogram::new();
    for i in 0..n {
        h.merge(&sim.node(ProcessId::new(i as u32)).stats().delivery_latency);
    }
    let value = sim.node(ProcessId::new(0)).app().value();
    assert_eq!(value as usize, ROUNDS * n);
    (
        h.mean_micros(),
        h.percentile(0.99).as_micros(),
        sim.metrics().sent,
    )
}

fn run_merge(n: usize) -> (f64, u64, u64) {
    let nodes: Vec<MergeOrderNode<i64, CounterOp>> = (0..n)
        .map(|i| MergeOrderNode::new(ProcessId::new(i as u32), n, 0))
        .collect();
    let mut sim = Simulation::new(nodes, NetConfig::with_latency(latency_model()), SEED);
    let mut deadline = sim.now();
    for _ in 0..ROUNDS {
        for i in 0..n {
            sim.poke(ProcessId::new(i as u32), |node, ctx| {
                node.submit(ctx, CounterOp::Inc(1))
            });
        }
        deadline += interval();
        sim.run_until(deadline);
    }
    sim.run_to_quiescence();
    let mut h = Histogram::new();
    for i in 0..n {
        h.merge(&sim.node(ProcessId::new(i as u32)).stats().delivery_latency);
    }
    assert_eq!(*sim.node(ProcessId::new(0)).state() as usize, ROUNDS * n);
    (
        h.mean_micros(),
        h.percentile(0.99).as_micros(),
        sim.metrics().sent,
    )
}

fn run_sequencer(n: usize) -> (f64, u64, u64) {
    let nodes: Vec<SequencedNode<i64, CounterOp>> = (0..n)
        .map(|i| SequencedNode::new(ProcessId::new(i as u32), 0))
        .collect();
    let mut sim = Simulation::new(nodes, NetConfig::with_latency(latency_model()), SEED);
    let mut deadline = sim.now();
    for _ in 0..ROUNDS {
        for i in 0..n {
            sim.poke(ProcessId::new(i as u32), |node, ctx| {
                node.submit(ctx, CounterOp::Inc(1))
            });
        }
        deadline += interval();
        sim.run_until(deadline);
    }
    sim.run_to_quiescence();
    let mut h = Histogram::new();
    for i in 0..n {
        h.merge(&sim.node(ProcessId::new(i as u32)).stats().delivery_latency);
    }
    assert_eq!(*sim.node(ProcessId::new(0)).state() as usize, ROUNDS * n);
    (
        h.mean_micros(),
        h.percentile(0.99).as_micros(),
        sim.metrics().sent,
    )
}

fn main() {
    println!("E3+E8 / Figure 4, §5.2 — total ordering above causal broadcast\n");
    println!(
        "{} rounds, one spontaneous op per member per round, \
         latency 0.2ms + Exp(0.8ms)\n",
        ROUNDS
    );

    let mut table = Table::new(["n", "stack", "mean latency", "p99 latency", "msgs sent"]);
    let mut causal_means = Vec::new();
    let mut merge_means = Vec::new();
    for n in [3usize, 6, 12, 24, 48] {
        let (c_mean, c_p99, c_msgs) = run_causal(n);
        let (m_mean, m_p99, m_msgs) = run_merge(n);
        let (s_mean, s_p99, s_msgs) = run_sequencer(n);
        causal_means.push(c_mean);
        merge_means.push(m_mean);
        table.row([
            n.to_string(),
            "causal-only".into(),
            fmt_ms(c_mean),
            fmt_ms(c_p99 as f64),
            c_msgs.to_string(),
        ]);
        table.row([
            n.to_string(),
            "ASend (det. merge)".into(),
            fmt_ms(m_mean),
            fmt_ms(m_p99 as f64),
            m_msgs.to_string(),
        ]);
        table.row([
            n.to_string(),
            "sequencer".into(),
            fmt_ms(s_mean),
            fmt_ms(s_p99 as f64),
            s_msgs.to_string(),
        ]);
        // Shape assertions: total order costs more than causal at every n.
        assert!(
            m_mean > c_mean,
            "merge should cost more than causal at n={n}"
        );
        assert!(
            s_mean > c_mean,
            "sequencer should cost more than causal at n={n}"
        );
    }
    table.print();

    // Scaling shape: the merge barrier grows with n, the causal floor is flat.
    let causal_growth = causal_means.last().unwrap() / causal_means.first().unwrap();
    let merge_growth = merge_means.last().unwrap() / merge_means.first().unwrap();
    println!(
        "\nmean-latency growth from n=3 to n=48: causal {:.2}x, ASend merge {:.2}x",
        causal_growth, merge_growth
    );
    assert!(
        merge_growth > causal_growth,
        "total order must degrade faster with group size"
    );
    println!(
        "paper shape reproduced: total ordering is affordable for small \
         groups and degrades with n, while causal-only latency stays flat \
         — \"total ordering may be feasible when the group size is not \
         large\" (§5.2)."
    );
}
