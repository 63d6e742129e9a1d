//! **A2 — Ablation**: stability-based garbage collection of per-message
//! state.
//!
//! The delivery and reliability layers must remember every message they
//! have seen (duplicate suppression, dependency satisfaction) — state
//! that grows linearly with the run unless messages known to be
//! **stable** (delivered at every member) are forgotten. This ablation
//! runs a long commutative-update stream with GC off and with
//! matrix-clock stability tracking on (reports gossiped every k
//! deliveries), and reports the retained per-message state.

use causal_bench::Table;
use causal_clocks::ProcessId;
use causal_core::osend::OccursAfter;
use causal_core::stack::CausalNode;
use causal_replica::counter::{CounterOp, CounterReplica};
use causal_simnet::{FaultPlan, LatencyModel, NetConfig, SimDuration, Simulation};

const SEED: u64 = 13;

fn run(n: usize, ops: usize, gc_report_every: Option<u64>, drop: f64) -> (usize, i64) {
    let nodes: Vec<CausalNode<CounterReplica>> = (0..n)
        .map(|i| {
            let node = CausalNode::new(ProcessId::new(i as u32), n, CounterReplica::new());
            match gc_report_every {
                Some(k) => node.with_gc(n, k),
                None => node,
            }
        })
        .collect();
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(200, 1000))
        .faults(FaultPlan::new().with_drop_prob(drop));
    let mut sim = Simulation::new(nodes, cfg, SEED);
    for k in 0..ops {
        sim.poke(ProcessId::new((k % n) as u32), |node, ctx| {
            node.osend(ctx, CounterOp::Inc(1), OccursAfter::none());
        });
        let deadline = sim.now() + SimDuration::from_micros(800);
        sim.run_until(deadline);
    }
    sim.run_to_quiescence();
    let retained = (0..n)
        .map(|i| sim.node(ProcessId::new(i as u32)).retained_state())
        .max()
        .unwrap();
    let value = sim.node(ProcessId::new(0)).app().value();
    (retained, value)
}

fn main() {
    println!("A2 — stability GC: retained per-message state\n");
    println!("commutative update stream, retained state measured at quiescence\n");

    let mut table = Table::new([
        "n",
        "ops",
        "drop",
        "GC",
        "max retained entries",
        "final value ok",
    ]);
    for n in [3usize, 5] {
        for ops in [200usize, 800] {
            for drop in [0.0, 0.1] {
                let (no_gc, v1) = run(n, ops, None, drop);
                let (gc, v2) = run(n, ops, Some(10), drop);
                assert_eq!(v1, ops as i64);
                assert_eq!(v2, ops as i64);
                table.row([
                    n.to_string(),
                    ops.to_string(),
                    format!("{:.0}%", drop * 100.0),
                    "off".into(),
                    no_gc.to_string(),
                    "true".into(),
                ]);
                table.row([
                    n.to_string(),
                    ops.to_string(),
                    format!("{:.0}%", drop * 100.0),
                    "every 10".to_string(),
                    gc.to_string(),
                    "true".into(),
                ]);
                assert!(
                    gc * 4 < no_gc,
                    "GC must bound retained state (n={n}, ops={ops}): {gc} vs {no_gc}"
                );
            }
        }
    }
    table.print();
    println!(
        "\nablation shape: without stability tracking, retained state grows \
         linearly with the number of messages; with gossiped delivered-prefix \
         clocks and compaction it stays bounded near the in-flight window, \
         with identical application results."
    );
}
