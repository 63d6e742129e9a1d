//! Exhaustive small-configuration exploration, for CI and the curious:
//!
//! ```text
//! cargo run --release -p causal-verify --bin explore
//! ```
//!
//! Runs the §6.1-shaped workload — a synchronization message, two
//! concurrent commutative updates ordered after it, and a closing
//! synchronization message after both — over every delivery interleaving
//! of a 3-node group, for the explicit-dependency graph engine, the
//! vector-clock CBCAST engine, and both reference engines, checking the
//! full oracle at every quiescent terminal state. Prints partial-order
//! reduction statistics and the number of distinct terminal outcomes
//! (tuples of per-member delivery logs); exits nonzero if any schedule violates an
//! invariant (the minimized counterexample trace is printed so it can be
//! committed under `regressions/`).

use causal_core::delivery::reference::{FlatCbcastEngine, ScanGraphDelivery};
use causal_core::delivery::{CbcastEngine, DeliveryEngine, GraphDelivery, PcEngine};
use causal_core::stack::ProtocolStack;
use causal_verify::apps::{sec61_script, CounterOp, SumApp};
use causal_verify::explorer::explore_stacks;
use std::process::ExitCode;

fn explore_engine<D>(name: &str) -> bool
where
    D: DeliveryEngine<Op = CounterOp>,
{
    let result = explore_stacks(
        3,
        |me, n| ProtocolStack::<D, SumApp>::new(me, n, SumApp::new()),
        sec61_script(),
    );
    let s = result.stats;
    println!(
        "{name:14} schedules={:<6} transitions={:<7} sleep_pruned={:<5} max_depth={:<3} outcomes={:<3} truncated={}",
        s.schedules_complete, s.transitions, s.sleep_pruned, s.max_depth, result.outcomes, s.truncated
    );
    if let Some(v) = &result.violation {
        println!("  VIOLATION: {}", v.failure);
        println!("  minimized schedule: {:?}", v.schedule);
        println!("--- counterexample trace ---\n{}", v.trace.to_text());
        return false;
    }
    if s.truncated {
        println!("  TRUNCATED: exploration hit a limit before exhausting schedules");
        return false;
    }
    if let Some(r) = &result.last_report {
        println!(
            "  oracle: {} members, {} deliveries, {} stable-point comparisons, {} snapshot comparisons, {} rederived-causality logs",
            r.members, r.deliveries, r.stable_points, r.snapshots_compared, r.hb_logs
        );
    }
    true
}

fn main() -> ExitCode {
    println!("exploring 3 nodes / 4 messages (nc -> c || c -> nc), all interleavings:");
    let mut ok = true;
    ok &= explore_engine::<GraphDelivery<CounterOp>>("graph");
    ok &= explore_engine::<CbcastEngine<CounterOp>>("vector");
    ok &= explore_engine::<ScanGraphDelivery<CounterOp>>("graph-ref");
    ok &= explore_engine::<FlatCbcastEngine<CounterOp>>("vector-ref");
    // PC-broadcast disseminates over overlay links rather than reliable
    // broadcast; on a static 3-node group the overlay is a star around
    // node 0, so the workload exercises real forwarding. The oracle's
    // re-derived potential-causality check covers its metadata-free logs.
    ok &= explore_engine::<PcEngine<CounterOp>>("pc");
    if ok {
        println!("all engines: every interleaving satisfies the oracle");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
