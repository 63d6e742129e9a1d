//! **E4 — Figure 5 / §6.2**: decentralized lock arbitration with totally
//! ordered `LOCK`/`TFR` cycles.
//!
//! Verifies the protocol's consensus property — *"since the algorithm is
//! deterministic, all the members choose the same next lock holder"* —
//! and measures cycle latency and message cost as the group grows,
//! including under message loss.

use causal_bench::table::fmt_ms;
use causal_bench::Table;
use causal_clocks::ProcessId;
use causal_core::stack::CausalNode;
use causal_replica::lock::LockMember;
use causal_simnet::{FaultPlan, LatencyModel, NetConfig, Simulation};

const CYCLES: u64 = 10;
const SEED: u64 = 31;

struct RunResult {
    time_per_cycle_ms: f64,
    msgs_per_cycle: f64,
    consensus: bool,
    complete: bool,
}

fn run(n: usize, drop_prob: f64) -> RunResult {
    let nodes: Vec<CausalNode<LockMember>> = (0..n)
        .map(|i| {
            let id = ProcessId::new(i as u32);
            CausalNode::new(id, n, LockMember::new(id, n, CYCLES))
        })
        .collect();
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(200, 1500))
        .faults(FaultPlan::new().with_drop_prob(drop_prob));
    let mut sim = Simulation::new(nodes, cfg, SEED + n as u64);
    let end = sim.run_to_quiescence();

    let reference = sim.node(ProcessId::new(0)).app().sequences().clone();
    let consensus =
        (1..n).all(|i| sim.node(ProcessId::new(i as u32)).app().sequences() == &reference);
    let complete = (0..n).all(|i| {
        sim.node(ProcessId::new(i as u32))
            .app()
            .all_cycles_complete()
    });

    RunResult {
        time_per_cycle_ms: end.as_micros() as f64 / 1000.0 / CYCLES as f64,
        msgs_per_cycle: sim.metrics().sent as f64 / CYCLES as f64,
        consensus,
        complete,
    }
}

fn main() {
    println!("E4 / Figure 5, §6.2 — LOCK/TFR decentralized lock arbitration\n");
    println!("{CYCLES} arbitration cycles, every member requests every cycle\n");

    let mut table = Table::new([
        "n",
        "drop",
        "time/cycle",
        "msgs/cycle",
        "consensus",
        "complete",
    ]);
    for n in [2usize, 3, 5, 8, 12] {
        for drop in [0.0, 0.2] {
            let r = run(n, drop);
            assert!(r.consensus, "members disagreed on holder sequence (n={n})");
            assert!(r.complete, "cycles did not complete (n={n}, drop={drop})");
            table.row([
                n.to_string(),
                format!("{:.0}%", drop * 100.0),
                fmt_ms(r.time_per_cycle_ms * 1000.0),
                format!("{:.0}", r.msgs_per_cycle),
                r.consensus.to_string(),
                r.complete.to_string(),
            ]);
        }
    }
    table.print();
    println!(
        "\npaper shape reproduced: every member computes the identical \
         holder sequence each cycle (consensus without a lock server), the \
         lock circulates in n sequential TFR steps per cycle, and the \
         protocol rides out message loss via the reliability layer."
    );
}
