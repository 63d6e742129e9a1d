//! **E9 — §5.1**: the multiplayer card game with relaxed turn ordering.
//!
//! Player `l` waits only for player `l − d`'s card, not for its immediate
//! predecessor, leaving players `(l−d+1 … l−1)` concurrent with `l`:
//! *"This results in a relaxed ordering of the messages and is thus
//! reflected in higher concurrency."*
//!
//! Sweeps the dependency distance `d` and reports the concurrency made
//! available (concurrent message pairs in `R(M)`) and the wall time to
//! complete the game — strict turn taking (`d = 1`) is the slow extreme.

use causal_bench::table::fmt_ms;
use causal_bench::Table;
use causal_clocks::ProcessId;
use causal_core::stack::CausalNode;
use causal_replica::cardgame::CardPlayer;
use causal_simnet::{LatencyModel, NetConfig, Simulation};
use causal_verify::{check_trace, OracleConfig, Trace};

const ROUNDS: u64 = 5;
const SEED: u64 = 17;

fn run(n: usize, d: usize) -> (usize, f64, bool) {
    let nodes: Vec<CausalNode<CardPlayer>> = (0..n)
        .map(|i| {
            let id = ProcessId::new(i as u32);
            CausalNode::new(id, n, CardPlayer::new(id, n, d, ROUNDS)).with_tracing()
        })
        .collect();
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(300, 1500));
    let mut sim = Simulation::new(nodes, cfg, SEED + d as u64);
    let end = sim.run_to_quiescence();

    let complete = (0..n).all(|i| sim.node(ProcessId::new(i as u32)).app().game_complete());
    let trace = Trace::from_stacks(sim.nodes());
    let consistent = complete && check_trace(&trace, &OracleConfig::default()).is_ok();
    let graph = trace.members()[0].graph().expect("R(M) rebuilds");
    (graph.concurrent_pairs(), end.as_micros() as f64, consistent)
}

fn main() {
    println!("E9 / §5.1 — card game: relaxed turn ordering\n");
    println!("{ROUNDS} rounds; player l waits for player l-d's card\n");

    let n = 8;
    let mut table = Table::new([
        "players",
        "d",
        "concurrent pairs",
        "game time",
        "consistent",
    ]);
    let mut times = Vec::new();
    let mut pairs_seen = Vec::new();
    for d in [1usize, 2, 3, 5, 7] {
        let (pairs, time_us, consistent) = run(n, d);
        assert!(consistent, "game inconsistent at d={d}");
        times.push(time_us);
        pairs_seen.push(pairs);
        table.row([
            n.to_string(),
            d.to_string(),
            pairs.to_string(),
            fmt_ms(time_us),
            consistent.to_string(),
        ]);
    }
    table.print();

    assert!(
        pairs_seen.windows(2).all(|w| w[0] <= w[1]),
        "concurrency must grow with d"
    );
    assert!(
        *times.last().unwrap() < times[0],
        "relaxed ordering must finish faster than the strict ring"
    );
    println!(
        "\nspeedup of d={} over strict turn order (d=1): {:.2}x",
        7,
        times[0] / times.last().unwrap()
    );
    println!(
        "paper shape reproduced: weakening the turn dependency monotonically \
         raises available concurrency and shortens the game, with every \
         player still seeing an identical table."
    );
}
