//! The multiplayer card game of §5.1: relaxed turn ordering.
//!
//! Six players, five rounds. Player `l` does not wait for its immediate
//! predecessor — only for player `l − 3`'s card — so up to three players
//! act concurrently while every player still ends up with the identical
//! view of the table.
//!
//! ```sh
//! cargo run --example card_game
//! ```

use causal_broadcast::clocks::ProcessId;
use causal_broadcast::core::stack::CausalNode;
use causal_broadcast::replica::cardgame::CardPlayer;
use causal_broadcast::simnet::{LatencyModel, NetConfig, Simulation};
use causal_verify::{check_trace, OracleConfig, Trace};

fn main() {
    let p = ProcessId::new;
    let players = 6usize;
    let rounds = 5u64;
    let dependency_distance = 3usize;

    let nodes: Vec<CausalNode<CardPlayer>> = (0..players)
        .map(|i| {
            let id = p(i as u32);
            CausalNode::new(
                id,
                players,
                CardPlayer::new(id, players, dependency_distance, rounds),
            )
            .with_tracing()
        })
        .collect();
    let net = NetConfig::with_latency(LatencyModel::uniform_micros(300, 1800));
    let mut sim = Simulation::new(nodes, net, 11);

    // The game is fully reactive: player 0 opens round 0 in on_start and
    // every other card is played from a delivery callback.
    let end = sim.run_to_quiescence();

    println!(
        "{players} players, {rounds} rounds, player l waits for player l-{dependency_distance}\n"
    );
    for i in 0..players {
        let app = sim.node(p(i as u32)).app();
        println!(
            "player p{i}: waits for {}, played {} cards, game complete: {}",
            app.waits_for(),
            app.plays(),
            app.game_complete()
        );
        assert!(app.game_complete());
    }

    let reference: Vec<_> = sim.node(p(0)).app().table().collect();
    for i in 1..players {
        let table: Vec<_> = sim.node(p(i as u32)).app().table().collect();
        assert_eq!(table, reference, "player {i} saw a different table");
    }
    // The recorded run satisfies every invariant of the paper, and any
    // player can rebuild R(M) from its own trace.
    let trace = Trace::from_stacks(sim.nodes());
    check_trace(&trace, &OracleConfig::default()).expect("oracle violation");
    let graph = trace.members()[0].graph().expect("R(M) rebuilds");
    let concurrency = graph.concurrent_pairs();
    println!(
        "\nall tables identical; game finished at {end}; \
         {concurrency} concurrent card pairs were left unordered by the \
         relaxed relation (strict turn order would leave 0)."
    );
}
