//! The multiplayer card game of §5.1: relaxed turn ordering.
//!
//! *"Suppose an action of the lth player does not depend on the action of
//! the preceding (l−1) player but on that of some other player k, where
//! k < (l−1) mod r. In this case, the lth player generates his action
//! after seeing the action of the kth player …: card_k → card_l and
//! ‖{card_l, card_i} for i = (k+1 … l−1). This results in a relaxed
//! ordering of the messages and is thus reflected in higher concurrency."*
//!
//! Here the **dependency distance** `d` generalizes the scenario: player
//! `l` plays after seeing the card of player `max(l − d, 0)` of the same
//! round. `d = 1` is a strict turn ring; larger `d` lets more players act
//! concurrently. Player 0 opens round `r+1` only after seeing *all* cards
//! of round `r` (an AND dependency), so each round boundary is a stable
//! point.

use causal_clocks::{MsgId, ProcessId};
use causal_core::delivery::Delivered;
use causal_core::node::{App, Emitter};
use causal_core::osend::OccursAfter;
use causal_core::statemachine::OpClass;
use std::collections::BTreeMap;

/// One card played: `(round, player)`. The "card value" is immaterial to
/// the ordering study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CardOp {
    /// The round the card belongs to.
    pub round: u64,
    /// The player who played it.
    pub player: ProcessId,
}

/// A player in the card game, hosted on a
/// [`CausalNode`](causal_core::node::CausalNode). Fully reactive: cards
/// are emitted from delivery callbacks once their §5.1 dependency is
/// satisfied.
#[derive(Debug, Clone)]
pub struct CardPlayer {
    me: ProcessId,
    n_players: usize,
    /// §5.1 dependency distance: player `l` waits for player `l - d`.
    dependency_distance: usize,
    rounds: u64,
    /// `(round, player)` → the message that played that card.
    table: BTreeMap<(u64, u32), MsgId>,
    my_plays: Vec<MsgId>,
}

impl CardPlayer {
    /// Creates player `me` of `n_players`, playing `rounds` rounds with
    /// the given dependency distance (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `dependency_distance` is zero or `n_players` is zero.
    pub fn new(me: ProcessId, n_players: usize, dependency_distance: usize, rounds: u64) -> Self {
        assert!(n_players > 0, "the game needs players");
        assert!(dependency_distance > 0, "dependency distance must be >= 1");
        CardPlayer {
            me,
            n_players,
            dependency_distance,
            rounds,
            table: BTreeMap::new(),
            my_plays: Vec::new(),
        }
    }

    /// The player whose card this player waits for (within a round):
    /// `max(l - d, 0)`.
    pub fn waits_for(&self) -> ProcessId {
        let l = self.me.as_usize();
        ProcessId::new(l.saturating_sub(self.dependency_distance) as u32)
    }

    /// All cards seen so far, as `(round, player)` keys.
    pub fn table(&self) -> impl Iterator<Item = (u64, ProcessId)> + '_ {
        self.table.keys().map(|&(r, p)| (r, ProcessId::new(p)))
    }

    /// Number of cards this player has played.
    pub fn plays(&self) -> usize {
        self.my_plays.len()
    }

    /// `true` once every round is fully played at this member.
    pub fn game_complete(&self) -> bool {
        self.table.len() == self.rounds as usize * self.n_players
    }

    fn round_cards(&self, round: u64) -> Vec<MsgId> {
        self.table
            .range((round, 0)..(round + 1, 0))
            .map(|(_, &m)| m)
            .collect()
    }

    fn have_played(&self, round: u64) -> bool {
        self.table.contains_key(&(round, self.me.as_u32()))
    }

    fn play(&mut self, round: u64, after: OccursAfter, out: &mut Emitter<CardOp>) {
        out.osend(
            CardOp {
                round,
                player: self.me,
            },
            after,
        );
    }
}

impl App for CardPlayer {
    type Op = CardOp;

    fn on_start(&mut self, me: ProcessId, out: &mut Emitter<CardOp>) {
        debug_assert_eq!(me, self.me);
        if self.me == ProcessId::new(0) && self.rounds > 0 {
            self.play(0, OccursAfter::none(), out);
        }
    }

    fn on_deliver(&mut self, env: Delivered<'_, CardOp>, out: &mut Emitter<CardOp>) {
        let card = *env.payload;
        self.table
            .insert((card.round, card.player.as_u32()), env.id);
        if card.player == self.me {
            self.my_plays.push(env.id);
        }

        // §5.1 rule: play my card for this round once the player I wait
        // for has played (player 0 never reacts within a round).
        if self.me != ProcessId::new(0)
            && card.round < self.rounds
            && card.player == self.waits_for()
            && !self.have_played(card.round)
        {
            self.play(card.round, OccursAfter::message(env.id), out);
        }

        // Round boundary: player 0 opens the next round after seeing every
        // card of this one.
        if self.me == ProcessId::new(0) {
            let complete = self.round_cards(card.round).len() == self.n_players;
            let next = card.round + 1;
            if complete && next < self.rounds && !self.have_played(next) {
                let deps = self.round_cards(card.round);
                self.play(next, OccursAfter::all(deps), out);
            }
        }
    }

    fn classify(&self, op: &CardOp) -> OpClass {
        // Round-opening cards (player 0) are the synchronization messages.
        if op.player == ProcessId::new(0) {
            OpClass::NonCommutative
        } else {
            OpClass::Commutative
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_core::node::CausalNode;
    use causal_simnet::{LatencyModel, NetConfig, Simulation};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn run_game(n: usize, d: usize, rounds: u64, seed: u64) -> Simulation<CausalNode<CardPlayer>> {
        let nodes: Vec<CausalNode<CardPlayer>> = (0..n)
            .map(|i| {
                CausalNode::new(p(i as u32), n, CardPlayer::new(p(i as u32), n, d, rounds))
                    .with_tracing()
            })
            .collect();
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 2000));
        let mut sim = Simulation::new(nodes, cfg, seed);
        sim.run_to_quiescence();
        sim
    }

    #[test]
    fn waits_for_follows_the_distance_rule() {
        let player = CardPlayer::new(p(4), 6, 3, 1);
        assert_eq!(player.waits_for(), p(1));
        let edge = CardPlayer::new(p(2), 6, 5, 1);
        assert_eq!(edge.waits_for(), p(0));
    }

    #[test]
    fn all_players_play_every_round() {
        let sim = run_game(4, 1, 3, 2);
        for i in 0..4 {
            let app = sim.node(p(i)).app();
            assert!(app.game_complete(), "player {i}");
            assert_eq!(app.plays(), 3);
        }
    }

    #[test]
    fn strict_ring_has_no_concurrency_within_rounds() {
        let sim = run_game(4, 1, 2, 3);
        // d=1: cards of a round form a chain; only cross-round pairs could
        // be concurrent, and round boundaries order those too.
        let graph = sim.node(p(0)).trace().unwrap().graph().unwrap();
        assert_eq!(graph.concurrent_pairs(), 0);
    }

    #[test]
    fn large_distance_creates_concurrency() {
        let sim = run_game(5, 4, 2, 4);
        // d=4: players 1..=4 all wait only for player 0: they are mutually
        // concurrent within each round -> C(4,2)=6 pairs per round.
        let graph = sim.node(p(0)).trace().unwrap().graph().unwrap();
        assert_eq!(graph.concurrent_pairs(), 12);
    }

    #[test]
    fn every_member_sees_identical_tables() {
        let sim = run_game(5, 2, 3, 5);
        let reference: Vec<_> = sim.node(p(0)).app().table().collect();
        for i in 1..5 {
            let table: Vec<_> = sim.node(p(i)).app().table().collect();
            assert_eq!(table, reference, "player {i}");
        }
    }

    #[test]
    fn round_boundaries_are_stable_points() {
        let sim = run_game(4, 3, 3, 6);
        for i in 0..4 {
            // Rounds 0,1,2 opened by player 0 => 3 stable points at every
            // member.
            assert_eq!(sim.node(p(i)).stable_points().len(), 3, "player {i}");
        }
    }

    #[test]
    #[should_panic(expected = "distance must be >= 1")]
    fn zero_distance_rejected() {
        let _ = CardPlayer::new(p(0), 3, 0, 1);
    }
}
