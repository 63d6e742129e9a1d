//! Property tests for the simulator's determinism and fault-injection
//! accounting. The cross-core equivalence sweep over queue geometries
//! lives beside the crate-private geometry, in `sim.rs`'s tests.

use causal_clocks::ProcessId;
use causal_simnet::{
    Actor, Context, FaultPlan, LatencyModel, NetConfig, NetTrace, SimDuration, Simulation,
};
use proptest::prelude::*;

/// A chatty actor: every node broadcasts `rounds` batches on a timer and
/// counts receptions — enough traffic to exercise scheduling, faults, and
/// timers together.
struct Chatty {
    rounds: u32,
    sent_rounds: u32,
    received: u64,
}

impl Actor for Chatty {
    type Msg = u32;
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.set_timer(SimDuration::from_micros(500), 0);
    }
    fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: ProcessId, _msg: u32) {
        self.received += 1;
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _tag: u64) {
        ctx.broadcast(self.sent_rounds);
        self.sent_rounds += 1;
        if self.sent_rounds < self.rounds {
            ctx.set_timer(SimDuration::from_micros(500), 0);
        }
    }
}

fn run(n: usize, rounds: u32, seed: u64, cfg: NetConfig) -> (NetTrace, Vec<u64>, u64, u64) {
    let nodes: Vec<Chatty> = (0..n)
        .map(|_| Chatty {
            rounds,
            sent_rounds: 0,
            received: 0,
        })
        .collect();
    let mut sim = Simulation::new(nodes, cfg, seed);
    sim.enable_trace();
    sim.run_to_quiescence();
    let received: Vec<u64> = sim.nodes().iter().map(|c| c.received).collect();
    let trace = sim.trace().unwrap().clone();
    (
        trace,
        received,
        sim.metrics().delivered,
        sim.metrics().dropped,
    )
}

fn arb_config() -> impl Strategy<Value = (NetConfig, u64)> {
    (
        prop_oneof![
            Just(LatencyModel::constant_micros(300)),
            Just(LatencyModel::uniform_micros(50, 4000)),
            Just(LatencyModel::exponential_micros(100, 700)),
        ],
        0.0f64..0.5,
        0.0f64..0.3,
        any::<u64>(),
    )
        .prop_map(|(latency, drop, dup, seed)| {
            (
                NetConfig::with_latency(latency)
                    .faults(FaultPlan::new().with_drop_prob(drop).with_dup_prob(dup)),
                seed,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bit-for-bit determinism: identical seed and config give identical
    /// traces and outcomes.
    #[test]
    fn same_seed_same_history((cfg, seed) in arb_config(), n in 2usize..5, rounds in 1u32..5) {
        let a = run(n, rounds, seed, cfg.clone());
        let b = run(n, rounds, seed, cfg);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }

    /// Conservation: every transmission is either delivered or dropped
    /// (duplicates add deliveries, never lose them).
    #[test]
    fn transmissions_are_conserved((cfg, seed) in arb_config(), n in 2usize..5, rounds in 1u32..5) {
        let (_, received, delivered, dropped) = run(n, rounds, seed, cfg);
        let sent = (n * (n - 1)) as u64 * rounds as u64;
        prop_assert!(delivered + dropped >= sent);
        prop_assert_eq!(received.iter().sum::<u64>(), delivered);
    }

    /// With no faults, everyone receives everything exactly once.
    #[test]
    fn fault_free_is_exactly_once(seed in any::<u64>(), n in 2usize..6, rounds in 1u32..5) {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(10, 5000));
        let (_, received, _, dropped) = run(n, rounds, seed, cfg);
        prop_assert_eq!(dropped, 0);
        for r in received {
            prop_assert_eq!(r, ((n - 1) as u64) * rounds as u64);
        }
    }
}
