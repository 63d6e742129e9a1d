//! Cross-core determinism: the bucketed simulator (`Simulation`) against
//! the preserved heap-based core (`reference::Simulation`).
//!
//! The refactored engine replaced the event queue (calendar wheel +
//! overflow heap for a global `BinaryHeap`), the payload storage (arena
//! tickets for owned messages), the command path (recycled scratch buffer
//! for per-callback `Vec`s), and the partition check (incremental schedule
//! for a full scan). None of that may be observable: with the same actors,
//! configuration, and seed, both cores must produce **identical**
//! transport traces, metrics, final clocks, and per-member protocol
//! traces. These tests drive the full `ProtocolStack` through the same
//! scenario shapes as the e2e_faults / e2e_vsync / e2e_pcbcast suites on
//! both cores and compare everything that is comparable.

use causal_broadcast::clocks::ProcessId;
use causal_broadcast::core::delivery::Delivered;
use causal_broadcast::core::osend::OccursAfter;
use causal_broadcast::core::stack::{App, CausalNode, Emitter, PcNode, VsyncConfig};
use causal_broadcast::core::statemachine::OpClass;
use causal_broadcast::replica::counter::{CounterOp, CounterReplica};
use causal_broadcast::simnet::{
    reference, FaultPlan, LatencyModel, NetConfig, Partition, SimDuration, SimTime, Simulation,
};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

#[derive(Debug, Default)]
struct Sum {
    value: i64,
}

impl App for Sum {
    type Op = i64;
    fn on_deliver(&mut self, env: Delivered<'_, i64>, _out: &mut Emitter<i64>) {
        self.value += *env.payload;
    }
    fn classify(&self, _op: &i64) -> OpClass {
        OpClass::Commutative
    }
}

/// Runs `$body` (a scenario driver over `$sim`) on both cores with the
/// same node factory, network config, and seed, then asserts that every
/// observable — transport trace, metrics (including `peak_in_flight`),
/// final clock, event count, and each member's protocol-level trace — is
/// identical. Expands the driver twice because the two simulations are
/// distinct types with identical surfaces.
macro_rules! assert_cores_agree {
    ($mk:expr, $cfg:expr, $seed:expr, |$sim:ident| $body:block) => {{
        let mut fast = Simulation::new($mk(), $cfg(), $seed);
        fast.enable_trace();
        {
            let $sim = &mut fast;
            $body
        }
        let mut oracle = reference::Simulation::new($mk(), $cfg(), $seed);
        oracle.enable_trace();
        {
            let $sim = &mut oracle;
            $body
        }
        assert_eq!(
            fast.trace(),
            oracle.trace(),
            "transport traces diverged (seed {})",
            $seed
        );
        assert_eq!(
            fast.metrics(),
            oracle.metrics(),
            "metrics diverged (seed {})",
            $seed
        );
        assert_eq!(fast.now(), oracle.now(), "clocks diverged (seed {})", $seed);
        assert_eq!(
            fast.events_processed(),
            oracle.events_processed(),
            "event counts diverged (seed {})",
            $seed
        );
        for i in 0..fast.len() {
            assert_eq!(
                fast.node(p(i as u32)).trace(),
                oracle.node(p(i as u32)).trace(),
                "member {i} protocol trace diverged (seed {})",
                $seed
            );
        }
        (fast, oracle)
    }};
}

/// The e2e_faults shape: `CausalNode<CounterReplica>` under loss,
/// duplication, and a partition, with pokes interleaved into the run.
#[test]
fn faults_scenario_identical_across_cores() {
    let mk = || {
        (0..5)
            .map(|i| CausalNode::new(p(i), 5, CounterReplica::new()).with_tracing())
            .collect::<Vec<_>>()
    };
    let cfg = || {
        NetConfig::with_latency(LatencyModel::exponential_micros(100, 700))
            .faults(FaultPlan::new().with_drop_prob(0.3).with_dup_prob(0.3))
            .partition(Partition::new(
                [p(0)],
                [p(1), p(2)],
                SimTime::from_millis(2),
                SimTime::from_millis(9),
            ))
    };
    for seed in 0..4u64 {
        let (fast, oracle) = assert_cores_agree!(mk, cfg, seed, |sim| {
            for k in 0..40u32 {
                sim.poke(p(k % 5), |node, ctx| {
                    node.osend(ctx, CounterOp::Inc(1), OccursAfter::none())
                });
                let deadline = sim.now() + SimDuration::from_micros(400);
                sim.run_until(deadline);
            }
            sim.run_to_quiescence();
        });
        for i in 0..5 {
            assert_eq!(fast.node(p(i)).app().value(), 40, "seed {seed}");
            assert_eq!(
                fast.node(p(i)).app().value(),
                oracle.node(p(i)).app().value()
            );
        }
        assert!(fast.metrics().dropped > 0, "fault injection must trigger");
    }
}

/// The e2e_vsync shape: view-synchronous membership with a crash mid-run,
/// exercising failure detection timers (far-future events ride the
/// wheel's overflow tier) and view-change control traffic.
#[test]
fn vsync_crash_scenario_identical_across_cores() {
    let mk = || {
        (0..4)
            .map(|i| {
                CausalNode::with_membership(p(i), 4, Sum::default(), VsyncConfig::default())
                    .with_tracing()
            })
            .collect::<Vec<CausalNode<Sum>>>()
    };
    let cfg = || NetConfig::with_latency(LatencyModel::uniform_micros(100, 1500));
    for seed in 0..3u64 {
        let (fast, oracle) = assert_cores_agree!(mk, cfg, seed, |sim| {
            for k in 0..12u32 {
                sim.poke(p(k % 4), |node, ctx| {
                    node.osend(ctx, 1, OccursAfter::none());
                });
                let deadline = sim.now() + SimDuration::from_micros(700);
                sim.run_until(deadline);
                if k == 5 {
                    sim.node_mut(p(2)).crash();
                }
            }
            // Heartbeat timers re-arm forever: run to a fixed horizon (as
            // the e2e suite does) rather than to quiescence.
            sim.run_until(SimTime::from_millis(50));
        });
        // Survivors converged, identically on both cores.
        for i in [0u32, 1, 3] {
            assert_eq!(fast.node(p(i)).app().value, oracle.node(p(i)).app().value);
        }
        assert!(fast.metrics().timers_fired > 0);
    }
}

/// The e2e_pcbcast shape: the constant-overhead routed engine on a static
/// tree of nine members under heavy loss and duplication.
#[test]
fn pcbcast_scenario_identical_across_cores() {
    let mk = || {
        (0..9)
            .map(|i| PcNode::new(p(i), 9, Sum::default()).with_tracing())
            .collect::<Vec<PcNode<Sum>>>()
    };
    let cfg = || {
        NetConfig::with_latency(LatencyModel::uniform_micros(100, 2000))
            .faults(FaultPlan::new().with_drop_prob(0.3).with_dup_prob(0.3))
    };
    for seed in 0..3u64 {
        let (fast, _oracle) = assert_cores_agree!(mk, cfg, seed, |sim| {
            for k in 0..30u32 {
                sim.poke(p(k % 9), |node, ctx| {
                    node.osend(ctx, 1, OccursAfter::none());
                });
                let deadline = sim.now() + SimDuration::from_micros(500);
                sim.run_until(deadline);
            }
            sim.run_to_quiescence();
        });
        for i in 0..9 {
            assert_eq!(fast.node(p(i)).app().value, 30, "seed {seed} member {i}");
        }
    }
}
