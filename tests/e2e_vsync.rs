//! End-to-end virtual synchrony: crashes during traffic, under message
//! loss, across seeds. Every run records per-member traces and replays
//! them through the `causal-verify` oracle, which re-checks delivery
//! order, exactly-once, survivor delivered-set agreement, and — the
//! vsync-specific part — that all members installed the same view
//! sequence (crashed members contribute their correct prefix).

use causal_broadcast::clocks::ProcessId;
use causal_broadcast::core::delivery::{Delivered, DeliveryEngine};
use causal_broadcast::core::osend::OccursAfter;
use causal_broadcast::core::stack::{App, CausalNode, Emitter, PcNode, ProtocolStack, VsyncConfig};
use causal_broadcast::core::statemachine::OpClass;
use causal_broadcast::membership::GroupView;
use causal_broadcast::simnet::{
    FaultPlan, LatencyModel, NetConfig, SimDuration, SimTime, Simulation,
};
use causal_verify::{check_trace, OracleConfig, OracleReport, Trace};

#[derive(Debug, Default)]
struct Sum {
    value: i64,
    deliveries: Vec<i64>,
    /// Broadcast once when the app starts, if set.
    greeting: Option<i64>,
}

impl App for Sum {
    type Op = i64;
    fn on_start(&mut self, _me: ProcessId, out: &mut Emitter<i64>) {
        if let Some(op) = self.greeting {
            out.broadcast(op);
        }
    }
    fn on_deliver(&mut self, env: Delivered<'_, i64>, _out: &mut Emitter<i64>) {
        self.value += *env.payload;
        self.deliveries.push(*env.payload);
    }
    fn classify(&self, _op: &i64) -> OpClass {
        OpClass::Commutative
    }
}

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn group(n: usize) -> Vec<CausalNode<Sum>> {
    (0..n)
        .map(|i| {
            CausalNode::with_membership(p(i as u32), n, Sum::default(), VsyncConfig::default())
                .with_tracing()
        })
        .collect()
}

/// Collects all recorded member traces (crashed members included — the
/// oracle exempts them from the quiescence checks but still validates
/// their prefix) and runs the full oracle, panicking on any violation.
fn assert_oracle_clean<D, A>(
    sim: &Simulation<ProtocolStack<D, A>>,
    n: usize,
    tag: &str,
) -> OracleReport
where
    D: DeliveryEngine,
    A: App<Op = D::Op>,
{
    let trace = Trace::new(
        (0..n)
            .filter_map(|i| sim.node(p(i as u32)).trace().cloned())
            .collect(),
    );
    match check_trace(&trace, &OracleConfig::default()) {
        Ok(report) => report,
        Err(v) => panic!("oracle violation ({tag}): {v}"),
    }
}

#[test]
fn survivors_agree_after_crash_across_seeds() {
    for seed in 0..6 {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 1500));
        let mut sim = Simulation::new(group(4), cfg, seed);
        for k in 0..12u32 {
            sim.poke(p(k % 4), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
            let deadline = sim.now() + SimDuration::from_micros(700);
            sim.run_until(deadline);
        }
        sim.node_mut(p(2)).crash();
        sim.run_until(SimTime::from_millis(50));

        let expected = GroupView::initial(4).without(p(2));
        let survivors = [0u32, 1, 3];
        for &i in &survivors {
            assert_eq!(sim.node(p(i)).view(), &expected, "seed {seed} member {i}");
        }
        let values: Vec<i64> = survivors
            .iter()
            .map(|&i| sim.node(p(i)).app().value)
            .collect();
        assert!(
            values.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: {values:?}"
        );
        // No survivor lost a delivered update: all 12 updates were sent
        // before the crash and every sender kept retransmitting until
        // acknowledged (p2's copies flush through survivors).
        assert_eq!(values[0], 12, "seed {seed}");
        // The oracle re-derives survivor agreement from the raw traces
        // and additionally checks exactly-once + view-sequence prefixes.
        let report = assert_oracle_clean(&sim, 4, &format!("seed {seed}"));
        assert!(report.views_compared > 0, "seed {seed}: view check engaged");
    }
}

#[test]
fn crash_between_osend_and_delivery_never_splits_survivors() {
    // p3 broadcasts and crashes δ later — before, while, or after its
    // copies land, with message loss so that some survivors may hold
    // the message when the flush starts and others not. Whatever the
    // timing, virtual synchrony demands the survivors agree: either the
    // flush spreads the raced broadcast to everyone or no survivor
    // delivers it — never a split, never a duplicate.
    for delay_us in [0u64, 150, 300, 450, 700, 1100, 2000, 6000] {
        for seed in [1u64, 8] {
            let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(200, 1200))
                .faults(FaultPlan::new().with_drop_prob(0.15));
            let mut sim = Simulation::new(group(4), cfg, seed.wrapping_mul(1000) + delay_us);
            // Warm-up traffic so the crash has history to flush around.
            for k in 0..4u32 {
                sim.poke(p(k), |node, ctx| {
                    node.osend(ctx, 1, OccursAfter::none());
                });
            }
            sim.run_until(SimTime::from_millis(15));
            sim.poke(p(3), |node, ctx| {
                node.osend(ctx, 100, OccursAfter::none());
            });
            let crash_at = sim.now() + SimDuration::from_micros(delay_us);
            sim.run_until(crash_at);
            sim.node_mut(p(3)).crash();
            sim.run_until(sim.now() + SimDuration::from_millis(80));

            let expected = GroupView::initial(4).without(p(3));
            let survivors = [0u32, 1, 2];
            for &i in &survivors {
                let tag = format!("delay {delay_us} seed {seed} member {i}");
                assert_eq!(sim.node(p(i)).view(), &expected, "{tag}");
                assert_eq!(sim.node(p(i)).pending_len(), 0, "{tag}");
            }
            let values: Vec<i64> = survivors
                .iter()
                .map(|&i| sim.node(p(i)).app().value)
                .collect();
            assert!(
                values.windows(2).all(|w| w[0] == w[1]),
                "delay {delay_us} seed {seed}: survivors split {values:?}"
            );
            // All-or-nothing and exactly-once: the 4 warm-up units plus
            // the raced broadcast everywhere or nowhere.
            assert!(
                values[0] == 4 || values[0] == 104,
                "delay {delay_us} seed {seed}: {values:?}"
            );
            assert_oracle_clean(&sim, 4, &format!("delay {delay_us} seed {seed}"));
        }
    }
}

#[test]
fn crash_under_message_loss_still_heals() {
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 1200))
        .faults(FaultPlan::new().with_drop_prob(0.15));
    let mut sim = Simulation::new(group(4), cfg, 42);
    for k in 0..10u32 {
        sim.poke(p(k % 4), |node, ctx| {
            node.osend(ctx, 1, OccursAfter::none());
        });
        let deadline = sim.now() + SimDuration::from_millis(1);
        sim.run_until(deadline);
    }
    sim.node_mut(p(1)).crash();
    sim.run_until(SimTime::from_millis(80));

    let survivors = [0u32, 2, 3];
    for &i in &survivors {
        assert_eq!(sim.node(p(i)).view().len(), 3, "member {i}");
        assert_eq!(sim.node(p(i)).app().value, 10, "member {i}");
        assert_eq!(sim.node(p(i)).pending_len(), 0);
    }
    assert_oracle_clean(&sim, 4, "loss heal");
}

#[test]
fn two_sequential_crashes_shrink_to_two_members() {
    let cfg = NetConfig::with_latency(LatencyModel::constant_micros(400));
    let mut sim = Simulation::new(group(4), cfg, 9);
    sim.poke(p(0), |node, ctx| {
        node.osend(ctx, 1, OccursAfter::none());
    });
    sim.run_until(SimTime::from_millis(5));
    sim.node_mut(p(3)).crash();
    sim.run_until(SimTime::from_millis(40));
    for i in 0..3u32 {
        assert_eq!(sim.node(p(i)).view().len(), 3, "after first crash");
    }
    sim.node_mut(p(2)).crash();
    sim.run_until(SimTime::from_millis(90));
    for i in 0..2u32 {
        assert_eq!(sim.node(p(i)).view().len(), 2, "after second crash");
        assert_eq!(sim.node(p(i)).app().value, 1);
    }
    // Survivors can still make progress.
    sim.poke(p(1), |node, ctx| {
        node.osend(ctx, 1, OccursAfter::none());
    });
    sim.run_until(SimTime::from_millis(120));
    assert_eq!(sim.node(p(0)).app().value, 2);
    assert_eq!(sim.node(p(1)).app().value, 2);
    // Both crashed members contribute their pre-crash view prefix; the
    // oracle checks it against the survivors' longer sequences.
    assert_oracle_clean(&sim, 4, "two crashes");
}

#[test]
fn join_then_crash_sequence() {
    // A node joins mid-computation; later another member crashes. The
    // final group is {p0, p1, p3(joiner)} and everyone agrees, including
    // on the pre-join history the joiner received by replay.
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 900));
    let mut nodes = group(3);
    nodes.push(
        CausalNode::joining(p(3), p(2), Sum::default(), VsyncConfig::default()).with_tracing(),
    );
    let mut sim = Simulation::new(nodes, cfg, 77);
    for k in 0..6u32 {
        sim.poke(p(k % 3), |node, ctx| {
            node.osend(ctx, 1, OccursAfter::none());
        });
    }
    sim.run_until(SimTime::from_millis(40));
    assert!(!sim.node(p(3)).is_joining());
    assert_eq!(sim.node(p(3)).app().value, 6);
    assert_eq!(sim.node(p(0)).view().len(), 4);

    sim.node_mut(p(2)).crash();
    sim.run_until(SimTime::from_millis(90));
    for &i in &[0u32, 1, 3] {
        assert_eq!(sim.node(p(i)).view().len(), 3, "member {i}");
        assert!(!sim.node(p(i)).view().contains(p(2)));
    }
    // Post-crash traffic still converges, including at the joiner.
    sim.poke(p(3), |node, ctx| {
        node.osend(ctx, 1, OccursAfter::none());
    });
    sim.run_until(SimTime::from_millis(130));
    for &i in &[0u32, 1, 3] {
        assert_eq!(sim.node(p(i)).app().value, 7, "member {i}");
    }
    // The joiner's replayed history must pass the same per-member causal
    // checks as live delivery, and its delivered set must match the
    // incumbents' at quiescence.
    assert_oracle_clean(&sim, 4, "join then crash");
}

#[test]
fn joiner_app_starts_once_admitted() {
    // Every app greets the group from `on_start`: the incumbents at
    // start, the joiner p3 once its first view installs.
    let greeter = || Sum {
        greeting: Some(100),
        ..Sum::default()
    };
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 900));
    let mut nodes: Vec<CausalNode<Sum>> = (0..3)
        .map(|i| {
            CausalNode::with_membership(p(i), 3, greeter(), VsyncConfig::default()).with_tracing()
        })
        .collect();
    nodes.push(CausalNode::joining(p(3), p(1), greeter(), VsyncConfig::default()).with_tracing());
    let mut sim = Simulation::new(nodes, cfg, 11);
    sim.run_until(SimTime::from_millis(80));
    let expected = GroupView::initial(3).with(p(3));
    for i in 0..4u32 {
        assert_eq!(sim.node(p(i)).view(), &expected, "member {i}");
        assert_eq!(sim.node(p(i)).app().value, 400, "member {i}");
    }
    assert_oracle_clean(&sim, 4, "joiner start");
}

#[test]
fn gc_members_admit_a_joiner_outside_their_stability_width() {
    // Stability GC is sized to the initial group of three; the joiner p3
    // lies outside it. Its messages are deduplicated, delivered and left
    // uncompacted everywhere, while the incumbents keep compacting each
    // other's.
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 900));
    let mut nodes: Vec<CausalNode<Sum>> = (0..3)
        .map(|i| {
            CausalNode::with_membership(p(i), 3, Sum::default(), VsyncConfig::default())
                .with_gc(3, 2)
                .with_tracing()
        })
        .collect();
    nodes.push(
        CausalNode::joining(p(3), p(2), Sum::default(), VsyncConfig::default()).with_tracing(),
    );
    let mut sim = Simulation::new(nodes, cfg, 77);
    for k in 0..6u32 {
        sim.poke(p(k % 3), |node, ctx| {
            node.osend(ctx, 1, OccursAfter::none());
        });
    }
    sim.run_until(SimTime::from_millis(40));
    assert!(!sim.node(p(3)).is_joining());
    assert_eq!(sim.node(p(0)).view().len(), 4);
    sim.poke(p(3), |node, ctx| {
        node.osend(ctx, 1, OccursAfter::none());
    });
    for k in 0..6u32 {
        sim.poke(p(k % 3), |node, ctx| {
            node.osend(ctx, 1, OccursAfter::none());
        });
    }
    sim.run_until(SimTime::from_millis(100));
    for i in 0..4u32 {
        assert_eq!(sim.node(p(i)).app().value, 13, "member {i}");
    }
    assert_oracle_clean(&sim, 4, "gc join");
}

/// Per-message state a survivor of a crashed `with_gc(n, 2)` group may
/// retain once a lossless stream has drained, and messages it may hold
/// without knowing them stable: what the members delivered after their
/// last report, under one report period (2) per member of the larger
/// group (8). Measured: `retained_state` 0 on both arms (graph slots,
/// rbcast copies), `unstable_len` 0 (graph) and 1 (PC); without the
/// removed member leaving the minimum, the whole stream.
const CRASH_GC_RETAINED_BOUND: usize = 16;

/// Streams `ops` operations round-robin from `survivors` after `dead`
/// crashed and the view without it installed, then checks that every
/// survivor's stability GC kept up: the removed member's last report
/// must not hold the stable minimum down for good.
fn stream_after_crash<D>(nodes: Vec<ProtocolStack<D, Sum>>, dead: ProcessId, ops: u32, tag: &str)
where
    D: DeliveryEngine<Op = i64>,
{
    let n = nodes.len();
    let survivors: Vec<ProcessId> = (0..n as u32).map(p).filter(|&m| m != dead).collect();
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 900));
    let mut sim = Simulation::new(nodes, cfg, 3);
    for k in 0..200u32 {
        sim.poke(p(k % n as u32), |node, ctx| {
            node.osend(ctx, 1, OccursAfter::none());
        });
        let deadline = sim.now() + SimDuration::from_micros(50);
        sim.run_until(deadline);
    }
    sim.node_mut(dead).crash();
    let deadline = sim.now() + SimDuration::from_millis(40);
    sim.run_until(deadline);
    let expected = GroupView::initial(n).without(dead);
    for &m in &survivors {
        assert_eq!(sim.node(m).view(), &expected, "{tag}: {m}'s view");
    }
    for k in 0..ops {
        let from = survivors[k as usize % survivors.len()];
        sim.poke(from, |node, ctx| {
            node.osend(ctx, 1, OccursAfter::none());
        });
        let deadline = sim.now() + SimDuration::from_micros(50);
        sim.run_until(deadline);
    }
    let deadline = sim.now() + SimDuration::from_millis(100);
    sim.run_until(deadline);
    for &m in &survivors {
        let node = sim.node(m);
        assert_eq!(node.app().value, 200 + i64::from(ops), "{tag}: {m}");
        let retained = node.retained_state();
        assert!(
            retained <= CRASH_GC_RETAINED_BOUND,
            "{tag}: {m} retains {retained} after the stream"
        );
        let unstable = node.unstable_len();
        assert!(
            unstable <= CRASH_GC_RETAINED_BOUND,
            "{tag}: {m} holds {unstable} unstable after the stream"
        );
    }
    assert_oracle_clean(&sim, n, tag);
}

#[test]
fn stability_gc_keeps_compacting_after_a_crash() {
    // The graph engine over full-mesh rbcast, and PC with membership: both
    // gossip stability over the full mesh, where a crashed member's
    // matrix row would otherwise keep its last report forever.
    let graph = (0..4)
        .map(|i| {
            CausalNode::with_membership(p(i), 4, Sum::default(), VsyncConfig::default())
                .with_gc(4, 2)
                .with_tracing()
        })
        .collect();
    stream_after_crash(graph, p(3), 2_000, "graph");
    let pc = (0..8)
        .map(|i| {
            PcNode::with_membership(p(i), 8, Sum::default(), VsyncConfig::default())
                .with_gc(8, 2)
                .with_tracing()
        })
        .collect();
    stream_after_crash(pc, p(7), 1_000, "pc");
}

#[test]
fn joiner_sees_messages_in_causal_order() {
    // The replayed history plus live traffic must respect the declared
    // chain at the joiner too.
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(200, 2500));
    let mut nodes = group(2);
    nodes.push(
        CausalNode::joining(p(2), p(0), Sum::default(), VsyncConfig::default()).with_tracing(),
    );
    let mut sim = Simulation::new(nodes, cfg, 5);
    // A causal chain built before/while the join happens.
    let a = sim
        .poke(p(0), |node, ctx| node.osend(ctx, 1, OccursAfter::none()))
        .unwrap();
    let b = sim
        .poke(p(1), |node, ctx| {
            node.osend(ctx, 2, OccursAfter::message(a))
        })
        .unwrap();
    sim.run_until(SimTime::from_millis(30));
    sim.poke(p(0), |node, ctx| {
        node.osend(ctx, 3, OccursAfter::message(b));
    });
    sim.run_until(SimTime::from_millis(70));

    for i in 0..3u32 {
        let seen = &sim.node(p(i)).app().deliveries;
        let pos: Vec<usize> = [1i64, 2, 3]
            .iter()
            .map(|v| seen.iter().position(|x| x == v).expect("delivered"))
            .collect();
        assert!(pos[0] < pos[1] && pos[1] < pos[2], "member {i}: {seen:?}");
    }
    // The oracle validates the same chain from the recorded dependency
    // sets — at the joiner from replayed envelopes.
    assert_oracle_clean(&sim, 3, "joiner causal order");
}

#[test]
fn coordinator_crash_is_survived_by_takeover() {
    // p0 (the coordinator) crashes; p1 — the lowest-ranked live member —
    // takes over, proposes the shrunken view, and installs it.
    let cfg = NetConfig::with_latency(LatencyModel::constant_micros(300));
    let mut sim = Simulation::new(group(3), cfg, 2);
    sim.poke(p(1), |node, ctx| {
        node.osend(ctx, 1, OccursAfter::none());
    });
    sim.run_until(SimTime::from_millis(4));
    sim.node_mut(p(0)).crash();
    sim.run_until(SimTime::from_millis(60));
    let expected = GroupView::initial(3).without(p(0));
    for i in 1..3u32 {
        assert_eq!(sim.node(p(i)).view(), &expected, "member {i}");
        assert_eq!(sim.node(p(i)).app().value, 1);
    }
    // The new view's coordinator (p1) can drive further changes and the
    // survivors keep computing.
    sim.poke(p(2), |node, ctx| {
        node.osend(ctx, 1, OccursAfter::none());
    });
    sim.run_until(SimTime::from_millis(90));
    assert_eq!(sim.node(p(1)).app().value, 2);
    assert_eq!(sim.node(p(2)).app().value, 2);
    let report = assert_oracle_clean(&sim, 3, "coordinator takeover");
    assert!(report.views_compared > 0, "view check engaged");
}
