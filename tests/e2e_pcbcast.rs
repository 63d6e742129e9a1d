//! End-to-end PC-broadcast: the constant-overhead routed engine running
//! the full stack over the simulated network — static trees under loss,
//! duplication and reordering, then dynamic groups with crashes driving
//! the overlay's quarantine/flush protocol. Every run records per-member
//! traces and replays them through the `causal-verify` oracle.

use causal_broadcast::clocks::ProcessId;
use causal_broadcast::core::delivery::pcbcast::LinkBody;
use causal_broadcast::core::delivery::{Delivered, DeliveryEngine};
use causal_broadcast::core::node::{App, Emitter, PcNode};
use causal_broadcast::core::osend::OccursAfter;
use causal_broadcast::core::stack::{ProtocolStack, StackWire, VsyncConfig};
use causal_broadcast::core::statemachine::OpClass;
use causal_broadcast::membership::GroupView;
use causal_broadcast::simnet::{
    Actor, Context, FaultPlan, LatencyModel, NetConfig, SimDuration, SimTime, Simulation,
};
use causal_verify::{check_trace, OracleConfig, OracleReport, Trace};

#[derive(Debug, Default)]
struct Sum {
    value: i64,
    deliveries: Vec<i64>,
}

impl App for Sum {
    type Op = i64;
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

fn static_group(n: usize) -> Vec<PcNode<Sum>> {
    (0..n)
        .map(|i| PcNode::new(p(i as u32), n, Sum::default()).with_tracing())
        .collect()
}

fn vsync_group(n: usize) -> Vec<PcNode<Sum>> {
    (0..n)
        .map(|i| {
            PcNode::with_membership(p(i as u32), n, Sum::default(), VsyncConfig::default())
                .with_tracing()
        })
        .collect()
}

fn assert_oracle_clean<D, A>(
    sim: &Simulation<ProtocolStack<D, A>>,
    n: usize,
    tag: &str,
) -> OracleReport
where
    D: DeliveryEngine,
    A: App<Op = D::Op>,
{
    assert_stacks_oracle_clean((0..n).map(|i| sim.node(p(i as u32))), tag)
}

fn assert_stacks_oracle_clean<'a, D, A>(
    stacks: impl Iterator<Item = &'a ProtocolStack<D, A>>,
    tag: &str,
) -> OracleReport
where
    D: DeliveryEngine + 'a,
    A: App<Op = D::Op> + 'a,
{
    let trace = Trace::new(stacks.filter_map(|s| s.trace().cloned()).collect());
    match check_trace(&trace, &OracleConfig::default()) {
        Ok(report) => report,
        Err(v) => panic!("oracle violation ({tag}): {v}"),
    }
}

#[test]
fn static_tree_converges_under_loss_dup_and_reorder() {
    for seed in 0..5 {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 2000))
            .faults(FaultPlan::new().with_drop_prob(0.3).with_dup_prob(0.3));
        let mut sim = Simulation::new(static_group(9), cfg, seed);
        for k in 0..30u32 {
            sim.poke(p(k % 9), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
            let deadline = sim.now() + SimDuration::from_micros(500);
            sim.run_until(deadline);
        }
        sim.run_to_quiescence();
        for i in 0..9 {
            assert_eq!(sim.node(p(i)).app().value, 30, "seed {seed} member {i}");
            assert_eq!(sim.node(p(i)).pending_len(), 0, "seed {seed} member {i}");
        }
        assert!(sim.metrics().dropped > 0, "fault injection must trigger");
        let report = assert_oracle_clean(&sim, 9, &format!("seed {seed}"));
        assert_eq!(report.deliveries, 9 * 30, "seed {seed}");
    }
}

/// A member that counts the overlay link frames and stability reports
/// it receives.
struct LinkCounter {
    node: PcNode<Sum>,
    acks: u64,
    stream: u64,
    reports: u64,
}

impl LinkCounter {
    fn new(node: PcNode<Sum>) -> Self {
        LinkCounter {
            node,
            acks: 0,
            stream: 0,
            reports: 0,
        }
    }
}

impl Actor for LinkCounter {
    type Msg = <PcNode<Sum> as Actor>::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.node.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ProcessId, msg: Self::Msg) {
        match &msg {
            StackWire::Link(frame) => match frame.body {
                LinkBody::Ack { .. } => self.acks += 1,
                _ => self.stream += 1,
            },
            StackWire::StabilityReport(_) => self.reports += 1,
            _ => {}
        }
        self.node.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, tag: u64) {
        self.node.on_timer(ctx, tag);
    }
}

#[test]
fn links_acknowledge_only_a_fraction_of_stream_frames() {
    // The PC benchmark's network shape, at 16 members: a receiver acks
    // only frames that advance its in-order point (or re-acks the frame
    // at that point), so reordering and loss no longer draw one ack per
    // stream frame.
    let n = 16;
    for seed in 0..3 {
        let nodes = static_group(n).into_iter().map(LinkCounter::new).collect();
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(50, 500))
            .faults(FaultPlan::new().with_drop_prob(0.01));
        let mut sim = Simulation::new(nodes, cfg, seed);
        for k in 0..400u32 {
            sim.poke(p(k % n as u32), |member, ctx| {
                member.node.osend(ctx, 1, OccursAfter::none());
            });
            let deadline = sim.now() + SimDuration::from_micros(20);
            sim.run_until(deadline);
        }
        sim.run_to_quiescence();
        for (i, member) in sim.nodes().iter().enumerate() {
            assert_eq!(member.node.app().value, 400, "seed {seed} member {i}");
            assert_eq!(member.node.pending_len(), 0, "seed {seed} member {i}");
        }
        let report = assert_stacks_oracle_clean(
            sim.nodes().iter().map(|member| &member.node),
            &format!("ack volume seed {seed}"),
        );
        assert_eq!(report.deliveries, n * 400, "seed {seed}");
        let acks: u64 = sim.nodes().iter().map(|member| member.acks).sum();
        let stream: u64 = sim.nodes().iter().map(|member| member.stream).sum();
        assert!(
            acks * 4 <= stream,
            "seed {seed}: {acks} acks for {stream} stream frames"
        );
    }
}

/// Per-message state a member of a static GC group may hold at any
/// time, during a stream or after it drained. A member holds what it
/// does not yet know to be stable: what the tree is still disseminating
/// (the stream puts 50 ops per millisecond in flight), deliveries since
/// each member's last report, and what the convergecast is still
/// carrying up and down the tree. Over seeds 0–9 at 4,000 ops the peak
/// measured 608–782 at n = 16 and 969–1,202 at n = 64, where full-mesh
/// gossip measured 593–751 and 933–1,242.
const TREE_GC_RETAINED_BOUND: usize = 1_300;

/// Streams 2,000 ops, 20 µs apart, into a static PC group of `n` with
/// stability GC on the PC benchmark's network shape, and checks that
/// the group converges cleanly within [`TREE_GC_RETAINED_BOUND`].
/// Returns the inbound stability reports per op.
fn tree_gc_stream(n: usize, report_every: u64, seed: u64) -> f64 {
    let ops = 2_000u32;
    let nodes = (0..n)
        .map(|i| {
            let node = PcNode::new(p(i as u32), n, Sum::default())
                .with_gc(n, report_every)
                .with_tracing();
            LinkCounter::new(node)
        })
        .collect();
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(50, 500))
        .faults(FaultPlan::new().with_drop_prob(0.01));
    let mut sim = Simulation::new(nodes, cfg, seed);
    let tag = format!("n={n} seed {seed}");
    for k in 0..ops {
        sim.poke(p(k % n as u32), |member, ctx| {
            member.node.osend(ctx, 1, OccursAfter::none());
        });
        let deadline = sim.now() + SimDuration::from_micros(20);
        sim.run_until(deadline);
        for (i, member) in sim.nodes().iter().enumerate() {
            let retained = member.node.retained_state();
            assert!(
                retained <= TREE_GC_RETAINED_BOUND,
                "{tag} member {i}: {retained} retained at op {k}"
            );
        }
    }
    sim.run_to_quiescence();
    for (i, member) in sim.nodes().iter().enumerate() {
        assert_eq!(member.node.app().value, i64::from(ops), "{tag} member {i}");
        assert_eq!(member.node.pending_len(), 0, "{tag} member {i}");
        let retained = member.node.retained_state();
        assert!(
            retained <= TREE_GC_RETAINED_BOUND,
            "{tag} member {i}: {retained} retained after the drain"
        );
    }
    let report = assert_stacks_oracle_clean(sim.nodes().iter().map(|m| &m.node), &tag);
    assert_eq!(report.deliveries, n * ops as usize, "{tag}");
    let reports: u64 = sim.nodes().iter().map(|m| m.reports).sum();
    reports as f64 / f64::from(ops)
}

#[test]
fn tree_stability_bounds_state_at_16_members() {
    for seed in 0..3 {
        tree_gc_stream(16, 8, seed);
    }
}

#[test]
fn tree_stability_reports_reach_only_neighbours_at_64_members() {
    // A static routed stack has no full-mesh channel, so `with_gc`
    // reports over the overlay tree: up to the parent, stable vectors
    // back down. Full-mesh gossip costs every member n − 1 inbound
    // reports per report period, about 40 per op here.
    for seed in 0..3 {
        let per_op = tree_gc_stream(64, 64, seed);
        assert!(per_op <= 3.0, "seed {seed}: {per_op:.2} reports per op");
    }
}

#[test]
fn forwarding_preserves_causal_chains_through_the_tree() {
    // A dependent chain extended by reaction at one member; with fanout 4
    // and 17 members the chain crosses two tree hops, and heavy loss
    // reorders the link streams. Per-link FIFO must still deliver the
    // chain in order at every member.
    #[derive(Debug, Default)]
    struct Chainer {
        me: Option<ProcessId>,
        seen: Vec<i64>,
    }
    impl App for Chainer {
        type Op = i64;
        fn on_start(&mut self, me: ProcessId, _out: &mut Emitter<i64>) {
            self.me = Some(me);
        }
        fn on_deliver(&mut self, env: Delivered<'_, i64>, out: &mut Emitter<i64>) {
            self.seen.push(*env.payload);
            if self.me == Some(ProcessId::new(16)) && *env.payload < 8 {
                out.broadcast(*env.payload + 1);
            }
        }
        fn classify(&self, _op: &i64) -> OpClass {
            OpClass::Commutative
        }
    }

    for seed in 0..4 {
        let nodes: Vec<PcNode<Chainer>> = (0..17)
            .map(|i| PcNode::new(p(i), 17, Chainer::default()).with_tracing())
            .collect();
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 4000))
            .faults(FaultPlan::new().with_drop_prob(0.35));
        let mut sim = Simulation::new(nodes, cfg, seed);
        sim.poke(p(0), |node, ctx| {
            node.broadcast(ctx, 0i64);
        });
        sim.run_to_quiescence();
        for i in 0..17 {
            let seen = &sim.node(p(i)).app().seen;
            let positions: Vec<usize> = (0..=8)
                .map(|v| {
                    seen.iter()
                        .position(|&x| x == v)
                        .unwrap_or_else(|| panic!("seed {seed} member {i} missing {v}: {seen:?}"))
                })
                .collect();
            assert!(
                positions.windows(2).all(|w| w[0] < w[1]),
                "seed {seed} member {i}: chain inverted: {seen:?}"
            );
        }
        assert_oracle_clean(&sim, 17, &format!("chain seed {seed}"));
    }
}

#[test]
fn crash_relinks_the_overlay_and_survivors_converge() {
    // With fanout 4 and 6 members, member 5 hangs off member 1. Crashing
    // p1 severs p5 from the tree until the view change re-parents it onto
    // p0 through a fresh (quarantined) link, whose pong-triggered flush
    // must recover everything p5 missed — and spread p5's own stranded
    // broadcasts back to the group.
    for seed in 0..4 {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 900));
        let mut sim = Simulation::new(vsync_group(6), cfg, seed);
        for k in 0..12u32 {
            sim.poke(p(k % 6), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
            let deadline = sim.now() + SimDuration::from_micros(700);
            sim.run_until(deadline);
        }
        sim.node_mut(p(1)).crash();
        sim.run_until(SimTime::from_millis(40));
        // Post-churn traffic, including from the re-parented leaf.
        for k in 0..6u32 {
            let submitter = [0u32, 2, 3, 4, 5, 5][k as usize];
            sim.poke(p(submitter), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
            let deadline = sim.now() + SimDuration::from_millis(1);
            sim.run_until(deadline);
        }
        sim.run_until(sim.now() + SimDuration::from_millis(60));

        let expected = GroupView::initial(6).without(p(1));
        let survivors = [0u32, 2, 3, 4, 5];
        for &i in &survivors {
            assert_eq!(sim.node(p(i)).view(), &expected, "seed {seed} member {i}");
            assert_eq!(sim.node(p(i)).pending_len(), 0, "seed {seed} member {i}");
        }
        let values: Vec<i64> = survivors
            .iter()
            .map(|&i| sim.node(p(i)).app().value)
            .collect();
        assert!(
            values.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: survivors split {values:?}"
        );
        assert_eq!(values[0], 18, "seed {seed}: {values:?}");
        // The fresh link really went through quarantine.
        assert_eq!(sim.node(p(5)).engine().quarantined_links(), 0);
        let report = assert_oracle_clean(&sim, 6, &format!("crash seed {seed}"));
        assert!(report.views_compared > 0, "seed {seed}: view check engaged");
    }
}

#[test]
fn coordinator_crash_is_survived_under_pc() {
    // The tree root doubles as view coordinator here: its crash forces
    // both a membership takeover and a complete re-rooting of the overlay
    // (every surviving inner link was a root link).
    let cfg = NetConfig::with_latency(LatencyModel::constant_micros(300));
    let mut sim = Simulation::new(vsync_group(4), cfg, 2);
    sim.poke(p(1), |node, ctx| {
        node.osend(ctx, 1, OccursAfter::none());
    });
    sim.run_until(SimTime::from_millis(4));
    sim.node_mut(p(0)).crash();
    sim.run_until(SimTime::from_millis(60));
    let expected = GroupView::initial(4).without(p(0));
    for i in 1..4u32 {
        assert_eq!(sim.node(p(i)).view(), &expected, "member {i}");
        assert_eq!(sim.node(p(i)).app().value, 1, "member {i}");
    }
    sim.poke(p(2), |node, ctx| {
        node.osend(ctx, 1, OccursAfter::none());
    });
    sim.run_until(SimTime::from_millis(100));
    for i in 1..4u32 {
        assert_eq!(sim.node(p(i)).app().value, 2, "member {i}");
    }
    assert_oracle_clean(&sim, 4, "pc coordinator takeover");
}
