//! Differential proptests: the unified [`stack`](crate::stack) must be
//! behaviorally identical to the three pre-refactor nodes it replaced.
//!
//! Each property generates a random schedule — senders, payloads,
//! dependency chaining, inter-op gaps, network latency jitter, drops,
//! duplicates — and runs it twice under the **same simulation seed**: once
//! on the legacy wiring preserved in this module, once on the unified
//! stack. Because both are sans-IO actors over the same deterministic
//! simulator, equivalence is exact, not statistical: delivery logs must be
//! byte-identical, stable-point sequences equal, replica values equal.

use super::node as legacy;
use super::vsync as legacy_vsync;
use crate::delivery::Delivered;
use crate::osend::{GraphEnvelope, OccursAfter};
use crate::stack;
use crate::stack::App;
use crate::statemachine::OpClass;
use causal_clocks::{MsgId, ProcessId};
use causal_simnet::{FaultPlan, LatencyModel, NetConfig, SimDuration, SimTime, Simulation};
use proptest::prelude::*;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i as u32)
}

/// One randomized run: group size, sim seed, network shape, and an op
/// schedule of (sender, payload, chain-to-previous?, gap-after µs).
#[derive(Debug, Clone)]
struct Schedule {
    n: usize,
    seed: u64,
    lat_lo: u64,
    lat_hi: u64,
    drop_pct: u8,
    dup_pct: u8,
    ops: Vec<(usize, i64, bool, u64)>,
}

impl Schedule {
    fn net(&self) -> NetConfig {
        NetConfig::with_latency(LatencyModel::uniform_micros(self.lat_lo, self.lat_hi)).faults(
            FaultPlan::new()
                .with_drop_prob(f64::from(self.drop_pct) / 100.0)
                .with_dup_prob(f64::from(self.dup_pct) / 100.0),
        )
    }
}

fn arb_schedule(max_ops: usize, max_drop_pct: u8) -> impl Strategy<Value = Schedule> {
    (2usize..=4, 0u64..10_000).prop_flat_map(move |(n, seed)| {
        let ops = proptest::collection::vec((0..n, 1i64..=20, 0u8..2, 0u64..2500), 1..=max_ops);
        (
            Just(n),
            Just(seed),
            10u64..200,
            200u64..4000,
            0u8..=max_drop_pct,
            0u8..=10,
            ops,
        )
            .prop_map(
                |(n, seed, lat_lo, lat_hi, drop_pct, dup_pct, raw)| Schedule {
                    n,
                    seed,
                    lat_lo,
                    lat_hi,
                    drop_pct,
                    dup_pct,
                    ops: raw
                        .into_iter()
                        .map(|(s, v, c, g)| (s, v, c == 1, g))
                        .collect(),
                },
            )
    })
}

/// What both implementations must agree on, member by member.
#[derive(Debug, PartialEq)]
struct Outcome {
    logs: Vec<Vec<MsgId>>,
    values: Vec<i64>,
    stable_points: Vec<Vec<MsgId>>,
    delivered: Vec<u64>,
    pending: Vec<usize>,
}

/// Counter app for the unified stack: payloads 1..=9 commutative.
#[derive(Debug, Default)]
struct Sum {
    value: i64,
}
impl App for Sum {
    type Op = i64;
    fn on_deliver(&mut self, env: Delivered<'_, i64>, _out: &mut stack::Emitter<i64>) {
        self.value += *env.payload;
    }
    fn classify(&self, op: &i64) -> OpClass {
        if (1..=9).contains(op) {
            OpClass::Commutative
        } else {
            OpClass::NonCommutative
        }
    }
}

/// The same app over the legacy `CausalApp` trait.
#[derive(Debug, Default)]
struct LSum {
    value: i64,
}
impl legacy::CausalApp for LSum {
    type Op = i64;
    fn on_deliver(&mut self, env: &GraphEnvelope<i64>, _out: &mut legacy::Emitter<i64>) {
        self.value += env.payload;
    }
    fn classify(&self, op: &i64) -> OpClass {
        if (1..=9).contains(op) {
            OpClass::Commutative
        } else {
            OpClass::NonCommutative
        }
    }
}

fn after_for(chain: bool, prev: Option<MsgId>) -> OccursAfter {
    if chain {
        prev.map_or(OccursAfter::none(), OccursAfter::message)
    } else {
        OccursAfter::none()
    }
}

fn run_legacy_causal(s: &Schedule, gc: bool) -> Outcome {
    let nodes: Vec<legacy::CausalNode<LSum>> = (0..s.n)
        .map(|i| {
            let node = legacy::CausalNode::new(p(i), s.n, LSum::default());
            if gc {
                node.with_gc(s.n, 4)
            } else {
                node
            }
        })
        .collect();
    let mut sim = Simulation::new(nodes, s.net(), s.seed);
    let mut prev: Option<MsgId> = None;
    for &(sender, payload, chain, gap) in &s.ops {
        let after = after_for(chain, prev);
        prev = Some(sim.poke(p(sender), move |node, ctx| node.osend(ctx, payload, after)));
        if gap > 0 {
            let deadline = sim.now() + SimDuration::from_micros(gap);
            sim.run_until(deadline);
        }
    }
    sim.run_to_quiescence();
    Outcome {
        logs: (0..s.n).map(|i| sim.node(p(i)).log().to_vec()).collect(),
        values: (0..s.n).map(|i| sim.node(p(i)).app().value).collect(),
        stable_points: (0..s.n)
            .map(|i| {
                sim.node(p(i))
                    .stable_points()
                    .iter()
                    .map(|sp| sp.msg)
                    .collect()
            })
            .collect(),
        delivered: (0..s.n).map(|i| sim.node(p(i)).stats().delivered).collect(),
        pending: (0..s.n).map(|i| sim.node(p(i)).pending_len()).collect(),
    }
}

fn run_stack_causal(s: &Schedule, gc: bool) -> Outcome {
    let nodes: Vec<stack::CausalNode<Sum>> = (0..s.n)
        .map(|i| {
            let node = stack::CausalNode::new(p(i), s.n, Sum::default());
            if gc {
                node.with_gc(s.n, 4)
            } else {
                node
            }
        })
        .collect();
    let mut sim = Simulation::new(nodes, s.net(), s.seed);
    let mut prev: Option<MsgId> = None;
    for &(sender, payload, chain, gap) in &s.ops {
        let after = after_for(chain, prev);
        prev = sim.poke(p(sender), move |node, ctx| node.osend(ctx, payload, after));
        if gap > 0 {
            let deadline = sim.now() + SimDuration::from_micros(gap);
            sim.run_until(deadline);
        }
    }
    sim.run_to_quiescence();
    Outcome {
        logs: (0..s.n).map(|i| sim.node(p(i)).log().to_vec()).collect(),
        values: (0..s.n).map(|i| sim.node(p(i)).app().value).collect(),
        stable_points: (0..s.n)
            .map(|i| {
                sim.node(p(i))
                    .stable_points()
                    .iter()
                    .map(|sp| sp.msg)
                    .collect()
            })
            .collect(),
        delivered: (0..s.n)
            .map(|i| sim.node(p(i)).log().len() as u64)
            .collect(),
        pending: (0..s.n).map(|i| sim.node(p(i)).pending_len()).collect(),
    }
}

/// CBCAST apps: unified…
#[derive(Debug, Default)]
struct VtSum {
    value: i64,
}
impl App for VtSum {
    type Op = i64;
    fn on_deliver(&mut self, env: Delivered<'_, i64>, _out: &mut stack::Emitter<i64>) {
        self.value += *env.payload;
    }
}

/// …and legacy.
#[derive(Debug, Default)]
struct LVtSum {
    value: i64,
}
impl legacy::BcastApp for LVtSum {
    type Op = i64;
    fn on_deliver(
        &mut self,
        env: &crate::delivery::VtEnvelope<i64>,
        _out: &mut legacy::BcastEmitter<i64>,
    ) {
        self.value += env.payload;
    }
}

fn run_legacy_cbcast(s: &Schedule) -> Outcome {
    let nodes: Vec<legacy::CbcastNode<LVtSum>> = (0..s.n)
        .map(|i| legacy::CbcastNode::new(p(i), s.n, LVtSum::default()))
        .collect();
    let mut sim = Simulation::new(nodes, s.net(), s.seed);
    for &(sender, payload, _chain, gap) in &s.ops {
        sim.poke(p(sender), move |node, ctx| {
            node.broadcast(ctx, payload);
        });
        if gap > 0 {
            let deadline = sim.now() + SimDuration::from_micros(gap);
            sim.run_until(deadline);
        }
    }
    sim.run_to_quiescence();
    Outcome {
        logs: (0..s.n).map(|i| sim.node(p(i)).log().to_vec()).collect(),
        values: (0..s.n).map(|i| sim.node(p(i)).app().value).collect(),
        stable_points: vec![Vec::new(); s.n],
        delivered: (0..s.n).map(|i| sim.node(p(i)).stats().delivered).collect(),
        pending: (0..s.n).map(|i| sim.node(p(i)).pending_len()).collect(),
    }
}

fn run_stack_cbcast(s: &Schedule) -> Outcome {
    let nodes: Vec<stack::CbcastNode<VtSum>> = (0..s.n)
        .map(|i| stack::CbcastNode::new(p(i), s.n, VtSum::default()))
        .collect();
    let mut sim = Simulation::new(nodes, s.net(), s.seed);
    for &(sender, payload, _chain, gap) in &s.ops {
        sim.poke(p(sender), move |node, ctx| {
            node.broadcast(ctx, payload);
        });
        if gap > 0 {
            let deadline = sim.now() + SimDuration::from_micros(gap);
            sim.run_until(deadline);
        }
    }
    sim.run_to_quiescence();
    Outcome {
        logs: (0..s.n).map(|i| sim.node(p(i)).log().to_vec()).collect(),
        values: (0..s.n).map(|i| sim.node(p(i)).app().value).collect(),
        stable_points: (0..s.n)
            .map(|i| {
                sim.node(p(i))
                    .stable_points()
                    .iter()
                    .map(|sp| sp.msg)
                    .collect()
            })
            .collect(),
        delivered: (0..s.n)
            .map(|i| sim.node(p(i)).log().len() as u64)
            .collect(),
        pending: (0..s.n).map(|i| sim.node(p(i)).pending_len()).collect(),
    }
}

/// Vsync outcome: per-survivor view membership, values, logs.
#[derive(Debug, PartialEq)]
struct VsyncOutcome {
    views: Vec<Vec<ProcessId>>,
    values: Vec<i64>,
    logs: Vec<Vec<MsgId>>,
    installed: Vec<usize>,
}

fn run_legacy_vsync(s: &Schedule, crash_after: usize) -> VsyncOutcome {
    let nodes: Vec<legacy_vsync::VsyncNode<LSum>> = (0..s.n)
        .map(|i| {
            legacy_vsync::VsyncNode::new(
                p(i),
                s.n,
                LSum::default(),
                legacy_vsync::VsyncConfig::default(),
            )
        })
        .collect();
    let mut sim = Simulation::new(nodes, s.net(), s.seed);
    let survivors = s.n - 1;
    for (k, &(sender, payload, chain, gap)) in s.ops.iter().enumerate() {
        if k == crash_after {
            sim.node_mut(p(survivors)).crash();
        }
        // After the crash point, route every op to a survivor.
        let sender = if k >= crash_after {
            sender % survivors
        } else {
            sender
        };
        let after = after_for(chain, None);
        sim.poke(p(sender), move |node, ctx| {
            node.osend(ctx, payload, after);
        });
        let deadline = sim.now() + SimDuration::from_micros(400 + gap);
        sim.run_until(deadline);
    }
    sim.run_until(SimTime::from_millis(150));
    VsyncOutcome {
        views: (0..survivors)
            .map(|i| sim.node(p(i)).view().members().to_vec())
            .collect(),
        values: (0..survivors).map(|i| sim.node(p(i)).app().value).collect(),
        logs: (0..survivors)
            .map(|i| sim.node(p(i)).log().to_vec())
            .collect(),
        installed: (0..survivors)
            .map(|i| sim.node(p(i)).installed_views().len())
            .collect(),
    }
}

fn run_stack_vsync(s: &Schedule, crash_after: usize) -> VsyncOutcome {
    let nodes: Vec<stack::CausalNode<Sum>> = (0..s.n)
        .map(|i| {
            stack::CausalNode::with_membership(
                p(i),
                s.n,
                Sum::default(),
                stack::VsyncConfig::default(),
            )
        })
        .collect();
    let mut sim = Simulation::new(nodes, s.net(), s.seed);
    let survivors = s.n - 1;
    for (k, &(sender, payload, chain, gap)) in s.ops.iter().enumerate() {
        if k == crash_after {
            sim.node_mut(p(survivors)).crash();
        }
        let sender = if k >= crash_after {
            sender % survivors
        } else {
            sender
        };
        let after = after_for(chain, None);
        sim.poke(p(sender), move |node, ctx| {
            node.osend(ctx, payload, after);
        });
        let deadline = sim.now() + SimDuration::from_micros(400 + gap);
        sim.run_until(deadline);
    }
    sim.run_until(SimTime::from_millis(150));
    VsyncOutcome {
        views: (0..survivors)
            .map(|i| sim.node(p(i)).view().members().to_vec())
            .collect(),
        values: (0..survivors).map(|i| sim.node(p(i)).app().value).collect(),
        logs: (0..survivors)
            .map(|i| sim.node(p(i)).log().to_vec())
            .collect(),
        installed: (0..survivors)
            .map(|i| sim.node(p(i)).installed_views().len())
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The unified stack over `GraphDelivery` reproduces the legacy
    /// `CausalNode` exactly: same logs, values, stable points, counters.
    #[test]
    fn stack_matches_legacy_causal_node(s in arb_schedule(24, 40)) {
        let legacy = run_legacy_causal(&s, false);
        let unified = run_stack_causal(&s, false);
        prop_assert_eq!(legacy, unified, "schedule {:?}", s);
    }

    /// Same equivalence with stability gossip + GC enabled on both sides.
    #[test]
    fn stack_matches_legacy_causal_node_with_gc(s in arb_schedule(24, 30)) {
        let legacy = run_legacy_causal(&s, true);
        let unified = run_stack_causal(&s, true);
        prop_assert_eq!(legacy, unified, "schedule {:?}", s);
    }

    /// The unified stack over `CbcastEngine` reproduces the legacy
    /// `CbcastNode` (and never closes a stable point).
    #[test]
    fn stack_matches_legacy_cbcast_node(s in arb_schedule(24, 40)) {
        let legacy = run_legacy_cbcast(&s);
        let unified = run_stack_cbcast(&s);
        prop_assert_eq!(legacy, unified, "schedule {:?}", s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The unified stack with membership enabled reproduces the legacy
    /// `VsyncNode` through a mid-schedule member crash and the resulting
    /// view change.
    #[test]
    fn stack_matches_legacy_vsync_node_through_crash(
        s in arb_schedule(12, 15).prop_flat_map(|s| {
            let n_ops = s.ops.len();
            (Just(s), 0..n_ops)
        }),
    ) {
        let (s, crash_after) = s;
        // Vsync needs at least 3 members so a majority survives.
        let mut s = s;
        if s.n < 3 {
            s.n = 3;
            for op in &mut s.ops {
                op.0 %= 3;
            }
        }
        let legacy = run_legacy_vsync(&s, crash_after);
        let unified = run_stack_vsync(&s, crash_after);
        prop_assert_eq!(legacy, unified, "schedule {:?}", s);
    }
}
