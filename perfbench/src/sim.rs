//! Open-loop runs on the discrete-event simulator (`causal-simnet`).

use crate::app::{BenchApp, Clock};
use crate::check::{check_run, Outcome};
use crate::member::{Member, Stack};
use crate::ops::{BenchOp, Planned};
use crate::sys::process_cpu_s;
use causal_clocks::ProcessId;
use causal_core::delivery::DeliveryEngine;
use causal_core::osend::OccursAfter;
use causal_core::stack::{ProtocolStack, VsyncConfig};
use causal_core::statemachine::OpClass;
use causal_replica::frontend::FrontEndManager;
use causal_simnet::{FaultPlan, LatencyModel, NetConfig, SimDuration, SimTime, Simulation};
use std::time::Instant;

/// Shape of a simnet workload.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub n: usize,
    /// Uniform one-way latency bounds, µs.
    pub latency_us: (u64, u64),
    pub drop: f64,
    /// Simulated time between successive submits, µs.
    pub interval_us: u64,
    /// Mean commutative ops per §6.1 cycle; 0 = all commutative, no
    /// `Occurs-After` ordering.
    pub f_bar: u64,
    pub membership: bool,
    /// Stability gossip period, in deliveries.
    pub report_every: u64,
    /// Simulated time allowed after the last submit for delivery.
    pub drain_us: u64,
}

/// What one simnet run measured.
pub struct SimRun<D: DeliveryEngine<Op = BenchOp>> {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub ops: u64,
    pub events: u64,
    pub peak_in_flight: usize,
    pub outcome: Outcome,
    pub members: Vec<Member<D>>,
}

/// Builds the group: every member hosts a [`BenchApp`] on a GC-enabled
/// stack, with view-synchronous membership when the spec asks for it.
pub fn build<D: DeliveryEngine<Op = BenchOp>>(
    spec: &SimSpec,
    traced: bool,
    oracle: bool,
) -> Vec<Member<D>> {
    (0..spec.n)
        .map(|i| {
            let me = ProcessId::new(i as u32);
            let app = BenchApp::new(me, spec.n, Clock::Sim(0));
            let stack: Stack<D> = if spec.membership {
                ProtocolStack::with_membership(me, spec.n, app, VsyncConfig::default())
            } else {
                ProtocolStack::new(me, spec.n, app)
            };
            let stack = stack.with_gc(spec.n, spec.report_every);
            let stack = if oracle { stack.with_tracing() } else { stack };
            Member::new(stack, traced)
        })
        .collect()
}

fn network(spec: &SimSpec) -> NetConfig {
    let (lo, hi) = spec.latency_us;
    NetConfig::with_latency(LatencyModel::uniform_micros(lo, hi))
        .faults(FaultPlan::new().with_drop_prob(spec.drop))
}

/// Builds the group and the simulator only: the set-up a run pays before
/// its first submit.
pub fn setup_only<D: DeliveryEngine<Op = BenchOp>>(spec: &SimSpec, seed: u64) -> f64 {
    let t0 = Instant::now();
    let sim = Simulation::new(build::<D>(spec, false, false), network(spec), seed);
    let s = t0.elapsed().as_secs_f64();
    drop(std::hint::black_box(sim));
    s
}

/// Runs `plan` open-loop: op `k` is submitted at `k * interval` simulated
/// µs, ordered by a §6.1 front-end manager when `f_bar > 0`; then runs
/// until every member delivered every op, or the drain deadline passes.
pub fn run<D: DeliveryEngine<Op = BenchOp>>(
    spec: &SimSpec,
    seed: u64,
    plan: &[Planned],
    traced: bool,
    oracle: bool,
) -> SimRun<D> {
    let mut sim = Simulation::new(build::<D>(spec, traced, oracle), network(spec), seed);
    let cpu0 = process_cpu_s();
    let w0 = Instant::now();
    let events0 = sim.events_processed();
    let mut fe = FrontEndManager::new();
    let mut sent = vec![0u64; spec.n];
    let mut refused = 0u64;
    let mut peak_in_flight = 0;
    let mut at = SimTime::ZERO;
    for p in plan {
        sim.run_until(at);
        let class = if p.nc {
            OpClass::NonCommutative
        } else {
            OpClass::Commutative
        };
        let after = if spec.f_bar > 0 {
            fe.ordering_for(class)
        } else {
            OccursAfter::none()
        };
        let op = BenchOp {
            value: p.value,
            sent: at.as_micros(),
            nc: p.nc,
        };
        let submitter = ProcessId::new(p.submitter as u32);
        match sim.poke(submitter, |m, ctx| m.submit(ctx, op, after)) {
            Some(id) => {
                fe.record(id, class);
                sent[p.submitter] += 1;
            }
            None => refused += 1,
        }
        peak_in_flight = peak_in_flight.max(sim.in_flight());
        at += SimDuration::from_micros(spec.interval_us);
    }
    let expected: u64 = sent.iter().sum();
    let deadline = at + SimDuration::from_micros(spec.drain_us);
    let step = SimDuration::from_micros(500);
    while sim.now() < deadline && sim.nodes().iter().any(|m| m.app().state.count < expected) {
        let next = sim.now() + step;
        sim.run_until(next);
    }
    let wall_s = w0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let events = sim.events_processed() - events0;

    let members = sim.into_nodes();
    let apps: Vec<&BenchApp> = members.iter().map(Member::app).collect();
    let outcome = check_run(&apps, &sent, refused, spec.f_bar > 0);
    SimRun {
        wall_s,
        cpu_s,
        ops: plan.len() as u64,
        events,
        peak_in_flight,
        outcome,
        members,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{layer_metrics, Shape};
    use crate::ops::open_loop_plan;
    use causal_core::delivery::{GraphDelivery, PcEngine};

    const SMALL_MIX: SimSpec = SimSpec {
        n: 4,
        latency_us: (200, 800),
        drop: 0.05,
        interval_us: 50,
        f_bar: 20,
        membership: true,
        report_every: 16,
        drain_us: 200_000,
    };

    const SMALL_PC: SimSpec = SimSpec {
        n: 12,
        latency_us: (50, 500),
        drop: 0.05,
        interval_us: 20,
        f_bar: 0,
        membership: false,
        report_every: 16,
        drain_us: 200_000,
    };

    fn same_seed_same_run<D: DeliveryEngine<Op = BenchOp>>(spec: &SimSpec) {
        let plan = open_loop_plan(5, spec.n, 600, spec.f_bar);
        let a = run::<D>(spec, 5, &plan, false, false);
        let b = run::<D>(spec, 5, &plan, false, false);
        assert_eq!(a.outcome.failed, 0, "{:?}", a.outcome.problems);
        assert_eq!(a.events, b.events);
        assert_eq!(a.peak_in_flight, b.peak_in_flight);
        for (x, y) in a.members.iter().zip(&b.members) {
            assert_eq!(x.stack.log(), y.stack.log());
            assert_eq!(x.app().state, y.app().state);
            assert_eq!(x.app().latency, y.app().latency);
            assert_eq!(x.app().snapshots, y.app().snapshots);
        }
        let c = run::<D>(spec, 6, &plan, false, false);
        assert_ne!(a.events, c.events, "another seed simulates another network");
    }

    #[test]
    fn graph_runs_repeat_exactly_for_a_seed() {
        same_seed_same_run::<GraphDelivery<BenchOp>>(&SMALL_MIX);
    }

    #[test]
    fn pc_runs_repeat_exactly_for_a_seed() {
        same_seed_same_run::<PcEngine<BenchOp>>(&SMALL_PC);
    }

    fn replay_reproduces_live_order<D>(spec: &SimSpec)
    where
        D: DeliveryEngine<Op = BenchOp>,
        crate::member::Wire<D>: causal_core::wire::WireEncode + PartialEq,
    {
        let plan = open_loop_plan(9, spec.n, 400, spec.f_bar);
        let traced = run::<D>(spec, 9, &plan, true, false);
        assert_eq!(traced.outcome.failed, 0);
        let shape = Shape {
            n: spec.n,
            full_mesh: !D::ROUTED || spec.membership,
            report_every: spec.report_every,
        };
        let layers = layer_metrics(&traced.members, traced.ops, shape, 0.0);
        assert!(layers.problems.is_empty(), "{:?}", layers.problems);
        // The probe saw the same execution as an untraced run.
        let plain = run::<D>(spec, 9, &plan, false, false);
        for (x, y) in traced.members.iter().zip(&plain.members) {
            assert_eq!(x.stack.log(), y.stack.log());
        }
    }

    #[test]
    fn graph_replay_reproduces_live_order() {
        replay_reproduces_live_order::<GraphDelivery<BenchOp>>(&SMALL_MIX);
    }

    #[test]
    fn pc_replay_reproduces_live_order() {
        replay_reproduces_live_order::<PcEngine<BenchOp>>(&SMALL_PC);
    }
}
