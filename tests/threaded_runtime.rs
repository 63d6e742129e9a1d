//! The protocol stack on real OS threads: the same `CausalNode` state
//! machines the simulator drives, over in-process channels, under real
//! nondeterministic interleavings.

use causal_broadcast::prelude::*;
use causal_broadcast::replica::counter::{CounterOp, CounterReplica};
use causal_broadcast::simnet::threaded::run_threaded;
use causal_verify::{check_trace, OracleConfig, Trace};
use std::time::Duration;

/// Wrapper app: member p0 walks a §6.1 cycle reactively (the threaded
/// runtime has no external poke).
struct Driver {
    inner: CounterReplica,
    me: Option<ProcessId>,
    step: u32,
    commutative_budget: u32,
}

impl App for Driver {
    type Op = CounterOp;

    fn on_start(&mut self, me: ProcessId, out: &mut Emitter<CounterOp>) {
        self.me = Some(me);
        if me == ProcessId::new(0) {
            out.osend(CounterOp::Set(0), OccursAfter::none());
        }
    }

    fn on_deliver(&mut self, env: Delivered<'_, CounterOp>, out: &mut Emitter<CounterOp>) {
        let mut unused = Emitter::new();
        self.inner.on_deliver(env, &mut unused);
        // Every member contributes commutative increments after the Set;
        // p0 closes with a Read after its budget is spent.
        match env.payload {
            CounterOp::Set(_) => {
                for k in 0..self.commutative_budget {
                    out.osend(CounterOp::Inc(1 + k as i64), OccursAfter::message(env.id));
                }
            }
            CounterOp::Inc(_) if self.me == Some(ProcessId::new(0)) => {
                self.step += 1;
                // 3 members × budget increments; close once all seen.
                if self.step == 3 * self.commutative_budget {
                    // Order the read after the final increment this member
                    // delivered; that suffices to answer after its budget.
                    out.osend(CounterOp::Read, OccursAfter::message(env.id));
                }
            }
            _ => {}
        }
    }

    fn classify(&self, op: &CounterOp) -> OpClass {
        op.class()
    }
}

#[test]
fn threaded_group_converges() {
    let n = 3;
    let budget = 4u32;
    let nodes: Vec<CausalNode<Driver>> = (0..n)
        .map(|i| {
            CausalNode::new(
                ProcessId::new(i as u32),
                n,
                Driver {
                    inner: CounterReplica::new(),
                    me: None,
                    step: 0,
                    commutative_budget: budget,
                },
            )
            .with_tracing()
        })
        .collect();
    let done = run_threaded(nodes, Duration::from_millis(500), 3);

    // Everyone delivered the same operation set: Set + 3×budget incs
    // (+ possibly the read).
    let expected_sum: i64 = (0..budget as i64).map(|k| 1 + k).sum::<i64>() * n as i64;
    for (i, node) in done.iter().enumerate() {
        assert_eq!(node.app().inner.value(), expected_sum, "member {i}");
        assert!(node.app().inner.applied() > (n as u64) * budget as u64);
        assert_eq!(node.pending_len(), 0, "member {i}");
    }

    // Delivery logs respect declared causality at every member. The run
    // stops on a deadline, not at quiescence: the read may be in flight.
    let cfg = OracleConfig {
        expect_quiescent: false,
    };
    let report = check_trace(&Trace::from_stacks(&done), &cfg).unwrap();
    assert_eq!(report.dep_logs, n);
}

#[test]
fn threaded_runtime_is_repeatable_in_outcome() {
    // Interleavings differ run to run, but the converged value must not.
    for _ in 0..3 {
        let nodes: Vec<CausalNode<Driver>> = (0..2)
            .map(|i| {
                CausalNode::new(
                    ProcessId::new(i as u32),
                    2,
                    Driver {
                        inner: CounterReplica::new(),
                        me: None,
                        step: 0,
                        commutative_budget: 2,
                    },
                )
            })
            .collect();
        let done = run_threaded(nodes, Duration::from_millis(300), 1);
        assert_eq!(done[0].app().inner.value(), done[1].app().inner.value());
        assert_eq!(done[0].app().inner.value(), 6); // 2 members × (1+2)
    }
}
