//! The same protocol stack on real OS threads.
//!
//! The protocol crates are sans-IO: the identical [`CausalNode`] that the
//! deterministic simulator drives also runs over in-process channels on
//! one thread per member. Here three threads run counter replicas, one
//! member broadcasts a cycle of operations, and all replicas converge —
//! under real, non-deterministic interleavings.
//!
//! ```sh
//! cargo run --example threaded_counter
//! ```

use causal_broadcast::clocks::ProcessId;
use causal_broadcast::core::delivery::Delivered;
use causal_broadcast::core::osend::OccursAfter;
use causal_broadcast::core::stack::{App, CausalNode, Emitter};
use causal_broadcast::core::statemachine::OpClass;
use causal_broadcast::replica::counter::{CounterOp, CounterReplica};
use causal_broadcast::simnet::threaded::run_threaded;
use std::time::Duration;

/// Wraps the counter replica so member p0 drives the whole §6.1 cycle
/// reactively from its callbacks (the threaded runtime has no external
/// `poke`; everything must flow through the actor interface).
struct DrivingReplica {
    inner: CounterReplica,
    drive: bool,
    step: u32,
}

impl App for DrivingReplica {
    type Op = CounterOp;

    fn on_start(&mut self, me: ProcessId, out: &mut Emitter<CounterOp>) {
        if me == ProcessId::new(0) {
            self.drive = true;
            out.osend(CounterOp::Set(100), OccursAfter::none());
        }
    }

    fn on_deliver(&mut self, env: Delivered<'_, CounterOp>, out: &mut Emitter<CounterOp>) {
        let mut unused = Emitter::new();
        self.inner.on_deliver(env, &mut unused);
        if self.drive {
            // p0 reacts to its own deliveries to walk the cycle:
            // Set -> Inc -> Dec -> Read.
            self.step += 1;
            let next = match self.step {
                1 => Some(CounterOp::Inc(7)),
                2 => Some(CounterOp::Dec(3)),
                3 => Some(CounterOp::Read),
                _ => None,
            };
            if let Some(op) = next {
                out.osend(op, OccursAfter::message(env.id));
            }
        }
    }

    fn classify(&self, op: &CounterOp) -> OpClass {
        op.class()
    }
}

fn main() {
    let n = 3usize;
    let nodes: Vec<CausalNode<DrivingReplica>> = (0..n)
        .map(|i| {
            CausalNode::new(
                ProcessId::new(i as u32),
                n,
                DrivingReplica {
                    inner: CounterReplica::new(),
                    drive: false,
                    step: 0,
                },
            )
        })
        .collect();

    println!("running 3 counter replicas on real threads for 300ms...");
    let done = run_threaded(nodes, Duration::from_millis(300), 1);

    for (i, node) in done.iter().enumerate() {
        let app = &node.app().inner;
        println!(
            "thread replica p{i}: value {}, read answered {:?}, {} ops",
            app.value(),
            app.read_answers().first().map(|(_, v)| *v),
            app.applied()
        );
        assert_eq!(app.value(), 104);
        assert_eq!(app.read_answers().first().map(|(_, v)| *v), Some(104));
    }
    println!(
        "\nall replicas converged to 104 over in-process channels — the \
              same state machines the simulator drives, no code changed."
    );
}
