//! The same protocol stack over real TCP sockets.
//!
//! The protocol crates are sans-IO: the identical [`CausalNode`] that the
//! deterministic simulator and the threaded runtime drive also runs over
//! `causal-net`'s TCP transport. Here a [`LoopbackCluster`] boots three
//! counter replicas on ephemeral localhost ports, member p0 drives the
//! §6.1 cycle Set(100) → Inc(7) → Dec(3) → Read, and all replicas answer
//! the read identically — over real sockets, framing, and reconnecting
//! links.
//!
//! ```sh
//! cargo run --example tcp_counter
//! ```

use causal_broadcast::clocks::ProcessId;
use causal_broadcast::core::delivery::Delivered;
use causal_broadcast::core::osend::OccursAfter;
use causal_broadcast::core::stack::{App, CausalNode, Emitter};
use causal_broadcast::core::statemachine::OpClass;
use causal_broadcast::net::{LoopbackCluster, TcpConfig};
use causal_broadcast::replica::counter::{CounterOp, CounterReplica};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wraps the counter replica so member p0 drives the whole cycle
/// reactively from its callbacks, and publishes an applied-operations
/// counter the main thread can poll for convergence (the actors live on
/// the transport's driver threads).
struct DrivingReplica {
    inner: CounterReplica,
    drive: bool,
    step: u32,
    applied: Arc<AtomicU64>,
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
        self.applied.fetch_add(1, Ordering::SeqCst);
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
    let applied: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let nodes: Vec<CausalNode<DrivingReplica>> = (0..n)
        .map(|i| {
            CausalNode::new(
                ProcessId::new(i as u32),
                n,
                DrivingReplica {
                    inner: CounterReplica::new(),
                    drive: false,
                    step: 0,
                    applied: Arc::clone(&applied[i]),
                },
            )
        })
        .collect();

    println!("booting 3 counter replicas on ephemeral localhost TCP ports...");
    let cluster = LoopbackCluster::spawn(nodes, 7, TcpConfig::default()).unwrap();
    for (i, addr) in cluster.addrs().iter().enumerate() {
        println!("  p{i} listening on {addr}");
    }

    // Wait until every replica has applied all 4 operations of the cycle.
    let deadline = Instant::now() + Duration::from_secs(10);
    while applied.iter().any(|a| a.load(Ordering::SeqCst) < 4) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    for (i, (node, stats)) in cluster.shutdown().into_iter().enumerate() {
        let app = &node.app().inner;
        println!(
            "tcp replica p{i}: value {}, read answered {:?}, {} ops, \
             {} frames sent / {} received",
            app.value(),
            app.read_answers().first().map(|(_, v)| *v),
            app.applied(),
            stats.total_sent(),
            stats.total_recv(),
        );
        assert_eq!(app.value(), 104);
        assert_eq!(app.read_answers().first().map(|(_, v)| *v), Some(104));
    }
    println!(
        "\nall replicas converged to 104 over real TCP — the same state \
         machines the simulator drives, no code changed."
    );
}
