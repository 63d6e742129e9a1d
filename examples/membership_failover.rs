//! Virtually synchronous failover: a member crashes mid-computation and
//! the group heals itself.
//!
//! Four replicas share a counter. Member p3 crashes while updates are in
//! flight; the coordinator's failure detector notices the silence,
//! proposes the shrunken view, survivors flush (re-broadcasting anything
//! only some of them saw from p3), and the computation continues in the
//! new view — with all survivors in agreement.
//!
//! ```sh
//! cargo run --example membership_failover
//! ```

use causal_broadcast::clocks::ProcessId;
use causal_broadcast::core::delivery::Delivered;
use causal_broadcast::core::osend::OccursAfter;
use causal_broadcast::core::stack::{App, CausalNode, Emitter, VsyncConfig};
use causal_broadcast::core::statemachine::OpClass;
use causal_broadcast::simnet::{LatencyModel, NetConfig, SimDuration, SimTime, Simulation};

#[derive(Debug, Default)]
struct Sum {
    value: i64,
}

impl App for Sum {
    type Op = i64;
    fn on_deliver(&mut self, env: Delivered<'_, i64>, _out: &mut Emitter<i64>) {
        self.value += env.payload;
    }
    fn classify(&self, _op: &i64) -> OpClass {
        OpClass::Commutative
    }
}

fn main() {
    let p = ProcessId::new;
    let n = 4usize;
    let nodes: Vec<CausalNode<Sum>> = (0..n)
        .map(|i| {
            CausalNode::with_membership(p(i as u32), n, Sum::default(), VsyncConfig::default())
        })
        .collect();
    let net = NetConfig::with_latency(LatencyModel::uniform_micros(200, 1200));
    let mut sim = Simulation::new(nodes, net, 19);

    println!("phase 1: all four members update the counter");
    for k in 0..8u32 {
        sim.poke(p(k % 4), |node, ctx| {
            node.osend(ctx, 1, OccursAfter::none());
        });
        let deadline = sim.now() + SimDuration::from_millis(1);
        sim.run_until(deadline);
    }

    println!("phase 2: p3 crashes at t = {}", sim.now());
    sim.node_mut(p(3)).crash();
    sim.run_until(SimTime::from_millis(40));

    for i in 0..3 {
        let node = sim.node(p(i));
        println!(
            "  member p{i}: view {}, value {}",
            node.view(),
            node.app().value
        );
        assert_eq!(node.view().len(), 3);
    }

    println!("phase 3: survivors keep computing in the new view");
    for k in 0..6u32 {
        sim.poke(p(k % 3), |node, ctx| {
            node.osend(ctx, 1, OccursAfter::none());
        });
        let deadline = sim.now() + SimDuration::from_millis(1);
        sim.run_until(deadline);
    }
    sim.run_until(SimTime::from_millis(80));

    let values: Vec<i64> = (0..3).map(|i| sim.node(p(i)).app().value).collect();
    println!("\nfinal survivor values: {values:?}");
    assert!(values.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(values[0], 14);
    println!(
        "virtual synchrony held: the crash cost no delivered updates, the \
         view shrank to {{p0,p1,p2}}, and every survivor agrees."
    );
}
