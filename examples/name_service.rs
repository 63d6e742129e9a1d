//! Name service: spontaneous registrations and resolutions with
//! application-level consistency checks (the paper's §5.2).
//!
//! Servers register names and clients resolve them with **no ordering
//! protocol at all** — operations broadcast spontaneously. Consistency is
//! handled where the paper says it must be when causality information is
//! not tracked: *at the application level*. A query carries the version
//! its issuer saw; a member whose copy diverges discards the query rather
//! than answer wrongly.
//!
//! ```sh
//! cargo run --example name_service
//! ```

use causal_broadcast::clocks::{MsgId, ProcessId};
use causal_broadcast::core::osend::OccursAfter;
use causal_broadcast::core::stack::CausalNode;
use causal_broadcast::replica::registry::{QryContext, QryOutcome, RegistryOp, RegistryReplica};
use causal_broadcast::simnet::{LatencyModel, NetConfig, SimDuration, Simulation};

fn main() {
    let p = ProcessId::new;
    let members = 4usize;

    let nodes: Vec<CausalNode<RegistryReplica>> = (0..members)
        .map(|i| CausalNode::new(p(i as u32), members, RegistryReplica::new()))
        .collect();
    let net = NetConfig::with_latency(LatencyModel::uniform_micros(500, 4000));
    let mut sim = Simulation::new(nodes, net, 3);

    // p0 registers the printer twice in quick succession (chaining its own
    // registrations), while p2 resolves in between — spontaneously.
    let mut last: Option<MsgId> = None;
    for (when_us, value) in [(0u64, "host-a"), (3_000, "host-b")] {
        sim.run_until(causal_broadcast::simnet::SimTime::from_micros(when_us));
        let after = last.map_or(OccursAfter::none(), OccursAfter::message);
        let op = RegistryOp::Upd {
            key: "printer".into(),
            value: value.into(),
        };
        last = sim.poke(p(0), move |node, ctx| node.osend(ctx, op, after));
    }

    // p2 resolves "printer" right away, carrying whatever version it has
    // seen locally (quite possibly none yet).
    let deadline = sim.now() + SimDuration::from_micros(500);
    sim.run_until(deadline);
    let version = sim.node(p(2)).app().version_of("printer");
    let op = RegistryOp::Qry {
        key: "printer".into(),
        context: QryContext {
            version_seen: version,
        },
    };
    println!("p2 queries \"printer\" having seen version {version}");
    sim.poke(p(2), move |node, ctx| {
        node.osend(ctx, op, OccursAfter::none())
    });
    sim.run_to_quiescence();

    println!("\nper-member outcomes of p2's query:");
    let mut answered = 0;
    let mut discarded = 0;
    for i in 0..members {
        let node = sim.node(p(i as u32));
        for (_, outcome) in node.app().outcomes() {
            match outcome {
                QryOutcome::Answered(v) => {
                    answered += 1;
                    println!("  p{i}: answered {v:?} (its version matched the issuer's)");
                }
                QryOutcome::Discarded {
                    member_version,
                    issuer_version,
                } => {
                    discarded += 1;
                    println!(
                        "  p{i}: DISCARDED — member at version {member_version}, \
                         issuer asked about version {issuer_version}"
                    );
                }
            }
        }
    }
    println!(
        "\n{answered} member(s) answered, {discarded} discarded instead of \
         returning a value the issuer did not ask about."
    );
    println!(
        "eventually all members converge: printer -> {:?} at version {} everywhere",
        sim.node(p(1)).app().resolve("printer"),
        sim.node(p(1)).app().version_of("printer"),
    );
    for i in 0..members {
        assert_eq!(
            sim.node(p(i as u32)).app().resolve("printer"),
            Some("host-b")
        );
    }
}
