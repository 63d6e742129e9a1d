//! Conferencing: collaborative annotation of a design document (the
//! paper's §1 motivating service).
//!
//! Five workstation agents share a document. Each revision is one causal
//! activity: an ordered edit, a burst of concurrent annotations from
//! different participants, and a commit that closes the revision. Every
//! agent sees the identical document at every commit, even though the
//! annotations arrived in different orders — and even with 20 % of
//! transmissions lost.
//!
//! ```sh
//! cargo run --example conferencing
//! ```

use causal_broadcast::clocks::{MsgId, ProcessId};
use causal_broadcast::core::osend::OccursAfter;
use causal_broadcast::core::stack::CausalNode;
use causal_broadcast::replica::document::{DocOp, DocumentReplica};
use causal_broadcast::simnet::{FaultPlan, LatencyModel, NetConfig, Simulation};

fn main() {
    let p = ProcessId::new;
    let agents = 5usize;

    let nodes: Vec<CausalNode<DocumentReplica>> = (0..agents)
        .map(|i| CausalNode::new(p(i as u32), agents, DocumentReplica::new()))
        .collect();
    let net = NetConfig::with_latency(LatencyModel::uniform_micros(300, 2500))
        .faults(FaultPlan::new().with_drop_prob(0.2));
    let mut sim = Simulation::new(nodes, net, 99);

    let mut prev_commit: Option<MsgId> = None;
    for revision in 0..3u64 {
        // One agent rewrites the section under discussion.
        let editor = p((revision % agents as u64) as u32);
        let after = prev_commit.map_or(OccursAfter::none(), OccursAfter::message);
        let text = format!("design v{revision}: use causal broadcast");
        let edit = sim
            .poke(editor, move |node, ctx| {
                node.osend(ctx, DocOp::EditLine { line: 1, text }, after)
            })
            .unwrap();
        sim.run_to_quiescence();

        // Everyone else annotates the new text concurrently.
        let mut notes = Vec::new();
        for a in 0..agents {
            let annotator = p(a as u32);
            if annotator == editor {
                continue;
            }
            let note = format!("p{a}: comment on v{revision}");
            notes.push(
                sim.poke(annotator, move |node, ctx| {
                    node.osend(
                        ctx,
                        DocOp::Annotate { line: 1, note },
                        OccursAfter::message(edit),
                    )
                })
                .unwrap(),
            );
        }
        sim.run_to_quiescence();

        // Commit the revision: ordered after every annotation.
        prev_commit = sim.poke(editor, move |node, ctx| {
            node.osend(ctx, DocOp::Commit, OccursAfter::all(notes.clone()))
        });
        sim.run_to_quiescence();
    }

    println!("3 revisions, {agents} agents, 20% message loss\n");
    let reference = sim.node(p(0)).app().revisions().to_vec();
    for i in 0..agents {
        let node = sim.node(p(i as u32));
        assert_eq!(node.app().revisions(), &reference[..], "agent {i} diverged");
        println!(
            "agent p{i}: {} ops applied, {} snapshots, in agreement",
            node.app().ops_applied(),
            node.app().revisions().len()
        );
    }
    let last = reference.last().unwrap();
    println!(
        "\nfinal committed text: {:?}\nannotations on line 1: {}",
        last.lines[&1],
        last.annotations[&1].len()
    );
    println!(
        "dropped transmissions recovered by the reliability layer: {}",
        sim.metrics().dropped
    );
}
