//! End-to-end runs of the application protocols (lock arbitration, card
//! game, document, name service) across seeds, group sizes, and faults.

use causal_broadcast::clocks::ProcessId;
use causal_broadcast::core::osend::OccursAfter;
use causal_broadcast::core::stack::CausalNode;
use causal_broadcast::replica::cardgame::CardPlayer;
use causal_broadcast::replica::document::{DocOp, DocumentReplica};
use causal_broadcast::replica::lock::LockMember;
use causal_broadcast::replica::registry::{QryContext, RegistryOp, RegistryReplica};
use causal_broadcast::simnet::{FaultPlan, LatencyModel, NetConfig, SimDuration, Simulation};
use causal_verify::{check_trace, OracleConfig, Trace};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

#[test]
fn lock_consensus_across_sizes_and_seeds() {
    for n in [2usize, 3, 6] {
        for seed in 0..4 {
            let nodes: Vec<CausalNode<LockMember>> = (0..n)
                .map(|i| {
                    let id = p(i as u32);
                    CausalNode::new(id, n, LockMember::new(id, n, 4))
                })
                .collect();
            let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 4000))
                .faults(FaultPlan::new().with_drop_prob(0.2));
            let mut sim = Simulation::new(nodes, cfg, seed);
            sim.run_to_quiescence();
            let reference = sim.node(p(0)).app().sequences().clone();
            assert_eq!(reference.len(), 4, "n={n} seed={seed}");
            for i in 0..n {
                let app = sim.node(p(i as u32)).app();
                assert_eq!(app.sequences(), &reference, "n={n} seed={seed} member={i}");
                assert!(app.all_cycles_complete());
                assert_eq!(app.acquisitions().len(), 4);
            }
        }
    }
}

#[test]
fn card_game_convergence_over_distances() {
    for d in [1usize, 2, 4] {
        for seed in 0..3 {
            let n = 5;
            let nodes: Vec<CausalNode<CardPlayer>> = (0..n)
                .map(|i| {
                    let id = p(i as u32);
                    CausalNode::new(id, n, CardPlayer::new(id, n, d, 4))
                })
                .collect();
            let cfg = NetConfig::with_latency(LatencyModel::exponential_micros(200, 900));
            let mut sim = Simulation::new(nodes, cfg, seed);
            sim.run_to_quiescence();
            let reference: Vec<_> = sim.node(p(0)).app().table().collect();
            assert_eq!(reference.len(), 4 * n);
            for i in 1..n {
                let table: Vec<_> = sim.node(p(i as u32)).app().table().collect();
                assert_eq!(table, reference, "d={d} seed={seed} player={i}");
            }
        }
    }
}

#[test]
fn document_revisions_agree_under_loss() {
    let n = 4;
    let nodes: Vec<CausalNode<DocumentReplica>> = (0..n)
        .map(|i| CausalNode::new(p(i as u32), n, DocumentReplica::new()).with_tracing())
        .collect();
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(200, 2000))
        .faults(FaultPlan::new().with_drop_prob(0.3));
    let mut sim = Simulation::new(nodes, cfg, 55);

    let mut prev = None;
    for rev in 0..4u64 {
        let editor = p((rev % n as u64) as u32);
        let after = prev.map_or(OccursAfter::none(), OccursAfter::message);
        let op = DocOp::EditLine {
            line: rev,
            text: format!("v{rev}"),
        };
        let edit = sim
            .poke(editor, move |node, ctx| node.osend(ctx, op, after))
            .unwrap();
        sim.run_to_quiescence();
        let mut notes = Vec::new();
        for a in 0..n as u32 {
            let op = DocOp::Annotate {
                line: rev,
                note: format!("n{a}"),
            };
            notes.push(
                sim.poke(p(a), move |node, ctx| {
                    node.osend(ctx, op, OccursAfter::message(edit))
                })
                .unwrap(),
            );
        }
        sim.run_to_quiescence();
        prev = sim.poke(editor, move |node, ctx| {
            node.osend(ctx, DocOp::Commit, OccursAfter::all(notes.clone()))
        });
        sim.run_to_quiescence();
    }

    let reference = sim.node(p(0)).app().revisions().to_vec();
    for i in 1..n {
        assert_eq!(sim.node(p(i as u32)).app().revisions(), &reference[..]);
    }
    // Each revision: the edit itself and the commit are stable points.
    assert_eq!(reference.len(), 8);
    check_trace(&Trace::from_stacks(sim.nodes()), &OracleConfig::default()).unwrap();
}

#[test]
fn registry_no_wrong_answers_under_churn() {
    for seed in 0..5 {
        let n = 5;
        let nodes: Vec<CausalNode<RegistryReplica>> = (0..n)
            .map(|i| CausalNode::new(p(i as u32), n, RegistryReplica::new()))
            .collect();
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(300, 4000));
        let mut sim = Simulation::new(nodes, cfg, seed);

        let mut last_upd = vec![None; n];
        for k in 0..60usize {
            let member = k % n;
            let submitter = p(member as u32);
            if k % 3 == 0 {
                // Registration, chained per writer.
                let op = RegistryOp::Upd {
                    key: format!("svc-{member}"),
                    value: format!("v{k}"),
                };
                let after = last_upd[member].map_or(OccursAfter::none(), OccursAfter::message);
                last_upd[member] = sim.poke(submitter, move |node, ctx| node.osend(ctx, op, after));
            } else {
                // Resolution with local context.
                let target = (k * 7) % n;
                let key = format!("svc-{target}");
                let version = sim.node(submitter).app().version_of(&key);
                let op = RegistryOp::Qry {
                    key,
                    context: QryContext {
                        version_seen: version,
                    },
                };
                sim.poke(submitter, move |node, ctx| {
                    node.osend(ctx, op, OccursAfter::none())
                });
            }
            let deadline = sim.now() + SimDuration::from_micros(500);
            sim.run_until(deadline);
        }
        sim.run_to_quiescence();

        // Safety: for every query, every member that answered returned the
        // same value.
        use causal_broadcast::replica::registry::QryOutcome;
        use std::collections::HashMap;
        let mut by_query: HashMap<_, Vec<_>> = HashMap::new();
        for i in 0..n {
            for (id, outcome) in sim.node(p(i as u32)).app().outcomes() {
                if let QryOutcome::Answered(v) = outcome {
                    by_query.entry(*id).or_default().push(v.clone());
                }
            }
        }
        for (id, answers) in by_query {
            assert!(
                answers.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: query {id} got conflicting answers {answers:?}"
            );
        }
        // Liveness/convergence: all binding tables equal at quiescence.
        let reference = sim.node(p(0)).app().bindings().clone();
        for i in 1..n {
            assert_eq!(sim.node(p(i as u32)).app().bindings(), &reference);
        }
    }
}
