//! **E7 — §5.2**: application-specific protocols for the name service.
//!
//! Updates and queries are generated spontaneously (no group-wide
//! ordering). Inconsistent answers are prevented at the *application*
//! level: a query carries the version its issuer saw and members whose
//! history diverges discard it. Compared against routing everything
//! through a total order, which never discards but pays ordering latency
//! on every operation.
//!
//! The paper: this *"induces more complexity in the access protocol than
//! algorithms based on total ordering, but provides more asynchronism in
//! execution when inconsistencies occur infrequently."*

use causal_bench::table::fmt_ms;
use causal_bench::Table;
use causal_clocks::{MsgId, ProcessId};
use causal_core::osend::OccursAfter;
use causal_core::stack::CausalNode;
use causal_core::statemachine::Operation;
use causal_replica::baseline::SequencedNode;
use causal_replica::registry::{QryContext, QryOutcome, RegistryOp, RegistryReplica};
use causal_simnet::{Histogram, LatencyModel, NetConfig, SimDuration, Simulation};
use std::collections::HashMap;

const SEED: u64 = 77;
const OPS: usize = 200;

fn latency() -> LatencyModel {
    LatencyModel::exponential_micros(200, 600)
}

struct SpontaneousResult {
    answered_frac: f64,
    discard_frac: f64,
    wrong_answers: usize,
    mean_latency_us: f64,
}

/// Spontaneous arm: each member writes its own key (chaining its own
/// updates); queries target random keys with the issuer's local version
/// as context.
fn run_spontaneous(n: usize, query_share: f64, interval: SimDuration) -> SpontaneousResult {
    let nodes: Vec<CausalNode<RegistryReplica>> = (0..n)
        .map(|i| CausalNode::new(ProcessId::new(i as u32), n, RegistryReplica::new()))
        .collect();
    let mut sim = Simulation::new(nodes, NetConfig::with_latency(latency()), SEED + n as u64);
    let mut last_upd: Vec<Option<MsgId>> = vec![None; n];
    let mut upd_counter = vec![0u64; n];

    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);

    for k in 0..OPS {
        let member = k % n;
        let submitter = ProcessId::new(member as u32);
        if rng.gen_bool(query_share) {
            // Query a random member's key with this member's local context.
            let target = rng.gen_range(0..n);
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
        } else {
            upd_counter[member] += 1;
            let op = RegistryOp::Upd {
                key: format!("svc-{member}"),
                value: format!("addr-{}-{}", member, upd_counter[member]),
            };
            // Writers chain their own registrations of their key.
            let after = match last_upd[member] {
                Some(prev) => OccursAfter::message(prev),
                None => OccursAfter::none(),
            };
            let id = sim
                .poke(submitter, move |node, ctx| node.osend(ctx, op, after))
                .unwrap();
            last_upd[member] = Some(id);
        }
        let deadline = sim.now() + interval;
        sim.run_until(deadline);
    }
    sim.run_to_quiescence();

    // Gather per-query outcomes across members; verify the safety claim:
    // no two members ANSWER the same query with different values.
    let mut by_query: HashMap<MsgId, Vec<QryOutcome>> = HashMap::new();
    for i in 0..n {
        for (id, outcome) in sim.node(ProcessId::new(i as u32)).app().outcomes() {
            by_query.entry(*id).or_default().push(outcome.clone());
        }
    }
    let mut answered = 0usize;
    let mut discarded = 0usize;
    let mut wrong = 0usize;
    for outcomes in by_query.values() {
        let answers: Vec<&Option<String>> = outcomes
            .iter()
            .filter_map(|o| match o {
                QryOutcome::Answered(v) => Some(v),
                QryOutcome::Discarded { .. } => None,
            })
            .collect();
        answered += answers.len();
        discarded += outcomes.len() - answers.len();
        if answers.windows(2).any(|w| w[0] != w[1]) {
            wrong += 1;
        }
    }
    let mut lat = Histogram::new();
    for i in 0..n {
        lat.merge(&sim.node(ProcessId::new(i as u32)).stats().delivery_latency);
    }
    let total = answered + discarded;
    SpontaneousResult {
        answered_frac: answered as f64 / total.max(1) as f64,
        discard_frac: discarded as f64 / total.max(1) as f64,
        wrong_answers: wrong,
        mean_latency_us: lat.mean_micros(),
    }
}

/// Total-order arm: the identical op stream through a sequencer; every
/// member applies every op in the same order, so queries never discard.
#[derive(Debug, Clone, Default, PartialEq)]
struct RegState {
    bindings: HashMap<String, (u64, String)>,
}

impl Operation<RegState> for RegistryOp {
    fn apply(&self, state: &mut RegState) {
        if let RegistryOp::Upd { key, value } = self {
            let e = state.bindings.entry(key.clone()).or_default();
            e.0 += 1;
            e.1 = value.clone();
        }
    }
}

fn run_total(n: usize, query_share: f64, interval: SimDuration) -> f64 {
    let nodes: Vec<SequencedNode<RegState, RegistryOp>> = (0..n)
        .map(|i| SequencedNode::new(ProcessId::new(i as u32), RegState::default()))
        .collect();
    let mut sim = Simulation::new(nodes, NetConfig::with_latency(latency()), SEED + n as u64);
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let mut upd_counter = vec![0u64; n];
    for k in 0..OPS {
        let member = k % n;
        let submitter = ProcessId::new(member as u32);
        let op = if rng.gen_bool(query_share) {
            let target = rng.gen_range(0..n);
            RegistryOp::Qry {
                key: format!("svc-{target}"),
                context: QryContext { version_seen: 0 },
            }
        } else {
            upd_counter[member] += 1;
            RegistryOp::Upd {
                key: format!("svc-{member}"),
                value: format!("addr-{}-{}", member, upd_counter[member]),
            }
        };
        sim.poke(submitter, move |node, ctx| node.submit(ctx, op));
        let deadline = sim.now() + interval;
        sim.run_until(deadline);
    }
    sim.run_to_quiescence();
    let states: Vec<RegState> = (0..n)
        .map(|i| sim.node(ProcessId::new(i as u32)).state().clone())
        .collect();
    assert!(
        states.windows(2).all(|w| w[0] == w[1]),
        "total order diverged"
    );
    let mut lat = Histogram::new();
    for i in 0..n {
        lat.merge(&sim.node(ProcessId::new(i as u32)).stats().delivery_latency);
    }
    lat.mean_micros()
}

fn main() {
    println!("E7 / §5.2 — name service: spontaneous ops + context checks vs total order\n");
    println!("{OPS} operations, queries carry per-name version context\n");

    let mut table = Table::new([
        "n",
        "qry share",
        "op gap",
        "answered",
        "discarded",
        "wrong",
        "spont. lat",
        "total-order lat",
    ]);
    for n in [4usize, 8, 16] {
        for (query_share, gap_us) in [(0.9, 1500u64), (0.9, 300), (0.5, 300)] {
            let gap = SimDuration::from_micros(gap_us);
            let s = run_spontaneous(n, query_share, gap);
            let total_lat = run_total(n, query_share, gap);
            assert_eq!(
                s.wrong_answers, 0,
                "context check must catch every stale query"
            );
            table.row([
                n.to_string(),
                format!("{:.0}%", query_share * 100.0),
                fmt_ms(gap_us as f64),
                format!("{:.0}%", s.answered_frac * 100.0),
                format!("{:.0}%", s.discard_frac * 100.0),
                s.wrong_answers.to_string(),
                fmt_ms(s.mean_latency_us),
                fmt_ms(total_lat),
            ]);
            assert!(
                s.mean_latency_us < total_lat,
                "spontaneous ops must be faster than the total order (n={n})"
            );
        }
    }
    table.print();
    println!(
        "\npaper shape reproduced: spontaneous operation is consistently \
         faster than total ordering; inconsistencies appear only under \
         rapid updates, every one is caught by the query's context (wrong \
         answers = 0), and members simply discard — \"more asynchronism \
         when inconsistencies occur infrequently\" (§5.2)."
    );
}
