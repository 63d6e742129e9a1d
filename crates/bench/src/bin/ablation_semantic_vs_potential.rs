//! **A1 — footnote 1 / §3.3**: semantic (explicit `OSend` graphs) vs
//! potential (vector-clock CBCAST) causality.
//!
//! The paper (after Cheriton & Skeen, and its reference \[9\]) argues causal order should
//! reflect the *semantic* ordering the application declares, "rather than
//! inferring the causal order from the observed incidental ordering of
//! messages on the physical communication system". CBCAST infers exactly
//! those incidental dependencies: every message a sender happened to have
//! delivered before sending becomes a delivery constraint everywhere.
//!
//! Workload: semantically independent operations (no declared relations)
//! submitted round-robin. Under message loss, a delayed message blocks
//! nothing under `OSend` graphs but blocks *every* incidentally-later
//! message under CBCAST. We measure the false-dependency count and the
//! delivery-latency penalty.

use causal_bench::table::fmt_ms;
use causal_bench::Table;
use causal_clocks::{ProcessId, VectorClock};
use causal_core::delivery::Delivered;
use causal_core::osend::OccursAfter;
use causal_core::stack::{App, CausalNode, CbcastNode, Emitter};
use causal_core::statemachine::OpClass;
use causal_simnet::{FaultPlan, Histogram, LatencyModel, NetConfig, SimDuration, Simulation};
use causal_verify::{check_trace, OracleConfig, Trace};

const OPS: usize = 150;
const SEED: u64 = 3;

fn net(drop: f64) -> NetConfig {
    NetConfig::with_latency(LatencyModel::uniform_micros(200, 1500))
        .faults(FaultPlan::new().with_drop_prob(drop))
}

/// Both arms host the same app: no declared dependencies at all, so its
/// operations commute. The unified [`App`] runs unchanged over the graph
/// and vector-clock engines.
#[derive(Debug, Default)]
struct Independent {
    delivered: u64,
}

impl App for Independent {
    type Op = u64;
    fn on_deliver(&mut self, _env: Delivered<'_, u64>, _out: &mut Emitter<u64>) {
        self.delivered += 1;
    }
    fn classify(&self, _op: &u64) -> OpClass {
        OpClass::Commutative
    }
}

fn run_graph(n: usize, drop: f64) -> (f64, u64, usize) {
    let nodes: Vec<CausalNode<Independent>> = (0..n)
        .map(|i| {
            CausalNode::new(ProcessId::new(i as u32), n, Independent::default()).with_tracing()
        })
        .collect();
    let mut sim = Simulation::new(nodes, net(drop), SEED);
    let mut deadline = sim.now();
    for k in 0..OPS {
        let submitter = ProcessId::new((k % n) as u32);
        sim.poke(submitter, move |node, ctx| {
            node.osend(ctx, k as u64, OccursAfter::none())
        });
        deadline += SimDuration::from_micros(300);
        sim.run_until(deadline);
    }
    sim.run_to_quiescence();
    let mut lat = Histogram::new();
    for i in 0..n {
        lat.merge(&sim.node(ProcessId::new(i as u32)).stats().delivery_latency);
    }
    let trace = Trace::from_stacks(sim.nodes());
    check_trace(&trace, &OracleConfig::default()).expect("graph engine delivers causally");
    // Declared ordered pairs: zero — count them from the graph.
    let g = trace.members()[0].graph().expect("R(M) rebuilds");
    let total_pairs = g.len() * (g.len() - 1) / 2;
    let ordered_pairs = total_pairs - g.concurrent_pairs();
    (
        lat.mean_micros(),
        lat.percentile(0.99).as_micros(),
        ordered_pairs,
    )
}

/// Reconstructs every message's vector timestamp from the senders' own
/// delivery logs: CBCAST self-delivers at broadcast, so the prefix of a
/// sender's log before its own message pins exactly what it had seen when
/// it stamped the clock.
fn reconstruct_vts(logs: &[Vec<causal_clocks::MsgId>], n: usize) -> Vec<VectorClock> {
    let mut vts = Vec::new();
    for (i, log) in logs.iter().enumerate() {
        let me = ProcessId::new(i as u32);
        let mut clock = VectorClock::new(n);
        for &m in log {
            clock.increment(m.origin());
            if m.origin() == me {
                vts.push(clock.clone());
            }
        }
    }
    vts
}

fn run_cbcast(n: usize, drop: f64) -> (f64, u64, usize) {
    let nodes: Vec<CbcastNode<Independent>> = (0..n)
        .map(|i| CbcastNode::new(ProcessId::new(i as u32), n, Independent::default()))
        .collect();
    let mut sim = Simulation::new(nodes, net(drop), SEED);
    let mut deadline = sim.now();
    for k in 0..OPS {
        let submitter = ProcessId::new((k % n) as u32);
        sim.poke(submitter, move |node, ctx| node.broadcast(ctx, k as u64));
        deadline += SimDuration::from_micros(300);
        sim.run_until(deadline);
    }
    sim.run_to_quiescence();
    let mut lat = Histogram::new();
    for i in 0..n {
        lat.merge(&sim.node(ProcessId::new(i as u32)).stats().delivery_latency);
    }
    // Incidentally ordered pairs, counted over the reconstructed vector
    // timestamps of every message sent in the run.
    let logs: Vec<_> = (0..n)
        .map(|i| sim.node(ProcessId::new(i as u32)).log().to_vec())
        .collect();
    let vts = reconstruct_vts(&logs, n);
    let mut ordered = 0usize;
    for (i, a) in vts.iter().enumerate() {
        for b in &vts[i + 1..] {
            if !a.concurrent_with(b) && a != b {
                ordered += 1;
            }
        }
    }
    (lat.mean_micros(), lat.percentile(0.99).as_micros(), ordered)
}

fn main() {
    println!("A1 / §3.3 fn.1 — semantic (OSend) vs potential (CBCAST) causality\n");
    println!("{OPS} semantically independent ops, submitted every 0.3ms round-robin\n");

    let mut table = Table::new([
        "n",
        "drop",
        "engine",
        "ordered pairs",
        "mean lat",
        "p99 lat",
        "metadata B/msg",
    ]);
    for n in [4usize, 8] {
        for drop in [0.0, 0.15, 0.3] {
            let (g_mean, g_p99, g_pairs) = run_graph(n, drop);
            let (v_mean, v_p99, v_pairs) = run_cbcast(n, drop);
            // Wire-metadata cost per message: OSend carries the declared
            // dep set (0 here); CBCAST always carries an n-wide timestamp.
            let g_bytes = causal_core::wire::graph_overhead_bytes(0);
            let v_bytes = causal_core::wire::vt_overhead_bytes(n);
            table.row([
                n.to_string(),
                format!("{:.0}%", drop * 100.0),
                "OSend graph".into(),
                g_pairs.to_string(),
                fmt_ms(g_mean),
                fmt_ms(g_p99 as f64),
                g_bytes.to_string(),
            ]);
            table.row([
                n.to_string(),
                format!("{:.0}%", drop * 100.0),
                "CBCAST (vector)".into(),
                v_pairs.to_string(),
                fmt_ms(v_mean),
                fmt_ms(v_p99 as f64),
                v_bytes.to_string(),
            ]);
            assert_eq!(
                g_pairs, 0,
                "OSend must order nothing the app didn't ask for"
            );
            assert!(v_pairs > 0, "CBCAST must infer incidental orderings");
            if drop > 0.0 {
                assert!(
                    v_p99 > g_p99,
                    "under loss, CBCAST tail latency must exceed OSend's (n={n}, drop={drop})"
                );
            }
        }
    }
    table.print();
    println!(
        "\nablation shape: the vector-clock engine manufactures thousands of \
         incidental (false) dependencies for a workload that declared none; \
         each lost message then stalls semantically unrelated deliveries, \
         inflating tail latency — the cost the paper's explicit OSend \
         relation avoids."
    );
}
