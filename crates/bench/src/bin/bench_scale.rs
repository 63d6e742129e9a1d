//! Group-size scaling sweep: the vector-clock CBCAST engine vs. the
//! constant-overhead PC-broadcast engine, from 3 members to 10,000.
//!
//! Emits `BENCH_scale.json` (committed at the workspace root) with three
//! sections:
//!
//! * `sweep` — per group size: metadata bytes per message for each
//!   engine (the vector clock grows linearly with `n`, the PC header is
//!   a constant 12 bytes) and single-receiver ingest throughput.
//! * `churn` — an engine-level overlay run that crashes an interior
//!   tree node mid-stream and reports the peak number of messages
//!   buffered while the quarantine/flush protocol repairs the overlay —
//!   the quantity PC-broadcast bounds by churn rate, not group size.
//! * `oracle` — full-stack simulated runs at explorer-feasible sizes,
//!   every member traced and replayed through the `causal-verify`
//!   oracle (which re-derives happened-before for the metadata-free PC
//!   logs); the run aborts on any violation.
//!
//! Usage: `bench_scale [--quick] [--out-dir DIR]`. `--quick` shrinks
//! the sweep for CI smoke runs; full mode is the committed baseline.

use causal_bench::json::{array, JsonObject};
use causal_clocks::{MsgId, ProcessId};
use causal_core::delivery::pcbcast::{LinkBody, LinkClock, LinkFrame};
use causal_core::delivery::{CbcastEngine, DeliveryEngine, LinkSend, PcEngine, PcEnvelope};
use causal_core::osend::OccursAfter;
use causal_core::stack::{ProtocolStack, Timed};
use causal_core::wire::{pc_overhead_bytes, vt_overhead_bytes, WireEncode};
use causal_simnet::{LatencyModel, NetConfig, SimDuration, SimTime, Simulation};
use causal_verify::apps::{CounterOp, SumApp};
use causal_verify::{check_trace, OracleConfig, Trace};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Sweep configuration; `QUICK` is the CI smoke shape.
struct Cfg {
    /// Group sizes for the overhead/throughput sweep.
    sizes: &'static [usize],
    /// Ingest work budget: messages per size is `base / n`, clamped.
    ingest_base: usize,
    ingest_min: usize,
    ingest_max: usize,
    /// Group sizes for the churn scenario (engine-level overlay).
    churn_sizes: &'static [usize],
    /// Group sizes for the oracle-checked full-stack runs.
    oracle_sizes: &'static [usize],
    /// Timing repetitions (best-of).
    reps: usize,
}

const FULL: Cfg = Cfg {
    sizes: &[3, 10, 32, 100, 316, 1000, 3162, 10_000],
    ingest_base: 2_000_000,
    ingest_min: 1_000,
    ingest_max: 20_000,
    churn_sizes: &[10, 32, 100],
    oracle_sizes: &[3, 10, 32],
    reps: 3,
};

const QUICK: Cfg = Cfg {
    sizes: &[3, 10, 32, 100],
    ingest_base: 50_000,
    ingest_min: 200,
    ingest_max: 2_000,
    churn_sizes: &[10, 32],
    oracle_sizes: &[3, 10],
    reps: 1,
};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i as u32)
}

fn main() {
    let mut quick = false;
    let mut out_dir = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out-dir" => {
                out_dir = PathBuf::from(args.next().expect("--out-dir needs a value"));
            }
            other => panic!("unknown argument {other:?} (expected --quick / --out-dir DIR)"),
        }
    }
    let cfg = if quick { QUICK } else { FULL };
    let mode = if quick { "quick" } else { "full" };

    println!("bench_scale ({mode} mode)");
    println!();
    println!(
        "  {:>6}  {:>10} {:>8}  {:>14} {:>14}",
        "n", "vt bytes", "pc bytes", "vt msgs/s", "pc msgs/s"
    );

    let sweep: Vec<SweepRow> = cfg.sizes.iter().map(|&n| sweep_size(&cfg, n)).collect();
    for r in &sweep {
        println!(
            "  {:>6}  {:>10} {:>8}  {:>14.0} {:>14.0}",
            r.n, r.vector_metadata_bytes, r.pc_metadata_bytes, r.vector_rate, r.pc_rate
        );
    }

    println!();
    let churn: Vec<ChurnRow> = cfg.churn_sizes.iter().map(|&n| churn_size(n)).collect();
    for r in &churn {
        println!(
            "  churn n={:<4} messages={:<4} peak_buffered={:<4} (crashed member {})",
            r.n, r.messages, r.peak_buffered, r.crashed
        );
    }

    println!();
    let oracle: Vec<OracleRow> = cfg.oracle_sizes.iter().map(|&n| oracle_size(n)).collect();
    for r in &oracle {
        println!(
            "  oracle n={:<3} deliveries={:<5} rederived-causality logs={}",
            r.n, r.deliveries, r.hb_logs
        );
    }

    write_json(&out_dir, mode, &sweep, &churn, &oracle);
    println!();
    println!("wrote {}", out_dir.join("BENCH_scale.json").display());
}

// ---------------------------------------------------------------------------
// Sweep: per-message metadata and single-receiver ingest throughput
// ---------------------------------------------------------------------------

struct SweepRow {
    n: usize,
    vector_metadata_bytes: usize,
    pc_metadata_bytes: usize,
    vector_envelope_bytes: usize,
    pc_envelope_bytes: usize,
    messages: usize,
    vector_rate: f64,
    pc_rate: f64,
}

fn best_of<F: FnMut() -> usize>(reps: usize, expected: usize, mut run: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let delivered = run();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(delivered, expected, "ingest failed to deliver everything");
        best = best.min(secs);
    }
    best
}

fn sweep_size(cfg: &Cfg, n: usize) -> SweepRow {
    let m = (cfg.ingest_base / n).clamp(cfg.ingest_min, cfg.ingest_max);

    // Measured envelope sizes for a u64 payload, and the metadata-only
    // figures from the wire layer (what grows with the group).
    let mut probe = CbcastEngine::<u64>::new(p(0), n);
    let vector_envelope_bytes = probe.broadcast(0).to_wire().len();
    let pc_env = PcEnvelope {
        id: MsgId::new(p(0), 1),
        payload: 0u64,
    };
    let pc_envelope_bytes = pc_env.to_wire().len();

    // Vector ingest: one receiver consumes a pre-minted in-order stream;
    // every on_receive pays the O(n) clock comparison and merge.
    let mut tx = CbcastEngine::<u64>::new(p(0), n);
    let stream: Vec<_> = (0..m as u64).map(|k| tx.broadcast(k)).collect();
    let vector_secs = best_of(cfg.reps, m, || {
        let mut rx = CbcastEngine::<u64>::new(p(1), n);
        stream.iter().map(|e| rx.on_receive(e.clone()).len()).sum()
    });

    // PC ingest: the same stream as sequenced link frames from the
    // receiver's tree parent; the delivery check is a constant-size
    // watermark comparison regardless of n (the receiver also pays to
    // enqueue forwards for its own subtree, as it would in production).
    let frames: Vec<LinkFrame<Timed<PcEnvelope<u64>>>> = (1..=m as u64)
        .map(|k| LinkFrame {
            seq: k,
            body: LinkBody::Msg(Timed {
                env: PcEnvelope {
                    id: MsgId::new(p(0), k),
                    payload: k,
                },
                sent_at: SimTime::ZERO,
            }),
        })
        .collect();
    let pc_secs = best_of(cfg.reps, m, || {
        let mut rx = PcEngine::<u64>::for_member(p(1), n);
        frames
            .iter()
            .map(|f| rx.on_link_frame(p(0), f.clone(), &[]).released.len())
            .sum()
    });

    SweepRow {
        n,
        vector_metadata_bytes: vt_overhead_bytes(n),
        pc_metadata_bytes: pc_overhead_bytes(),
        vector_envelope_bytes,
        pc_envelope_bytes,
        messages: m,
        vector_rate: m as f64 / vector_secs,
        pc_rate: m as f64 / pc_secs,
    }
}

// ---------------------------------------------------------------------------
// Churn: crash an interior tree node mid-stream, measure peak buffering
// ---------------------------------------------------------------------------

struct ChurnRow {
    n: usize,
    crashed: usize,
    messages: usize,
    peak_buffered: usize,
}

type Frame = LinkFrame<Timed<PcEnvelope<u64>>>;

/// An engine-level overlay network with per-node delivered history (the
/// stack's `mem.store`), so pong flushes can replay what a repaired
/// link's peer missed.
struct ChurnNet {
    engines: Vec<Option<PcEngine<u64>>>,
    queues: BTreeMap<(usize, usize), Vec<Frame>>,
    history: Vec<Vec<Timed<PcEnvelope<u64>>>>,
    counter: u64,
    total_sent: usize,
}

impl ChurnNet {
    fn new(n: usize) -> Self {
        ChurnNet {
            engines: (0..n)
                .map(|i| Some(PcEngine::for_member(p(i), n)))
                .collect(),
            queues: BTreeMap::new(),
            history: vec![Vec::new(); n],
            counter: 0,
            total_sent: 0,
        }
    }

    fn enqueue(&mut self, from: usize, sends: Vec<LinkSend<PcEnvelope<u64>>>) {
        for (to, frame) in sends {
            if self.engines[to.as_usize()].is_some() {
                self.queues
                    .entry((from, to.as_usize()))
                    .or_default()
                    .push(frame);
            }
        }
    }

    fn broadcast(&mut self, node: usize) {
        self.counter += 1;
        let payload = self.counter;
        let engine = self.engines[node].as_mut().expect("sender alive");
        let (env, _) = engine.send(payload, OccursAfter::none());
        let timed = Timed {
            env,
            sent_at: SimTime::ZERO,
        };
        self.history[node].push(timed.clone());
        let sends = engine.route_broadcast(timed);
        self.enqueue(node, sends);
        self.total_sent += 1;
    }

    fn deliver(&mut self, key: (usize, usize), frame: Frame) {
        let (from, to) = key;
        let Some(engine) = self.engines[to].as_mut() else {
            return;
        };
        let out = engine.on_link_frame(p(from), frame, &self.history[to]);
        for env in out.released {
            self.history[to].push(Timed {
                env,
                sent_at: SimTime::ZERO,
            });
        }
        self.enqueue(to, out.sends);
    }

    /// First link with frames still queued, if any.
    fn next_busy_link(&self) -> Option<(usize, usize)> {
        self.queues
            .iter()
            .find(|(_, q)| !q.is_empty())
            .map(|(&k, _)| k)
    }

    fn drain(&mut self) {
        for _round in 0..64 {
            while let Some(key) = self.next_busy_link() {
                let frame = self.queues.get_mut(&key).expect("non-empty").remove(0);
                self.deliver(key, frame);
            }
            let pending = self.engines.iter().flatten().any(|e| e.link_has_pending());
            if !pending {
                return;
            }
            for i in 0..self.engines.len() {
                let Some(engine) = self.engines[i].as_mut() else {
                    continue;
                };
                let rtx = engine.link_retransmissions(LinkClock::STOPPED);
                self.enqueue(i, rtx);
            }
        }
        panic!("churn network failed to quiesce");
    }

    /// Crashes `victim`: its queues vanish with it, survivors re-derive
    /// the overlay and open quarantined links where the tree changed.
    fn crash(&mut self, victim: usize) {
        self.engines[victim] = None;
        self.queues.retain(|&(a, b), _| a != victim && b != victim);
        let survivors: Vec<ProcessId> = (0..self.engines.len())
            .filter(|&i| self.engines[i].is_some())
            .map(p)
            .collect();
        for i in 0..self.engines.len() {
            let Some(engine) = self.engines[i].as_mut() else {
                continue;
            };
            let sends = engine.on_members(&survivors);
            self.enqueue(i, sends);
        }
    }
}

fn churn_size(n: usize) -> ChurnRow {
    let mut net = ChurnNet::new(n);
    // Constant workload across group sizes: the paper's claim is that
    // buffering around churn tracks the churn/traffic rate, not n.
    let rounds = 12;
    // Phase A: steady state, fully disseminated.
    for k in 0..rounds {
        net.broadcast(k % n);
    }
    net.drain();
    // Phase B: broadcasts in flight when member 1 — an interior node
    // whose subtree depends on it — crashes, taking its queues with it.
    for k in 0..rounds {
        let sender = k % n;
        if sender != 1 {
            net.broadcast(sender);
        }
    }
    net.crash(1);
    net.drain();
    // Phase C: post-churn traffic over the repaired overlay.
    for k in 0..rounds {
        let sender = k % n;
        if sender != 1 {
            net.broadcast(sender);
        }
    }
    net.drain();

    // Survivors converge on the full message set despite the lost
    // queues: pong flushes replayed what the crash swallowed.
    let reference: Vec<MsgId> = {
        let mut ids: Vec<MsgId> = net.engines[0].as_ref().expect("root alive").log().to_vec();
        ids.sort_unstable();
        ids
    };
    assert_eq!(reference.len(), net.total_sent, "root missed messages");
    let mut peak = 0;
    for engine in net.engines.iter().flatten() {
        let mut ids = engine.log().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, reference, "survivor logs diverged after churn");
        peak = peak.max(engine.peak_buffered());
    }
    ChurnRow {
        n,
        crashed: 1,
        messages: net.total_sent,
        peak_buffered: peak,
    }
}

// ---------------------------------------------------------------------------
// Oracle: full-stack traced runs at explorer-feasible sizes
// ---------------------------------------------------------------------------

struct OracleRow {
    n: usize,
    deliveries: usize,
    hb_logs: usize,
}

fn oracle_size(n: usize) -> OracleRow {
    let nodes: Vec<_> = (0..n)
        .map(|i| {
            ProtocolStack::<PcEngine<CounterOp>, SumApp>::new(p(i), n, SumApp::new()).with_tracing()
        })
        .collect();
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(50, 500));
    let mut sim = Simulation::new(nodes, cfg, 0xC5A1E);
    let sends = (2 * n).min(60);
    for k in 0..sends {
        sim.poke(p(k % n), |node, ctx| {
            node.osend(ctx, CounterOp::Add(1), OccursAfter::none());
        });
        let deadline = sim.now() + SimDuration::from_micros(200);
        sim.run_until(deadline);
    }
    sim.run_to_quiescence();
    for i in 0..n {
        assert_eq!(
            sim.node(p(i)).app().value(),
            sends as i64,
            "member {i} did not converge"
        );
    }
    let trace = Trace::new(
        (0..n)
            .filter_map(|i| sim.node(p(i)).trace().cloned())
            .collect(),
    );
    let report = check_trace(&trace, &OracleConfig::default())
        .unwrap_or_else(|v| panic!("oracle violation at n={n}: {v}"));
    OracleRow {
        n,
        deliveries: report.deliveries,
        hb_logs: report.hb_logs,
    }
}

// ---------------------------------------------------------------------------
// JSON artifact
// ---------------------------------------------------------------------------

fn write_json(
    out_dir: &Path,
    mode: &str,
    sweep: &[SweepRow],
    churn: &[ChurnRow],
    oracle: &[OracleRow],
) {
    let sweep_rows: Vec<String> = sweep
        .iter()
        .map(|r| {
            JsonObject::new()
                .u64("n", r.n as u64)
                .u64("vector_metadata_bytes", r.vector_metadata_bytes as u64)
                .u64("pc_metadata_bytes", r.pc_metadata_bytes as u64)
                .u64("vector_envelope_bytes", r.vector_envelope_bytes as u64)
                .u64("pc_envelope_bytes", r.pc_envelope_bytes as u64)
                .u64("ingest_messages", r.messages as u64)
                .f64("vector_msgs_per_sec", r.vector_rate)
                .f64("pc_msgs_per_sec", r.pc_rate)
                .render(2)
        })
        .collect();
    let churn_rows: Vec<String> = churn
        .iter()
        .map(|r| {
            JsonObject::new()
                .u64("n", r.n as u64)
                .u64("crashed_member", r.crashed as u64)
                .u64("messages", r.messages as u64)
                .u64("pc_peak_buffered", r.peak_buffered as u64)
                .str("survivors", "converged")
                .render(2)
        })
        .collect();
    let oracle_rows: Vec<String> = oracle
        .iter()
        .map(|r| {
            JsonObject::new()
                .u64("n", r.n as u64)
                .u64("deliveries", r.deliveries as u64)
                .u64("rederived_causality_logs", r.hb_logs as u64)
                .u64("violations", 0)
                .render(2)
        })
        .collect();
    let doc = JsonObject::new()
        .str("bench", "bench_scale")
        .str("mode", mode)
        .str(
            "command",
            "cargo run --release -p causal-bench --bin bench_scale",
        )
        .str("vector_engine", "CbcastEngine")
        .str("pc_engine", "PcEngine")
        .raw("sweep", array(&sweep_rows, 1))
        .raw("churn", array(&churn_rows, 1))
        .raw("oracle", array(&oracle_rows, 1))
        .render(0);
    std::fs::write(out_dir.join("BENCH_scale.json"), doc + "\n").expect("write scale json");
}
