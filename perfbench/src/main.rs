//! Full-stack benchmark of the causal-broadcast `ProtocolStack`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//! ```
//!
//! `--trace 0` runs the timed repetitions with no instrumentation and
//! prints the end-to-end metrics; `--trace 1` runs one untraced and one
//! traced repetition and prints the per-layer metrics. Every run checks
//! its outputs; the last stdout line is the JSON result. See README.md.

mod app;
mod check;
mod layers;
mod member;
mod ops;
mod replay;
mod report;
mod sim;
mod speed;
mod stats;
mod sys;
mod tcp;

use crate::check::Outcome;
use crate::layers::{layer_metrics, Shape};
use crate::member::{Member, Stack};
use crate::ops::{open_loop_plan, BenchOp};
use crate::replay::timer_overhead_ns;
use crate::report::{result_json, Metric, Reporter};
use crate::sim::SimSpec;
use crate::stats::{highest_reportable_tail, median, Hist};
use crate::tcp::TcpSpec;
use causal_core::delivery::{CbcastEngine, DeliveryEngine, GraphDelivery, PcEngine};
use std::process::ExitCode;
use std::time::Instant;

/// The paper's configuration: §6.1 ordering at f̄ = 20 over full-mesh
/// reliable broadcast with membership and GC.
const GRAPH_MIX: SimSpec = SimSpec {
    n: 8,
    latency_us: (200, 800),
    drop: 0.01,
    interval_us: 50,
    f_bar: 20,
    membership: true,
    report_every: 64,
    drain_us: 200_000,
};

/// The large-group engine: static PC-broadcast with GC, all commutative.
const PC_FANOUT: SimSpec = SimSpec {
    n: 64,
    latency_us: (50, 500),
    drop: 0.01,
    interval_us: 20,
    f_bar: 0,
    membership: false,
    report_every: 64,
    drain_us: 200_000,
};

/// The only workload that encodes bytes and crosses sockets. Retransmits
/// every 50 ms, the wall-clock period the repository's TCP tests use: at
/// the simulator-scale 5 ms default, any scheduler stall past 5 ms
/// retransmits every op in flight, and the extra load feeds back into
/// the latency it was reacting to.
const VECTOR_LOOP: TcpSpec = TcpSpec {
    n: 3,
    window: 32,
    nc_period: 21,
    report_every: 64,
    poller_shards: 1,
    retransmit_ms: 50,
};

/// Sizes of a workload's runs, in ops.
struct Sizes {
    /// Ops per timed repetition.
    rep: u64,
    /// Timed repetitions every run makes (on simnet their pooled samples
    /// give the latency percentiles); more follow until `--seconds`.
    min_reps: u64,
    /// Ops of the traced run (and of its untraced twin).
    traced: u64,
    /// Ops of the oracle-checked run.
    oracle: u64,
}

const GRAPH_MIX_SIZES: Sizes = Sizes {
    rep: 30_000,
    min_reps: 12,
    traced: 6_000,
    oracle: 1_500,
};

const PC_FANOUT_SIZES: Sizes = Sizes {
    rep: 1_000,
    min_reps: 20,
    traced: 400,
    oracle: 150,
};

const VECTOR_LOOP_SIZES: Sizes = Sizes {
    rep: 150_000,
    min_reps: 10,
    traced: 60_000,
    oracle: 20_000,
};

const MAX_REPS: u64 = 200;
/// Set-up-only runs per process; their median is `setup_s`.
const SETUP_ONLY_REPS: usize = 31;

/// The seed of timed repetition `k`: every repetition simulates a
/// different network and op sequence derived from the run's seed.
fn rep_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// End-to-end metric names, in result order.
const E2E: [&str; 7] = [
    "ops_per_s",
    "latency_p50_us",
    "latency_p99_us",
    "latency_p999_us",
    "cpu_us_per_op",
    "peak_rss_mib",
    "setup_s",
];

/// Per-layer metrics measured on every workload: the traced result line
/// carries exactly these. Workload-specific layers (rbcast, stable,
/// simnet, net) are printed as metric lines only, `absent` where they do
/// not run.
const PER_LAYER: [&str; 28] = [
    "stack.self_ns_per_op",
    "stack.arrival_p50_us",
    "stack.arrival_p99_us",
    "stack.rb_data_per_op",
    "stack.rb_ack_per_op",
    "stack.report_per_op",
    "stack.link_per_op",
    "stack.membership_per_op",
    "stack.timer_per_op",
    "stack.report_ns",
    "stack.timer_ns",
    "engine.buffer_delay_p50_us",
    "engine.buffer_delay_p99_us",
    "engine.buffered_ratio",
    "engine.pending_peak",
    "engine.duplicates",
    "engine.replay_ns_per_msg",
    "stability.replay_ns_per_delivery",
    "stability.replay_share",
    "stability.retained_peak",
    "wire.encode_ns_per_msg",
    "wire.decode_ns_per_msg",
    "wire.bytes_per_op",
    "app.ns_per_delivery",
    "replay.coverage",
    "runtime.events_per_op",
    "runtime.self_ns_per_event",
    "trace.overhead_ratio",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut commit = "unknown".to_string();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
        commit,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rep = Reporter {
        workload: args.workload.clone(),
        seed: args.seed,
        commit: args.commit.clone(),
    };
    let result = match (args.workload.as_str(), args.trace) {
        ("graph_mix_sim", false) => {
            sim_e2e::<GraphDelivery<BenchOp>>(&rep, &GRAPH_MIX, &GRAPH_MIX_SIZES, args.seconds)
        }
        ("graph_mix_sim", true) => {
            sim_traced::<GraphDelivery<BenchOp>>(&rep, &GRAPH_MIX, &GRAPH_MIX_SIZES)
        }
        ("pc_fanout_sim", false) => {
            sim_e2e::<PcEngine<BenchOp>>(&rep, &PC_FANOUT, &PC_FANOUT_SIZES, args.seconds)
        }
        ("pc_fanout_sim", true) => {
            sim_traced::<PcEngine<BenchOp>>(&rep, &PC_FANOUT, &PC_FANOUT_SIZES)
        }
        ("vector_loop_tcp", false) => {
            tcp_e2e::<CbcastEngine<BenchOp>>(&rep, &VECTOR_LOOP, &VECTOR_LOOP_SIZES, args.seconds)
        }
        ("vector_loop_tcp", true) => {
            tcp_traced::<CbcastEngine<BenchOp>>(&rep, &VECTOR_LOOP, &VECTOR_LOOP_SIZES)
        }
        (w, _) => Err(format!("unknown workload {w}")),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One timed repetition's end-to-end figures, as measured.
struct Rep {
    ops_per_s: f64,
    cpu_us_per_op: f64,
    latency: Hist,
    /// Machine slowdown around the repetition ([`speed::slowdown`]).
    slowdown: f64,
}

fn merged_latency<D: DeliveryEngine<Op = BenchOp>>(members: &[Member<D>]) -> Hist {
    let mut h = Hist::new();
    for m in members {
        h.merge(&m.app().latency);
    }
    h
}

/// How a workload's latency samples read: µs per histogram unit, and
/// whether they are wall time (scaled by the slowdown like every wall
/// figure) or simulated time (left as they are).
struct LatencyClock {
    unit_us: f64,
    wall: bool,
}

/// Set-up-only runs made at process start, with the slowdown around
/// them. Repetitions set up after a previous one freed its heap, a second
/// population that the median would mix in.
struct Setups {
    raw_s: Vec<f64>,
    slowdown: f64,
}

/// The p50, p99 and p99.9 of `h` in its own units; fails (after saying
/// why) unless at least ten samples lie beyond p99.9.
fn latency_quantiles(rep: &Reporter, tag: &str, h: &mut Hist) -> Result<[f64; 3], String> {
    let n = h.len();
    rep.line(tag, &Metric::new("latency_samples", n as f64, "count"));
    if highest_reportable_tail(n) != Some(999) {
        rep.note(
            tag,
            &format!("latency_p999_us suppressed: {n} samples leave fewer than ten beyond p99.9"),
        );
        return Err(format!("too few latency samples ({n}) for p99.9"));
    }
    Ok([500, 990, 999].map(|p| h.percentile_in_unit(p).expect("samples exist")))
}

/// Prints per-repetition lines and the summary; returns the e2e metrics.
///
/// Wall and CPU figures are scaled to the reference machine speed
/// ([`speed`]); the raw figures are printed beside them. Rates are
/// medians over all repetitions and `setup_s` the median of the
/// set-up-only runs. Simulated latency percentiles come from the pooled
/// samples of the first `pooled` repetitions, a fixed set, so they depend
/// on the seed alone; wall-clock ones are taken per repetition, scaled,
/// and the median reported, so one disturbed repetition cannot set them.
fn summarize(
    rep: &Reporter,
    reps: &mut [Rep],
    pooled: usize,
    clock: LatencyClock,
    setups: &Setups,
) -> Result<Vec<Metric>, String> {
    let names = ["latency_p50_us", "latency_p99_us", "latency_p999_us"];
    let mut pooled_hist = Hist::new();
    let mut per_rep: [Vec<f64>; 3] = Default::default();
    for (i, r) in reps.iter_mut().enumerate() {
        let tag = i.to_string();
        rep.line(&tag, &Metric::new("machine_slowdown", r.slowdown, "ratio"));
        rep.line(&tag, &Metric::new("ops_per_s_raw", r.ops_per_s, "1/s"));
        rep.line(
            &tag,
            &Metric::new("ops_per_s", r.ops_per_s * r.slowdown, "1/s"),
        );
        rep.line(
            &tag,
            &Metric::new("cpu_us_per_op_raw", r.cpu_us_per_op, "us"),
        );
        rep.line(
            &tag,
            &Metric::new("cpu_us_per_op", r.cpu_us_per_op / r.slowdown, "us"),
        );
        if clock.wall {
            let q = latency_quantiles(rep, &tag, &mut r.latency)?;
            for ((name, v), slot) in names.iter().zip(q).zip(per_rep.iter_mut()) {
                let v = v * clock.unit_us / r.slowdown;
                rep.line(&tag, &Metric::new(name, v, "us"));
                slot.push(v);
            }
        } else if i < pooled {
            pooled_hist.merge(&r.latency);
        }
    }
    let latency = if clock.wall {
        per_rep.map(|v| median(&v))
    } else {
        latency_quantiles(rep, "pooled", &mut pooled_hist)?.map(|v| v * clock.unit_us)
    };
    let col = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let setup_raw = median(&setups.raw_s);
    let metrics = vec![
        Metric::new("ops_per_s", col(&|r| r.ops_per_s * r.slowdown), "1/s"),
        Metric::new(names[0], latency[0], "us"),
        Metric::new(names[1], latency[1], "us"),
        Metric::new(names[2], latency[2], "us"),
        Metric::new(
            "cpu_us_per_op",
            col(&|r| r.cpu_us_per_op / r.slowdown),
            "us",
        ),
        Metric::maybe("peak_rss_mib", sys::peak_rss_mib(), "MiB"),
        Metric::new("setup_s", setup_raw / setups.slowdown, "s"),
    ];
    for m in &metrics {
        rep.line("summary", m);
    }
    for m in [
        Metric::new("ops_per_s_raw", col(&|r| r.ops_per_s), "1/s"),
        Metric::new("cpu_us_per_op_raw", col(&|r| r.cpu_us_per_op), "us"),
        Metric::new("setup_s_raw", setup_raw, "s"),
        Metric::new("machine_slowdown", col(&|r| r.slowdown), "ratio"),
    ] {
        rep.line("summary", &m);
    }
    rep.note(
        "summary",
        &format!("repetitions={} setups={}", reps.len(), setups.raw_s.len()),
    );
    Ok(metrics)
}

/// Prints the outcome and turns it into the result line.
fn finish(
    rep: &Reporter,
    outcome: &Outcome,
    metrics: &[Metric],
    names: &[&str],
) -> Result<String, String> {
    let ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    rep.line("all", &Metric::new("failed_op_ratio", ratio, "ratio"));
    for p in &outcome.problems {
        rep.note("all", &format!("problem: {p}"));
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty() && outcome.attempted > 0;
    let attempted = outcome.attempted.max(1);
    result_json(
        correct,
        attempted,
        outcome.failed.min(attempted),
        metrics,
        names,
    )
}

/// Runs timed repetitions `k = 0, 1, …`, each between two calibrations:
/// at least `sizes.min_reps`, then more while the measured time stays
/// within `seconds`. `one` returns the raw figures and the run's outcome.
fn repeat(
    seconds: f64,
    sizes: &Sizes,
    mut one: impl FnMut(u64) -> Result<(f64, f64, Hist, Outcome), String>,
) -> Result<(Vec<Rep>, Outcome), String> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut outcome = Outcome::default();
    let mut k = 0;
    while k < sizes.min_reps || (start.elapsed().as_secs_f64() < seconds && k < MAX_REPS) {
        let (result, slowdown) = speed::around(|| one(k));
        let (ops_per_s, cpu_us_per_op, latency, o) = result?;
        reps.push(Rep {
            ops_per_s,
            cpu_us_per_op,
            latency,
            slowdown,
        });
        outcome.merge(o);
        k += 1;
    }
    Ok((reps, outcome))
}

/// The verdict on a separate oracle-checked run: its trace through the
/// oracle plus its own output checks. Its ops are not timed, so they do
/// not count as attempted.
fn oracle_run<D: DeliveryEngine<Op = BenchOp>>(
    mut members: Vec<Member<D>>,
    checked: Outcome,
) -> Outcome {
    let mut stacks: Vec<&mut Stack<D>> = members.iter_mut().map(|m| &mut m.stack).collect();
    let mut outcome = oracle_outcome(check::oracle(&mut stacks));
    outcome.merge(oracle_outcome(checked));
    outcome
}

fn oracle_outcome(outcome: Outcome) -> Outcome {
    Outcome {
        attempted: 0,
        ..outcome
    }
}

fn sim_e2e<D: DeliveryEngine<Op = BenchOp>>(
    rep: &Reporter,
    spec: &SimSpec,
    sizes: &Sizes,
    seconds: f64,
) -> Result<String, String> {
    let (raw_s, slowdown) = speed::around(|| {
        (0..SETUP_ONLY_REPS)
            .map(|_| sim::setup_only::<D>(spec, rep.seed))
            .collect()
    });
    let (mut reps, mut outcome) = repeat(seconds, sizes, |k| {
        let seed = rep_seed(rep.seed, k);
        let plan = open_loop_plan(seed, spec.n, sizes.rep, spec.f_bar);
        let run = sim::run::<D>(spec, seed, &plan, false, false);
        let ops = run.ops as f64;
        let latency = merged_latency(&run.members);
        Ok((
            ops / run.wall_s,
            run.cpu_s * 1e6 / ops,
            latency,
            run.outcome,
        ))
    })?;
    let clock = LatencyClock {
        unit_us: 1.0,
        wall: false,
    };
    let setups = Setups { raw_s, slowdown };
    let metrics = summarize(rep, &mut reps, sizes.min_reps as usize, clock, &setups)?;
    // The oracle run comes after the peak-RSS reading: its trace is not
    // part of the measured workload.
    let small = open_loop_plan(rep.seed, spec.n, sizes.oracle, spec.f_bar);
    let run = sim::run::<D>(spec, rep.seed, &small, false, true);
    outcome.merge(oracle_run(run.members, run.outcome));
    finish(rep, &outcome, &metrics, &E2E)
}

fn tcp_e2e<D>(rep: &Reporter, spec: &TcpSpec, sizes: &Sizes, seconds: f64) -> Result<String, String>
where
    D: DeliveryEngine<Op = BenchOp> + Send + 'static,
    D::Envelope: Send,
    member::Wire<D>: causal_core::wire::WireEncode + Send + 'static,
{
    // Set-up only: boot, run the initial window, drain, shut down.
    let mut outcome = Outcome::default();
    let (raw_s, slowdown) = speed::around(|| -> Result<Vec<f64>, String> {
        let window = (spec.n * spec.window) as u64;
        let mut raw_s = Vec::new();
        for _ in 0..SETUP_ONLY_REPS {
            let run =
                tcp::run::<D>(spec, rep.seed, window, false, false).map_err(|e| e.to_string())?;
            raw_s.push(run.setup_s);
            outcome.merge(run.outcome);
        }
        Ok(raw_s)
    });
    let setups = Setups {
        raw_s: raw_s?,
        slowdown,
    };
    let (mut reps, timed) = repeat(seconds, sizes, |k| {
        let seed = rep_seed(rep.seed, k);
        let run = tcp::run::<D>(spec, seed, sizes.rep, false, false).map_err(|e| e.to_string())?;
        let ops = run.ops as f64;
        let latency = merged_latency(&run.members);
        Ok((
            ops / run.wall_s,
            run.cpu_s * 1e6 / ops,
            latency,
            run.outcome,
        ))
    })?;
    outcome.merge(timed);
    let clock = LatencyClock {
        unit_us: 0.1,
        wall: true,
    };
    let metrics = summarize(rep, &mut reps, sizes.min_reps as usize, clock, &setups)?;
    let run =
        tcp::run::<D>(spec, rep.seed, sizes.oracle, false, true).map_err(|e| e.to_string())?;
    outcome.merge(oracle_run(run.members, run.outcome));
    finish(rep, &outcome, &metrics, &E2E)
}

/// Calibrates the clock read's own cost, and prints it with the machine
/// slowdown (per-layer times are as measured, not scaled).
fn traced_preamble(rep: &Reporter) -> f64 {
    let overhead = timer_overhead_ns();
    let slowdown = speed::slowdown();
    rep.note(
        "traced",
        &format!("timer_overhead_ns={overhead:.1} machine_slowdown={slowdown:.3}"),
    );
    overhead
}

fn print_layers(rep: &Reporter, metrics: &[Metric]) {
    for m in metrics {
        rep.line("traced", m);
    }
}

fn sim_traced<D>(rep: &Reporter, spec: &SimSpec, sizes: &Sizes) -> Result<String, String>
where
    D: DeliveryEngine<Op = BenchOp>,
    member::Wire<D>: causal_core::wire::WireEncode + PartialEq,
{
    let overhead = traced_preamble(rep);
    let plan = open_loop_plan(rep.seed, spec.n, sizes.traced, spec.f_bar);
    let plain = sim::run::<D>(spec, rep.seed, &plan, false, false);
    let traced = sim::run::<D>(spec, rep.seed, &plan, true, false);
    let ops = traced.ops;
    let shape = Shape {
        n: spec.n,
        full_mesh: !D::ROUTED || spec.membership,
        report_every: spec.report_every,
    };
    let layers = layer_metrics(&traced.members, ops, shape, overhead);
    let mut metrics = layers.metrics;
    let runtime_self = (traced.cpu_s * 1e9 - layers.callback_ns) / traced.events as f64;
    let events_per_op = plain.events as f64 / ops as f64;
    metrics.extend([
        Metric::new("runtime.events_per_op", events_per_op, "count"),
        Metric::new("runtime.self_ns_per_event", runtime_self, "ns"),
        Metric::new("simnet.events_per_op", events_per_op, "count"),
        Metric::new(
            "simnet.peak_in_flight",
            plain.peak_in_flight as f64,
            "count",
        ),
        Metric::new("simnet.self_ns_per_event", runtime_self, "ns"),
        Metric::new(
            "trace.overhead_ratio",
            plain.wall_s / traced.wall_s,
            "ratio",
        ),
    ]);
    metrics.extend(absent_net());
    print_layers(rep, &metrics);
    let mut outcome = traced.outcome;
    outcome.merge(oracle_outcome(plain.outcome));
    outcome.problems.extend(layers.problems);
    finish(rep, &outcome, &metrics, &PER_LAYER)
}

fn absent_net() -> Vec<Metric> {
    [
        ("net.frames_per_write", "count"),
        ("net.writev_per_op", "count"),
        ("net.epoll_wakeups_per_op", "count"),
        ("net.wake_notifies_per_op", "count"),
        ("net.send_drops", "count"),
        ("net.decode_errors", "count"),
        ("net.driver_busy_ratio", "ratio"),
    ]
    .into_iter()
    .map(|(name, unit)| Metric::maybe(name, None, unit))
    .collect()
}

fn tcp_traced<D>(rep: &Reporter, spec: &TcpSpec, sizes: &Sizes) -> Result<String, String>
where
    D: DeliveryEngine<Op = BenchOp> + Send + 'static,
    D::Envelope: Send,
    member::Wire<D>: causal_core::wire::WireEncode + Send + PartialEq + 'static,
{
    let overhead = traced_preamble(rep);
    let plain =
        tcp::run::<D>(spec, rep.seed, sizes.traced, false, false).map_err(|e| e.to_string())?;
    let traced =
        tcp::run::<D>(spec, rep.seed, sizes.traced, true, false).map_err(|e| e.to_string())?;
    let ops = traced.ops;
    let shape = Shape {
        n: spec.n,
        full_mesh: !D::ROUTED,
        report_every: spec.report_every,
    };
    let layers = layer_metrics(&traced.members, ops, shape, overhead);
    let mut metrics = layers.metrics;
    let plain_ops = plain.ops as f64;
    let reactor = &plain.net[0].reactor;
    let links = plain.net.iter().flat_map(|s| s.links.iter());
    let (writes, frames, drops) = links.fold((0u64, 0u64, 0u64), |(w, f, d), l| {
        (w + l.writes, f + l.frames_written, d + l.send_drops)
    });
    let busy: f64 = traced
        .members
        .iter()
        .map(|m| m.probe.as_ref().expect("traced").ns.iter().sum::<u64>() as f64)
        .sum::<f64>()
        / (traced.members.len() as f64 * traced.wall_s * 1e9);
    let runtime_self = (traced.cpu_s * 1e9 - layers.callback_ns) / layers.events as f64;
    metrics.extend([
        Metric::new(
            "runtime.events_per_op",
            layers.events as f64 / ops as f64,
            "count",
        ),
        Metric::new("runtime.self_ns_per_event", runtime_self, "ns"),
        Metric::maybe("simnet.events_per_op", None, "count"),
        Metric::maybe("simnet.peak_in_flight", None, "count"),
        Metric::maybe("simnet.self_ns_per_event", None, "ns"),
        Metric::new(
            "trace.overhead_ratio",
            (ops as f64 / traced.wall_s) / (plain_ops / plain.wall_s),
            "ratio",
        ),
        Metric::new(
            "net.frames_per_write",
            frames as f64 / writes.max(1) as f64,
            "count",
        ),
        Metric::new(
            "net.writev_per_op",
            reactor.writev_syscalls as f64 / plain_ops,
            "count",
        ),
        Metric::new(
            "net.epoll_wakeups_per_op",
            reactor.epoll_wakeups as f64 / plain_ops,
            "count",
        ),
        Metric::new(
            "net.wake_notifies_per_op",
            reactor.wake_notifies as f64 / plain_ops,
            "count",
        ),
        Metric::new("net.send_drops", drops as f64, "count"),
        Metric::new(
            "net.decode_errors",
            plain.net.iter().map(|s| s.decode_errors).sum::<u64>() as f64,
            "count",
        ),
        Metric::new("net.driver_busy_ratio", busy, "ratio"),
    ]);
    print_layers(rep, &metrics);
    let mut outcome = traced.outcome;
    outcome.merge(oracle_outcome(plain.outcome));
    outcome.problems.extend(layers.problems);
    finish(rep, &outcome, &metrics, &PER_LAYER)
}
