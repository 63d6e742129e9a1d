//! Per-layer metrics of a traced run: live callback timings from the
//! probes, plus replays of the captured streams through each layer.

use crate::member::{Kind, Member, Wire};
use crate::ops::BenchOp;
use crate::replay::{replay_layers, replay_stable, replay_wire, LayerReplay, Meter, WireReplay};
use crate::report::Metric;
use crate::stats::{tail_reportable, Hist};
use causal_core::delivery::DeliveryEngine;
use causal_core::wire::WireEncode;

/// Group shape the replays need.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n: usize,
    /// Full-mesh reliable broadcast runs (non-routed engine).
    pub full_mesh: bool,
    pub report_every: u64,
}

/// The layer metrics plus the totals the runtime metrics are built from.
pub struct Layers {
    pub metrics: Vec<Metric>,
    /// Net time inside stack callbacks (app included), all members.
    pub callback_ns: f64,
    /// Callbacks driven by the runtime (messages and timers).
    pub events: u64,
    /// Replay or cross-check failures.
    pub problems: Vec<String>,
}

fn per(total: f64, count: u64) -> Option<f64> {
    (count > 0).then(|| total / count as f64)
}

/// Nearest-rank `permille` quantile in µs, absent unless at least ten
/// samples lie beyond it.
fn quantile_us(h: &mut Hist, permille: u64, unit_us: f64) -> Option<f64> {
    if permille > 500 && !tail_reportable(h.len(), permille) {
        return None;
    }
    h.percentile_in_unit(permille).map(|v| v * unit_us)
}

pub fn layer_metrics<D>(members: &[Member<D>], ops: u64, shape: Shape, overhead_ns: f64) -> Layers
where
    D: DeliveryEngine<Op = BenchOp>,
    Wire<D>: WireEncode + PartialEq,
{
    let mut problems = Vec::new();
    let mut m = Vec::new();
    let unit_us = members[0].app().clock.hist_unit_us();
    let probes: Vec<_> = members
        .iter()
        .map(|x| x.probe.as_deref().expect("traced member"))
        .collect();
    let traces: Vec<_> = members
        .iter()
        .map(|x| x.app_trace().expect("traced app"))
        .collect();

    // stack.*: live callback times by kind, net of the timer's own cost.
    let mut callback_ns = 0.0;
    let mut events = 0;
    for (k, kind) in Kind::ALL.iter().enumerate() {
        let calls: u64 = probes.iter().map(|p| p.calls[k]).sum();
        let ns = Meter {
            ns: probes.iter().map(|p| p.ns[k]).sum(),
            sections: calls,
        }
        .net_ns(overhead_ns);
        callback_ns += ns;
        if *kind != Kind::Submit {
            events += calls;
        }
        m.push(Metric::new(
            &format!("stack.{}_per_op", kind.name()),
            calls as f64 / ops as f64,
            "count",
        ));
        m.push(Metric::maybe(
            &format!("stack.{}_ns", kind.name()),
            per(ns, calls),
            "ns",
        ));
    }
    let app = Meter {
        ns: traces.iter().map(|t| t.busy_ns).sum(),
        sections: traces.iter().map(|t| t.calls).sum(),
    };
    let app_ns = app.net_ns(overhead_ns);
    let stack_self_ns = callback_ns - app_ns;
    m.push(Metric::new(
        "stack.self_ns_per_op",
        stack_self_ns / ops as f64,
        "ns",
    ));
    let mut arrival = Hist::new();
    let mut buffer = Hist::new();
    for p in &probes {
        arrival.merge(&p.arrival);
        buffer.merge(&p.buffer_delay);
    }
    m.push(Metric::maybe(
        "stack.arrival_p50_us",
        quantile_us(&mut arrival, 500, unit_us),
        "us",
    ));
    m.push(Metric::maybe(
        "stack.arrival_p99_us",
        quantile_us(&mut arrival, 990, unit_us),
        "us",
    ));

    // engine.*
    m.push(Metric::maybe(
        "engine.buffer_delay_p50_us",
        quantile_us(&mut buffer, 500, unit_us),
        "us",
    ));
    m.push(Metric::maybe(
        "engine.buffer_delay_p99_us",
        quantile_us(&mut buffer, 990, unit_us),
        "us",
    ));
    let remote: u64 = probes.iter().map(|p| p.remote_deliveries).sum();
    let buffered: u64 = probes.iter().map(|p| p.buffered).sum();
    m.push(Metric::maybe(
        "engine.buffered_ratio",
        per(buffered as f64, remote),
        "ratio",
    ));
    m.push(Metric::new(
        "engine.pending_peak",
        probes.iter().map(|p| p.pending_peak).max().unwrap_or(0) as f64,
        "count",
    ));
    m.push(Metric::new(
        "engine.duplicates",
        members
            .iter()
            .map(|x| x.stack.engine().duplicates())
            .sum::<u64>() as f64,
        "count",
    ));

    // Replays, one member at a time; each must reproduce the live order.
    let mut total = LayerReplay::default();
    for (i, member) in members.iter().enumerate() {
        let r = replay_layers::<D>(
            member.stack.me(),
            shape.n,
            shape.full_mesh,
            shape.report_every,
            &probes[i].inputs,
        );
        if r.log != member.stack.log() {
            problems.push(format!(
                "member {i}: replayed engine released a different order than the live log"
            ));
        }
        total.engine.add(&r.engine);
        total.engine_msgs += r.engine_msgs;
        total.rbcast.add(&r.rbcast);
        total.rbcast_msgs += r.rbcast_msgs;
        total.stability.add(&r.stability);
        total.deliveries += r.deliveries;
    }
    let engine_ns = total.engine.net_ns(overhead_ns);
    let rbcast_ns = total.rbcast.net_ns(overhead_ns);
    let stability_ns = total.stability.net_ns(overhead_ns);
    m.push(Metric::maybe(
        "engine.replay_ns_per_msg",
        per(engine_ns, total.engine_msgs),
        "ns",
    ));

    // rbcast.*: absent where the engine disseminates over its overlay.
    let copies: u64 = probes.iter().map(|p| p.rb_data_copies).sum();
    let expected = ops * (shape.n as u64 - 1);
    m.push(Metric::maybe(
        "rbcast.replay_ns_per_msg",
        shape
            .full_mesh
            .then(|| per(rbcast_ns, total.rbcast_msgs))
            .flatten(),
        "ns",
    ));
    m.push(Metric::maybe(
        "rbcast.retransmit_ratio",
        shape
            .full_mesh
            .then(|| copies as f64 / expected as f64 - 1.0),
        "ratio",
    ));

    // stability.*
    m.push(Metric::maybe(
        "stability.replay_ns_per_delivery",
        per(stability_ns, total.deliveries),
        "ns",
    ));
    m.push(Metric::new(
        "stability.replay_share",
        stability_ns / stack_self_ns.max(1.0),
        "ratio",
    ));
    m.push(Metric::new(
        "stability.retained_peak",
        probes.iter().map(|p| p.retained_peak).max().unwrap_or(0) as f64,
        "count",
    ));

    // stable.*: only engines that carry explicit dependencies run it.
    let mut stable_ns = 0.0;
    let stream_len: usize = traces.iter().map(|t| t.stable_stream.len()).sum();
    if stream_len > 0 {
        let mut lag = Hist::new();
        for (i, t) in traces.iter().enumerate() {
            let (ns, points) = replay_stable(&t.stable_stream);
            stable_ns += ns as f64;
            if points != members[i].stack.stable_points().len() {
                problems.push(format!(
                    "member {i}: stable-point replay found {points} points, live {}",
                    members[i].stack.stable_points().len()
                ));
            }
            lag.merge(&t.point_lag);
        }
        m.push(Metric::new(
            "stable.points",
            members[0].stack.stable_points().len() as f64,
            "count",
        ));
        m.push(Metric::new(
            "stable.replay_ns_per_delivery",
            stable_ns / stream_len as f64,
            "ns",
        ));
        m.push(Metric::maybe(
            "stable.point_lag_p99_us",
            quantile_us(&mut lag, 990, unit_us),
            "us",
        ));
    } else {
        for (name, unit) in [
            ("stable.points", "count"),
            ("stable.replay_ns_per_delivery", "ns"),
            ("stable.point_lag_p99_us", "us"),
        ] {
            m.push(Metric::maybe(name, None, unit));
        }
    }

    // wire.*: the captured inbound messages through the codec. On TCP this
    // is the codec the run used; on simnet, the one it would use.
    let mut wire = WireReplay::default();
    for p in &probes {
        let w = replay_wire::<D>(&p.inputs);
        wire.encode_ns += w.encode_ns;
        wire.decode_ns += w.decode_ns;
        wire.msgs += w.msgs;
        wire.bytes += w.bytes;
        wire.mismatches += w.mismatches;
    }
    if wire.mismatches > 0 {
        problems.push(format!(
            "{} messages did not survive an encode/decode round trip",
            wire.mismatches
        ));
    }
    let msgs = wire.msgs.max(1) as f64;
    m.push(Metric::new(
        "wire.encode_ns_per_msg",
        wire.encode_ns as f64 / msgs,
        "ns",
    ));
    m.push(Metric::new(
        "wire.decode_ns_per_msg",
        wire.decode_ns as f64 / msgs,
        "ns",
    ));
    m.push(Metric::new(
        "wire.bytes_per_op",
        wire.bytes as f64 / ops as f64,
        "bytes",
    ));

    m.push(Metric::maybe(
        "app.ns_per_delivery",
        per(app_ns, app.sections),
        "ns",
    ));
    let replayed = engine_ns + rbcast_ns + stability_ns + stable_ns;
    m.push(Metric::new(
        "replay.coverage",
        replayed / stack_self_ns.max(1.0),
        "ratio",
    ));
    Layers {
        metrics: m,
        callback_ns,
        events,
        problems,
    }
}
