//! Per-layer attribution by replay: a traced member's captured inputs are
//! fed, outside the program, through fresh instances of each layer's
//! public API in the call pattern `ProtocolStack` uses, timing each layer.

use crate::member::{Captured, Input, Wire};
use crate::ops::BenchOp;
use causal_clocks::{MsgId, ProcessId};
use causal_core::delivery::DeliveryEngine;
use causal_core::rbcast::{HasMsgId, RbMsg, ReliableBroadcast};
use causal_core::stability::StabilityTracker;
use causal_core::stable::StablePointDetector;
use causal_core::stack::{StackWire, Timed};
use causal_core::wire::WireEncode;
use causal_simnet::SimTime;
use std::hint::black_box;
use std::time::Instant;

/// Accumulated time of one layer over many timed sections.
#[derive(Debug, Clone, Copy, Default)]
pub struct Meter {
    pub ns: u64,
    pub sections: u64,
}

impl Meter {
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.ns += t0.elapsed().as_nanos() as u64;
        self.sections += 1;
        r
    }

    /// Time net of the clock reads' own cost (`overhead_ns` per section).
    pub fn net_ns(&self, overhead_ns: f64) -> f64 {
        (self.ns as f64 - self.sections as f64 * overhead_ns).max(0.0)
    }

    pub fn add(&mut self, other: &Meter) {
        self.ns += other.ns;
        self.sections += other.sections;
    }
}

/// The cost of one empty timed section: the median of many, so callers
/// can subtract it from per-call timings.
pub fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..31)
        .map(|_| {
            let mut m = Meter::default();
            for _ in 0..2_000 {
                m.time(|| black_box(0u64));
            }
            m.ns as f64 / m.sections as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Layer times of one member's replay.
#[derive(Debug, Clone, Default)]
pub struct LayerReplay {
    pub engine: Meter,
    /// Envelopes and frames fed to the engine (receives plus own sends).
    pub engine_msgs: u64,
    pub rbcast: Meter,
    /// Data, acks and own broadcasts fed to the reliability layer.
    pub rbcast_msgs: u64,
    pub stability: Meter,
    pub deliveries: u64,
    /// The replayed engine's delivery log.
    pub log: Vec<MsgId>,
}

/// Replays `inputs` of member `me` (group of `n`) through a fresh engine,
/// reliability layer (when `full_mesh`) and stability tracker that gossips
/// every `report_every` deliveries, mirroring `ProtocolStack`'s calls:
/// receives and sends into the engine, `on_deliver` per delivery, then
/// `stable()` and compaction of engine and reliability state after every
/// input that can release messages, and `on_report` + compaction per
/// stability report. Timers (retransmissions) are not replayed.
pub fn replay_layers<D: DeliveryEngine<Op = BenchOp>>(
    me: ProcessId,
    n: usize,
    full_mesh: bool,
    report_every: u64,
    inputs: &[Captured<D>],
) -> LayerReplay {
    let mut r = LayerReplay::default();
    let mut engine = D::for_member(me, n);
    engine.enable_gc_mode();
    let mut rb: ReliableBroadcast<Timed<D::Envelope>> = if full_mesh {
        ReliableBroadcast::new(me, n)
    } else {
        ReliableBroadcast::with_peers(me, [])
    };
    let mut tracker = StabilityTracker::new(me, n);
    let mut since_report = 0u64;
    let mut released: Vec<D::Envelope> = Vec::new();

    for cap in inputs {
        released.clear();
        let mut sends: Vec<(BenchOp, causal_core::osend::OccursAfter)> = Vec::new();
        let releases = match &cap.input {
            Input::Start => true,
            Input::Submit(op, after) => {
                sends.push((*op, after.clone()));
                true
            }
            Input::Timer => false,
            Input::Msg(from, msg) => match msg.clone() {
                StackWire::Rb(RbMsg::Data(timed)) => {
                    let (fresh, acks) = r.rbcast.time(|| rb.on_data(*from, timed));
                    black_box(acks);
                    r.rbcast_msgs += 1;
                    if let Some(timed) = fresh {
                        r.engine
                            .time(|| engine.on_receive_into(timed.env, &mut released));
                        r.engine_msgs += 1;
                    }
                    true
                }
                StackWire::Rb(RbMsg::Ack(id)) => {
                    r.rbcast.time(|| rb.on_ack(*from, id));
                    r.rbcast_msgs += 1;
                    false
                }
                StackWire::StabilityReport(report) => {
                    r.stability.time(|| {
                        tracker.on_report(*from, &report);
                        let stable = tracker.stable();
                        if stable.total_events() > 0 {
                            engine.compact(&stable);
                            rb.compact(&stable);
                        }
                    });
                    false
                }
                StackWire::Link(frame) => {
                    let out = r.engine.time(|| engine.on_link_frame(*from, frame, &[]));
                    r.engine_msgs += 1;
                    released.extend(out.released);
                    true
                }
                _ => false,
            },
        };
        sends.extend(
            cap.emitted
                .iter()
                .map(|op| (*op, causal_core::osend::OccursAfter::none())),
        );
        for (op, after) in sends {
            let sent_at = SimTime::from_micros(op.sent);
            let (env, own) = r.engine.time(|| engine.send(op, after));
            r.engine_msgs += 1;
            released.extend(own);
            let timed = Timed { env, sent_at };
            if D::ROUTED {
                black_box(r.engine.time(|| engine.route_broadcast(timed)));
            } else if full_mesh {
                black_box(r.rbcast.time(|| rb.broadcast_grouped(timed)));
                r.rbcast_msgs += 1;
            }
        }
        if releases {
            r.deliveries += released.len() as u64;
            r.log.extend(released.iter().map(HasMsgId::msg_id));
            r.stability.time(|| {
                for env in &released {
                    tracker.on_deliver(env.msg_id());
                }
                since_report += released.len() as u64;
                if since_report >= report_every {
                    since_report = 0;
                    black_box(tracker.local_report());
                }
                let stable = tracker.stable();
                if stable.total_events() > 0 {
                    engine.compact(&stable);
                    rb.compact(&stable);
                }
            });
        }
    }
    r
}

/// Replays an app-recorded `(id, deps, non-commutative)` stream through a
/// fresh stable-point detector in one timed pass; returns the time and
/// the number of points found.
pub fn replay_stable(stream: &[(MsgId, Vec<MsgId>, bool)]) -> (u64, usize) {
    let mut det = StablePointDetector::new();
    let t0 = Instant::now();
    for (id, deps, nc) in stream {
        black_box(det.on_deliver(*id, deps, *nc));
    }
    (t0.elapsed().as_nanos() as u64, det.points().len())
}

/// Codec replay of captured wire messages.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireReplay {
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub msgs: u64,
    pub bytes: u64,
    /// Messages that did not decode back to themselves.
    pub mismatches: u64,
}

/// Encodes every captured inbound message in one timed pass, decodes the
/// bytes in a second, then checks each round trip.
pub fn replay_wire<D>(inputs: &[Captured<D>]) -> WireReplay
where
    D: DeliveryEngine<Op = BenchOp>,
    Wire<D>: WireEncode + PartialEq,
{
    let msgs: Vec<&Wire<D>> = inputs
        .iter()
        .filter_map(|c| match &c.input {
            Input::Msg(_, m) => Some(m),
            _ => None,
        })
        .collect();
    let mut buf = Vec::new();
    let mut ends = Vec::with_capacity(msgs.len());
    let t0 = Instant::now();
    for m in &msgs {
        m.encode(&mut buf);
        ends.push(buf.len());
    }
    let encode_ns = t0.elapsed().as_nanos() as u64;
    let mut decoded = Vec::with_capacity(msgs.len());
    let t1 = Instant::now();
    let mut start = 0;
    for &end in &ends {
        decoded.push(Wire::<D>::from_wire(&buf[start..end]));
        start = end;
    }
    let decode_ns = t1.elapsed().as_nanos() as u64;
    let mismatches = msgs
        .iter()
        .zip(&decoded)
        .filter(|(m, d)| d.as_ref().ok() != Some(**m))
        .count() as u64;
    WireReplay {
        encode_ns,
        decode_ns,
        msgs: msgs.len() as u64,
        bytes: buf.len() as u64,
        mismatches,
    }
}
