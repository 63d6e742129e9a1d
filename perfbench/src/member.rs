//! The benchmark-side actor wrapped around every `ProtocolStack`.
//!
//! In timed runs the wrapper only hands the simulated clock to the app.
//! In traced runs it also carries a [`Probe`]: it times every callback by
//! `StackWire` variant, stamps first arrivals, and captures the inbound
//! stream for the layer replays in [`crate::replay`].

use crate::app::{AppTrace, BenchApp};
use crate::ops::BenchOp;
use crate::stats::Hist;
use causal_clocks::{MsgId, ProcessId};
use causal_core::delivery::pcbcast::LinkBody;
use causal_core::delivery::DeliveryEngine;
use causal_core::osend::OccursAfter;
use causal_core::rbcast::{HasMsgId, RbMsg};
use causal_core::stack::{ProtocolStack, StackWire};
use causal_simnet::{Actor, Context};
use std::collections::HashMap;
use std::time::Instant;

pub type Stack<D> = ProtocolStack<D, BenchApp>;
pub type Wire<D> = StackWire<<D as DeliveryEngine>::Envelope>;

/// Callback kinds, by `StackWire` variant plus timers and local submits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    RbData,
    RbAck,
    Report,
    Link,
    Membership,
    Timer,
    Submit,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::RbData,
        Kind::RbAck,
        Kind::Report,
        Kind::Link,
        Kind::Membership,
        Kind::Timer,
        Kind::Submit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::RbData => "rb_data",
            Kind::RbAck => "rb_ack",
            Kind::Report => "report",
            Kind::Link => "link",
            Kind::Membership => "membership",
            Kind::Timer => "timer",
            Kind::Submit => "submit",
        }
    }

    fn of<E>(msg: &StackWire<E>) -> Kind {
        match msg {
            StackWire::Rb(RbMsg::Data(_)) => Kind::RbData,
            StackWire::Rb(RbMsg::Ack(_)) => Kind::RbAck,
            StackWire::StabilityReport(_) => Kind::Report,
            StackWire::Link(_) => Kind::Link,
            StackWire::Heartbeat
            | StackWire::Propose(_)
            | StackWire::FlushAck(_)
            | StackWire::Install(_)
            | StackWire::JoinReq { .. } => Kind::Membership,
        }
    }
}

/// One captured stack input, in the order the member processed it.
pub enum Input<D: DeliveryEngine> {
    Start,
    Submit(BenchOp, OccursAfter),
    Msg(ProcessId, Wire<D>),
    Timer,
}

/// A captured input plus the ops the app emitted while handling it.
pub struct Captured<D: DeliveryEngine> {
    pub input: Input<D>,
    pub emitted: Vec<BenchOp>,
}

/// Per-member tracing state of a traced run.
pub struct Probe<D: DeliveryEngine> {
    /// Callbacks and nanoseconds, indexed like [`Kind::ALL`].
    pub calls: [u64; 7],
    pub ns: [u64; 7],
    pub inputs: Vec<Captured<D>>,
    /// First arrival of each remote message (clock units).
    arrivals: HashMap<MsgId, u64>,
    arrived_now: Vec<MsgId>,
    /// Send to first fresh arrival (hist units).
    pub arrival: Hist,
    /// First arrival to release (hist units).
    pub buffer_delay: Hist,
    pub remote_deliveries: u64,
    pub buffered: u64,
    pub pending_peak: usize,
    pub retained_peak: usize,
    pub rb_data_copies: u64,
    deliveries_seen: usize,
}

impl<D: DeliveryEngine> Default for Probe<D> {
    fn default() -> Self {
        Probe {
            calls: [0; 7],
            ns: [0; 7],
            inputs: Vec::new(),
            arrivals: HashMap::new(),
            arrived_now: Vec::new(),
            arrival: Hist::new(),
            buffer_delay: Hist::new(),
            remote_deliveries: 0,
            buffered: 0,
            pending_peak: 0,
            retained_peak: 0,
            rb_data_copies: 0,
            deliveries_seen: 0,
        }
    }
}

/// A group member as the runtimes see it.
pub struct Member<D: DeliveryEngine<Op = BenchOp>> {
    pub stack: Stack<D>,
    pub probe: Option<Box<Probe<D>>>,
}

impl<D: DeliveryEngine<Op = BenchOp>> Member<D> {
    pub fn new(stack: Stack<D>, traced: bool) -> Self {
        let mut member = Member { stack, probe: None };
        if traced {
            member.stack.app_mut().trace = Some(Box::default());
            member.probe = Some(Box::default());
        }
        member
    }

    pub fn app(&self) -> &BenchApp {
        self.stack.app()
    }

    pub fn app_trace(&self) -> Option<&AppTrace> {
        self.stack.app().trace.as_deref()
    }

    /// Submits `op` from outside the runtime (an open-loop poke).
    pub fn submit(
        &mut self,
        ctx: &mut Context<'_, Wire<D>>,
        op: BenchOp,
        after: OccursAfter,
    ) -> Option<MsgId> {
        self.stack.app_mut().set_sim_now(ctx.now().as_micros());
        if self.probe.is_none() {
            return self.stack.osend(ctx, op, after);
        }
        let input = Input::Submit(op, after.clone());
        self.traced(Kind::Submit, input, &[], |s| s.osend(ctx, op, after))
    }

    /// Runs one stack callback under the probe: times it, captures its
    /// input, and attributes the deliveries it released.
    fn traced<R>(
        &mut self,
        kind: Kind,
        input: Input<D>,
        arrived: &[(MsgId, u64)],
        call: impl FnOnce(&mut Stack<D>) -> R,
    ) -> R {
        let now = self.stack.app().clock.now();
        let me = self.stack.me();
        let probe = self.probe.as_mut().expect("traced member");
        for &(id, sent) in arrived {
            if id.origin() != me && !probe.arrivals.contains_key(&id) {
                probe.arrivals.insert(id, now);
                let clock = self.stack.app().clock;
                probe
                    .arrival
                    .record(clock.hist_units(now.saturating_sub(sent)));
                probe.arrived_now.push(id);
            }
        }
        let t0 = Instant::now();
        let r = call(&mut self.stack);
        let dt = t0.elapsed().as_nanos() as u64;
        let k = Kind::ALL
            .iter()
            .position(|&x| x == kind)
            .expect("listed kind");
        probe.calls[k] += 1;
        probe.ns[k] += dt;
        probe.pending_peak = probe.pending_peak.max(self.stack.pending_len());
        probe.retained_peak = probe.retained_peak.max(self.stack.retained_state());
        let app = self.stack.app_mut();
        let clock = app.clock;
        let trace = app.trace.as_mut().expect("traced app");
        for &(id, released) in &trace.deliveries[probe.deliveries_seen..] {
            if id.origin() == me {
                continue;
            }
            probe.remote_deliveries += 1;
            if !probe.arrived_now.contains(&id) {
                probe.buffered += 1;
            }
            if let Some(&at) = probe.arrivals.get(&id) {
                probe
                    .buffer_delay
                    .record(clock.hist_units(released.saturating_sub(at)));
            }
        }
        probe.deliveries_seen = trace.deliveries.len();
        probe.arrived_now.clear();
        let emitted = std::mem::take(&mut trace.emitted);
        probe.inputs.push(Captured { input, emitted });
        r
    }
}

/// The data messages a wire message carries: `(id, send timestamp)`.
fn carried<D: DeliveryEngine<Op = BenchOp>>(msg: &Wire<D>) -> Option<(MsgId, u64)> {
    let timed = match msg {
        StackWire::Rb(RbMsg::Data(timed)) => timed,
        StackWire::Link(frame) => match &frame.body {
            LinkBody::Msg(timed) => timed,
            _ => return None,
        },
        _ => return None,
    };
    Some((timed.msg_id(), D::view(&timed.env).payload.sent))
}

impl<D: DeliveryEngine<Op = BenchOp>> Actor for Member<D> {
    type Msg = Wire<D>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.stack.app_mut().set_sim_now(ctx.now().as_micros());
        if self.probe.is_none() {
            return self.stack.on_start(ctx);
        }
        self.traced(Kind::Submit, Input::Start, &[], |s| s.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ProcessId, msg: Self::Msg) {
        self.stack.app_mut().set_sim_now(ctx.now().as_micros());
        let Some(probe) = self.probe.as_mut() else {
            return self.stack.on_message(ctx, from, msg);
        };
        let kind = Kind::of(&msg);
        if kind == Kind::RbData {
            probe.rb_data_copies += 1;
        }
        let arrived: Vec<(MsgId, u64)> = carried::<D>(&msg).into_iter().collect();
        let input = Input::Msg(from, msg.clone());
        self.traced(kind, input, &arrived, |s| s.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, tag: u64) {
        self.stack.app_mut().set_sim_now(ctx.now().as_micros());
        if self.probe.is_none() {
            return self.stack.on_timer(ctx, tag);
        }
        self.traced(Kind::Timer, Input::Timer, &[], |s| s.on_timer(ctx, tag));
    }
}
