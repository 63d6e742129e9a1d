//! The benchmark's application: a replicated sum that checks exactly-once
//! delivery, measures send-to-delivery latency from the timestamp in its
//! own payload, and (on TCP) generates closed-loop load.

use crate::ops::{BenchOp, OpStream};
use crate::stats::Hist;
use causal_clocks::{MsgId, ProcessId};
use causal_core::delivery::Delivered;
use causal_core::stable::StablePoint;
use causal_core::stack::{App, Emitter};
use causal_core::statemachine::OpClass;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Where the app reads "now", in the unit of [`BenchOp::sent`].
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// Simulated microseconds, handed in by the hosting wrapper before
    /// every callback.
    Sim(u64),
    /// Wall nanoseconds since an epoch every member of the run shares
    /// (one process hosts the whole cluster).
    Wall(Instant),
}

impl Clock {
    pub fn now(&self) -> u64 {
        match self {
            Clock::Sim(us) => *us,
            Clock::Wall(epoch) => epoch.elapsed().as_nanos() as u64,
        }
    }

    /// Converts a difference of two clock readings to histogram units:
    /// 1 µs on simnet, 0.1 µs on TCP (see [`Clock::hist_unit_us`]).
    pub fn hist_units(self, delta: u64) -> u64 {
        match self {
            Clock::Sim(_) => delta,
            Clock::Wall(_) => delta / 100,
        }
    }

    /// Microseconds per histogram unit.
    pub fn hist_unit_us(&self) -> f64 {
        match self {
            Clock::Sim(_) => 1.0,
            Clock::Wall(_) => 0.1,
        }
    }
}

/// Shared control of a closed-loop TCP run of exactly `limit` ops.
///
/// The counters are statistics the harness polls to see the run end; the
/// apps themselves come back when the node threads are joined.
#[derive(Debug)]
pub struct LoopCtl {
    /// Ops the run issues, all members together.
    pub limit: u64,
    /// Tickets taken so far; a ticket below `limit` is an issued op.
    tickets: AtomicU64,
    /// Ops delivered so far, per member (own ones included).
    delivered: Vec<AtomicU64>,
    /// Clock reading at which each member delivered its last op.
    done_at: Vec<AtomicU64>,
    /// Clock reading of the first submitted op (`u64::MAX` before it).
    pub first_submit: AtomicU64,
}

impl LoopCtl {
    pub fn new(n: usize, limit: u64) -> Arc<Self> {
        Arc::new(LoopCtl {
            limit,
            tickets: AtomicU64::new(0),
            delivered: (0..n).map(|_| AtomicU64::new(0)).collect(),
            done_at: (0..n).map(|_| AtomicU64::new(0)).collect(),
            first_submit: AtomicU64::new(u64::MAX),
        })
    }

    fn on_delivered(&self, me: ProcessId, now: u64) {
        let d = self.delivered[me.as_usize()].fetch_add(1, Ordering::Relaxed) + 1;
        if d == self.limit {
            self.done_at[me.as_usize()].store(now, Ordering::Relaxed);
        }
    }

    /// `true` once every member has delivered all `limit` ops.
    pub fn drained(&self) -> bool {
        self.delivered
            .iter()
            .all(|d| d.load(Ordering::Relaxed) == self.limit)
    }

    /// When the last member delivered the last op (valid once drained).
    pub fn finished_at(&self) -> u64 {
        self.done_at
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }
}

/// The closed-loop generator hosted inside one TCP member: `window` ops at
/// start, then one more per delivery of an op from the ring predecessor,
/// until the group has issued `limit` ops.
#[derive(Debug)]
pub struct ClosedLoop {
    pub ctl: Arc<LoopCtl>,
    pub stream: OpStream,
    pub window: usize,
    /// Ops this member issued.
    pub issued: u64,
}

impl ClosedLoop {
    fn try_issue(&mut self, now: u64, out: &mut Emitter<BenchOp>) -> Option<BenchOp> {
        if self.ctl.tickets.fetch_add(1, Ordering::Relaxed) >= self.ctl.limit {
            return None;
        }
        self.ctl.first_submit.fetch_min(now, Ordering::Relaxed);
        self.issued += 1;
        let op = self.stream.next_op(now);
        out.broadcast(op);
        Some(op)
    }
}

/// What a traced run records inside the app (absent in timed runs).
#[derive(Debug, Default)]
pub struct AppTrace {
    /// Every delivery with its release time (clock units).
    pub deliveries: Vec<(MsgId, u64)>,
    /// The `(id, deps, non-commutative)` stream of graph-engine deliveries.
    pub stable_stream: Vec<(MsgId, Vec<MsgId>, bool)>,
    /// Ops the app emitted since the hosting wrapper last drained them.
    pub emitted: Vec<BenchOp>,
    /// Time spent in app callbacks, and their count.
    pub busy_ns: u64,
    pub calls: u64,
    /// Time from the closing op's send to each stable point (hist units).
    pub point_lag: Hist,
}

/// Order-insensitive replica state: agreement of final states and of
/// stable-point snapshots checks that every member applied the same set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Replica {
    pub count: u64,
    pub sum: u64,
    pub digest: u64,
}

impl Replica {
    fn apply(&mut self, id: MsgId, op: &BenchOp) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(op.value);
        let h =
            (u64::from(id.origin().as_u32()) << 40 ^ id.seq()).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.digest = self.digest.wrapping_add(h ^ (h >> 29));
    }

    fn bytes(&self) -> Vec<u8> {
        [self.count, self.sum, self.digest]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect()
    }
}

/// The benchmark app hosted on every member.
#[derive(Debug)]
pub struct BenchApp {
    me: ProcessId,
    n: usize,
    pub clock: Clock,
    pub state: Replica,
    /// Per-origin bitsets of delivered sequence numbers.
    seen: Vec<Vec<u64>>,
    /// Messages delivered more than once.
    pub duplicates: Vec<MsgId>,
    /// Send-to-delivery latency at non-originating members (hist units).
    pub latency: Hist,
    /// Replica state at each stable point, in order.
    pub snapshots: Vec<Replica>,
    pub closed: Option<ClosedLoop>,
    pub trace: Option<Box<AppTrace>>,
    last_sent: u64,
}

impl BenchApp {
    pub fn new(me: ProcessId, n: usize, clock: Clock) -> Self {
        BenchApp {
            me,
            n,
            clock,
            state: Replica::default(),
            seen: vec![Vec::new(); n],
            duplicates: Vec::new(),
            latency: Hist::new(),
            snapshots: Vec::new(),
            closed: None,
            trace: None,
            last_sent: 0,
        }
    }

    /// Hands the simulated time to a simnet-hosted app.
    pub fn set_sim_now(&mut self, us: u64) {
        if let Clock::Sim(now) = &mut self.clock {
            *now = us;
        }
    }

    /// Whether `id` was delivered here.
    pub fn has_delivered(&self, id: MsgId) -> bool {
        let seq = id.seq();
        self.seen[id.origin().as_usize()]
            .get((seq / 64) as usize)
            .is_some_and(|w| w >> (seq % 64) & 1 == 1)
    }

    fn mark_delivered(&mut self, id: MsgId) {
        let bits = &mut self.seen[id.origin().as_usize()];
        let (word, bit) = ((id.seq() / 64) as usize, id.seq() % 64);
        if word >= bits.len() {
            bits.resize(word + 1, 0);
        }
        if bits[word] >> bit & 1 == 1 {
            self.duplicates.push(id);
        }
        bits[word] |= 1 << bit;
    }

    fn deliver(&mut self, env: &Delivered<'_, BenchOp>, out: &mut Emitter<BenchOp>) {
        let now = self.clock.now();
        let op = env.payload;
        self.mark_delivered(env.id);
        self.state.apply(env.id, op);
        self.last_sent = op.sent;
        if env.id.origin() != self.me {
            self.latency
                .record(self.clock.hist_units(now.saturating_sub(op.sent)));
        }
        if let Some(cl) = &mut self.closed {
            cl.ctl.on_delivered(self.me, now);
            let pred = (self.me.as_usize() + self.n - 1) % self.n;
            if env.id.origin().as_usize() == pred {
                if let Some(op) = cl.try_issue(now, out) {
                    if let Some(t) = &mut self.trace {
                        t.emitted.push(op);
                    }
                }
            }
        }
        if let Some(t) = &mut self.trace {
            t.deliveries.push((env.id, now));
            if let Some(deps) = env.deps {
                t.stable_stream.push((env.id, deps.to_vec(), op.nc));
            }
        }
    }
}

impl App for BenchApp {
    type Op = BenchOp;

    fn on_start(&mut self, _me: ProcessId, out: &mut Emitter<BenchOp>) {
        let Some(cl) = &mut self.closed else { return };
        let now = self.clock.now();
        for _ in 0..cl.window {
            if let Some(op) = cl.try_issue(now, out) {
                if let Some(t) = &mut self.trace {
                    t.emitted.push(op);
                }
            }
        }
    }

    fn classify(&self, op: &BenchOp) -> OpClass {
        if op.nc {
            OpClass::NonCommutative
        } else {
            OpClass::Commutative
        }
    }

    fn on_deliver(&mut self, env: Delivered<'_, BenchOp>, out: &mut Emitter<BenchOp>) {
        if self.trace.is_none() {
            self.deliver(&env, out);
            return;
        }
        let t0 = Instant::now();
        self.deliver(&env, out);
        let t = self.trace.as_mut().expect("traced");
        t.busy_ns += t0.elapsed().as_nanos() as u64;
        t.calls += 1;
    }

    fn on_stable_point(&mut self, _sp: StablePoint, _out: &mut Emitter<BenchOp>) {
        self.snapshots.push(self.state);
        if let Some(t) = &mut self.trace {
            let lag = self.clock.now().saturating_sub(self.last_sent);
            t.point_lag.record(self.clock.hist_units(lag));
        }
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(self.state.bytes())
    }
}

/// Ops of `origin` (sequence numbers `1..=count`) that `app` did not
/// deliver exactly once.
pub fn missed_or_repeated(app: &BenchApp, origin: ProcessId, count: u64) -> Vec<MsgId> {
    let mut bad: Vec<MsgId> = (1..=count)
        .map(|s| MsgId::new(origin, s))
        .filter(|&id| !app.has_delivered(id))
        .collect();
    bad.extend(app.duplicates.iter().filter(|d| d.origin() == origin));
    bad
}
