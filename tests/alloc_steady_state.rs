//! Heap allocations per operation on the full-mesh and PC data paths,
//! counted.
//!
//! A thread-local counting allocator wraps the system one, and a group
//! shaped like one of perfbench's workloads runs on the simulator. After
//! a warm-up that grows every retained buffer and window to the traffic's
//! shape, each test counts the allocations (fresh blocks and regrowths)
//! of a measured stretch and bounds them per op.
//!
//! # Full mesh
//!
//! The group is shaped like `graph_mix_sim`: eight graph-engine members
//! with view-synchronous membership and stability GC (`with_gc(8, 64)`),
//! §6.1 ordering at f̄ = 20 (one op in 21 non-commutative, AND-depending
//! on the cycle's commutative ops), uniform 200–800 µs latency, 1% loss,
//! one op every 50 µs from a random member.
//!
//! The group reads 3.2 allocations per op. What still allocates:
//!
//! - the new message's dependency set, 1 per op: one shared block that
//!   every copy of the message points at (a non-commutative op's set is
//!   collected and sorted first, one more);
//! - the new message's multicast target list, 1 per op, which the
//!   simulator consumes;
//! - stability reports, each member's once per 64 deliveries, about 1 per
//!   op in all: the reported vector, its target list, and a copy of the
//!   vector per receiver leg;
//! - the resends of copies named lost, and retransmissions: a vector of
//!   resends or a target list, about once per lost copy;
//! - regrowth: a waiter list that must hold more waiters than the reused
//!   list it got, and what is never compacted. Over the measured 3,000
//!   ops each member's delivery log doubles once and its membership
//!   store takes one fresh 4,096-envelope segment (8 allocations each,
//!   0.003 per op apiece), and the latency histograms grow their
//!   counters twice in all (once per power of two a largest sample
//!   reaches). While the histogram kept every sample, its vector
//!   doubled as the log does, and the group read 3.203.
//!
//! Data copies, acks and heartbeats allocate nothing. Before the data
//! path reused its buffers and shared dependency sets, this group read
//! 38.4 allocations per op.
//!
//! # PC broadcast
//!
//! The group is shaped like `pc_fanout_sim`: 64 static PC-engine members
//! with stability GC over the overlay tree (`with_gc(64, 64)`), every op
//! commutative, uniform 50–500 µs latency, 1% loss, one broadcast every
//! 20 µs from a random member.
//!
//! The group reads 5.23 allocations per op. What still allocates:
//!
//! - stability reports, about 3.3 per op in all: each member's up report
//!   once per 64 deliveries and the stable vector the root passes down
//!   when a wave completes or the vector rises, 64 entries each, a copy
//!   of the vector per receiver leg, and a target list per report;
//! - runs, about 1.8 per op: a member forwards what one input released
//!   as one frame per link, and a burst of two or more messages is one
//!   block that every link's frame and retransmission copy shares;
//! - regrowth: what is never compacted. Over the measured 3,000 ops
//!   each member's delivery log doubles once (64 allocations, 0.02 per
//!   op), and the latency histograms grow their counters once in all.
//!   While the histogram kept every sample, its vector doubled with the
//!   log, and the group read 5.25.
//!
//! Single-message frames, the new message's frames, acks, reassembly,
//! the per-origin gate and the retransmission tick allocate nothing
//! once warm. While the stack kept every send time in a window of its
//! own, whose span regrew its deque, the group read 5.5. Before members
//! forwarded bursts as runs, it read 5.2 allocations per op, for about
//! three times as many link frames; before the tick appended its frames
//! to the stack's retained buffer, 6.1.

use causal_broadcast::clocks::ProcessId;
use causal_broadcast::core::delivery::{Delivered, GraphDelivery, PcEngine};
use causal_broadcast::core::stack::{App, Emitter, ProtocolStack, VsyncConfig};
use causal_broadcast::core::statemachine::OpClass;
use causal_broadcast::replica::frontend::FrontEndManager;
use causal_broadcast::simnet::{
    FaultPlan, LatencyModel, NetConfig, SimDuration, SimTime, Simulation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and regrowths made by this thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread, so that tests running on
/// other threads do not disturb the count.
struct Counting;

fn count() {
    // `try_with`: the allocator runs during thread teardown too.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local cell, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// One data-access operation: commutative or not, nothing else.
#[derive(Debug, Clone, Copy)]
struct Op {
    nc: bool,
}

/// Counts deliveries; emits nothing.
#[derive(Debug, Default)]
struct Tally {
    delivered: u64,
}

impl App for Tally {
    type Op = Op;

    fn classify(&self, op: &Op) -> OpClass {
        if op.nc {
            OpClass::NonCommutative
        } else {
            OpClass::Commutative
        }
    }

    fn on_deliver(&mut self, _env: Delivered<'_, Op>, _out: &mut Emitter<Op>) {
        self.delivered += 1;
    }
}

const N: usize = 8;
const F_BAR: u64 = 20;
const INTERVAL: SimDuration = SimDuration::from_micros(50);

/// Submits `ops` operations, one every 50 µs, through the §6.1 front end.
fn submit(
    sim: &mut Simulation<ProtocolStack<GraphDelivery<Op>, Tally>>,
    fe: &mut FrontEndManager,
    rng: &mut StdRng,
    at: &mut SimTime,
    ops: u64,
) {
    for _ in 0..ops {
        sim.run_until(*at);
        let nc = rng.gen_range(0..=F_BAR) == 0;
        let class = if nc {
            OpClass::NonCommutative
        } else {
            OpClass::Commutative
        };
        let after = fe.ordering_for(class);
        let submitter = ProcessId::new(rng.gen_range(0..N as u32));
        if let Some(id) = sim.poke(submitter, |m, ctx| m.osend(ctx, Op { nc }, after)) {
            fe.record(id, class);
        }
        *at += INTERVAL;
    }
}

#[test]
fn the_full_mesh_data_path_allocates_a_few_blocks_per_op() {
    const WARM_UP: u64 = 3_000;
    const MEASURED: u64 = 3_000;
    const BOUND: f64 = 4.0;
    let members = (0..N)
        .map(|i| {
            let me = ProcessId::new(i as u32);
            ProtocolStack::with_membership(me, N, Tally::default(), VsyncConfig::default())
                .with_gc(N, 64)
        })
        .collect();
    let net = NetConfig::with_latency(LatencyModel::uniform_micros(200, 800))
        .faults(FaultPlan::new().with_drop_prob(0.01));
    let mut sim = Simulation::new(members, net, 1);
    let mut fe = FrontEndManager::new();
    let mut rng = StdRng::seed_from_u64(1);
    let mut at = SimTime::ZERO;
    submit(&mut sim, &mut fe, &mut rng, &mut at, WARM_UP);
    let before = allocations();
    submit(&mut sim, &mut fe, &mut rng, &mut at, MEASURED);
    let per_op = (allocations() - before) as f64 / MEASURED as f64;
    sim.run_until(at + SimDuration::from_millis(200));
    let total = WARM_UP + MEASURED;
    for m in sim.nodes() {
        assert_eq!(m.app().delivered, total, "member {:?}", m.me());
        assert_eq!(m.view().members().len(), N, "no view change");
    }
    assert!(
        per_op <= BOUND,
        "{per_op:.2} allocations per op in steady state (bound {BOUND})"
    );
}

const PC_N: usize = 64;
const PC_INTERVAL: SimDuration = SimDuration::from_micros(20);

/// Broadcasts `ops` commutative operations, one every 20 µs from a random
/// member.
fn broadcast_pc(
    sim: &mut Simulation<ProtocolStack<PcEngine<Op>, Tally>>,
    rng: &mut StdRng,
    at: &mut SimTime,
    ops: u64,
) {
    for _ in 0..ops {
        sim.run_until(*at);
        let submitter = ProcessId::new(rng.gen_range(0..PC_N as u32));
        sim.poke(submitter, |m, ctx| m.broadcast(ctx, Op { nc: false }));
        *at += PC_INTERVAL;
    }
}

#[test]
fn the_pc_data_path_allocates_a_few_blocks_per_op() {
    const WARM_UP: u64 = 3_000;
    const MEASURED: u64 = 3_000;
    const BOUND: f64 = 7.5;
    let members = (0..PC_N)
        .map(|i| {
            let me = ProcessId::new(i as u32);
            ProtocolStack::new(me, PC_N, Tally::default()).with_gc(PC_N, 64)
        })
        .collect();
    let net = NetConfig::with_latency(LatencyModel::uniform_micros(50, 500))
        .faults(FaultPlan::new().with_drop_prob(0.01));
    let mut sim = Simulation::new(members, net, 1);
    let mut rng = StdRng::seed_from_u64(1);
    let mut at = SimTime::ZERO;
    broadcast_pc(&mut sim, &mut rng, &mut at, WARM_UP);
    let before = allocations();
    broadcast_pc(&mut sim, &mut rng, &mut at, MEASURED);
    let per_op = (allocations() - before) as f64 / MEASURED as f64;
    sim.run_until(at + SimDuration::from_millis(200));
    let total = WARM_UP + MEASURED;
    for m in sim.nodes() {
        assert_eq!(m.app().delivered, total, "member {:?}", m.me());
    }
    assert!(
        per_op <= BOUND,
        "{per_op:.2} allocations per op in steady state (bound {BOUND})"
    );
}
