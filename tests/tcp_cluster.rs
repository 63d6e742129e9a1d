//! Acceptance test for the TCP transport: a real loopback cluster runs the
//! full causal-broadcast stack, survives a forced disconnect, and every
//! replica converges — checked with the same validators the simulator
//! tests use.

use causal_broadcast::clocks::ProcessId;
use causal_broadcast::core::delivery::Delivered;
use causal_broadcast::core::osend::OccursAfter;
use causal_broadcast::core::stack::{App, CausalNode, Emitter};
use causal_broadcast::core::statemachine::OpClass;
use causal_broadcast::net::{spawn_node, LoopbackCluster, NodeHandle, TcpConfig};
use causal_broadcast::replica::counter::{CounterOp, CounterReplica};
use causal_broadcast::simnet::{Actor, Context};
use causal_verify::{check, check_trace, OracleConfig, Trace};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 3;
const OPS_PER_NODE: u64 = 34; // 3 * 34 = 102 ops total, >= 100
const TOTAL_OPS: u64 = N as u64 * OPS_PER_NODE;

/// Counter replica that co-drives an interlocked chain of increments:
/// member `i` emits its op `k+1` only after delivering op `k` from member
/// `i+1 (mod N)`. Progress therefore requires live links on every round,
/// which paces the run across real network exchanges (so a mid-run
/// disconnect actually lands mid-traffic) and makes each op causally
/// depend on a remote op.
struct ChainedReplica {
    inner: CounterReplica,
    me: ProcessId,
    emitted: u64,
    /// Deliveries observed so far, shared with the test for convergence
    /// polling (the actor itself lives on the driver thread).
    applied: Arc<AtomicU64>,
}

impl ChainedReplica {
    fn next_peer(&self) -> ProcessId {
        ProcessId::new((self.me.as_u32() + 1) % N as u32)
    }
}

impl App for ChainedReplica {
    type Op = CounterOp;

    fn on_start(&mut self, me: ProcessId, out: &mut Emitter<CounterOp>) {
        self.me = me;
        self.emitted = 1;
        out.osend(CounterOp::Inc(1), OccursAfter::none());
    }

    fn on_deliver(&mut self, env: Delivered<'_, CounterOp>, out: &mut Emitter<CounterOp>) {
        let mut unused = Emitter::new();
        self.inner.on_deliver(env, &mut unused);
        self.applied.fetch_add(1, Ordering::SeqCst);
        if env.id.origin() == self.next_peer() && self.emitted < OPS_PER_NODE {
            self.emitted += 1;
            out.osend(CounterOp::Inc(1), OccursAfter::message(env.id));
        }
    }

    fn classify(&self, op: &CounterOp) -> OpClass {
        op.class()
    }
}

#[test]
fn loopback_cluster_converges_through_forced_disconnect() {
    // The sever must land while traffic is still flowing to force a
    // reconnect; on an extremely fast machine the chains could complete
    // first, which proves nothing about reconnection. Convergence is
    // asserted on every attempt; only a too-late sever is retried.
    for attempt in 0..3 {
        let reconnects = run_scenario(1234 + attempt);
        if reconnects >= 1 {
            return;
        }
    }
    panic!("sever landed after quiescence on every attempt; no reconnect observed");
}

/// Runs the full scenario, asserting convergence, and returns how many
/// reconnects the severed 0<->1 pair performed.
fn run_scenario(seed: u64) -> u64 {
    let applied: Vec<Arc<AtomicU64>> = (0..N).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let nodes: Vec<CausalNode<ChainedReplica>> = (0..N)
        .map(|i| {
            CausalNode::new(
                ProcessId::new(i as u32),
                N,
                ChainedReplica {
                    inner: CounterReplica::new(),
                    me: ProcessId::new(i as u32),
                    emitted: 0,
                    applied: Arc::clone(&applied[i]),
                },
            )
            .with_tracing()
        })
        .collect();

    let cluster = LoopbackCluster::spawn(nodes, seed, TcpConfig::default()).unwrap();

    // Let the chains run partway, then cut the 0<->1 connections while
    // traffic is still flowing. The transport must reconnect (exponential
    // backoff) and the reliability layer must retransmit what was lost.
    let halfway = TOTAL_OPS / 2;
    let deadline = Instant::now() + Duration::from_secs(30);
    while applied[0].load(Ordering::SeqCst) < halfway && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    cluster.sever_link(0, 1);

    while applied.iter().any(|a| a.load(Ordering::SeqCst) < TOTAL_OPS) && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let counts: Vec<u64> = applied.iter().map(|a| a.load(Ordering::SeqCst)).collect();
    assert!(
        counts.iter().all(|&c| c >= TOTAL_OPS),
        "cluster did not converge within the deadline: applied {counts:?} of {TOTAL_OPS}"
    );

    let reconnects_01 = cluster.handle(0).stats().links[1].reconnects
        + cluster.handle(1).stats().links[0].reconnects;
    let done = cluster.shutdown();

    // Protocol-level convergence, via the standard validators.
    let values: Vec<i64> = done.iter().map(|(n, _)| n.app().inner.value()).collect();
    assert!(
        check::replicas_agree(&values),
        "replica values diverged: {values:?}"
    );
    assert_eq!(values[0], TOTAL_OPS as i64);

    for (i, (node, _)) in done.iter().enumerate() {
        assert_eq!(node.app().inner.applied(), TOTAL_OPS, "replica {i}");
    }

    // The full trace oracle over the real-network execution: exactly-once
    // delivery, dependency order, and delivered-set agreement must hold on
    // the recorded events — including the retransmissions and duplicate
    // receives caused by the severed and re-established 0<->1 link.
    let trace = Trace::new(
        done.iter()
            .filter_map(|(n, _)| n.trace().cloned())
            .collect(),
    );
    let report = check_trace(&trace, &OracleConfig::default())
        .unwrap_or_else(|v| panic!("oracle violation: {v}"));
    assert_eq!(report.members, N);
    assert_eq!(report.deliveries, (N as u64 * TOTAL_OPS) as usize);

    // Counters are coherent: every node got traffic from every peer, and
    // nothing failed to decode.
    for (i, (_, stats)) in done.iter().enumerate() {
        assert_eq!(stats.decode_errors, 0, "replica {i}");
        for (j, link) in stats.links.iter().enumerate() {
            if i != j {
                assert!(link.msgs_recv > 0, "no traffic from {j} to {i}");
            }
        }
    }

    // Write batching was exercised: under load (broadcast fan-out, ack
    // bursts, frames queued across the sever) at least some socket writes
    // must have carried more than one coalesced frame.
    let total_writes: u64 = done.iter().map(|(_, s)| s.total_writes()).sum();
    let total_frames: u64 = done.iter().map(|(_, s)| s.total_frames_written()).sum();
    assert!(total_writes > 0, "no socket writes recorded");
    assert!(
        total_frames > total_writes,
        "no write batching observed: {total_frames} frames in {total_writes} writes"
    );

    // The receive hot path is zero-copy: every socket frame reached the
    // decoder as a borrowed view of a pooled buffer (frames_borrowed
    // matches the per-link receive counts exactly).
    for (i, (_, stats)) in done.iter().enumerate() {
        assert_eq!(
            stats.frames_borrowed,
            stats.total_recv(),
            "replica {i}: socket frames must all arrive borrow-decoded"
        );
        assert!(stats.bytes_read > 0, "replica {i}: no socket bytes counted");
    }

    // Reactor-era syscall counters are live: the shared poller pool ran
    // epoll_wait, accepted every inbound connection, and moved all
    // traffic through read + vectored writev syscalls.
    let reactor = done[0].1.reactor;
    assert!(reactor.epoll_waits > 0, "no epoll_wait recorded");
    assert!(reactor.epoll_wakeups > 0, "no epoll wakeups recorded");
    assert!(reactor.accepts >= (N * (N - 1)) as u64, "{reactor:?}");
    assert!(
        reactor.connects_started >= (N * (N - 1)) as u64,
        "{reactor:?}"
    );
    assert!(
        reactor.read_syscalls > 0 && reactor.writev_syscalls > 0,
        "{reactor:?}"
    );

    reconnects_01
}

/// Fires a burst of 64 frames at node 1 from `on_start`.
struct Talker;

impl Actor for Talker {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        for k in 0..64 {
            ctx.send(ProcessId::new(1), k);
        }
    }
    fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _from: ProcessId, _msg: u64) {}
}

/// Boots a [`Talker`] as node 0 whose only peer is a dead port: bind to
/// learn a free port, then drop the listener, so every connect attempt
/// is refused and the link sits in its reconnect episode (12 attempts,
/// eleven backoff waits of 10 ms doubling to a 500 ms ceiling, about
/// 3.1 s in all).
fn talker_to_dead_peer() -> NodeHandle<Talker> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let me_addr = listener.local_addr().unwrap();
    let dead = TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_addr = dead.local_addr().unwrap();
    drop(dead);
    spawn_node(
        Talker,
        ProcessId::new(0),
        listener,
        &[me_addr, dead_addr],
        7,
        TcpConfig::default(),
    )
    .unwrap()
}

/// Satellite guarantee of the reactor rewrite: tearing a node down is
/// prompt even while its transport is mid-reconnect against a dead peer
/// — the shard abandons the connect episode instead of sleeping through
/// the backoff schedule, and every reactor thread joins on drop.
#[test]
fn node_shutdown_is_prompt_even_mid_connect() {
    let handle = talker_to_dead_peer();

    // Let the connect episode get going before pulling the plug.
    std::thread::sleep(Duration::from_millis(60));
    handle.request_stop();
    let started = Instant::now();
    let (_actor, stats) = handle.join();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown took {elapsed:?}; reconnect backoff must not delay teardown"
    );
    // The episode really was in flight when we tore down.
    assert!(stats.reactor.connects_started >= 1, "{:?}", stats.reactor);
    assert_eq!(stats.links[1].msgs_sent, 64);
}

/// A link that runs out of connect attempts drops everything it queued
/// and counts each frame as a send drop, while the node runs on (the
/// count is read before shutdown, which would also drop the queue); the
/// node still shuts down promptly afterwards.
#[test]
fn exhausted_reconnect_episode_drops_the_queue() {
    let handle = talker_to_dead_peer();

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut drops = 0;
    while drops < 64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        drops = handle.stats().links[1].send_drops;
    }
    assert_eq!(drops, 64, "the exhausted episode must drop the queue");

    handle.request_stop();
    let started = Instant::now();
    let (_actor, stats) = handle.join();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown took {elapsed:?}"
    );
    assert_eq!(stats.reactor.connects_started, 12, "{:?}", stats.reactor);
    assert_eq!(stats.links[1].send_drops, 64);
}

/// Many-peer smoke test for the sharded reactor: 64 PC-broadcast nodes
/// (k-ary routed overlay, so each member talks only to its tree
/// neighbours) on one shared poller pool. The old transport would pin
/// two threads per directed pair — ~8k threads at this size; the
/// reactor runs the whole cluster on `poller_shards` event loops plus
/// one driver per node, which the test asserts via `/proc`.
///
/// Debug builds skip it (64 nodes of unoptimized protocol stack on one
/// core overshoot the suite budget); release CI runs it.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: 64-node cluster")]
fn many_peer_pc_engine_smoke() {
    use causal_broadcast::core::stack::PcNode;
    use causal_broadcast::simnet::SimDuration;

    const M: usize = 64;

    /// Sums delivered payloads and publishes the count for polling.
    struct Sum {
        value: i64,
        applied: Arc<AtomicU64>,
    }
    impl App for Sum {
        type Op = i64;
        fn on_start(&mut self, _me: ProcessId, out: &mut Emitter<i64>) {
            out.osend(1, OccursAfter::none());
        }
        fn on_deliver(&mut self, env: Delivered<'_, i64>, _out: &mut Emitter<i64>) {
            self.value += *env.payload;
            self.applied.fetch_add(1, Ordering::SeqCst);
        }
        fn classify(&self, _op: &i64) -> OpClass {
            OpClass::Commutative
        }
    }

    let applied: Vec<Arc<AtomicU64>> = (0..M).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let nodes: Vec<PcNode<Sum>> = (0..M)
        .map(|i| {
            PcNode::new(
                ProcessId::new(i as u32),
                M,
                Sum {
                    value: 0,
                    applied: Arc::clone(&applied[i]),
                },
            )
            // The simulator-scale 5ms retransmit sweep is too hot for 64
            // wall-clock nodes sharing one box; acks still prune quickly.
            .with_retransmit_every(SimDuration::from_millis(100))
            .with_tracing()
        })
        .collect();

    let cluster = LoopbackCluster::spawn(nodes, 77, TcpConfig::default()).unwrap();

    let deadline = Instant::now() + Duration::from_secs(60);
    while applied.iter().any(|a| a.load(Ordering::SeqCst) < M as u64) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let counts: Vec<u64> = applied.iter().map(|a| a.load(Ordering::SeqCst)).collect();
    assert!(
        counts.iter().all(|&c| c >= M as u64),
        "not all {M} broadcasts delivered everywhere: min={:?}",
        counts.iter().min()
    );

    // Thread economy: O(drivers + shards), not O(n^2) socket threads.
    let threads = proc_thread_count();
    assert!(
        threads < M + 40,
        "{threads} threads for a {M}-node cluster; reactor sharing is broken"
    );

    let done = cluster.shutdown();
    let values: Vec<i64> = done.iter().map(|(n, _)| n.app().value).collect();
    assert!(
        check::replicas_agree(&values),
        "replica values diverged: {values:?}"
    );
    assert_eq!(values[0], M as i64);

    // Full trace-oracle validation of the real-network run: exactly-once,
    // dependency order, delivered-set agreement across all 64 members.
    let trace = Trace::new(
        done.iter()
            .filter_map(|(n, _)| n.trace().cloned())
            .collect(),
    );
    let report = check_trace(&trace, &OracleConfig::default())
        .unwrap_or_else(|v| panic!("oracle violation: {v}"));
    assert_eq!(report.members, M);
    assert_eq!(report.deliveries, M * M);

    // Zero-copy holds at scale too.
    for (i, (_, stats)) in done.iter().enumerate() {
        assert_eq!(stats.frames_borrowed, stats.total_recv(), "replica {i}");
    }
}

/// Current thread count of this process, from `/proc/self/status`.
fn proc_thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}
