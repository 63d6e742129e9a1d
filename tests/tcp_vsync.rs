//! Virtually synchronous membership over real TCP sockets.
//!
//! The membership machinery is part of the one unified protocol stack, so
//! the exact [`CausalNode`] the simulator drives also runs over
//! `causal-net`: heartbeats, failure suspicion, the flush barrier, and
//! view installation all travel as [`StackWire`] frames through the
//! length-prefixed codec. These tests boot a three-member group on
//! ephemeral localhost ports, kill a member for real (its driver threads
//! stop; its sockets die), and assert that the survivors install the
//! shrunken view and keep computing — including the virtual-synchrony
//! flush guarantee for a message racing the crash.
//!
//! The apps publish their state through atomics because the actors live
//! on the transport's driver threads; the test thread polls.
//!
//! [`StackWire`]: causal_broadcast::core::stack::StackWire

use causal_broadcast::clocks::ProcessId;
use causal_broadcast::core::delivery::Delivered;
use causal_broadcast::core::osend::OccursAfter;
use causal_broadcast::core::stack::{App, CausalNode, Emitter, VsyncConfig};
use causal_broadcast::core::statemachine::OpClass;
use causal_broadcast::membership::GroupView;
use causal_broadcast::net::{LoopbackCluster, TcpConfig};
use causal_broadcast::simnet::SimDuration;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// Member `i` of `n` with membership timed for wall-clock TCP (the
/// defaults suit the simulator's microsecond latencies; over real sockets
/// they would suspect members during ordinary scheduling hiccups):
/// suspicion after 400 ms, and a retransmission period P of 50 ms, which
/// the heartbeat (P/4 = 12.5 ms) and the membership check (P/2 = 25 ms)
/// follow.
fn tcp_member(i: usize, n: usize, app: Watcher) -> CausalNode<Watcher> {
    let config = VsyncConfig {
        suspect_after: SimDuration::from_millis(400),
    };
    CausalNode::with_membership(p(i as u32), n, app, config)
        .with_retransmit_every(SimDuration::from_millis(50))
}

/// Shared observation channel between a node's app (on a driver thread)
/// and the test thread.
#[derive(Clone, Default)]
struct Probe {
    value: Arc<AtomicI64>,
    applied: Arc<AtomicU64>,
    view_len: Arc<AtomicUsize>,
}

/// Counter app instrumented for the TCP harness: sums delivered payloads,
/// optionally emits a follow-up op at a given delivery count (to stage a
/// message racing a crash), and optionally emits an op right after a view
/// installs (to prove the shrunken group still computes).
struct Watcher {
    me: Option<ProcessId>,
    value: i64,
    applied: u64,
    probe: Probe,
    /// When `applied` reaches this count, emit `5` chained on the
    /// triggering delivery.
    emit_at_applied: Option<u64>,
    /// After a view with this many members installs, the coordinator
    /// emits `10`.
    post_view_op_at_len: Option<usize>,
}

impl Watcher {
    fn new(probe: Probe) -> Self {
        Watcher {
            me: None,
            value: 0,
            applied: 0,
            probe,
            emit_at_applied: None,
            post_view_op_at_len: None,
        }
    }
}

impl App for Watcher {
    type Op = i64;

    fn on_start(&mut self, me: ProcessId, out: &mut Emitter<i64>) {
        self.me = Some(me);
        out.osend(1, OccursAfter::none());
    }

    fn on_deliver(&mut self, env: Delivered<'_, i64>, out: &mut Emitter<i64>) {
        self.value += *env.payload;
        self.applied += 1;
        self.probe.value.store(self.value, Ordering::SeqCst);
        self.probe.applied.store(self.applied, Ordering::SeqCst);
        if self.emit_at_applied == Some(self.applied) {
            self.emit_at_applied = None;
            out.osend(5, OccursAfter::message(env.id));
        }
    }

    fn classify(&self, _op: &i64) -> OpClass {
        OpClass::Commutative
    }

    fn on_view(&mut self, view: &GroupView, out: &mut Emitter<i64>) {
        self.probe.view_len.store(view.len(), Ordering::SeqCst);
        if self.post_view_op_at_len == Some(view.len()) && self.me == Some(view.coordinator()) {
            self.post_view_op_at_len = None;
            out.osend(10, OccursAfter::none());
        }
    }
}

/// Polls `cond` until it holds or `timeout` elapses.
fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

#[test]
fn tcp_cluster_survives_member_crash_and_view_change() {
    let n = 3usize;
    let probes: Vec<Probe> = (0..n).map(|_| Probe::default()).collect();
    let nodes: Vec<CausalNode<Watcher>> = (0..n)
        .map(|i| {
            let mut app = Watcher::new(probes[i].clone());
            // The survivors' coordinator proves liveness in the new view.
            app.post_view_op_at_len = Some(n - 1);
            tcp_member(i, n, app)
        })
        .collect();
    let cluster = LoopbackCluster::spawn(nodes, 11, TcpConfig::default()).unwrap();

    // Every member contributed 1 at start; the full group converges.
    assert!(
        wait_for(Duration::from_secs(15), || probes
            .iter()
            .all(|pr| pr.value.load(Ordering::SeqCst) == n as i64)),
        "initial convergence timed out: {:?}",
        probes
            .iter()
            .map(|pr| pr.value.load(Ordering::SeqCst))
            .collect::<Vec<_>>()
    );

    // Kill the last member for real: its driver threads stop, its
    // listener dies, its heartbeats cease.
    cluster.handle(n - 1).request_stop();

    // Survivors suspect it, flush, and install the shrunken view; the new
    // coordinator then emits 10, which must reach every survivor.
    let survivors = 0..n - 1;
    assert!(
        wait_for(Duration::from_secs(30), || survivors.clone().all(|i| {
            probes[i].view_len.load(Ordering::SeqCst) == n - 1
                && probes[i].value.load(Ordering::SeqCst) == n as i64 + 10
        })),
        "post-crash convergence timed out: views {:?}, values {:?}",
        probes
            .iter()
            .map(|pr| pr.view_len.load(Ordering::SeqCst))
            .collect::<Vec<_>>(),
        probes
            .iter()
            .map(|pr| pr.value.load(Ordering::SeqCst))
            .collect::<Vec<_>>()
    );

    let expected_view = GroupView::initial(n).without(p(n as u32 - 1));
    for (i, (node, _stats)) in cluster.shutdown().into_iter().enumerate() {
        if i < n - 1 {
            assert_eq!(node.view(), &expected_view, "survivor {i}");
            assert_eq!(node.app().value, n as i64 + 10, "survivor {i}");
            assert!(!node.is_flushing(), "survivor {i} stuck in flush");
        }
    }
}

#[test]
fn tcp_crash_racing_in_flight_message_is_flushed_not_lost() {
    // p2 broadcasts an op and is killed moments later — after at least
    // one survivor received it, possibly before the other did. Virtual
    // synchrony requires the survivors to agree: the flush re-broadcasts
    // what any survivor saw, and duplicate suppression absorbs overlap,
    // so the op is delivered everywhere exactly once.
    let n = 3usize;
    let probes: Vec<Probe> = (0..n).map(|_| Probe::default()).collect();
    let nodes: Vec<CausalNode<Watcher>> = (0..n)
        .map(|i| {
            let mut app = Watcher::new(probes[i].clone());
            if i == n - 1 {
                // Once p2 has seen the whole initial round, it emits 5.
                app.emit_at_applied = Some(n as u64);
            }
            tcp_member(i, n, app)
        })
        .collect();
    let cluster = LoopbackCluster::spawn(nodes, 23, TcpConfig::default()).unwrap();

    // Wait until p0 has delivered p2's extra op (value n + 5), then kill
    // p2 immediately — p1 may or may not have received its direct copy.
    assert!(
        wait_for(Duration::from_secs(15), || {
            probes[0].value.load(Ordering::SeqCst) == n as i64 + 5
        }),
        "p0 never delivered the racing op"
    );
    cluster.handle(n - 1).request_stop();

    // Both survivors must end with the op applied exactly once.
    let survivors = 0..n - 1;
    assert!(
        wait_for(Duration::from_secs(30), || survivors.clone().all(|i| {
            probes[i].view_len.load(Ordering::SeqCst) == n - 1
                && probes[i].value.load(Ordering::SeqCst) == n as i64 + 5
        })),
        "flush did not spread the racing op: views {:?}, values {:?}",
        probes
            .iter()
            .map(|pr| pr.view_len.load(Ordering::SeqCst))
            .collect::<Vec<_>>(),
        probes
            .iter()
            .map(|pr| pr.value.load(Ordering::SeqCst))
            .collect::<Vec<_>>()
    );

    for (i, (node, _stats)) in cluster.shutdown().into_iter().enumerate() {
        if i < n - 1 {
            // Exactly n initial ops + the racing op: no loss, no dup.
            assert_eq!(node.app().applied, n as u64 + 1, "survivor {i}");
            assert_eq!(node.app().value, n as i64 + 5, "survivor {i}");
            assert_eq!(node.view().len(), n - 1, "survivor {i}");
        }
    }
}
