//! Closed-loop runs over real TCP on localhost (`causal-net`).

use crate::app::{BenchApp, Clock, ClosedLoop, LoopCtl};
use crate::check::{check_run, Outcome};
use crate::member::{Member, Stack};
use crate::ops::{BenchOp, OpStream};
use crate::sys::process_cpu_s;
use causal_clocks::ProcessId;
use causal_core::delivery::DeliveryEngine;
use causal_core::stack::ProtocolStack;
use causal_core::wire::WireEncode;
use causal_net::{LoopbackCluster, NetSnapshot, TcpConfig};
use causal_simnet::SimDuration;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape of a TCP workload.
#[derive(Debug, Clone, Copy)]
pub struct TcpSpec {
    pub n: usize,
    /// Ops each member has outstanding at start.
    pub window: usize,
    /// Every `nc_period`-th op of a member is non-commutative.
    pub nc_period: u64,
    pub report_every: u64,
    pub poller_shards: usize,
    /// Reliability-layer retransmission period, ms of wall time.
    pub retransmit_ms: u64,
}

/// What one TCP run measured.
pub struct TcpRun<D: DeliveryEngine<Op = BenchOp>> {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub ops: u64,
    pub outcome: Outcome,
    pub members: Vec<Member<D>>,
    /// Per-member transport counters; the shared reactor's counters are
    /// repeated in each.
    pub net: Vec<NetSnapshot>,
}

/// How long the harness waits for a run to deliver everything before it
/// declares the missing ops lost.
const RUN_LIMIT: Duration = Duration::from_secs(60);

/// Runs the closed loop until the group has issued `ops` ops and every
/// member delivered all of them, then shuts the cluster down. The
/// measured phase runs from the first submit to the last delivery.
pub fn run<D>(
    spec: &TcpSpec,
    seed: u64,
    ops: u64,
    traced: bool,
    oracle: bool,
) -> std::io::Result<TcpRun<D>>
where
    D: DeliveryEngine<Op = BenchOp> + Send + 'static,
    D::Envelope: Send,
    <Member<D> as causal_simnet::Actor>::Msg: WireEncode + Send + 'static,
{
    let epoch = Instant::now();
    let ctl = LoopCtl::new(spec.n, ops);
    let members: Vec<Member<D>> = (0..spec.n)
        .map(|i| {
            let me = ProcessId::new(i as u32);
            let mut app = BenchApp::new(me, spec.n, Clock::Wall(epoch));
            app.closed = Some(ClosedLoop {
                ctl: Arc::clone(&ctl),
                stream: OpStream::new(seed, i, spec.nc_period),
                window: spec.window,
                issued: 0,
            });
            let stack: Stack<D> = ProtocolStack::new(me, spec.n, app)
                .with_gc(spec.n, spec.report_every)
                .with_retransmit_every(SimDuration::from_millis(spec.retransmit_ms));
            let stack = if oracle { stack.with_tracing() } else { stack };
            Member::new(stack, traced)
        })
        .collect();
    let config = TcpConfig {
        poller_shards: spec.poller_shards,
        ..TcpConfig::default()
    };
    let cpu0 = process_cpu_s();
    let cluster = LoopbackCluster::spawn(members, seed, config)?;
    let deadline = epoch + RUN_LIMIT;
    while !ctl.drained() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let drained = ctl.drained();
    let cpu_s = process_cpu_s() - cpu0;
    let done = cluster.shutdown();
    let (members, net): (Vec<_>, Vec<_>) = done.into_iter().unzip();

    let first = ctl.first_submit.load(Ordering::Relaxed);
    let setup_s = first as f64 * 1e-9;
    let wall_s = ctl.finished_at().saturating_sub(first) as f64 * 1e-9;
    let sent: Vec<u64> = members
        .iter()
        .map(|m| m.app().closed.as_ref().map_or(0, |c| c.issued))
        .collect();
    let apps: Vec<&BenchApp> = members.iter().map(Member::app).collect();
    let mut outcome = check_run(&apps, &sent, 0, false);
    if !drained || sent.iter().sum::<u64>() != ops {
        outcome.failed = outcome.attempted.max(1);
        outcome.problems.push(format!(
            "run did not deliver {ops} ops within {RUN_LIMIT:?}"
        ));
    }
    Ok(TcpRun {
        setup_s,
        wall_s,
        cpu_s,
        ops,
        outcome,
        members,
        net,
    })
}
