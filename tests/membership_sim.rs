//! The view-change machine over the simulator, with no data path: each
//! member routes the machine's messages to their handlers, heartbeats and
//! checks on the stack's default periods (P/4 and P/2), and flushes at
//! once (it has nothing to relay). A member crashes; the survivors
//! install the smaller view virtually synchronously.

use causal_broadcast::clocks::ProcessId;
use causal_broadcast::core::stack::{
    VsyncConfig, ACK_TICKS_PER_RETRANSMIT, CHECKS_PER_RETRANSMIT, MEMBERSHIP_RETRANSMIT,
};
use causal_broadcast::membership::{GroupView, ManagerAction, MembershipMsg, ViewManager};
use causal_broadcast::simnet::{
    Actor, Context, LatencyModel, NetConfig, SimDuration, SimTime, Simulation,
};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

const TIMER_HB: u64 = 1;
const TIMER_CHECK: u64 = 2;

/// A frame between members: a heartbeat, or a message of the machine.
#[derive(Debug, Clone)]
enum Frame {
    Heartbeat,
    Membership(MembershipMsg),
}

struct Member {
    manager: ViewManager,
    heartbeat_period: SimDuration,
    check_period: SimDuration,
    /// Simulated crash time (stop sending/acking after this), if any.
    crash_at: Option<SimTime>,
    installed: Vec<GroupView>,
}

impl Member {
    fn new(me: ProcessId, n: usize, crash_at: Option<SimTime>) -> Self {
        let config = VsyncConfig::default();
        let suspect_after = config.suspect_after.as_micros();
        Member {
            manager: ViewManager::new(me, GroupView::initial(n), suspect_after),
            heartbeat_period: MEMBERSHIP_RETRANSMIT / ACK_TICKS_PER_RETRANSMIT,
            check_period: MEMBERSHIP_RETRANSMIT / CHECKS_PER_RETRANSMIT,
            crash_at,
            installed: Vec::new(),
        }
    }

    fn crashed(&self, now: SimTime) -> bool {
        self.crash_at.is_some_and(|t| now >= t)
    }

    fn perform(&mut self, ctx: &mut Context<'_, Frame>, actions: Vec<ManagerAction>) {
        for action in actions {
            match action {
                ManagerAction::Send { to, msg } => ctx.send(to, Frame::Membership(msg)),
                ManagerAction::BeginFlush { .. } => {
                    let done = self.manager.flush_done(ctx.now().as_micros());
                    self.perform(ctx, done);
                }
                ManagerAction::Installed { view, .. } => self.installed.push(view),
            }
        }
    }
}

impl Actor for Member {
    type Msg = Frame;

    fn on_start(&mut self, ctx: &mut Context<'_, Frame>) {
        ctx.set_timer(self.heartbeat_period, TIMER_HB);
        ctx.set_timer(self.check_period, TIMER_CHECK);
        let actions = self.manager.start(ctx.now().as_micros());
        self.perform(ctx, actions);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Frame>, from: ProcessId, frame: Frame) {
        if self.crashed(ctx.now()) {
            return; // a crashed member is silent
        }
        let now = ctx.now().as_micros();
        let m = &mut self.manager;
        m.observe(from, now);
        let actions = match frame {
            Frame::Heartbeat => Vec::new(),
            Frame::Membership(MembershipMsg::Propose(view)) => m.on_propose(from, view),
            Frame::Membership(MembershipMsg::FlushAck(id)) => m.on_flush_ack(now, from, id),
            Frame::Membership(MembershipMsg::Install(view)) => m.on_install(now, view),
            Frame::Membership(MembershipMsg::JoinReq { joiner }) => m.on_join_req(joiner),
        };
        self.perform(ctx, actions);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Frame>, tag: u64) {
        // Stop timers eventually so the simulation quiesces.
        if self.crashed(ctx.now()) || ctx.now() > SimTime::from_millis(60) {
            return;
        }
        match tag {
            TIMER_HB => {
                for m in self.manager.current().members().to_vec() {
                    if m != ctx.me() {
                        ctx.send(m, Frame::Heartbeat);
                    }
                }
                ctx.set_timer(self.heartbeat_period, TIMER_HB);
            }
            TIMER_CHECK => {
                let actions = self.manager.on_check(ctx.now().as_micros());
                self.perform(ctx, actions);
                ctx.set_timer(self.check_period, TIMER_CHECK);
            }
            _ => {}
        }
    }
}

#[test]
fn crashed_member_is_removed_from_the_view() {
    let n = 4;
    // p2 crashes at t = 10ms.
    let nodes: Vec<Member> = (0..n as u32)
        .map(|i| {
            let crash = (i == 2).then(|| SimTime::from_millis(10));
            Member::new(p(i), n, crash)
        })
        .collect();
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 900));
    let mut sim = Simulation::new(nodes, cfg, 4);
    sim.run_to_quiescence();

    let expected = GroupView::initial(n).without(p(2));
    for i in [0u32, 1, 3] {
        let member = sim.node(p(i));
        assert_eq!(
            member.manager.current(),
            &expected,
            "member {i} should have installed the shrunken view"
        );
        assert_eq!(member.installed, vec![expected.clone()]);
    }
    // The crashed member never installed anything after its crash.
    assert!(sim.node(p(2)).installed.is_empty());
}

#[test]
fn stable_group_never_changes_view() {
    let n = 3;
    let nodes: Vec<Member> = (0..n as u32).map(|i| Member::new(p(i), n, None)).collect();
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 900));
    let mut sim = Simulation::new(nodes, cfg, 8);
    sim.run_to_quiescence();
    for i in 0..n as u32 {
        assert_eq!(sim.node(p(i)).manager.current(), &GroupView::initial(n));
        assert!(sim.node(p(i)).installed.is_empty());
    }
}
