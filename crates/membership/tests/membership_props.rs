//! Property tests for the view-change machine: arbitrary sequences of
//! joins and crashes, routed to completion over a loss-free network,
//! leave every member with the identical view.

use causal_clocks::ProcessId;
use causal_membership::{GroupView, ManagerAction, MembershipMsg, ViewManager};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

const SUSPECT_AFTER: u64 = 1_000;

/// One membership change.
#[derive(Debug, Clone, Copy)]
enum Change {
    Join(u32),
    Crash(u32),
}

fn arb_changes() -> impl Strategy<Value = Vec<Change>> {
    proptest::collection::vec(
        prop_oneof![
            (4u32..9).prop_map(Change::Join),
            (0u32..9).prop_map(Change::Crash),
        ],
        1..6,
    )
}

/// Machines on a loss-free, in-order network sharing one clock.
struct Group {
    machines: BTreeMap<ProcessId, ViewManager>,
    now: u64,
    queue: VecDeque<(ProcessId, ProcessId, MembershipMsg)>,
}

impl Group {
    fn new(n: usize) -> Self {
        let mut machines = BTreeMap::new();
        for p in GroupView::initial(n).members() {
            let mut m = ViewManager::new(*p, GroupView::initial(n), SUSPECT_AFTER);
            assert!(m.start(0).is_empty());
            machines.insert(*p, m);
        }
        Group {
            machines,
            now: 0,
            queue: VecDeque::new(),
        }
    }

    fn view(&self) -> &GroupView {
        self.machines.values().next().unwrap().current()
    }

    fn perform(&mut self, who: ProcessId, actions: Vec<ManagerAction>) {
        for action in actions {
            match action {
                ManagerAction::Send { to, msg } => self.queue.push_back((who, to, msg)),
                ManagerAction::BeginFlush { .. } => {
                    let done = self.machines.get_mut(&who).unwrap().flush_done(self.now);
                    self.perform(who, done);
                }
                ManagerAction::Installed { .. } => {}
            }
        }
    }

    /// Delivers every queued message, its liveness first, and what it
    /// triggers; a message to a crashed node is lost.
    fn settle(&mut self) {
        let mut steps = 0;
        while let Some((from, to, msg)) = self.queue.pop_front() {
            steps += 1;
            assert!(steps < 10_000, "membership protocol did not terminate");
            let Some(m) = self.machines.get_mut(&to) else {
                continue;
            };
            let now = self.now;
            m.observe(from, now);
            let actions = match msg {
                MembershipMsg::Propose(view) => m.on_propose(from, view),
                MembershipMsg::FlushAck(view_id) => m.on_flush_ack(now, from, view_id),
                MembershipMsg::Install(view) => m.on_install(now, view),
                MembershipMsg::JoinReq { joiner } => m.on_join_req(joiner),
            };
            self.perform(to, actions);
        }
    }

    /// Lets more than the suspicion timeout pass, in which every live node
    /// hears from every other, then runs every node's check tick.
    fn tick(&mut self) {
        self.now += SUSPECT_AFTER + 1;
        let live: Vec<ProcessId> = self.machines.keys().copied().collect();
        for &to in &live {
            let m = self.machines.get_mut(&to).unwrap();
            for &from in &live {
                m.observe(from, self.now);
            }
        }
        for who in live {
            let actions = self.machines.get_mut(&who).unwrap().on_check(self.now);
            self.perform(who, actions);
        }
        self.settle();
    }

    /// Applies one change if it is admissible; returns whether it was.
    fn apply(&mut self, change: Change) -> bool {
        let current = self.view().clone();
        match change {
            Change::Join(i) => {
                let joiner = ProcessId::new(i);
                if current.contains(joiner) {
                    return false;
                }
                // Ask the highest member, so that the request is relayed
                // whenever the group has more than one member.
                let contact = *current.members().last().unwrap();
                let mut machine = ViewManager::joining(joiner, contact, SUSPECT_AFTER);
                let ask = machine.start(self.now);
                self.machines.insert(joiner, machine);
                self.perform(joiner, ask);
                self.settle();
            }
            Change::Crash(i) => {
                let victim = ProcessId::new(i);
                if !current.contains(victim) || current.len() == 1 {
                    return false;
                }
                self.machines.remove(&victim);
                self.tick();
            }
        }
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any admissible sequence of joins and crashes, every remaining
    /// member holds the same current view with the right membership.
    #[test]
    fn members_converge_on_view_history(changes in arb_changes()) {
        let mut group = Group::new(4);
        let mut applied = 0u64;
        for change in changes {
            if group.apply(change) {
                applied += 1;
            }
        }

        let views: Vec<&GroupView> = group.machines.values().map(|m| m.current()).collect();
        for w in views.windows(2) {
            prop_assert_eq!(w[0], w[1]);
        }
        prop_assert_eq!(views[0].id().as_u64(), applied);
        // The view's membership matches the set of live machines.
        let members: Vec<ProcessId> = group.machines.keys().copied().collect();
        prop_assert_eq!(views[0].members(), &members[..]);
    }
}
