//! The view-change protocol as one sans-IO machine.
//!
//! Simplified virtual synchrony in the style of ISIS (Birman & Joseph
//! 1987). [`ViewManager`] makes every membership decision of one member:
//!
//! - **failure detection**: a member of the current view is suspected
//!   once no frame of any kind has come from it for longer than
//!   `suspect_after`;
//! - **proposal**: at the check tick the lowest-ranked unsuspected member
//!   proposes the view without the lowest suspect (coordinator takeover,
//!   when the coordinator is the silent one), and the coordinator
//!   proposes the view with a joiner when its `JoinReq` arrives;
//! - **flush**: every survivor stops sending, has its host relay what it
//!   delivered from the removed members, and acknowledges to the
//!   proposer;
//! - **install**: once every survivor has acknowledged, the proposer
//!   installs the view and sends it to every other member of it;
//! - **retries**: membership messages ride no reliability layer, so at
//!   each check tick the proposer re-sends its proposal and every other
//!   survivor its ack; a member that acks, or a joiner that asks, for a
//!   view already installed gets the `Install` again; a joiner re-asks at
//!   each check tick until it is admitted.
//!
//! The flush barrier guarantees every application message is delivered in
//! the view it was sent in.

use crate::{GroupView, ViewId};
use causal_clocks::ProcessId;
use std::collections::{BTreeMap, BTreeSet};

/// A message of the view-change protocol: [`ViewManager`] builds it, and
/// the host carries it to the recipient's machine and calls the matching
/// handler (`Propose` → [`ViewManager::on_propose`], and so on).
/// Heartbeats are the host's own: any frame proves liveness, and the host
/// reports each through [`ViewManager::observe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipMsg {
    /// The proposer asks the survivors to flush for the next view.
    Propose(GroupView),
    /// A survivor has flushed for the proposed view.
    FlushAck(ViewId),
    /// The proposer finalizes the view.
    Install(GroupView),
    /// A node outside the group asks to be admitted (relayed to the
    /// coordinator if the contacted member is not it).
    JoinReq {
        /// The node requesting admission.
        joiner: ProcessId,
    },
}

/// An instruction emitted by the [`ViewManager`] for the hosting node to
/// carry out, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManagerAction {
    /// Send `msg` to `to`.
    Send {
        /// The recipient.
        to: ProcessId,
        /// The message.
        msg: MembershipMsg,
    },
    /// Relay every message delivered from the `removed` members to `to`
    /// (the other members of the next view), then call
    /// [`ViewManager::flush_done`] and carry out what it returns before
    /// the actions after this one.
    BeginFlush {
        /// Members of the current view that the next view drops.
        removed: Vec<ProcessId>,
        /// The relay's recipients.
        to: Vec<ProcessId>,
    },
    /// The view is installed: reconfigure for it and hand it to the
    /// application.
    Installed {
        /// The installed view.
        view: GroupView,
        /// `true` at a joiner's first install: the node was just admitted.
        joined: bool,
    },
}

/// Per-node view-change state machine.
///
/// Sans-IO: the host feeds it each frame's liveness
/// ([`observe`](Self::observe)), the four membership messages (one method
/// per message: [`on_propose`](Self::on_propose),
/// [`on_flush_ack`](Self::on_flush_ack), [`on_install`](Self::on_install),
/// [`on_join_req`](Self::on_join_req)) and the check tick
/// ([`on_check`](Self::on_check)). Each input returns the
/// [`ManagerAction`]s the host must perform. Time is an opaque `u64` in
/// the unit of `suspect_after` (the stack passes microseconds).
///
/// # Examples
///
/// A three-member group removing a silent member:
///
/// ```
/// use causal_clocks::ProcessId;
/// use causal_membership::{GroupView, ManagerAction, MembershipMsg, ViewManager};
///
/// let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
/// let view = GroupView::initial(3);
/// let mut coord = ViewManager::new(p0, view.clone(), 1_000);
/// let mut peer = ViewManager::new(p1, view.clone(), 1_000);
/// coord.start(0);
/// peer.start(0);
///
/// // At 2 ms p0 has heard from p1 but not from p2: it proposes.
/// coord.observe(p1, 1_500);
/// let actions = coord.on_check(2_000);
/// assert!(matches!(actions[0], ManagerAction::BeginFlush { .. }));
/// let next = view.without(ProcessId::new(2));
/// let propose = MembershipMsg::Propose(next.clone());
/// assert_eq!(actions[1], ManagerAction::Send { to: p1, msg: propose });
/// assert!(coord.flush_done(2_000).is_empty()); // p1 has not acked yet
///
/// // p1 flushes and acks; the ack installs the view at p0.
/// assert!(matches!(peer.on_propose(p0, next.clone())[0], ManagerAction::BeginFlush { .. }));
/// let ack = MembershipMsg::FlushAck(next.id());
/// assert_eq!(peer.flush_done(2_100), vec![ManagerAction::Send { to: p0, msg: ack }]);
/// let install = coord.on_flush_ack(2_200, p1, next.id());
/// assert!(install.contains(&ManagerAction::Installed { view: next.clone(), joined: false }));
/// assert_eq!(coord.current(), &next);
/// ```
#[derive(Debug, Clone)]
pub struct ViewManager {
    me: ProcessId,
    current: GroupView,
    /// The view being flushed for, and the member that proposed it.
    pending: Option<(GroupView, ProcessId)>,
    /// Survivors that have flushed for the pending view (at its proposer).
    acks: BTreeSet<ProcessId>,
    /// When each other member of the current view was last heard from.
    last_seen: BTreeMap<ProcessId, u64>,
    suspect_after: u64,
    /// While outside the group: the member asked for admission.
    contact: Option<ProcessId>,
}

impl ViewManager {
    /// Creates the machine of member `me` of the view `initial`, which
    /// suspects a member silent for longer than `suspect_after`.
    ///
    /// # Panics
    ///
    /// If `suspect_after` is zero: every member would be suspected at
    /// every check.
    pub fn new(me: ProcessId, initial: GroupView, suspect_after: u64) -> Self {
        assert!(suspect_after > 0, "suspicion timeout must be positive");
        ViewManager {
            me,
            current: initial,
            pending: None,
            acks: BTreeSet::new(),
            last_seen: BTreeMap::new(),
            suspect_after,
            contact: None,
        }
    }

    /// Creates the machine of a node outside the group that asks `contact`
    /// to admit it. Until its first view installs, its current view holds
    /// only itself.
    pub fn joining(me: ProcessId, contact: ProcessId, suspect_after: u64) -> Self {
        ViewManager {
            contact: Some(contact),
            ..Self::new(me, GroupView::new(ViewId::initial(), [me]), suspect_after)
        }
    }

    /// The currently installed view.
    pub fn current(&self) -> &GroupView {
        &self.current
    }

    /// `true` while a change is in progress: the application must not
    /// send until the next view is installed.
    pub fn is_flushing(&self) -> bool {
        self.pending.is_some()
    }

    /// `true` while this node is outside the group awaiting its first
    /// installed view.
    pub fn is_joining(&self) -> bool {
        self.contact.is_some()
    }

    /// Starts the machine at local time `now`: a member treats every other
    /// member as heard from; a joiner asks its contact for admission.
    pub fn start(&mut self, now: u64) -> Vec<ManagerAction> {
        if let Some(contact) = self.contact {
            return vec![self.join_req(contact)];
        }
        for m in self.current.members().to_vec() {
            self.observe(m, now);
        }
        Vec::new()
    }

    /// Records a frame from `from` at local time `now`: all traffic proves
    /// liveness. Frames from outside the current view are ignored.
    pub fn observe(&mut self, from: ProcessId, now: u64) {
        if from != self.me && self.current.contains(from) {
            let seen = self.last_seen.entry(from).or_insert(now);
            *seen = (*seen).max(now);
        }
    }

    /// A proposal from `from`. Stale or conflicting proposals are ignored;
    /// a **re-proposal** of the pending view flushes again, so a lost
    /// acknowledgement is regenerated.
    pub fn on_propose(&mut self, from: ProcessId, view: GroupView) -> Vec<ManagerAction> {
        if self.pending.as_ref().map(|(v, _)| v) == Some(&view) {
            return vec![self.begin_flush(&view)];
        }
        if view.id() != self.current.id().next() || self.pending.is_some() {
            return Vec::new();
        }
        let flush = self.begin_flush(&view);
        self.pending = Some((view, from));
        vec![flush]
    }

    /// The host has flushed for the pending view: a survivor acks to the
    /// proposer; the proposer records its own ack (and may install).
    pub fn flush_done(&mut self, now: u64) -> Vec<ManagerAction> {
        match &self.pending {
            None => Vec::new(),
            Some((_, proposer)) if *proposer == self.me => self.record_ack(self.me, now),
            Some((view, proposer)) => vec![send(*proposer, MembershipMsg::FlushAck(view.id()))],
        }
    }

    /// A flush acknowledgement from `from`. Once every survivor (the
    /// proposer included) has acknowledged, the view installs here and
    /// goes to its other members. An ack for the view already installed
    /// means its sender missed the `Install`: it is sent again.
    pub fn on_flush_ack(
        &mut self,
        now: u64,
        from: ProcessId,
        view_id: ViewId,
    ) -> Vec<ManagerAction> {
        match &self.pending {
            None if view_id == self.current.id() => {
                vec![send(from, MembershipMsg::Install(self.current.clone()))]
            }
            Some((view, _)) if view.id() == view_id => self.record_ack(from, now),
            _ => Vec::new(),
        }
    }

    /// The proposer's install message. Views not newer than the current
    /// one are ignored.
    pub fn on_install(&mut self, now: u64, view: GroupView) -> Vec<ManagerAction> {
        if view.id() <= self.current.id() {
            return Vec::new();
        }
        vec![self.install(view, now)]
    }

    /// A request to admit `joiner`. A joiner already admitted missed its
    /// `Install` and gets it again; a member other than the coordinator
    /// relays the request to it; the coordinator proposes the view with
    /// the joiner unless a change is already pending, in which case the
    /// joiner's retry covers it.
    pub fn on_join_req(&mut self, joiner: ProcessId) -> Vec<ManagerAction> {
        let coordinator = self.current.coordinator();
        if self.current.contains(joiner) {
            vec![send(joiner, MembershipMsg::Install(self.current.clone()))]
        } else if coordinator != self.me {
            vec![send(coordinator, MembershipMsg::JoinReq { joiner })]
        } else if self.pending.is_none() {
            self.propose(self.current.with(joiner))
        } else {
            Vec::new()
        }
    }

    /// The check tick at local time `now`. A joiner not yet admitted asks
    /// its contact again. While a change is pending, its proposer re-sends
    /// the proposal and every other survivor its ack. Otherwise, if some
    /// member is suspected and every member ranked below this one is too,
    /// this member proposes the view without the lowest suspect.
    pub fn on_check(&mut self, now: u64) -> Vec<ManagerAction> {
        if let Some(contact) = self.contact {
            return vec![self.join_req(contact)];
        }
        match &self.pending {
            Some((view, proposer)) if *proposer == self.me => self
                .others_surviving(view)
                .into_iter()
                .map(|m| send(m, MembershipMsg::Propose(view.clone())))
                .collect(),
            Some((view, proposer)) => vec![send(*proposer, MembershipMsg::FlushAck(view.id()))],
            None => {
                let suspects: Vec<ProcessId> = self
                    .last_seen
                    .iter()
                    .filter(|(_, &seen)| now.saturating_sub(seen) > self.suspect_after)
                    .map(|(&m, _)| m)
                    .collect();
                let Some(&dead) = suspects.first() else {
                    return Vec::new();
                };
                let lowest_alive = self
                    .current
                    .members()
                    .iter()
                    .take_while(|&&m| m != self.me)
                    .all(|m| suspects.contains(m));
                if !lowest_alive {
                    return Vec::new();
                }
                self.propose(self.current.without(dead))
            }
        }
    }

    fn join_req(&self, contact: ProcessId) -> ManagerAction {
        send(contact, MembershipMsg::JoinReq { joiner: self.me })
    }

    /// Proposes `next`, which must succeed the current view, with no
    /// change pending: flush locally, then ask the other survivors.
    fn propose(&mut self, next: GroupView) -> Vec<ManagerAction> {
        let mut actions = vec![self.begin_flush(&next)];
        actions.extend(
            self.others_surviving(&next)
                .into_iter()
                .map(|m| send(m, MembershipMsg::Propose(next.clone()))),
        );
        self.pending = Some((next, self.me));
        self.acks.clear();
        actions
    }

    /// Asks the host to flush for `next`: to relay what it delivered from
    /// the members `next` drops to the other members of `next`.
    fn begin_flush(&self, next: &GroupView) -> ManagerAction {
        ManagerAction::BeginFlush {
            removed: self
                .current
                .members()
                .iter()
                .copied()
                .filter(|&m| !next.contains(m))
                .collect(),
            to: next
                .members()
                .iter()
                .copied()
                .filter(|&m| m != self.me)
                .collect(),
        }
    }

    /// Members of the current view that stay in `next` (the ones that
    /// must flush), this member excepted.
    fn others_surviving(&self, next: &GroupView) -> Vec<ProcessId> {
        self.current
            .members()
            .iter()
            .copied()
            .filter(|&m| m != self.me && next.contains(m))
            .collect()
    }

    fn record_ack(&mut self, from: ProcessId, now: u64) -> Vec<ManagerAction> {
        self.acks.insert(from);
        let Some((view, _)) = &self.pending else {
            return Vec::new();
        };
        let all_flushed = self
            .current
            .members()
            .iter()
            .filter(|&&m| view.contains(m))
            .all(|m| self.acks.contains(m));
        if !all_flushed {
            return Vec::new();
        }
        let view = view.clone();
        let mut actions: Vec<ManagerAction> = view
            .members()
            .iter()
            .filter(|&&m| m != self.me)
            .map(|&m| send(m, MembershipMsg::Install(view.clone())))
            .collect();
        actions.push(self.install(view, now));
        actions
    }

    /// Installs `view` at local time `now`: removed members stop being
    /// watched, and added ones count as heard from now.
    fn install(&mut self, view: GroupView, now: u64) -> ManagerAction {
        self.last_seen.retain(|m, _| view.contains(*m));
        for &m in view.members() {
            if m != self.me && !self.current.contains(m) {
                self.last_seen.insert(m, now);
            }
        }
        self.current = view.clone();
        self.pending = None;
        self.acks.clear();
        ManagerAction::Installed {
            view,
            joined: self.contact.take().is_some(),
        }
    }
}

fn send(to: ProcessId, msg: MembershipMsg) -> ManagerAction {
    ManagerAction::Send { to, msg }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUSPECT: u64 = 1_000;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Started machines of a group of `n`, every member heard from at 0.
    fn members(n: usize) -> Vec<ViewManager> {
        let view = GroupView::initial(n);
        (0..n)
            .map(|i| {
                let mut m = ViewManager::new(p(i as u32), view.clone(), SUSPECT);
                assert!(m.start(0).is_empty());
                m
            })
            .collect()
    }

    fn to(to: u32, msg: MembershipMsg) -> ManagerAction {
        ManagerAction::Send { to: p(to), msg }
    }

    fn installed(view: &GroupView) -> ManagerAction {
        ManagerAction::Installed {
            view: view.clone(),
            joined: false,
        }
    }

    /// Drives a remove-member change by hand: p2 falls silent, p0 proposes,
    /// p1 flushes and acks, p0 installs and tells p1.
    #[test]
    fn silent_member_is_removed() {
        let mut ms = members(3);
        let next = ms[0].current().without(p(2));
        ms[0].observe(p(1), 1_500);
        assert!(ms[0].on_check(1_000).is_empty(), "not yet silent for long");
        let actions = ms[0].on_check(2_000);
        assert_eq!(
            actions,
            vec![
                ManagerAction::BeginFlush {
                    removed: vec![p(2)],
                    to: vec![p(1)],
                },
                to(1, MembershipMsg::Propose(next.clone())),
            ]
        );
        assert!(ms[0].is_flushing());
        assert!(ms[0].flush_done(2_000).is_empty(), "p1 still to ack");

        let flush = ms[1].on_propose(p(0), next.clone());
        assert!(matches!(flush[..], [ManagerAction::BeginFlush { .. }]));
        let ack = ms[1].flush_done(2_100);
        assert_eq!(ack, vec![to(0, MembershipMsg::FlushAck(next.id()))]);

        let install = ms[0].on_flush_ack(2_200, p(1), next.id());
        assert_eq!(
            install,
            vec![
                to(1, MembershipMsg::Install(next.clone())),
                installed(&next)
            ]
        );
        assert_eq!(ms[0].current(), &next);
        assert!(!ms[0].is_flushing());

        let done = ms[1].on_install(2_300, next.clone());
        assert_eq!(done, vec![installed(&next)]);
        assert_eq!(ms[1].current(), &next);

        // The removed member is no longer watched.
        ms[0].observe(p(1), 9_000);
        assert!(ms[0].on_check(9_500).is_empty());
    }

    #[test]
    fn heard_members_are_not_suspected() {
        let mut ms = members(3);
        ms[0].observe(p(1), 1_500);
        ms[0].observe(p(2), 1_900);
        ms[0].observe(p(2), 100); // a stale observation changes nothing
        assert!(ms[0].on_check(2_500).is_empty());
        // Frames from outside the view prove nothing.
        ms[0].observe(p(7), 2_500);
        assert!(ms[0].on_check(2_500).is_empty());
    }

    #[test]
    fn lowest_unsuspected_member_takes_over() {
        let mut ms = members(4);
        // p0 (the coordinator) and p2 fall silent; p1 and p3 hear each other.
        ms[1].observe(p(3), 1_800);
        ms[3].observe(p(1), 1_800);
        let next = ms[1].current().without(p(0));
        let takeover = ms[1].on_check(2_000);
        assert_eq!(
            takeover,
            vec![
                ManagerAction::BeginFlush {
                    removed: vec![p(0)],
                    to: vec![p(2), p(3)],
                },
                to(2, MembershipMsg::Propose(next.clone())),
                to(3, MembershipMsg::Propose(next.clone())),
            ]
        );
        // p3 suspects p0 and p2 too, but p1 ranks below it and is heard.
        assert!(ms[3].on_check(2_000).is_empty());
    }

    #[test]
    fn pending_change_is_retried_at_the_check_tick() {
        let mut ms = members(3);
        ms[0].observe(p(1), 1_500);
        let next = ms[0].current().without(p(2));
        ms[0].on_check(2_000);
        ms[0].flush_done(2_000);
        ms[1].on_propose(p(0), next.clone());
        ms[1].flush_done(2_100);
        // Both messages were lost: the proposer re-proposes, the survivor
        // re-acks, and a re-proposal flushes again.
        assert_eq!(
            ms[0].on_check(4_000),
            vec![to(1, MembershipMsg::Propose(next.clone()))]
        );
        assert_eq!(
            ms[1].on_check(4_000),
            vec![to(0, MembershipMsg::FlushAck(next.id()))]
        );
        let again = ms[1].on_propose(p(0), next.clone());
        assert!(matches!(again[..], [ManagerAction::BeginFlush { .. }]));
        // A conflicting proposal for the same view id is ignored.
        let conflicting = ms[1].current().without(p(1));
        assert!(ms[1].on_propose(p(0), conflicting).is_empty());
    }

    #[test]
    fn flush_ack_for_the_installed_view_resends_install() {
        let mut ms = members(3);
        ms[0].observe(p(1), 1_500);
        let next = ms[0].current().without(p(2));
        ms[0].on_check(2_000);
        ms[0].flush_done(2_000);
        ms[0].on_flush_ack(2_200, p(1), next.id());
        // p1 missed the Install and re-acks at its next check tick.
        assert_eq!(
            ms[0].on_flush_ack(4_000, p(1), next.id()),
            vec![to(1, MembershipMsg::Install(next.clone()))]
        );
        // Acks for other views are stale.
        assert!(ms[0].on_flush_ack(4_000, p(1), next.id().next()).is_empty());
        assert!(ms[2].on_flush_ack(4_000, p(1), next.id()).is_empty());
    }

    #[test]
    fn stale_and_skipping_views_are_ignored() {
        let mut ms = members(2);
        let stale = GroupView::new(ViewId::initial(), [p(0)]);
        assert!(ms[1].on_install(0, stale).is_empty());
        let skipping = GroupView::new(ViewId::initial().next().next(), [p(0), p(1)]);
        assert!(ms[1].on_propose(p(0), skipping).is_empty());
        assert!(!ms[1].is_flushing());
    }

    #[test]
    fn non_coordinator_relays_a_join_request() {
        let mut ms = members(3);
        assert_eq!(
            ms[1].on_join_req(p(5)),
            vec![to(0, MembershipMsg::JoinReq { joiner: p(5) })]
        );
    }

    #[test]
    fn joiner_is_admitted_and_a_repeated_request_gets_install_back() {
        let mut ms = members(2);
        let mut joiner = ViewManager::joining(p(5), p(1), SUSPECT);
        let ask = joiner.start(0);
        assert_eq!(ask, vec![to(1, MembershipMsg::JoinReq { joiner: p(5) })]);
        let relay = ms[1].on_join_req(p(5));
        assert_eq!(relay, vec![to(0, MembershipMsg::JoinReq { joiner: p(5) })]);

        // The coordinator proposes to the survivors only; the joiner
        // learns of the view from the Install.
        let next = ms[0].current().with(p(5));
        let propose = ms[0].on_join_req(p(5));
        assert_eq!(
            propose,
            vec![
                ManagerAction::BeginFlush {
                    removed: vec![],
                    to: vec![p(1), p(5)],
                },
                to(1, MembershipMsg::Propose(next.clone())),
            ]
        );
        // A second request while the change is pending waits for a retry.
        assert!(ms[0].on_join_req(p(6)).is_empty());
        ms[0].flush_done(20);
        ms[1].on_propose(p(0), next.clone());
        ms[1].flush_done(30);
        let install = ms[0].on_flush_ack(40, p(1), next.id());
        assert_eq!(
            install,
            vec![
                to(1, MembershipMsg::Install(next.clone())),
                to(5, MembershipMsg::Install(next.clone())),
                installed(&next),
            ]
        );
        assert_eq!(
            joiner.on_install(50, next.clone()),
            vec![ManagerAction::Installed {
                view: next.clone(),
                joined: true,
            }]
        );
        assert!(!joiner.is_joining());
        assert_eq!(joiner.current(), &next);

        // A joiner that missed its Install asks again and gets it back.
        ms[1].on_install(60, next.clone());
        assert_eq!(
            ms[1].on_join_req(p(5)),
            vec![to(5, MembershipMsg::Install(next.clone()))]
        );
    }

    #[test]
    fn joiner_asks_again_at_each_retry_until_admitted() {
        let mut joiner = ViewManager::joining(p(3), p(0), SUSPECT);
        let ask = vec![to(0, MembershipMsg::JoinReq { joiner: p(3) })];
        assert_eq!(joiner.start(0), ask);
        assert_eq!(joiner.on_check(2_000), ask);
        // Outside the group it watches no one: however long the wait, it
        // only asks again.
        assert_eq!(joiner.on_check(1_000_000), ask);
        joiner.on_install(1_000_010, GroupView::initial(3).with(p(3)));
        assert!(joiner.on_check(1_000_020).is_empty());
    }

    #[test]
    fn installed_members_are_watched_from_their_install() {
        let mut joiner = ViewManager::joining(p(3), p(0), SUSPECT);
        joiner.start(0);
        let view = GroupView::initial(3).with(p(3));
        joiner.on_install(5_000, view.clone());
        assert!(joiner.on_check(5_900).is_empty());
        // Only p0 is heard from after the install; p1 is the lowest suspect.
        joiner.observe(p(0), 6_000);
        joiner.observe(p(2), 6_000);
        let actions = joiner.on_check(6_100);
        assert!(
            actions.is_empty(),
            "p0 ranks below p3 and is heard: {actions:?}"
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_timeout_rejected() {
        let _ = ViewManager::new(p(0), GroupView::initial(2), 0);
    }

    #[test]
    fn lone_survivor_installs_at_once() {
        let mut ms = members(2);
        let next = ms[0].current().without(p(1));
        let actions = ms[0].on_check(2_000);
        assert_eq!(
            actions,
            vec![ManagerAction::BeginFlush {
                removed: vec![p(1)],
                to: vec![],
            }]
        );
        assert_eq!(ms[0].flush_done(2_000), vec![installed(&next)]);
        assert_eq!(ms[0].current(), &next);
    }
}
