//! The PC-broadcast engine: causal order from FIFO links, O(1) headers.
//!
//! Nédelec, Molli & Mostéfaoui's preventive causal broadcast replaces
//! per-message ordering metadata with a structural invariant: every
//! member forwards what it delivers, in its own delivery order, on every
//! *safe* overlay link. Because each member's delivery order respects
//! causality (inductively) and links are FIFO, any message a link
//! carries is preceded *on that same link* by every causal predecessor
//! the receiver still lacks — so delivering at first reception is causal
//! delivery, and the only per-message control information is the
//! 12-byte message id ([`crate::wire::pc_overhead_bytes`]).
//!
//! # Safe links and the churn quarantine
//!
//! The invariant above holds only for links that carried the full
//! dissemination stream from the moment they opened. A link created
//! mid-run (membership change) has missed history, so it starts
//! **unsafe**: the opener sends no application data on it until a
//! [`LinkBody::Ping`] round-trips. The paper floods the ping through the
//! existing safe-link graph; under a tree overlay a crash can
//! *disconnect* that graph (remove the root of a 3-member star and the
//! two survivors share no safe path), deadlocking a flooded ping — so
//! this implementation sends the ping directly on the fresh link and has
//! the [`LinkBody::Pong`] carry the responder's per-origin delivered
//! watermarks. On pong receipt the opener first flushes, in its own
//! delivery order, every retained delivered message the responder's
//! watermarks do not cover, then marks the link safe. The flush restores
//! exactly the prefix property the invariant needs; the watermark vector
//! costs O(members) **per churn event**, never per message — the same
//! asymmetry virtual synchrony already accepts for view installation.
//!
//! The retained history handed to [`DeliveryEngine::on_link_frame_into`] is
//! the membership layer's flush/replay store, so quarantine costs no
//! extra copies; static groups (no membership) never open a fresh link
//! and never need it.
//!
//! # The per-origin gate
//!
//! Receivers additionally gate delivery on per-origin contiguity:
//! message `(o, s)` is delivered only once `(o, s-1)` has been. On a
//! quiesced overlay the gate never holds anything — first reception *is*
//! causal — but during view transitions a message can briefly arrive
//! ahead of a predecessor travelling a longer path (vsync flush
//! re-broadcasts race overlay forwards); the gate absorbs the race and
//! self-heals when the gap fills. It is also the deduplication point:
//! ids at or below the origin watermark are duplicates.

use super::link::{Link, LinkBody, LinkClock, LinkFrame};
use super::overlay::{tree_position, TreePosition, DEFAULT_FANOUT};
use crate::delivery::{Delivered, DeliveryEngine, LinkDelivery, LinkSend};
use crate::osend::OccursAfter;
use crate::rbcast::HasMsgId;
use crate::stack::Timed;
use causal_clocks::{IdWindow, MsgId, Offer, ProcessId};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// The constant-size PC-broadcast envelope: message identity and
/// payload, nothing else. All ordering information is structural
/// (which link carried it, in what position).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcEnvelope<P> {
    /// Unique message identity (origin + dense per-origin sequence).
    pub id: MsgId,
    /// The application payload.
    pub payload: P,
}

impl<P> HasMsgId for PcEnvelope<P> {
    fn msg_id(&self) -> MsgId {
        self.id
    }
}

/// A message offered to the per-origin gate, and parked there while it
/// waits for its per-origin predecessor.
#[derive(Debug, Clone)]
struct Parked<P> {
    timed: Timed<PcEnvelope<P>>,
    /// The link it arrived on, if any. On delivery it is forwarded on
    /// every other safe link; a message that arrived through the
    /// membership side-channel (flush re-broadcast, joiner replay) was
    /// already multicast to everyone and is not re-forwarded.
    from: Option<ProcessId>,
}

/// The peers a link frame may open a link from.
#[derive(Debug, Clone)]
enum MemberSet {
    /// No view installed yet: the initial group `0..n`.
    Initial(usize),
    /// The members of the last installed view.
    Installed(Vec<ProcessId>),
}

impl MemberSet {
    fn contains(&self, p: ProcessId) -> bool {
        match self {
            MemberSet::Initial(n) => p.as_usize() < *n,
            MemberSet::Installed(members) => members.contains(&p),
        }
    }
}

/// The PC-broadcast [`DeliveryEngine`]: overlay links, FIFO streams, and
/// a per-origin watermark gate. See the [module docs](self) for the
/// algorithm and its safety argument.
#[derive(Debug, Clone)]
pub struct PcEngine<P> {
    me: ProcessId,
    /// This member's place in the overlay tree over `members`; `None`
    /// once a view has removed it.
    tree: Option<TreePosition>,
    /// One entry per overlay neighbor (plus lazily-created entries for
    /// members whose frames arrive before our view installs).
    links: BTreeMap<ProcessId, Link<Timed<PcEnvelope<P>>>>,
    /// Who may open a link by sending a frame.
    members: MemberSet,
    /// The per-origin gate: each origin's floor is its watermark (the
    /// highest contiguously delivered sequence), and the entries are the
    /// messages received ahead of their per-origin predecessor.
    gate: IdWindow<Parked<P>>,
    duplicates: u64,
    /// The bodies one inbound frame's link released, empty between
    /// frames. Kept, like `batch`, so that steady-state frames allocate
    /// nothing.
    released: Vec<LinkBody<Timed<PcEnvelope<P>>>>,
    /// The frames one inbound frame's link sends back to its peer (the
    /// ack, and resends of frames the peer named lost), empty between
    /// frames and kept like `released`.
    replies: Vec<LinkFrame<Timed<PcEnvelope<P>>>>,
    /// What one inbound frame delivered before a pong, for that pong's
    /// flush, empty between frames. Filled only while a handshake is
    /// outstanding (see `deliver`).
    batch: Vec<Timed<PcEnvelope<P>>>,
    /// Ping tokens issued so far.
    next_token: u64,
    /// High-water mark of messages buffered around churn: gate entries,
    /// link reassembly buffers, and the largest single pong flush.
    peak_buffered: usize,
}

impl<P: Clone> PcEngine<P> {
    /// Links whose outbound direction is currently safe (usable for
    /// application data).
    pub fn safe_links(&self) -> usize {
        self.links.values().filter(|l| l.safe).count()
    }

    /// Links still quarantined behind an outstanding ping.
    pub fn quarantined_links(&self) -> usize {
        self.links
            .values()
            .filter(|l| l.pending_ping.is_some())
            .count()
    }

    /// High-water mark of messages buffered around churn (gate + link
    /// reassembly + largest pong flush) — the quantity the PC-broadcast
    /// paper bounds by churn rate rather than group size.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Stream frames retransmitted by the tick across all links.
    pub fn link_retransmit_count(&self) -> u64 {
        self.links.values().map(Link::retransmit_count).sum()
    }

    /// Stream frames resent across all links because the receiver named
    /// them lost.
    pub fn link_repair_count(&self) -> u64 {
        self.links.values().map(Link::repair_count).sum()
    }

    /// Slots the gate has allocated, empty or not.
    #[cfg(test)]
    fn slot_capacity(&self) -> usize {
        self.gate.slot_capacity()
    }

    fn note_buffered(&mut self) {
        let buffered = self.gate.len() + self.links.values().map(Link::buffered).sum::<usize>();
        self.peak_buffered = self.peak_buffered.max(buffered);
    }

    /// Delivers a message the gate released: forwards it on every safe
    /// link except the one it arrived on, and releases it.
    fn deliver(
        &mut self,
        Parked { timed, from }: Parked<P>,
        batch: &mut Vec<Timed<PcEnvelope<P>>>,
        out: &mut LinkDelivery<PcEnvelope<P>>,
    ) {
        if from.is_some() {
            for (&peer, link) in self.links.iter_mut() {
                if link.safe && Some(peer) != from {
                    let frame = link.push(LinkBody::Msg(timed.clone()));
                    out.sends.push((peer, frame));
                }
            }
        }
        // `batch` is only ever read by `on_pong`, which flushes solely on
        // links whose handshake was already outstanding when this call
        // began (`pending_ping` is set in `on_members`, never mid-frame).
        // With every link safe the clone would be dead weight on the
        // steady-state flood path, so skip it.
        if self.links.values().any(|l| l.pending_ping.is_some()) {
            batch.push(timed.clone());
        }
        out.released.push(timed.env);
    }

    /// First-reception processing of one data message that arrived on
    /// the link `from`, if any: the gate absorbs a duplicate, delivers the
    /// message if it is next from its origin (and then the parked ones
    /// that follow it), and parks it otherwise.
    fn ingest(
        &mut self,
        timed: Timed<PcEnvelope<P>>,
        from: Option<ProcessId>,
        batch: &mut Vec<Timed<PcEnvelope<P>>>,
        out: &mut LinkDelivery<PcEnvelope<P>>,
    ) {
        let (id, sent_at) = (timed.env.id, timed.sent_at);
        let offer = self.gate.offer(id, Parked { timed, from });
        let fresh = !matches!(offer, Offer::Duplicate);
        out.receipts.push((id, sent_at, fresh));
        self.duplicates += u64::from(!fresh);
        if let Offer::Next(arrival) = offer {
            self.deliver(arrival, batch, out);
            while let Some(parked) = self.gate.pop_next(id.origin()) {
                self.deliver(parked, batch, out);
            }
        }
    }

    /// Answers a ping on the link to `from` with this member's
    /// per-origin delivered watermarks. Runs once per link a view change
    /// opens, never per data frame.
    fn on_ping(&mut self, from: ProcessId, token: u64, out: &mut LinkDelivery<PcEnvelope<P>>) {
        let delivered: Vec<(ProcessId, u64)> = self.gate.floors().filter(|&(_, w)| w > 0).collect();
        let link = self.links.entry(from).or_default();
        let frame = link.push(LinkBody::Pong { token, delivered });
        out.sends.push((from, frame));
    }

    /// Handles a pong closing the fresh-link handshake on the link to
    /// `from`: flushes retained delivered history the responder's
    /// watermarks do not cover (in delivery order), then marks the link
    /// safe.
    fn on_pong(
        &mut self,
        from: ProcessId,
        token: u64,
        delivered: Vec<(ProcessId, u64)>,
        history: &[Timed<PcEnvelope<P>>],
        batch: &[Timed<PcEnvelope<P>>],
        out: &mut LinkDelivery<PcEnvelope<P>>,
    ) {
        let Some(link) = self.links.get_mut(&from) else {
            return;
        };
        if link.pending_ping != Some(token) {
            return; // stale handshake (link already safe or re-pinged)
        }
        link.pending_ping = None;
        link.safe = true;
        // Sorted by origin; an origin the pong omits is at watermark 0.
        let peer_wm = |origin| {
            delivered
                .binary_search_by_key(&origin, |&(p, _)| p)
                .map_or(0, |i| delivered[i].1)
        };
        let mut flushed = 0usize;
        for timed in history.iter().chain(batch.iter()) {
            let id = timed.msg_id();
            if id.seq() > peer_wm(id.origin()) {
                let frame = link.push(LinkBody::Msg(timed.clone()));
                out.sends.push((from, frame));
                flushed += 1;
            }
        }
        self.peak_buffered = self.peak_buffered.max(flushed);
    }
}

impl<P: Clone> DeliveryEngine for PcEngine<P> {
    type Op = P;
    type Envelope = PcEnvelope<P>;

    const ROUTED: bool = true;

    fn for_member(me: ProcessId, n: usize) -> Self {
        assert!(me.as_usize() < n, "member id outside group");
        let members: Vec<ProcessId> = (0..n as u32).map(ProcessId::new).collect();
        let tree = tree_position(me, &members, DEFAULT_FANOUT);
        let links = tree
            .iter()
            .flat_map(TreePosition::neighbors)
            .map(|p| (p, Link::new_safe()))
            .collect();
        PcEngine {
            me,
            tree,
            links,
            members: MemberSet::Initial(n),
            gate: IdWindow::new(),
            duplicates: 0,
            released: Vec::new(),
            replies: Vec::new(),
            batch: Vec::new(),
            next_token: 0,
            peak_buffered: 0,
        }
    }

    fn send_into(
        &mut self,
        op: P,
        _after: OccursAfter,
        released: &mut Vec<PcEnvelope<P>>,
    ) -> PcEnvelope<P> {
        // PC-broadcast infers ordering from delivery history, like the
        // vector engine: anything delivered locally precedes this send.
        let env = PcEnvelope {
            id: MsgId::new(self.me, self.gate.advance(self.me)),
            payload: op,
        };
        released.push(env.clone());
        env
    }

    fn on_receive_into(&mut self, env: PcEnvelope<P>, out: &mut Vec<PcEnvelope<P>>) {
        let mut replayed = LinkDelivery::default();
        let timed = Timed {
            env,
            sent_at: causal_simnet::SimTime::ZERO,
        };
        self.on_replay_into(timed, &mut replayed);
        out.append(&mut replayed.released);
    }

    fn on_replay_into(
        &mut self,
        timed: Timed<PcEnvelope<P>>,
        out: &mut LinkDelivery<PcEnvelope<P>>,
    ) {
        let mut batch = Vec::new();
        // The replayed envelope itself is never forwarded (the
        // membership layer already multicast it to everyone), but link
        // messages it drains out of the gate are.
        self.ingest(timed, None, &mut batch, out);
        self.note_buffered();
    }

    fn view<'a>(env: &'a PcEnvelope<P>) -> Delivered<'a, P> {
        Delivered {
            id: env.id,
            deps: None,
            payload: &env.payload,
        }
    }

    fn pending_len(&self) -> usize {
        self.gate.len() + self.links.values().map(Link::buffered).sum::<usize>()
    }

    fn duplicates(&self) -> u64 {
        self.duplicates + self.links.values().map(Link::duplicate_count).sum::<u64>()
    }

    fn on_members(&mut self, members: &[ProcessId], sends: &mut Vec<LinkSend<PcEnvelope<P>>>) {
        // Links to removed members die with them; links between
        // surviving members persist even when the re-derived tree no
        // longer contains them (a safe link only becomes *more*
        // connected — tearing one down would discard its prefix
        // property for nothing).
        self.links.retain(|p, _| members.contains(p));
        self.members = MemberSet::Installed(members.to_vec());
        self.tree = tree_position(self.me, members, DEFAULT_FANOUT);
        for nbr in self.tree.iter().flat_map(TreePosition::neighbors) {
            let link = self.links.entry(nbr).or_default();
            if !link.safe && link.pending_ping.is_none() {
                self.next_token += 1;
                let token = self.next_token;
                link.pending_ping = Some(token);
                let frame = link.push(LinkBody::Ping { token });
                sends.push((nbr, frame));
            }
        }
    }

    fn route_broadcast(&mut self, timed: Timed<PcEnvelope<P>>) -> Vec<LinkSend<PcEnvelope<P>>> {
        let mut sends = Vec::new();
        for (&peer, link) in self.links.iter_mut() {
            if link.safe {
                let frame = link.push(LinkBody::Msg(timed.clone()));
                sends.push((peer, frame));
            }
        }
        sends
    }

    fn on_link_frame_into(
        &mut self,
        from: ProcessId,
        frame: LinkFrame<Timed<PcEnvelope<P>>>,
        history: &[Timed<PcEnvelope<P>>],
        clock: LinkClock,
        out: &mut LinkDelivery<PcEnvelope<P>>,
    ) {
        // Lazily materialize link state for a member whose frames beat our
        // own view installation; our outbound ping goes out when
        // `on_members` runs. A frame from outside the installed member set
        // (a removed member's late retransmission, or a stranger) opens
        // nothing and is neither delivered nor acknowledged: a peer that
        // later becomes a member retransmits it after our view admits it.
        let link = match self.links.entry(from) {
            Entry::Occupied(link) => link.into_mut(),
            Entry::Vacant(slot) if self.members.contains(from) => slot.insert(Link::default()),
            Entry::Vacant(_) => return,
        };
        let mut released = std::mem::take(&mut self.released);
        let mut replies = std::mem::take(&mut self.replies);
        link.on_frame(frame, clock, &mut released, &mut replies);
        out.sends.extend(replies.drain(..).map(|f| (from, f)));
        self.replies = replies;
        let mut batch = std::mem::take(&mut self.batch);
        for body in released.drain(..) {
            match body {
                LinkBody::Msg(timed) => {
                    self.ingest(timed, Some(from), &mut batch, out);
                }
                LinkBody::Ping { token } => self.on_ping(from, token, out),
                LinkBody::Pong { token, delivered } => {
                    self.on_pong(from, token, delivered, history, &batch, out);
                }
                // Acks are consumed inside `Link::on_frame`.
                LinkBody::Ack { .. } => {}
            }
        }
        batch.clear();
        self.batch = batch;
        self.released = released;
        self.note_buffered();
    }

    fn link_retransmissions(&mut self, clock: LinkClock, sends: &mut Vec<LinkSend<PcEnvelope<P>>>) {
        for (&peer, link) in self.links.iter_mut() {
            if let Some(report) = link.hole_report(clock) {
                sends.push((peer, report));
            }
            sends.extend(link.retransmissions().map(|frame| (peer, frame)));
        }
    }

    fn link_has_pending(&self) -> bool {
        self.links.values().any(Link::has_pending)
    }

    fn overlay_tree(&self) -> Option<TreePosition> {
        self.tree.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_simnet::SimTime;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn timed<P>(env: PcEnvelope<P>) -> Timed<PcEnvelope<P>> {
        Timed {
            env,
            sent_at: SimTime::ZERO,
        }
    }

    type TestFrame = LinkFrame<Timed<PcEnvelope<&'static str>>>;

    /// Hands `timed` to the membership side-channel.
    fn replay(
        e: &mut PcEngine<&'static str>,
        timed: Timed<PcEnvelope<&'static str>>,
    ) -> LinkDelivery<PcEnvelope<&'static str>> {
        let mut out = LinkDelivery::default();
        e.on_replay_into(timed, &mut out);
        out
    }

    /// Installs `members`; returns the handshake frames it sends.
    fn install(
        e: &mut PcEngine<&'static str>,
        members: &[ProcessId],
    ) -> Vec<LinkSend<PcEnvelope<&'static str>>> {
        let mut sends = Vec::new();
        e.on_members(members, &mut sends);
        sends
    }

    /// Drives a static group of engines to quiescence by repeatedly
    /// delivering every queued link frame in FIFO order.
    struct Net {
        engines: Vec<PcEngine<&'static str>>,
        queues: BTreeMap<(usize, usize), Vec<TestFrame>>,
        /// What each member's engine released, own sends included, in
        /// release order: the member's deliveries.
        delivered: Vec<Vec<MsgId>>,
    }

    impl Net {
        fn new(n: usize) -> Self {
            Net {
                engines: (0..n)
                    .map(|i| PcEngine::for_member(p(i as u32), n))
                    .collect(),
                queues: BTreeMap::new(),
                delivered: vec![Vec::new(); n],
            }
        }

        fn enqueue(&mut self, from: usize, sends: Vec<LinkSend<PcEnvelope<&'static str>>>) {
            for (to, frame) in sends {
                self.queues
                    .entry((from, to.as_usize()))
                    .or_default()
                    .push(frame);
            }
        }

        fn broadcast(&mut self, node: usize, payload: &'static str) {
            let (env, released) = self.engines[node].send(payload, OccursAfter::none());
            self.delivered[node].extend(released.iter().map(|e| e.id));
            let sends = self.engines[node].route_broadcast(timed(env));
            self.enqueue(node, sends);
        }

        /// First link with frames still queued, if any.
        fn next_busy_link(&self) -> Option<(usize, usize)> {
            self.queues
                .iter()
                .find(|(_, q)| !q.is_empty())
                .map(|(&k, _)| k)
        }

        fn run(&mut self) {
            while let Some((from, to)) = self.next_busy_link() {
                let frame = self.queues.get_mut(&(from, to)).unwrap().remove(0);
                let out = self.engines[to].on_link_frame(p(from as u32), frame, &[]);
                self.delivered[to].extend(out.released.iter().map(|e| e.id));
                self.enqueue(to, out.sends);
            }
            self.queues.clear();
        }
    }

    #[test]
    fn broadcast_reaches_every_member_once() {
        let mut net = Net::new(7);
        net.broadcast(3, "hello");
        net.run();
        for (i, e) in net.engines.iter().enumerate() {
            assert_eq!(net.delivered[i], [MsgId::new(p(3), 1)], "node {i}");
            assert_eq!(e.pending_len(), 0);
        }
    }

    #[test]
    fn causal_order_preserved_across_forwarding() {
        // Node 1 broadcasts a, node 0 delivers it then broadcasts b:
        // a → b must hold in every delivery log.
        let mut net = Net::new(5);
        net.broadcast(1, "a");
        net.run();
        net.broadcast(0, "b");
        net.run();
        let a = MsgId::new(p(1), 1);
        let b = MsgId::new(p(0), 1);
        for delivered in &net.delivered {
            assert_eq!(delivered, &[a, b]);
        }
    }

    #[test]
    fn interleaved_broadcasts_converge_with_no_duplicates() {
        let mut net = Net::new(9);
        for round in 0..3 {
            for node in [0, 4, 8] {
                net.broadcast(node, if round == 0 { "x" } else { "y" });
            }
            net.run();
        }
        for (e, delivered) in net.engines.iter().zip(&net.delivered).skip(1) {
            assert_eq!(delivered.len(), 9);
            // A tree overlay delivers each message exactly once.
            assert_eq!(e.duplicates(), 0);
        }
        // All members saw all messages (order may differ for concurrent
        // sends but the sets agree).
        let mut ids0 = net.delivered[0].clone();
        ids0.sort();
        for delivered in &net.delivered[1..] {
            let mut ids = delivered.clone();
            ids.sort();
            assert_eq!(ids, ids0);
        }
    }

    #[test]
    fn per_origin_gate_holds_out_of_order_replay() {
        // Feed (o=7, seq 2) before (o=7, seq 1) through the replay path.
        let mut e: PcEngine<&'static str> = PcEngine::for_member(p(0), 3);
        let m1 = PcEnvelope {
            id: MsgId::new(p(7), 1),
            payload: "one",
        };
        let m2 = PcEnvelope {
            id: MsgId::new(p(7), 2),
            payload: "two",
        };
        let out2 = replay(&mut e, timed(m2.clone()));
        assert!(out2.receipts[0].2, "ahead-of-sequence is still fresh");
        assert!(out2.released.is_empty());
        assert_eq!(e.pending_len(), 1);
        let out1 = replay(&mut e, timed(m1.clone()));
        assert!(out1.receipts[0].2);
        assert_eq!(out1.released, vec![m1, m2]);
        assert_eq!(e.pending_len(), 0);
        assert!(e.peak_buffered() >= 1);
    }

    #[test]
    fn replay_duplicates_are_absorbed() {
        let mut e: PcEngine<&'static str> = PcEngine::for_member(p(0), 3);
        let m = PcEnvelope {
            id: MsgId::new(p(1), 1),
            payload: "m",
        };
        assert!(replay(&mut e, timed(m.clone())).receipts[0].2);
        let again = replay(&mut e, timed(m));
        assert!(!again.receipts[0].2);
        assert!(again.released.is_empty());
        assert_eq!(e.duplicates(), 1);
    }

    #[test]
    fn fresh_link_quarantines_until_pong_then_flushes_missing_history() {
        // Two engines that were never neighbors: 0 has delivered two
        // messages; a view change now links it to 9.
        let mut a: PcEngine<&'static str> = PcEngine::for_member(p(0), 3);
        let mut b: PcEngine<&'static str> = PcEngine::for_member(p(9), 10);
        let (m1, _) = a.send("one", OccursAfter::none());
        let (m2, _) = a.send("two", OccursAfter::none());
        let history = [timed(m1.clone()), timed(m2.clone())];

        let members = [p(0), p(9)];
        let pings_a = install(&mut a, &members);
        let pings_b = install(&mut b, &members);
        assert_eq!(pings_a.len(), 1);
        assert_eq!(pings_b.len(), 1);
        assert_eq!(a.quarantined_links(), 1);
        // While quarantined, broadcasts do not use the fresh link.
        let (m3, _) = a.send("three", OccursAfter::none());
        assert!(a.route_broadcast(timed(m3.clone())).is_empty());
        let history_now = vec![history[0].clone(), history[1].clone(), timed(m3.clone())];

        // b answers a's ping with its (empty) watermarks; b's own ping
        // precedes the pong on the same FIFO stream.
        let (to, ping_a) = pings_a.into_iter().next().unwrap();
        assert_eq!(to, p(9));
        let reply_b = b.on_link_frame(p(0), ping_a, &[]);
        let (_, pong_b) = reply_b
            .sends
            .into_iter()
            .find(|(_, f)| matches!(f.body, LinkBody::Pong { .. }))
            .expect("pong");
        let (_, ping_b) = pings_b.into_iter().next().unwrap();
        let reply_a = a.on_link_frame(p(9), ping_b, &history_now);
        let (_, pong_a) = reply_a
            .sends
            .into_iter()
            .find(|(_, f)| matches!(f.body, LinkBody::Pong { .. }))
            .expect("pong");

        // On the pong, a flushes everything b lacks, in delivery order.
        let out = a.on_link_frame(p(9), pong_b, &history_now);
        let flushed: Vec<MsgId> = out
            .sends
            .iter()
            .filter_map(|(_, f)| match &f.body {
                LinkBody::Msg(t) => Some(t.msg_id()),
                _ => None,
            })
            .collect();
        assert_eq!(flushed, vec![m1.id, m2.id, m3.id]);
        assert_eq!(a.quarantined_links(), 0);
        assert_eq!(a.safe_links(), 1);
        assert!(a.peak_buffered() >= 3);

        // b delivers the flush in order (a's pong precedes it on the
        // stream; b has nothing to flush back).
        let mut released = Vec::new();
        released.extend(b.on_link_frame(p(0), pong_a, &[]).released);
        for (_, f) in out.sends {
            released.extend(b.on_link_frame(p(0), f, &[]).released);
        }
        assert_eq!(
            released.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![m1.id, m2.id, m3.id]
        );
        assert_eq!(b.quarantined_links(), 0);
    }

    #[test]
    fn pong_watermarks_suppress_history_the_peer_already_has() {
        let mut a: PcEngine<&'static str> = PcEngine::for_member(p(0), 2);
        let (m1, _) = a.send("one", OccursAfter::none());
        let (m2, _) = a.send("two", OccursAfter::none());
        let history = vec![timed(m1.clone()), timed(m2.clone())];
        let members = [p(0), p(5)];
        let pings = install(&mut a, &members);
        let token = match pings[0].1.body {
            LinkBody::Ping { token } => token,
            ref b => panic!("expected ping, got {b:?}"),
        };
        // Peer reports it already delivered (0, 1): only m2 flushes.
        let mut out = LinkDelivery::default();
        a.on_pong(p(5), token, vec![(p(0), 1)], &history, &[], &mut out);
        let flushed: Vec<MsgId> = out
            .sends
            .iter()
            .filter_map(|(_, f)| match &f.body {
                LinkBody::Msg(t) => Some(t.msg_id()),
                _ => None,
            })
            .collect();
        assert_eq!(flushed, vec![m2.id]);
    }

    #[test]
    fn removed_members_lose_their_links() {
        let mut e: PcEngine<&'static str> = PcEngine::for_member(p(0), 3);
        assert_eq!(e.safe_links(), 2);
        let sends = install(&mut e, &[p(0), p(2)]);
        assert!(sends.is_empty(), "surviving link stays safe: {sends:?}");
        assert_eq!(e.safe_links(), 1);
    }

    #[test]
    fn frames_from_outside_the_member_set_open_no_link_and_deliver_nothing() {
        fn msg_frame(origin: ProcessId, link_seq: u64) -> TestFrame {
            LinkFrame {
                seq: link_seq,
                body: LinkBody::Msg(timed(PcEnvelope {
                    id: MsgId::new(origin, 1),
                    payload: "late",
                })),
            }
        }
        fn assert_ignored(e: &PcEngine<&'static str>, out: &LinkDelivery<PcEnvelope<&str>>) {
            assert!(out.sends.is_empty(), "{:?}", out.sends);
            assert!(out.released.is_empty());
            assert!(out.receipts.is_empty());
            assert_eq!(e.pending_len(), 0);
        }

        // A removed member's late frame.
        let mut e: PcEngine<&'static str> = PcEngine::for_member(p(0), 3);
        install(&mut e, &[p(0), p(2)]);
        let out = e.on_link_frame(p(1), msg_frame(p(1), 7), &[]);
        assert_ignored(&e, &out);
        assert!(!e.links.contains_key(&p(1)));

        // A stranger's frame, before any view installs.
        let stranger = ProcessId::new(u32::MAX);
        let mut e: PcEngine<&'static str> = PcEngine::for_member(p(0), 3);
        let out = e.on_link_frame(stranger, msg_frame(stranger, 1), &[]);
        assert_ignored(&e, &out);
        assert!(!e.links.contains_key(&stranger));

        // Once a view admits it, its retransmission gets through.
        install(&mut e, &[p(0), p(1), p(2), stranger]);
        let out = e.on_link_frame(stranger, msg_frame(stranger, 1), &[]);
        assert_eq!(out.released.len(), 1);
        assert_eq!(out.released[0].id, MsgId::new(stranger, 1));
    }

    #[test]
    fn far_sequence_number_on_a_link_allocates_no_gate_slots_for_the_gap() {
        // A frame whose message id lies near the top of the sequence
        // space parks in the gate without allocating the gap below it.
        let mut e: PcEngine<&'static str> = PcEngine::for_member(p(1), 3);
        let stray = PcEnvelope {
            id: MsgId::new(p(0), u64::MAX - 1),
            payload: "stray",
        };
        let frame = LinkFrame {
            seq: 1,
            body: LinkBody::Msg(timed(stray)),
        };
        let out = e.on_link_frame(p(0), frame, &[]);
        assert_eq!(out.receipts.len(), 1);
        assert!(out.released.is_empty());
        assert_eq!(e.pending_len(), 1);
        assert!(e.slot_capacity() < 64, "{}", e.slot_capacity());
        // The origin's real stream still delivers in order around it.
        let first = PcEnvelope {
            id: MsgId::new(p(0), 1),
            payload: "first",
        };
        let frame = LinkFrame {
            seq: 2,
            body: LinkBody::Msg(timed(first.clone())),
        };
        assert_eq!(e.on_link_frame(p(0), frame, &[]).released, vec![first]);
        assert_eq!(e.pending_len(), 1);
    }
}
