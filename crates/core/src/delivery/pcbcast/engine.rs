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
//! # One frame per link per input
//!
//! What one input delivers (an inbound link frame, which may release a
//! burst of parked frames at once, or a side-channel replay that drains
//! the gate) is forwarded when the input ends, as one frame per safe
//! link: the delivered messages that did not arrive on that link, in
//! delivery order, a lone message as a [`LinkBody::Msg`] and two or more
//! as one [`LinkBody::Run`]. The links that take the whole burst share
//! one run. A local send goes out the same way, as a burst of one. A
//! frame pushed straight onto a link mid-input (a pong, or a pong's
//! history flush) first forwards what the input has delivered so far,
//! so every link still carries this member's delivery order, and the
//! invariant above holds as it did for one frame per message. The
//! input's releases are its one record of what it delivered: the
//! forward and the flush both read them. A run takes one link sequence
//! number, so on each link a burst costs one datagram and one reassembly
//! slot, not one per message.
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
//! the membership layer's flush/replay store, read segment by segment in
//! delivery order, so quarantine costs no extra copies; static groups (no
//! membership) never open a fresh link and never need it.
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
use crate::delivery::{Delivered, DeliveryEngine, LinkSend, TimedDelivery};
use crate::osend::OccursAfter;
use crate::rbcast::HasMsgId;
use crate::stack::Timed;
use causal_clocks::{IdWindow, MsgId, Offer, ProcessId};
use causal_simnet::SimTime;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

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
    /// frames. Kept, like `staged`, so that steady-state frames allocate
    /// nothing.
    released: Vec<LinkBody<Timed<PcEnvelope<P>>>>,
    /// The frames one inbound frame's link sends back to its peer (the
    /// ack, and resends of frames the peer named lost), empty between
    /// frames and kept like `released`.
    replies: Vec<LinkFrame<Timed<PcEnvelope<P>>>>,
    /// The messages one input delivered off a link, in delivery order,
    /// each as the link it arrived on and its position in the input's
    /// `out.released`, which holds the message itself: forwarded as one
    /// frame per safe link when the input ends, or before anything else
    /// is pushed on a link (`forward_staged`). Empty between inputs, and
    /// kept like `released`.
    staged: Vec<(ProcessId, usize)>,
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

    /// Delivers a message the gate released: stages it for forwarding
    /// on every safe link except the one it arrived on, and releases it
    /// with its origin's send time.
    fn deliver(
        &mut self,
        Parked { timed, from }: Parked<P>,
        out: &mut TimedDelivery<PcEnvelope<P>>,
    ) {
        if let Some(from) = from {
            self.staged.push((from, out.released.len()));
        }
        out.released.push(timed);
    }

    /// First-reception processing of one data message that arrived on
    /// the link `from`, if any: the gate absorbs a duplicate, delivers the
    /// message if it is next from its origin (and then the parked ones
    /// that follow it), and parks it otherwise.
    fn ingest(
        &mut self,
        timed: Timed<PcEnvelope<P>>,
        from: Option<ProcessId>,
        out: &mut TimedDelivery<PcEnvelope<P>>,
    ) {
        let id = timed.env.id;
        let offer = self.gate.offer(id, Parked { timed, from });
        let fresh = !matches!(offer, Offer::Duplicate);
        out.receipts.push((id, fresh));
        self.duplicates += u64::from(!fresh);
        if let Offer::Next(arrival) = offer {
            self.deliver(arrival, out);
            while let Some(parked) = self.gate.pop_next(id.origin()) {
                self.deliver(parked, out);
            }
        }
    }

    /// Puts a burst of delivered messages on every safe link: on each,
    /// one frame with the messages that did not arrive on that link, in
    /// delivery order, a lone message as [`LinkBody::Msg`] and two or
    /// more as a [`LinkBody::Run`]. `burst` names each message by the
    /// link it arrived on (this member, for a local send) and its
    /// position in `delivered`. Every link that takes the whole burst
    /// (all but the link it arrived on, as a rule) shares one run, built
    /// only if some link takes it. Each link thus carries this member's
    /// delivery order, one frame per burst.
    fn forward(
        links: &mut BTreeMap<ProcessId, Link<Timed<PcEnvelope<P>>>>,
        burst: &[(ProcessId, usize)],
        delivered: &[Timed<PcEnvelope<P>>],
        sends: &mut Vec<LinkSend<PcEnvelope<P>>>,
    ) {
        let mut whole: Option<Arc<[Timed<PcEnvelope<P>>]>> = None;
        for (&peer, link) in links.iter_mut() {
            let mut others = burst.iter().filter(|&&(from, _)| from != peer);
            let (true, Some(&(_, first))) = (link.safe, others.next()) else {
                continue;
            };
            let rest = others.count();
            let body = if rest == 0 {
                LinkBody::Msg(delivered[first].clone())
            } else if rest + 1 == burst.len() {
                let run = whole.get_or_insert_with(|| {
                    burst.iter().map(|&(_, at)| delivered[at].clone()).collect()
                });
                LinkBody::Run(Arc::clone(run))
            } else {
                let part = burst.iter().filter(|&&(from, _)| from != peer);
                LinkBody::Run(part.map(|&(_, at)| delivered[at].clone()).collect())
            };
            sends.push((peer, link.push(body)));
        }
    }

    /// Forwards what this input staged, as one burst, and empties the
    /// stage.
    fn forward_staged(&mut self, out: &mut TimedDelivery<PcEnvelope<P>>) {
        if !self.staged.is_empty() {
            Self::forward(&mut self.links, &self.staged, &out.released, &mut out.sends);
            self.staged.clear();
        }
    }

    /// Answers a ping on the link to `from` with this member's
    /// per-origin delivered watermarks. Runs once per link a view change
    /// opens, never per data frame.
    fn on_ping(&mut self, from: ProcessId, token: u64, out: &mut TimedDelivery<PcEnvelope<P>>) {
        let delivered: Vec<(ProcessId, u64)> = self.gate.floors().filter(|&(_, w)| w > 0).collect();
        let link = self.links.entry(from).or_default();
        let frame = link.push(LinkBody::Pong { token, delivered });
        out.sends.push((from, frame));
    }

    /// Handles a pong closing the fresh-link handshake on the link to
    /// `from`: flushes the delivered messages the responder's watermarks
    /// do not cover, in delivery order (the retained history, then what
    /// this input delivered so far: `out.released` from `input` on), and
    /// marks the link safe.
    fn on_pong(
        &mut self,
        from: ProcessId,
        token: u64,
        delivered: Vec<(ProcessId, u64)>,
        history: &[Vec<Timed<PcEnvelope<P>>>],
        input: usize,
        out: &mut TimedDelivery<PcEnvelope<P>>,
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
        for timed in history.iter().flatten().chain(&out.released[input..]) {
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

impl<P: Clone + Send + Sync> DeliveryEngine for PcEngine<P> {
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
            staged: Vec::new(),
            next_token: 0,
            peak_buffered: 0,
        }
    }

    fn send_timed(
        &mut self,
        op: P,
        _after: OccursAfter,
        sent_at: SimTime,
        released: &mut Vec<Timed<PcEnvelope<P>>>,
    ) -> Timed<PcEnvelope<P>> {
        // PC-broadcast infers ordering from delivery history, like the
        // vector engine: anything delivered locally precedes this send.
        let env = PcEnvelope {
            id: MsgId::new(self.me, self.gate.advance(self.me)),
            payload: op,
        };
        let timed = Timed { env, sent_at };
        released.push(timed.clone());
        timed
    }

    /// Runs [`on_replay_into`](DeliveryEngine::on_replay_into) and keeps
    /// only what it released.
    fn on_receive_timed(
        &mut self,
        timed: Timed<PcEnvelope<P>>,
        released: &mut Vec<Timed<PcEnvelope<P>>>,
    ) {
        let mut replayed = TimedDelivery::default();
        self.on_replay_into(timed, &mut replayed);
        released.append(&mut replayed.released);
    }

    fn on_replay_into(
        &mut self,
        timed: Timed<PcEnvelope<P>>,
        out: &mut TimedDelivery<PcEnvelope<P>>,
    ) {
        // The replayed envelope itself is never forwarded (the
        // membership layer already multicast it to everyone), but link
        // messages it drains out of the gate are.
        self.ingest(timed, None, out);
        self.forward_staged(out);
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

    fn route_broadcast_into(
        &mut self,
        timed: Timed<PcEnvelope<P>>,
        sends: &mut Vec<LinkSend<PcEnvelope<P>>>,
    ) {
        // A local send is a one-message burst that arrived on no link.
        let burst = [(self.me, 0)];
        Self::forward(&mut self.links, &burst, std::slice::from_ref(&timed), sends);
    }

    fn on_link_frame_into(
        &mut self,
        from: ProcessId,
        frame: LinkFrame<Timed<PcEnvelope<P>>>,
        history: &[Vec<Timed<PcEnvelope<P>>>],
        clock: LinkClock,
        out: &mut TimedDelivery<PcEnvelope<P>>,
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
        // An ack trims the outbound retention and may resend, but parks
        // nothing, so it cannot raise the buffered peak.
        let ack = matches!(frame.body, LinkBody::Ack { .. });
        let mut released = std::mem::take(&mut self.released);
        let mut replies = std::mem::take(&mut self.replies);
        link.on_frame(frame, clock, &mut released, &mut replies);
        out.sends.extend(replies.drain(..).map(|f| (from, f)));
        self.replies = replies;
        let input = out.released.len();
        for body in released.drain(..) {
            match body {
                LinkBody::Msg(timed) => self.ingest(timed, Some(from), out),
                LinkBody::Run(run) => {
                    for timed in run.iter() {
                        self.ingest(timed.clone(), Some(from), out);
                    }
                }
                // A handshake frame goes straight onto the link to
                // `from`, so what this frame delivered before it goes
                // out first.
                LinkBody::Ping { token } => {
                    self.forward_staged(out);
                    self.on_ping(from, token, out);
                }
                LinkBody::Pong { token, delivered } => {
                    self.forward_staged(out);
                    self.on_pong(from, token, delivered, history, input, out);
                }
                // Acks are consumed inside `Link::on_frame`.
                LinkBody::Ack { .. } => {}
            }
        }
        self.forward_staged(out);
        self.released = released;
        if !ack {
            self.note_buffered();
        }
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
    use crate::delivery::LinkDelivery;

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
    ) -> TimedDelivery<PcEnvelope<&'static str>> {
        let mut out = TimedDelivery::default();
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
        assert!(out2.receipts[0].1, "ahead-of-sequence is still fresh");
        assert!(out2.released.is_empty());
        assert_eq!(e.pending_len(), 1);
        let out1 = replay(&mut e, timed(m1.clone()));
        assert!(out1.receipts[0].1);
        assert_eq!(out1.released, vec![timed(m1), timed(m2)]);
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
        assert!(replay(&mut e, timed(m.clone())).receipts[0].1);
        let again = replay(&mut e, timed(m));
        assert!(!again.receipts[0].1);
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
        let (m3, _) = a.send("three", OccursAfter::none());
        // The membership store's segments, in delivery order.
        let history = [vec![timed(m1), timed(m2.clone())], vec![timed(m3.clone())]];
        let members = [p(0), p(5)];
        let pings = install(&mut a, &members);
        let token = match pings[0].1.body {
            LinkBody::Ping { token } => token,
            ref b => panic!("expected ping, got {b:?}"),
        };
        // Peer reports it already delivered (0, 1): the rest of the first
        // segment flushes, then the second.
        let mut out = TimedDelivery::default();
        a.on_pong(p(5), token, vec![(p(0), 1)], &history, 0, &mut out);
        let flushed: Vec<MsgId> = out
            .sends
            .iter()
            .filter_map(|(_, f)| match &f.body {
                LinkBody::Msg(t) => Some(t.msg_id()),
                _ => None,
            })
            .collect();
        assert_eq!(flushed, vec![m2.id, m3.id]);
    }

    fn env(origin: u32, seq: u64) -> Timed<PcEnvelope<&'static str>> {
        timed(PcEnvelope {
            id: MsgId::new(p(origin), seq),
            payload: "m",
        })
    }

    fn frame(seq: u64, body: LinkBody<Timed<PcEnvelope<&'static str>>>) -> TestFrame {
        LinkFrame { seq, body }
    }

    /// The ids of the data messages a frame carries, if it carries any.
    fn carried(frame: &TestFrame) -> Option<Vec<MsgId>> {
        match &frame.body {
            LinkBody::Msg(t) => Some(vec![t.msg_id()]),
            LinkBody::Run(run) => Some(run.iter().map(HasMsgId::msg_id).collect()),
            _ => None,
        }
    }

    /// The data frames `out` sends, in send order, as (link, ids).
    fn data_sends<R>(out: &LinkDelivery<PcEnvelope<&'static str>, R>) -> Vec<(u32, Vec<MsgId>)> {
        out.sends
            .iter()
            .filter_map(|(to, f)| Some((to.as_u32(), carried(f)?)))
            .collect()
    }

    #[test]
    fn one_input_goes_out_as_one_frame_per_safe_link() {
        // n = 16: p1's parent is p0 and its children are p5..=p8.
        let mut e: PcEngine<&'static str> = PcEngine::for_member(p(1), 16);
        assert_eq!(e.safe_links(), 5);
        // Frames 2 and 3 from the parent park; frame 1 releases all three.
        let msgs = [env(0, 1), env(0, 2), env(9, 1)];
        for (seq, m) in [(2, &msgs[1]), (3, &msgs[2])] {
            let out = e.on_link_frame(p(0), frame(seq, LinkBody::Msg(m.clone())), &[]);
            assert!(out.sends.is_empty() && out.released.is_empty());
        }
        let out = e.on_link_frame(p(0), frame(1, LinkBody::Msg(msgs[0].clone())), &[]);
        let ids: Vec<MsgId> = msgs.iter().map(HasMsgId::msg_id).collect();
        assert_eq!(out.released.iter().map(|e| e.id).collect::<Vec<_>>(), ids);
        // One run per child, in delivery order, and nothing back up the
        // link it came from.
        assert_eq!(
            data_sends(&out),
            (5..=8).map(|c| (c, ids.clone())).collect::<Vec<_>>()
        );
        // Every child's frame shares one copy of the burst.
        let runs: Vec<&Arc<[_]>> = out
            .sends
            .iter()
            .filter_map(|(_, f)| match &f.body {
                LinkBody::Run(run) => Some(run),
                _ => None,
            })
            .collect();
        assert!(runs.iter().all(|run| Arc::ptr_eq(run, runs[0])));
        // A run from the parent goes on as one run; a lone message as a
        // message.
        let run = LinkBody::Run(Arc::from([env(0, 3), env(0, 4)]));
        let out = e.on_link_frame(p(0), frame(4, run), &[]);
        let (a, b) = (MsgId::new(p(0), 3), MsgId::new(p(0), 4));
        assert_eq!(
            data_sends(&out),
            (5..=8).map(|c| (c, vec![a, b])).collect::<Vec<_>>()
        );
        let out = e.on_link_frame(p(5), frame(1, LinkBody::Msg(env(5, 1))), &[]);
        let sent: Vec<u32> = data_sends(&out).into_iter().map(|(to, _)| to).collect();
        assert_eq!(sent, [0, 6, 7, 8]);
        assert!(out
            .sends
            .iter()
            .all(|(_, f)| !matches!(f.body, LinkBody::Run(_))));
    }

    #[test]
    fn a_burst_from_several_links_sends_each_link_only_what_it_lacks() {
        let mut e: PcEngine<&'static str> = PcEngine::for_member(p(1), 16);
        // (9, 2) arrives from child p5 ahead of (9, 1) and parks in the
        // gate; a run from the parent then releases (9, 1), the parked
        // (9, 2), and (3, 1).
        let out = e.on_link_frame(p(5), frame(1, LinkBody::Msg(env(9, 2))), &[]);
        assert!(out.released.is_empty());
        let run = LinkBody::Run(Arc::from([env(9, 1), env(3, 1)]));
        let out = e.on_link_frame(p(0), frame(1, run), &[]);
        let [a, b, c] = [(9, 1), (9, 2), (3, 1)].map(|(o, s)| MsgId::new(p(o), s));
        assert_eq!(
            out.released.iter().map(|e| e.id).collect::<Vec<_>>(),
            [a, b, c]
        );
        assert_eq!(
            data_sends(&out),
            vec![
                (0, vec![b]),
                (5, vec![a, c]),
                (6, vec![a, b, c]),
                (7, vec![a, b, c]),
                (8, vec![a, b, c]),
            ]
        );
    }

    #[test]
    fn a_pong_mid_input_forwards_what_was_staged_first() {
        // p0 of {0, 1, 2} opens a link to the joiner p9.
        let mut e: PcEngine<&'static str> = PcEngine::for_member(p(0), 3);
        let pings = install(&mut e, &[p(0), p(1), p(2), p(9)]);
        let [(_, ping)] = pings.as_slice() else {
            panic!("one ping: {pings:?}");
        };
        let LinkBody::Ping { token } = ping.body else {
            panic!("not a ping: {ping:?}");
        };
        // (5, 2) arrives from p1 ahead of (5, 1) and parks in the gate.
        e.on_link_frame(p(1), frame(1, LinkBody::Msg(env(5, 2))), &[]);
        // p9's stream: (5, 1), then its pong, which says it has delivered
        // nothing. Both release in one input.
        let pong = LinkBody::Pong {
            token,
            delivered: Vec::new(),
        };
        e.on_link_frame(p(9), frame(2, pong), &[]);
        let out = e.on_link_frame(p(9), frame(1, LinkBody::Msg(env(5, 1))), &[]);
        let [a, b] = [1, 2].map(|s| MsgId::new(p(5), s));
        // What the input staged before the pong goes out on the links
        // safe until then; the pong makes p9's link safe and flushes the
        // two messages to it, each once.
        assert_eq!(
            data_sends(&out),
            vec![(1, vec![a]), (2, vec![a, b]), (9, vec![a]), (9, vec![b])]
        );
        assert_eq!(e.quarantined_links(), 0);
    }

    #[test]
    fn a_pong_flushes_its_own_input_and_not_an_earlier_one_still_in_out() {
        // p0 of {0, 1, 2} opens a link to the joiner p9.
        let mut e: PcEngine<&'static str> = PcEngine::for_member(p(0), 3);
        let pings = install(&mut e, &[p(0), p(1), p(2), p(9)]);
        let [(_, ping)] = pings.as_slice() else {
            panic!("one ping: {pings:?}");
        };
        let LinkBody::Ping { token } = ping.body else {
            panic!("not a ping: {ping:?}");
        };
        // An earlier input delivers (4, 1) and (5, 1); `out` still holds
        // them, and so does the retained history.
        let mut out = TimedDelivery::default();
        let stopped = LinkClock::STOPPED;
        let run = LinkBody::Run(Arc::from([env(4, 1), env(5, 1)]));
        let history = [vec![env(4, 1), env(5, 1)]];
        e.on_link_frame_into(p(1), frame(1, run), &[], stopped, &mut out);
        // p9's stream: (6, 1), then its pong, which covers (4, 1). The
        // pong parks until (6, 1) releases both in one input.
        let pong = LinkBody::Pong {
            token,
            delivered: vec![(p(4), 1)],
        };
        e.on_link_frame_into(p(9), frame(2, pong), &history, stopped, &mut out);
        out.sends.clear();
        let msg = LinkBody::Msg(env(6, 1));
        e.on_link_frame_into(p(9), frame(1, msg), &history, stopped, &mut out);
        let [b, c] = [5, 6].map(|o| MsgId::new(p(o), 1));
        // (6, 1) is forwarded on the links safe before the pong; the flush
        // sends p9 what it lacks from the history, then from this input,
        // each once.
        assert_eq!(
            data_sends(&out),
            vec![(1, vec![c]), (2, vec![c]), (9, vec![b]), (9, vec![c])]
        );
        assert_eq!(out.released.len(), 3);
        assert_eq!(e.quarantined_links(), 0);
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
