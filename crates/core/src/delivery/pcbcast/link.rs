//! Synthesized FIFO links: the ordering substrate PC-broadcast stands on.
//!
//! The algorithm's one transport assumption is that each directed link
//! delivers frames reliably in send order. TCP gives that for free;
//! the simulator's non-constant latency models reorder datagrams and its
//! fault plans drop them, so this layer synthesizes the property: every
//! stream frame carries a per-link sequence number, receivers hold
//! out-of-order arrivals in a reassembly buffer and release them in
//! sequence, and senders retain unacknowledged frames for timer-driven
//! retransmission against cumulative acknowledgements.
//!
//! The reassembly buffer is the in-order gate of a one-lane [`IdWindow`]
//! ([`IdWindow::offer`]) keyed by link sequence number, whose floor is
//! the in-order point. Nothing on this path hashes, walks a tree or
//! allocates once the window has grown to the link's reordering depth,
//! and a frame far ahead of the stream (a corrupt or stray sequence
//! number such as `u64::MAX − 1`) costs one overflow entry, as a far
//! message id does in the engine's gate, and never blocks the stream.
//!
//! Four frame kinds ride the sequenced stream — [`LinkBody::Msg`] and
//! [`LinkBody::Run`] (application data: one message, or a burst of them
//! in order), [`LinkBody::Ping`] and [`LinkBody::Pong`] (the fresh-link
//! handshake) — so the handshake is ordered and retransmitted exactly
//! like data, which is what makes the quarantine protocol's "first frame
//! on a fresh link is the ping" invariant meaningful. A run takes one
//! sequence number like any other frame: the link reassembles, acks,
//! names and resends it whole, and never looks inside it. Its messages
//! sit behind one shared [`Arc`], so the frame's retained copy and every
//! retransmission of it bump a count instead of copying the burst.
//! [`LinkBody::Ack`] is unsequenced bookkeeping (`seq` 0) and carries
//! only news: a receiver acknowledges when a frame advances its in-order
//! point, re-acknowledges a retransmitted copy of the frame at that
//! point, which every retransmission burst carries until the sender
//! learns the point, and names the frames it has lost. Losing an ack
//! therefore costs one retransmission burst, never correctness (see
//! [`Link::on_frame`]).
//!
//! # Naming lost frames
//!
//! A lost frame holds back every later frame on its link, so a receiver
//! names its losses instead of waiting for the sender's next tick, by the
//! loss rule of [`holes`]: each frame parked in reassembly
//! carries the time it arrived, and a sequence number missing below a
//! frame that has been parked for at least W = P/8 counts as lost. The
//! receiver checks on every arrival on the link and at the stack's
//! retransmission tick, names the lost frames in the ack it sends back,
//! as a bitmap over the 64 sequence numbers above `cum`, and names a hole
//! that is still missing again once P/2 has passed since it last named
//! holes. The sender resends exactly the named frames it still retains,
//! at once. A transport that reorders by more than W = P/8 also wastes
//! most of its go-back-N bursts, so it needs a longer P already, and W
//! grows with it.
//!
//! Liveness does not rest on naming. Every tick still resends the whole
//! unacknowledged tail, so the argument above holds unchanged: named
//! holes only bring a repair forward, and a lost hole report or a lost
//! resend costs one tick, as any loss does. A caller without a clock
//! passes [`LinkClock::STOPPED`], under which no frame is ever parked
//! for W and the link names nothing.

pub use crate::holes::LinkClock;
use crate::holes::{self, HoleNamer};
use causal_clocks::{IdWindow, MsgId, Offer, ProcessId};
use causal_simnet::SimTime;
use std::collections::VecDeque;
use std::sync::Arc;

/// The one lane of a link's reassembly window. Its ids are link
/// sequence numbers; the origin carries no meaning.
const STREAM: ProcessId = ProcessId::new(0);

/// The reassembly window's key for link sequence number `seq`.
const fn at(seq: u64) -> MsgId {
    MsgId::new(STREAM, seq)
}

/// One frame on a directed overlay link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkFrame<T> {
    /// Position in the link's FIFO stream (1-based); 0 for unsequenced
    /// control ([`LinkBody::Ack`]).
    pub seq: u64,
    /// The payload.
    pub body: LinkBody<T>,
}

/// Payload of a link frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkBody<T> {
    /// An application envelope being disseminated over the overlay.
    Msg(T),
    /// Two or more envelopes released together, in delivery order: one
    /// frame, one sequence number, one shared copy of the burst.
    Run(Arc<[T]>),
    /// First frame on a freshly-opened link: asks the peer to report
    /// what it has delivered so the opener can fill the gap.
    Ping {
        /// Matches the reply to the outstanding handshake.
        token: u64,
    },
    /// Handshake reply: the responder's per-origin delivered watermarks
    /// (highest contiguously delivered sequence per origin; origins at
    /// watermark 0 omitted). Rides the reverse stream so it is reliable.
    Pong {
        /// Token copied from the ping.
        token: u64,
        /// Sorted `(origin, watermark)` pairs.
        delivered: Vec<(ProcessId, u64)>,
    },
    /// Cumulative acknowledgement of the peer's stream up to `cum`, and
    /// the frames above it the receiver has lost.
    Ack {
        /// Highest in-order sequence received on the reverse direction.
        cum: u64,
        /// Bit `i` set: frame `cum + 1 + i` is lost, so resend it.
        holes: u64,
    },
}

/// Both directions of one overlay link, from the owning member's side.
///
/// Outbound: assigns stream sequence numbers, retains frames until
/// cumulatively acknowledged, resends the frames the peer names as lost,
/// and replays the unacknowledged tail on demand. Inbound: reassembles
/// the peer's stream into FIFO order and names its losses.
#[derive(Debug, Clone)]
pub struct Link<T> {
    /// Outbound data permission: `false` while the fresh-link handshake
    /// is outstanding (the quarantine — see the engine module docs).
    pub safe: bool,
    /// Token of the outstanding ping, if the handshake is in flight.
    pub pending_ping: Option<u64>,
    /// Next outbound sequence number to assign.
    next_out: u64,
    /// Sent but not yet cumulatively acknowledged, in sequence order,
    /// without gaps.
    unacked: VecDeque<(u64, LinkBody<T>)>,
    /// Inbound frames awaiting their predecessors, each with the time it
    /// arrived, in the lane [`STREAM`]. The lane's floor is the in-order
    /// point: the highest sequence number released so far.
    reassembly: IdWindow<(SimTime, LinkBody<T>)>,
    /// Which inbound holes have been named to the peer, and when.
    namer: HoleNamer,
    /// Stream frames retransmitted by the tick so far.
    retransmits: u64,
    /// Stream frames resent so far because the peer named them.
    repairs: u64,
    /// Duplicate stream frames absorbed so far.
    duplicates: u64,
}

impl<T> Default for Link<T> {
    fn default() -> Self {
        Link {
            safe: false,
            pending_ping: None,
            next_out: 1,
            unacked: VecDeque::new(),
            reassembly: IdWindow::new(),
            namer: HoleNamer::default(),
            retransmits: 0,
            repairs: 0,
            duplicates: 0,
        }
    }
}

impl<T: Clone> Link<T> {
    /// A link whose outbound direction is immediately usable — the
    /// static-group case, where every link existed before the first
    /// broadcast and there is no history to reconcile.
    pub fn new_safe() -> Self {
        Link {
            safe: true,
            ..Link::default()
        }
    }

    /// Appends `body` to the outbound stream: assigns the next sequence
    /// number and retains a copy until it is acknowledged.
    pub fn push(&mut self, body: LinkBody<T>) -> LinkFrame<T> {
        let seq = self.next_out;
        self.next_out += 1;
        self.unacked.push_back((seq, body.clone()));
        LinkFrame { seq, body }
    }

    /// Processes one inbound frame arriving at `clock.now`: an
    /// acknowledgement trims the outbound retention window and resends
    /// the frames it names as lost; a stream frame is released in FIFO
    /// order, ahead-of-sequence arrivals are parked with their arrival
    /// time, and duplicates are absorbed. Released bodies are appended
    /// to `released`, and the frames to send back to the peer to
    /// `replies`, so a caller that reuses both buffers allocates nothing
    /// per frame until a loss is named.
    ///
    /// The reply ack carries the in-order point and goes back only when
    /// it is news: the frame advanced the in-order point, it duplicates
    /// the frame at that point (a retransmission, so the ack that
    /// reported the point may have been lost), or this arrival found
    /// holes to name (see the [module docs](self)). Frames parked in
    /// reassembly and other duplicates would only repeat a point already
    /// sent on this link, and stay unanswered unless they name a hole.
    ///
    /// Liveness: the sender reads only the cumulative point to trim, and
    /// every retransmission burst resends everything above the last
    /// point it learned. A burst after a lost ack therefore carries the
    /// frame at the receiver's point, whose re-ack repairs the loss; a
    /// lost data frame is unacknowledged under any rule and is resent at
    /// the same tick, if naming has not repaired it first.
    pub fn on_frame(
        &mut self,
        frame: LinkFrame<T>,
        clock: LinkClock,
        released: &mut Vec<LinkBody<T>>,
        replies: &mut Vec<LinkFrame<T>>,
    ) {
        let news = match frame.body {
            LinkBody::Ack { cum, holes } => {
                self.on_ack(cum);
                self.resend_named(cum, holes, replies);
                false
            }
            body => self.on_stream(frame.seq, body, clock.now, released),
        };
        let holes = self.holes_due(clock);
        if news || holes != 0 {
            replies.push(self.ack(holes));
        }
    }

    /// Takes one stream frame that arrived at `now`: releases it and its
    /// parked successors if it is next in sequence, parks it if it is
    /// ahead, and absorbs it if it is a duplicate. Returns whether the
    /// ack it calls for is news (see [`on_frame`](Self::on_frame)).
    fn on_stream(
        &mut self,
        seq: u64,
        body: LinkBody<T>,
        now: SimTime,
        released: &mut Vec<LinkBody<T>>,
    ) -> bool {
        self.namer.on_arrival(seq);
        let point = self.in_order_point();
        match self.reassembly.offer(at(seq), (now, body)) {
            // Already released, or parked: a retransmission raced the
            // ack. A parked frame keeps its first copy, and with it the
            // time the frame first arrived. Only the frame at the
            // cumulative point is re-acknowledged; the sender resends it
            // in every burst until it learns that point.
            Offer::Duplicate => {
                self.duplicates += 1;
                seq == point
            }
            Offer::Parked => false,
            Offer::Next((_, body)) => {
                released.push(body);
                while let Some((_, body)) = self.reassembly.pop_next(STREAM) {
                    released.push(body);
                }
                true
            }
        }
    }

    /// The inbound holes to name at `clock`, as a bitmap over the
    /// sequence numbers above the in-order point (bit `i`: `point + 1 +
    /// i`), by the shared loss rule ([`HoleNamer::holes_due`]).
    fn holes_due(&mut self, clock: LinkClock) -> u64 {
        let point = self.in_order_point();
        let reassembly = &self.reassembly;
        self.namer.holes_due(point, clock, |seq| {
            reassembly.get(at(seq)).map(|&(parked_at, _)| parked_at)
        })
    }

    /// An ack of the in-order point, naming `holes`.
    fn ack(&self, holes: u64) -> LinkFrame<T> {
        LinkFrame {
            seq: 0,
            body: LinkBody::Ack {
                cum: self.in_order_point(),
                holes,
            },
        }
    }

    /// The ack naming the inbound holes due at `clock`, if there are
    /// any. The stack's retransmission tick runs the check every arrival
    /// runs, for a stream that has gone quiet.
    pub fn hole_report(&mut self, clock: LinkClock) -> Option<LinkFrame<T>> {
        let holes = self.holes_due(clock);
        (holes != 0).then(|| self.ack(holes))
    }

    /// Trims frames the peer has acknowledged receiving. An ack at or
    /// above the next sequence number to send acknowledges frames never
    /// sent on this link (corrupt bytes, or a peer answering an earlier
    /// incarnation of the link) and is ignored: trimming on it would drop
    /// frames the peer never received, and nothing would resend them.
    pub fn on_ack(&mut self, cum: u64) {
        if cum >= self.next_out {
            return;
        }
        while self.unacked.front().is_some_and(|(s, _)| *s <= cum) {
            self.unacked.pop_front();
        }
    }

    /// Appends to `replies` a copy of each retained frame that an ack at
    /// `cum` names in `holes`. A name at or above the next sequence
    /// number to send (corrupt bytes, or a hole named by an earlier
    /// incarnation of the link) resends nothing, and neither does one
    /// of a frame already acknowledged.
    fn resend_named(&mut self, cum: u64, holes: u64, replies: &mut Vec<LinkFrame<T>>) {
        let Some(&(first, _)) = self.unacked.front() else {
            return;
        };
        for seq in holes::named(cum, holes) {
            if seq >= self.next_out {
                return;
            }
            let Some(offset) = seq.checked_sub(first) else {
                continue;
            };
            if let Some((_, body)) = self.unacked.get(offset as usize) {
                replies.push(LinkFrame {
                    seq,
                    body: body.clone(),
                });
                self.repairs += 1;
            }
        }
    }

    /// Clones the unacknowledged outbound tail for retransmission, frame
    /// by frame as the caller appends them to its send buffer.
    pub fn retransmissions(&mut self) -> impl Iterator<Item = LinkFrame<T>> + '_ {
        self.retransmits += self.unacked.len() as u64;
        self.unacked.iter().map(|(seq, body)| LinkFrame {
            seq: *seq,
            body: body.clone(),
        })
    }

    /// Whether any outbound frame still awaits acknowledgement.
    pub fn has_pending(&self) -> bool {
        !self.unacked.is_empty()
    }

    /// Inbound frames parked in the reassembly buffer.
    pub fn buffered(&self) -> usize {
        self.reassembly.len()
    }

    /// The highest inbound sequence number released so far: every frame
    /// at or below it has been delivered in order.
    pub fn in_order_point(&self) -> u64 {
        self.reassembly.floor(STREAM)
    }

    /// Stream frames retransmitted by the tick so far.
    pub fn retransmit_count(&self) -> u64 {
        self.retransmits
    }

    /// Stream frames resent so far because the peer named them lost.
    pub fn repair_count(&self) -> u64 {
        self.repairs
    }

    /// Duplicate stream frames absorbed so far.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::DEFAULT_RETRANSMIT;

    fn msg(link: &mut Link<&'static str>, s: &'static str) -> LinkFrame<&'static str> {
        link.push(LinkBody::Msg(s))
    }

    /// Feeds `frame` to `rx` at `now`: the bodies it released and the
    /// frames it sent back.
    fn feed_at(
        rx: &mut Link<&'static str>,
        frame: LinkFrame<&'static str>,
        now: u64,
    ) -> (Vec<LinkBody<&'static str>>, Vec<LinkFrame<&'static str>>) {
        let clock = LinkClock {
            now: SimTime::from_micros(now),
            period: DEFAULT_RETRANSMIT,
        };
        let (mut released, mut replies) = (Vec::new(), Vec::new());
        rx.on_frame(frame, clock, &mut released, &mut replies);
        (released, replies)
    }

    /// Feeds `frame` to `rx` on a stopped clock: the bodies it released
    /// and the point of the ack it returned.
    fn feed(
        rx: &mut Link<&'static str>,
        frame: LinkFrame<&'static str>,
    ) -> (Vec<LinkBody<&'static str>>, Option<u64>) {
        let (released, replies) = feed_at(rx, frame, 0);
        let ack = replies.iter().find_map(|f| match f.body {
            LinkBody::Ack { cum, holes: 0 } => Some(cum),
            _ => None,
        });
        (released, ack)
    }

    /// The holes an ack names, as sequence numbers.
    fn named(frame: &LinkFrame<&'static str>) -> Vec<u64> {
        let LinkBody::Ack { cum, holes } = frame.body else {
            panic!("not an ack: {frame:?}");
        };
        holes::named(cum, holes).collect()
    }

    fn ack_frame(cum: u64, holes: u64) -> LinkFrame<&'static str> {
        LinkFrame {
            seq: 0,
            body: LinkBody::Ack { cum, holes },
        }
    }

    #[test]
    fn in_order_stream_releases_immediately() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        for s in ["a", "b", "c"] {
            let (released, _) = feed(&mut rx, msg(&mut tx, s));
            assert_eq!(released, vec![LinkBody::Msg(s)]);
        }
        assert_eq!(rx.buffered(), 0);
    }

    #[test]
    fn reordered_frames_release_in_sequence() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        let f1 = msg(&mut tx, "a");
        let f2 = msg(&mut tx, "b");
        let f3 = msg(&mut tx, "c");
        assert!(feed(&mut rx, f3).0.is_empty());
        assert!(feed(&mut rx, f2).0.is_empty());
        assert_eq!(rx.buffered(), 2);
        let (released, ack) = feed(&mut rx, f1);
        assert_eq!(
            released,
            vec![LinkBody::Msg("a"), LinkBody::Msg("b"), LinkBody::Msg("c")]
        );
        assert_eq!(ack, Some(3));
        assert_eq!(rx.in_order_point(), 3);
        assert_eq!(rx.buffered(), 0);
    }

    #[test]
    fn duplicates_are_absorbed_and_reacked() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        let f1 = msg(&mut tx, "a");
        assert_eq!(feed(&mut rx, f1.clone()).0.len(), 1);
        let (released, ack) = feed(&mut rx, f1);
        assert!(released.is_empty());
        assert_eq!(ack, Some(1), "duplicate still re-acknowledged");
        assert_eq!(rx.duplicate_count(), 1);
    }

    #[test]
    fn parked_frames_are_not_acked_until_the_point_advances() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        let f1 = msg(&mut tx, "a");
        let f2 = msg(&mut tx, "b");
        let f3 = msg(&mut tx, "c");
        let acks = [f3, f2, f1].map(|f| feed(&mut rx, f).1);
        assert_eq!(acks, [None, None, Some(3)]);
    }

    #[test]
    fn only_the_duplicate_at_the_cumulative_point_is_reacked() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        let frames: Vec<_> = ["a", "b", "c", "d", "e"]
            .into_iter()
            .map(|s| msg(&mut tx, s))
            .collect();
        for f in &frames[..3] {
            assert!(feed(&mut rx, f.clone()).1.is_some());
        }
        assert_eq!(feed(&mut rx, frames[4].clone()).1, None, "5 parks");
        assert_eq!(feed(&mut rx, frames[2].clone()).1, Some(3));
        assert_eq!(feed(&mut rx, frames[1].clone()).1, None);
        assert_eq!(feed(&mut rx, frames[4].clone()).1, None);
        assert_eq!(rx.duplicate_count(), 3);
        assert_eq!(rx.buffered(), 1);
    }

    #[test]
    fn one_retransmission_burst_repairs_every_lost_ack() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        let frames: Vec<_> = (0..10).map(|_| msg(&mut tx, "m")).collect();
        // Out of order, and every ack the receiver returns is lost.
        for i in [3, 0, 9, 1, 2, 8, 4, 6, 5, 7] {
            feed(&mut rx, frames[i].clone());
        }
        assert_eq!(rx.buffered(), 0);
        assert!(tx.has_pending());
        let acks: Vec<u64> = tx
            .retransmissions()
            .filter_map(|f| feed(&mut rx, f).1)
            .collect();
        assert_eq!(acks, vec![10], "only frame 10 is re-acked");
        tx.on_ack(acks[0]);
        assert!(!tx.has_pending());
    }

    #[test]
    fn acks_trim_retention_and_retransmission_replays_the_tail() {
        let mut tx = Link::new_safe();
        let f1 = msg(&mut tx, "a");
        let _f2 = msg(&mut tx, "b");
        assert!(tx.has_pending());
        tx.on_ack(1);
        let rtx: Vec<_> = tx.retransmissions().collect();
        assert_eq!(rtx.len(), 1);
        assert_eq!(rtx[0].seq, 2);
        assert_ne!(rtx[0].seq, f1.seq);
        tx.on_ack(2);
        assert!(!tx.has_pending());
        assert!(tx.retransmissions().next().is_none());
    }

    #[test]
    fn lost_frame_recovered_by_retransmission() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        let _lost = msg(&mut tx, "a");
        let f2 = msg(&mut tx, "b");
        assert!(feed(&mut rx, f2).0.is_empty());
        // The retransmitted tail includes the lost frame; duplicates of
        // the buffered one are absorbed.
        let released: Vec<_> = tx
            .retransmissions()
            .flat_map(|f| feed(&mut rx, f).0)
            .collect();
        assert_eq!(released, vec![LinkBody::Msg("a"), LinkBody::Msg("b")]);
    }

    #[test]
    fn ack_frames_are_unsequenced() {
        let mut rx: Link<&str> = Link::new_safe();
        let (released, ack) = feed(&mut rx, ack_frame(0, 0));
        assert!(released.is_empty());
        assert!(ack.is_none());
    }

    #[test]
    fn an_ack_above_everything_sent_trims_nothing() {
        let mut tx = Link::new_safe();
        for s in ["a", "b", "c"] {
            msg(&mut tx, s);
        }
        assert_eq!(feed(&mut tx, ack_frame(10, 0)), (Vec::new(), None));
        let seqs: Vec<u64> = tx.retransmissions().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "frames the peer never received stay");
        // An ack of the last frame sent still trims everything.
        tx.on_ack(3);
        assert!(!tx.has_pending());
    }

    #[test]
    fn a_reordering_that_fills_within_w_names_nothing() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        let frames: Vec<_> = ["a", "b", "c", "d"]
            .into_iter()
            .map(|s| msg(&mut tx, s))
            .collect();
        // W is 625 µs at the default period: frame 4 has waited 600 µs
        // when frame 1 fills the gap, and a tick at that moment finds
        // nothing to name either.
        let arrivals = [(3, 0), (2, 250), (1, 400), (0, 600)];
        for (i, now) in arrivals {
            let (_, replies) = feed_at(&mut rx, frames[i].clone(), now);
            assert!(
                replies
                    .iter()
                    .all(|f| matches!(f.body, LinkBody::Ack { holes: 0, .. })),
                "frame {} at {now} µs: {replies:?}",
                i + 1
            );
        }
        assert_eq!(rx.in_order_point(), 4);
        let late = LinkClock {
            now: SimTime::from_micros(5_000),
            period: DEFAULT_RETRANSMIT,
        };
        assert_eq!(rx.hole_report(late), None);
    }

    #[test]
    fn a_hole_outwaited_by_a_later_frame_is_named_and_resent() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        let frames: Vec<_> = ["a", "b", "c", "d", "e"]
            .into_iter()
            .map(|s| msg(&mut tx, s))
            .collect();
        // Frames 1 and 3 are lost. Frame 2 parks at 0 µs; frame 4 at
        // 300 µs names nothing, since frame 2 has waited less than W.
        assert!(feed_at(&mut rx, frames[1].clone(), 0).1.is_empty());
        assert!(feed_at(&mut rx, frames[3].clone(), 300).1.is_empty());
        // At 700 µs frame 2 has waited W: hole 1 is lost. Hole 3 lies
        // only below frame 4, which has waited 400 µs.
        let (_, replies) = feed_at(&mut rx, frames[4].clone(), 700);
        assert_eq!(replies.len(), 1);
        assert_eq!(named(&replies[0]), vec![1]);
        // The sender resends exactly the named frame.
        let (_, resent) = feed_at(&mut tx, replies[0].clone(), 750);
        assert_eq!(resent, vec![frames[0].clone()]);
        assert_eq!(tx.repair_count(), 1);
        // Frame 1 releases frame 2; the ack names hole 3 once frame 4
        // has waited W.
        let (released, replies) = feed_at(&mut rx, resent[0].clone(), 1_000);
        assert_eq!(released, vec![LinkBody::Msg("a"), LinkBody::Msg("b")]);
        assert_eq!(replies.len(), 1);
        assert_eq!(named(&replies[0]), vec![3]);
        let (_, resent) = feed_at(&mut tx, replies[0].clone(), 1_050);
        assert_eq!(resent, vec![frames[2].clone()]);
        let (released, replies) = feed_at(&mut rx, resent[0].clone(), 1_300);
        assert_eq!(released.len(), 3);
        assert_eq!(replies, vec![ack_frame(5, 0)]);
    }

    #[test]
    fn a_duplicate_of_a_parked_frame_keeps_its_first_arrival() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        let frames: Vec<_> = ["a", "b", "c"]
            .into_iter()
            .map(|s| msg(&mut tx, s))
            .collect();
        // Frame 1 is lost. Frame 2 parks at 0 µs, and a resent copy of
        // it at 500 µs is absorbed without restamping it.
        assert!(feed_at(&mut rx, frames[1].clone(), 0).1.is_empty());
        assert!(feed_at(&mut rx, frames[1].clone(), 500).1.is_empty());
        assert_eq!(rx.duplicate_count(), 1);
        // At 700 µs frame 2 has waited W since it first arrived.
        let (_, replies) = feed_at(&mut rx, frames[2].clone(), 700);
        assert_eq!(replies.len(), 1);
        assert_eq!(named(&replies[0]), vec![1]);
    }

    #[test]
    fn a_still_missing_hole_is_named_again_after_half_a_period() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        let frames: Vec<_> = ["a", "b", "c"]
            .into_iter()
            .map(|s| msg(&mut tx, s))
            .collect();
        feed_at(&mut rx, frames[1].clone(), 0);
        let (_, replies) = feed_at(&mut rx, frames[2].clone(), 700);
        assert_eq!(named(&replies[0]), vec![1]);
        // The resend is lost. Until P/2 has passed nothing is named again.
        let clock = |now| LinkClock {
            now: SimTime::from_micros(now),
            period: DEFAULT_RETRANSMIT,
        };
        assert_eq!(rx.hole_report(clock(3_199)), None);
        let again = rx.hole_report(clock(3_200)).expect("named again");
        assert_eq!(named(&again), vec![1]);
        assert_eq!(rx.hole_report(clock(3_300)), None);
    }

    /// The run a frame carries.
    fn run_of<'a>(frame: &'a LinkFrame<&'static str>) -> &'a Arc<[&'static str]> {
        match &frame.body {
            LinkBody::Run(run) => run,
            body => panic!("not a run: {body:?}"),
        }
    }

    #[test]
    fn a_lost_run_is_named_and_resent_whole() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        let first = msg(&mut tx, "a");
        let run = tx.push(LinkBody::Run(Arc::from(["b", "c", "d"])));
        let last = msg(&mut tx, "e");
        assert_eq!((run.seq, last.seq), (2, 3), "a run takes one number");
        // The run is lost: frame 3 parks, and once it has waited W the
        // receiver names frame 2.
        assert_eq!(feed_at(&mut rx, first, 0).0, vec![LinkBody::Msg("a")]);
        assert!(feed_at(&mut rx, last, 100).0.is_empty());
        let clock = LinkClock {
            now: SimTime::from_micros(800),
            period: DEFAULT_RETRANSMIT,
        };
        let report = rx.hole_report(clock).expect("the run is named");
        assert_eq!(named(&report), vec![2]);
        // The sender resends the whole run, sharing the burst it retains.
        let (_, resent) = feed_at(&mut tx, report, 850);
        assert_eq!(resent, vec![run.clone()]);
        assert!(Arc::ptr_eq(run_of(&resent[0]), run_of(&run)));
        assert_eq!(tx.repair_count(), 1);
        // It releases in place, then frame 3 behind it.
        let (released, replies) = feed_at(&mut rx, resent[0].clone(), 900);
        assert_eq!(
            released,
            vec![run.body.clone(), LinkBody::Msg("e")],
            "the run releases as one body"
        );
        assert_eq!(replies, vec![ack_frame(3, 0)]);
    }

    #[test]
    fn a_duplicate_run_is_absorbed_once() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        let run = tx.push(LinkBody::Run(Arc::from(["a", "b"])));
        // The tick's copy shares the burst too.
        let copy = tx.retransmissions().next().expect("unacknowledged");
        assert!(Arc::ptr_eq(run_of(&copy), run_of(&run)));
        let (released, ack) = feed(&mut rx, run.clone());
        assert_eq!(released, vec![run.body.clone()]);
        assert_eq!(ack, Some(1));
        // The copy duplicates the frame at the point: re-acked, and
        // nothing released a second time.
        let (released, ack) = feed(&mut rx, copy);
        assert!(released.is_empty());
        assert_eq!(ack, Some(1));
        assert_eq!(rx.duplicate_count(), 1);
    }

    #[test]
    fn a_sender_ignores_named_frames_it_does_not_retain() {
        let mut tx = Link::new_safe();
        let frames: Vec<_> = ["a", "b", "c", "d"]
            .into_iter()
            .map(|s| msg(&mut tx, s))
            .collect();
        tx.on_ack(1);
        // An ack at 0 names 1 (already acknowledged), 3, and 5 and 40,
        // which were never sent: only frame 3 is resent.
        let holes = 1 | 1 << 2 | 1 << 4 | 1 << 39;
        let (_, resent) = feed_at(&mut tx, ack_frame(0, holes), 0);
        assert_eq!(resent, vec![frames[2].clone()]);
        // A hole named above everything sent (an earlier incarnation of
        // the link, or corrupt bytes) resends nothing, and an ack at or
        // above the next sequence number is ignored as a whole.
        assert!(feed_at(&mut tx, ack_frame(1, 1 << 3 | 1 << 63), 0)
            .1
            .is_empty());
        assert!(feed_at(&mut tx, ack_frame(9, u64::MAX), 0).1.is_empty());
        assert!(feed_at(&mut tx, ack_frame(u64::MAX, u64::MAX), 0)
            .1
            .is_empty());
        assert_eq!(tx.repair_count(), 1);
        let seqs: Vec<u64> = tx.retransmissions().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "naming trims nothing");
    }
}
