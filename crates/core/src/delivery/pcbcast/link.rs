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
//! The reassembly buffer is a one-lane [`IdWindow`] keyed by link
//! sequence number. The lane's floor is the in-order point: every frame
//! at or below it has been released, so a frame there is a duplicate,
//! and the frame just above it releases at once. Frames further ahead
//! park in the lane's deque, indexed by `seq − base`, and releasing them
//! raises the floor one slot at a time; nothing on this path hashes,
//! walks a tree or allocates once the deque has grown to the link's
//! reordering depth. A frame far ahead of the stream (a corrupt or
//! stray sequence number such as `u64::MAX − 1`) goes to the window's
//! sparse overflow map, as a far message id does in the engine's gate,
//! so it costs one entry and never blocks or reorders the stream.
//!
//! Three frame kinds ride the sequenced stream — [`LinkBody::Msg`]
//! (application data), [`LinkBody::Ping`] and [`LinkBody::Pong`] (the
//! fresh-link handshake) — so the handshake is ordered and retransmitted
//! exactly like data, which is what makes the quarantine protocol's
//! "first frame on a fresh link is the ping" invariant meaningful.
//! [`LinkBody::Ack`] is unsequenced bookkeeping (`seq` 0) and carries
//! only news: a receiver acknowledges when a frame advances its in-order
//! point, and re-acknowledges a retransmitted copy of the frame at that
//! point, which every retransmission burst carries until the sender
//! learns the point. Losing an ack therefore costs one retransmission
//! burst, never correctness (see [`Link::on_frame`]).

use causal_clocks::{IdWindow, MsgId, ProcessId};
use std::collections::VecDeque;

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
    /// Cumulative acknowledgement of the peer's stream up to `cum`.
    Ack {
        /// Highest in-order sequence received on the reverse direction.
        cum: u64,
    },
}

/// Both directions of one overlay link, from the owning member's side.
///
/// Outbound: assigns stream sequence numbers, retains frames until
/// cumulatively acknowledged, and replays the unacknowledged tail on
/// demand. Inbound: reassembles the peer's stream into FIFO order.
#[derive(Debug, Clone)]
pub struct Link<T> {
    /// Outbound data permission: `false` while the fresh-link handshake
    /// is outstanding (the quarantine — see the engine module docs).
    pub safe: bool,
    /// Token of the outstanding ping, if the handshake is in flight.
    pub pending_ping: Option<u64>,
    /// Next outbound sequence number to assign.
    next_out: u64,
    /// Sent but not yet cumulatively acknowledged, in sequence order.
    unacked: VecDeque<(u64, LinkBody<T>)>,
    /// Inbound frames awaiting their predecessors, in the lane
    /// [`STREAM`]. The lane's floor is the in-order point: the highest
    /// sequence number released so far.
    reassembly: IdWindow<LinkBody<T>>,
    /// Stream frames retransmitted so far.
    retransmits: u64,
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
            retransmits: 0,
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

    /// Processes one inbound frame: acknowledgements trim the outbound
    /// retention window; stream frames are released in FIFO order,
    /// buffering ahead-of-sequence arrivals and absorbing duplicates.
    /// Released bodies are appended to `released`, so a caller that
    /// reuses one buffer allocates nothing per frame.
    ///
    /// Returns the cumulative acknowledgement to send back, only when it
    /// is news: the frame advanced the in-order point, or it duplicates
    /// the frame at that point (a retransmission, so the ack that
    /// reported the point may have been lost). Frames parked in
    /// reassembly and other duplicates would only repeat a point already
    /// sent on this link, and stay unanswered.
    ///
    /// Liveness: the sender reads only the cumulative point, and every
    /// retransmission burst resends everything above the last point it
    /// learned. A burst after a lost ack therefore carries the frame at
    /// the receiver's point, whose re-ack repairs the loss; a lost data
    /// frame is unacknowledged under any rule and is resent at the same
    /// tick.
    pub fn on_frame(
        &mut self,
        frame: LinkFrame<T>,
        released: &mut Vec<LinkBody<T>>,
    ) -> Option<u64> {
        if let LinkBody::Ack { cum } = frame.body {
            self.on_ack(cum);
            return None;
        }
        let point = self.in_order_point();
        if frame.seq <= point {
            // Already released: a retransmission raced the ack. Only the
            // frame at the cumulative point is re-acknowledged; the sender
            // resends it in every burst until it learns that point.
            self.duplicates += 1;
            return (frame.seq == point).then_some(point);
        }
        if frame.seq - point > 1 {
            if self.reassembly.insert(at(frame.seq), frame.body).is_some() {
                self.duplicates += 1;
            }
            return None;
        }
        released.push(frame.body);
        loop {
            let point = self.reassembly.advance(STREAM);
            match self.reassembly.remove(at(point.saturating_add(1))) {
                Some(body) => released.push(body),
                None => return Some(point),
            }
        }
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

    /// Clones the unacknowledged outbound tail for retransmission.
    pub fn retransmissions(&mut self) -> Vec<LinkFrame<T>> {
        self.retransmits += self.unacked.len() as u64;
        self.unacked
            .iter()
            .map(|(seq, body)| LinkFrame {
                seq: *seq,
                body: body.clone(),
            })
            .collect()
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

    /// Stream frames retransmitted so far.
    pub fn retransmit_count(&self) -> u64 {
        self.retransmits
    }

    /// Duplicate stream frames absorbed so far.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(link: &mut Link<&'static str>, s: &'static str) -> LinkFrame<&'static str> {
        link.push(LinkBody::Msg(s))
    }

    /// Feeds `frame` to `rx`: the bodies it released and the ack it
    /// returned.
    fn feed(
        rx: &mut Link<&'static str>,
        frame: LinkFrame<&'static str>,
    ) -> (Vec<LinkBody<&'static str>>, Option<u64>) {
        let mut released = Vec::new();
        let ack = rx.on_frame(frame, &mut released);
        (released, ack)
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
            .into_iter()
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
        let rtx = tx.retransmissions();
        assert_eq!(rtx.len(), 1);
        assert_eq!(rtx[0].seq, 2);
        assert_ne!(rtx[0].seq, f1.seq);
        tx.on_ack(2);
        assert!(!tx.has_pending());
        assert!(tx.retransmissions().is_empty());
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
        let mut released = Vec::new();
        for f in tx.retransmissions() {
            rx.on_frame(f, &mut released);
        }
        assert_eq!(released, vec![LinkBody::Msg("a"), LinkBody::Msg("b")]);
    }

    #[test]
    fn ack_frames_are_unsequenced() {
        let mut rx: Link<&str> = Link::new_safe();
        let (released, ack) = feed(
            &mut rx,
            LinkFrame {
                seq: 0,
                body: LinkBody::Ack { cum: 0 },
            },
        );
        assert!(released.is_empty());
        assert!(ack.is_none());
    }

    #[test]
    fn an_ack_above_everything_sent_trims_nothing() {
        let mut tx = Link::new_safe();
        for s in ["a", "b", "c"] {
            msg(&mut tx, s);
        }
        let ack = LinkFrame {
            seq: 0,
            body: LinkBody::Ack { cum: 10 },
        };
        assert_eq!(feed(&mut tx, ack), (Vec::new(), None));
        let seqs: Vec<u64> = tx.retransmissions().iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "frames the peer never received stay");
        // An ack of the last frame sent still trims everything.
        tx.on_ack(3);
        assert!(!tx.has_pending());
    }
}
