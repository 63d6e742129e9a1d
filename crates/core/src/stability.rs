//! Message-stability tracking for garbage collection.
//!
//! Causal delivery must remember which messages it has seen (duplicate
//! suppression) and delivered (dependency checks) — state that grows
//! forever unless pruned. A message may be forgotten once it is
//! **stable**: delivered at *every* member, so no retransmission,
//! duplicate, or dependency referencing it can do anything new.
//!
//! [`StabilityTracker`] derives stability the classic way (cf. the
//! matrix-clock discussion in the CBCAST literature the paper builds on):
//! each member summarizes its deliveries as a **contiguous prefix** per
//! origin, gossips that vector, and takes the column minimum over all
//! members' reports — everything below the minimum is stable everywhere
//! and may be compacted
//! ([`GraphDelivery::compact`](crate::delivery::GraphDelivery::compact),
//! [`ReliableBroadcast::compact`](crate::rbcast::ReliableBroadcast::compact)).
//!
//! The minimum is maintained, not recomputed: the tracker raises single
//! matrix entries as its prefix and its peers' reports advance, and
//! remembers whether any column minimum rose, so a host compacts only
//! when there is something new to prune
//! ([`take_advance`](StabilityTracker::take_advance)).

use causal_clocks::{IdWindow, MatrixClock, MsgId, ProcessId, VectorClock};

/// Tracks, per origin, the longest *contiguous* prefix of sequence
/// numbers delivered locally (graph delivery may release a sender's
/// messages out of per-sender order, so out-of-order deliveries are
/// parked until the gap fills).
#[derive(Debug, Clone)]
pub struct ContiguousPrefix {
    /// Group size: the width of [`as_clock`](Self::as_clock).
    width: usize,
    /// Floor per origin = prefix end; entries = deliveries parked beyond
    /// the gap.
    parked: IdWindow<()>,
}

impl ContiguousPrefix {
    /// Creates a tracker for a group of `n` origins (prefix starts empty;
    /// sequence numbers start at 1).
    pub fn new(n: usize) -> Self {
        ContiguousPrefix {
            width: n,
            parked: IdWindow::new(),
        }
    }

    /// Records a delivery and extends the prefix as far as it now reaches.
    /// Returns the origin's new prefix end if the prefix advanced.
    pub fn on_deliver(&mut self, id: MsgId) -> Option<u64> {
        let origin = id.origin();
        let end = self.parked.floor(origin);
        if id.seq() <= end {
            return None; // already inside the prefix (duplicate)
        }
        if id.seq() > end + 1 {
            self.parked.insert(id, ());
            return None;
        }
        // In order: extend, then drain whatever the gap was holding.
        let mut end = self.parked.advance(origin);
        while !self.parked.is_empty() && self.parked.remove(MsgId::new(origin, end + 1)).is_some() {
            end = self.parked.advance(origin);
        }
        Some(end)
    }

    /// The prefix as a vector clock over the group: entry `j` = highest
    /// seq such that every message from `j` up to it has been delivered
    /// here.
    pub fn as_clock(&self) -> VectorClock {
        VectorClock::from_entries(ProcessId::all(self.width).map(|o| self.parked.floor(o)))
    }

    /// Deliveries parked beyond a gap (diagnostic).
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }
}

/// Per-member stability state: local contiguous prefix plus the freshest
/// prefix reported by every peer, combined into a matrix clock whose
/// column minimum is the globally stable prefix.
///
/// # Examples
///
/// ```
/// use causal_clocks::{MsgId, ProcessId, VectorClock};
/// use causal_core::stability::StabilityTracker;
///
/// let mut t = StabilityTracker::new(ProcessId::new(0), 2);
/// t.on_deliver(MsgId::new(ProcessId::new(0), 1));
/// // Peer p1 reports it has also delivered p0's first message.
/// t.on_report(ProcessId::new(1), &VectorClock::from_entries([1, 0]));
/// assert_eq!(t.stable().get(ProcessId::new(0)), 1);
/// ```
#[derive(Debug, Clone)]
pub struct StabilityTracker {
    me: ProcessId,
    prefix: ContiguousPrefix,
    matrix: MatrixClock,
    /// A column minimum rose since the last [`take_advance`](Self::take_advance).
    advanced: bool,
}

impl StabilityTracker {
    /// Creates the tracker for member `me` of a group of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the group.
    pub fn new(me: ProcessId, n: usize) -> Self {
        assert!(me.as_usize() < n, "member id outside group");
        StabilityTracker {
            me,
            prefix: ContiguousPrefix::new(n),
            matrix: MatrixClock::new(n),
            advanced: false,
        }
    }

    /// Records a local delivery: raises this member's matrix entry for the
    /// origin only if its contiguous prefix advanced.
    ///
    /// Deliveries from origins outside the group the tracker was built
    /// for (a member admitted by a later view) are ignored: such a member
    /// never becomes stable here, so its per-message state is not
    /// compacted until the tracker is resized at view installation.
    pub fn on_deliver(&mut self, id: MsgId) {
        if id.origin().as_usize() >= self.matrix.width() {
            return;
        }
        if let Some(end) = self.prefix.on_deliver(id) {
            self.advanced |= self.matrix.raise(self.me, id.origin(), end);
        }
    }

    /// The local delivered-prefix clock — what this member gossips.
    pub fn local_report(&self) -> VectorClock {
        self.prefix.as_clock()
    }

    /// Merges a peer's gossiped prefix, entry by entry.
    pub fn on_report(&mut self, from: ProcessId, report: &VectorClock) {
        self.advanced |= self.matrix.update_row(from, report);
    }

    /// The globally stable prefix: per origin, the highest seq delivered
    /// at *every* member (as far as this member knows).
    pub fn stable(&self) -> &VectorClock {
        self.matrix.stable_prefix()
    }

    /// The stable prefix if it rose since the last call, else `None`.
    /// Compaction against an unchanged prefix has nothing new to prune,
    /// so hosts compact only on `Some`.
    pub fn take_advance(&mut self) -> Option<&VectorClock> {
        std::mem::take(&mut self.advanced).then(|| self.matrix.stable_prefix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(p: u32, s: u64) -> MsgId {
        MsgId::new(ProcessId::new(p), s)
    }

    #[test]
    fn prefix_extends_contiguously() {
        let mut p = ContiguousPrefix::new(2);
        p.on_deliver(id(0, 1));
        p.on_deliver(id(0, 2));
        assert_eq!(p.as_clock().as_ref(), &[2, 0]);
    }

    #[test]
    fn gaps_park_until_filled() {
        let mut p = ContiguousPrefix::new(1);
        p.on_deliver(id(0, 3));
        assert_eq!(p.as_clock().as_ref(), &[0]);
        assert_eq!(p.parked_len(), 1);
        p.on_deliver(id(0, 1));
        assert_eq!(p.as_clock().as_ref(), &[1]);
        p.on_deliver(id(0, 2));
        assert_eq!(p.as_clock().as_ref(), &[3]);
        assert_eq!(p.parked_len(), 0);
    }

    #[test]
    fn duplicates_inside_prefix_ignored() {
        let mut p = ContiguousPrefix::new(1);
        p.on_deliver(id(0, 1));
        p.on_deliver(id(0, 1));
        assert_eq!(p.as_clock().as_ref(), &[1]);
        assert_eq!(p.parked_len(), 0);
    }

    #[test]
    fn stability_is_column_minimum() {
        let mut t = StabilityTracker::new(ProcessId::new(0), 3);
        for s in 1..=4 {
            t.on_deliver(id(1, s));
        }
        // Nothing is stable until everyone reports.
        assert_eq!(t.stable().get(ProcessId::new(1)), 0);
        t.on_report(ProcessId::new(1), &VectorClock::from_entries([0, 4, 0]));
        t.on_report(ProcessId::new(2), &VectorClock::from_entries([0, 2, 0]));
        // p2 is the laggard: only the first two of p1's messages are
        // stable everywhere.
        assert_eq!(t.stable().get(ProcessId::new(1)), 2);
    }

    #[test]
    fn on_deliver_reports_prefix_advances() {
        let mut p = ContiguousPrefix::new(1);
        assert_eq!(p.on_deliver(id(0, 2)), None); // parked beyond the gap
        assert_eq!(p.on_deliver(id(0, 1)), Some(2)); // fills it
        assert_eq!(p.on_deliver(id(0, 1)), None); // duplicate
        assert_eq!(p.on_deliver(id(0, 3)), Some(3));
    }

    #[test]
    fn report_below_the_minimum_sets_no_advance() {
        let mut t = StabilityTracker::new(ProcessId::new(0), 3);
        // p1 and p2 still sit at the minimum of column 0.
        t.on_deliver(id(0, 1));
        assert_eq!(t.take_advance(), None);
        // p1 rises, but p2 still holds the minimum at 0.
        t.on_report(ProcessId::new(1), &VectorClock::from_entries([1, 0, 0]));
        assert_eq!(t.take_advance(), None);
        assert_eq!(t.stable().as_ref(), &[0, 0, 0]);
    }

    #[test]
    fn report_lifting_the_last_minimal_row_sets_advance() {
        let mut t = StabilityTracker::new(ProcessId::new(0), 3);
        t.on_deliver(id(0, 1));
        t.on_deliver(id(0, 2));
        t.on_report(ProcessId::new(1), &VectorClock::from_entries([2, 0, 0]));
        assert_eq!(t.take_advance(), None);
        // p2 was the last row at 0 in column 0; its report lifts it to 1.
        t.on_report(ProcessId::new(2), &VectorClock::from_entries([1, 0, 0]));
        assert_eq!(t.take_advance().map(AsRef::as_ref), Some(&[1, 0, 0][..]));
        // Taken: the flag is clear until the next rise.
        assert_eq!(t.take_advance(), None);
    }

    #[test]
    fn own_delivery_lifting_the_minimum_sets_advance() {
        let mut t = StabilityTracker::new(ProcessId::new(0), 2);
        t.on_report(ProcessId::new(1), &VectorClock::from_entries([0, 3]));
        assert_eq!(t.take_advance(), None);
        t.on_deliver(id(1, 2)); // parked: the prefix does not move
        assert_eq!(t.take_advance(), None);
        t.on_deliver(id(1, 1));
        assert_eq!(t.take_advance().map(|s| s.get(ProcessId::new(1))), Some(2));
    }

    #[test]
    fn deliveries_from_outside_the_group_are_ignored() {
        // A member admitted after the tracker was sized: its messages never
        // become stable here, and recording them must not index past the
        // matrix.
        let mut t = StabilityTracker::new(ProcessId::new(0), 2);
        t.on_deliver(id(2, 1));
        t.on_deliver(id(u32::MAX, 1));
        t.on_deliver(id(1, 1));
        assert_eq!(t.local_report().as_ref(), &[0, 1]);
    }

    #[test]
    fn stale_reports_never_regress() {
        let mut t = StabilityTracker::new(ProcessId::new(0), 2);
        t.on_report(ProcessId::new(1), &VectorClock::from_entries([5, 0]));
        t.on_report(ProcessId::new(1), &VectorClock::from_entries([3, 0]));
        for s in 1..=5 {
            t.on_deliver(id(0, s));
        }
        assert_eq!(t.stable().get(ProcessId::new(0)), 5);
    }
}
