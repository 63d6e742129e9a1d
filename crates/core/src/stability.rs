//! Message-stability tracking for garbage collection.
//!
//! Causal delivery must remember which messages it has seen (duplicate
//! suppression) and delivered (dependency checks) — state that grows
//! forever unless pruned. A message may be forgotten once it is
//! **stable**: delivered at *every* member, so no retransmission,
//! duplicate, or dependency referencing it can do anything new.
//!
//! Each member summarizes its deliveries as a **contiguous prefix** per
//! origin, the floors of an [`IdWindow`] gate: graph delivery may release
//! a sender's messages out of per-sender order, so a delivery beyond a
//! gap is parked until the gap fills. The per-origin minimum of every
//! member's prefix is stable everywhere and may be compacted
//! ([`DeliveryEngine::compact`](crate::delivery::DeliveryEngine::compact),
//! [`ReliableBroadcast::compact`](crate::rbcast::ReliableBroadcast::compact)).
//! [`StabilityTracker`] learns that minimum over one of two topologies.
//!
//! # Full mesh
//!
//! [`StabilityTracker::new`] is the classic scheme (cf. the matrix-clock
//! discussion in the CBCAST literature the paper builds on): every
//! member gossips its prefix to all n − 1 peers at its report cadence,
//! and keeps every member's latest report as one row of an n×n
//! [`MatrixClock`] whose column minima are the stable prefix. A round
//! costs n(n − 1) messages of n entries each.
//!
//! The minimum is maintained, not recomputed: the tracker raises single
//! matrix entries as its prefix and its peers' reports advance, and
//! remembers whether any column minimum rose, so a host compacts only
//! when there is something new to prune
//! ([`take_advance`](StabilityTracker::take_advance)). A member removed
//! by a view change leaves the minimum
//! ([`remove_member`](StabilityTracker::remove_member)).
//!
//! # Convergecast over a tree
//!
//! [`StabilityTracker::over_tree`] aggregates over a static spanning
//! tree instead — in a routed stack, the overlay tree its engine
//! disseminates over
//! ([`DeliveryEngine::overlay_tree`](crate::delivery::DeliveryEngine::overlay_tree)).
//! A member keeps its prefix, its children's latest reports and the
//! stable vector its parent sent, (k + 2)·n entries for fanout k and no
//! matrix. The rules:
//!
//! - An **up report** is the entrywise minimum of the member's own
//!   prefix and each child's latest report.
//! - Every member sends its parent an up report at its report cadence.
//!   An interior member also sends one as soon as every child has
//!   reported since its last such *wave*; cadence sends leave the wave
//!   set alone.
//! - The root has no parent: it raises its stable vector to each up
//!   value it computes and sends the vector to its children. Alone in
//!   its group, it raises the vector on every delivery.
//! - Every member forwards a stable vector from its parent to its
//!   children on receipt.
//! - Child reports and stable vectors are max-merged, so a stable vector
//!   never falls.
//!
//! A round costs 2(n − 1) messages group-wide. Safety — no member's
//! stable vector exceeds any member's prefix — holds because:
//!
//! - every up value is a minimum of prefixes that were true when they
//!   were reported, and prefixes only grow, so an up value never
//!   exceeds a current prefix anywhere in the sender's subtree;
//! - the root's subtree is the whole group, so its up values cover all
//!   n members;
//! - the down path only copies (max-merges) the root's values;
//! - the tree is static, so a child's subtree never changes under a
//!   report computed over it.
//!
//! Under membership a re-derived tree would break the last point: a
//! child's in-flight report, computed over its old subtree, would be
//! read as covering its new one. Reports carry no view, so stacks with
//! membership stay on the full mesh.

use causal_clocks::{IdWindow, MatrixClock, MsgId, Offer, ProcessId, VectorClock};

/// The delivered prefix `prefix` as a vector clock over a group of
/// `width`: entry `j` is the highest seq such that every message from `j`
/// up to it has been delivered.
fn prefix_clock(prefix: &IdWindow<()>, width: usize) -> VectorClock {
    VectorClock::from_entries(ProcessId::all(width).map(|o| prefix.floor(o)))
}

/// Where a queued stability report goes
/// ([`StabilityTracker::take_report`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportTo<'a> {
    /// Every other member of the group (full-mesh gossip).
    Everyone,
    /// The listed members: a tree member's parent, or its children.
    Members(&'a [ProcessId]),
}

/// Per-member stability state: the local contiguous prefix plus what
/// the other members reported, over a full mesh or a tree (see the
/// [module docs](self)).
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
    /// Group size: the width of every report.
    width: usize,
    /// The local delivered prefix: each origin's floor is its prefix
    /// end, and the entries are deliveries parked beyond a gap.
    prefix: IdWindow<()>,
    topology: Topology,
    /// A stable entry rose since the last [`take_advance`](Self::take_advance).
    advanced: bool,
}

#[derive(Debug, Clone)]
enum Topology {
    /// Every member's latest report, one matrix row each; the column
    /// minima are the stable prefix. `due` is a queued cadence report.
    Mesh { matrix: MatrixClock, due: bool },
    /// Convergecast over a static tree.
    Tree(Convergecast),
}

/// A tree member's stability state.
#[derive(Debug, Clone)]
struct Convergecast {
    parent: Option<ProcessId>,
    children: Vec<ProcessId>,
    /// Each child's latest report, max-merged, one row of the group's
    /// width per child. Empty until the first report.
    rows: Vec<u64>,
    /// Per child: reported since the last wave. Empty until the first
    /// report.
    heard: Vec<bool>,
    /// The stable vector: max-merged from the parent's, or at the root
    /// from its own up values. Empty until the first report.
    stable: VectorClock,
    /// An up report to the parent is queued.
    up_due: bool,
    /// The stable vector is queued for the children.
    down_due: bool,
}

impl Convergecast {
    /// Allocates the child rows and the stable vector on the first
    /// report, so building a tree tracker allocates nothing. Every later
    /// call finds them allocated. (The stable vector is collected here,
    /// not built by `VectorClock::new`, so the `hotpath-alloc` gate
    /// charges this one-time allocation to this function.)
    fn allocate(&mut self, width: usize) {
        if self.stable.width() != width {
            self.rows = vec![0; self.children.len() * width];
            self.heard = vec![false; self.children.len()];
            self.stable = std::iter::repeat_n(0, width).collect();
        }
    }

    /// The up value's entry for `origin`: the minimum of this member's
    /// prefix and every child's latest report.
    fn up_entry(&self, prefix: &IdWindow<()>, width: usize, origin: usize) -> u64 {
        let own = prefix.floor(ProcessId::new(origin as u32));
        self.rows
            .iter()
            .skip(origin)
            .step_by(width)
            .fold(own, |lo, &v| lo.min(v))
    }

    /// Raises the stable vector's entry for `origin` to `value`; returns
    /// whether it rose.
    fn raise(&mut self, origin: usize, value: u64) -> bool {
        let origin = ProcessId::new(origin as u32);
        let rose = value > self.stable.get(origin);
        if rose {
            self.stable.set(origin, value);
        }
        rose
    }

    /// Queues an up report; the root instead raises its stable vector to
    /// the up value and queues the vector for its children. Returns
    /// whether the stable vector rose.
    fn report(&mut self, prefix: &IdWindow<()>, width: usize) -> bool {
        self.allocate(width);
        if self.parent.is_some() {
            self.up_due = true;
            return false;
        }
        let mut rose = false;
        for origin in 0..width {
            rose |= self.raise(origin, self.up_entry(prefix, width, origin));
        }
        self.down_due |= !self.children.is_empty();
        rose
    }

    /// Merges a report from a tree neighbour; returns whether the stable
    /// vector rose. Reports from anyone else change nothing.
    fn on_report(
        &mut self,
        from: ProcessId,
        report: &VectorClock,
        prefix: &IdWindow<()>,
        width: usize,
    ) -> bool {
        if Some(from) == self.parent {
            self.allocate(width);
            let mut rose = false;
            for (origin, value) in report.as_ref().iter().enumerate() {
                rose |= self.raise(origin, *value);
            }
            self.down_due |= !self.children.is_empty();
            return rose;
        }
        let Some(c) = self.children.iter().position(|&child| child == from) else {
            return false;
        };
        self.allocate(width);
        let row = &mut self.rows[c * width..(c + 1) * width];
        for (cell, value) in row.iter_mut().zip(report.as_ref()) {
            *cell = (*cell).max(*value);
        }
        self.heard[c] = true;
        if !self.heard.iter().all(|&h| h) {
            return false;
        }
        // Every child reported since the last wave: start the next one.
        self.heard.fill(false);
        self.report(prefix, width)
    }
}

impl StabilityTracker {
    /// Creates the full-mesh tracker for member `me` of a group of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the group.
    pub fn new(me: ProcessId, n: usize) -> Self {
        assert!(me.as_usize() < n, "member id outside group");
        StabilityTracker {
            me,
            width: n,
            prefix: IdWindow::new(),
            topology: Topology::Mesh {
                matrix: MatrixClock::new(n),
                due: false,
            },
            advanced: false,
        }
    }

    /// Creates the convergecast tracker for member `me` of a group of
    /// `n`, at `parent` (`None` at the root) with `children` in a static
    /// spanning tree of the group. Allocates nothing until the first
    /// report.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the group.
    pub fn over_tree(
        me: ProcessId,
        n: usize,
        parent: Option<ProcessId>,
        children: Vec<ProcessId>,
    ) -> Self {
        assert!(me.as_usize() < n, "member id outside group");
        StabilityTracker {
            me,
            width: n,
            prefix: IdWindow::new(),
            topology: Topology::Tree(Convergecast {
                parent,
                children,
                rows: Vec::new(),
                heard: Vec::new(),
                stable: VectorClock::default(),
                up_due: false,
                down_due: false,
            }),
            advanced: false,
        }
    }

    /// Records a local delivery. The mesh raises this member's matrix
    /// entry for the origin if its contiguous prefix advanced; a tree
    /// root alone in its group raises its stable vector.
    ///
    /// Deliveries from origins outside the group the tracker was built
    /// for (a member admitted by a later view) are ignored: such a member
    /// never becomes stable here, so its per-message state is not
    /// compacted until the tracker is resized at view installation.
    pub fn on_deliver(&mut self, id: MsgId) {
        let origin = id.origin();
        if origin.as_usize() >= self.width {
            return;
        }
        let Offer::Next(()) = self.prefix.offer(id, ()) else {
            return;
        };
        while self.prefix.pop_next(origin).is_some() {}
        let end = self.prefix.floor(origin);
        match &mut self.topology {
            Topology::Mesh { matrix, .. } => {
                self.advanced |= matrix.raise(self.me, origin, end);
            }
            Topology::Tree(tree) if tree.parent.is_none() && tree.children.is_empty() => {
                tree.allocate(self.width);
                self.advanced |= tree.raise(origin.as_usize(), end);
            }
            Topology::Tree(_) => {}
        }
    }

    /// The local delivered-prefix clock — what a mesh member gossips, and
    /// a tree member's own share of its up report.
    pub fn local_report(&self) -> VectorClock {
        prefix_clock(&self.prefix, self.width)
    }

    /// Merges a report from `from`: a mesh peer's prefix, a tree child's
    /// up report, or a tree parent's stable vector. Reports of another
    /// width than the group's, from senders outside it, or (over a tree)
    /// from anyone but a neighbour are ignored.
    pub fn on_report(&mut self, from: ProcessId, report: &VectorClock) {
        let width = self.width;
        if report.width() != width || from.as_usize() >= width {
            return;
        }
        self.advanced |= match &mut self.topology {
            Topology::Mesh { matrix, .. } => matrix.update_row(from, report),
            Topology::Tree(tree) => tree.on_report(from, report, &self.prefix, width),
        };
    }

    /// Queues this member's periodic report (the host's report cadence).
    /// The mesh queues the local prefix for every peer; a tree member
    /// queues an up report, and the root raises its stable vector and
    /// queues it for its children.
    pub fn on_cadence(&mut self) {
        match &mut self.topology {
            Topology::Mesh { due, .. } => *due = true,
            Topology::Tree(tree) => self.advanced |= tree.report(&self.prefix, self.width),
        }
    }

    /// Takes the next queued report: where it goes and the vector to
    /// send. Hosts drain this after every [`on_cadence`](Self::on_cadence)
    /// and [`on_report`](Self::on_report). Every report is as wide as
    /// the group.
    pub fn take_report(&mut self) -> Option<(ReportTo<'_>, VectorClock)> {
        let (prefix, width) = (&self.prefix, self.width);
        match &mut self.topology {
            Topology::Mesh { due, .. } => {
                std::mem::take(due).then(|| (ReportTo::Everyone, prefix_clock(prefix, width)))
            }
            Topology::Tree(tree) => {
                // Only a member with a parent queues an up report.
                if let (true, Some(parent)) = (std::mem::take(&mut tree.up_due), &tree.parent) {
                    let up = (0..width).map(|o| tree.up_entry(prefix, width, o));
                    let to = ReportTo::Members(std::slice::from_ref(parent));
                    return Some((to, VectorClock::from_entries(up)));
                }
                std::mem::take(&mut tree.down_due)
                    .then(|| (ReportTo::Members(&tree.children), tree.stable.clone()))
            }
        }
    }

    /// Takes `member`, removed by an installed view, out of the mesh's
    /// stable minimum: its matrix row rises to `u64::MAX`, so the minimum
    /// ranges over the survivors and a late report from it raises
    /// nothing. O(n²) once per removal. A tree tracker runs only in
    /// static groups and ignores the call.
    pub fn remove_member(&mut self, member: ProcessId) {
        let Topology::Mesh { matrix, .. } = &mut self.topology else {
            return;
        };
        if member.as_usize() >= matrix.width() {
            return;
        }
        for origin in ProcessId::all(matrix.width()) {
            self.advanced |= matrix.raise(member, origin, u64::MAX);
        }
    }

    /// The globally stable prefix: per origin, the highest seq delivered
    /// at *every* member (as far as this member knows). A tree tracker
    /// returns the empty clock until its first report: nothing is stable
    /// before then.
    pub fn stable(&self) -> &VectorClock {
        match &self.topology {
            Topology::Mesh { matrix, .. } => matrix.stable_prefix(),
            Topology::Tree(tree) => &tree.stable,
        }
    }

    /// The stable prefix if it rose since the last call, else `None`.
    /// Compaction against an unchanged prefix has nothing new to prune,
    /// so hosts compact only on `Some`.
    pub fn take_advance(&mut self) -> Option<&VectorClock> {
        std::mem::take(&mut self.advanced).then(|| self.stable())
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
        let mut t = StabilityTracker::new(ProcessId::new(0), 2);
        t.on_deliver(id(0, 1));
        t.on_deliver(id(0, 2));
        assert_eq!(t.local_report().as_ref(), &[2, 0]);
    }

    #[test]
    fn gaps_park_until_filled() {
        let mut t = StabilityTracker::new(ProcessId::new(0), 1);
        t.on_deliver(id(0, 3));
        assert_eq!(t.local_report().as_ref(), &[0]);
        assert_eq!(t.prefix.len(), 1);
        t.on_deliver(id(0, 1));
        assert_eq!(t.local_report().as_ref(), &[1]);
        t.on_deliver(id(0, 2));
        assert_eq!(t.local_report().as_ref(), &[3]);
        assert_eq!(t.prefix.len(), 0);
    }

    #[test]
    fn duplicates_inside_prefix_ignored() {
        let mut t = StabilityTracker::new(ProcessId::new(0), 1);
        t.on_deliver(id(0, 1));
        t.on_deliver(id(0, 1));
        assert_eq!(t.local_report().as_ref(), &[1]);
        assert_eq!(t.prefix.len(), 0);
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
        // Alone in its group, a member's prefix is the stable prefix.
        let mut t = StabilityTracker::new(ProcessId::new(0), 1);
        let mut deliver = |seq| {
            t.on_deliver(id(0, seq));
            t.take_advance().map(|s| s.get(ProcessId::new(0)))
        };
        assert_eq!(deliver(2), None); // parked beyond the gap
        assert_eq!(deliver(1), Some(2)); // fills it
        assert_eq!(deliver(1), None); // duplicate
        assert_eq!(deliver(3), Some(3));
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

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn vc<const N: usize>(entries: [u64; N]) -> VectorClock {
        VectorClock::from_entries(entries)
    }

    /// The tracker for `me` over the default-fanout overlay tree of `n`.
    fn tree_member(me: u32, n: usize) -> StabilityTracker {
        let group: Vec<ProcessId> = ProcessId::all(n).collect();
        let tree = crate::delivery::pcbcast::overlay::tree_position(
            pid(me),
            &group,
            crate::delivery::pcbcast::overlay::DEFAULT_FANOUT,
        )
        .expect("a member");
        StabilityTracker::over_tree(pid(me), n, tree.parent, tree.children)
    }

    fn tree(t: &StabilityTracker) -> &Convergecast {
        match &t.topology {
            Topology::Tree(tree) => tree,
            Topology::Mesh { .. } => panic!("a mesh tracker"),
        }
    }

    /// Report-sized entries a tracker holds beside its parked
    /// deliveries: one per origin for the prefix, plus the matrix (mesh)
    /// or the child rows and the stable vector (tree).
    fn held_entries(t: &StabilityTracker) -> usize {
        t.width
            + match &t.topology {
                Topology::Mesh { matrix, .. } => ProcessId::all(matrix.width())
                    .map(|p| matrix.row(p).len())
                    .sum(),
                Topology::Tree(tree) => tree.rows.len() + tree.heard.len() + tree.stable.width(),
            }
    }

    /// Drains every queued report as `(recipient, vector)` pairs.
    fn drain(t: &mut StabilityTracker) -> Vec<(ProcessId, VectorClock)> {
        let mut out = Vec::new();
        while let Some((to, report)) = t.take_report() {
            match to {
                ReportTo::Members(members) => {
                    out.extend(members.iter().map(|&m| (m, report.clone())));
                }
                ReportTo::Everyone => out.push((t.me, report)),
            }
        }
        out
    }

    #[test]
    fn mesh_ignores_reports_of_another_width_or_from_outside_the_group() {
        let mut t = StabilityTracker::new(pid(0), 2);
        t.on_deliver(id(0, 1));
        t.on_report(pid(5), &vc([1, 1]));
        t.on_report(pid(1), &vc([1, 1, 1]));
        t.on_report(pid(1), &vc([1]));
        assert_eq!(t.take_advance(), None);
        assert_eq!(t.stable().as_ref(), &[0, 0]);
        // A valid report still counts.
        t.on_report(pid(1), &vc([1, 1]));
        assert_eq!(t.stable().as_ref(), &[1, 0]);
    }

    #[test]
    fn tree_ignores_reports_of_another_width_or_from_outside_the_group() {
        let mut t = tree_member(0, 2);
        t.on_deliver(id(0, 1));
        t.on_report(pid(5), &vc([1, 1]));
        t.on_report(pid(1), &vc([1, 1, 1]));
        assert_eq!(t.take_advance(), None);
        assert!(drain(&mut t).is_empty());
        // Nothing was even allocated.
        assert_eq!(held_entries(&t), 2);
        t.on_report(pid(1), &vc([1, 1]));
        assert_eq!(t.stable().as_ref(), &[1, 0]);
    }

    #[test]
    fn mesh_cadence_queues_the_prefix_for_everyone() {
        let mut t = StabilityTracker::new(pid(0), 2);
        t.on_deliver(id(1, 1));
        assert_eq!(t.take_report(), None);
        t.on_cadence();
        assert_eq!(t.take_report(), Some((ReportTo::Everyone, vc([0, 1]))));
        assert_eq!(t.take_report(), None);
    }

    #[test]
    fn removed_member_leaves_the_mesh_minimum() {
        let mut t = StabilityTracker::new(pid(0), 3);
        for s in 1..=4 {
            t.on_deliver(id(0, s));
        }
        t.on_report(pid(1), &vc([3, 0, 0]));
        t.on_report(pid(2), &vc([1, 0, 0]));
        assert_eq!(t.take_advance().map(|s| s.get(pid(0))), Some(1));
        // p2 crashed: the minimum now ranges over p0 and p1.
        t.remove_member(pid(2));
        assert_eq!(t.take_advance().map(|s| s.get(pid(0))), Some(3));
        // A late report from p2 raises nothing; p1 alone now holds it.
        t.on_report(pid(2), &vc([2, 0, 0]));
        assert_eq!(t.take_advance(), None);
        t.on_report(pid(1), &vc([4, 0, 0]));
        assert_eq!(t.stable().as_ref(), &[4, 0, 0]);
        // Outside the group: nothing to remove.
        t.remove_member(pid(7));
    }

    #[test]
    fn tree_state_is_linear_in_the_group_where_the_mesh_is_quadratic() {
        let k = crate::delivery::pcbcast::overlay::DEFAULT_FANOUT;
        for n in [16, 64, 256] {
            let group: Vec<ProcessId> = ProcessId::all(n).collect();
            let report = VectorClock::new(n);
            let mut worst = 0;
            for me in 0..n as u32 {
                let mut t = tree_member(me, n);
                assert_eq!(held_entries(&t), n, "n={n}: allocates nothing up front");
                let neighbours = crate::delivery::pcbcast::overlay::neighbors(pid(me), &group, k);
                for from in neighbours {
                    t.on_report(from, &report);
                }
                t.on_cadence();
                worst = worst.max(held_entries(&t));
            }
            assert!(worst <= (k + 3) * n, "n={n}: {worst} entries");
            let mut mesh = StabilityTracker::new(pid(0), n);
            mesh.on_report(pid(1), &VectorClock::from_entries(vec![1; n]));
            assert_eq!(held_entries(&mesh), n + n * n, "n={n}");
        }
    }

    #[test]
    fn tree_root_with_fewer_than_k_children_waves_when_all_reported() {
        // n = 3 under fanout 4: the root has two children.
        let mut root = tree_member(0, 3);
        assert_eq!(tree(&root).children, vec![pid(1), pid(2)]);
        for s in 1..=3 {
            root.on_deliver(id(0, s));
        }
        root.on_report(pid(1), &vc([2, 0, 0]));
        assert!(drain(&mut root).is_empty());
        assert_eq!(root.take_advance(), None);
        // The second child completes the wave: the root raises its stable
        // vector to the minimum and sends it down.
        root.on_report(pid(2), &vc([3, 0, 0]));
        assert_eq!(root.take_advance().map(AsRef::as_ref), Some(&[2, 0, 0][..]));
        assert_eq!(
            drain(&mut root),
            vec![(pid(1), vc([2, 0, 0])), (pid(2), vc([2, 0, 0]))]
        );
        // Its own cadence computes the same up value: no rise, but the
        // children hear the vector again.
        root.on_cadence();
        assert_eq!(root.take_advance(), None);
        assert_eq!(drain(&mut root).len(), 2);
    }

    #[test]
    fn tree_leaf_reports_its_prefix_up_and_keeps_its_parents_vector() {
        let mut leaf = tree_member(2, 3);
        leaf.on_deliver(id(0, 1));
        leaf.on_deliver(id(2, 1));
        leaf.on_cadence();
        assert_eq!(drain(&mut leaf), vec![(pid(0), vc([1, 0, 1]))]);
        leaf.on_report(pid(0), &vc([1, 0, 0]));
        assert_eq!(leaf.take_advance().map(AsRef::as_ref), Some(&[1, 0, 0][..]));
        // A stale vector never lowers it; a leaf forwards nothing.
        leaf.on_report(pid(0), &vc([0, 0, 0]));
        assert_eq!(leaf.take_advance(), None);
        assert_eq!(leaf.stable().as_ref(), &[1, 0, 0]);
        assert!(drain(&mut leaf).is_empty());
    }

    #[test]
    fn tree_interior_forwards_its_parents_vector_and_waves_up() {
        // n = 16: p1's parent is p0 and its children are p5..=p8.
        let n = 16;
        let p5_up_to = |seq: u64| {
            let mut v = VectorClock::new(n);
            v.set(pid(5), seq);
            v
        };
        let mut t = tree_member(1, n);
        assert_eq!(tree(&t).parent, Some(pid(0)));
        assert_eq!(tree(&t).children, vec![pid(5), pid(6), pid(7), pid(8)]);
        for s in 1..=2 {
            t.on_deliver(id(5, s));
        }
        for child in 5..=7 {
            t.on_report(pid(child), &p5_up_to(2));
        }
        assert!(drain(&mut t).is_empty());
        // A cadence send goes up but leaves the wave set alone...
        t.on_cadence();
        assert_eq!(drain(&mut t), vec![(pid(0), p5_up_to(0))], "p8 is silent");
        // ...so the last child's report still completes the wave.
        t.on_report(pid(8), &p5_up_to(1));
        assert_eq!(drain(&mut t), vec![(pid(0), p5_up_to(1))]);
        // The parent's vector is forwarded to all four children.
        t.on_report(pid(0), &p5_up_to(1));
        let forwarded = drain(&mut t);
        let children: Vec<ProcessId> = forwarded.iter().map(|(to, _)| *to).collect();
        assert_eq!(children, vec![pid(5), pid(6), pid(7), pid(8)]);
        assert!(forwarded.iter().all(|(_, v)| *v == p5_up_to(1)));
    }

    #[test]
    fn tree_report_from_a_non_neighbour_changes_nothing() {
        let n = 16;
        let mut t = tree_member(1, n);
        t.on_deliver(id(1, 1));
        let report = VectorClock::from_entries(vec![9; n]);
        for stranger in [2, 3, 9, 15] {
            t.on_report(pid(stranger), &report);
        }
        assert_eq!(t.take_advance(), None);
        assert!(drain(&mut t).is_empty());
        assert_eq!(held_entries(&t), n, "nothing allocated");
        assert_eq!(t.stable().width(), 0, "nothing stable before a report");
    }

    #[test]
    fn tree_root_alone_is_its_own_stable_source() {
        let mut t = tree_member(0, 1);
        t.on_deliver(id(0, 2));
        assert_eq!(t.take_advance(), None, "parked beyond the gap");
        t.on_deliver(id(0, 1));
        assert_eq!(t.take_advance().map(AsRef::as_ref), Some(&[2][..]));
        t.on_cadence();
        assert!(drain(&mut t).is_empty(), "nobody to tell");
        assert_eq!(t.stable().as_ref(), &[2]);
    }

    #[test]
    fn tree_reports_are_as_wide_as_the_group() {
        // Even the root's first cadence, before anything was delivered or
        // heard, sends a full-width vector down.
        let mut root = tree_member(0, 5);
        root.on_cadence();
        let down = drain(&mut root);
        assert_eq!(down.len(), 4);
        assert!(down.iter().all(|(_, v)| v.width() == 5));
        let mut leaf = tree_member(4, 5);
        leaf.on_cadence();
        assert_eq!(drain(&mut leaf), vec![(pid(0), VectorClock::new(5))]);
    }
}
