//! Group views: numbered membership snapshots.

use causal_clocks::ProcessId;
use std::fmt;

/// Monotonically increasing identifier of a group view.
///
/// # Examples
///
/// ```
/// use causal_membership::ViewId;
/// let v = ViewId::initial();
/// assert!(v.next() > v);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewId(u64);

impl ViewId {
    /// The first view of a group.
    pub const fn initial() -> Self {
        ViewId(0)
    }

    /// The view following this one.
    pub const fn next(self) -> Self {
        ViewId(self.0 + 1)
    }

    /// The numeric index of the view.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Reconstructs a view id from its numeric index (wire decoding).
    pub const fn from_u64(id: u64) -> Self {
        ViewId(id)
    }
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A snapshot of the group membership, identified by a [`ViewId`].
///
/// Members are kept sorted, so all processes installing the same view agree
/// on ranks and on the coordinator (the lowest-id member) without
/// additional coordination.
///
/// # Examples
///
/// ```
/// use causal_clocks::ProcessId;
/// use causal_membership::GroupView;
///
/// let view = GroupView::initial(3);
/// let smaller = view.without(ProcessId::new(0));
/// assert_eq!(smaller.len(), 2);
/// assert_eq!(smaller.coordinator(), ProcessId::new(1));
/// assert!(smaller.id() > view.id());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupView {
    id: ViewId,
    members: Vec<ProcessId>,
}

impl GroupView {
    /// The initial view of a dense group `p0..pn`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn initial(n: usize) -> Self {
        assert!(n > 0, "a group view must have at least one member");
        GroupView {
            id: ViewId::initial(),
            members: ProcessId::all(n).collect(),
        }
    }

    /// A view with explicit id and members. Members are sorted and
    /// deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new<I: IntoIterator<Item = ProcessId>>(id: ViewId, members: I) -> Self {
        Self::try_new(id, members).expect("a group view must have at least one member")
    }

    /// Fallible twin of [`new`](Self::new): `None` on an empty member
    /// set instead of panicking. Untrusted construction sites (wire
    /// decoding) go through this so malformed input surfaces as a decode
    /// error rather than a process abort.
    pub fn try_new<I: IntoIterator<Item = ProcessId>>(id: ViewId, members: I) -> Option<Self> {
        let mut members: Vec<_> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        if members.is_empty() {
            return None;
        }
        Some(GroupView { id, members })
    }

    /// The view identifier.
    pub fn id(&self) -> ViewId {
        self.id
    }

    /// The members, sorted ascending.
    pub fn members(&self) -> &[ProcessId] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `false`: views are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` if `p` belongs to this view.
    pub fn contains(&self, p: ProcessId) -> bool {
        self.members.binary_search(&p).is_ok()
    }

    /// The coordinator: the lowest-id member. Deterministic across all
    /// installers of the view.
    pub fn coordinator(&self) -> ProcessId {
        self.members[0]
    }

    /// The next view with `p` added.
    pub fn with(&self, p: ProcessId) -> GroupView {
        let mut members = self.members.clone();
        if let Err(pos) = members.binary_search(&p) {
            members.insert(pos, p);
        }
        GroupView {
            id: self.id.next(),
            members,
        }
    }

    /// The next view with `p` removed.
    ///
    /// # Panics
    ///
    /// Panics if removing `p` would empty the view.
    pub fn without(&self, p: ProcessId) -> GroupView {
        let members: Vec<_> = self.members.iter().copied().filter(|&m| m != p).collect();
        assert!(
            !members.is_empty(),
            "cannot remove the last member of a view"
        );
        GroupView {
            id: self.id.next(),
            members,
        }
    }
}

impl fmt::Display for GroupView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.id)?;
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn initial_view_is_dense() {
        let v = GroupView::initial(3);
        assert_eq!(v.id(), ViewId::initial());
        assert_eq!(v.members(), &[p(0), p(1), p(2)]);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn new_sorts_and_dedups() {
        let v = GroupView::new(ViewId::initial(), [p(2), p(0), p(2)]);
        assert_eq!(v.members(), &[p(0), p(2)]);
    }

    #[test]
    fn contains_checks_membership() {
        let v = GroupView::new(ViewId::initial(), [p(1), p(3), p(5)]);
        assert!(v.contains(p(3)));
        assert!(!v.contains(p(2)));
    }

    #[test]
    fn coordinator_is_lowest() {
        let v = GroupView::new(ViewId::initial(), [p(4), p(2), p(7)]);
        assert_eq!(v.coordinator(), p(2));
    }

    #[test]
    fn with_and_without_bump_id() {
        let v = GroupView::initial(2);
        let bigger = v.with(p(5));
        assert_eq!(bigger.id(), v.id().next());
        assert!(bigger.contains(p(5)));
        let smaller = bigger.without(p(0));
        assert_eq!(smaller.members(), &[p(1), p(5)]);
        assert_eq!(smaller.id().as_u64(), 2);
    }

    #[test]
    fn with_existing_member_is_idempotent_on_membership() {
        let v = GroupView::initial(2);
        let again = v.with(p(1));
        assert_eq!(again.members(), v.members());
        assert_eq!(again.id(), v.id().next()); // id still advances
    }

    #[test]
    #[should_panic(expected = "last member")]
    fn cannot_empty_a_view() {
        let v = GroupView::initial(1);
        let _ = v.without(p(0));
    }

    #[test]
    fn display_format() {
        let v = GroupView::initial(2);
        assert_eq!(v.to_string(), "v0{p0,p1}");
    }
}
