//! Deterministic spanning overlay: who forwards to whom.
//!
//! PC-broadcast derives causal order from FIFO dissemination over a
//! *connected* overlay, so the only structural requirements are that the
//! overlay spans the live member set and that every member computes the
//! same edges from the same view. We use a balanced k-ary tree over the
//! members sorted by id: the member of rank `r` links to its parent
//! `(r-1)/k` and children `k*r+1 ..= k*r+k`. That gives
//!
//! - degree ≤ k+1 (constant, independent of group size),
//! - diameter O(log_k n) (bounds delivery latency in overlay hops),
//! - each message crosses each of the n-1 edges exactly once, so a
//!   broadcast costs at most n-1 transmissions, and fewer where a
//!   member forwards a burst of messages as one frame (a tree has no
//!   redundant edges — compare n-1 sends *per member* for full-mesh
//!   rbcast),
//! - determinism: the edge set is a pure function of the member set, so
//!   every member of an installed view agrees on it without negotiation.
//!
//! A tree buys the minimal transmission count at the cost of resilience:
//! a crashed interior node partitions dissemination until the membership
//! layer installs the next view and the survivors re-derive the tree
//! over it (the flush protocol re-broadcasts anything stranded in the
//! dead subtree). Denser overlays trade redundant transmissions for
//! fewer recovery rounds; the fanout sets that trade, and every engine
//! uses [`DEFAULT_FANOUT`].

use causal_clocks::ProcessId;

/// Default branching factor: degree ≤ 5, depth ≈ log₄ n (7 hops at
/// n = 10,000).
pub const DEFAULT_FANOUT: usize = 4;

/// A member's place in the k-ary tree: the edges `neighbors` returns,
/// split by direction. The stability convergecast
/// ([`StabilityTracker::over_tree`](crate::stability::StabilityTracker::over_tree))
/// runs over the same edges as dissemination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreePosition {
    /// The member one level up; `None` at the root.
    pub parent: Option<ProcessId>,
    /// The members one level down, at most `fanout` of them.
    pub children: Vec<ProcessId>,
}

/// `me`'s parent and children in the k-ary tree over `members`.
///
/// `members` need not be sorted or deduplicated; ranks are taken over
/// the sorted unique ids so every member computes the same edge set from
/// the same view. Returns `None` when `me` is not a member.
pub fn tree_position(me: ProcessId, members: &[ProcessId], fanout: usize) -> Option<TreePosition> {
    let k = fanout.max(1);
    let mut sorted: Vec<ProcessId> = members.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let rank = sorted.binary_search(&me).ok()?;
    let parent = (rank > 0).then(|| sorted[(rank - 1) / k]);
    let first_child = (k * rank + 1).min(sorted.len());
    let children = sorted[first_child..].iter().take(k).copied().collect();
    Some(TreePosition { parent, children })
}

impl TreePosition {
    /// The overlay neighbors: the parent, then the children.
    pub fn neighbors(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.parent.into_iter().chain(self.children.iter().copied())
    }
}

/// The k-ary-tree overlay neighbors of `me` within `members`: its
/// parent, then its children ([`tree_position`]). Returns an empty set
/// when `me` is not a member (a removed member has no overlay links).
pub fn neighbors(me: ProcessId, members: &[ProcessId], fanout: usize) -> Vec<ProcessId> {
    tree_position(me, members, fanout).map_or_else(Vec::new, |tree| tree.neighbors().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn group(n: u32) -> Vec<ProcessId> {
        (0..n).map(p).collect()
    }

    #[test]
    fn three_node_tree_is_a_star_on_the_root() {
        let g = group(3);
        assert_eq!(neighbors(p(0), &g, 4), vec![p(1), p(2)]);
        assert_eq!(neighbors(p(1), &g, 4), vec![p(0)]);
        assert_eq!(neighbors(p(2), &g, 4), vec![p(0)]);
    }

    #[test]
    fn edges_are_symmetric_and_span_the_group() {
        for n in [1, 2, 3, 5, 17, 64, 1000] {
            let g = group(n);
            let mut edges = 0;
            for &a in &g {
                for b in neighbors(a, &g, 4) {
                    assert!(
                        neighbors(b, &g, 4).contains(&a),
                        "asymmetric edge {a}-{b} at n={n}"
                    );
                    edges += 1;
                }
            }
            // Each undirected tree edge counted once per endpoint.
            assert_eq!(edges, 2 * (n as usize - 1), "not a tree at n={n}");
        }
    }

    #[test]
    fn degree_is_bounded_by_fanout_plus_one() {
        let g = group(10_000);
        for &m in &g {
            assert!(neighbors(m, &g, 4).len() <= 5);
        }
    }

    #[test]
    fn ranks_follow_sorted_ids_not_positions() {
        // Members {5, 9, 2}: sorted ranks are 2 < 5 < 9, so 2 is the root.
        let g = vec![p(5), p(9), p(2)];
        assert_eq!(neighbors(p(2), &g, 4), vec![p(5), p(9)]);
        assert_eq!(neighbors(p(9), &g, 4), vec![p(2)]);
    }

    #[test]
    fn non_member_has_no_links() {
        assert!(neighbors(p(7), &group(3), 4).is_empty());
    }

    #[test]
    fn tree_position_splits_neighbors_by_direction() {
        let g = group(7);
        let root = tree_position(p(0), &g, 2).unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(root.children, vec![p(1), p(2)]);
        let inner = tree_position(p(2), &g, 2).unwrap();
        assert_eq!(inner.parent, Some(p(0)));
        assert_eq!(inner.children, vec![p(5), p(6)]);
        let leaf = tree_position(p(6), &g, 2).unwrap();
        assert_eq!(leaf.parent, Some(p(2)));
        assert!(leaf.children.is_empty());
        assert_eq!(tree_position(p(7), &g, 2), None);
    }

    #[test]
    fn fanout_two_builds_binary_tree() {
        let g = group(7);
        assert_eq!(neighbors(p(0), &g, 2), vec![p(1), p(2)]);
        assert_eq!(neighbors(p(1), &g, 2), vec![p(0), p(3), p(4)]);
        assert_eq!(neighbors(p(2), &g, 2), vec![p(0), p(5), p(6)]);
        assert_eq!(neighbors(p(3), &g, 2), vec![p(1)]);
    }
}
