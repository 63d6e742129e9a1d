//! Message dependency graphs: the paper's `R(M)` as a DAG (§3.1, Fig. 3).
//!
//! Nodes are messages; a directed edge `m → m'` records the causal relation
//! *"`m'` occurs after `m`"*. Many-to-one dependencies (several messages
//! depending on one) leave the dependents concurrent; one-to-many AND
//! dependencies (relation (3)) make one message wait for a whole set.
//!
//! The graph is *stable information*: it is identical at every member and
//! reproducible across executions, which is what lets members agree on
//! shared data at [synchronization points](MsgGraph::is_sync_point) without
//! running an agreement protocol.

use causal_clocks::{CausalOrdering, MsgId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// A message dependency graph (`R(M)`): an append-only DAG over messages.
///
/// Dependencies must reference messages already in the graph — callers add
/// messages in (any) causal order, which the delivery engines guarantee.
///
/// # Examples
///
/// Figure 3 of the paper — `Occurs-After(m1, Msg); Occurs-After(m2, Msg)`:
/// both `m1` and `m2` depend on `Msg`, and are therefore concurrent:
///
/// ```
/// use causal_clocks::{MsgId, ProcessId};
/// use causal_core::graph::MsgGraph;
///
/// let msg = MsgId::new(ProcessId::new(0), 1);
/// let m1 = MsgId::new(ProcessId::new(1), 1);
/// let m2 = MsgId::new(ProcessId::new(2), 1);
///
/// let mut g = MsgGraph::new();
/// g.add(msg, &[]).unwrap();
/// g.add(m1, &[msg]).unwrap();
/// g.add(m2, &[msg]).unwrap();
///
/// assert!(g.causally_precedes(msg, m1));
/// assert!(g.is_concurrent(m1, m2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MsgGraph {
    deps: HashMap<MsgId, Vec<MsgId>>,
    children: HashMap<MsgId, Vec<MsgId>>,
    insertion: Vec<MsgId>,
}

/// Structural equality: two graphs are equal when they contain the same
/// messages with the same dependencies. The order messages were *added*
/// in (a member's delivery order) is deliberately ignored — that is
/// exactly the paper's point that `R(M)` is identical at all members even
/// though delivery orders differ.
impl PartialEq for MsgGraph {
    fn eq(&self, other: &Self) -> bool {
        self.deps == other.deps
    }
}

impl Eq for MsgGraph {}

/// Why adding a message to a [`MsgGraph`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// The message id is already present.
    DuplicateNode(MsgId),
    /// A declared dependency is not (yet) in the graph.
    MissingDependency {
        /// The message being added.
        node: MsgId,
        /// The absent dependency.
        dep: MsgId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DuplicateNode(id) => write!(f, "message {id} already in graph"),
            GraphError::MissingDependency { node, dep } => {
                write!(f, "message {node} depends on absent message {dep}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl MsgGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        MsgGraph::default()
    }

    /// Adds message `id` with direct dependencies `deps`.
    ///
    /// # Errors
    ///
    /// [`GraphError::DuplicateNode`] if `id` is present;
    /// [`GraphError::MissingDependency`] if any dependency is absent
    /// (acyclicity follows: edges only point to pre-existing nodes).
    pub fn add(&mut self, id: MsgId, deps: &[MsgId]) -> Result<(), GraphError> {
        if self.deps.contains_key(&id) {
            return Err(GraphError::DuplicateNode(id));
        }
        for &d in deps {
            if !self.deps.contains_key(&d) {
                return Err(GraphError::MissingDependency { node: id, dep: d });
            }
        }
        let mut deps: Vec<MsgId> = deps.to_vec();
        deps.sort_unstable();
        deps.dedup();
        for &d in &deps {
            self.children.get_mut(&d).expect("dep exists").push(id);
        }
        self.deps.insert(id, deps);
        self.children.insert(id, Vec::new());
        self.insertion.push(id);
        Ok(())
    }

    /// Number of messages in the graph.
    pub fn len(&self) -> usize {
        self.insertion.len()
    }

    /// `true` when the graph has no messages.
    pub fn is_empty(&self) -> bool {
        self.insertion.is_empty()
    }

    /// `true` if `id` is in the graph.
    pub fn contains(&self, id: MsgId) -> bool {
        self.deps.contains_key(&id)
    }

    /// The direct dependencies of `id` (its parents), sorted.
    pub fn deps(&self, id: MsgId) -> Option<&[MsgId]> {
        self.deps.get(&id).map(Vec::as_slice)
    }

    /// The direct dependents of `id` (its children), in insertion order.
    pub fn children(&self, id: MsgId) -> Option<&[MsgId]> {
        self.children.get(&id).map(Vec::as_slice)
    }

    /// Messages in the order they were added (a linearization of the
    /// graph, since dependencies precede dependents).
    pub fn insertion_order(&self) -> &[MsgId] {
        &self.insertion
    }

    /// All transitive predecessors of `id` (excluding `id`).
    pub fn ancestors(&self, id: MsgId) -> HashSet<MsgId> {
        let mut seen = HashSet::new();
        let mut queue: VecDeque<MsgId> =
            self.deps.get(&id).into_iter().flatten().copied().collect();
        while let Some(m) = queue.pop_front() {
            if seen.insert(m) {
                queue.extend(self.deps.get(&m).into_iter().flatten().copied());
            }
        }
        seen
    }

    /// All transitive successors of `id` (excluding `id`).
    pub fn descendants(&self, id: MsgId) -> HashSet<MsgId> {
        let mut seen = HashSet::new();
        let mut queue: VecDeque<MsgId> = self
            .children
            .get(&id)
            .into_iter()
            .flatten()
            .copied()
            .collect();
        while let Some(m) = queue.pop_front() {
            if seen.insert(m) {
                queue.extend(self.children.get(&m).into_iter().flatten().copied());
            }
        }
        seen
    }

    /// `true` if `a` is a (transitive) causal predecessor of `b`
    /// (`a → b` in the paper's notation).
    pub fn causally_precedes(&self, a: MsgId, b: MsgId) -> bool {
        if a == b || !self.contains(a) || !self.contains(b) {
            return false;
        }
        // BFS from b upwards; graphs here are shallow and small.
        let mut queue: VecDeque<MsgId> = self.deps.get(&b).into_iter().flatten().copied().collect();
        let mut seen = HashSet::new();
        while let Some(m) = queue.pop_front() {
            if m == a {
                return true;
            }
            if seen.insert(m) {
                queue.extend(self.deps.get(&m).into_iter().flatten().copied());
            }
        }
        false
    }

    /// The causal relation between two messages in the graph.
    ///
    /// # Panics
    ///
    /// Panics if either message is absent.
    pub fn relation(&self, a: MsgId, b: MsgId) -> CausalOrdering {
        assert!(self.contains(a), "message {a} not in graph");
        assert!(self.contains(b), "message {b} not in graph");
        if a == b {
            CausalOrdering::Equal
        } else if self.causally_precedes(a, b) {
            CausalOrdering::Before
        } else if self.causally_precedes(b, a) {
            CausalOrdering::After
        } else {
            CausalOrdering::Concurrent
        }
    }

    /// `true` if the two messages are concurrent (`‖{a, b}`).
    ///
    /// # Panics
    ///
    /// Panics if either message is absent.
    pub fn is_concurrent(&self, a: MsgId, b: MsgId) -> bool {
        self.relation(a, b) == CausalOrdering::Concurrent
    }

    /// `true` if every pair in `set` is concurrent (an antichain).
    ///
    /// # Panics
    ///
    /// Panics if any message is absent.
    pub fn is_antichain(&self, set: &[MsgId]) -> bool {
        for (i, &a) in set.iter().enumerate() {
            for &b in &set[i + 1..] {
                if !self.is_concurrent(a, b) {
                    return false;
                }
            }
        }
        true
    }

    /// The maximal messages: those no other message depends on, sorted.
    pub fn frontier(&self) -> Vec<MsgId> {
        let mut f: Vec<_> = self
            .children
            .iter()
            .filter(|(_, ch)| ch.is_empty())
            .map(|(&id, _)| id)
            .collect();
        f.sort_unstable();
        f
    }

    /// The minimal messages: those with no dependencies, sorted.
    pub fn roots(&self) -> Vec<MsgId> {
        let mut r: Vec<_> = self
            .deps
            .iter()
            .filter(|(_, d)| d.is_empty())
            .map(|(&id, _)| id)
            .collect();
        r.sort_unstable();
        r
    }

    /// `true` if `id` is a **synchronization point** of the graph: every
    /// other message is either a causal ancestor or a causal descendant of
    /// it (§4.2). A state reached at such a message is a *stable point* —
    /// identical at every member, whatever linearization it processed.
    ///
    /// # Panics
    ///
    /// Panics if `id` is absent.
    pub fn is_sync_point(&self, id: MsgId) -> bool {
        assert!(self.contains(id), "message {id} not in graph");
        let ancestors = self.ancestors(id);
        let descendants = self.descendants(id);
        ancestors.len() + descendants.len() == self.len() - 1
    }

    /// All synchronization points, in insertion order.
    pub fn sync_points(&self) -> Vec<MsgId> {
        self.insertion
            .iter()
            .copied()
            .filter(|&id| self.is_sync_point(id))
            .collect()
    }

    /// A deterministic topological order: Kahn's algorithm with ready
    /// messages taken in `MsgId` order. Every member computing this on the
    /// same graph gets the same sequence — the basis of deterministic-merge
    /// total ordering.
    pub fn topo_order(&self) -> Vec<MsgId> {
        let mut indegree: HashMap<MsgId, usize> =
            self.deps.iter().map(|(&id, d)| (id, d.len())).collect();
        let mut ready: std::collections::BTreeSet<MsgId> = indegree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&id, _)| id)
            .collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(&id) = ready.iter().next() {
            ready.remove(&id);
            order.push(id);
            for &child in &self.children[&id] {
                let d = indegree.get_mut(&child).expect("child exists");
                *d -= 1;
                if *d == 0 {
                    ready.insert(child);
                }
            }
        }
        debug_assert_eq!(order.len(), self.len());
        order
    }

    /// Enumerates linearizations (allowed processing sequences, the paper's
    /// `EvSeq` list) up to `limit`. With `r` mutually concurrent messages
    /// there are up to `r!` sequences; the limit keeps this tractable.
    pub fn linearizations(&self, limit: usize) -> Vec<Vec<MsgId>> {
        let mut indegree: HashMap<MsgId, usize> =
            self.deps.iter().map(|(&id, d)| (id, d.len())).collect();
        let mut out = Vec::new();
        let mut prefix = Vec::with_capacity(self.len());
        self.enumerate_linearizations(&mut indegree, &mut prefix, &mut out, limit);
        out
    }

    fn enumerate_linearizations(
        &self,
        indegree: &mut HashMap<MsgId, usize>,
        prefix: &mut Vec<MsgId>,
        out: &mut Vec<Vec<MsgId>>,
        limit: usize,
    ) {
        if out.len() >= limit {
            return;
        }
        if prefix.len() == self.len() {
            out.push(prefix.clone());
            return;
        }
        let ready: Vec<MsgId> = {
            let mut r: Vec<_> = indegree
                .iter()
                .filter(|(_, &d)| d == 0)
                .map(|(&id, _)| id)
                .collect();
            r.sort_unstable();
            r
        };
        for id in ready {
            indegree.insert(id, usize::MAX); // mark taken
            for &child in &self.children[&id] {
                *indegree.get_mut(&child).expect("child") -= 1;
            }
            prefix.push(id);
            self.enumerate_linearizations(indegree, prefix, out, limit);
            prefix.pop();
            for &child in &self.children[&id] {
                *indegree.get_mut(&child).expect("child") += 1;
            }
            indegree.insert(id, 0);
        }
    }

    /// `true` if `sequence` is a valid linearization of the graph: it
    /// contains every message exactly once with dependencies first.
    pub fn is_linearization(&self, sequence: &[MsgId]) -> bool {
        if sequence.len() != self.len() {
            return false;
        }
        let mut position = HashMap::with_capacity(sequence.len());
        for (i, &id) in sequence.iter().enumerate() {
            if !self.contains(id) || position.insert(id, i).is_some() {
                return false;
            }
        }
        for (&id, deps) in &self.deps {
            for &d in deps {
                if position[&d] >= position[&id] {
                    return false;
                }
            }
        }
        true
    }

    /// The transitive reduction of the declared dependencies: for each
    /// message, the direct dependencies that are **not** implied by
    /// another direct dependency. Applications over-declaring
    /// `Occurs-After` sets (e.g. `a ∧ b` when `a → b` already holds) ship
    /// redundant ordering metadata; this computes the minimal equivalent
    /// relation.
    ///
    /// Returns `(message, redundant direct dependencies)` pairs for every
    /// message that has at least one redundant edge.
    pub fn redundant_deps(&self) -> Vec<(MsgId, Vec<MsgId>)> {
        let mut out = Vec::new();
        for &id in &self.insertion {
            let deps = &self.deps[&id];
            if deps.len() < 2 {
                continue;
            }
            let redundant: Vec<MsgId> = deps
                .iter()
                .copied()
                .filter(|&d| {
                    deps.iter()
                        .any(|&other| other != d && self.causally_precedes(d, other))
                })
                .collect();
            if !redundant.is_empty() {
                out.push((id, redundant));
            }
        }
        out
    }

    /// Builds the transitively reduced graph: same messages, same causal
    /// relation, minimal edge set. Useful for measuring how much ordering
    /// metadata an application could shed.
    pub fn transitive_reduction(&self) -> MsgGraph {
        let redundant: HashMap<MsgId, Vec<MsgId>> = self.redundant_deps().into_iter().collect();
        let mut reduced = MsgGraph::new();
        for &id in &self.insertion {
            let deps: Vec<MsgId> = self.deps[&id]
                .iter()
                .copied()
                .filter(|d| !redundant.get(&id).is_some_and(|r| r.contains(d)))
                .collect();
            reduced
                .add(id, &deps)
                .expect("same insertion order is valid");
        }
        reduced
    }

    /// Counts pairs of concurrent messages — a direct measure of the
    /// concurrency the ordering constraints leave available.
    ///
    /// One pass in insertion order builds each message's ancestors as a
    /// bitset over insertion positions, the union of its dependencies'
    /// sets and the dependencies themselves, which precede it. No later
    /// message precedes a message, so each earlier message is either one
    /// of its ancestors or concurrent with it. Quadratic in bits, n²/8
    /// bytes of memory: intended for analysis and benchmarks, not hot
    /// paths.
    pub fn concurrent_pairs(&self) -> usize {
        let position: HashMap<MsgId, usize> = self
            .insertion
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        let words = self.len().div_ceil(64);
        let mut ancestors = vec![0u64; self.len() * words];
        let mut count = 0;
        for (j, id) in self.insertion.iter().enumerate() {
            let (earlier, rest) = ancestors.split_at_mut(j * words);
            let row = &mut rest[..words];
            for d in &self.deps[id] {
                let i = position[d];
                row[i / 64] |= 1 << (i % 64);
                // `d`'s ancestors all lie below position `i`.
                let dep_row = &earlier[i * words..i * words + i / 64 + 1];
                for (bits, dep_bits) in row.iter_mut().zip(dep_row) {
                    *bits |= dep_bits;
                }
            }
            let preceding: u32 = row.iter().map(|bits| bits.count_ones()).sum();
            count += j - preceding as usize;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_clocks::ProcessId;

    fn mid(p: u32, s: u64) -> MsgId {
        MsgId::new(ProcessId::new(p), s)
    }

    /// Builds the paper's Figure 2 graph: mk → ‖{mi, mj} (and a closing
    /// sync message ms depending on both).
    fn fig2() -> (MsgGraph, MsgId, MsgId, MsgId, MsgId) {
        let (mk, mi, mj, ms) = (mid(2, 1), mid(0, 1), mid(1, 1), mid(0, 2));
        let mut g = MsgGraph::new();
        g.add(mk, &[]).unwrap();
        g.add(mi, &[mk]).unwrap();
        g.add(mj, &[mk]).unwrap();
        g.add(ms, &[mi, mj]).unwrap();
        (g, mk, mi, mj, ms)
    }

    #[test]
    fn add_and_query() {
        let (g, mk, mi, mj, ms) = fig2();
        assert_eq!(g.len(), 4);
        assert!(g.contains(mk));
        assert_eq!(g.deps(ms).unwrap(), &[mi, mj]);
        assert_eq!(g.children(mk).unwrap(), &[mi, mj]);
        assert_eq!(g.roots(), vec![mk]);
        assert_eq!(g.frontier(), vec![ms]);
    }

    #[test]
    fn duplicate_rejected() {
        let mut g = MsgGraph::new();
        g.add(mid(0, 1), &[]).unwrap();
        assert_eq!(
            g.add(mid(0, 1), &[]),
            Err(GraphError::DuplicateNode(mid(0, 1)))
        );
    }

    #[test]
    fn missing_dep_rejected() {
        let mut g = MsgGraph::new();
        assert_eq!(
            g.add(mid(0, 1), &[mid(9, 9)]),
            Err(GraphError::MissingDependency {
                node: mid(0, 1),
                dep: mid(9, 9)
            })
        );
    }

    #[test]
    fn ancestors_descendants() {
        let (g, mk, mi, mj, ms) = fig2();
        assert_eq!(g.ancestors(ms), [mk, mi, mj].into_iter().collect());
        assert_eq!(g.descendants(mk), [mi, mj, ms].into_iter().collect());
        assert!(g.ancestors(mk).is_empty());
        assert!(g.descendants(ms).is_empty());
    }

    #[test]
    fn relations_match_figure_2() {
        let (g, mk, mi, mj, ms) = fig2();
        assert!(g.causally_precedes(mk, mi));
        assert!(g.causally_precedes(mk, ms)); // transitive
        assert!(!g.causally_precedes(ms, mk));
        assert!(g.is_concurrent(mi, mj));
        assert_eq!(g.relation(mi, mi), CausalOrdering::Equal);
        assert_eq!(g.relation(ms, mk), CausalOrdering::After);
        assert!(g.is_antichain(&[mi, mj]));
        assert!(!g.is_antichain(&[mk, mi]));
    }

    #[test]
    fn sync_points_are_the_dominating_messages() {
        let (g, mk, mi, mj, ms) = fig2();
        assert!(g.is_sync_point(mk));
        assert!(g.is_sync_point(ms));
        assert!(!g.is_sync_point(mi));
        assert!(!g.is_sync_point(mj));
        assert_eq!(g.sync_points(), vec![mk, ms]);
    }

    #[test]
    fn topo_order_is_valid_and_deterministic() {
        let (g, ..) = fig2();
        let order = g.topo_order();
        assert!(g.is_linearization(&order));
        assert_eq!(order, g.topo_order());
    }

    #[test]
    fn linearizations_of_fig2() {
        let (g, mk, mi, mj, ms) = fig2();
        let seqs = g.linearizations(100);
        // Only the two concurrent messages permute: 2 linearizations.
        assert_eq!(seqs.len(), 2);
        assert!(seqs.contains(&vec![mk, mi, mj, ms]));
        assert!(seqs.contains(&vec![mk, mj, mi, ms]));
        for s in &seqs {
            assert!(g.is_linearization(s));
        }
    }

    #[test]
    fn linearizations_respect_limit() {
        // 5 mutually concurrent messages: 120 linearizations, capped at 7.
        let mut g = MsgGraph::new();
        for i in 0..5 {
            g.add(mid(i, 1), &[]).unwrap();
        }
        assert_eq!(g.linearizations(7).len(), 7);
    }

    #[test]
    fn is_linearization_rejects_bad_sequences() {
        let (g, mk, mi, mj, ms) = fig2();
        assert!(!g.is_linearization(&[mi, mk, mj, ms])); // dep after
        assert!(!g.is_linearization(&[mk, mi, mj])); // missing msg
        assert!(!g.is_linearization(&[mk, mi, mi, ms])); // duplicate
        assert!(!g.is_linearization(&[mk, mi, mj, mid(9, 9)])); // foreign
    }

    #[test]
    fn concurrent_pairs_counts() {
        let (g, ..) = fig2();
        assert_eq!(g.concurrent_pairs(), 1); // only (mi, mj)
        let mut chain = MsgGraph::new();
        chain.add(mid(0, 1), &[]).unwrap();
        chain.add(mid(0, 2), &[mid(0, 1)]).unwrap();
        assert_eq!(chain.concurrent_pairs(), 0);
    }

    #[test]
    fn redundant_deps_found_and_reduced() {
        // c declares deps on both a and b although a -> b already holds:
        // the a-edge is redundant.
        let (a, b, c) = (mid(0, 1), mid(0, 2), mid(0, 3));
        let mut g = MsgGraph::new();
        g.add(a, &[]).unwrap();
        g.add(b, &[a]).unwrap();
        g.add(c, &[a, b]).unwrap();
        assert_eq!(g.redundant_deps(), vec![(c, vec![a])]);

        let reduced = g.transitive_reduction();
        assert_eq!(reduced.deps(c).unwrap(), &[b]);
        // The causal relation is unchanged.
        assert!(reduced.causally_precedes(a, c));
        assert_eq!(reduced.relation(a, b), g.relation(a, b));
        assert!(reduced.redundant_deps().is_empty());
    }

    #[test]
    fn minimal_graphs_have_no_redundant_deps() {
        let (g, ..) = fig2();
        assert!(g.redundant_deps().is_empty());
        assert_eq!(g.transitive_reduction(), g);
    }

    #[test]
    fn dedup_of_declared_deps() {
        let mut g = MsgGraph::new();
        g.add(mid(0, 1), &[]).unwrap();
        g.add(mid(0, 2), &[mid(0, 1), mid(0, 1)]).unwrap();
        assert_eq!(g.deps(mid(0, 2)).unwrap(), &[mid(0, 1)]);
        assert_eq!(g.children(mid(0, 1)).unwrap(), &[mid(0, 2)]);
    }

    #[test]
    fn empty_graph_properties() {
        let g = MsgGraph::new();
        assert!(g.is_empty());
        assert!(g.frontier().is_empty());
        assert!(g.roots().is_empty());
        assert_eq!(g.linearizations(10), vec![Vec::<MsgId>::new()]);
    }
}
