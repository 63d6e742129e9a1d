//! Property-based tests for the logical-clock laws.

use causal_clocks::{CausalOrdering, IdWindow, MatrixClock, MsgId, Offer, ProcessId, VectorClock};
use proptest::prelude::*;
use std::collections::BTreeMap;

const WIDTH: usize = 4;

fn arb_clock() -> impl Strategy<Value = VectorClock> {
    proptest::collection::vec(0u64..20, WIDTH).prop_map(VectorClock::from_entries)
}

/// One step against an [`IdWindow`] and its model.
#[derive(Debug, Clone)]
enum WindowOp {
    Insert(MsgId, u32),
    GetOrInsert(MsgId, u32),
    Remove(MsgId),
    Advance(ProcessId),
    Compact(VectorClock),
    Offer(MsgId, u32),
    PopNext(ProcessId),
}

/// Origins 0..3 have dense lanes; 5000 and `u32::MAX` are far lanes.
fn arb_origin() -> impl Strategy<Value = ProcessId> {
    prop_oneof![
        (0u32..3).prop_map(ProcessId::new),
        Just(ProcessId::new(5000)),
        Just(ProcessId::new(u32::MAX)),
    ]
}

/// Sequence numbers around the lane reach, plus a few at the top of the
/// range, where a corrupt frame lands.
fn arb_seq() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..40, 0u64..400, (0u64..3).prop_map(|k| u64::MAX - k)]
}

fn arb_window_op() -> impl Strategy<Value = WindowOp> {
    let id = || (arb_origin(), arb_seq()).prop_map(|(o, s)| MsgId::new(o, s));
    prop_oneof![
        (id(), 0u32..100).prop_map(|(id, v)| WindowOp::Insert(id, v)),
        (id(), 0u32..100).prop_map(|(id, v)| WindowOp::Insert(id, v)),
        (id(), 0u32..100).prop_map(|(id, v)| WindowOp::GetOrInsert(id, v)),
        id().prop_map(WindowOp::Remove),
        arb_origin().prop_map(WindowOp::Advance),
        proptest::collection::vec(prop_oneof![0u64..300, Just(u64::MAX)], 0..4)
            .prop_map(|floors| WindowOp::Compact(VectorClock::from_entries(floors))),
        // Offers lean to small ids, so that many land just above a floor.
        (arb_origin(), prop_oneof![1u64..8, arb_seq()], 0u32..100)
            .prop_map(|(o, s, v)| WindowOp::Offer(MsgId::new(o, s), v)),
        (arb_origin(), prop_oneof![1u64..8, arb_seq()], 0u32..100)
            .prop_map(|(o, s, v)| WindowOp::Offer(MsgId::new(o, s), v)),
        arb_origin().prop_map(WindowOp::PopNext),
    ]
}

proptest! {
    /// compare is antisymmetric: a.compare(b) is the reverse of b.compare(a).
    #[test]
    fn compare_antisymmetric(a in arb_clock(), b in arb_clock()) {
        prop_assert_eq!(a.compare(&b), b.compare(&a).reverse());
    }

    /// compare(a, a) is Equal.
    #[test]
    fn compare_reflexive(a in arb_clock()) {
        prop_assert_eq!(a.compare(&a), CausalOrdering::Equal);
    }

    /// Before is transitive.
    #[test]
    fn before_transitive(a in arb_clock(), b in arb_clock(), c in arb_clock()) {
        if a.compare(&b) == CausalOrdering::Before && b.compare(&c) == CausalOrdering::Before {
            prop_assert_eq!(a.compare(&c), CausalOrdering::Before);
        }
    }

    /// merge is commutative, associative, idempotent, and dominates inputs.
    #[test]
    fn merge_lattice_laws(a in arb_clock(), b in arb_clock(), c in arb_clock()) {
        // commutative
        let mut ab = a.clone(); ab.merge(&b);
        let mut ba = b.clone(); ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        // associative
        let mut ab_c = ab.clone(); ab_c.merge(&c);
        let mut bc = b.clone(); bc.merge(&c);
        let mut a_bc = a.clone(); a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        // idempotent
        let mut aa = a.clone(); aa.merge(&a);
        prop_assert_eq!(&aa, &a);
        // dominates both inputs
        prop_assert!(ab.dominates(&a));
        prop_assert!(ab.dominates(&b));
    }

    /// merge is the least upper bound: any clock dominating both inputs
    /// dominates the merge.
    #[test]
    fn merge_is_lub(a in arb_clock(), b in arb_clock(), c in arb_clock()) {
        if c.dominates(&a) && c.dominates(&b) {
            let mut ab = a.clone();
            ab.merge(&b);
            prop_assert!(c.dominates(&ab));
        }
    }

    /// increment strictly advances the clock in the causal order.
    #[test]
    fn increment_strictly_advances(a in arb_clock(), i in 0u32..WIDTH as u32) {
        let mut later = a.clone();
        later.increment(ProcessId::new(i));
        prop_assert_eq!(a.compare(&later), CausalOrdering::Before);
    }

    /// dominates() agrees with compare(): a dominates b iff compare is
    /// After or Equal.
    #[test]
    fn dominates_consistent_with_compare(a in arb_clock(), b in arb_clock()) {
        let dom = a.dominates(&b);
        let cmp = a.compare(&b);
        prop_assert_eq!(
            dom,
            matches!(cmp, CausalOrdering::After | CausalOrdering::Equal)
        );
    }

    /// Matrix-clock stable prefix is dominated by every row.
    #[test]
    fn matrix_stable_prefix_dominated_by_rows(
        rows in proptest::collection::vec(arb_clock(), WIDTH)
    ) {
        let mut m = MatrixClock::new(WIDTH);
        for (i, row) in rows.iter().enumerate() {
            m.update_row(ProcessId::new(i as u32), row);
        }
        let stable = m.stable_prefix();
        for i in 0..WIDTH {
            let row = VectorClock::from_entries(m.row(ProcessId::new(i as u32)).iter().copied());
            prop_assert!(row.dominates(stable));
        }
    }

    /// The maintained column minima equal a fresh recomputation after
    /// every step of an interleaving of row merges and single-entry
    /// raises, and each step reports a rise exactly when they changed.
    #[test]
    fn matrix_maintained_minimum_matches_recomputed(
        steps in proptest::collection::vec(
            (0u32..WIDTH as u32, prop_oneof![
                arb_clock().prop_map(Ok),
                (0u32..WIDTH as u32, 0u64..20).prop_map(Err),
            ]),
            1..40,
        )
    ) {
        let mut m = MatrixClock::new(WIDTH);
        for (row, step) in steps {
            let row = ProcessId::new(row);
            let before = m.stable_prefix().clone();
            let rose = match step {
                Ok(report) => m.update_row(row, &report),
                Err((of, value)) => m.raise(row, ProcessId::new(of), value),
            };
            let recomputed = VectorClock::from_entries((0..WIDTH).map(|j| {
                (0..WIDTH)
                    .map(|i| m.row(ProcessId::new(i as u32))[j])
                    .min()
                    .unwrap_or(0)
            }));
            prop_assert_eq!(m.stable_prefix(), &recomputed);
            prop_assert_eq!(rose, recomputed != before);
        }
    }

    /// is_stable agrees with stable_prefix.
    #[test]
    fn matrix_is_stable_agrees_with_prefix(
        rows in proptest::collection::vec(arb_clock(), WIDTH),
        sender in 0u32..WIDTH as u32,
        seq in 0u64..25,
    ) {
        let mut m = MatrixClock::new(WIDTH);
        for (i, row) in rows.iter().enumerate() {
            m.update_row(ProcessId::new(i as u32), row);
        }
        let sender = ProcessId::new(sender);
        let prefix = m.stable_prefix();
        prop_assert_eq!(m.is_stable(sender, seq), prefix.get(sender) >= seq);
    }

    /// An IdWindow agrees with a `BTreeMap` plus per-origin floors after
    /// every step of a random insert/remove/advance/compact/offer/pop
    /// sequence: values, membership, retired-ness, length, floors and
    /// (origin, seq) iteration order. The gate's model answers duplicate
    /// for a retired or held id and keeps the held value, answers next
    /// for the id just above the floor, and parks any other id.
    #[test]
    fn id_window_matches_btreemap_model(
        ops in proptest::collection::vec(arb_window_op(), 1..120)
    ) {
        let mut window = IdWindow::new();
        let mut model: BTreeMap<MsgId, u32> = BTreeMap::new();
        let mut floors: BTreeMap<ProcessId, u64> = BTreeMap::new();
        let mut touched: Vec<MsgId> = Vec::new();
        for op in ops {
            match op {
                WindowOp::Insert(id, v) => {
                    touched.push(id);
                    let expected = if id.seq() <= floors.get(&id.origin()).copied().unwrap_or(0) {
                        Some(v)
                    } else {
                        model.insert(id, v)
                    };
                    prop_assert_eq!(window.insert(id, v), expected);
                }
                WindowOp::GetOrInsert(id, v) => {
                    touched.push(id);
                    let expected = if id.seq() <= floors.get(&id.origin()).copied().unwrap_or(0) {
                        None
                    } else {
                        Some(*model.entry(id).or_insert(v))
                    };
                    prop_assert_eq!(window.get_or_insert_with(id, || v).copied(), expected);
                }
                WindowOp::Remove(id) => {
                    prop_assert_eq!(window.remove(id), model.remove(&id));
                }
                WindowOp::Advance(origin) => {
                    let floor = floors.entry(origin).or_insert(0);
                    *floor = floor.saturating_add(1);
                    let floor = *floor;
                    model.retain(|id, _| id.origin() != origin || id.seq() > floor);
                    prop_assert_eq!(window.advance(origin), floor);
                }
                WindowOp::Compact(stable) => {
                    for (origin, s) in stable.iter() {
                        let floor = floors.entry(origin).or_insert(0);
                        *floor = (*floor).max(s);
                    }
                    model.retain(|id, _| id.seq() > floors.get(&id.origin()).copied().unwrap_or(0));
                    window.compact(&stable);
                }
                WindowOp::Offer(id, v) => {
                    touched.push(id);
                    let floor = floors.entry(id.origin()).or_insert(0);
                    let expected = if id.seq() <= *floor || model.contains_key(&id) {
                        Offer::Duplicate
                    } else if id.seq() == *floor + 1 {
                        *floor += 1;
                        Offer::Next(v)
                    } else {
                        model.insert(id, v);
                        Offer::Parked
                    };
                    prop_assert_eq!(window.offer(id, v), expected);
                }
                WindowOp::PopNext(origin) => {
                    let floor = floors.entry(origin).or_insert(0);
                    let next = floor.checked_add(1).map(|s| MsgId::new(origin, s));
                    let expected = next.and_then(|id| model.remove(&id));
                    if expected.is_some() {
                        *floor += 1;
                    }
                    prop_assert_eq!(window.pop_next(origin), expected);
                }
            }
            prop_assert_eq!(window.len(), model.len());
            prop_assert_eq!(window.is_empty(), model.is_empty());
            let listed: Vec<(MsgId, u32)> = window.iter().map(|(id, &v)| (id, v)).collect();
            let expected: Vec<(MsgId, u32)> = model.iter().map(|(&id, &v)| (id, v)).collect();
            prop_assert_eq!(listed, expected);
            for &id in &touched {
                let floor = floors.get(&id.origin()).copied().unwrap_or(0);
                prop_assert_eq!(window.get(id), model.get(&id));
                prop_assert_eq!(window.contains(id), model.contains_key(&id));
                prop_assert_eq!(window.is_retired(id), id.seq() <= floor);
                prop_assert_eq!(window.floor(id.origin()), floor);
            }
            let raised: Vec<(ProcessId, u64)> = window.floors().filter(|&(_, f)| f > 0).collect();
            let expected: Vec<(ProcessId, u64)> =
                floors.iter().map(|(&o, &f)| (o, f)).filter(|&(_, f)| f > 0).collect();
            prop_assert_eq!(raised, expected);
        }
    }
}
