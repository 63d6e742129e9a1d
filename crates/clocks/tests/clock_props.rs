//! Property-based tests for the logical-clock laws.

use causal_clocks::{CausalOrdering, LamportClock, MatrixClock, ProcessId, VectorClock};
use proptest::prelude::*;

const WIDTH: usize = 4;

fn arb_clock() -> impl Strategy<Value = VectorClock> {
    proptest::collection::vec(0u64..20, WIDTH).prop_map(VectorClock::from_entries)
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

    /// Lamport observe() always strictly exceeds both inputs.
    #[test]
    fn lamport_observe_exceeds_inputs(local in 0u64..1000, incoming in 0u64..1000) {
        let mut c = LamportClock::at(local);
        let out = c.observe(incoming);
        prop_assert!(out > local);
        prop_assert!(out > incoming);
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
}
