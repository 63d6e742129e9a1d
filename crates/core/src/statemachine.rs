//! The replicated state-machine framework: `F : M × S → S` (§3.2) with
//! commutativity classes (§5.1, §6).
//!
//! Each member is a state-machine replica; consistency is achieved "by
//! producing the same set of transitions at every replica as allowed by
//! the causal order" (§4.2 after Schneider's state-machine approach). The
//! paper's key refinement is the split of operations into **commutative**
//! (may stay concurrent) and **non-commutative** (must be ordered): a set
//! of messages is a stable point precisely when its event sequences are
//! *transition-preserving* — every allowed interleaving reaches the same
//! state.
//!
//! The replicas themselves are [`App`](crate::stack::App)s hosted on the
//! protocol stack; this module holds the operation vocabulary they share
//! and the transition-preservation check.

/// The paper's two operation categories (§6): commutative operations may
/// remain concurrent; non-commutative operations are ordered and act as
/// synchronization candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// May be processed in any order relative to other commutative
    /// operations (the paper's `rqst_c`).
    Commutative,
    /// Must be ordered; closes stable points (the paper's `rqst_nc`).
    NonCommutative,
}

/// An application operation on replicated state `S`.
///
/// # Examples
///
/// ```
/// use causal_core::statemachine::Operation;
///
/// #[derive(Clone)]
/// enum CounterOp { Inc(i64), Dec(i64), Read }
///
/// impl Operation<i64> for CounterOp {
///     fn apply(&self, state: &mut i64) {
///         match self {
///             CounterOp::Inc(k) => *state += k,
///             CounterOp::Dec(k) => *state -= k,
///             CounterOp::Read => {}
///         }
///     }
///     fn is_commutative(&self) -> bool {
///         !matches!(self, CounterOp::Read)
///     }
/// }
/// ```
pub trait Operation<S>: Clone {
    /// Applies the operation to the state (the transition function `F`).
    fn apply(&self, state: &mut S);

    /// Whether the operation belongs to the commutative class (e.g.
    /// inc/dec on an integer; §5.1). Non-commutative by default: ordering
    /// is the safe assumption.
    fn is_commutative(&self) -> bool {
        false
    }

    /// The operation's category, derived from
    /// [`is_commutative`](Self::is_commutative).
    ///
    /// Deliberately named `op_class` (not `class`) so that implementors'
    /// own inherent `class()` helpers never shadow it in method
    /// resolution.
    fn op_class(&self) -> OpClass {
        if self.is_commutative() {
            OpClass::Commutative
        } else {
            OpClass::NonCommutative
        }
    }

    /// Whether this operation commutes with `other`. The default uses the
    /// class rule of §6: two operations commute iff both are in the
    /// commutative class. Override for finer-grained knowledge (e.g.
    /// operations on disjoint data items always commute, §5.1).
    fn commutes_with(&self, other: &Self) -> bool {
        self.is_commutative() && other.is_commutative()
    }
}

/// Applies a sequence of operations to a starting state, returning the
/// final state (the composed `F` of relation (1)).
fn apply_sequence<S: Clone, O: Operation<S>>(initial: &S, ops: &[O]) -> S {
    let mut state = initial.clone();
    for op in ops {
        op.apply(&mut state);
    }
    state
}

/// Tests whether a set of operations is **transition-preserving** from
/// `initial` (§4.1): every permutation reaches the same final state.
///
/// With `r` operations there are `r!` permutations; enumeration stops
/// after `max_sequences` and the result then covers only the sequences
/// examined. For the certainty guarantee choose
/// `max_sequences >= ops.len()!`.
///
/// # Examples
///
/// ```
/// use causal_core::statemachine::{is_transition_preserving, Operation};
///
/// #[derive(Clone)]
/// struct Add(i64);
/// impl Operation<i64> for Add {
///     fn apply(&self, s: &mut i64) { *s += self.0; }
///     fn is_commutative(&self) -> bool { true }
/// }
///
/// assert!(is_transition_preserving(&0, &[Add(1), Add(2), Add(3)], 10));
/// ```
pub fn is_transition_preserving<S, O>(initial: &S, ops: &[O], max_sequences: usize) -> bool
where
    S: Clone + PartialEq,
    O: Operation<S>,
{
    if ops.len() <= 1 {
        return true;
    }
    let reference = apply_sequence(initial, ops);
    let mut ops: Vec<O> = ops.to_vec();
    let mut checked = 1usize;
    // Heap's algorithm, iterative form.
    let n = ops.len();
    let mut c = vec![0usize; n];
    let mut i = 0;
    while i < n && checked < max_sequences {
        if c[i] < i {
            if i % 2 == 0 {
                ops.swap(0, i);
            } else {
                ops.swap(c[i], i);
            }
            if apply_sequence(initial, &ops) != reference {
                return false;
            }
            checked += 1;
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Inc(i64),
        Dec(i64),
        /// Overwrite — non-commutative.
        Set(i64),
    }

    impl Operation<i64> for Op {
        fn apply(&self, state: &mut i64) {
            match self {
                Op::Inc(k) => *state += k,
                Op::Dec(k) => *state -= k,
                Op::Set(v) => *state = *v,
            }
        }
        fn is_commutative(&self) -> bool {
            matches!(self, Op::Inc(_) | Op::Dec(_))
        }
    }

    #[test]
    fn apply_sequence_composes() {
        let out = apply_sequence(&10, &[Op::Inc(5), Op::Dec(3)]);
        assert_eq!(out, 12);
    }

    #[test]
    fn commutes_with_class_rule() {
        assert!(Op::Inc(1).commutes_with(&Op::Dec(2)));
        assert!(!Op::Inc(1).commutes_with(&Op::Set(0)));
        assert!(!Op::Set(1).commutes_with(&Op::Set(2)));
    }

    #[test]
    fn inc_dec_is_transition_preserving() {
        let ops = [Op::Inc(1), Op::Dec(2), Op::Inc(3), Op::Dec(4)];
        assert!(is_transition_preserving(&0, &ops, 1000));
    }

    #[test]
    fn set_breaks_transition_preservation() {
        let ops = [Op::Set(1), Op::Set(2)];
        assert!(!is_transition_preserving(&0, &ops, 1000));
        // inc + set also conflict
        assert!(!is_transition_preserving(
            &0,
            &[Op::Inc(1), Op::Set(5)],
            1000
        ));
    }

    #[test]
    fn single_op_trivially_preserving() {
        assert!(is_transition_preserving(&0, &[Op::Set(9)], 1));
        assert!(is_transition_preserving::<i64, Op>(&0, &[], 1));
    }

    #[test]
    fn limit_bounds_enumeration() {
        // With limit 1 only the reference order is checked: always true.
        assert!(is_transition_preserving(&0, &[Op::Set(1), Op::Set(2)], 1));
    }
}
