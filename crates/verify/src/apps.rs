//! Small deterministic applications for verification runs.
//!
//! The explorer and the regression suite need a workload whose state is
//! byte-comparable across members and genuinely order-sensitive for
//! non-commutative operations — otherwise the §4 snapshot-agreement check
//! has no teeth. [`SumApp`] provides exactly that.

use crate::explorer::ScriptStep;
use causal_clocks::{MsgId, ProcessId};
use causal_core::delivery::Delivered;
use causal_core::osend::OccursAfter;
use causal_core::stack::{App, Emitter};
use causal_core::statemachine::{OpClass, Operation};

/// An operation on a replicated `i64` register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CounterOp {
    /// Commutative increment (the paper's `rqst_c`).
    Add(i64),
    /// Non-commutative marker (the paper's `rqst_nc`): folds the argument
    /// into the state through a non-commutative mix, so any two members
    /// that apply their logs in genuinely different orders end up with
    /// different snapshot bytes.
    Mark(i64),
}

impl Operation<i64> for CounterOp {
    fn apply(&self, state: &mut i64) {
        match self {
            CounterOp::Add(k) => *state = state.wrapping_add(*k),
            CounterOp::Mark(m) => *state = state.wrapping_mul(31).wrapping_add(*m),
        }
    }

    fn is_commutative(&self) -> bool {
        matches!(self, CounterOp::Add(_))
    }
}

/// The matching application: applies [`CounterOp`]s to an `i64` and
/// exposes the value as its snapshot, so the oracle compares state bytes
/// at every stable point.
#[derive(Debug, Clone, Default)]
pub struct SumApp {
    value: i64,
}

impl SumApp {
    /// A fresh register at zero.
    pub fn new() -> Self {
        SumApp::default()
    }

    /// The current register value.
    pub fn value(&self) -> i64 {
        self.value
    }
}

impl App for SumApp {
    type Op = CounterOp;

    fn classify(&self, op: &Self::Op) -> OpClass {
        if op.is_commutative() {
            OpClass::Commutative
        } else {
            OpClass::NonCommutative
        }
    }

    fn on_deliver(&mut self, env: Delivered<'_, Self::Op>, _out: &mut Emitter<Self::Op>) {
        env.payload.apply(&mut self.value);
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(self.value.to_le_bytes().to_vec())
    }
}

/// The §6.1 causal-activity shape over a 3-node group: nc → { c ∥ c } →
/// nc, the workload the `explore` binary sweeps for every engine. Node
/// ids are deterministic (node `i`'s `k`-th broadcast is `i#k`), so later
/// steps can name earlier messages before any delivery happens.
pub fn sec61_script() -> Vec<ScriptStep<CounterOp>> {
    let m1 = MsgId::new(ProcessId::new(0), 1);
    let m2 = MsgId::new(ProcessId::new(1), 1);
    let m3 = MsgId::new(ProcessId::new(2), 1);
    vec![
        ScriptStep {
            node: 0,
            op: CounterOp::Mark(1),
            after: OccursAfter::none(),
        },
        ScriptStep {
            node: 1,
            op: CounterOp::Add(10),
            after: OccursAfter::message(m1),
        },
        ScriptStep {
            node: 2,
            op: CounterOp::Add(100),
            after: OccursAfter::message(m1),
        },
        ScriptStep {
            node: 0,
            op: CounterOp::Mark(2),
            after: OccursAfter::all([m2, m3]),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adds_commute_marks_do_not() {
        let (a, b) = (CounterOp::Add(3), CounterOp::Add(5));
        let mut s1 = 0i64;
        let mut s2 = 0i64;
        a.apply(&mut s1);
        b.apply(&mut s1);
        b.apply(&mut s2);
        a.apply(&mut s2);
        assert_eq!(s1, s2);

        let (a, m) = (CounterOp::Add(3), CounterOp::Mark(5));
        let mut s1 = 1i64;
        let mut s2 = 1i64;
        a.apply(&mut s1);
        m.apply(&mut s1);
        m.apply(&mut s2);
        a.apply(&mut s2);
        assert_ne!(s1, s2);
    }

    #[test]
    fn snapshot_tracks_value() {
        let mut app = SumApp::new();
        let mut out = Emitter::new();
        let env = causal_core::osend::GraphEnvelope {
            id: causal_clocks::MsgId::new(causal_clocks::ProcessId::new(0), 1),
            deps: Default::default(),
            payload: CounterOp::Add(7),
        };
        app.on_deliver(Delivered::from_graph(&env), &mut out);
        assert_eq!(app.value(), 7);
        assert_eq!(app.snapshot(), Some(7i64.to_le_bytes().to_vec()));
    }
}
