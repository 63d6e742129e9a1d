//! The paper's running example (§2.2, §5.1): a replicated integer with
//! commutative increment/decrement and ordered reads.
//!
//! The service requirement: *"a rd operation cannot be concurrent with a
//! inc/dec operation, while the inc and dec operations can be
//! concurrent"*. Reads are answered at the stable point they close, so
//! "the value of X returned by the member is the same as that by every
//! other member" (§5.1).

use causal_clocks::MsgId;
use causal_core::delivery::Delivered;
use causal_core::stable::StablePoint;
use causal_core::stack::{App, Emitter};
use causal_core::statemachine::{OpClass, Operation};
use causal_core::wire::{DecodeError, WireEncode};

/// Operations on the shared integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterOp {
    /// Add `k` — commutative.
    Inc(i64),
    /// Subtract `k` — commutative.
    Dec(i64),
    /// Overwrite with `v` — non-commutative.
    Set(i64),
    /// Read the value — non-commutative (must not be concurrent with
    /// inc/dec); answered identically at every replica.
    Read,
}

impl CounterOp {
    /// The §6 category of the operation.
    pub fn class(self) -> OpClass {
        match self {
            CounterOp::Inc(_) | CounterOp::Dec(_) => OpClass::Commutative,
            CounterOp::Set(_) | CounterOp::Read => OpClass::NonCommutative,
        }
    }
}

const TAG_INC: u8 = 0;
const TAG_DEC: u8 = 1;
const TAG_SET: u8 = 2;
const TAG_READ: u8 = 3;

impl WireEncode for CounterOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CounterOp::Inc(k) => {
                out.push(TAG_INC);
                k.encode(out);
            }
            CounterOp::Dec(k) => {
                out.push(TAG_DEC);
                k.encode(out);
            }
            CounterOp::Set(v) => {
                out.push(TAG_SET);
                v.encode(out);
            }
            CounterOp::Read => out.push(TAG_READ),
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let (&tag, rest) = input.split_first().ok_or(DecodeError::UnexpectedEnd)?;
        *input = rest;
        match tag {
            TAG_INC => Ok(CounterOp::Inc(i64::decode(input)?)),
            TAG_DEC => Ok(CounterOp::Dec(i64::decode(input)?)),
            TAG_SET => Ok(CounterOp::Set(i64::decode(input)?)),
            TAG_READ => Ok(CounterOp::Read),
            got => Err(DecodeError::InvalidTag { got }),
        }
    }
}

impl Operation<i64> for CounterOp {
    fn apply(&self, state: &mut i64) {
        match self {
            CounterOp::Inc(k) => *state += k,
            CounterOp::Dec(k) => *state -= k,
            CounterOp::Set(v) => *state = *v,
            CounterOp::Read => {}
        }
    }

    fn is_commutative(&self) -> bool {
        self.class() == OpClass::Commutative
    }
}

/// A counter replica as an [`App`]: applies operations as they are
/// causally delivered and answers `Read`s at stable points.
///
/// # Examples
///
/// See `examples/quickstart.rs`, which runs a three-member counter group
/// over the simulator.
#[derive(Debug, Clone, Default)]
pub struct CounterReplica {
    value: i64,
    /// `(read message, answered value)` — identical at every replica for
    /// every read, because reads are stable points.
    read_answers: Vec<(MsgId, i64)>,
    /// Value snapshot at each stable point.
    stable_values: Vec<i64>,
    applied: u64,
}

impl CounterReplica {
    /// Creates a replica with value 0.
    pub fn new() -> Self {
        CounterReplica::default()
    }

    /// The current local value (may differ between replicas while a
    /// commutative set is open).
    pub fn value(&self) -> i64 {
        self.value
    }

    /// Every read answered so far, with the (agreed) value returned.
    pub fn read_answers(&self) -> &[(MsgId, i64)] {
        &self.read_answers
    }

    /// The agreed value at each stable point.
    pub fn stable_values(&self) -> &[i64] {
        &self.stable_values
    }

    /// Operations applied.
    pub fn applied(&self) -> u64 {
        self.applied
    }
}

impl App for CounterReplica {
    type Op = CounterOp;

    fn on_deliver(&mut self, env: Delivered<'_, CounterOp>, _out: &mut Emitter<CounterOp>) {
        env.payload.apply(&mut self.value);
        self.applied += 1;
        if *env.payload == CounterOp::Read {
            self.read_answers.push((env.id, self.value));
        }
    }

    fn on_stable_point(&mut self, _sp: StablePoint, _out: &mut Emitter<CounterOp>) {
        self.stable_values.push(self.value);
    }

    fn classify(&self, op: &CounterOp) -> OpClass {
        op.class()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_clocks::ProcessId;
    use causal_core::osend::OccursAfter;
    use causal_core::stack::CausalNode;
    use causal_core::statemachine::is_transition_preserving;
    use causal_simnet::{LatencyModel, NetConfig, Simulation};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn group(n: usize) -> Vec<CausalNode<CounterReplica>> {
        (0..n)
            .map(|i| CausalNode::new(p(i as u32), n, CounterReplica::new()))
            .collect()
    }

    #[test]
    fn op_classes_match_paper() {
        assert_eq!(CounterOp::Inc(1).class(), OpClass::Commutative);
        assert_eq!(CounterOp::Dec(1).class(), OpClass::Commutative);
        assert_eq!(CounterOp::Set(0).class(), OpClass::NonCommutative);
        assert_eq!(CounterOp::Read.class(), OpClass::NonCommutative);
    }

    #[test]
    fn inc_dec_sets_are_transition_preserving() {
        let ops = [
            CounterOp::Inc(3),
            CounterOp::Dec(5),
            CounterOp::Inc(1),
            CounterOp::Dec(2),
        ];
        assert!(is_transition_preserving(&0i64, &ops, 1000));
    }

    #[test]
    fn read_concurrent_with_inc_is_not_preserving() {
        // The paper's motivating constraint: rd ‖ inc is not allowed.
        // (Set stands in for an operation whose result a read observes;
        // Read itself has no state effect, so pair Set with Inc.)
        let ops = [CounterOp::Set(10), CounterOp::Inc(1)];
        assert!(!is_transition_preserving(&0i64, &ops, 1000));
    }

    #[test]
    fn reads_answered_identically_at_all_replicas() {
        let mut sim = Simulation::new(
            group(3),
            NetConfig::with_latency(LatencyModel::uniform_micros(50, 4000)),
            11,
        );
        // nc cycle: Set(100) -> ||{Inc(7), Dec(3)} -> Read
        let nc0 = sim
            .poke(p(0), |n, ctx| {
                n.osend(ctx, CounterOp::Set(100), OccursAfter::none())
            })
            .unwrap();
        sim.run_to_quiescence();
        let c1 = sim
            .poke(p(1), |n, ctx| {
                n.osend(ctx, CounterOp::Inc(7), OccursAfter::message(nc0))
            })
            .unwrap();
        let c2 = sim
            .poke(p(2), |n, ctx| {
                n.osend(ctx, CounterOp::Dec(3), OccursAfter::message(nc0))
            })
            .unwrap();
        sim.run_to_quiescence();
        sim.poke(p(0), |n, ctx| {
            n.osend(ctx, CounterOp::Read, OccursAfter::all([c1, c2]))
        });
        sim.run_to_quiescence();

        let answers: Vec<_> = (0..3)
            .map(|i| sim.node(p(i)).app().read_answers().to_vec())
            .collect();
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[1], answers[2]);
        assert_eq!(answers[0].len(), 1);
        assert_eq!(answers[0][0].1, 104);
    }

    #[test]
    fn stable_values_agree_across_replicas() {
        let mut sim = Simulation::new(group(4), NetConfig::new(), 5);
        let nc0 = sim
            .poke(p(0), |n, ctx| {
                n.osend(ctx, CounterOp::Set(0), OccursAfter::none())
            })
            .unwrap();
        sim.run_to_quiescence();
        let mut cids = Vec::new();
        for i in 0..4u32 {
            cids.push(
                sim.poke(p(i), |n, ctx| {
                    n.osend(ctx, CounterOp::Inc(i as i64 + 1), OccursAfter::message(nc0))
                })
                .unwrap(),
            );
        }
        sim.run_to_quiescence();
        sim.poke(p(0), |n, ctx| {
            n.osend(ctx, CounterOp::Read, OccursAfter::all(cids.clone()))
        });
        sim.run_to_quiescence();
        let stables: Vec<_> = (0..4)
            .map(|i| sim.node(p(i)).app().stable_values().to_vec())
            .collect();
        for s in &stables {
            assert_eq!(s, &vec![0, 10]);
        }
    }
}
