//! The benchmark's operation: a payload that carries its own send time,
//! and the seeded generators that produce every input of a run.

use causal_core::wire::{get_u64_le, DecodeError, WireEncode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One data-access operation. `sent` is the send timestamp the benchmark
/// stamps into its own payload: simulated microseconds on simnet,
/// nanoseconds since the run's shared epoch on TCP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchOp {
    /// Amount added to the replica state.
    pub value: u64,
    /// Send timestamp (see the type docs for the unit).
    pub sent: u64,
    /// Classified non-commutative: closes a §6.1 processing cycle.
    pub nc: bool,
}

impl WireEncode for BenchOp {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.value.to_le_bytes());
        out.extend_from_slice(&self.sent.to_le_bytes());
        out.push(u8::from(self.nc));
    }

    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let value = get_u64_le(input)?;
        let sent = get_u64_le(input)?;
        let (&nc, rest) = input.split_first().ok_or(DecodeError::UnexpectedEnd)?;
        *input = rest;
        Ok(BenchOp {
            value,
            sent,
            nc: nc != 0,
        })
    }
}

/// One row of an open-loop plan: who submits which op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    pub submitter: usize,
    pub value: u64,
    pub nc: bool,
}

/// The open-loop input of a simnet run: `ops` operations round-robin over
/// `n` members, each non-commutative with probability `1 / (f_bar + 1)`
/// (so a §6.1 processing cycle holds `f_bar` commutative ops on average).
/// `f_bar == 0` means every op is commutative.
pub fn open_loop_plan(seed: u64, n: usize, ops: u64, f_bar: u64) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6f70_5f70_6c61_6e00);
    (0..ops as usize)
        .map(|k| Planned {
            submitter: k % n,
            value: rng.gen_range(1..1_000_000u64),
            nc: f_bar > 0 && rng.gen_range(0..=f_bar) == 0,
        })
        .collect()
}

/// The closed-loop op source of one TCP member: an endless, seeded stream
/// of `(value, nc)` where every `period`-th op is non-commutative.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: StdRng,
    issued: u64,
    period: u64,
}

impl OpStream {
    pub fn new(seed: u64, member: usize, period: u64) -> Self {
        OpStream {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ member as u64),
            issued: 0,
            period,
        }
    }

    pub fn next_op(&mut self, sent: u64) -> BenchOp {
        self.issued += 1;
        BenchOp {
            value: self.rng.gen_range(1..1_000_000u64),
            sent,
            nc: self.issued.is_multiple_of(self.period),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let a = open_loop_plan(7, 8, 2_000, 20);
        assert_eq!(a, open_loop_plan(7, 8, 2_000, 20));
        assert_ne!(a, open_loop_plan(8, 8, 2_000, 20));
        let nc = a.iter().filter(|p| p.nc).count();
        assert!(
            (50..150).contains(&nc),
            "≈1 in 21 non-commutative, got {nc}"
        );
        assert!(a.iter().enumerate().all(|(k, p)| p.submitter == k % 8));
        assert!(open_loop_plan(7, 64, 500, 0).iter().all(|p| !p.nc));
    }

    #[test]
    fn streams_are_deterministic_per_seed_and_member() {
        let take = |seed, member| {
            let mut s = OpStream::new(seed, member, 21);
            (0..100).map(|_| s.next_op(0)).collect::<Vec<_>>()
        };
        assert_eq!(take(3, 1), take(3, 1));
        assert_ne!(take(3, 1), take(3, 2));
        assert_ne!(take(3, 1), take(4, 1));
        assert_eq!(take(3, 1).iter().filter(|o| o.nc).count(), 4);
    }

    #[test]
    fn op_round_trips_through_the_codec() {
        let op = BenchOp {
            value: 42,
            sent: 1 << 40,
            nc: true,
        };
        assert_eq!(BenchOp::from_wire(&op.to_wire()), Ok(op));
    }
}
