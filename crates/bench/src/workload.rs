//! Synthetic workload generation for the §6.1 commutative-mix experiments.
//!
//! The paper models replica processing as repetitive cycles
//! `rqst_nc(r-1) → ‖{rqst_c(r,k)}k=1..f̄ → rqst_nc(r)` and observes that
//! "typically 90 % of the operations are commutative (e.g., as in many
//! database applications). Thus, for example, f̄ = 20." The generator
//! reproduces exactly this shape with a configurable mean `f̄`.

use causal_replica::counter::CounterOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generated request with its submitting member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixOp {
    /// The counter operation to broadcast.
    pub op: CounterOp,
    /// Index (mod group size) of the member that submits it.
    pub submitter: usize,
}

/// A §6.1-shaped workload: `cycles` processing cycles, each one
/// non-commutative request followed by a geometric-ish number of
/// commutative requests with mean `f_bar`.
#[derive(Debug, Clone)]
pub struct MixWorkload {
    ops: Vec<MixOp>,
}

impl MixWorkload {
    /// Generates a workload of `cycles` cycles with mean commutative run
    /// length `f_bar` (exactly `f_bar` per cycle when `jitter` is false;
    /// uniform in `[f_bar/2, 3*f_bar/2]` when true). Submitters rotate
    /// round-robin so concurrent requests really originate at different
    /// members.
    pub fn generate(cycles: usize, f_bar: usize, jitter: bool, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ops = Vec::new();
        let mut submitter = 0usize;
        let next = move |s: &mut usize| {
            let v = *s;
            *s += 1;
            v
        };
        for cycle in 0..cycles {
            // The cycle-opening non-commutative request: alternate between
            // a write (Set) and a read.
            let nc = if cycle % 2 == 0 {
                CounterOp::Set(cycle as i64)
            } else {
                CounterOp::Read
            };
            ops.push(MixOp {
                op: nc,
                submitter: next(&mut submitter),
            });
            let run = if jitter && f_bar > 0 {
                rng.gen_range(f_bar / 2..=f_bar + f_bar / 2)
            } else {
                f_bar
            };
            for k in 0..run {
                let op = if rng.gen_bool(0.5) {
                    CounterOp::Inc(1 + k as i64)
                } else {
                    CounterOp::Dec(1 + k as i64)
                };
                ops.push(MixOp {
                    op,
                    submitter: next(&mut submitter),
                });
            }
        }
        MixWorkload { ops }
    }

    /// The generated requests in submission order.
    pub fn ops(&self) -> &[MixOp] {
        &self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_core::statemachine::{OpClass, Operation};

    fn commutative(w: &MixWorkload) -> usize {
        w.ops().iter().filter(|m| m.op.is_commutative()).count()
    }

    #[test]
    fn exact_f_bar_without_jitter() {
        let w = MixWorkload::generate(5, 4, false, 1);
        assert_eq!(w.ops().len(), 5 * (1 + 4));
        assert_eq!(commutative(&w), 20);
    }

    #[test]
    fn f_bar_20_is_about_95_percent_commutative() {
        // f̄ = 20 gives 20/21 ≈ 95% commutative, the ballpark of the
        // paper's "typically 90%".
        let w = MixWorkload::generate(10, 20, false, 2);
        assert!(commutative(&w) as f64 / w.ops().len() as f64 > 0.9);
    }

    #[test]
    fn structure_alternates_nc_then_run() {
        let w = MixWorkload::generate(3, 2, false, 3);
        let classes: Vec<bool> = w.ops().iter().map(|m| m.op.is_commutative()).collect();
        assert_eq!(
            classes,
            vec![false, true, true, false, true, true, false, true, true]
        );
    }

    #[test]
    fn submitters_rotate() {
        let w = MixWorkload::generate(2, 2, false, 4);
        let submitters: Vec<usize> = w.ops().iter().map(|m| m.submitter).collect();
        assert_eq!(submitters, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = MixWorkload::generate(4, 6, true, 9);
        let b = MixWorkload::generate(4, 6, true, 9);
        assert_eq!(a.ops(), b.ops());
    }

    #[test]
    fn zero_f_bar_is_all_non_commutative() {
        let w = MixWorkload::generate(4, 0, false, 5);
        assert!(w
            .ops()
            .iter()
            .all(|m| m.op.op_class() == OpClass::NonCommutative));
    }
}
