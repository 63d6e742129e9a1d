//! Fault injection: message loss, duplication, and network partitions.

use crate::SimTime;
use causal_clocks::ProcessId;
use std::collections::BTreeSet;

/// Probabilistic message faults applied to every point-to-point
/// transmission (loopback sends are exempt).
///
/// # Examples
///
/// ```
/// use causal_simnet::FaultPlan;
///
/// let faults = FaultPlan::new().with_drop_prob(0.05).with_dup_prob(0.01);
/// assert_eq!(faults.drop_prob(), 0.05);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    drop_prob: f64,
    dup_prob: f64,
}

impl FaultPlan {
    /// A fault-free plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the probability that a transmission is silently lost.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0,1]"
        );
        self.drop_prob = p;
        self
    }

    /// Sets the probability that a transmission is delivered twice.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_dup_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "dup probability must be in [0,1]");
        self.dup_prob = p;
        self
    }

    /// Probability that a transmission is lost.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }

    /// Probability that a transmission is duplicated.
    pub fn dup_prob(&self) -> f64 {
        self.dup_prob
    }
}

/// A temporary two-sided network partition: messages crossing between
/// `side_a` and `side_b` during `[from, until)` are dropped.
///
/// # Examples
///
/// ```
/// use causal_clocks::ProcessId;
/// use causal_simnet::{Partition, SimTime};
///
/// let p = Partition::new(
///     [ProcessId::new(0)],
///     [ProcessId::new(1), ProcessId::new(2)],
///     SimTime::from_millis(10),
///     SimTime::from_millis(20),
/// );
/// assert!(p.severs(ProcessId::new(0), ProcessId::new(2), SimTime::from_millis(15)));
/// assert!(!p.severs(ProcessId::new(0), ProcessId::new(2), SimTime::from_millis(25)));
/// assert!(!p.severs(ProcessId::new(1), ProcessId::new(2), SimTime::from_millis(15)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    side_a: BTreeSet<ProcessId>,
    side_b: BTreeSet<ProcessId>,
    from: SimTime,
    until: SimTime,
}

impl Partition {
    /// Creates a partition between two sides for the window `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if the sides overlap or if `from >= until`.
    pub fn new<A, B>(side_a: A, side_b: B, from: SimTime, until: SimTime) -> Self
    where
        A: IntoIterator<Item = ProcessId>,
        B: IntoIterator<Item = ProcessId>,
    {
        let side_a: BTreeSet<_> = side_a.into_iter().collect();
        let side_b: BTreeSet<_> = side_b.into_iter().collect();
        assert!(
            side_a.is_disjoint(&side_b),
            "partition sides must be disjoint"
        );
        assert!(from < until, "partition window must be non-empty");
        Partition {
            side_a,
            side_b,
            from,
            until,
        }
    }

    /// Returns `true` if a message from `src` to `dst` sent at `at` crosses
    /// the partition while it is active.
    pub fn severs(&self, src: ProcessId, dst: ProcessId, at: SimTime) -> bool {
        if at < self.from || at >= self.until {
            return false;
        }
        (self.side_a.contains(&src) && self.side_b.contains(&dst))
            || (self.side_b.contains(&src) && self.side_a.contains(&dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn default_plan_is_fault_free() {
        let plan = FaultPlan::new();
        assert_eq!((plan.drop_prob(), plan.dup_prob()), (0.0, 0.0));
    }

    #[test]
    fn builder_sets_probabilities() {
        let f = FaultPlan::new().with_drop_prob(0.2).with_dup_prob(0.1);
        assert_eq!(f.drop_prob(), 0.2);
        assert_eq!(f.dup_prob(), 0.1);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn rejects_invalid_probability() {
        let _ = FaultPlan::new().with_drop_prob(1.5);
    }

    #[test]
    fn partition_severs_both_directions() {
        let part = Partition::new(
            [p(0)],
            [p(1)],
            SimTime::from_micros(10),
            SimTime::from_micros(20),
        );
        let mid = SimTime::from_micros(15);
        assert!(part.severs(p(0), p(1), mid));
        assert!(part.severs(p(1), p(0), mid));
    }

    #[test]
    fn partition_window_boundaries() {
        let part = Partition::new(
            [p(0)],
            [p(1)],
            SimTime::from_micros(10),
            SimTime::from_micros(20),
        );
        assert!(!part.severs(p(0), p(1), SimTime::from_micros(9)));
        assert!(part.severs(p(0), p(1), SimTime::from_micros(10)));
        assert!(!part.severs(p(0), p(1), SimTime::from_micros(20)));
    }

    #[test]
    fn partition_ignores_same_side_traffic() {
        let part = Partition::new(
            [p(0), p(1)],
            [p(2)],
            SimTime::ZERO,
            SimTime::from_micros(100),
        );
        assert!(!part.severs(p(0), p(1), SimTime::from_micros(5)));
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn partition_rejects_overlap() {
        let _ = Partition::new([p(0), p(1)], [p(1)], SimTime::ZERO, SimTime::from_micros(1));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn partition_rejects_empty_window() {
        let _ = Partition::new(
            [p(0)],
            [p(1)],
            SimTime::from_micros(5),
            SimTime::from_micros(5),
        );
    }
}
