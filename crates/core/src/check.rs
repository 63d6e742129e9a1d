//! Consistency validators: machine-checkable statements of the paper's
//! correctness claims, used by tests, property tests, and experiment
//! harnesses.

use crate::graph::MsgGraph;
use crate::stable::{LogEntry, StablePointDetector};
use crate::statemachine::Operation;
use causal_clocks::{MsgId, VectorClock};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A violation found by one of the validators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A message was processed before one of its declared dependencies.
    DependencyAfterMessage {
        /// The offending message.
        msg: MsgId,
        /// The dependency that should have come first.
        dep: MsgId,
        /// Which replica's log (index into the input).
        replica: usize,
    },
    /// Two replicas delivered different message sets.
    DifferentMessageSets {
        /// First replica index.
        a: usize,
        /// Second replica index.
        b: usize,
    },
    /// Two replicas disagree on the sequence of stable points.
    StablePointMismatch {
        /// First replica index.
        a: usize,
        /// Second replica index.
        b: usize,
        /// Position of the first disagreement.
        ordinal: usize,
    },
    /// Two replicas observed different message sets between the same pair
    /// of stable points.
    ActivityContentMismatch {
        /// First replica index.
        a: usize,
        /// Second replica index.
        b: usize,
        /// The activity ordinal where contents diverge.
        ordinal: usize,
    },
    /// Two vector-clock logs order a causally related pair differently.
    CausalInversion {
        /// The earlier message (by causality).
        first: MsgId,
        /// The later message.
        second: MsgId,
        /// The replica that delivered them inverted.
        replica: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DependencyAfterMessage { msg, dep, replica } => write!(
                f,
                "replica {replica} processed {msg} before its dependency {dep}"
            ),
            Violation::DifferentMessageSets { a, b } => {
                write!(f, "replicas {a} and {b} delivered different message sets")
            }
            Violation::StablePointMismatch { a, b, ordinal } => {
                write!(f, "replicas {a} and {b} disagree on stable point {ordinal}")
            }
            Violation::ActivityContentMismatch { a, b, ordinal } => write!(
                f,
                "replicas {a} and {b} observed different messages in activity {ordinal}"
            ),
            Violation::CausalInversion {
                first,
                second,
                replica,
            } => write!(
                f,
                "replica {replica} delivered {second} before causal predecessor {first}"
            ),
        }
    }
}

impl std::error::Error for Violation {}

/// Checks that one delivery log respects its own declared dependencies:
/// every dependency appears earlier in the log than its dependent.
///
/// # Examples
///
/// ```
/// use causal_clocks::{MsgId, ProcessId};
/// use causal_core::check::causal_order_respected;
///
/// let a = MsgId::new(ProcessId::new(0), 1);
/// let b = MsgId::new(ProcessId::new(1), 1);
/// assert!(causal_order_respected(&[(a, vec![]), (b, vec![a])], 0).is_ok());
/// assert!(causal_order_respected(&[(b, vec![a]), (a, vec![])], 0).is_err());
/// ```
pub fn causal_order_respected(
    log: &[(MsgId, Vec<MsgId>)],
    replica: usize,
) -> Result<(), Violation> {
    let mut seen = HashSet::new();
    for (msg, deps) in log {
        for dep in deps {
            if !seen.contains(dep) {
                return Err(Violation::DependencyAfterMessage {
                    msg: *msg,
                    dep: *dep,
                    replica,
                });
            }
        }
        seen.insert(*msg);
    }
    Ok(())
}

/// Checks a set of replica delivery logs against a common dependency
/// graph `R(M)`: every log must be a linearization of the graph (same
/// message set, dependencies first).
pub fn logs_linearize_graph(graph: &MsgGraph, logs: &[Vec<MsgId>]) -> Result<(), Violation> {
    for (i, log) in logs.iter().enumerate() {
        if !graph.is_linearization(log) {
            return Err(Violation::DifferentMessageSets { a: 0, b: i });
        }
    }
    Ok(())
}

/// `true` if all replica states are equal (final-state agreement).
pub fn replicas_agree<S: PartialEq>(states: &[S]) -> bool {
    states.windows(2).all(|w| w[0] == w[1])
}

/// Checks the paper's reproducibility claim for stable points: every
/// replica flags the *same sequence* of synchronization messages, and the
/// *same set* of messages inside each causal activity — even though the
/// orders inside an activity may differ.
pub fn stable_points_consistent(logs: &[Vec<LogEntry>]) -> Result<(), Violation> {
    #[derive(PartialEq)]
    struct Segmented {
        points: Vec<MsgId>,
        activity_sets: Vec<HashSet<MsgId>>,
    }
    let segment = |log: &[LogEntry]| {
        let mut det = StablePointDetector::new();
        let mut points = Vec::new();
        let mut activity_sets = Vec::new();
        let mut current = HashSet::new();
        for e in log {
            current.insert(e.id);
            if det.on_deliver(e.id, &e.deps, e.sync_candidate).is_some() {
                points.push(e.id);
                activity_sets.push(std::mem::take(&mut current));
            }
        }
        Segmented {
            points,
            activity_sets,
        }
    };
    let segs: Vec<Segmented> = logs.iter().map(|l| segment(l)).collect();
    for (b, seg) in segs.iter().enumerate().skip(1) {
        if seg.points != segs[0].points {
            let ordinal = seg
                .points
                .iter()
                .zip(&segs[0].points)
                .position(|(x, y)| x != y)
                .unwrap_or_else(|| seg.points.len().min(segs[0].points.len()));
            return Err(Violation::StablePointMismatch { a: 0, b, ordinal });
        }
        for (ordinal, (sa, sb)) in segs[0]
            .activity_sets
            .iter()
            .zip(&seg.activity_sets)
            .enumerate()
        {
            if sa != sb {
                return Err(Violation::ActivityContentMismatch { a: 0, b, ordinal });
            }
        }
    }
    Ok(())
}

/// Validates an application's commutativity declarations against its
/// actual semantics: for every pair of operations in `sample` that
/// [`commutes_with`](Operation::commutes_with) claims commute, applying
/// them in both orders from `initial` must reach the same state.
///
/// This is the testing tool behind the §6 protocol design: the protocol
/// *trusts* the declared classes ("the knowledge of how the various
/// operations affect the data may be embedded into the data access
/// protocol"), so a mis-declared operation silently breaks stable-point
/// agreement. Returns the first offending pair's indices.
pub fn commutativity_declarations_sound<S, O>(
    initial: &S,
    sample: &[O],
) -> Result<(), (usize, usize)>
where
    S: Clone + PartialEq,
    O: Operation<S>,
{
    for (i, a) in sample.iter().enumerate() {
        for (j, b) in sample.iter().enumerate().skip(i + 1) {
            if !a.commutes_with(b) {
                continue;
            }
            let mut ab = initial.clone();
            a.apply(&mut ab);
            b.apply(&mut ab);
            let mut ba = initial.clone();
            b.apply(&mut ba);
            a.apply(&mut ba);
            if ab != ba {
                return Err((i, j));
            }
        }
    }
    Ok(())
}

/// Checks a set of vector-clock-stamped delivery logs for causal
/// inversions: if `vt(m) < vt(m')` then no log may deliver `m'` before
/// `m`.
pub fn vt_logs_respect_causality(logs: &[Vec<(MsgId, VectorClock)>]) -> Result<(), Violation> {
    for (replica, log) in logs.iter().enumerate() {
        let positions: HashMap<MsgId, usize> =
            log.iter().enumerate().map(|(i, (m, _))| (*m, i)).collect();
        for (i, (first, vt_first)) in log.iter().enumerate() {
            for (second, vt_second) in &log[i + 1..] {
                // Delivered later but causally earlier => inversion.
                if vt_second.precedes(vt_first) {
                    let _ = positions; // positions kept for future diagnostics
                    return Err(Violation::CausalInversion {
                        first: *second,
                        second: *first,
                        replica,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_clocks::ProcessId;

    fn id(p: u32, s: u64) -> MsgId {
        MsgId::new(ProcessId::new(p), s)
    }

    #[test]
    fn causal_order_detects_inversion() {
        let log = vec![(id(1, 1), vec![id(0, 1)]), (id(0, 1), vec![])];
        let err = causal_order_respected(&log, 3).unwrap_err();
        assert_eq!(
            err,
            Violation::DependencyAfterMessage {
                msg: id(1, 1),
                dep: id(0, 1),
                replica: 3
            }
        );
    }

    #[test]
    fn logs_linearize_graph_accepts_both_orders() {
        let mut g = MsgGraph::new();
        g.add(id(0, 1), &[]).unwrap();
        g.add(id(1, 1), &[id(0, 1)]).unwrap();
        g.add(id(2, 1), &[id(0, 1)]).unwrap();
        let logs = vec![
            vec![id(0, 1), id(1, 1), id(2, 1)],
            vec![id(0, 1), id(2, 1), id(1, 1)],
        ];
        assert!(logs_linearize_graph(&g, &logs).is_ok());
        let bad = vec![vec![id(1, 1), id(0, 1), id(2, 1)]];
        assert!(logs_linearize_graph(&g, &bad).is_err());
    }

    #[test]
    fn replicas_agree_on_equal_states() {
        assert!(replicas_agree(&[5, 5, 5]));
        assert!(!replicas_agree(&[5, 6]));
        assert!(replicas_agree::<i32>(&[]));
    }

    fn le(m: MsgId, deps: Vec<MsgId>, sync: bool) -> LogEntry {
        LogEntry::new(m, deps, sync)
    }

    #[test]
    fn stable_points_consistent_across_interleavings() {
        let logs = vec![
            vec![
                le(id(0, 1), vec![], true),
                le(id(1, 1), vec![id(0, 1)], false),
                le(id(2, 1), vec![id(0, 1)], false),
                le(id(0, 2), vec![id(1, 1), id(2, 1)], true),
            ],
            vec![
                le(id(0, 1), vec![], true),
                le(id(2, 1), vec![id(0, 1)], false),
                le(id(1, 1), vec![id(0, 1)], false),
                le(id(0, 2), vec![id(1, 1), id(2, 1)], true),
            ],
        ];
        assert!(stable_points_consistent(&logs).is_ok());
    }

    #[test]
    fn stable_point_sequence_mismatch_detected() {
        // Second replica misses the interior message entirely, so the
        // closing sync message cannot cover its frontier there: the
        // replicas flag different stable-point sequences.
        let logs = vec![
            vec![
                le(id(0, 1), vec![], true),
                le(id(1, 1), vec![id(0, 1)], false),
                le(id(0, 2), vec![id(1, 1)], true),
            ],
            vec![
                le(id(0, 1), vec![], true),
                le(id(0, 2), vec![id(1, 1)], true),
            ],
        ];
        let err = stable_points_consistent(&logs).unwrap_err();
        assert!(matches!(err, Violation::StablePointMismatch { .. }));
    }

    #[test]
    fn activity_content_mismatch_detected() {
        // Same stable-point sequence but different interior message sets
        // (models a faulty transport delivering different messages).
        let logs = vec![
            vec![
                le(id(0, 1), vec![], true),
                le(id(1, 1), vec![id(0, 1)], false),
                le(id(0, 2), vec![id(1, 1)], true),
            ],
            vec![
                le(id(0, 1), vec![], true),
                le(id(2, 1), vec![id(0, 1)], false),
                le(id(0, 2), vec![id(2, 1)], true),
            ],
        ];
        let err = stable_points_consistent(&logs).unwrap_err();
        assert!(matches!(err, Violation::ActivityContentMismatch { .. }));
    }

    /// Mixed workload op: `Add` is commutative, `Sync` is the
    /// non-commutative synchronization message.
    #[derive(Clone, PartialEq, Debug)]
    enum MixOp {
        Add(i64),
        Sync,
    }
    impl Operation<i64> for MixOp {
        fn apply(&self, s: &mut i64) {
            if let MixOp::Add(k) = self {
                *s += k;
            }
        }
        fn is_commutative(&self) -> bool {
            matches!(self, MixOp::Add(_))
        }
    }

    #[test]
    fn sound_commutativity_declarations_pass() {
        let sample = vec![MixOp::Add(1), MixOp::Add(-3), MixOp::Sync, MixOp::Add(7)];
        assert!(commutativity_declarations_sound(&0i64, &sample).is_ok());
    }

    #[test]
    fn lying_commutativity_declaration_caught() {
        /// Claims to be commutative but multiplies — it is not (vs Add).
        #[derive(Clone)]
        enum BadOp {
            Add(i64),
            Mul(i64),
        }
        impl Operation<i64> for BadOp {
            fn apply(&self, s: &mut i64) {
                match self {
                    BadOp::Add(k) => *s += k,
                    BadOp::Mul(k) => *s *= k,
                }
            }
            fn is_commutative(&self) -> bool {
                true // the lie
            }
        }
        let sample = vec![BadOp::Add(1), BadOp::Mul(2)];
        assert_eq!(
            commutativity_declarations_sound(&10i64, &sample),
            Err((0, 1))
        );
    }

    #[test]
    fn vt_causal_inversion_detected() {
        let a = VectorClock::from_entries([1, 0]);
        let b = VectorClock::from_entries([1, 1]); // a precedes b
        let good = vec![vec![(id(0, 1), a.clone()), (id(1, 1), b.clone())]];
        assert!(vt_logs_respect_causality(&good).is_ok());
        let bad = vec![vec![(id(1, 1), b), (id(0, 1), a)]];
        let err = vt_logs_respect_causality(&bad).unwrap_err();
        assert!(matches!(err, Violation::CausalInversion { .. }));
    }

    #[test]
    fn violations_display() {
        let v = Violation::DifferentMessageSets { a: 0, b: 2 };
        assert!(v.to_string().contains("different message sets"));
    }
}
