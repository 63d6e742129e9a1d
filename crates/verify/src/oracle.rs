//! The trace oracle: polynomial checkers for the paper's invariants over
//! one recorded execution.
//!
//! This module is the single entry point for convergence checking. The
//! primitive per-log validators live in [`check`](crate::check);
//! [`check_trace`] lifts them to whole-group [`Trace`]s and adds the
//! checks that need the reliability-layer receipt events and per-member
//! stable-point records, including the §4 state agreement, which it checks
//! on the snapshots members recorded rather than on replayed logs:
//!
//! | Invariant | Paper | Checker |
//! |---|---|---|
//! | Delivery order respects declared `R(M)` | §3.1–3.3 | [`check::causal_order_respected`](crate::check::causal_order_respected) per member |
//! | Delivery order respects vector time | §3.2 (CBCAST arm) | [`check::vt_logs_respect_causality`](crate::check::vt_logs_respect_causality) |
//! | Exactly-once delivery | §3.3 (reliable broadcast) | duplicate / lost checks on receive+deliver events |
//! | Same stable-point sequence & activity sets | §4 | [`check::stable_points_consistent`](crate::check::stable_points_consistent) |
//! | Same state bytes at each stable point | §4 | snapshot comparison across members |
//! | Commutative-window order independence | §5.1 | [`commutative_windows_equivalent`] |
//! | View agreement under virtual synchrony | §6.3 | installed-view prefix comparison |

use crate::check::{
    causal_order_respected, stable_points_consistent, vt_logs_respect_causality, Violation,
};
use crate::trace::Trace;
use causal_clocks::{MsgId, VectorClock};
use causal_core::osend::GraphEnvelope;
use causal_core::stable::{activities_with_tail, LogEntry};
use causal_core::statemachine::Operation;
use causal_core::trace::TraceEvent;
use causal_membership::GroupView;
use std::collections::HashSet;
use std::fmt;

/// What [`check_trace`] should assume about the run.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// The run was driven to quiescence: every non-crashed member must
    /// have delivered the same message set, and everything the
    /// reliability layer accepted must have been released by the delivery
    /// engine. Disable for mid-run traces (only the prefix-safe checks
    /// run) — e.g. when minimizing a counterexample schedule.
    pub expect_quiescent: bool,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            expect_quiescent: true,
        }
    }
}

/// Counters describing what one [`check_trace`] call actually verified —
/// so harnesses can assert the oracle had teeth (and the explorer can
/// print them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Members checked.
    pub members: usize,
    /// Total delivery events checked.
    pub deliveries: usize,
    /// Members whose logs carried explicit dependency sets.
    pub dep_logs: usize,
    /// Members whose logs carried vector timestamps.
    pub vt_logs: usize,
    /// Members whose logs were checked against the *re-derived*
    /// potential-causality relation (metadata-free engines such as
    /// PC-broadcast, whose envelopes carry neither dependency sets nor
    /// vector timestamps).
    pub hb_logs: usize,
    /// Stable points compared across members (pairwise-comparable ones).
    pub stable_points: usize,
    /// Snapshot byte-comparisons performed.
    pub snapshots_compared: usize,
    /// Installed views compared across members.
    pub views_compared: usize,
}

/// A violation of a group-level invariant found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleViolation {
    /// A per-log violation from the core validators.
    Core(Violation),
    /// One member delivered the same message twice.
    DuplicateDelivery {
        /// Index into the trace's member list.
        member: usize,
        /// The message delivered twice.
        id: MsgId,
    },
    /// A message accepted by the reliability layer was never released by
    /// the delivery engine (quiescent runs only).
    UndeliveredMessage {
        /// Index into the trace's member list.
        member: usize,
        /// The stuck message.
        id: MsgId,
    },
    /// A member delivered a message before one of its potential-causality
    /// predecessors. Only raised for metadata-free logs, where the oracle
    /// re-derives happened-before from the raw send/delivery order: the
    /// predecessors of `id` are everything its origin had delivered when
    /// it sent `id`, closed transitively.
    PotentialCausalityInversion {
        /// Index into the trace's member list.
        member: usize,
        /// The message delivered too early.
        id: MsgId,
        /// The predecessor that had not yet been delivered there.
        missing: MsgId,
    },
    /// Two members disagree on which message closed a stable point.
    StableSequenceMismatch {
        /// First member index.
        a: usize,
        /// Second member index.
        b: usize,
        /// Position of the first disagreement.
        index: usize,
    },
    /// Two members hold different state bytes at the same stable point.
    SnapshotMismatch {
        /// First member index.
        a: usize,
        /// Second member index.
        b: usize,
        /// The stable-point position where the states differ.
        index: usize,
    },
    /// Two members installed different views at the same position.
    ViewMismatch {
        /// First member index.
        a: usize,
        /// Second member index.
        b: usize,
        /// Position of the first disagreement.
        index: usize,
    },
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleViolation::Core(v) => v.fmt(f),
            OracleViolation::DuplicateDelivery { member, id } => {
                write!(f, "member {member} delivered {id} twice")
            }
            OracleViolation::UndeliveredMessage { member, id } => {
                write!(f, "member {member} received {id} but never delivered it")
            }
            OracleViolation::PotentialCausalityInversion {
                member,
                id,
                missing,
            } => write!(
                f,
                "member {member} delivered {id} before its potential-causality \
                 predecessor {missing}"
            ),
            OracleViolation::StableSequenceMismatch { a, b, index } => {
                write!(f, "members {a} and {b} disagree on stable point {index}")
            }
            OracleViolation::SnapshotMismatch { a, b, index } => write!(
                f,
                "members {a} and {b} hold different states at stable point {index}"
            ),
            OracleViolation::ViewMismatch { a, b, index } => {
                write!(
                    f,
                    "members {a} and {b} installed different views at {index}"
                )
            }
        }
    }
}

impl std::error::Error for OracleViolation {}

impl From<Violation> for OracleViolation {
    fn from(v: Violation) -> Self {
        OracleViolation::Core(v)
    }
}

/// Per-member projections of the trace, extracted once.
struct MemberView {
    crashed: bool,
    delivered: Vec<MsgId>,
    dep_log: Vec<(MsgId, Vec<MsgId>)>,
    vt_log: Vec<(MsgId, VectorClock)>,
    entries: Vec<LogEntry>,
    all_deps: bool,
    stable: Vec<(MsgId, Option<Vec<u8>>)>,
    fresh_received: Vec<MsgId>,
    views: Vec<GroupView>,
}

fn project(trace: &Trace) -> Vec<MemberView> {
    trace
        .members()
        .iter()
        .map(|m| {
            let mut v = MemberView {
                crashed: m.crashed(),
                delivered: Vec::new(),
                dep_log: Vec::new(),
                vt_log: Vec::new(),
                entries: Vec::new(),
                all_deps: true,
                stable: Vec::new(),
                fresh_received: Vec::new(),
                views: Vec::new(),
            };
            for e in m.events() {
                match e {
                    TraceEvent::Deliver {
                        id,
                        deps,
                        vt,
                        sync_candidate,
                    } => {
                        v.delivered.push(*id);
                        match deps {
                            Some(deps) => {
                                v.dep_log.push((*id, deps.clone()));
                                v.entries
                                    .push(LogEntry::new(*id, deps.clone(), *sync_candidate));
                            }
                            None => v.all_deps = false,
                        }
                        if let Some(vt) = vt {
                            v.vt_log.push((*id, vt.clone()));
                        }
                    }
                    TraceEvent::StablePoint { msg, snapshot, .. } => {
                        v.stable.push((*msg, snapshot.clone()));
                    }
                    TraceEvent::Receive { id, fresh: true } => v.fresh_received.push(*id),
                    TraceEvent::ViewInstalled { view } => v.views.push(view.clone()),
                    _ => {}
                }
            }
            v
        })
        .collect()
}

/// Checks one recorded group execution against every applicable invariant
/// (see the [module docs](self) for the invariant-to-paper map). Returns
/// counters of what was verified, or the first violation found.
///
/// Crashed members participate in the per-member and prefix checks (what
/// they did before crashing must still have been correct) but are exempt
/// from the quiescence checks (they legitimately miss messages).
pub fn check_trace(trace: &Trace, cfg: &OracleConfig) -> Result<OracleReport, OracleViolation> {
    let views = project(trace);
    let mut report = OracleReport {
        members: views.len(),
        ..OracleReport::default()
    };

    // Per-member: exactly-once delivery and declared-dependency order.
    for (i, v) in views.iter().enumerate() {
        report.deliveries += v.delivered.len();
        let mut seen = HashSet::new();
        for id in &v.delivered {
            if !seen.insert(*id) {
                return Err(OracleViolation::DuplicateDelivery { member: i, id: *id });
            }
        }
        if !v.dep_log.is_empty() {
            report.dep_logs += 1;
            causal_order_respected(&v.dep_log, i)?;
        }
    }

    // Cross-member: vector-time causality over every vt-stamped log.
    let vt_logs: Vec<Vec<(MsgId, VectorClock)>> = views
        .iter()
        .filter(|v| !v.vt_log.is_empty())
        .map(|v| v.vt_log.clone())
        .collect();
    if !vt_logs.is_empty() {
        report.vt_logs = vt_logs.len();
        vt_logs_respect_causality(&vt_logs)?;
    }

    // Metadata-free logs (PC-broadcast: no dependency sets, no vector
    // timestamps) still promise potential-causality delivery. Re-derive
    // happened-before from the raw send/delivery order and check every
    // log against it. Engines that *carry* ordering metadata are exempt:
    // their own checks above apply, and the graph engine legitimately
    // reorders potentially- but not semantically-related messages.
    if views
        .iter()
        .all(|v| v.dep_log.is_empty() && v.vt_log.is_empty())
    {
        check_potential_causality(trace, &views, &mut report)?;
    }

    // Quiescence: same delivered set everywhere, nothing stuck.
    if cfg.expect_quiescent {
        let live: Vec<(usize, &MemberView)> = views
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.crashed)
            .collect();
        for (i, v) in &live {
            let delivered: HashSet<MsgId> = v.delivered.iter().copied().collect();
            for id in &v.fresh_received {
                if !delivered.contains(id) {
                    return Err(OracleViolation::UndeliveredMessage {
                        member: *i,
                        id: *id,
                    });
                }
            }
        }
        for pair in live.windows(2) {
            let sa: HashSet<MsgId> = pair[0].1.delivered.iter().copied().collect();
            let sb: HashSet<MsgId> = pair[1].1.delivered.iter().copied().collect();
            if sa != sb {
                return Err(Violation::DifferentMessageSets {
                    a: pair[0].0,
                    b: pair[1].0,
                }
                .into());
            }
        }
    }

    // Stable points: structural re-detection over the classified logs
    // (crashed members hold a correct prefix, so quiescent runs compare
    // only the live ones), then recorded sequence + state bytes.
    let entry_logs: Vec<Vec<LogEntry>> = views
        .iter()
        .filter(|v| !v.crashed && v.all_deps && !v.entries.is_empty())
        .map(|v| v.entries.clone())
        .collect();
    if cfg.expect_quiescent && entry_logs.len() > 1 {
        stable_points_consistent(&entry_logs)?;
    }
    let indexed: Vec<(usize, &MemberView)> = views
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.stable.is_empty())
        .collect();
    for w in indexed.windows(2) {
        let (a, va) = w[0];
        let (b, vb) = w[1];
        let common = va.stable.len().min(vb.stable.len());
        for k in 0..common {
            report.stable_points += 1;
            if va.stable[k].0 != vb.stable[k].0 {
                return Err(OracleViolation::StableSequenceMismatch { a, b, index: k });
            }
            if let (Some(sa), Some(sb)) = (&va.stable[k].1, &vb.stable[k].1) {
                report.snapshots_compared += 1;
                if sa != sb {
                    return Err(OracleViolation::SnapshotMismatch { a, b, index: k });
                }
            }
        }
    }

    // Virtually synchronous view agreement: every pair of members must
    // agree on the common prefix of their installed-view sequences.
    let viewed: Vec<(usize, &MemberView)> = views
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.views.is_empty())
        .collect();
    for w in viewed.windows(2) {
        let (a, va) = w[0];
        let (b, vb) = w[1];
        let common = va.views.len().min(vb.views.len());
        for k in 0..common {
            report.views_compared += 1;
            let (x, y) = (&va.views[k], &vb.views[k]);
            if x.id() != y.id() || x.members() != y.members() {
                return Err(OracleViolation::ViewMismatch { a, b, index: k });
            }
        }
    }

    Ok(report)
}

/// Checks every metadata-free delivery log against the potential-causality
/// relation re-derived from the trace itself: a message's predecessors are
/// everything its origin had delivered when it sent it (the `Send` event's
/// position in the origin's event order), closed transitively. Every
/// member must deliver all of a message's predecessors before it.
///
/// This is the oracle's teeth for constant-metadata engines: the wire
/// carries no ordering information to validate, so the promised order is
/// reconstructed from what actually happened.
fn check_potential_causality(
    trace: &Trace,
    views: &[MemberView],
    report: &mut OracleReport,
) -> Result<(), OracleViolation> {
    // Dense-index every message seen anywhere, so predecessor sets can be
    // small bitsets.
    let mut index: std::collections::HashMap<MsgId, usize> = std::collections::HashMap::new();
    let mut ids: Vec<MsgId> = Vec::new();
    for m in trace.members() {
        for e in m.events() {
            if let TraceEvent::Send { id } | TraceEvent::Deliver { id, .. } = e {
                index.entry(*id).or_insert_with(|| {
                    ids.push(*id);
                    ids.len() - 1
                });
            }
        }
    }
    let n = ids.len();
    let words = n.div_ceil(64);
    let set = |bits: &mut [u64], i: usize| bits[i / 64] |= 1 << (i % 64);
    let get = |bits: &[u64], i: usize| bits[i / 64] & (1 << (i % 64)) != 0;

    // Direct predecessors: the origin's delivered-so-far set at each send.
    let mut preds: Vec<Option<Vec<u64>>> = vec![None; n];
    for m in trace.members() {
        let mut delivered = vec![0u64; words];
        for e in m.events() {
            match e {
                TraceEvent::Send { id } => {
                    preds[index[id]] = Some(delivered.clone());
                }
                TraceEvent::Deliver { id, .. } => set(&mut delivered, index[id]),
                _ => {}
            }
        }
    }

    // Transitive closure by fixpoint (traces are small; the explorer and
    // test harnesses cap runs at a few hundred messages).
    loop {
        let mut changed = false;
        for i in 0..n {
            let Some(direct) = preds[i].clone() else {
                continue;
            };
            let mut merged = direct.clone();
            for (j, pj) in preds.iter().enumerate() {
                if get(&direct, j) {
                    if let Some(pj) = pj {
                        for (w, pw) in merged.iter_mut().zip(pj) {
                            *w |= pw;
                        }
                    }
                }
            }
            if merged != direct {
                preds[i] = Some(merged);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Every member's log must deliver each message after its whole
    // predecessor set (prefix-safe: crashed members checked too).
    for (mi, v) in views.iter().enumerate() {
        if v.delivered.is_empty() {
            continue;
        }
        report.hb_logs += 1;
        let mut delivered = vec![0u64; words];
        for id in &v.delivered {
            let i = index[id];
            if let Some(p) = &preds[i] {
                for (j, &missing) in ids.iter().enumerate() {
                    if get(p, j) && !get(&delivered, j) {
                        return Err(OracleViolation::PotentialCausalityInversion {
                            member: mi,
                            id: *id,
                            missing,
                        });
                    }
                }
            }
            set(&mut delivered, i);
        }
    }
    Ok(())
}

/// A commutative window whose permutation changed the state (§5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowViolation {
    /// Ordinal of the causal activity whose interior misbehaved
    /// (`usize::MAX` for the unfinished tail after the last stable point).
    pub activity: usize,
    /// The interior permutation that produced a different state.
    pub permutation: Vec<MsgId>,
}

impl fmt::Display for WindowViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "activity {}: permuting the commutative window {:?} changed the state",
            self.activity, self.permutation
        )
    }
}

impl std::error::Error for WindowViolation {}

/// Checks the §5.1 claim directly on one delivered log: within each
/// causal activity, **every** permutation of the interior (the
/// concurrent, commutative `rqst_c` window) must reach the same state at
/// the closing synchronization message. Windows longer than `max_window`
/// are checked with all adjacent transpositions instead of the full
/// factorial set (adjacent transpositions generate the symmetric group,
/// so a non-commutative pair is still caught).
///
/// This complements [`check_trace`]'s per-stable-point snapshot
/// comparison: that check compares the states reached in the orders
/// members *happened* to use; this one quantifies over orders no member
/// used.
pub fn commutative_windows_equivalent<S, O>(
    initial: &S,
    log: &[GraphEnvelope<O>],
    max_window: usize,
) -> Result<(), WindowViolation>
where
    S: Clone + PartialEq,
    O: Operation<S>,
{
    let entries: Vec<LogEntry> = log
        .iter()
        .map(|e| LogEntry::new(e.id, e.deps.to_vec(), !e.payload.is_commutative()))
        .collect();
    fn by_id<O>(log: &[GraphEnvelope<O>], id: MsgId) -> &O {
        &log.iter()
            .find(|e| e.id == id)
            .expect("activity ids come from the log")
            .payload
    }
    let (activities, tail) = activities_with_tail(&entries);
    let mut state = initial.clone();
    for (ordinal, act) in activities.iter().enumerate() {
        let base_after = {
            let mut s = state.clone();
            for id in &act.interior {
                by_id(log, *id).apply(&mut s);
            }
            by_id(log, act.end).apply(&mut s);
            s
        };
        for perm in permutations(&act.interior, max_window) {
            let mut s = state.clone();
            for id in &perm {
                by_id(log, *id).apply(&mut s);
            }
            by_id(log, act.end).apply(&mut s);
            if s != base_after {
                return Err(WindowViolation {
                    activity: ordinal,
                    permutation: perm,
                });
            }
        }
        state = base_after;
    }
    // The unfinished tail has no closing sync message; permutations must
    // still agree among themselves (they are all commutative ops).
    if !tail.is_empty() {
        let base_after = {
            let mut s = state.clone();
            for id in &tail {
                by_id(log, *id).apply(&mut s);
            }
            s
        };
        for perm in permutations(&tail, max_window) {
            let mut s = state.clone();
            for id in &perm {
                by_id(log, *id).apply(&mut s);
            }
            if s != base_after {
                return Err(WindowViolation {
                    activity: usize::MAX,
                    permutation: perm,
                });
            }
        }
    }
    Ok(())
}

/// All permutations when `items.len() <= max_window`; otherwise every
/// adjacent transposition of the original order.
fn permutations(items: &[MsgId], max_window: usize) -> Vec<Vec<MsgId>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    if items.len() <= max_window {
        let mut out = Vec::new();
        let mut work = items.to_vec();
        heaps(&mut work, items.len(), &mut out);
        out
    } else {
        let mut out = vec![items.to_vec()];
        for i in 0..items.len() - 1 {
            let mut p = items.to_vec();
            p.swap(i, i + 1);
            out.push(p);
        }
        out
    }
}

fn heaps(work: &mut Vec<MsgId>, k: usize, out: &mut Vec<Vec<MsgId>>) {
    if k <= 1 {
        out.push(work.clone());
        return;
    }
    for i in 0..k {
        heaps(work, k - 1, out);
        if k.is_multiple_of(2) {
            work.swap(i, k - 1);
        } else {
            work.swap(0, k - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{MemberTrace, Trace, TraceEvent};
    use causal_clocks::ProcessId;
    use causal_core::osend::{OSender, OccursAfter};

    fn id(p: u32, s: u64) -> MsgId {
        MsgId::new(ProcessId::new(p), s)
    }

    fn deliver(id: MsgId, deps: Vec<MsgId>, nc: bool) -> TraceEvent {
        TraceEvent::Deliver {
            id,
            deps: Some(deps),
            vt: None,
            sync_candidate: nc,
        }
    }

    fn two_member_trace(log_b: Vec<TraceEvent>) -> Trace {
        let mut a = MemberTrace::new(ProcessId::new(0));
        a.record(deliver(id(0, 1), vec![], true));
        a.record(deliver(id(1, 1), vec![id(0, 1)], true));
        let mut b = MemberTrace::new(ProcessId::new(1));
        for e in log_b {
            b.record(e);
        }
        Trace::new(vec![a, b])
    }

    #[test]
    fn clean_trace_passes() {
        let t = two_member_trace(vec![
            deliver(id(0, 1), vec![], true),
            deliver(id(1, 1), vec![id(0, 1)], true),
        ]);
        let report = check_trace(&t, &OracleConfig::default()).unwrap();
        assert_eq!(report.members, 2);
        assert_eq!(report.deliveries, 4);
        assert_eq!(report.dep_logs, 2);
    }

    #[test]
    fn dependency_inversion_caught() {
        let t = two_member_trace(vec![
            deliver(id(1, 1), vec![id(0, 1)], true),
            deliver(id(0, 1), vec![], true),
        ]);
        let err = check_trace(&t, &OracleConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            OracleViolation::Core(Violation::DependencyAfterMessage { .. })
        ));
    }

    #[test]
    fn duplicate_delivery_caught() {
        let t = two_member_trace(vec![
            deliver(id(0, 1), vec![], true),
            deliver(id(0, 1), vec![], true),
            deliver(id(1, 1), vec![id(0, 1)], true),
        ]);
        let err = check_trace(&t, &OracleConfig::default()).unwrap_err();
        assert!(matches!(err, OracleViolation::DuplicateDelivery { .. }));
    }

    #[test]
    fn lost_delivery_caught_only_when_quiescent() {
        let t = two_member_trace(vec![deliver(id(0, 1), vec![], true)]);
        let err = check_trace(&t, &OracleConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            OracleViolation::Core(Violation::DifferentMessageSets { .. })
        ));
        assert!(check_trace(
            &t,
            &OracleConfig {
                expect_quiescent: false
            }
        )
        .is_ok());
    }

    #[test]
    fn stuck_message_caught() {
        let t = two_member_trace(vec![
            TraceEvent::Receive {
                id: id(0, 1),
                fresh: true,
            },
            TraceEvent::Receive {
                id: id(1, 1),
                fresh: true,
            },
            deliver(id(0, 1), vec![], true),
            deliver(id(1, 1), vec![id(0, 1)], true),
        ]);
        // Both delivered: fine.
        assert!(check_trace(&t, &OracleConfig::default()).is_ok());
        let t = two_member_trace(vec![
            TraceEvent::Receive {
                id: id(0, 1),
                fresh: true,
            },
            TraceEvent::Receive {
                id: id(1, 1),
                fresh: true,
            },
            deliver(id(0, 1), vec![], true),
        ]);
        let err = check_trace(&t, &OracleConfig::default()).unwrap_err();
        assert!(matches!(err, OracleViolation::UndeliveredMessage { .. }));
    }

    #[test]
    fn crashed_member_exempt_from_quiescence() {
        let mut a = MemberTrace::new(ProcessId::new(0));
        a.record(deliver(id(0, 1), vec![], true));
        let mut b = MemberTrace::new(ProcessId::new(1));
        b.record(TraceEvent::Crashed);
        let t = Trace::new(vec![a, b]);
        assert!(check_trace(&t, &OracleConfig::default()).is_ok());
    }

    #[test]
    fn snapshot_mismatch_caught() {
        let sp = |snap: Vec<u8>| TraceEvent::StablePoint {
            ordinal: 0,
            msg: id(0, 1),
            snapshot: Some(snap),
        };
        let mut a = MemberTrace::new(ProcessId::new(0));
        a.record(deliver(id(0, 1), vec![], true));
        a.record(sp(vec![1]));
        let mut b = MemberTrace::new(ProcessId::new(1));
        b.record(deliver(id(0, 1), vec![], true));
        b.record(sp(vec![2]));
        let t = Trace::new(vec![a, b]);
        let err = check_trace(&t, &OracleConfig::default()).unwrap_err();
        assert!(matches!(err, OracleViolation::SnapshotMismatch { .. }));
    }

    #[test]
    fn stable_sequence_mismatch_caught() {
        let sp = |msg: MsgId| TraceEvent::StablePoint {
            ordinal: 0,
            msg,
            snapshot: None,
        };
        let mut a = MemberTrace::new(ProcessId::new(0));
        a.record(deliver(id(0, 1), vec![], true));
        a.record(deliver(id(1, 1), vec![], true));
        a.record(sp(id(0, 1)));
        let mut b = MemberTrace::new(ProcessId::new(1));
        b.record(deliver(id(1, 1), vec![], true));
        b.record(deliver(id(0, 1), vec![], true));
        b.record(sp(id(1, 1)));
        let t = Trace::new(vec![a, b]);
        let err = check_trace(
            &t,
            &OracleConfig {
                expect_quiescent: false,
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            OracleViolation::StableSequenceMismatch { .. }
        ));
    }

    #[test]
    fn view_mismatch_caught() {
        use causal_membership::{GroupView, ViewId};
        let view = |id: u64, members: &[u32]| TraceEvent::ViewInstalled {
            view: GroupView::new(
                ViewId::from_u64(id),
                members.iter().map(|&m| ProcessId::new(m)),
            ),
        };
        let mut a = MemberTrace::new(ProcessId::new(0));
        a.record(view(1, &[0, 1]));
        let mut b = MemberTrace::new(ProcessId::new(1));
        b.record(view(1, &[0, 1, 2]));
        let t = Trace::new(vec![a, b]);
        let err = check_trace(
            &t,
            &OracleConfig {
                expect_quiescent: false,
            },
        )
        .unwrap_err();
        assert!(matches!(err, OracleViolation::ViewMismatch { .. }));
    }

    #[test]
    fn vt_inversion_caught_via_trace() {
        let d = |id: MsgId, vt: Vec<u64>| TraceEvent::Deliver {
            id,
            deps: None,
            vt: Some(VectorClock::from_entries(vt)),
            sync_candidate: false,
        };
        let mut a = MemberTrace::new(ProcessId::new(0));
        a.record(d(id(0, 1), vec![1, 0]));
        a.record(d(id(1, 1), vec![1, 1]));
        let mut b = MemberTrace::new(ProcessId::new(1));
        b.record(d(id(1, 1), vec![1, 1]));
        b.record(d(id(0, 1), vec![1, 0]));
        let t = Trace::new(vec![a, b]);
        let err = check_trace(&t, &OracleConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            OracleViolation::Core(Violation::CausalInversion { .. })
        ));
    }

    fn bare(id: MsgId) -> TraceEvent {
        TraceEvent::Deliver {
            id,
            deps: None,
            vt: None,
            sync_candidate: false,
        }
    }

    #[test]
    fn metadata_free_logs_get_the_rederived_causality_check() {
        // p0 sends m1; p1 delivers m1 then sends m2 (so m1 -> m2); both
        // members deliver in causal order.
        let mut a = MemberTrace::new(ProcessId::new(0));
        a.record(TraceEvent::Send { id: id(0, 1) });
        a.record(bare(id(0, 1)));
        a.record(bare(id(1, 1)));
        let mut b = MemberTrace::new(ProcessId::new(1));
        b.record(bare(id(0, 1)));
        b.record(TraceEvent::Send { id: id(1, 1) });
        b.record(bare(id(1, 1)));
        let t = Trace::new(vec![a, b]);
        let report = check_trace(&t, &OracleConfig::default()).unwrap();
        assert_eq!(report.hb_logs, 2, "both logs checked");
        assert_eq!(report.dep_logs, 0);
        assert_eq!(report.vt_logs, 0);
    }

    #[test]
    fn potential_causality_inversion_caught_on_metadata_free_logs() {
        // Same dependency m1 -> m2, but a third member delivers m2 first.
        let mut a = MemberTrace::new(ProcessId::new(0));
        a.record(TraceEvent::Send { id: id(0, 1) });
        a.record(bare(id(0, 1)));
        a.record(bare(id(1, 1)));
        let mut b = MemberTrace::new(ProcessId::new(1));
        b.record(bare(id(0, 1)));
        b.record(TraceEvent::Send { id: id(1, 1) });
        b.record(bare(id(1, 1)));
        let mut c = MemberTrace::new(ProcessId::new(2));
        c.record(bare(id(1, 1)));
        c.record(bare(id(0, 1)));
        let t = Trace::new(vec![a, b, c]);
        let err = check_trace(&t, &OracleConfig::default()).unwrap_err();
        assert_eq!(
            err,
            OracleViolation::PotentialCausalityInversion {
                member: 2,
                id: id(1, 1),
                missing: id(0, 1),
            }
        );
    }

    #[test]
    fn transitive_predecessors_are_enforced() {
        // m1 -> m2 -> m3 across three senders; a log delivering m3 before
        // m1 violates the closure even though m1 is not a *direct*
        // predecessor recorded at m3's origin... it is via m2.
        let mut a = MemberTrace::new(ProcessId::new(0));
        a.record(TraceEvent::Send { id: id(0, 1) });
        a.record(bare(id(0, 1)));
        let mut b = MemberTrace::new(ProcessId::new(1));
        b.record(bare(id(0, 1)));
        b.record(TraceEvent::Send { id: id(1, 1) });
        b.record(bare(id(1, 1)));
        let mut c = MemberTrace::new(ProcessId::new(2));
        c.record(bare(id(0, 1)));
        c.record(bare(id(1, 1)));
        c.record(TraceEvent::Send { id: id(2, 1) });
        c.record(bare(id(2, 1)));
        // Member 3's log: m3 before m1 — but after m2?! Impossible under
        // causal delivery; the closure must flag m1 as missing.
        let mut d = MemberTrace::new(ProcessId::new(3));
        d.record(bare(id(1, 1)));
        d.record(bare(id(2, 1)));
        d.record(bare(id(0, 1)));
        let t = Trace::new(vec![a, b, c, d]);
        let err = check_trace(
            &t,
            &OracleConfig {
                expect_quiescent: false,
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            OracleViolation::PotentialCausalityInversion {
                member: 3,
                missing,
                ..
            } if missing == id(0, 1)
        ));
    }

    #[test]
    fn graph_logs_are_exempt_from_potential_causality() {
        // The graph engine may deliver potentially- but not semantically-
        // related messages in either order: with explicit deps recorded,
        // the re-derived check must stay out of the way.
        let mut a = MemberTrace::new(ProcessId::new(0));
        a.record(TraceEvent::Send { id: id(0, 1) });
        a.record(deliver(id(0, 1), vec![], false));
        // a delivered m1 before sending m2, but declared no dependency.
        a.record(TraceEvent::Send { id: id(0, 2) });
        a.record(deliver(id(0, 2), vec![], false));
        let mut b = MemberTrace::new(ProcessId::new(1));
        b.record(deliver(id(0, 2), vec![], false));
        b.record(deliver(id(0, 1), vec![], false));
        let t = Trace::new(vec![a, b]);
        let report = check_trace(&t, &OracleConfig::default()).unwrap();
        assert_eq!(report.hb_logs, 0, "check must not engage");
    }

    /// §5.1 mixed workload: Add commutes, Sync does not.
    #[derive(Clone, PartialEq, Debug)]
    enum MixOp {
        Add(i64),
        Mul(i64),
        Sync,
    }
    impl Operation<i64> for MixOp {
        fn apply(&self, s: &mut i64) {
            match self {
                MixOp::Add(k) => *s += k,
                MixOp::Mul(k) => *s *= k,
                MixOp::Sync => {}
            }
        }
        fn is_commutative(&self) -> bool {
            !matches!(self, MixOp::Sync)
        }
    }

    #[test]
    fn commutative_windows_accept_sound_declarations() {
        let mut tx0 = OSender::new(ProcessId::new(0));
        let mut tx1 = OSender::new(ProcessId::new(1));
        let mut tx2 = OSender::new(ProcessId::new(2));
        let nc0 = tx0.osend(MixOp::Sync, OccursAfter::none());
        let c1 = tx1.osend(MixOp::Add(2), OccursAfter::message(nc0.id));
        let c2 = tx2.osend(MixOp::Add(5), OccursAfter::message(nc0.id));
        let nc1 = tx0.osend(MixOp::Sync, OccursAfter::all([c1.id, c2.id]));
        let tail = tx1.osend(MixOp::Add(1), OccursAfter::message(nc1.id));
        let log = vec![nc0, c1, c2, nc1, tail];
        assert!(commutative_windows_equivalent(&0i64, &log, 6).is_ok());
    }

    #[test]
    fn commutative_windows_catch_lying_declaration() {
        let mut tx0 = OSender::new(ProcessId::new(0));
        let mut tx1 = OSender::new(ProcessId::new(1));
        let mut tx2 = OSender::new(ProcessId::new(2));
        let nc0 = tx0.osend(MixOp::Sync, OccursAfter::none());
        // Mul claims commutativity (is_commutative = true for non-Sync)
        // but does not commute with Add: the window check must object.
        let c1 = tx1.osend(MixOp::Add(3), OccursAfter::message(nc0.id));
        let c2 = tx2.osend(MixOp::Mul(2), OccursAfter::message(nc0.id));
        let nc1 = tx0.osend(MixOp::Sync, OccursAfter::all([c1.id, c2.id]));
        let log = vec![nc0, c1, c2, nc1];
        let err = commutative_windows_equivalent(&1i64, &log, 6).unwrap_err();
        assert_eq!(err.activity, 1);
    }

    #[test]
    fn long_windows_fall_back_to_transpositions() {
        let mut tx0 = OSender::new(ProcessId::new(0));
        let mut tx1 = OSender::new(ProcessId::new(1));
        let nc0 = tx0.osend(MixOp::Sync, OccursAfter::none());
        let mut log = vec![nc0.clone()];
        let mut ids = Vec::new();
        for k in 0..8 {
            let e = tx1.osend(MixOp::Add(k), OccursAfter::message(nc0.id));
            ids.push(e.id);
            log.push(e);
        }
        log.push(tx0.osend(MixOp::Sync, OccursAfter::all(ids)));
        // 8! is too many; max_window 4 triggers the transposition set.
        assert!(commutative_windows_equivalent(&0i64, &log, 4).is_ok());
    }
}
