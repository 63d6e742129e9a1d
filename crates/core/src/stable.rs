//! Stable points and causal activities (§4 of the paper).
//!
//! A **synchronization message** closes a set of concurrent messages: it
//! causally follows everything delivered before it. The state reached at
//! such a message is a **stable point**: every member reaches the *same*
//! state there, whatever order it processed the concurrent messages in —
//! so agreement on the shared data needs no extra protocol ("virtual
//! synchrony at a higher message granularity").
//!
//! The [`StablePointDetector`] detects these points *locally* from the
//! delivery stream, exactly as the paper prescribes: each member sees the
//! same dependency graph, hence "the same view of when stable points
//! occur".
//!
//! # What makes local detection sound
//!
//! A message is flagged as a stable point when **both** hold:
//!
//! 1. it is a **synchronization candidate** — the application classifies
//!    its operation as non-commutative (the paper's `rqst_nc`; commutative
//!    `rqst_c` messages belong to an open concurrent set and never close a
//!    point), and
//! 2. its direct dependencies cover this member's entire current frontier.
//!
//! Under the §6.1 front-end protocol — where every non-commutative message
//! AND-depends on all commutative messages of the preceding cycle
//! (`rqst_nc(r-1) → ‖{rqst_c} → rqst_nc(r)`) — condition 2 holds at a
//! member iff it holds at every member, so all members flag the same
//! points. If the application mis-specifies its relation (a message left
//! concurrent with a declared sync message), members may disagree; the
//! `causal_verify::check` validators detect such mis-specifications.

use causal_clocks::{IdWindow, MsgId};

/// A detected stable point in a member's delivery stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StablePoint {
    /// The synchronization message that produced the point.
    pub msg: MsgId,
    /// Position of `msg` in the member's delivery log (0-based).
    pub log_index: usize,
    /// Ordinal of the stable point (0-based: the `r`-th processing cycle).
    pub ordinal: usize,
}

/// One entry of a delivery log as consumed by [`activities_from_log`] and
/// the `causal_verify::check` validators: the message, its direct
/// dependencies, and whether it is a synchronization candidate
/// (non-commutative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// The delivered message.
    pub id: MsgId,
    /// Its direct dependencies.
    pub deps: Vec<MsgId>,
    /// `true` for non-commutative (synchronization-candidate) operations.
    pub sync_candidate: bool,
}

impl LogEntry {
    /// Creates a log entry.
    pub fn new(id: MsgId, deps: Vec<MsgId>, sync_candidate: bool) -> Self {
        LogEntry {
            id,
            deps,
            sync_candidate,
        }
    }
}

/// Streaming detector: feed every delivery (in the member's delivery
/// order) and receive a [`StablePoint`] whenever a synchronization
/// candidate's direct dependencies cover the member's entire current
/// frontier.
///
/// Each delivery costs O(|deps|) and allocates nothing once the frontier's
/// windows have grown to the traffic's shape, however large the frontier
/// is: the frontier is a per-origin [`IdWindow`] of the delivered messages
/// no later delivery has named, and a delivery's dependencies cover it
/// exactly when removing them empties it. The frontier is never scanned,
/// which matters because traffic without synchronization messages grows
/// it without bound. Message ids number from 1, as [`OSender`] assigns
/// them; an id with sequence 0 never enters the frontier.
///
/// [`OSender`]: crate::osend::OSender
///
/// # Examples
///
/// The §6.1 cycle `nc₀ → ‖{c₁, c₂} → nc₁`:
///
/// ```
/// use causal_clocks::{MsgId, ProcessId};
/// use causal_core::stable::StablePointDetector;
///
/// let id = |p: u32, s: u64| MsgId::new(ProcessId::new(p), s);
/// let (nc0, c1, c2, nc1) = (id(0, 1), id(1, 1), id(2, 1), id(0, 2));
///
/// let mut det = StablePointDetector::new();
/// assert!(det.on_deliver(nc0, &[], true).is_some());       // first nc
/// assert!(det.on_deliver(c1, &[nc0], false).is_none());    // commutative
/// assert!(det.on_deliver(c2, &[nc0], false).is_none());    // commutative
/// let sp = det.on_deliver(nc1, &[c1, c2], true).unwrap();  // closes set
/// assert_eq!(sp.ordinal, 1);
/// assert_eq!(sp.log_index, 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StablePointDetector {
    /// The delivered messages that no later delivery depends on.
    frontier: IdWindow<()>,
    delivered: usize,
    points: Vec<StablePoint>,
}

impl StablePointDetector {
    /// Creates a detector with nothing delivered.
    pub fn new() -> Self {
        StablePointDetector::default()
    }

    /// Records the delivery of `id` with direct dependencies `deps`
    /// (deliveries must be fed in the member's delivery order).
    /// `sync_candidate` is `true` for non-commutative operations. Returns
    /// the stable point if `id` closes one.
    pub fn on_deliver(
        &mut self,
        id: MsgId,
        deps: &[MsgId],
        sync_candidate: bool,
    ) -> Option<StablePoint> {
        // The dependencies cover the frontier iff every frontier member is
        // among them, that is iff removing them removes all of it. Each
        // member leaves once, however often `deps` repeats it.
        let before = self.frontier.len();
        let covered = deps
            .iter()
            .filter(|&&d| self.frontier.remove(d).is_some())
            .count();
        self.frontier.insert(id, ());
        let log_index = self.delivered;
        self.delivered += 1;
        if sync_candidate && covered == before {
            let sp = StablePoint {
                msg: id,
                log_index,
                ordinal: self.points.len(),
            };
            self.points.push(sp);
            Some(sp)
        } else {
            None
        }
    }

    /// The member's current frontier (maximal delivered messages), in id
    /// order.
    pub fn frontier(&self) -> impl Iterator<Item = MsgId> + '_ {
        self.frontier.iter().map(|(id, ())| id)
    }

    /// All stable points detected so far, in order.
    pub fn points(&self) -> &[StablePoint] {
        &self.points
    }
}

/// One **causal activity** (§4.1): the span between two successive
/// synchronization messages, containing the messages processed in between.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalActivity {
    /// The sync message opening the activity (`None` for the first
    /// activity of the computation).
    pub start: Option<MsgId>,
    /// Messages processed strictly between the two sync points, in this
    /// member's delivery order. For a well-formed §6.1 cycle these are the
    /// mutually concurrent (commutative) messages.
    pub interior: Vec<MsgId>,
    /// The sync message closing the activity.
    pub end: MsgId,
}

impl CausalActivity {
    /// Total messages the activity spans (interior plus closing message).
    pub fn len(&self) -> usize {
        self.interior.len() + 1
    }

    /// Activities always contain at least the closing message.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Segments a delivery log into [`CausalActivity`]s at its stable points.
///
/// Messages after the last stable point (an unfinished activity) are not
/// returned.
///
/// # Examples
///
/// ```
/// use causal_clocks::{MsgId, ProcessId};
/// use causal_core::stable::{activities_from_log, LogEntry};
///
/// let id = |p: u32, s: u64| MsgId::new(ProcessId::new(p), s);
/// let (nc0, c1, nc1) = (id(0, 1), id(1, 1), id(0, 2));
/// let log = vec![
///     LogEntry::new(nc0, vec![], true),
///     LogEntry::new(c1, vec![nc0], false),
///     LogEntry::new(nc1, vec![c1], true),
/// ];
///
/// let acts = activities_from_log(&log);
/// assert_eq!(acts.len(), 2);
/// assert_eq!(acts[1].start, Some(nc0));
/// assert_eq!(acts[1].interior, vec![c1]);
/// assert_eq!(acts[1].end, nc1);
/// ```
pub fn activities_from_log(log: &[LogEntry]) -> Vec<CausalActivity> {
    activities_with_tail(log).0
}

/// Like [`activities_from_log`], but also returns the **unfinished tail**:
/// messages delivered after the last stable point, in delivery order.
/// Verification harnesses need the tail to account for every delivered
/// message (e.g. to check a commutative window that no sync message has
/// closed yet).
pub fn activities_with_tail(log: &[LogEntry]) -> (Vec<CausalActivity>, Vec<MsgId>) {
    let mut detector = StablePointDetector::new();
    let mut activities = Vec::new();
    let mut start: Option<MsgId> = None;
    let mut interior = Vec::new();
    for entry in log {
        match detector.on_deliver(entry.id, &entry.deps, entry.sync_candidate) {
            Some(_) => {
                activities.push(CausalActivity {
                    start,
                    interior: std::mem::take(&mut interior),
                    end: entry.id,
                });
                start = Some(entry.id);
            }
            None => interior.push(entry.id),
        }
    }
    (activities, interior)
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_clocks::ProcessId;

    fn id(p: u32, s: u64) -> MsgId {
        MsgId::new(ProcessId::new(p), s)
    }

    #[test]
    fn first_sync_message_is_stable() {
        let mut det = StablePointDetector::new();
        let sp = det.on_deliver(id(0, 1), &[], true).unwrap();
        assert_eq!(sp.log_index, 0);
        assert_eq!(sp.ordinal, 0);
    }

    #[test]
    fn first_commutative_message_is_not_stable() {
        let mut det = StablePointDetector::new();
        assert!(det.on_deliver(id(0, 1), &[], false).is_none());
    }

    #[test]
    fn commutative_interior_is_not_stable() {
        let mut det = StablePointDetector::new();
        det.on_deliver(id(0, 1), &[], true);
        assert!(det.on_deliver(id(1, 1), &[id(0, 1)], false).is_none());
        assert!(det.on_deliver(id(2, 1), &[id(0, 1)], false).is_none());
        assert_eq!(det.frontier().count(), 2);
    }

    #[test]
    fn closing_message_is_stable() {
        let mut det = StablePointDetector::new();
        det.on_deliver(id(0, 1), &[], true);
        det.on_deliver(id(1, 1), &[id(0, 1)], false);
        det.on_deliver(id(2, 1), &[id(0, 1)], false);
        let sp = det
            .on_deliver(id(0, 2), &[id(1, 1), id(2, 1)], true)
            .unwrap();
        assert_eq!(sp.ordinal, 1);
        assert_eq!(det.frontier().collect::<Vec<_>>(), vec![id(0, 2)]);
    }

    #[test]
    fn partial_cover_is_not_stable() {
        let mut det = StablePointDetector::new();
        det.on_deliver(id(0, 1), &[], true);
        det.on_deliver(id(1, 1), &[id(0, 1)], false);
        det.on_deliver(id(2, 1), &[id(0, 1)], false);
        // Depends on only one of the two frontier messages.
        assert!(det.on_deliver(id(0, 2), &[id(1, 1)], true).is_none());
    }

    #[test]
    fn detection_is_order_independent_for_designated_syncs() {
        // The same activity delivered in both interleavings of the
        // concurrent interior flags the same stable points.
        let entry = |m: MsgId, d: Vec<MsgId>, s: bool| LogEntry::new(m, d, s);
        let logs: [Vec<LogEntry>; 2] = [
            vec![
                entry(id(0, 1), vec![], true),
                entry(id(1, 1), vec![id(0, 1)], false),
                entry(id(2, 1), vec![id(0, 1)], false),
                entry(id(0, 2), vec![id(1, 1), id(2, 1)], true),
            ],
            vec![
                entry(id(0, 1), vec![], true),
                entry(id(2, 1), vec![id(0, 1)], false),
                entry(id(1, 1), vec![id(0, 1)], false),
                entry(id(0, 2), vec![id(1, 1), id(2, 1)], true),
            ],
        ];
        let points: Vec<Vec<MsgId>> = logs
            .iter()
            .map(|log| {
                let mut det = StablePointDetector::new();
                log.iter()
                    .filter_map(|e| {
                        det.on_deliver(e.id, &e.deps, e.sync_candidate)
                            .map(|sp| sp.msg)
                    })
                    .collect()
            })
            .collect();
        assert_eq!(points[0], points[1]);
        assert_eq!(points[0], vec![id(0, 1), id(0, 2)]);
    }

    #[test]
    fn chain_of_sync_messages_is_all_stable_points() {
        let mut det = StablePointDetector::new();
        assert!(det.on_deliver(id(0, 1), &[], true).is_some());
        assert!(det.on_deliver(id(0, 2), &[id(0, 1)], true).is_some());
        assert!(det.on_deliver(id(0, 3), &[id(0, 2)], true).is_some());
        assert_eq!(det.points().len(), 3);
    }

    #[test]
    fn activities_segment_the_log() {
        let entry = |m: MsgId, d: Vec<MsgId>, s: bool| LogEntry::new(m, d, s);
        let log = vec![
            entry(id(0, 1), vec![], true),
            entry(id(1, 1), vec![id(0, 1)], false),
            entry(id(2, 1), vec![id(0, 1)], false),
            entry(id(0, 2), vec![id(1, 1), id(2, 1)], true),
            entry(id(1, 2), vec![id(0, 2)], false),
        ];
        let acts = activities_from_log(&log);
        assert_eq!(acts.len(), 2);
        assert_eq!(acts[0].start, None);
        assert_eq!(acts[0].end, id(0, 1));
        assert!(acts[0].interior.is_empty());
        assert_eq!(acts[1].start, Some(id(0, 1)));
        assert_eq!(acts[1].interior, vec![id(1, 1), id(2, 1)]);
        assert_eq!(acts[1].end, id(0, 2));
        assert_eq!(acts[1].len(), 3);
        // id(1,2) after the last stable point: unfinished, not reported.
    }

    #[test]
    fn empty_log_has_no_activities() {
        assert!(activities_from_log(&[]).is_empty());
    }
}
