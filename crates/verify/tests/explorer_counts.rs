//! Pins the schedule explorer's counts on the §6.1 scenario for every
//! engine row the `explore` binary prints. A change to an engine or the
//! stack that alters which interleavings exist, or how many the sleep
//! sets prune, shows up here as a changed count. The distinct terminal
//! outcomes pin what the rows reach: a change that only makes more
//! transitions independent prunes schedules but reaches the same
//! outcomes.

use causal_core::delivery::reference::{FlatCbcastEngine, ScanGraphDelivery};
use causal_core::delivery::{CbcastEngine, DeliveryEngine, GraphDelivery, PcEngine};
use causal_core::stack::ProtocolStack;
use causal_verify::apps::{sec61_script, CounterOp, SumApp};
use causal_verify::explorer::explore_stacks;

/// `(schedules, sleep_pruned, distinct terminal outcomes,
/// rederived-causality logs)` of one row.
fn counts<D: DeliveryEngine<Op = CounterOp>>() -> (u64, u64, usize, usize) {
    let result = explore_stacks(
        3,
        |me, n| ProtocolStack::<D, SumApp>::new(me, n, SumApp::new()),
        sec61_script(),
    );
    assert!(result.violation.is_none(), "{:?}", result.violation);
    assert!(!result.stats.truncated);
    let report = result.last_report.expect("a clean terminal state");
    (
        result.stats.schedules_complete,
        result.stats.sleep_pruned,
        result.outcomes,
        report.hb_logs,
    )
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: exhaustive exploration")]
fn sec61_schedule_counts_are_pinned() {
    assert_eq!(
        counts::<GraphDelivery<CounterOp>>(),
        (18, 640, 2, 0),
        "graph"
    );
    assert_eq!(
        counts::<CbcastEngine<CounterOp>>(),
        (18, 640, 18, 0),
        "vector"
    );
    assert_eq!(
        counts::<ScanGraphDelivery<CounterOp>>(),
        (18, 640, 2, 0),
        "graph-ref"
    );
    assert_eq!(
        counts::<FlatCbcastEngine<CounterOp>>(),
        (18, 640, 18, 0),
        "vector-ref"
    );
    assert_eq!(counts::<PcEngine<CounterOp>>(), (108, 240, 2, 3), "pc");
}
