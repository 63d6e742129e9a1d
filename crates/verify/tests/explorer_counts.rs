//! Pins the schedule explorer's counts on the §6.1 scenario for every
//! engine row the `explore` binary prints. A change to an engine or the
//! stack that alters which interleavings exist, or how many the sleep
//! sets prune, shows up here as a changed count.

use causal_core::delivery::reference::{FlatCbcastEngine, ScanGraphDelivery};
use causal_core::delivery::{CbcastEngine, DeliveryEngine, GraphDelivery, PcEngine};
use causal_core::stack::ProtocolStack;
use causal_verify::apps::{sec61_script, CounterOp, SumApp};
use causal_verify::explorer::{explore_stacks, Limits};

/// `(schedules, sleep_pruned, rederived-causality logs)` of one row.
fn counts<D: DeliveryEngine<Op = CounterOp>>() -> (u64, u64, usize) {
    let result = explore_stacks(
        3,
        |me, n| ProtocolStack::<D, SumApp>::new(me, n, SumApp::new()),
        sec61_script(),
        Limits::default(),
    );
    assert!(result.violation.is_none(), "{:?}", result.violation);
    assert!(!result.stats.truncated);
    let report = result.last_report.expect("a clean terminal state");
    (
        result.stats.schedules_complete,
        result.stats.sleep_pruned,
        report.hb_logs,
    )
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: exhaustive exploration")]
fn sec61_schedule_counts_are_pinned() {
    assert_eq!(
        counts::<GraphDelivery<CounterOp>>(),
        (4272, 1772, 0),
        "graph"
    );
    assert_eq!(
        counts::<CbcastEngine<CounterOp>>(),
        (4272, 1772, 0),
        "vector"
    );
    assert_eq!(
        counts::<ScanGraphDelivery<CounterOp>>(),
        (4272, 1772, 0),
        "graph-ref"
    );
    assert_eq!(
        counts::<FlatCbcastEngine<CounterOp>>(),
        (4272, 1772, 0),
        "vector-ref"
    );
    assert_eq!(counts::<PcEngine<CounterOp>>(), (108, 240, 3), "pc");
}
