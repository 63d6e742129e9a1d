//! Acceptance check for the explorer + oracle pair: a deliberately broken
//! delivery engine — it releases messages the moment they arrive, ignoring
//! declared dependencies — must be caught by some explored schedule, and
//! the failing schedule must shrink to a minimal counterexample.

use causal_clocks::{MsgId, ProcessId};
use causal_core::delivery::{Delivered, DeliveryEngine};
use causal_core::osend::{GraphEnvelope, OSender, OccursAfter};
use causal_core::stack::{ProtocolStack, Timed};
use causal_simnet::SimTime;
use causal_verify::apps::{CounterOp, SumApp};
use causal_verify::check::Violation;
use causal_verify::explorer::{explore_stacks, ScriptStep};
use causal_verify::OracleViolation;
use std::collections::HashSet;

/// The mutant: stamps envelopes correctly (so receivers see honest
/// dependency sets) but delivers eagerly in arrival order.
struct EagerGraphDelivery {
    tx: OSender,
    seen: HashSet<MsgId>,
}

impl DeliveryEngine for EagerGraphDelivery {
    type Op = CounterOp;
    type Envelope = GraphEnvelope<CounterOp>;

    fn for_member(me: ProcessId, _n: usize) -> Self {
        EagerGraphDelivery {
            tx: OSender::new(me),
            seen: HashSet::new(),
        }
    }

    fn send_timed(
        &mut self,
        op: Self::Op,
        after: OccursAfter,
        sent_at: SimTime,
        released: &mut Vec<Timed<Self::Envelope>>,
    ) -> Timed<Self::Envelope> {
        let timed = Timed {
            env: self.tx.osend(op, after),
            sent_at,
        };
        self.on_receive_timed(timed.clone(), released);
        timed
    }

    fn on_receive_timed(
        &mut self,
        timed: Timed<Self::Envelope>,
        released: &mut Vec<Timed<Self::Envelope>>,
    ) {
        if self.seen.insert(timed.env.id) {
            released.push(timed); // dependencies? never heard of them
        }
    }

    fn view<'a>(env: &'a Self::Envelope) -> Delivered<'a, Self::Op> {
        Delivered::from_graph(env)
    }

    fn pending_len(&self) -> usize {
        0
    }

    fn duplicates(&self) -> u64 {
        0
    }
}

/// The same §6.1 workload the clean engines pass: m1 (nc), m2/m3 (c,
/// after m1), m4 (nc, after m2 and m3).
fn scenario() -> Vec<ScriptStep<CounterOp>> {
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

#[test]
fn eager_engine_is_caught_and_minimized() {
    let result = explore_stacks(
        3,
        |me, n| ProtocolStack::<EagerGraphDelivery, SumApp>::new(me, n, SumApp::new()),
        scenario(),
    );
    let v = result
        .violation
        .expect("some interleaving must deliver a message before its dependency");

    // The complaint is a dependency-order violation (checked both as the
    // raw string the explorer reports and by re-running the oracle on the
    // counterexample trace).
    assert!(
        v.failure.contains("dependency") || v.failure.contains("delivered"),
        "unexpected failure text: {}",
        v.failure
    );
    let rerun = causal_verify::check_trace(
        &v.trace,
        &causal_verify::OracleConfig {
            expect_quiescent: false,
        },
    )
    .expect_err("committed counterexample must still fail the oracle");
    assert!(matches!(
        rerun,
        OracleViolation::Core(Violation::DependencyAfterMessage { .. })
    ));

    // Minimal: zero network deliveries — the eager engine already
    // misbehaves at send time, self-delivering a dependent message while
    // its declared dependency is still outstanding. Minimization must
    // shrink all the explored deliveries away.
    assert!(
        v.schedule.is_empty(),
        "counterexample not minimal: {:?}",
        v.schedule
    );

    // And the trace round-trips through the regression text format.
    let text = v.trace.to_text();
    let parsed = causal_verify::Trace::parse(&text).expect("counterexample trace must parse");
    assert!(causal_verify::check_trace(
        &parsed,
        &causal_verify::OracleConfig {
            expect_quiescent: false
        }
    )
    .is_err());
}
