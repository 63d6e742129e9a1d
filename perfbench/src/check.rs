//! Output checks that feed `failed`: exactly-once delivery per member by
//! `MsgId`, agreement of final replica states and of stable-point
//! snapshots, and the trace oracle on a separate short run.

use crate::app::{missed_or_repeated, BenchApp};
use causal_clocks::{MsgId, ProcessId};
use causal_core::delivery::DeliveryEngine;
use causal_core::stack::{App, ProtocolStack};
use causal_verify::oracle::{check_trace, OracleConfig};
use causal_verify::trace::Trace;
use std::collections::HashSet;

/// Result of checking one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run failed, if it did.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

/// Checks the apps of one run, where origin `o` issued `sent[o]` ops with
/// dense sequence numbers and `refused` further ops were never assigned
/// an id. `points` demands at least one agreed stable point.
pub fn check_run(apps: &[&BenchApp], sent: &[u64], refused: u64, points: bool) -> Outcome {
    let total: u64 = sent.iter().sum();
    let mut out = Outcome {
        attempted: total + refused,
        failed: refused,
        problems: Vec::new(),
    };
    if refused > 0 {
        out.problems.push(format!("{refused} submits refused"));
    }
    let mut bad: HashSet<MsgId> = HashSet::new();
    for app in apps {
        for (o, &count) in sent.iter().enumerate() {
            bad.extend(missed_or_repeated(app, ProcessId::new(o as u32), count));
        }
        if app.state.count != total {
            out.problems.push(format!(
                "a member applied {} of {total} ops",
                app.state.count
            ));
        }
    }
    if !bad.is_empty() {
        out.problems.push(format!(
            "{} ops not delivered exactly once everywhere",
            bad.len()
        ));
    }
    out.failed += bad.len() as u64;
    let disagree = |what: &str, out: &mut Outcome| {
        out.problems.push(format!("members disagree on {what}"));
        out.failed = out.attempted;
    };
    if apps.windows(2).any(|w| w[0].state != w[1].state) {
        disagree("final replica state", &mut out);
    }
    if points {
        let first = &apps[0].snapshots;
        if first.is_empty() {
            disagree("stable points (none detected)", &mut out);
        } else if apps.iter().any(|a| a.snapshots != *first) {
            disagree("stable-point snapshots", &mut out);
        }
    }
    out
}

/// Runs the trace oracle over the members' recorded traces (stacks built
/// `with_tracing()` and driven to quiescence).
pub fn oracle<D, A>(stacks: &mut [&mut ProtocolStack<D, A>]) -> Outcome
where
    D: DeliveryEngine,
    A: App<Op = D::Op>,
{
    let traces = stacks
        .iter_mut()
        .map(|s| s.take_trace().expect("oracle runs are traced"))
        .collect();
    let trace = Trace::new(traces);
    match check_trace(&trace, &OracleConfig::default()) {
        Ok(report) => {
            println!(
                "oracle members={} deliveries={} stable_points={} snapshots_compared={}",
                report.members, report.deliveries, report.stable_points, report.snapshots_compared
            );
            Outcome::default()
        }
        Err(v) => Outcome {
            attempted: 0,
            failed: 1,
            problems: vec![format!("oracle: {v}")],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Clock;
    use crate::ops::BenchOp;
    use causal_core::delivery::Delivered;
    use causal_core::stack::Emitter;

    fn app_with(ids: &[(u32, u64)]) -> BenchApp {
        let mut app = BenchApp::new(ProcessId::new(0), 2, Clock::Sim(0));
        let op = BenchOp {
            value: 1,
            sent: 0,
            nc: false,
        };
        for &(o, s) in ids {
            let env = Delivered {
                id: MsgId::new(ProcessId::new(o), s),
                deps: None,
                payload: &op,
            };
            app.on_deliver(env, &mut Emitter::new());
        }
        app
    }

    #[test]
    fn exactly_once_everywhere_passes() {
        let (a, b) = (app_with(&[(0, 1), (1, 1)]), app_with(&[(1, 1), (0, 1)]));
        let out = check_run(&[&a, &b], &[1, 1], 0, false);
        assert_eq!((out.attempted, out.failed), (2, 0), "{:?}", out.problems);
    }

    #[test]
    fn a_missed_op_fails_it_and_the_state_check() {
        let (a, b) = (app_with(&[(0, 1), (1, 1)]), app_with(&[(0, 1)]));
        let out = check_run(&[&a, &b], &[1, 1], 0, false);
        // The states disagree too, so the whole run counts as failed.
        assert_eq!((out.attempted, out.failed), (2, 2));
    }

    #[test]
    fn a_duplicate_delivery_fails_the_op() {
        let a = app_with(&[(0, 1), (0, 1), (1, 1)]);
        let out = check_run(&[&a], &[1, 1], 0, false);
        assert!(out.failed >= 1, "{:?}", out.problems);
    }
}
