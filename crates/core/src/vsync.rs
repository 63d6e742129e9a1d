//! Virtually synchronous group membership for the causal data path.
//!
//! The paper realizes causal broadcasting "by organizing various entities
//! as members of a group" (§3) in the style of ISIS — which implies
//! handling members that crash. [`VsyncNode`] is the unified
//! [`ProtocolStack`](crate::stack::ProtocolStack) built with
//! [`with_membership`](crate::stack::ProtocolStack::with_membership): the
//! same data stack as [`CausalNode`](crate::node::CausalNode), hosting the
//! [`membership`](causal_membership) crate's view-change machine:
//!
//! - members heartbeat on the stack's ack tick (every P/4, to each member
//!   owed no ack that period), and at its check (every P/2) the machine
//!   suspects silent members; the lowest-ranked unsuspected member
//!   proposes the shrunken view (the coordinator, or a takeover when the
//!   coordinator is silent);
//! - on a proposal every survivor **flushes**: the stack re-broadcasts the
//!   messages it has delivered from the removed members over the
//!   reliability layer, which resends each copy until it is acknowledged
//!   (so any message *some* survivor saw reaches *all* survivors), pauses
//!   new sends, and the machine acknowledges;
//! - the proposer's machine installs the new view once all survivors are
//!   flushed; at each member the stack then stops waiting for the dead
//!   member's acknowledgements, and paused sends drain.
//!
//! What to decide lives in `causal_membership::ViewManager`; what to do
//! about it (relay, reconfigure, drain, tell the app) lives in the stack.
//!
//! The guarantee is the classic *virtual synchrony* property: every
//! message is delivered in the view it was sent in, and the survivors'
//! states agree when the new view is installed — which is exactly what
//! keeps the paper's stable-point agreement sound across failures.
//!
//! **Joins** are supported symmetrically: a node built with
//! [`ProtocolStack::joining`](crate::stack::ProtocolStack::joining)
//! contacts any member, the request is relayed to the coordinator, and on
//! installation the existing members (a) target future broadcasts at the
//! joiner, (b) extend their in-flight unacknowledged sets to it, and (c)
//! reliably replay their delivered history (log-replay state transfer) —
//! together covering every message of the old views, with the joiner's
//! duplicate suppression absorbing the overlap. The joiner's app starts
//! ([`App::on_start`]) at its first install, before it sees the view.
//!
//! Because membership is part of the one stack, a virtually synchronous
//! group runs unchanged over the simulator **and** the `causal-net` TCP
//! transport (see `tests/tcp_vsync.rs` at the workspace root).

use crate::stack::App;

pub use crate::stack::VsyncConfig;

/// A group member running the causal data path under virtually
/// synchronous membership: the unified stack over the graph engine with
/// membership enabled. Construct with
/// [`ProtocolStack::with_membership`](crate::stack::ProtocolStack::with_membership)
/// or [`ProtocolStack::joining`](crate::stack::ProtocolStack::joining).
///
/// Timers run for the lifetime of the group, so simulations drive this
/// node with [`run_until`](causal_simnet::Simulation::run_until) rather
/// than `run_to_quiescence`.
pub type VsyncNode<A> = crate::stack::CausalNode<A>;

/// Convenience constructor mirroring the stack's builder: member `me` of
/// an initial group of `n` hosting `app` under `config`.
///
/// # Panics
///
/// Panics if `me` is outside the group.
pub fn vsync_node<A: App>(
    me: causal_clocks::ProcessId,
    n: usize,
    app: A,
    config: VsyncConfig,
) -> VsyncNode<A> {
    VsyncNode::with_membership(me, n, app, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::Delivered;
    use crate::osend::OccursAfter;
    use crate::stack::Emitter;
    use crate::statemachine::OpClass;
    use causal_clocks::ProcessId;
    use causal_membership::{GroupView, ViewId};
    use causal_simnet::{LatencyModel, NetConfig, Partition, SimDuration, SimTime, Simulation};

    /// Counter app used throughout: payloads 1..=9 commutative.
    #[derive(Debug, Default)]
    struct Sum {
        value: i64,
    }
    impl App for Sum {
        type Op = i64;
        fn on_deliver(&mut self, env: Delivered<'_, i64>, _out: &mut Emitter<i64>) {
            self.value += *env.payload;
        }
        fn classify(&self, op: &i64) -> OpClass {
            if (1..=9).contains(op) {
                OpClass::Commutative
            } else {
                OpClass::NonCommutative
            }
        }
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn group(n: usize) -> Vec<VsyncNode<Sum>> {
        (0..n)
            .map(|i| vsync_node(p(i as u32), n, Sum::default(), VsyncConfig::default()))
            .collect()
    }

    #[test]
    fn steady_state_group_behaves_like_causal_node() {
        let mut sim = Simulation::new(group(3), NetConfig::new(), 1);
        for k in 0..12u32 {
            sim.poke(p(k % 3), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
            let deadline = sim.now() + SimDuration::from_millis(1);
            sim.run_until(deadline);
        }
        sim.run_until(SimTime::from_millis(60));
        for i in 0..3 {
            assert_eq!(sim.node(p(i)).app().value, 12);
            assert_eq!(sim.node(p(i)).view(), &GroupView::initial(3));
            assert_eq!(sim.node(p(i)).view().id(), ViewId::initial());
        }
    }

    #[test]
    fn crashed_member_is_removed_and_survivors_continue() {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 900));
        let mut sim = Simulation::new(group(4), cfg, 7);
        // Updates flow; p3 crashes mid-stream.
        for k in 0..10u32 {
            sim.poke(p(k % 4), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
            let deadline = sim.now() + SimDuration::from_millis(1);
            sim.run_until(deadline);
        }
        sim.node_mut(p(3)).crash();
        sim.run_until(SimTime::from_millis(40));

        let expected_view = GroupView::initial(4).without(p(3));
        for i in 0..3 {
            assert_eq!(sim.node(p(i)).view(), &expected_view, "member {i}");
        }

        // Survivors keep working in the new view.
        for k in 0..6u32 {
            sim.poke(p(k % 3), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
            let deadline = sim.now() + SimDuration::from_millis(1);
            sim.run_until(deadline);
        }
        sim.run_until(SimTime::from_millis(80));
        let values: Vec<i64> = (0..3).map(|i| sim.node(p(i)).app().value).collect();
        assert!(values.windows(2).all(|w| w[0] == w[1]), "{values:?}");
        assert_eq!(values[0], 16);
        for i in 0..3 {
            assert_eq!(sim.node(p(i)).pending_len(), 0);
        }
    }

    #[test]
    fn flush_spreads_messages_only_some_survivors_saw() {
        // p3 broadcasts right before crashing, while partitioned from p2:
        // only p0/p1 receive the message directly. Virtual synchrony
        // requires it to reach p2 before the new view is installed.
        let cfg =
            NetConfig::with_latency(LatencyModel::constant_micros(300)).partition(Partition::new(
                [p(3)],
                [p(2)],
                SimTime::ZERO,
                SimTime::from_millis(200), // never heals within the test
            ));
        let mut sim = Simulation::new(group(4), cfg, 3);
        sim.run_until(SimTime::from_millis(2));
        sim.poke(p(3), |node, ctx| {
            node.osend(ctx, 5, OccursAfter::none());
        });
        // Let the direct copies (to p0, p1) land, then crash p3 so its
        // own retransmissions to p2 never succeed.
        sim.run_until(SimTime::from_millis(3));
        sim.node_mut(p(3)).crash();
        sim.run_until(SimTime::from_millis(60));

        let expected_view = GroupView::initial(4).without(p(3));
        for i in 0..3 {
            assert_eq!(sim.node(p(i)).view(), &expected_view, "member {i}");
            assert_eq!(
                sim.node(p(i)).app().value,
                5,
                "member {i} must have received the flushed message"
            );
        }
    }

    #[test]
    fn joiner_is_admitted_and_receives_full_history() {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 900));
        // Three members plus one outsider (p3) that joins via p1.
        let mut nodes = group(3);
        nodes.push(VsyncNode::joining(
            p(3),
            p(1),
            Sum::default(),
            VsyncConfig::default(),
        ));
        let mut sim = Simulation::new(nodes, cfg, 11);
        // History accumulates before the join completes.
        for k in 0..6u32 {
            sim.poke(p(k % 3), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
        }
        sim.run_until(SimTime::from_millis(40));

        let expected_view = GroupView::initial(3).with(p(3));
        for i in 0..4 {
            assert_eq!(sim.node(p(i)).view(), &expected_view, "member {i}");
        }
        assert!(!sim.node(p(3)).is_joining());
        // The joiner received the full replayed history.
        assert_eq!(sim.node(p(3)).app().value, 6);

        // And participates in new traffic both ways.
        sim.poke(p(3), |node, ctx| {
            node.osend(ctx, 1, OccursAfter::none());
        });
        sim.poke(p(0), |node, ctx| {
            node.osend(ctx, 1, OccursAfter::none());
        });
        sim.run_until(SimTime::from_millis(80));
        for i in 0..4 {
            assert_eq!(sim.node(p(i)).app().value, 8, "member {i}");
            assert_eq!(sim.node(p(i)).pending_len(), 0);
        }
    }

    #[test]
    fn join_survives_message_loss() {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 900))
            .faults(causal_simnet::FaultPlan::new().with_drop_prob(0.25));
        let mut nodes = group(3);
        nodes.push(VsyncNode::joining(
            p(3),
            p(0),
            Sum::default(),
            VsyncConfig::default(),
        ));
        let mut sim = Simulation::new(nodes, cfg, 23);
        for k in 0..5u32 {
            sim.poke(p(k % 3), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
        }
        sim.run_until(SimTime::from_millis(120));
        assert!(!sim.node(p(3)).is_joining());
        for i in 0..4 {
            assert_eq!(sim.node(p(i)).app().value, 5, "member {i}");
            assert_eq!(sim.node(p(i)).view().len(), 4);
        }
    }

    #[test]
    fn sends_park_during_flush_and_drain_after() {
        let cfg = NetConfig::with_latency(LatencyModel::constant_micros(200));
        let mut sim = Simulation::new(group(3), cfg, 5);
        sim.node_mut(p(2)).crash();
        // Wait until the coordinator starts flushing, then submit.
        let mut submitted = false;
        for _ in 0..200 {
            let deadline = sim.now() + SimDuration::from_micros(500);
            sim.run_until(deadline);
            if sim.node(p(0)).is_flushing() && !submitted {
                submitted = true;
                let parked = sim.poke(p(0), |node, ctx| node.osend(ctx, 7, OccursAfter::none()));
                assert!(parked.is_none(), "send must park during flush");
            }
            if sim.node(p(0)).view().len() == 2 {
                break;
            }
        }
        assert!(submitted, "never observed the flushing window");
        sim.run_until(sim.now() + SimDuration::from_millis(20));
        for i in 0..2 {
            assert_eq!(sim.node(p(i)).app().value, 7, "member {i}");
        }
    }
}
