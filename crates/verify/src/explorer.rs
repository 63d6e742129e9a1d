//! Exhaustive schedule exploration with sleep-set partial-order reduction.
//!
//! The simulator replays *one* interleaving per seed; this module replays
//! **all** of them for small configurations. A [`World`] hosts the group's
//! actors over a lossless, per-link FIFO network whose delivery order is
//! chosen by the explorer, and [`Explorer`] drives a depth-first search
//! over every delivery interleaving, pruning schedules equivalent to ones
//! already explored with sleep sets (Godefroid). At every quiescent
//! terminal state a caller-supplied check — usually the
//! [`oracle`] — is run; a failing schedule is shrunk to a
//! minimal counterexample by prefix-trimming and greedy deletion.
//!
//! # Model
//!
//! A *transition* is "deliver the head message of link `(from, to)`".
//! Payload (`Data`) messages queue on links and their delivery order is
//! the explored choice. Protocol control traffic (acknowledgements,
//! stability reports) and self-sends are delivered immediately and
//! atomically with the transition that emitted them: they carry no
//! application ordering, so exploring their interleavings would only
//! square the schedule count without touching the invariants under test.
//! Timers are ignored — the network is lossless, so retransmission and
//! failure detection never need to fire.
//!
//! Two enabled transitions are *independent* (their order is irrelevant)
//! when their footprints — the set of nodes they touch, including
//! immediate control-message cascades, and the set of links they append
//! to — are disjoint. Footprints are probed per state by trial delivery,
//! so the relation is exact for the state at hand rather than a static
//! over-approximation.

use causal_clocks::{MsgId, ProcessId};
use causal_core::delivery::DeliveryEngine;
use causal_core::osend::OccursAfter;
use causal_core::rbcast::RbMsg;
use causal_core::stack::{App, ProtocolStack, StackWire};
use causal_simnet::{Actor, Command, Context, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::oracle::{self, OracleConfig, OracleReport};
use crate::trace::Trace;

/// How the explorer treats a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgClass {
    /// Queued on its link; delivery order is explored.
    Data,
    /// Delivered immediately, atomically with the emitting transition.
    Control,
}

/// A directed link between two node indices: `(from, to)`.
pub type LinkKey = (usize, usize);

/// Complete schedules checked before the search stops. This bound and
/// [`MAX_DEPTH`] are far above what the in-tree configurations need;
/// hitting either sets [`PorStats::truncated`].
const MAX_SCHEDULES: u64 = 1_000_000;
/// The longest schedule explored.
const MAX_DEPTH: usize = 256;

/// Partial-order-reduction statistics from one [`Explorer::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PorStats {
    /// Complete (quiescent) schedules actually checked.
    pub schedules_complete: u64,
    /// Transitions executed across all replays (including footprint probes).
    pub transitions: u64,
    /// Transitions skipped because a sleep set proved the resulting
    /// schedule equivalent to an explored one.
    pub sleep_pruned: u64,
    /// Longest schedule reached.
    pub max_depth: usize,
    /// True when a limit stopped the search before it was exhaustive.
    pub truncated: bool,
}

/// A failing schedule, minimized, plus the check's complaint.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The minimized delivery schedule (link keys, in order).
    pub schedule: Vec<LinkKey>,
    /// What the check reported on this schedule.
    pub failure: String,
}

/// What one exploration produced.
#[derive(Debug, Clone)]
pub struct ExplorerReport {
    /// Search statistics.
    pub stats: PorStats,
    /// The first failing schedule found (minimized), if any.
    pub counterexample: Option<Counterexample>,
}

/// The footprint of one transition, probed by trial execution.
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    /// Nodes whose *data* state the transition mutated (the recipient of
    /// the delivered message).
    touched: BTreeSet<usize>,
    /// Nodes reached only by the immediate control-message cascade
    /// (acknowledgement bookkeeping and the like).
    control_touched: BTreeSet<usize>,
    /// Links the transition appended data messages to.
    appended: BTreeSet<LinkKey>,
}

impl Footprint {
    /// Whether two transitions with these footprints commute: they touch
    /// disjoint node sets and append to disjoint links. When
    /// `control_commutes` the control-cascade touches are ignored — valid
    /// only if the caller knows control processing is commutative and
    /// never influences future observable behavior (see
    /// `Explorer::with_commuting_control`).
    pub fn independent(&self, other: &Footprint, control_commutes: bool) -> bool {
        if !(self.touched.is_disjoint(&other.touched) && self.appended.is_disjoint(&other.appended))
        {
            return false;
        }
        if control_commutes {
            // Control may not race with the other side's data delivery.
            self.control_touched.is_disjoint(&other.touched)
                && other.control_touched.is_disjoint(&self.touched)
        } else {
            self.control_touched.is_disjoint(&other.control_touched)
                && self.control_touched.is_disjoint(&other.touched)
                && other.control_touched.is_disjoint(&self.touched)
        }
    }
}

/// A group of actors over an explorer-controlled lossless network.
///
/// Built fresh for every replay from the explorer's factory and script,
/// so a schedule (a sequence of [`deliver`](World::deliver) calls) fully
/// determines the state — the precondition for both replay-based DFS and
/// committed counterexample traces staying meaningful.
pub struct World<'c, N: Actor> {
    nodes: Vec<N>,
    links: BTreeMap<LinkKey, VecDeque<N::Msg>>,
    rng: StdRng,
    classify: &'c dyn Fn(&N::Msg) -> MsgClass,
    transitions: u64,
    // Recycled buffers: a DFS explores thousands of worlds with many
    // steps each, and per-step allocations dominated replay cost. The
    // command scratch is threaded through every `Context` (same protocol
    // as the simulator core), the cascade queue through every route.
    scratch: Vec<Command<N::Msg>>,
    cascade: VecDeque<(usize, usize, N::Msg)>,
}

impl<'c, N: Actor> World<'c, N> {
    /// Builds `n` nodes via `factory(index, n)`, runs every node's
    /// `on_start`, and applies `script` (the workload's initiating pokes).
    pub fn new(
        n: usize,
        factory: &dyn Fn(usize, usize) -> N,
        script: &dyn Fn(&mut World<'_, N>),
        classify: &'c dyn Fn(&N::Msg) -> MsgClass,
    ) -> Self {
        let mut world = World {
            nodes: (0..n).map(|i| factory(i, n)).collect(),
            links: BTreeMap::new(),
            // Fixed seed: actors must not branch on randomness anyway
            // (the lint enforces it for the protocol crates), and a fixed
            // seed keeps replays bit-identical even if one does.
            rng: StdRng::seed_from_u64(0),
            classify,
            transitions: 0,
            scratch: Vec::new(),
            cascade: VecDeque::new(),
        };
        for i in 0..n {
            world.step(i, |node, ctx| node.on_start(ctx));
        }
        script(&mut world);
        world
    }

    /// Runs `f` against node `i` with a live context, then routes the
    /// commands it issued. Returns the footprint of the whole step.
    pub fn poke<F: FnOnce(&mut N, &mut Context<'_, N::Msg>)>(&mut self, i: usize, f: F) {
        self.step(i, f);
    }

    fn step<F: FnOnce(&mut N, &mut Context<'_, N::Msg>)>(&mut self, i: usize, f: F) -> Footprint {
        let n = self.nodes.len();
        let scratch = std::mem::take(&mut self.scratch);
        let mut ctx = Context::with_scratch(
            ProcessId::new(i as u32),
            SimTime::ZERO,
            n,
            &mut self.rng,
            scratch,
        );
        f(&mut self.nodes[i], &mut ctx);
        let mut cmds = ctx.take_commands();
        let mut fp = Footprint::default();
        fp.touched.insert(i);
        self.route(i, &mut cmds, &mut fp);
        self.scratch = cmds;
        fp
    }

    /// Applies commands from node `origin`, delivering control messages
    /// and self-sends immediately (cascading) and queueing data messages.
    /// Drains `cmds` and leaves it empty (callers recycle the buffer).
    fn route(&mut self, origin: usize, cmds: &mut Vec<Command<N::Msg>>, fp: &mut Footprint) {
        // (from, to, msg) pending immediate delivery (recycled buffer).
        let mut immediate = std::mem::take(&mut self.cascade);
        debug_assert!(immediate.is_empty());
        self.dispatch(origin, cmds, &mut immediate, fp);
        while let Some((from, to, msg)) = immediate.pop_front() {
            if !fp.touched.contains(&to) {
                fp.control_touched.insert(to);
            }
            let n = self.nodes.len();
            // `cmds` is drained at this point: reuse it as the cascade
            // delivery's command scratch.
            let scratch = std::mem::take(cmds);
            let mut ctx = Context::with_scratch(
                ProcessId::new(to as u32),
                SimTime::ZERO,
                n,
                &mut self.rng,
                scratch,
            );
            self.nodes[to].on_message(&mut ctx, ProcessId::new(from as u32), msg);
            *cmds = ctx.take_commands();
            self.dispatch(to, cmds, &mut immediate, fp);
        }
        self.cascade = immediate;
    }

    /// Drains the commands node `from` issued: control messages and
    /// self-sends join `immediate`, data messages queue on their links.
    fn dispatch(
        &mut self,
        from: usize,
        cmds: &mut Vec<Command<N::Msg>>,
        immediate: &mut VecDeque<(usize, usize, N::Msg)>,
        fp: &mut Footprint,
    ) {
        let mut push = |to: ProcessId, msg: N::Msg| {
            let to = to.as_usize();
            if to == from || (self.classify)(&msg) == MsgClass::Control {
                immediate.push_back((from, to, msg));
            } else {
                self.links.entry((from, to)).or_default().push_back(msg);
                fp.appended.insert((from, to));
            }
        };
        for cmd in cmds.drain(..) {
            match cmd {
                Command::Send { to, msg } => push(to, msg),
                Command::Multicast { to, msg } => {
                    for t in to {
                        push(t, msg.clone());
                    }
                }
                // Lossless network: retransmission, heartbeats and
                // failure detection never need to fire.
                Command::SetTimer { .. } => {}
            }
        }
    }

    /// The currently enabled transitions: links with queued data, in
    /// deterministic (sorted) order.
    pub fn enabled(&self) -> Vec<LinkKey> {
        self.links
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(k, _)| *k)
            .collect()
    }

    /// Executes transition `key`: delivers the head message of that link.
    /// Returns the footprint, or `None` if the link is empty (useful when
    /// replaying shrunk schedules leniently).
    pub fn deliver(&mut self, key: LinkKey) -> Option<Footprint> {
        let msg = self.links.get_mut(&key)?.pop_front()?;
        self.transitions += 1;
        let (from, to) = key;
        let mut fp = self.step(to, |node, ctx| {
            node.on_message(ctx, ProcessId::new(from as u32), msg)
        });
        fp.touched.insert(to);
        Some(fp)
    }

    /// The nodes, for terminal-state checks.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Transitions executed in this world (including cascaded control
    /// deliveries' parent transitions only once each).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }
}

/// Outcome of a terminal-state check: `Err` carries a human-readable
/// description of the violated invariant.
pub type CheckResult = Result<(), String>;

/// Workload initiator: pokes the initial sends into a fresh world.
type ScriptFn<'a, N> = Box<dyn Fn(&mut World<'_, N>) + 'a>;
/// Message classifier (see [`MsgClass`]).
type ClassifyFn<'a, M> = Box<dyn Fn(&M) -> MsgClass + 'a>;

/// Replay-based depth-first exploration of every delivery schedule of a
/// fixed workload, with sleep-set pruning.
pub struct Explorer<'a, N: Actor> {
    n: usize,
    factory: Box<dyn Fn(usize, usize) -> N + 'a>,
    script: ScriptFn<'a, N>,
    classify: ClassifyFn<'a, N::Msg>,
    control_commutes: bool,
}

impl<'a, N: Actor> Explorer<'a, N> {
    /// A new explorer over `n` nodes built by `factory(index, n)`, with
    /// `script` initiating the workload. All messages are treated as
    /// [`MsgClass::Data`] until `with_classifier` says otherwise.
    pub fn new(
        n: usize,
        factory: impl Fn(usize, usize) -> N + 'a,
        script: impl Fn(&mut World<'_, N>) + 'a,
    ) -> Self {
        Explorer {
            n,
            factory: Box::new(factory),
            script: Box::new(script),
            classify: Box::new(|_| MsgClass::Data),
            control_commutes: false,
        }
    }

    /// Sets the message classifier (see [`MsgClass`]).
    fn with_classifier(mut self, classify: impl Fn(&N::Msg) -> MsgClass + 'a) -> Self {
        self.classify = Box::new(classify);
        self
    }

    /// Declares that control-message processing commutes and never
    /// influences future observable behavior, so two transitions whose
    /// footprints overlap only in control-cascade recipients are treated
    /// as independent. This is an assertion *by the caller* about the
    /// actors: it holds for the protocol stack under this module's model
    /// (the network is lossless and timers never fire, so acknowledgement
    /// bookkeeping is write-only), but is unsound for actors whose
    /// control handling feeds back into data behavior.
    fn with_commuting_control(mut self) -> Self {
        self.control_commutes = true;
        self
    }

    fn fresh(&self) -> World<'_, N> {
        World::new(self.n, &*self.factory, &*self.script, &*self.classify)
    }

    /// Rebuilds the world and replays `schedule` strictly (every key must
    /// be enabled when reached).
    fn replay(&self, schedule: &[LinkKey]) -> World<'_, N> {
        let mut w = self.fresh();
        for key in schedule {
            w.deliver(*key)
                .expect("replayed transition must be enabled");
        }
        w
    }

    /// Rebuilds the world and replays `schedule`, skipping entries whose
    /// link is empty — shrunk schedules may contain deliveries whose
    /// message no longer exists once an earlier delivery was removed.
    /// Returns the world and the subsequence that actually executed.
    fn replay_lenient(&self, schedule: &[LinkKey]) -> (World<'_, N>, Vec<LinkKey>) {
        let mut w = self.fresh();
        let mut executed = Vec::new();
        for key in schedule {
            if w.deliver(*key).is_some() {
                executed.push(*key);
            }
        }
        (w, executed)
    }

    /// The nodes reached by (leniently) replaying `schedule` — used to
    /// extract the counterexample trace for a failing schedule.
    fn nodes_after(&self, schedule: &[LinkKey]) -> Vec<N> {
        let (w, _) = self.replay_lenient(schedule);
        w.nodes
    }

    /// Explores every schedule (up to sleep-set equivalence and the
    /// bounds), running `terminal_check` at each quiescent state. On the
    /// first failure the schedule is minimized against `safety_check` —
    /// a check valid on *partial* runs (no quiescence assumptions) — and
    /// returned as a counterexample.
    pub fn run(
        &self,
        terminal_check: &dyn Fn(&[N]) -> CheckResult,
        safety_check: &dyn Fn(&[N]) -> CheckResult,
    ) -> ExplorerReport {
        let mut stats = PorStats::default();
        let mut schedule = Vec::new();
        let counterexample = self.dfs(
            &mut schedule,
            &BTreeSet::new(),
            &mut stats,
            terminal_check,
            safety_check,
        );
        ExplorerReport {
            stats,
            counterexample,
        }
    }

    fn dfs(
        &self,
        schedule: &mut Vec<LinkKey>,
        sleep: &BTreeSet<LinkKey>,
        stats: &mut PorStats,
        terminal_check: &dyn Fn(&[N]) -> CheckResult,
        safety_check: &dyn Fn(&[N]) -> CheckResult,
    ) -> Option<Counterexample> {
        if stats.truncated {
            return None;
        }
        stats.max_depth = stats.max_depth.max(schedule.len());
        let world = self.replay(schedule);
        stats.transitions += world.transitions();
        let enabled = world.enabled();
        if enabled.is_empty() {
            stats.schedules_complete += 1;
            if stats.schedules_complete >= MAX_SCHEDULES {
                stats.truncated = true;
            }
            if let Err(failure) = terminal_check(world.nodes()) {
                let minimized = self.minimize(schedule, safety_check);
                let failure = safety_check(&self.replay_lenient(&minimized).0.nodes)
                    .err()
                    .unwrap_or(failure);
                return Some(Counterexample {
                    schedule: minimized,
                    failure,
                });
            }
            return None;
        }
        if schedule.len() >= MAX_DEPTH {
            stats.truncated = true;
            return None;
        }

        // Probe each enabled transition's footprint in *this* state: the
        // independence relation below is conditional on the current state
        // (Godefroid's sleep sets remain sound under conditional
        // independence, and per-state probing prunes far more than a
        // static relation could).
        let footprints: BTreeMap<LinkKey, Footprint> = enabled
            .iter()
            .map(|key| {
                let mut w = self.replay(schedule);
                let fp = w.deliver(*key).expect("enabled transition");
                stats.transitions += w.transitions();
                (*key, fp)
            })
            .collect();

        let mut done: Vec<LinkKey> = Vec::new();
        for t in &enabled {
            if sleep.contains(t) {
                stats.sleep_pruned += 1;
                continue;
            }
            // Transitions proven independent of `t` stay asleep in the
            // child: executing them after `t` reaches a state already
            // covered by executing them here first.
            let child_sleep: BTreeSet<LinkKey> = sleep
                .iter()
                .chain(done.iter())
                .filter(|u| {
                    **u != *t && footprints[*u].independent(&footprints[t], self.control_commutes)
                })
                .copied()
                .collect();
            schedule.push(*t);
            let found = self.dfs(schedule, &child_sleep, stats, terminal_check, safety_check);
            schedule.pop();
            if found.is_some() {
                return found;
            }
            done.push(*t);
        }
        None
    }

    /// Shrinks a failing schedule: first the shortest failing prefix,
    /// then greedy deletion of interior deliveries, re-checking with the
    /// partial-run-safe check after every candidate cut.
    fn minimize(
        &self,
        schedule: &[LinkKey],
        safety_check: &dyn Fn(&[N]) -> CheckResult,
    ) -> Vec<LinkKey> {
        let fails = |candidate: &[LinkKey]| -> bool {
            let (w, _) = self.replay_lenient(candidate);
            safety_check(w.nodes()).is_err()
        };
        if !fails(schedule) {
            // The failure needs the quiescence assumption; nothing the
            // safety check can shrink against — keep the full schedule.
            return schedule.to_vec();
        }
        let mut best: Vec<LinkKey> = schedule.to_vec();
        for len in 1..=schedule.len() {
            if fails(&schedule[..len]) {
                best = schedule[..len].to_vec();
                break;
            }
        }
        let mut i = 0;
        while i < best.len() {
            let mut candidate = best.clone();
            candidate.remove(i);
            let (w, executed) = self.replay_lenient(&candidate);
            if safety_check(w.nodes()).is_err() {
                best = executed;
            } else {
                i += 1;
            }
        }
        best
    }
}

// ---------------------------------------------------------------------------
// Protocol-stack layer: explore a ProtocolStack group through the oracle.
// ---------------------------------------------------------------------------

/// One workload initiation: node `node` broadcasts `op` ordered after
/// `after`. Steps execute in order at world construction, before any
/// network delivery — engines buffer self-sends with unmet dependencies,
/// so later steps may depend on ids from any earlier step.
#[derive(Debug, Clone)]
pub struct ScriptStep<Op> {
    /// Index of the sending node.
    pub node: usize,
    /// The operation to broadcast.
    pub op: Op,
    /// Its declared causal predecessors.
    pub after: OccursAfter,
}

/// Result of [`explore_stacks`].
#[derive(Debug, Clone)]
pub struct StackExploration {
    /// Search statistics.
    pub stats: PorStats,
    /// Distinct terminal outcomes: the number of different tuples of
    /// per-member delivery logs the checked quiescent terminal states
    /// reached. A sound independence relation changes how many schedules
    /// reach an outcome, not which outcomes are reached.
    pub outcomes: usize,
    /// Oracle counters from the last clean terminal state checked.
    pub last_report: Option<OracleReport>,
    /// The minimized failing schedule and its replayable trace, if the
    /// oracle rejected any schedule.
    pub violation: Option<StackViolation>,
}

/// A protocol-stack counterexample: the schedule, the oracle's complaint,
/// and the group trace recorded while replaying the minimized schedule —
/// ready to serialize with [`Trace::to_text`] into `regressions/`.
#[derive(Debug, Clone)]
pub struct StackViolation {
    /// The minimized delivery schedule.
    pub schedule: Vec<LinkKey>,
    /// The oracle's complaint.
    pub failure: String,
    /// The recorded group trace of the minimized schedule.
    pub trace: Trace,
}

/// Exhaustively explores every delivery interleaving of the scripted
/// workload over a group of `n` protocol stacks built by `mk` (tracing is
/// switched on for you), checking the full [`oracle`] at every quiescent
/// terminal state and the prefix-safe subset during minimization.
pub fn explore_stacks<D, A>(
    n: usize,
    mk: impl Fn(ProcessId, usize) -> ProtocolStack<D, A>,
    steps: Vec<ScriptStep<D::Op>>,
) -> StackExploration
where
    D: DeliveryEngine,
    A: App<Op = D::Op>,
{
    let factory = move |i: usize, n: usize| mk(ProcessId::new(i as u32), n).with_tracing();
    let script = move |world: &mut World<'_, ProtocolStack<D, A>>| {
        for step in &steps {
            let (op, after) = (step.op.clone(), step.after.clone());
            world.poke(step.node, |node, ctx| {
                node.osend(ctx, op, after);
            });
        }
    };
    let classify = |msg: &StackWire<D::Envelope>| match msg {
        StackWire::Rb(RbMsg::Data(_)) => MsgClass::Data,
        // Routed-engine link frames: sequenced stream frames (data,
        // handshake pings/pongs) affect delivery state and must be
        // explored; cumulative acks are write-only bookkeeping and
        // commute. An ack that names lost frames or copies is not
        // write-only (its receiver resends them), but none arises here:
        // the explorer's clock stays at zero, so no frame or copy is ever
        // parked long enough to name a hole. Rb acks never arise at all:
        // a stack sends them only at its ack tick, and the explorer's
        // timers never fire.
        StackWire::Link(frame) => match frame.body {
            causal_core::delivery::pcbcast::LinkBody::Ack { .. } => MsgClass::Control,
            _ => MsgClass::Data,
        },
        _ => MsgClass::Control,
    };
    // Under this model the stack's control traffic is acknowledgement
    // bookkeeping only, and the retransmission timer never fires — so
    // control processing is write-only and commutes (see
    // `with_commuting_control` for the soundness argument).
    let explorer = Explorer::new(n, factory, script)
        .with_classifier(classify)
        .with_commuting_control();

    let check = |nodes: &[ProtocolStack<D, A>], quiescent: bool| -> CheckResult {
        let trace = Trace::from_stacks(nodes);
        oracle::check_trace(
            &trace,
            &OracleConfig {
                expect_quiescent: quiescent,
            },
        )
        .map(|_| ())
        .map_err(|v| v.to_string())
    };
    let outcomes = RefCell::new(BTreeSet::new());
    let terminal = |nodes: &[ProtocolStack<D, A>]| {
        let logs: Vec<Vec<MsgId>> = nodes.iter().map(|node| node.log().to_vec()).collect();
        outcomes.borrow_mut().insert(logs);
        check(nodes, true)
    };
    let report = explorer.run(&terminal, &|nodes| check(nodes, false));

    let (last_report, violation) = match report.counterexample {
        Some(cx) => {
            let nodes = explorer.nodes_after(&cx.schedule);
            let trace = Trace::from_stacks(&nodes);
            (
                None,
                Some(StackViolation {
                    schedule: cx.schedule,
                    failure: cx.failure,
                    trace,
                }),
            )
        }
        None => {
            // Re-derive the oracle counters from one clean full replay so
            // callers can assert the exploration actually checked things.
            let mut w = explorer.fresh();
            while let Some(key) = w.enabled().first().copied() {
                w.deliver(key);
            }
            let trace = Trace::from_stacks(w.nodes());
            (
                oracle::check_trace(&trace, &OracleConfig::default()).ok(),
                None,
            )
        }
    };
    StackExploration {
        stats: report.stats,
        outcomes: outcomes.into_inner().len(),
        last_report,
        violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny direct-exchange actor: records `(sender, value)` pairs and
    /// forwards positive tokens around the ring, decremented.
    #[derive(Clone)]
    struct Ring {
        me: usize,
        n: usize,
        seen: Vec<(u32, u64)>,
    }

    impl Actor for Ring {
        type Msg = u64;
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: ProcessId, msg: u64) {
            self.seen.push((from.as_u32(), msg));
            if msg > 0 {
                ctx.send(ProcessId::new(((self.me + 1) % self.n) as u32), msg - 1);
            }
        }
    }

    #[test]
    fn single_chain_has_one_schedule() {
        let explorer = Explorer::new(
            3,
            |i, n| Ring {
                me: i,
                n,
                seen: Vec::new(),
            },
            |world: &mut World<'_, Ring>| {
                world.poke(0, |_, ctx| ctx.send(ProcessId::new(1), 3u64));
            },
        );
        let report = explorer.run(&|_| Ok(()), &|_| Ok(()));
        // One message in flight at all times: exactly one schedule.
        assert_eq!(report.stats.schedules_complete, 1);
        assert!(!report.stats.truncated);
        assert!(report.counterexample.is_none());
    }

    /// Two independent one-hop messages: two interleavings, but they
    /// commute — sleep sets must prune one of them.
    #[test]
    fn sleep_sets_prune_commuting_pairs() {
        let explorer = Explorer::new(
            4,
            |i, n| Ring {
                me: i,
                n,
                seen: Vec::new(),
            },
            |world: &mut World<'_, Ring>| {
                world.poke(0, |_, ctx| ctx.send(ProcessId::new(1), 0u64));
                world.poke(2, |_, ctx| ctx.send(ProcessId::new(3), 0u64));
            },
        );
        let report = explorer.run(&|_| Ok(()), &|_| Ok(()));
        assert_eq!(report.stats.schedules_complete, 1);
        assert_eq!(report.stats.sleep_pruned, 1);
    }

    /// Two messages racing to the same recipient do NOT commute for an
    /// order-sensitive check: both orders must be explored and the bad
    /// one caught and minimized.
    #[test]
    fn dependent_races_are_explored_and_minimized() {
        let explorer = Explorer::new(
            3,
            |i, n| Ring {
                me: i,
                n,
                seen: Vec::new(),
            },
            |world: &mut World<'_, Ring>| {
                // Two tokens race into node 2; a third pads the schedule
                // so minimization has something to delete.
                world.poke(0, |_, ctx| ctx.send(ProcessId::new(2), 0u64));
                world.poke(1, |_, ctx| ctx.send(ProcessId::new(2), 0u64));
                world.poke(0, |_, ctx| ctx.send(ProcessId::new(1), 0u64));
            },
        );
        // An order-sensitive check: delivering node 1's token into node 2
        // before node 0's is declared a violation. Both orders must be
        // reached (same recipient ⇒ dependent transitions), and the
        // padding delivery must be shrunk away.
        let safety = |nodes: &[Ring]| -> CheckResult {
            let senders: Vec<u32> = nodes[2].seen.iter().map(|(s, _)| *s).collect();
            if senders.starts_with(&[1, 0]) {
                Err("node 2 heard node 1 before node 0".into())
            } else {
                Ok(())
            }
        };
        let report = explorer.run(&safety, &safety);
        assert!(report.stats.schedules_complete >= 1);
        let cx = report
            .counterexample
            .expect("violating order must be found");
        // Minimal: just the two racing deliveries, the padding removed.
        assert_eq!(cx.schedule.len(), 2);
        assert!(cx.schedule.iter().all(|k| k.1 == 2));
    }

    /// Depth limiting marks the report truncated instead of hanging: a
    /// token that rings longer than the depth bound.
    #[test]
    fn limits_truncate() {
        let explorer = Explorer::new(
            2,
            |i, n| Ring {
                me: i,
                n,
                seen: Vec::new(),
            },
            |world: &mut World<'_, Ring>| {
                let hops = MAX_DEPTH as u64 + 8;
                world.poke(0, |_, ctx| ctx.send(ProcessId::new(1), hops));
            },
        );
        let report = explorer.run(&|_| Ok(()), &|_| Ok(()));
        assert!(report.stats.truncated);
        assert_eq!(report.stats.schedules_complete, 0);
    }
}
