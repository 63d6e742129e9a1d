//! Wall-clock driver for [`Actor`]s over a pluggable [`Transport`].
//!
//! The discrete-event [`Simulation`](crate::Simulation) owns its own event
//! loop; every *real-time* runtime (the in-process [`threaded`] runtime,
//! `causal-net`'s TCP transport) needs the same surrounding machinery: an
//! RNG derived from the run seed, a wall-clock origin mapped onto
//! [`SimTime`], a timer wheel for [`Command::SetTimer`], command
//! draining after each callback, and the receive loop that interleaves
//! inbound messages with due timers. [`ActorRunner`] factors that out.
//!
//! [`threaded`]: crate::threaded
//!
//! The division of labour:
//!
//! - the **transport** owns the sockets/channels: it carries outbound
//!   messages and queues inbound ones on an `mpsc` inbox;
//! - the **runner** owns the actor, its timers, its clock, and the one
//!   receive loop, [`ActorRunner::serve`].
//!
//! The loop, in outline:
//!
//! ```text
//! start the actor;
//! until stop() holds or the inbox disconnects {
//!     fire the due timers;
//!     wait for a message until the next timer is due, or POLL_INTERVAL;
//!     deliver it, plus up to INBOX_DRAIN_BATCH already queued;
//! }
//! deliver whatever has already arrived;
//! ```

use crate::actor::{Actor, Command, Context};
use crate::SimTime;
use causal_clocks::ProcessId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// How long [`ActorRunner::serve`] waits for a message before it re-checks
/// its stop condition, when no timer is due sooner.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// How many already-arrived messages [`ActorRunner::serve`] delivers per
/// wakeup before it re-checks timers; bounds timer latency under flood.
const INBOX_DRAIN_BATCH: usize = 128;

/// An outbound message sink for one node.
///
/// Implementations decide what "send" means: an in-process channel, a TCP
/// connection, a recording vector in tests. Delivery is allowed to fail
/// silently (links drop during reconnects); the protocol layers above are
/// built to retransmit.
pub trait Transport<M> {
    /// Hands `msg` to the transport for delivery to `to`.
    fn send(&mut self, to: ProcessId, msg: M);

    /// Hands one `msg` to the transport for delivery to every process in
    /// `to`, in order. Equivalent to a [`send`](Transport::send) per
    /// target — the default does exactly that — but transports that
    /// serialize should override it to encode the payload once and share
    /// the bytes across destinations (see `causal-net`'s `TcpTransport`).
    fn multicast(&mut self, to: &[ProcessId], msg: M)
    where
        M: Clone,
    {
        if let Some((&last, rest)) = to.split_last() {
            for &dest in rest {
                self.send(dest, msg.clone());
            }
            self.send(last, msg);
        }
    }
}

impl<M, F: FnMut(ProcessId, M)> Transport<M> for F {
    fn send(&mut self, to: ProcessId, msg: M) {
        self(to, msg)
    }
}

/// Allocation and throughput counters for one [`ActorRunner`].
///
/// `scratch_grows` is the no-allocation contract made observable: the
/// runner recycles one command buffer across callbacks, so after the
/// buffer has grown to the actor's largest command burst, further
/// callbacks must not allocate for commands at all. Steady-state traffic
/// with a growing `scratch_grows` is a regression.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunnerStats {
    /// Actor callbacks dispatched (`on_start` + messages + timers).
    pub callbacks: u64,
    /// Commands the actor issued across all callbacks.
    pub commands: u64,
    /// Callbacks after which the recycled command buffer's capacity had
    /// grown. Bounded by the actor's peak burst, not by message count.
    pub scratch_grows: u64,
}

/// Drives one [`Actor`] against wall-clock time.
///
/// Owns the actor, its deterministic RNG, and its pending timers. The
/// embedding transport hands [`serve`](ActorRunner::serve) its outbound
/// half and its inbox, and gets the actor back with
/// [`into_actor`](ActorRunner::into_actor) once the loop returns.
#[derive(Debug)]
pub struct ActorRunner<A: Actor> {
    node: A,
    me: ProcessId,
    group_size: usize,
    rng: StdRng,
    epoch: Instant,
    // Timer wheel: (deadline, insertion-order, tag).
    timers: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    timer_seq: u64,
    // Recycled command buffer handed to every Context (see RunnerStats).
    scratch: Vec<Command<A::Msg>>,
    stats: RunnerStats,
}

enum Event<M> {
    Start,
    Message(ProcessId, M),
    Timer(u64),
}

impl<A: Actor> ActorRunner<A> {
    /// Wraps `node` as process `me` of a group of `group_size`, with its
    /// RNG derived from `seed` (callers conventionally mix the node index
    /// into the seed so nodes diverge).
    pub fn new(node: A, me: ProcessId, group_size: usize, seed: u64) -> Self {
        ActorRunner {
            node,
            me,
            group_size,
            rng: StdRng::seed_from_u64(seed),
            epoch: Instant::now(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            scratch: Vec::new(),
            stats: RunnerStats::default(),
        }
    }

    /// Allocation/throughput counters accumulated so far.
    pub fn stats(&self) -> RunnerStats {
        self.stats
    }

    /// This runner's process id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Runs the actor until `stop()` holds or every sender of `inbox` is
    /// gone: starts it, then fires the due timers, waits for a message
    /// until the next timer is due (or for at most the 20 ms poll
    /// interval), and delivers that message plus up to 128 already queued
    /// ones, over and over. Before it returns it delivers whatever has
    /// already arrived, so a stop requested after "all messages received"
    /// leaves the actor having seen all of them. `stop()` is checked once
    /// per wakeup, so the loop may outlast it by up to one poll interval.
    pub fn serve<T: Transport<A::Msg>>(
        &mut self,
        transport: &mut T,
        inbox: &Receiver<(ProcessId, A::Msg)>,
        mut stop: impl FnMut() -> bool,
    ) {
        self.start(transport);
        while !stop() {
            self.fire_due_timers(transport);
            let now = Instant::now();
            let poll = now + POLL_INTERVAL;
            let wait_until = self.next_timer_deadline().map_or(poll, |at| at.min(poll));
            match inbox.recv_timeout(wait_until.saturating_duration_since(now)) {
                Ok((from, msg)) => {
                    self.on_message(transport, from, msg);
                    // Under load the inbox holds a backlog; drain a bounded
                    // batch before paying the timer/clock bookkeeping again
                    // (bounded so a flood cannot starve due timers).
                    for _ in 0..INBOX_DRAIN_BATCH {
                        match inbox.try_recv() {
                            Ok((from, msg)) => self.on_message(transport, from, msg),
                            Err(_) => break,
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        while let Ok((from, msg)) = inbox.try_recv() {
            self.on_message(transport, from, msg);
        }
    }

    /// Delivers the `on_start` callback. Call exactly once, first.
    fn start<T: Transport<A::Msg>>(&mut self, transport: &mut T) {
        self.dispatch(transport, Event::Start);
    }

    /// Delivers one inbound message to the actor.
    fn on_message<T: Transport<A::Msg>>(
        &mut self,
        transport: &mut T,
        from: ProcessId,
        msg: A::Msg,
    ) {
        self.dispatch(transport, Event::Message(from, msg));
    }

    /// Fires every timer whose deadline has passed, in deadline order.
    fn fire_due_timers<T: Transport<A::Msg>>(&mut self, transport: &mut T) {
        while let Some(Reverse((at, _, tag))) = self.timers.peek().copied() {
            if at <= Instant::now() {
                self.timers.pop();
                self.dispatch(transport, Event::Timer(tag));
            } else {
                break;
            }
        }
    }

    /// The instant the next pending timer is due, if any.
    fn next_timer_deadline(&self) -> Option<Instant> {
        self.timers.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Borrows the wrapped actor.
    pub fn actor(&self) -> &A {
        &self.node
    }

    /// Unwraps the actor for end-of-run inspection.
    pub fn into_actor(self) -> A {
        self.node
    }

    fn dispatch<T: Transport<A::Msg>>(&mut self, transport: &mut T, event: Event<A::Msg>) {
        let now = SimTime::from_micros(self.epoch.elapsed().as_micros() as u64);
        let scratch = std::mem::take(&mut self.scratch);
        let cap_before = scratch.capacity();
        let mut ctx = Context::with_scratch(self.me, now, self.group_size, &mut self.rng, scratch);
        match event {
            Event::Start => self.node.on_start(&mut ctx),
            Event::Message(from, msg) => self.node.on_message(&mut ctx, from, msg),
            Event::Timer(tag) => self.node.on_timer(&mut ctx, tag),
        }
        let mut commands = ctx.take_commands();
        self.stats.callbacks += 1;
        self.stats.commands += commands.len() as u64;
        if commands.capacity() > cap_before {
            self.stats.scratch_grows += 1;
        }
        for command in commands.drain(..) {
            match command {
                Command::Send { to, msg } => transport.send(to, msg),
                Command::Multicast { to, msg } => transport.multicast(&to, msg),
                Command::SetTimer { delay, tag } => {
                    let fire_at = Instant::now() + Duration::from_micros(delay.as_micros());
                    self.timers.push(Reverse((fire_at, self.timer_seq, tag)));
                    self.timer_seq += 1;
                }
            }
        }
        self.scratch = commands;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::sync::mpsc::channel;

    #[derive(Default)]
    struct Recorder(Vec<(ProcessId, u32)>);
    impl Transport<u32> for Recorder {
        fn send(&mut self, to: ProcessId, msg: u32) {
            self.0.push((to, msg));
        }
    }

    struct Chatty;
    impl Actor for Chatty {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.send(ProcessId::new(1), 10);
            ctx.set_timer(SimDuration::from_micros(0), 7);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, msg: u32) {
            ctx.send(from, msg + 1);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, tag: u64) {
            ctx.send(ProcessId::new(2), tag as u32);
        }
    }

    #[test]
    fn runner_routes_commands_through_transport() {
        let mut transport = Recorder::default();
        let mut runner = ActorRunner::new(Chatty, ProcessId::new(0), 3, 1);
        runner.start(&mut transport);
        assert_eq!(transport.0, vec![(ProcessId::new(1), 10)]);

        runner.on_message(&mut transport, ProcessId::new(2), 5);
        assert_eq!(transport.0.last(), Some(&(ProcessId::new(2), 6)));

        // The zero-delay timer armed in on_start is already due.
        assert!(runner.next_timer_deadline().is_some());
        runner.fire_due_timers(&mut transport);
        assert_eq!(transport.0.last(), Some(&(ProcessId::new(2), 7)));
        assert!(runner.next_timer_deadline().is_none());
    }

    #[test]
    fn steady_state_messages_do_not_grow_the_scratch_buffer() {
        let mut transport = Recorder::default();
        let mut runner = ActorRunner::new(Chatty, ProcessId::new(0), 3, 1);
        runner.start(&mut transport);
        // Warm-up: the buffer may grow to the largest burst seen so far.
        for i in 0..10 {
            runner.on_message(&mut transport, ProcessId::new(1), i);
        }
        let warm = runner.stats();
        // Steady state: per-message command handling must be allocation-free.
        for i in 0..1_000 {
            runner.on_message(&mut transport, ProcessId::new(1), i);
        }
        let stats = runner.stats();
        assert_eq!(
            stats.scratch_grows, warm.scratch_grows,
            "command buffer grew during steady-state traffic"
        );
        assert_eq!(stats.callbacks, warm.callbacks + 1_000);
        assert_eq!(stats.commands, warm.commands + 1_000);
    }

    /// Records every message and timer it gets; arms a 1 ms timer on
    /// start and reports each firing through a shared counter.
    struct Inbox {
        got: Vec<u32>,
        fired: Rc<Cell<u32>>,
    }
    impl Actor for Inbox {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: ProcessId, msg: u32) {
            self.got.push(msg);
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u32>, _tag: u64) {
            self.fired.set(self.fired.get() + 1);
        }
    }

    fn inbox_runner() -> (ActorRunner<Inbox>, Rc<Cell<u32>>) {
        let fired = Rc::new(Cell::new(0));
        let actor = Inbox {
            got: Vec::new(),
            fired: Rc::clone(&fired),
        };
        (ActorRunner::new(actor, ProcessId::new(0), 2, 1), fired)
    }

    #[test]
    fn serve_delivers_everything_queued_before_stop() {
        let (mut runner, _) = inbox_runner();
        let (tx, rx) = channel();
        // Several drain batches' worth, so the in-loop batch and the
        // end-of-run drain both deliver some of it.
        let queued = 5 * INBOX_DRAIN_BATCH as u32;
        for i in 0..queued {
            tx.send((ProcessId::new(1), i)).unwrap();
        }
        let mut wakeups = 0;
        runner.serve(&mut Recorder::default(), &rx, || {
            wakeups += 1;
            wakeups > 1
        });
        assert_eq!(runner.actor().got, (0..queued).collect::<Vec<_>>());
    }

    #[test]
    fn serve_fires_a_due_timer_while_the_inbox_is_idle() {
        let (mut runner, fired) = inbox_runner();
        // The sender stays alive: the inbox is idle, not disconnected.
        let (_tx, rx) = channel::<(ProcessId, u32)>();
        let give_up = Instant::now() + Duration::from_secs(5);
        runner.serve(&mut Recorder::default(), &rx, || {
            fired.get() > 0 || Instant::now() >= give_up
        });
        assert_eq!(fired.get(), 1);
        assert!(runner.actor().got.is_empty());
    }

    #[test]
    fn serve_returns_when_the_inbox_disconnects() {
        let (mut runner, _) = inbox_runner();
        let (tx, rx) = channel();
        for i in 0..3 {
            tx.send((ProcessId::new(1), i)).unwrap();
        }
        drop(tx);
        runner.serve(&mut Recorder::default(), &rx, || false);
        assert_eq!(runner.actor().got, vec![0, 1, 2]);
    }

    #[test]
    fn closures_are_transports() {
        let mut sent = Vec::new();
        let mut runner = ActorRunner::new(Chatty, ProcessId::new(0), 3, 1);
        runner.start(&mut |to, msg| sent.push((to, msg)));
        assert_eq!(sent, vec![(ProcessId::new(1), 10)]);
    }
}
