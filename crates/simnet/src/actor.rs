//! The actor abstraction: protocol state machines driven by the simulator.

use crate::{SimDuration, SimTime};
use causal_clocks::ProcessId;
use rand::rngs::StdRng;

/// A protocol state machine hosted on one simulated node.
///
/// Actors are *sans-IO*: they never block or touch a transport. All effects
/// (sends, broadcasts, timers) are issued through the [`Context`] handed to
/// each callback, and the runtime — the discrete-event [`Simulation`] or
/// the [`threaded`](crate::threaded) runtime — applies them.
///
/// [`Simulation`]: crate::Simulation
///
/// # Examples
///
/// ```
/// use causal_clocks::ProcessId;
/// use causal_simnet::{Actor, Context};
///
/// struct Echo;
/// impl Actor for Echo {
///     type Msg = u64;
///     fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: ProcessId, msg: u64) {
///         if msg > 0 {
///             ctx.send(from, msg - 1); // ping-pong until zero
///         }
///     }
/// }
/// ```
pub trait Actor: Sized {
    /// The message type exchanged between nodes.
    type Msg: Clone;

    /// Called once before any message flows, at simulated time zero.
    fn on_start(&mut self, _ctx: &mut Context<'_, Self::Msg>) {}

    /// Called for each message delivered to this node by the network.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ProcessId, msg: Self::Msg);

    /// Called when a timer set via [`Context::set_timer`] fires. `tag` is
    /// the caller-chosen discriminant passed at arming time.
    fn on_timer(&mut self, _ctx: &mut Context<'_, Self::Msg>, _tag: u64) {}
}

/// An effect requested by an actor, applied by the runtime after the
/// callback returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Command<M> {
    /// Transmit `msg` to `to` over the (faulty) network.
    Send {
        /// Destination node.
        to: ProcessId,
        /// Payload.
        msg: M,
    },
    /// Transmit one `msg` to every node in `to` (in order). Runtimes that
    /// serialize may encode the payload once and share the bytes across
    /// destinations; semantically this is exactly a `Send` per target.
    Multicast {
        /// Destination nodes, in transmission order.
        to: Vec<ProcessId>,
        /// Payload, shared by every destination.
        msg: M,
    },
    /// Arm a timer that fires after `delay` with the given `tag`.
    SetTimer {
        /// Delay until the timer fires.
        delay: SimDuration,
        /// Discriminant passed back to [`Actor::on_timer`].
        tag: u64,
    },
}

/// Per-callback effect collector and environment view handed to an
/// [`Actor`].
///
/// Holds the node's identity, the current simulated time, the group size,
/// and the simulation's RNG (so actor-level randomness stays deterministic
/// under the run's seed).
#[derive(Debug)]
pub struct Context<'a, M> {
    me: ProcessId,
    now: SimTime,
    group_size: usize,
    rng: &'a mut StdRng,
    commands: Vec<Command<M>>,
}

impl<'a, M: Clone> Context<'a, M> {
    /// Creates a context with a fresh command buffer. Runtimes call this;
    /// actors only consume it.
    pub fn new(me: ProcessId, now: SimTime, group_size: usize, rng: &'a mut StdRng) -> Self {
        Context::with_scratch(me, now, group_size, rng, Vec::new())
    }

    /// Creates a context that collects commands into `scratch`, a buffer
    /// recycled by the runtime. [`take_commands`](Self::take_commands)
    /// returns the same buffer (drained by the runtime, handed back to the
    /// next callback), so a steady-state run performs no per-step command
    /// allocation — the buffer grows to the largest command burst once.
    ///
    /// `scratch` must be empty; leftover commands from a previous callback
    /// would be replayed as this node's.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `scratch` is non-empty.
    pub fn with_scratch(
        me: ProcessId,
        now: SimTime,
        group_size: usize,
        rng: &'a mut StdRng,
        scratch: Vec<Command<M>>,
    ) -> Self {
        debug_assert!(scratch.is_empty(), "scratch buffer handed back dirty");
        Context {
            me,
            now,
            group_size,
            rng,
            commands: scratch,
        }
    }

    /// This node's identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of nodes in the simulation.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The simulation's deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Queues a message to `to`. Sends to self are delivered immediately
    /// (loopback), bypassing latency and faults.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.commands.push(Command::Send { to, msg });
    }

    /// Queues one message to every process in `to`, as a single
    /// [`Command::Multicast`]: transports that serialize encode the
    /// payload once for the whole group instead of once per destination.
    pub fn multicast(&mut self, to: Vec<ProcessId>, msg: M) {
        if !to.is_empty() {
            self.commands.push(Command::Multicast { to, msg });
        }
    }

    /// Queues a message to every *other* node.
    pub fn broadcast(&mut self, msg: M) {
        let mut to = Vec::with_capacity(self.group_size.saturating_sub(1));
        to.extend(
            (0..self.group_size)
                .map(|i| ProcessId::new(i as u32))
                .filter(|&to| to != self.me),
        );
        self.multicast(to, msg);
    }

    /// Queues a message to every node *including* self; the self-copy is a
    /// loopback delivery (no latency, no faults), which is how a group
    /// broadcast primitive sees its own messages.
    pub fn broadcast_all(&mut self, msg: M) {
        let to: Vec<ProcessId> = (0..self.group_size)
            .map(|i| ProcessId::new(i as u32))
            .collect();
        self.multicast(to, msg);
    }

    /// Arms a timer firing after `delay`, passing `tag` back to
    /// [`Actor::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.commands.push(Command::SetTimer { delay, tag });
    }

    /// Drains the queued effects. Runtimes call this after each callback.
    pub fn take_commands(&mut self) -> Vec<Command<M>> {
        std::mem::take(&mut self.commands)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn context_collects_commands() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx: Context<'_, u8> = Context::new(ProcessId::new(1), SimTime::ZERO, 3, &mut rng);
        ctx.send(ProcessId::new(0), 7);
        ctx.set_timer(SimDuration::from_micros(10), 99);
        let cmds = ctx.take_commands();
        assert_eq!(cmds.len(), 2);
        assert_eq!(
            cmds[0],
            Command::Send {
                to: ProcessId::new(0),
                msg: 7
            }
        );
        assert!(ctx.take_commands().is_empty());
    }

    #[test]
    fn broadcast_excludes_self() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx: Context<'_, u8> = Context::new(ProcessId::new(1), SimTime::ZERO, 3, &mut rng);
        ctx.broadcast(5);
        let cmds = ctx.take_commands();
        assert_eq!(
            cmds,
            vec![Command::Multicast {
                to: vec![ProcessId::new(0), ProcessId::new(2)],
                msg: 5
            }]
        );
    }

    #[test]
    fn broadcast_all_includes_self() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx: Context<'_, u8> = Context::new(ProcessId::new(1), SimTime::ZERO, 3, &mut rng);
        ctx.broadcast_all(5);
        let cmds = ctx.take_commands();
        assert_eq!(
            cmds,
            vec![Command::Multicast {
                to: (0..3).map(ProcessId::new).collect(),
                msg: 5
            }]
        );
    }

    #[test]
    fn empty_multicast_is_elided() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx: Context<'_, u8> = Context::new(ProcessId::new(0), SimTime::ZERO, 1, &mut rng);
        ctx.broadcast(5); // sole member: no other nodes
        assert!(ctx.take_commands().is_empty());
    }

    #[test]
    fn scratch_buffer_capacity_is_recycled() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut scratch: Vec<Command<u8>> = Vec::new();
        let mut peak_cap = 0;
        for _ in 0..100 {
            let mut ctx =
                Context::with_scratch(ProcessId::new(0), SimTime::ZERO, 4, &mut rng, scratch);
            ctx.broadcast(1);
            ctx.set_timer(SimDuration::from_micros(5), 0);
            scratch = ctx.take_commands();
            scratch.clear();
            peak_cap = peak_cap.max(scratch.capacity());
            assert_eq!(scratch.capacity(), peak_cap, "capacity must not shrink");
        }
        assert!(peak_cap >= 2);
    }

    #[test]
    fn accessors_report_environment() {
        let mut rng = StdRng::seed_from_u64(0);
        let ctx: Context<'_, u8> =
            Context::new(ProcessId::new(2), SimTime::from_micros(42), 5, &mut rng);
        assert_eq!(ctx.me(), ProcessId::new(2));
        assert_eq!(ctx.now(), SimTime::from_micros(42));
        assert_eq!(ctx.group_size(), 5);
    }
}
