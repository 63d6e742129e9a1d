//! Optional transport-event tracing: the simulator's one per-message
//! network record (the protocol layers keep their own per-member trace).

use crate::SimTime;
use causal_clocks::ProcessId;

/// One transport-level occurrence in a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent {
    /// A message was submitted to the network.
    Sent {
        /// Time of transmission.
        at: SimTime,
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
    },
    /// A message reached its receiver's `on_message`.
    Delivered {
        /// Time of delivery.
        at: SimTime,
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
        /// Time the message was sent.
        sent_at: SimTime,
    },
    /// A message was lost (fault injection or partition).
    Dropped {
        /// Time of the (failed) transmission.
        at: SimTime,
        /// Sender.
        from: ProcessId,
        /// Intended receiver.
        to: ProcessId,
    },
    /// A timer fired.
    TimerFired {
        /// Firing time.
        at: SimTime,
        /// Owner of the timer.
        node: ProcessId,
        /// Caller-chosen tag.
        tag: u64,
    },
}

impl NetEvent {
    /// The time the event occurred.
    pub fn at(&self) -> SimTime {
        match self {
            NetEvent::Sent { at, .. }
            | NetEvent::Delivered { at, .. }
            | NetEvent::Dropped { at, .. }
            | NetEvent::TimerFired { at, .. } => *at,
        }
    }
}

/// A chronological record of transport events, filled in when tracing is
/// enabled on the simulation. One-way network latency is `at − sent_at`
/// of each [`NetEvent::Delivered`]; [`Metrics`](crate::Metrics) only
/// counts.
///
/// # Examples
///
/// ```
/// use causal_simnet::NetTrace;
///
/// let trace = NetTrace::new();
/// assert!(trace.events().is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetTrace {
    events: Vec<NetEvent>,
}

impl NetTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        NetTrace::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: NetEvent) {
        self.events.push(event);
    }

    /// All recorded events in occurrence order.
    pub fn events(&self) -> &[NetEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders a textual space-time diagram (one line per delivery, in
    /// time order): the classic Lamport-diagram view of a run, useful for
    /// eyeballing interleavings in examples and bug reports.
    ///
    /// `n` is the number of processes (columns). Drops are shown as `x`,
    /// deliveries as `o` at the receiver column with the sender in the
    /// annotation.
    ///
    /// # Examples
    ///
    /// ```
    /// use causal_clocks::ProcessId;
    /// use causal_simnet::{SimTime, NetTrace, NetEvent};
    ///
    /// let mut t = NetTrace::new();
    /// t.push(NetEvent::Delivered {
    ///     at: SimTime::from_micros(70),
    ///     from: ProcessId::new(0),
    ///     to: ProcessId::new(1),
    ///     sent_at: SimTime::from_micros(20),
    /// });
    /// let diagram = t.render_ascii(2);
    /// assert!(diagram.contains("p0 -> p1"));
    /// ```
    pub fn render_ascii(&self, n: usize) -> String {
        let mut out = String::new();
        let header: Vec<String> = (0..n).map(|i| format!("{:^5}", format!("p{i}"))).collect();
        out.push_str(&format!("{:>10}  {}\n", "time", header.join("")));
        for event in &self.events {
            let (at, cols, note) = match *event {
                NetEvent::Delivered {
                    at,
                    from,
                    to,
                    sent_at,
                } => {
                    let mut cols = vec!["  .  "; n];
                    if to.as_usize() < n {
                        cols[to.as_usize()] = "  o  ";
                    }
                    (at, cols, format!("{from} -> {to} (sent {sent_at})"))
                }
                NetEvent::Dropped { at, from, to } => {
                    let mut cols = vec!["  .  "; n];
                    if to.as_usize() < n {
                        cols[to.as_usize()] = "  x  ";
                    }
                    (at, cols, format!("{from} -> {to} LOST"))
                }
                NetEvent::Sent { .. } | NetEvent::TimerFired { .. } => continue,
            };
            out.push_str(&format!(
                "{:>10}  {}  {}\n",
                at.to_string(),
                cols.join(""),
                note
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn push_and_query() {
        let mut t = NetTrace::new();
        t.push(NetEvent::Sent {
            at: SimTime::from_micros(1),
            from: p(0),
            to: p(1),
        });
        t.push(NetEvent::TimerFired {
            at: SimTime::from_micros(2),
            node: p(2),
            tag: 7,
        });
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].at(), SimTime::from_micros(1));
    }

    #[test]
    fn render_ascii_shows_deliveries_and_drops() {
        let mut t = NetTrace::new();
        t.push(NetEvent::Delivered {
            at: SimTime::from_micros(50),
            from: p(0),
            to: p(2),
            sent_at: SimTime::from_micros(10),
        });
        t.push(NetEvent::Dropped {
            at: SimTime::from_micros(60),
            from: p(1),
            to: p(0),
        });
        t.push(NetEvent::TimerFired {
            at: SimTime::from_micros(70),
            node: p(0),
            tag: 1,
        });
        let diagram = t.render_ascii(3);
        let lines: Vec<&str> = diagram.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 rows (timer skipped)
        assert!(lines[1].contains("o"));
        assert!(lines[1].contains("p0 -> p2"));
        assert!(lines[2].contains("x"));
        assert!(lines[2].contains("LOST"));
    }
}
