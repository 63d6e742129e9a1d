//! Per-sender FIFO delivery — a baseline weaker than causal order.

use causal_clocks::{IdWindow, MsgId, Offer};

/// A message stamped with its per-sender sequence number only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoEnvelope<P> {
    /// Unique message identity (`origin`, `seq`); `seq` is the FIFO index.
    pub id: MsgId,
    /// The application payload.
    pub payload: P,
}

/// Per-member FIFO delivery engine: messages from each sender are released
/// in that sender's send order, but **no cross-sender ordering** is
/// enforced. Used as a baseline to show the anomalies causal order
/// prevents (e.g. a reply overtaking the request it answers).
///
/// # Examples
///
/// ```
/// use causal_clocks::{MsgId, ProcessId};
/// use causal_core::delivery::{FifoDelivery, FifoEnvelope};
///
/// let p0 = ProcessId::new(0);
/// let mut rx = FifoDelivery::new();
/// let m1 = FifoEnvelope { id: MsgId::new(p0, 1), payload: 'a' };
/// let m2 = FifoEnvelope { id: MsgId::new(p0, 2), payload: 'b' };
/// assert!(rx.on_receive(m2.clone()).is_empty()); // gap: buffered
/// assert_eq!(rx.on_receive(m1).len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoDelivery<P> {
    /// The in-order gate: each sender's floor is its last released
    /// sequence number, and the entries are messages waiting for an
    /// earlier one.
    gate: IdWindow<FifoEnvelope<P>>,
    duplicates: u64,
}

impl<P> FifoDelivery<P> {
    /// Creates an engine with nothing delivered. Sequence numbers are
    /// expected to start at 1 for every sender.
    pub fn new() -> Self {
        FifoDelivery {
            gate: IdWindow::new(),
            duplicates: 0,
        }
    }

    /// Accepts an envelope; returns the envelopes released in order. A
    /// duplicate of a waiting message leaves the first copy waiting.
    pub fn on_receive(&mut self, env: FifoEnvelope<P>) -> Vec<FifoEnvelope<P>> {
        let sender = env.id.origin();
        let mut released = Vec::new();
        match self.gate.offer(env.id, env) {
            Offer::Duplicate => self.duplicates += 1,
            Offer::Parked => {}
            Offer::Next(env) => {
                released.push(env);
                while let Some(env) = self.gate.pop_next(sender) {
                    released.push(env);
                }
            }
        }
        released
    }

    /// Messages buffered waiting for sender gaps.
    pub fn pending_len(&self) -> usize {
        self.gate.len()
    }

    /// Duplicate receptions absorbed.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_clocks::ProcessId;

    fn env(p: u32, s: u64, payload: char) -> FifoEnvelope<char> {
        FifoEnvelope {
            id: MsgId::new(ProcessId::new(p), s),
            payload,
        }
    }

    fn ids(released: Vec<FifoEnvelope<char>>) -> Vec<MsgId> {
        released.into_iter().map(|e| e.id).collect()
    }

    #[test]
    fn in_order_passthrough() {
        let mut rx = FifoDelivery::new();
        let p0 = ProcessId::new(0);
        assert_eq!(ids(rx.on_receive(env(0, 1, 'a'))), [MsgId::new(p0, 1)]);
        assert_eq!(ids(rx.on_receive(env(0, 2, 'b'))), [MsgId::new(p0, 2)]);
    }

    #[test]
    fn gap_buffers_until_filled() {
        let mut rx = FifoDelivery::new();
        assert!(rx.on_receive(env(0, 3, 'c')).is_empty());
        assert!(rx.on_receive(env(0, 2, 'b')).is_empty());
        assert_eq!(rx.pending_len(), 2);
        let out = rx.on_receive(env(0, 1, 'a'));
        assert_eq!(
            out.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec!['a', 'b', 'c']
        );
        assert_eq!(rx.pending_len(), 0);
    }

    #[test]
    fn senders_are_independent() {
        let mut rx = FifoDelivery::new();
        assert!(rx.on_receive(env(0, 2, 'x')).is_empty());
        // Another sender's stream is unaffected by p0's gap.
        assert_eq!(rx.on_receive(env(1, 1, 'y')).len(), 1);
    }

    #[test]
    fn duplicates_counted() {
        let mut rx = FifoDelivery::new();
        rx.on_receive(env(0, 1, 'a'));
        rx.on_receive(env(0, 1, 'a')); // already delivered
        assert_eq!(rx.duplicates(), 1);
        rx.on_receive(env(0, 3, 'c'));
        rx.on_receive(env(0, 3, 'c')); // duplicate in buffer
        assert_eq!(rx.duplicates(), 2);
    }

    #[test]
    fn a_duplicate_of_a_waiting_message_keeps_the_first_copy() {
        let mut rx = FifoDelivery::new();
        assert!(rx.on_receive(env(0, 2, 'b')).is_empty());
        assert!(rx.on_receive(env(0, 2, 'B')).is_empty());
        let out = rx.on_receive(env(0, 1, 'a'));
        assert_eq!(out.iter().map(|e| e.payload).collect::<String>(), "ab");
        assert_eq!(rx.duplicates(), 1);
    }

    #[test]
    fn no_cross_sender_ordering() {
        // p1's message "after" p0's is released before it — FIFO allows
        // the causal anomaly.
        let mut rx = FifoDelivery::new();
        let reply = ids(rx.on_receive(env(1, 1, 'r')));
        let request = ids(rx.on_receive(env(0, 1, 'q')));
        assert_eq!(reply, [MsgId::new(ProcessId::new(1), 1)]);
        assert_eq!(request, [MsgId::new(ProcessId::new(0), 1)]);
    }
}
