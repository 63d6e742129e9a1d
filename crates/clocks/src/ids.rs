//! Identifiers for processes and messages.

use std::fmt;

/// Identifier of an application entity (a process / group member).
///
/// Process identifiers double as indices into [`VectorClock`] and
/// [`MatrixClock`] instances, so within one group they are expected to be
/// dense: `0..n` for a group of `n` members.
///
/// [`VectorClock`]: crate::VectorClock
/// [`MatrixClock`]: crate::MatrixClock
///
/// # Examples
///
/// ```
/// use causal_clocks::ProcessId;
///
/// let p = ProcessId::new(3);
/// assert_eq!(p.as_usize(), 3);
/// assert_eq!(p.to_string(), "p3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a process identifier from its dense index.
    pub const fn new(index: u32) -> Self {
        ProcessId(index)
    }

    /// Returns the identifier as a `u32` index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns the identifier as a `usize`, suitable for vector indexing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Enumerates the identifiers of a dense group of `n` members.
    ///
    /// # Examples
    ///
    /// ```
    /// use causal_clocks::ProcessId;
    /// let ids: Vec<_> = ProcessId::all(3).collect();
    /// assert_eq!(ids, vec![ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)]);
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = ProcessId> {
        (0..n as u32).map(ProcessId)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(index: u32) -> Self {
        ProcessId(index)
    }
}

/// Globally unique identifier of an application message.
///
/// A message is identified by its originating process plus a per-origin
/// sequence number, so identifiers can be assigned without coordination.
/// The sequence number order of one origin does **not** by itself imply a
/// causal (delivery) order; ordering is carried separately as dependency
/// metadata.
///
/// # Examples
///
/// ```
/// use causal_clocks::{MsgId, ProcessId};
///
/// let m = MsgId::new(ProcessId::new(1), 7);
/// assert_eq!(m.origin(), ProcessId::new(1));
/// assert_eq!(m.seq(), 7);
/// assert_eq!(m.to_string(), "p1#7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId {
    origin: ProcessId,
    seq: u64,
}

impl MsgId {
    /// Creates a message identifier from its origin and per-origin sequence.
    pub const fn new(origin: ProcessId, seq: u64) -> Self {
        MsgId { origin, seq }
    }

    /// The process that generated the message.
    pub const fn origin(self) -> ProcessId {
        self.origin
    }

    /// The per-origin sequence number.
    pub const fn seq(self) -> u64 {
        self.seq
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn process_id_roundtrip() {
        let p = ProcessId::new(42);
        assert_eq!(p.as_u32(), 42);
        assert_eq!(p.as_usize(), 42);
        assert_eq!(ProcessId::from(42u32), p);
    }

    #[test]
    fn process_id_display() {
        assert_eq!(ProcessId::new(0).to_string(), "p0");
        assert_eq!(ProcessId::new(17).to_string(), "p17");
    }

    #[test]
    fn process_id_all_is_dense() {
        let ids: Vec<_> = ProcessId::all(4).collect();
        assert_eq!(ids.len(), 4);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.as_usize(), i);
        }
    }

    #[test]
    fn msg_id_accessors() {
        let m = MsgId::new(ProcessId::new(2), 9);
        assert_eq!(m.origin(), ProcessId::new(2));
        assert_eq!(m.seq(), 9);
    }

    #[test]
    fn msg_id_ordering_is_origin_then_seq() {
        let a = MsgId::new(ProcessId::new(0), 5);
        let b = MsgId::new(ProcessId::new(1), 0);
        let c = MsgId::new(ProcessId::new(1), 1);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn msg_id_hashable_and_unique() {
        let mut set = HashSet::new();
        for p in 0..4 {
            for s in 0..10 {
                set.insert(MsgId::new(ProcessId::new(p), s));
            }
        }
        assert_eq!(set.len(), 40);
    }
}
