//! Matrix clocks for message-stability detection.

use crate::{ProcessId, VectorClock};
use std::fmt;

/// An `n × n` matrix clock: row `i` is the latest vector clock known to
/// have been *reported by* process `p_i`.
///
/// The owner of the matrix updates its own row as it delivers messages and
/// replaces other rows when it learns a fresher clock from those processes
/// (e.g. piggybacked on their broadcasts). The column minimum
/// [`stable_prefix`](MatrixClock::stable_prefix) then gives, for each
/// sender, the longest prefix of its messages known to be delivered
/// *everywhere* — such messages are **stable** and their delivery-buffer
/// entries can be garbage collected.
///
/// The column minima are maintained state, not recomputed on read: each
/// column keeps its minimum and how many rows sit at it, so raising an
/// entry costs O(1), or O(n) when it lifts a column's last minimal row.
/// Every update reports whether a minimum rose, which lets a caller act
/// only when the stable prefix advances. The n² entries are allocated
/// by the first raise above zero, so a new clock costs O(n).
///
/// # Examples
///
/// ```
/// use causal_clocks::{MatrixClock, ProcessId, VectorClock};
///
/// let mut m = MatrixClock::new(2);
/// m.update_row(ProcessId::new(0), &VectorClock::from_entries([3, 1]));
/// let rose = m.update_row(ProcessId::new(1), &VectorClock::from_entries([2, 4]));
/// // Everyone has delivered at least 2 messages from p0 and 1 from p1.
/// assert!(rose);
/// assert_eq!(m.stable_prefix().as_ref(), &[2, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixClock {
    /// Row-major entries: `entries[i * n + j]` counts the messages of
    /// `p_j` that `p_i` is known to have delivered. Empty while every
    /// entry is zero.
    entries: Vec<u64>,
    /// Column minima: the stable prefix.
    min: VectorClock,
    /// Per column, the number of rows whose entry equals the minimum.
    at_min: Vec<usize>,
}

impl MatrixClock {
    /// Creates a zero matrix clock for a group of `n` processes.
    pub fn new(n: usize) -> Self {
        MatrixClock {
            entries: Vec::new(),
            min: VectorClock::new(n),
            at_min: vec![n; n],
        }
    }

    /// Group size.
    pub fn width(&self) -> usize {
        self.at_min.len()
    }

    /// The row for process `p`: the freshest vector clock known to have
    /// been held by `p`, one entry per sender.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the group.
    pub fn row(&self, p: ProcessId) -> &[u64] {
        let n = self.width();
        let i = p.as_usize();
        assert!(i < n, "process outside the group");
        if self.entries.is_empty() {
            // Nothing raised yet: every row is zero, as is the minimum.
            return self.min.as_ref();
        }
        &self.entries[i * n..(i + 1) * n]
    }

    /// Raises `p`'s entry for sender `of` to `value` if that is higher.
    /// Returns `true` if the column minimum — `of`'s stable prefix —
    /// rose.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `of` is outside the group.
    pub fn raise(&mut self, p: ProcessId, of: ProcessId, value: u64) -> bool {
        let n = self.width();
        let i = p.as_usize();
        let j = of.as_usize();
        assert!(i < n && j < n, "process outside the group");
        if value <= self.min.as_ref()[j] {
            return false; // no entry of the column is below its minimum
        }
        if self.entries.is_empty() {
            self.entries = vec![0; n * n];
        }
        let cell = &mut self.entries[i * n + j];
        if value <= *cell {
            return false;
        }
        let old = std::mem::replace(cell, value);
        if old != self.min.as_ref()[j] {
            return false;
        }
        self.at_min[j] -= 1;
        if self.at_min[j] > 0 {
            return false;
        }
        // The last row at the minimum rose: rescan the column.
        let mut lo = u64::MAX;
        let mut count = 0;
        for &v in self.entries.iter().skip(j).step_by(n) {
            if v < lo {
                lo = v;
                count = 1;
            } else if v == lo {
                count += 1;
            }
        }
        self.min.set(ProcessId::new(j as u32), lo);
        self.at_min[j] = count;
        true
    }

    /// Merges a fresher clock reported by `p` into `p`'s row, entry by
    /// entry. Returns `true` if any column minimum rose.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the group or the widths differ.
    pub fn update_row(&mut self, p: ProcessId, reported: &VectorClock) -> bool {
        assert_eq!(
            self.width(),
            reported.width(),
            "matrix clock width mismatch"
        );
        let mut rose = false;
        for (of, value) in reported.iter() {
            rose |= self.raise(p, of, value);
        }
        rose
    }

    /// Merges another matrix clock (e.g. piggybacked whole) row by row.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn merge(&mut self, other: &MatrixClock) {
        assert_eq!(self.width(), other.width(), "matrix clock width mismatch");
        let n = self.width();
        for (k, &value) in other.entries.iter().enumerate() {
            self.raise(
                ProcessId::new((k / n) as u32),
                ProcessId::new((k % n) as u32),
                value,
            );
        }
    }

    /// For each sender `j`, the column minimum `min_i rows[i][j]`: the
    /// number of `j`'s messages known to be delivered at *every* process.
    ///
    /// Messages of `j` with sequence number `<= stable_prefix()[j]` are
    /// stable and may be garbage collected from retransmission and delivery
    /// buffers.
    pub fn stable_prefix(&self) -> &VectorClock {
        &self.min
    }

    /// Returns `true` if message `seq` from `sender` is known to be
    /// delivered at every process.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is outside the group.
    pub fn is_stable(&self, sender: ProcessId, seq: u64) -> bool {
        self.min.get(sender) >= seq
    }
}

impl fmt::Display for MatrixClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for i in 0..self.width() {
            if i > 0 {
                write!(f, " ")?;
            }
            let row = self.row(ProcessId::new(i as u32));
            write!(f, "[")?;
            for (j, e) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{e}")?;
            }
            write!(f, "]")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn new_is_all_zero() {
        let m = MatrixClock::new(3);
        assert_eq!(m.width(), 3);
        assert_eq!(m.stable_prefix().as_ref(), &[0, 0, 0]);
    }

    #[test]
    fn update_row_merges() {
        let mut m = MatrixClock::new(2);
        m.update_row(p(0), &VectorClock::from_entries([2, 1]));
        m.update_row(p(0), &VectorClock::from_entries([1, 3]));
        assert_eq!(m.row(p(0)), &[2, 3]);
    }

    #[test]
    fn stable_prefix_is_column_min() {
        let mut m = MatrixClock::new(3);
        m.update_row(p(0), &VectorClock::from_entries([5, 2, 1]));
        m.update_row(p(1), &VectorClock::from_entries([4, 3, 0]));
        m.update_row(p(2), &VectorClock::from_entries([6, 2, 2]));
        assert_eq!(m.stable_prefix().as_ref(), &[4, 2, 0]);
    }

    #[test]
    fn raise_reports_only_minimum_rises() {
        let mut m = MatrixClock::new(2);
        // p0 alone raising column 0 leaves p1's row at the minimum.
        assert!(!m.raise(p(0), p(0), 3));
        // Lower or equal values change nothing.
        assert!(!m.raise(p(0), p(0), 2));
        // The last minimal row rises: the minimum follows the lower row.
        assert!(m.raise(p(1), p(0), 5));
        assert_eq!(m.stable_prefix().as_ref(), &[3, 0]);
        // p0 is now the only row at the minimum.
        assert!(m.raise(p(0), p(0), 7));
        assert_eq!(m.stable_prefix().as_ref(), &[5, 0]);
    }

    #[test]
    fn is_stable_matches_prefix() {
        let mut m = MatrixClock::new(2);
        m.update_row(p(0), &VectorClock::from_entries([3, 0]));
        m.update_row(p(1), &VectorClock::from_entries([2, 0]));
        assert!(m.is_stable(p(0), 2));
        assert!(!m.is_stable(p(0), 3));
        assert!(!m.is_stable(p(1), 1));
    }

    #[test]
    fn merge_matrices() {
        let mut a = MatrixClock::new(2);
        a.update_row(p(0), &VectorClock::from_entries([1, 0]));
        let mut b = MatrixClock::new(2);
        b.update_row(p(1), &VectorClock::from_entries([1, 1]));
        a.merge(&b);
        assert_eq!(a.row(p(0)), &[1, 0]);
        assert_eq!(a.row(p(1)), &[1, 1]);
        assert_eq!(a.stable_prefix().as_ref(), &[1, 0]);
    }

    #[test]
    fn display_lists_rows() {
        let mut m = MatrixClock::new(2);
        assert_eq!(m.to_string(), "{[0,0] [0,0]}");
        m.update_row(p(1), &VectorClock::from_entries([2, 1]));
        assert_eq!(m.to_string(), "{[0,0] [2,1]}");
    }

    #[test]
    fn zero_raises_leave_the_clock_new() {
        let mut m = MatrixClock::new(2);
        assert!(!m.update_row(p(0), &VectorClock::new(2)));
        assert_eq!(m, MatrixClock::new(2));
        assert_eq!(m.row(p(1)), &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "outside the group")]
    fn row_outside_the_group_panics() {
        let _ = MatrixClock::new(2).row(p(2));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn merge_width_mismatch_panics() {
        let mut a = MatrixClock::new(2);
        let b = MatrixClock::new(3);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn update_row_width_mismatch_panics() {
        let mut m = MatrixClock::new(2);
        m.update_row(p(0), &VectorClock::new(3));
    }
}
