//! Naming lost messages in a sequenced stream: the one loss rule that
//! PC links ([`Link`](crate::delivery::pcbcast::Link)) and reliable
//! broadcast ([`ReliableBroadcast`](crate::rbcast::ReliableBroadcast))
//! share.
//!
//! A receiver of a sequenced stream — a PC link's frames, or one origin's
//! broadcasts at a reliable-broadcast member — holds every number up to
//! its in-order point and parks later arrivals, each with the time it
//! arrived. A number missing below an arrival that has been parked for at
//! least W counts as lost: a message sent after it has outwaited it by
//! more than the network reorders. `HoleNamer` finds those holes, so
//! the receiver can name them to whoever holds a copy, and names a hole
//! that is still missing again once P/2 has passed since it last named
//! holes. Per stream this costs the arrival stamps and three words: the
//! highest number received, the naming frontier (every hole at or below
//! it has been named) and the time of the last naming.
//!
//! A check walks up from the frontier and stops at the first arrival
//! parked for less than W, since arrivals above it came later as a rule.
//! So it allocates nothing and visits a slot or two per arrival. The
//! price is a straggler: an arrival that came late stops the walk until
//! it too has been parked for W, so a hole above it may be named later
//! than the rule allows, by at most how late the straggler was, and never
//! sooner.
//!
//! W comes from the stack's retransmission period P ([`LinkClock`]):
//! W = P/8, 625 µs at the 5 ms default and 500 µs at the 4 ms membership
//! default. The first is wider than the 450 µs latency spread of
//! `pc_fanout_sim` (50–500 µs, the default P). The second is narrower
//! than the 600 µs spread of `graph_mix_sim` (200–800 µs, the membership
//! default), so there a copy that was merely reordered can be named lost
//! and resent. W needs no option of its own. Too small a W only resends
//! messages that were merely reordered, and too large a W only delays a
//! repair towards the retransmission tick; neither touches correctness.
//! A caller without a clock passes [`LinkClock::STOPPED`], under which no
//! arrival is ever parked for W and nothing is named.

use crate::stack::DEFAULT_RETRANSMIT;
use causal_simnet::{SimDuration, SimTime};

/// How many numbers above the in-order point one report can name: one
/// per bit of a `u64` bitmap.
pub(crate) const REPORT_SPAN: u64 = 64;

/// The numbers a hole bitmap over the numbers above `point` names, in
/// ascending order: bit `i` names `point + 1 + i`, as
/// [`HoleNamer::holes_due`] encodes it.
pub(crate) fn named(point: u64, holes: u64) -> impl Iterator<Item = u64> {
    let mut bits = holes;
    std::iter::from_fn(move || {
        let i = u64::from(bits.trailing_zeros());
        bits &= bits.wrapping_sub(1);
        (i < REPORT_SPAN).then(|| point.saturating_add(1 + i))
    })
}

/// What a receiver reads of its stack's clock: the time of the arrival or
/// tick being handled, and the stack's retransmission period P.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkClock {
    /// The time now.
    pub now: SimTime,
    /// The stack's retransmission period P. A hole counts as lost once
    /// a message above it has been parked for P/8, and a hole still
    /// missing is named again after P/2.
    pub period: SimDuration,
}

impl LinkClock {
    /// A clock stopped at time zero, at the default period: every arrival
    /// is stamped with the time it is checked at, so none is ever parked
    /// for W and no hole is named. Callers without a clock (replays,
    /// engine-level harnesses) use it.
    pub const STOPPED: LinkClock = LinkClock {
        now: SimTime::ZERO,
        period: DEFAULT_RETRANSMIT,
    };

    /// Whether at least `period / div` has passed since `since`.
    fn waited(self, since: SimTime, div: u64) -> bool {
        self.now.saturating_since(since).as_micros() >= self.period.as_micros() / div
    }
}

/// The naming state of one sequenced stream (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HoleNamer {
    /// The highest number received so far.
    top: u64,
    /// The naming frontier: every hole at or below it has been named.
    named_to: u64,
    /// When holes were last named.
    named_at: SimTime,
}

impl HoleNamer {
    /// Notes that number `seq` arrived.
    pub(crate) fn on_arrival(&mut self, seq: u64) {
        self.top = self.top.max(seq);
    }

    /// The highest number received so far.
    pub(crate) fn top(&self) -> u64 {
        self.top
    }

    /// The holes to name at `clock`, as a bitmap over the numbers above
    /// the in-order point `point` (bit `i`: `point + 1 + i`). `parked_at`
    /// gives when a number parked above `point` arrived, and `None` for a
    /// number that is missing. A hole is named once an arrival above it
    /// has been parked for P/8, as far as the walk up from the frontier
    /// reaches, and named again, while it is still missing, once P/2 has
    /// passed since holes were last named.
    pub(crate) fn holes_due(
        &mut self,
        point: u64,
        clock: LinkClock,
        parked_at: impl Fn(u64) -> Option<SimTime>,
    ) -> u64 {
        let bit = |seq: u64| 1u64 << (seq - point - 1);
        let mut holes = 0;
        if self.named_to > point && clock.waited(self.named_at, 2) {
            for seq in point + 1..=self.named_to {
                if parked_at(seq).is_none() {
                    holes |= bit(seq);
                }
            }
        }
        let last = self.top.min(point.saturating_add(REPORT_SPAN));
        let mut missing = 0;
        for seq in self.named_to.max(point) + 1..=last {
            match parked_at(seq) {
                None => missing |= bit(seq),
                Some(arrived) if clock.waited(arrived, 8) => {
                    holes |= missing;
                    missing = 0;
                    self.named_to = seq;
                }
                Some(_) => break,
            }
        }
        if holes != 0 {
            self.named_at = clock.now;
        }
        holes
    }
}
