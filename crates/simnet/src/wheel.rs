//! Bucketed calendar queue: the simulator's event queue.
//!
//! The engine needs billions of pops for scenario-harness scale, and a
//! global `BinaryHeap` pays `O(log m)` cache-missing comparisons per
//! operation once millions of events are in flight. This queue exploits
//! what a network simulation knows about its own future: almost every
//! event lands within a latency window of *now*, with a thin tail of
//! far-future timers (reconnect backoff, failure-detection deadlines).
//!
//! Layout — three tiers, all ordered by the same `(at, seq)` key:
//!
//! 1. **Wheel**: a power-of-two ring of buckets, each covering
//!    `2^shift` microseconds of simulated time ("one day"). Pushes into
//!    a future day are an O(1) unsorted append; when the cursor reaches
//!    a day, its bucket is sorted once (`sort_unstable`, amortizing the
//!    ordering cost over the whole bucket) and drained in place.
//! 2. **Incoming**: events for the day *currently being drained* —
//!    loopback deliveries at `now`, sub-day latencies — kept sorted by
//!    binary-search insertion. Keys only grow while a day drains (every
//!    new event carries `at >= now` and a fresh max `seq`), so these
//!    inserts are overwhelmingly appends.
//! 3. **Overflow**: a min-heap for events beyond the wheel horizon.
//!    Whenever the cursor advances, newly eligible events migrate into
//!    the wheel; day granularity makes every overflow event strictly
//!    later than every wheel event, so the heap is never consulted on
//!    the hot pop path.
//!
//! Determinism is structural: every tier orders by `(at, seq)` and keys
//! are unique, so the pop sequence is exactly the global heap's pop
//! sequence — the differential tests in this file and the cross-core
//! suites in `tests/sim_differential.rs` hold the two implementations
//! bit-for-bit equal.

use crate::event::Scheduled;
use crate::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Geometry of the `CalendarQueue`: bucket granularity and ring size.
/// Geometry never affects results, only speed; the simulator always
/// runs the default, and tests sweep others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueueConfig {
    /// log2 of the simulated microseconds each bucket spans.
    pub(crate) bucket_micros_log2: u32,
    /// Number of buckets in the ring (must be a power of two ≥ 2).
    pub(crate) buckets: usize,
}

impl Default for QueueConfig {
    /// 64 µs buckets × 1024 ≈ a 65 ms horizon: generous for network
    /// latencies, while reconnect/suspicion timers ride the overflow
    /// tier.
    fn default() -> Self {
        QueueConfig {
            bucket_micros_log2: 6,
            buckets: 1024,
        }
    }
}

/// The three-tier bucketed event queue. See the module docs for layout.
#[derive(Debug)]
pub(crate) struct CalendarQueue {
    buckets: Vec<Vec<Scheduled>>,
    /// Drained days' storage, empty, for the next buckets that start
    /// filling: a steady stream of events reuses the same allocations
    /// instead of growing each bucket from nothing. A day's storage comes
    /// back here when the next day replaces it as `current`, so there are
    /// never more spares than days that were once pending together.
    spares: Vec<Vec<Scheduled>>,
    mask: u64,
    shift: u32,
    /// Absolute day (`at >> shift`) currently being drained.
    cursor_day: u64,
    /// Sorted remainder of the cursor day's bucket.
    current: Vec<Scheduled>,
    cur_head: usize,
    /// Sorted events for days at or before the cursor day, pushed after
    /// the cursor reached (or passed) them. Peeking may advance the
    /// cursor beyond days that later receive events (`run_until` peeks at
    /// a deadline, then the driver pokes new sends at an earlier `now`);
    /// such events still order after everything already popped, so a
    /// sorted side-vector merged against `current` on pop handles them.
    incoming: Vec<Scheduled>,
    inc_head: usize,
    /// Events resident in wheel buckets (excluding current/incoming).
    wheel_len: usize,
    overflow: BinaryHeap<Reverse<Scheduled>>,
    /// Key of the most recently popped event — pushes must order after it
    /// (the simulator never schedules into the consumed past).
    last_popped: Option<(SimTime, u64)>,
}

impl CalendarQueue {
    pub(crate) fn new(config: QueueConfig) -> Self {
        assert!(
            config.buckets.is_power_of_two() && config.buckets >= 2,
            "bucket count must be a power of two >= 2"
        );
        assert!(config.bucket_micros_log2 < 32, "bucket span too large");
        CalendarQueue {
            buckets: (0..config.buckets).map(|_| Vec::new()).collect(),
            spares: Vec::new(),
            mask: (config.buckets - 1) as u64,
            shift: config.bucket_micros_log2,
            cursor_day: 0,
            current: Vec::new(),
            cur_head: 0,
            incoming: Vec::new(),
            inc_head: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            last_popped: None,
        }
    }

    /// Events pending: in the ring buckets, the overflow heap, and what is
    /// left of the cursor day (`current` and `incoming`).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.wheel_len
            + self.overflow.len()
            + (self.current.len() - self.cur_head)
            + (self.incoming.len() - self.inc_head)
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events currently parked beyond the wheel horizon.
    #[cfg(test)]
    pub(crate) fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Event slots allocated across the ring buckets, the `current` day
    /// and the spares (what the wheel retains between days).
    #[cfg(test)]
    pub(crate) fn wheel_capacity(&self) -> usize {
        self.buckets
            .iter()
            .chain(&self.spares)
            .map(Vec::capacity)
            .sum::<usize>()
            + self.current.capacity()
    }

    fn day_of(&self, at: SimTime) -> u64 {
        at.as_micros() >> self.shift
    }

    /// Horizon: first day that does *not* fit in the wheel.
    fn horizon(&self) -> u64 {
        self.cursor_day + self.buckets.len() as u64
    }

    pub(crate) fn push(&mut self, ev: Scheduled) {
        debug_assert!(
            self.last_popped.is_none_or(|k| ev.key() > k),
            "event scheduled into the consumed past"
        );
        if self.day_of(ev.at) >= self.horizon() {
            self.overflow.push(Reverse(ev));
        } else {
            self.route_in_horizon(ev);
        }
    }

    /// Places an event whose day is below the horizon.
    fn route_in_horizon(&mut self, ev: Scheduled) {
        let day = self.day_of(ev.at);
        if day <= self.cursor_day {
            // Sorted insert into the live region; keys grow while a day
            // drains, so this is an append in the common case.
            let tail = &self.incoming[self.inc_head..];
            let pos = self.inc_head + tail.partition_point(|e| e.key() < ev.key());
            self.incoming.insert(pos, ev);
        } else {
            let bucket = &mut self.buckets[(day & self.mask) as usize];
            if bucket.capacity() == 0 {
                // A bucket has no storage only until its day's first event.
                if let Some(spare) = self.spares.pop() {
                    *bucket = spare;
                }
            }
            bucket.push(ev);
            self.wheel_len += 1;
        }
    }

    /// Pulls every newly eligible overflow event into the wheel. Called
    /// after `cursor_day` advances.
    fn migrate_overflow(&mut self) {
        while let Some(Reverse(ev)) = self.overflow.peek() {
            if self.day_of(ev.at) >= self.horizon() {
                break;
            }
            let Reverse(ev) = self.overflow.pop().expect("peeked");
            self.route_in_horizon(ev);
        }
    }

    /// Ensures the cursor day has pending events, advancing (and sorting
    /// the next active bucket) as needed. Returns `false` when empty.
    fn advance(&mut self) -> bool {
        loop {
            if self.cur_head < self.current.len() || self.inc_head < self.incoming.len() {
                return true;
            }
            // Day exhausted: reset the scratch vectors. `incoming` keeps
            // its capacity; `current` keeps it until the next bucket
            // replaces it, and then becomes a spare.
            self.current.clear();
            self.cur_head = 0;
            self.incoming.clear();
            self.inc_head = 0;
            if self.wheel_len == 0 {
                let Some(Reverse(head)) = self.overflow.peek() else {
                    return false;
                };
                // Jump straight to the overflow's first day; migration
                // routes that day's events into `incoming`.
                self.cursor_day = self.day_of(head.at);
                self.migrate_overflow();
            } else {
                // Some bucket within the horizon is non-empty; walk to it.
                loop {
                    self.cursor_day += 1;
                    self.migrate_overflow();
                    let slot = (self.cursor_day & self.mask) as usize;
                    if !self.buckets[slot].is_empty() {
                        // Take, not swap: a swap would park the drained
                        // day's capacity in this bucket until the ring
                        // comes round, so every visited bucket would keep
                        // the busiest day's allocation. The drained day
                        // becomes a spare for the next bucket to fill.
                        let day = std::mem::take(&mut self.buckets[slot]);
                        let drained = std::mem::replace(&mut self.current, day);
                        if drained.capacity() > 0 {
                            self.spares.push(drained);
                        }
                        self.current.sort_unstable();
                        self.wheel_len -= self.current.len();
                        break;
                    }
                }
            }
        }
    }

    /// The `(at, seq)` key of the next event, or `None` when empty.
    pub(crate) fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if !self.advance() {
            return None;
        }
        let cur = self.current.get(self.cur_head).map(Scheduled::key);
        let inc = self.incoming.get(self.inc_head).map(Scheduled::key);
        match (cur, inc) {
            (Some(c), Some(i)) => Some(c.min(i)),
            (c, i) => c.or(i),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Scheduled> {
        if !self.advance() {
            return None;
        }
        let cur = self.current.get(self.cur_head);
        let inc = self.incoming.get(self.inc_head);
        let take_incoming = match (cur, inc) {
            (Some(c), Some(i)) => i.key() < c.key(),
            (None, Some(_)) => true,
            _ => false,
        };
        let ev = if take_incoming {
            let ev = self.incoming[self.inc_head];
            self.inc_head += 1;
            ev
        } else {
            let ev = self.current[self.cur_head];
            self.cur_head += 1;
            ev
        };
        self.last_popped = Some(ev.key());
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use causal_clocks::ProcessId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ev(at: u64, seq: u64) -> Scheduled {
        Scheduled {
            at: SimTime::from_micros(at),
            seq,
            kind: EventKind::Timer {
                node: ProcessId::new(0),
                tag: seq,
            },
        }
    }

    fn small() -> CalendarQueue {
        CalendarQueue::new(QueueConfig {
            bucket_micros_log2: 4, // 16 µs days
            buckets: 8,            // horizon: 128 µs
        })
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = small();
        for (at, seq) in [(50u64, 0u64), (3, 1), (50, 2), (700, 3), (3, 4), (0, 5)] {
            q.push(ev(at, seq));
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.at.as_micros(), e.seq))
            .collect();
        assert_eq!(
            order,
            vec![(0, 5), (3, 1), (3, 4), (50, 0), (50, 2), (700, 3)]
        );
    }

    #[test]
    fn current_day_inserts_interleave_correctly() {
        let mut q = small();
        q.push(ev(1, 0));
        q.push(ev(9, 1));
        assert_eq!(q.pop().unwrap().seq, 0);
        // Mid-drain inserts into the active day: same time as a pending
        // event (larger seq ⇒ after it) and earlier than a pending event.
        q.push(ev(9, 2));
        q.push(ev(4, 3));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn overflow_tier_round_trips() {
        let mut q = small();
        q.push(ev(1_000_000, 0)); // way past the 128 µs horizon
        q.push(ev(5, 1));
        q.push(ev(2_000_000, 2));
        assert_eq!(q.overflow_len(), 2);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.pop().unwrap().seq, 2);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = small();
        for (at, seq) in [(40u64, 0u64), (7, 1), (40_000, 2)] {
            q.push(ev(at, seq));
        }
        while let Some(key) = q.peek_key() {
            let popped = q.pop().unwrap();
            assert_eq!(popped.key(), key);
        }
        assert!(q.pop().is_none());
    }

    /// The structural determinism argument, executed: random interleaved
    /// push/pop schedules against a plain `BinaryHeap` produce identical
    /// pop sequences, including monotonically advancing `now` (pushes
    /// never target the past, as in the simulator).
    #[test]
    fn differential_vs_binary_heap() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut wheel = CalendarQueue::new(QueueConfig {
                bucket_micros_log2: rng.gen_range(0u32..8),
                buckets: 1 << rng.gen_range(1u32..8),
            });
            let mut heap: BinaryHeap<Reverse<Scheduled>> = BinaryHeap::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            let mut popped = Vec::new();
            for _ in 0..400 {
                if rng.gen_bool(0.6) || heap.is_empty() {
                    // Mix of near events, same-instant events, and
                    // far-future timers that exercise the overflow tier.
                    let delay = match rng.gen_range(0u32..10) {
                        0 => 0,
                        1..=7 => rng.gen_range(0u64..500),
                        _ => rng.gen_range(10_000u64..1_000_000),
                    };
                    let e = ev(now + delay, seq);
                    seq += 1;
                    wheel.push(e);
                    heap.push(Reverse(e));
                } else {
                    let a = wheel.pop().unwrap();
                    let Reverse(b) = heap.pop().unwrap();
                    assert_eq!(a.key(), b.key(), "seed {seed}");
                    now = a.at.as_micros();
                    popped.push(a.key());
                }
                assert_eq!(wheel.len(), heap.len(), "seed {seed}");
            }
            while let Some(a) = wheel.pop() {
                let Reverse(b) = heap.pop().unwrap();
                assert_eq!(a.key(), b.key(), "seed {seed}");
            }
            assert!(heap.pop().is_none(), "seed {seed}");
        }
    }

    /// One burst per day, each drained before the next: the ring must not
    /// keep a burst's worth of capacity in every bucket the cursor passed.
    #[test]
    fn bucket_capacity_follows_events_in_flight() {
        const BURST: u64 = 1_000;
        let mut q = CalendarQueue::new(QueueConfig {
            bucket_micros_log2: 4, // 16 µs days
            buckets: 64,
        });
        let mut seq = 0;
        for day in 1..=300u64 {
            for i in 0..BURST {
                q.push(ev(day * 16 + i % 16, seq));
                seq += 1;
            }
            let live = q.len();
            assert!(
                q.wheel_capacity() <= 4 * live,
                "day {day}: {} slots retained for {live} live events",
                q.wheel_capacity()
            );
            while q.pop().is_some() {}
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = CalendarQueue::new(QueueConfig {
            bucket_micros_log2: 4,
            buckets: 12,
        });
    }
}
