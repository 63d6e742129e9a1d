//! Per-origin sequence windows: per-message state keyed by [`MsgId`]
//! without hashing.
//!
//! Message ids are dense per origin (`p#1, p#2, …`), and the state a
//! protocol keeps about them is retired one per-origin prefix at a time:
//! a delivery watermark rises past the next id, or causal stability
//! compacts everything at or below a vector clock. [`IdWindow`] stores
//! state in that shape: per origin, a **floor** at or below which every
//! id counts as retired, and a deque of slots covering the live span
//! above it. Lookups index the deque by `seq − base`; raising a floor
//! pops only the slots it passes.
//!
//! The same shape is an in-order gate for sequenced streams
//! ([`IdWindow::offer`], [`IdWindow::pop_next`]): the floor is the
//! stream's in-order point, ids at or below it are duplicates, ids
//! further ahead park, and the next id releases along with the parked
//! ids that follow it.

use crate::{MsgId, ProcessId, VectorClock};
use std::collections::{BTreeMap, VecDeque};
use std::ops::RangeBounds;

/// Origins with a smaller index keep their lane in a vector indexed by
/// origin; larger indices (beyond any group this workspace runs, or from
/// a corrupt frame) keep it in an ordered map.
const DENSE_ORIGINS: usize = 1024;

/// How far, in sequence numbers, an id may land outside its lane's span
/// and still extend the lane's deque. Ids further out go to the overflow
/// map, so a stray id allocates at most this many empty slots.
const REACH: u64 = 64;

/// What [`IdWindow::offer`] did with an offered id and its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Offer<T> {
    /// The id is at or below its origin's floor, or already holds a
    /// value. Nothing changed: a value the id holds stays, and the
    /// offered one is dropped.
    Duplicate,
    /// The id lies beyond the one just above the floor: its value is
    /// parked under it.
    Parked,
    /// The id was the one just above the floor: the floor rose over it,
    /// and its value comes back to the caller.
    Next(T),
}

/// A map from [`MsgId`] to `T` laid out as one window per origin.
///
/// Each origin has a floor: ids with `seq <= floor` are **retired**. They
/// hold no value, [`insert`](Self::insert) refuses them, and
/// [`is_retired`](Self::is_retired) reports them. Floors start at 0 and
/// only rise, one id at a time ([`advance`](Self::advance)) or up to a
/// stable prefix ([`compact`](Self::compact)). Sequence numbers start at
/// 1, so `seq` 0 is always retired.
///
/// Live entries sit in a deque per origin that spans from its lowest to
/// its highest live slot, so memory follows the live span, not the
/// highest sequence number: a window whose floor never rises stays small
/// as long as what it holds stays close together. An id that lands more
/// than a few dozen sequence numbers outside its lane's span, as from a
/// corrupt or hostile frame, goes to a sparse overflow map instead of
/// growing the deque. Lanes are created on first use.
///
/// # Examples
///
/// ```
/// use causal_clocks::{IdWindow, MsgId, ProcessId, VectorClock};
///
/// let p0 = ProcessId::new(0);
/// let mut w = IdWindow::new();
/// w.insert(MsgId::new(p0, 1), "a");
/// w.insert(MsgId::new(p0, 2), "b");
/// assert_eq!(w.get(MsgId::new(p0, 2)), Some(&"b"));
///
/// // p0's first message is stable: its entry is dropped, and the id
/// // stays retired.
/// w.compact(&VectorClock::from_entries([1]));
/// assert!(w.is_retired(MsgId::new(p0, 1)));
/// assert_eq!(w.insert(MsgId::new(p0, 1), "late"), Some("late"));
/// assert_eq!(w.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IdWindow<T> {
    /// Lanes of origins below [`DENSE_ORIGINS`], indexed by origin.
    lanes: Vec<Lane<T>>,
    /// Lanes of origins at or above [`DENSE_ORIGINS`].
    far_lanes: BTreeMap<ProcessId, Lane<T>>,
    /// Entries above their floor but outside their lane's span. A
    /// `BTreeMap` keeps its root node once emptied, so a lookup there
    /// costs a search even with no entry: the overflow walks and the
    /// in-order gate check `is_empty` first.
    overflow: BTreeMap<MsgId, T>,
    /// Live entries, deque slots plus overflow.
    len: usize,
}

/// One origin's floor and live span.
#[derive(Debug, Clone)]
struct Lane<T> {
    /// Every seq at or below it is retired.
    floor: u64,
    /// Seq of `slots[0]`, above `floor`. While `slots` is empty, where
    /// the lane's last span was, which the next span must reach.
    base: u64,
    /// Slots for `base..base + slots.len()`. The first and last are
    /// occupied, and the span never covers `u64::MAX`.
    slots: VecDeque<Option<T>>,
}

impl<T> Lane<T> {
    fn new() -> Self {
        Lane {
            floor: 0,
            base: 1,
            slots: VecDeque::new(),
        }
    }

    /// One past the seq of the last slot.
    fn end(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    /// Index of `seq`'s slot, if the span covers it.
    fn index(&self, seq: u64) -> Option<usize> {
        let offset = seq.checked_sub(self.base)?;
        (offset < self.slots.len() as u64).then_some(offset as usize)
    }

    /// True if the span may grow to cover `seq`, which lies above the
    /// floor and outside the span.
    fn reaches(&self, seq: u64) -> bool {
        if seq == u64::MAX {
            false
        } else if self.slots.is_empty() {
            seq.abs_diff(self.base) <= REACH
        } else if seq < self.base {
            self.base - seq <= REACH
        } else {
            seq - self.end() < REACH
        }
    }

    /// Grows the span to cover `seq`, with empty slots in between.
    fn extend_to(&mut self, seq: u64) {
        if self.slots.is_empty() {
            self.base = seq;
            self.slots.push_back(None);
        } else if seq < self.base {
            for _ in seq..self.base {
                self.slots.push_front(None);
            }
            self.base = seq;
        } else {
            while self.end() <= seq {
                self.slots.push_back(None);
            }
        }
    }

    /// Drops empty slots at both ends of the span.
    fn trim(&mut self) {
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Raises the floor to `floor` (no-op if not higher) and drops the
    /// slots it passes. Returns how many of them were occupied.
    fn raise(&mut self, floor: u64) -> usize {
        if floor <= self.floor {
            return 0;
        }
        self.floor = floor;
        let mut dropped = 0;
        while self.base <= floor {
            let Some(slot) = self.slots.pop_front() else {
                break;
            };
            dropped += usize::from(slot.is_some());
            self.base += 1;
        }
        self.base = self.base.max(floor.saturating_add(1));
        self.trim();
        dropped
    }
}

/// The lane of `origin`, if it has one.
fn lane_mut<'a, T>(
    lanes: &'a mut [Lane<T>],
    far_lanes: &'a mut BTreeMap<ProcessId, Lane<T>>,
    origin: ProcessId,
) -> Option<&'a mut Lane<T>> {
    let o = origin.as_usize();
    if o < DENSE_ORIGINS {
        lanes.get_mut(o)
    } else {
        far_lanes.get_mut(&origin)
    }
}

/// The lane of `origin`, created on first use.
fn lane_entry<'a, T>(
    lanes: &'a mut Vec<Lane<T>>,
    far_lanes: &'a mut BTreeMap<ProcessId, Lane<T>>,
    origin: ProcessId,
) -> &'a mut Lane<T> {
    let o = origin.as_usize();
    if o < DENSE_ORIGINS {
        if o >= lanes.len() {
            lanes.resize_with(o + 1, Lane::new);
        }
        &mut lanes[o]
    } else {
        far_lanes.entry(origin).or_insert_with(Lane::new)
    }
}

/// The lane of `id`'s origin, created on first use, and the index of
/// `id`'s slot in it, growing the span to cover `id` when it is close
/// enough. `None` if `id` is retired; no index if it belongs in the
/// overflow.
fn place<'a, T>(
    lanes: &'a mut Vec<Lane<T>>,
    far_lanes: &'a mut BTreeMap<ProcessId, Lane<T>>,
    overflow: &mut BTreeMap<MsgId, T>,
    id: MsgId,
) -> Option<(&'a mut Lane<T>, Option<usize>)> {
    let (origin, seq) = (id.origin(), id.seq());
    let lane = lane_entry(lanes, far_lanes, origin);
    if seq <= lane.floor {
        return None;
    }
    if let Some(i) = lane.index(seq) {
        return Some((lane, Some(i)));
    }
    if !lane.reaches(seq) {
        return Some((lane, None));
    }
    lane.extend_to(seq);
    absorb(lane, origin, overflow);
    let i = lane.index(seq).expect("the span was extended to the id");
    Some((lane, Some(i)))
}

/// Removes the lowest overflow entry inside `range`.
fn pop_overflow<T>(
    overflow: &mut BTreeMap<MsgId, T>,
    range: impl RangeBounds<MsgId>,
) -> Option<(MsgId, T)> {
    let id = *overflow.range(range).next()?.0;
    overflow.remove_entry(&id)
}

/// Moves `origin`'s overflow entries that `lane`'s span now covers into
/// their slots.
fn absorb<T>(lane: &mut Lane<T>, origin: ProcessId, overflow: &mut BTreeMap<MsgId, T>) {
    if overflow.is_empty() {
        return;
    }
    let span = MsgId::new(origin, lane.base)..MsgId::new(origin, lane.end());
    while let Some((id, value)) = pop_overflow(overflow, span.clone()) {
        let i = lane.index(id.seq()).expect("the span covers the id");
        lane.slots[i] = Some(value);
    }
}

/// Drops `origin`'s overflow entries at or below `floor`; returns how
/// many there were.
fn retire_overflow<T>(overflow: &mut BTreeMap<MsgId, T>, origin: ProcessId, floor: u64) -> usize {
    if overflow.is_empty() {
        return 0;
    }
    let retired = MsgId::new(origin, 0)..=MsgId::new(origin, floor);
    let mut dropped = 0;
    while pop_overflow(overflow, retired.clone()).is_some() {
        dropped += 1;
    }
    dropped
}

impl<T> IdWindow<T> {
    /// Creates an empty window: every floor at 0, no lanes.
    pub fn new() -> Self {
        IdWindow {
            lanes: Vec::new(),
            far_lanes: BTreeMap::new(),
            overflow: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn lane(&self, origin: ProcessId) -> Option<&Lane<T>> {
        let o = origin.as_usize();
        if o < DENSE_ORIGINS {
            self.lanes.get(o)
        } else {
            self.far_lanes.get(&origin)
        }
    }

    /// The floor of `origin`: its ids with `seq <= floor` are retired.
    pub fn floor(&self, origin: ProcessId) -> u64 {
        self.lane(origin).map_or(0, |lane| lane.floor)
    }

    /// `true` if `id` is at or below its origin's floor.
    pub fn is_retired(&self, id: MsgId) -> bool {
        id.seq() <= self.floor(id.origin())
    }

    /// `true` if `id` holds a value.
    pub fn contains(&self, id: MsgId) -> bool {
        self.get(id).is_some()
    }

    /// The value under `id`.
    pub fn get(&self, id: MsgId) -> Option<&T> {
        let lane = self.lane(id.origin())?;
        match lane.index(id.seq()) {
            Some(i) => lane.slots[i].as_ref(),
            // Retired ids are never in the overflow.
            None => self.overflow.get(&id),
        }
    }

    /// Mutable access to the value under `id`.
    pub fn get_mut(&mut self, id: MsgId) -> Option<&mut T> {
        let lane = lane_mut(&mut self.lanes, &mut self.far_lanes, id.origin())?;
        match lane.index(id.seq()) {
            Some(i) => lane.slots[i].as_mut(),
            None => self.overflow.get_mut(&id),
        }
    }

    /// Stores `value` under `id`. Returns `None` if `id` held no value;
    /// otherwise `Some` of the value not kept: the previous one, or
    /// `value` itself if `id` is retired, which stores nothing.
    pub fn insert(&mut self, id: MsgId, value: T) -> Option<T> {
        let old = match place(&mut self.lanes, &mut self.far_lanes, &mut self.overflow, id) {
            None => return Some(value),
            Some((lane, Some(i))) => lane.slots[i].replace(value),
            Some((_, None)) => self.overflow.insert(id, value),
        };
        self.len += usize::from(old.is_none());
        old
    }

    /// The value under `id`, inserting `default()` first if there is
    /// none. `None` if `id` is retired.
    pub fn get_or_insert_with(&mut self, id: MsgId, default: impl FnOnce() -> T) -> Option<&mut T> {
        let len = &mut self.len;
        match place(&mut self.lanes, &mut self.far_lanes, &mut self.overflow, id) {
            None => None,
            Some((lane, Some(i))) => {
                let slot = &mut lane.slots[i];
                *len += usize::from(slot.is_none());
                Some(slot.get_or_insert_with(default))
            }
            Some((_, None)) => Some(self.overflow.entry(id).or_insert_with(|| {
                *len += 1;
                default()
            })),
        }
    }

    /// Removes and returns the value under `id`.
    pub fn remove(&mut self, id: MsgId) -> Option<T> {
        let lane = lane_mut(&mut self.lanes, &mut self.far_lanes, id.origin())?;
        let value = match lane.index(id.seq()) {
            Some(i) => {
                let value = lane.slots[i].take()?;
                lane.trim();
                value
            }
            None => self.overflow.remove(&id)?,
        };
        self.len -= 1;
        Some(value)
    }

    /// Raises `origin`'s floor by one, retiring the next id and dropping
    /// its value, if any. Returns the new floor.
    pub fn advance(&mut self, origin: ProcessId) -> u64 {
        let lane = lane_entry(&mut self.lanes, &mut self.far_lanes, origin);
        let floor = lane.floor.saturating_add(1);
        self.len -= lane.raise(floor);
        self.len -= retire_overflow(&mut self.overflow, origin, floor);
        floor
    }

    /// Gates one id of a sequenced stream (see [`Offer`]). After
    /// [`Next`](Offer::Next), [`pop_next`](Self::pop_next) releases the
    /// parked ids that follow.
    ///
    /// A duplicate or the id just above the floor costs one lane lookup,
    /// plus a search of the overflow map when the id lies outside the
    /// lane's span and the map is not empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use causal_clocks::{IdWindow, MsgId, Offer, ProcessId};
    ///
    /// let p0 = ProcessId::new(0);
    /// let mut w = IdWindow::new();
    /// assert_eq!(w.offer(MsgId::new(p0, 2), "b"), Offer::Parked);
    /// assert_eq!(w.offer(MsgId::new(p0, 2), "b'"), Offer::Duplicate);
    /// assert_eq!(w.offer(MsgId::new(p0, 1), "a"), Offer::Next("a"));
    /// assert_eq!(w.pop_next(p0), Some("b"));
    /// assert_eq!(w.pop_next(p0), None);
    /// assert_eq!(w.floor(p0), 2);
    /// ```
    pub fn offer(&mut self, id: MsgId, value: T) -> Offer<T> {
        let seq = id.seq();
        let lane = lane_entry(&mut self.lanes, &mut self.far_lanes, id.origin());
        let held = match lane.index(seq) {
            Some(i) => lane.slots[i].is_some(),
            None => !self.overflow.is_empty() && self.overflow.contains_key(&id),
        };
        if seq <= lane.floor || held {
            Offer::Duplicate
        } else if seq == lane.floor + 1 {
            // Nothing at or below `seq` holds a value, so raising the
            // floor over it retires no slot and no overflow entry.
            lane.raise(seq);
            Offer::Next(value)
        } else {
            self.insert(id, value);
            Offer::Parked
        }
    }

    /// Raises `origin`'s floor over the id just above it, if that id is
    /// parked, and returns its value. Costs one lane lookup, plus a
    /// search of the overflow map when the span does not cover that id
    /// and the map is not empty.
    pub fn pop_next(&mut self, origin: ProcessId) -> Option<T> {
        let lane = lane_mut(&mut self.lanes, &mut self.far_lanes, origin)?;
        let next = lane.floor.checked_add(1)?;
        let value = match lane.index(next) {
            Some(i) => lane.slots[i].take()?,
            None if self.overflow.is_empty() => return None,
            None => self.overflow.remove(&MsgId::new(origin, next))?,
        };
        // The id was the lowest one held: nothing else is retired.
        lane.raise(next);
        self.len -= 1;
        Some(value)
    }

    /// Raises every origin's floor to at least its entry in `stable` and
    /// drops the values that became retired. Costs one step per origin in
    /// `stable` plus one per dropped slot: the entries above the floors
    /// are not visited. Origins outside `stable`'s width keep their
    /// floors.
    pub fn compact(&mut self, stable: &VectorClock) {
        for (origin, floor) in stable.iter() {
            if floor <= self.floor(origin) {
                continue;
            }
            let lane = lane_entry(&mut self.lanes, &mut self.far_lanes, origin);
            self.len -= lane.raise(floor);
            self.len -= retire_overflow(&mut self.overflow, origin, floor);
        }
    }

    /// Every origin with a lane and its floor, in origin order.
    pub fn floors(&self) -> impl Iterator<Item = (ProcessId, u64)> + '_ {
        self.lanes_in_order()
            .map(|(origin, lane)| (origin, lane.floor))
    }

    fn lanes_in_order(&self) -> impl Iterator<Item = (ProcessId, &Lane<T>)> + '_ {
        ProcessId::all(self.lanes.len())
            .zip(&self.lanes)
            .chain(self.far_lanes.iter().map(|(&origin, lane)| (origin, lane)))
    }

    /// Live entries in `(origin, seq)` order.
    pub fn iter(&self) -> impl Iterator<Item = (MsgId, &T)> + '_ {
        self.lanes_in_order().flat_map(move |(origin, lane)| {
            let below = self
                .overflow
                .range(MsgId::new(origin, 0)..MsgId::new(origin, lane.base));
            let span = lane
                .slots
                .iter()
                .zip(lane.base..)
                .filter_map(move |(slot, seq)| slot.as_ref().map(|v| (MsgId::new(origin, seq), v)));
            let above = self
                .overflow
                .range(MsgId::new(origin, lane.end())..=MsgId::new(origin, u64::MAX));
            below
                .map(|(&id, v)| (id, v))
                .chain(span)
                .chain(above.map(|(&id, v)| (id, v)))
        })
    }

    /// Slots the window has allocated, empty or not, plus its overflow
    /// entries: the memory its entries cost, for tests that bound it.
    pub fn slot_capacity(&self) -> usize {
        self.lanes_in_order()
            .map(|(_, lane)| lane.slots.capacity())
            .sum::<usize>()
            + self.overflow.len()
    }
}

impl<T> Default for IdWindow<T> {
    fn default() -> Self {
        IdWindow::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(p: u32, s: u64) -> MsgId {
        MsgId::new(ProcessId::new(p), s)
    }

    #[test]
    fn insert_get_remove_within_a_lane() {
        let mut w = IdWindow::new();
        assert_eq!(w.insert(id(0, 3), 'c'), None);
        assert_eq!(w.insert(id(0, 1), 'a'), None);
        assert_eq!(w.insert(id(0, 1), 'A'), Some('a'));
        assert_eq!(w.get(id(0, 1)), Some(&'A'));
        assert_eq!(w.get(id(0, 2)), None);
        assert_eq!(w.len(), 2);
        assert_eq!(w.remove(id(0, 1)), Some('A'));
        assert_eq!(w.remove(id(0, 1)), None);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![(id(0, 3), &'c')]);
    }

    #[test]
    fn advance_retires_one_id_at_a_time() {
        let mut w = IdWindow::new();
        w.insert(id(2, 1), ());
        w.insert(id(2, 2), ());
        w.advance(ProcessId::new(2));
        assert_eq!(w.floor(ProcessId::new(2)), 1);
        assert!(w.is_retired(id(2, 1)));
        assert!(!w.contains(id(2, 1)));
        assert!(w.contains(id(2, 2)));
        assert_eq!(w.len(), 1);
        assert_eq!(w.insert(id(2, 1), ()), Some(()));
    }

    #[test]
    fn compact_ignores_origins_outside_its_width() {
        let mut w = IdWindow::new();
        w.insert(id(0, 1), 0);
        w.insert(id(5, 1), 5);
        w.compact(&VectorClock::from_entries([1]));
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![(id(5, 1), &5)]);
        assert_eq!(w.floors().collect::<Vec<_>>()[0], (ProcessId::new(0), 1));
    }

    #[test]
    fn compact_under_a_parked_id_leaves_it_for_pop_next() {
        let p0 = ProcessId::new(0);
        let mut w = IdWindow::new();
        assert_eq!(w.offer(id(0, 4), 'd'), Offer::Parked);
        w.compact(&VectorClock::from_entries([3]));
        // The next id already holds a value: offering it again is a
        // duplicate that keeps the parked value, and pop_next takes it.
        assert_eq!(w.offer(id(0, 4), 'D'), Offer::Duplicate);
        assert_eq!(w.pop_next(p0), Some('d'));
        assert_eq!(w.floor(p0), 4);
        assert_eq!(w.offer(id(0, 5), 'e'), Offer::Next('e'));
        assert!(w.is_empty());
    }

    #[test]
    fn a_lane_that_parks_nothing_still_answers_from_the_overflow() {
        let p0 = ProcessId::new(0);
        let mut w = IdWindow::new();
        // p0's emptied span sits at 100, out of reach of id 1, which parks
        // in the overflow just above the floor of 0.
        for s in [50, 100] {
            w.insert(id(0, s), 'x');
        }
        for s in [50, 100] {
            w.remove(id(0, s));
        }
        w.insert(id(0, 1), 'a');
        assert!(w.lanes[0].slots.is_empty());
        assert!(w.overflow.contains_key(&id(0, 1)));
        assert_eq!(w.offer(id(0, 1), 'A'), Offer::Duplicate);
        assert_eq!(w.get(id(0, 1)), Some(&'a'));
        assert_eq!(w.pop_next(p0), Some('a'));
        assert_eq!(w.floor(p0), 1);
        assert!(w.is_empty());
        // Another origin's overflow entry does not hold p0's next id.
        w.insert(id(1, 1000), 'z');
        assert_eq!(w.offer(id(0, 2), 'b'), Offer::Next('b'));
        assert_eq!(w.pop_next(p0), None);
        assert_eq!(w.floor(p0), 2);
    }

    #[test]
    fn far_ids_overflow_instead_of_growing_the_deque() {
        let mut w = IdWindow::new();
        w.insert(id(0, 1), 1);
        w.insert(id(0, u64::MAX - 1), 2);
        w.insert(id(0, u64::MAX), 3);
        w.insert(id(u32::MAX, u64::MAX - 1), 4);
        assert_eq!(w.len(), 4);
        assert!(w.slot_capacity() < 64, "{}", w.slot_capacity());
        let ids: Vec<MsgId> = w.iter().map(|(id, _)| id).collect();
        assert_eq!(
            ids,
            vec![
                id(0, 1),
                id(0, u64::MAX - 1),
                id(0, u64::MAX),
                id(u32::MAX, u64::MAX - 1)
            ]
        );
        w.compact(&VectorClock::from_entries([u64::MAX]));
        assert_eq!(w.len(), 1);
        assert!(w.is_retired(id(0, u64::MAX)));
    }

    #[test]
    fn growing_span_absorbs_overflow_entries_it_reaches() {
        let mut w = IdWindow::new();
        w.insert(id(0, 1), 1);
        w.insert(id(0, 200), 200); // beyond reach: overflow
        for s in 2..200 {
            w.insert(id(0, s), s);
        }
        assert_eq!(w.len(), 200);
        assert_eq!(w.get(id(0, 200)), Some(&200));
        let seqs: Vec<u64> = w.iter().map(|(id, _)| id.seq()).collect();
        assert_eq!(seqs, (1..=200).collect::<Vec<_>>());
    }
}
