//! Run metrics: the simulator's message counters, and the latency
//! histogram the protocol layers record into.

use crate::SimDuration;

/// Sub-buckets per power of two: a bucket of the values in
/// `[2^e, 2^(e+1))` spans `2^(e - 6)` of them, 1/64 of the octave's
/// lowest value.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;

/// The bucket of value `v`: every value below 128 has a bucket of its
/// own, and each octave above that is cut into 64 equal buckets. The
/// highest value, `u64::MAX`, lands in bucket 3,775.
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (u64::from(shift) * SUB + (v >> shift)) as usize
}

/// The highest value bucket `i` holds ([`bucket_of`]'s inverse, upper
/// end).
fn highest_in(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB {
        return i;
    }
    let shift = i / SUB - 1;
    ((i % SUB + SUB) << shift) + ((1 << shift) - 1)
}

/// A fixed-memory, log-bucketed histogram of durations with percentile
/// queries.
///
/// The count, the smallest and largest sample and the sum behind the
/// mean are exact. Percentiles come from buckets: values below 128 µs
/// are exact, and above that each power of two is cut into 64 buckets,
/// so a reported percentile is at most 1/64 (relative) above the exact
/// nearest-rank sample, and never below it. Memory grows with the
/// largest sample recorded, not with the number of samples: one counter
/// per bucket up to the largest sample's power of two, 4.5 KiB for
/// samples below 16.4 ms, 30 KiB at most. A histogram allocates nothing
/// until its first sample.
///
/// # Examples
///
/// ```
/// use causal_simnet::{Histogram, SimDuration};
///
/// let mut h = Histogram::new();
/// for us in [1u64, 2, 3, 4, 100] {
///     h.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(h.len(), 5);
/// assert_eq!(h.percentile(0.5).as_micros(), 3);
/// assert_eq!(h.max().as_micros(), 100);
/// assert_eq!(h.mean_micros(), 22.0);
///
/// // Above 128 µs a percentile is rounded up within its bucket, by less
/// // than 1/64 of the value, but never past the largest sample.
/// h.record(SimDuration::from_micros(1_000));
/// h.record(SimDuration::from_micros(2_000));
/// assert_eq!(h.percentile(0.8).as_micros(), 1_007);
/// assert_eq!(h.percentile(1.0).as_micros(), 2_000);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// `None` until the first sample, so an unused histogram costs one
    /// word.
    buckets: Option<Box<Buckets>>,
}

/// The state of a [`Histogram`] that holds samples.
#[derive(Debug, Clone, PartialEq)]
struct Buckets {
    len: u64,
    sum: u128,
    min: u64,
    max: u64,
    /// Samples per bucket ([`bucket_of`]), up to the end of the largest
    /// sample's power of two.
    counts: Vec<u64>,
}

impl Buckets {
    /// Makes room for bucket `i`, to the end of its power of two, so
    /// that the counts grow at most once per power of two.
    fn reach(&mut self, i: usize) {
        if i >= self.counts.len() {
            let end = (i + 1).next_multiple_of(SUB as usize);
            self.counts.reserve_exact(end - self.counts.len());
            self.counts.resize(end, 0);
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        let v = d.as_micros();
        let b = self.buckets.get_or_insert_with(|| {
            Box::new(Buckets {
                len: 0,
                sum: 0,
                min: v,
                max: v,
                counts: Vec::new(),
            })
        });
        b.len += 1;
        b.sum += u128::from(v);
        b.min = b.min.min(v);
        b.max = b.max.max(v);
        let i = bucket_of(v);
        b.reach(i);
        b.counts[i] += 1;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.buckets.as_ref().map_or(0, |b| b.len as usize)
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_none()
    }

    /// Arithmetic mean in microseconds; `0.0` when empty.
    pub fn mean_micros(&self) -> f64 {
        self.buckets
            .as_ref()
            .map_or(0.0, |b| b.sum as f64 / b.len as f64)
    }

    /// The `p`-quantile (`0.0 ..= 1.0`) by nearest rank, as the highest
    /// value of the bucket that holds that rank, capped at the largest
    /// sample: at most 1/64 above the exact nearest-rank sample, never
    /// below it, and exact below 128 µs.
    ///
    /// Returns [`SimDuration::ZERO`] when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0,1]");
        let Some(b) = &self.buckets else {
            return SimDuration::ZERO;
        };
        let rank = ((p * b.len as f64).ceil() as u64).clamp(1, b.len);
        let mut seen = 0;
        let i = b
            .counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .expect("the counts sum to len");
        SimDuration::from_micros(highest_in(i).min(b.max))
    }

    /// Largest sample; zero when empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_micros(self.buckets.as_ref().map_or(0, |b| b.max))
    }

    /// Smallest sample; zero when empty.
    pub fn min(&self) -> SimDuration {
        SimDuration::from_micros(self.buckets.as_ref().map_or(0, |b| b.min))
    }

    /// Merges another histogram's samples into this one: the result
    /// equals one histogram that recorded both sets.
    pub fn merge(&mut self, other: &Histogram) {
        let Some(theirs) = &other.buckets else {
            return;
        };
        let Some(mine) = &mut self.buckets else {
            self.buckets = Some(theirs.clone());
            return;
        };
        mine.len += theirs.len;
        mine.sum += theirs.sum;
        mine.min = mine.min.min(theirs.min);
        mine.max = mine.max.max(theirs.max);
        if let Some(top) = theirs.counts.len().checked_sub(1) {
            mine.reach(top);
        }
        for (c, t) in mine.counts.iter_mut().zip(&theirs.counts) {
            *c += t;
        }
    }
}

/// Counters for one simulation run.
///
/// Transport-level numbers: `delivered` counts network deliveries to actor
/// callbacks, not application-level (causal) deliveries, which the protocol
/// layers track themselves. Per-message records (send and delivery times,
/// hence one-way latency) live in the [`NetTrace`](crate::NetTrace) of a
/// simulation with tracing enabled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Messages submitted to the network (including loopback).
    pub sent: u64,
    /// Messages handed to `on_message` callbacks.
    pub delivered: u64,
    /// Messages lost to fault injection or partitions.
    pub dropped: u64,
    /// Extra copies created by duplication faults.
    pub duplicated: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// High-water mark of messages simultaneously in flight (scheduled
    /// for delivery but not yet delivered). Both simulator cores track
    /// this identically — in the bucketed core it equals the message
    /// arena's peak occupancy, i.e. its storage footprint in slots.
    pub peak_in_flight: u64,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean_micros(), 0.0);
        assert_eq!(h.percentile(0.99), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
        assert_eq!(h, Histogram::default());
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(us(v));
        }
        assert_eq!(h.percentile(0.01).as_micros(), 1);
        assert_eq!(h.percentile(0.5).as_micros(), 50);
        assert_eq!(h.percentile(0.99).as_micros(), 99);
        assert_eq!(h.percentile(1.0).as_micros(), 100);
    }

    #[test]
    fn percentile_unsorted_input() {
        let mut h = Histogram::new();
        for v in [9u64, 1, 5, 3, 7] {
            h.record(us(v));
        }
        assert_eq!(h.percentile(0.5).as_micros(), 5);
        assert_eq!(h.min().as_micros(), 1);
        assert_eq!(h.max().as_micros(), 9);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn percentile_validates_range() {
        let mut h = Histogram::new();
        h.record(us(1));
        let _ = h.percentile(1.5);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Histogram::new();
        a.record(us(1));
        let mut b = Histogram::new();
        b.record(us(3));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.mean_micros(), 2.0);
    }

    #[test]
    fn record_after_percentile_stays_correct() {
        let mut h = Histogram::new();
        h.record(us(10));
        assert_eq!(h.percentile(1.0).as_micros(), 10);
        h.record(us(1));
        assert_eq!(h.percentile(0.5).as_micros(), 1);
    }

    #[test]
    fn buckets_tile_the_value_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(127), 127);
        assert_eq!(bucket_of(u64::MAX), 3_775);
        assert_eq!(highest_in(3_775), u64::MAX);
        // Each bucket starts one past where the previous one ends; below
        // 128 it holds one value, above it at most 1/64 of its lowest.
        for i in 1..=3_775 {
            let low = highest_in(i - 1) + 1;
            let high = highest_in(i);
            assert_eq!(bucket_of(low), i, "low end of {i}");
            assert_eq!(bucket_of(high), i, "high end of {i}");
            let width = high - low + 1;
            assert!(
                if i < 128 {
                    width == 1
                } else {
                    width * 64 <= low
                },
                "bucket {i}"
            );
        }
    }

    #[test]
    fn memory_follows_the_largest_sample_not_the_count() {
        let mut h = Histogram::new();
        for k in 0..100_000u64 {
            h.record(us(200 + k % 15_800));
        }
        let counts = &h.buckets.as_ref().unwrap().counts;
        // 16 ms lies in the power of two [8,192, 16,384) µs: 9 × 64
        // buckets of 8 bytes, 4.5 KiB.
        assert_eq!(counts.len(), 576);
        assert_eq!(counts.capacity(), 576);
        assert_eq!(h.len(), 100_000);
    }

    /// The exact nearest-rank `p`-quantile of `samples`.
    fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Samples spread over many powers of two: a random value below
    /// `2^bits` for a random `bits`.
    fn samples() -> impl Strategy<Value = Vec<u64>> {
        vec(
            (0u32..=40, any::<u64>()).prop_map(|(bits, r)| r.checked_shr(64 - bits).unwrap_or(0)),
            1..300,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Every percentile lies at or above the exact nearest-rank sample
        /// of the same samples and less than 1/64 of it above; count,
        /// extremes and mean are exact; and merging two histograms equals
        /// recording the union.
        #[test]
        fn bucketed_percentiles_stay_within_one_sixty_fourth(
            a in samples(),
            b in samples(),
            p in 0.0f64..=1.0,
        ) {
            let record = |values: &[u64]| {
                let mut h = Histogram::new();
                for &v in values {
                    h.record(us(v));
                }
                h
            };
            let mut union: Vec<u64> = a.iter().chain(&b).copied().collect();
            let h = record(&union);
            let mut merged = record(&a);
            merged.merge(&record(&b));
            prop_assert_eq!(&merged, &h);
            union.sort_unstable();
            prop_assert_eq!(h.len(), union.len());
            prop_assert_eq!(h.min().as_micros(), union[0]);
            prop_assert_eq!(h.max().as_micros(), *union.last().unwrap());
            let sum: u64 = union.iter().sum();
            prop_assert_eq!(h.mean_micros(), sum as f64 / union.len() as f64);
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0, p] {
                let exact = nearest_rank(&union, q);
                let got = h.percentile(q).as_micros();
                prop_assert!(got >= exact, "q={} got {} below {}", q, got, exact);
                prop_assert!((got - exact) * 64 < exact.max(1), "q={} got {} for {}", q, got, exact);
            }
        }
    }
}
