//! Run metrics: the simulator's message counters, and the latency
//! histogram the protocol layers record into.

use crate::SimDuration;

/// A sample-storing histogram of durations with percentile queries.
///
/// Stores every sample (simulation scale makes this affordable) so any
/// percentile can be computed exactly.
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
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d.as_micros());
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean in microseconds; `0.0` when empty.
    pub fn mean_micros(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The exact `p`-quantile (`0.0 ..= 1.0`) using nearest-rank.
    ///
    /// Returns [`SimDuration::ZERO`] when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&mut self, p: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0,1]");
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        self.ensure_sorted();
        let rank = ((p * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        SimDuration::from_micros(self.samples[rank - 1])
    }

    /// Largest sample; zero when empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_micros(self.samples.iter().copied().max().unwrap_or(0))
    }

    /// Smallest sample; zero when empty.
    pub fn min(&self) -> SimDuration {
        SimDuration::from_micros(self.samples.iter().copied().min().unwrap_or(0))
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
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

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn empty_histogram() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean_micros(), 0.0);
        assert_eq!(h.percentile(0.99), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
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
}
