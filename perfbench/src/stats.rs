//! Summary statistics: an exact latency histogram with nearest-rank
//! percentiles, the tail-reporting rule, and medians.

/// Values are counted exactly in a dense array up to this many units;
/// larger values are kept verbatim in an overflow list.
const DENSE_CAP: usize = 1 << 18;

/// An exact histogram of non-negative integer samples (in caller-chosen
/// units). Dense counts grow on demand, so memory follows the largest
/// value seen (up to [`DENSE_CAP`]), not the sample count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hist {
    dense: Vec<u32>,
    overflow: Vec<u64>,
    len: u64,
}

impl Hist {
    pub fn new() -> Self {
        Hist::default()
    }

    pub fn record(&mut self, v: u64) {
        self.len += 1;
        match usize::try_from(v) {
            Ok(i) if i < DENSE_CAP => {
                if i >= self.dense.len() {
                    self.dense
                        .resize((i + 1).next_power_of_two().min(DENSE_CAP), 0);
                }
                self.dense[i] += 1;
            }
            _ => self.overflow.push(v),
        }
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn merge(&mut self, other: &Hist) {
        if other.dense.len() > self.dense.len() {
            self.dense.resize(other.dense.len(), 0);
        }
        for (a, b) in self.dense.iter_mut().zip(&other.dense) {
            *a += b;
        }
        self.overflow.extend_from_slice(&other.overflow);
        self.len += other.len;
    }

    /// The nearest-rank quantile at `permille` (1..=1000): the smallest
    /// sample `v` such that at least `ceil(permille * len / 1000)` samples
    /// are `<= v`.
    pub fn percentile(&mut self, permille: u64) -> Option<u64> {
        let rank = nearest_rank(self.len, permille)?;
        let mut seen = 0u64;
        for (v, &c) in self.dense.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Some(v as u64);
            }
        }
        self.overflow.sort_unstable();
        let idx = usize::try_from(rank - seen - 1).expect("rank fits in memory");
        self.overflow.get(idx).copied()
    }

    /// [`percentile`](Self::percentile), placed within its unit: the `c`
    /// samples counted in unit `v` are taken as spread evenly over
    /// `[v, v + 1)`, and the nearest rank's position among them places the
    /// result there. The integer part is the nearest-rank sample; the
    /// fraction keeps apart figures of different inputs that share a unit
    /// (a simulated clock ticks in whole microseconds).
    pub fn percentile_in_unit(&mut self, permille: u64) -> Option<f64> {
        let rank = nearest_rank(self.len, permille)?;
        let mut below = 0u64;
        for (v, &c) in self.dense.iter().enumerate() {
            let c = u64::from(c);
            if below + c >= rank {
                return Some(v as f64 + (rank - below) as f64 / (c + 1) as f64);
            }
            below += c;
        }
        self.percentile(permille).map(|v| v as f64)
    }
}

/// The 1-based nearest rank of the `permille` quantile among `n`
/// samples, in integer arithmetic so that e.g. p99.9 of 10,000 samples
/// is exactly rank 9,990.
pub fn nearest_rank(n: u64, permille: u64) -> Option<u64> {
    if n == 0 || !(1..=1000).contains(&permille) {
        return None;
    }
    Some((permille * n).div_ceil(1000).max(1))
}

/// Nearest-rank `permille` quantile of a slice (the reference the
/// histogram is tested against).
#[cfg(test)]
pub fn percentile_of(values: &[u64], permille: u64) -> Option<u64> {
    let rank = nearest_rank(values.len() as u64, permille)?;
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    Some(sorted[(rank - 1) as usize])
}

/// The tail quantiles (permille) the benchmark may report, highest first.
pub const TAILS: [u64; 3] = [999, 990, 900];

/// Whether the `permille` quantile of `n` samples has at least ten
/// samples beyond it — the condition for reporting it at all.
pub fn tail_reportable(n: u64, permille: u64) -> bool {
    nearest_rank(n, permille).is_some_and(|rank| n - rank >= 10)
}

/// The highest of [`TAILS`] that has at least ten samples beyond it.
pub fn highest_reportable_tail(n: u64) -> Option<u64> {
    TAILS.into_iter().find(|&p| tail_reportable(n, p))
}

/// Median of a non-empty list (the lower middle for even lengths is
/// averaged with the upper one).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile_of(&v, 500), Some(5));
        assert_eq!(percentile_of(&v, 510), Some(6));
        assert_eq!(percentile_of(&v, 900), Some(9));
        assert_eq!(percentile_of(&v, 990), Some(10));
        assert_eq!(percentile_of(&v, 1000), Some(10));
        assert_eq!(percentile_of(&[7], 999), Some(7));
        assert_eq!(percentile_of(&[], 500), None);
        assert_eq!(nearest_rank(10_000, 999), Some(9_990));
        // Nearest rank always returns an observed sample, never an
        // interpolation.
        assert_eq!(percentile_of(&[1, 100], 500), Some(1));
    }

    #[test]
    fn histogram_matches_sorted_slice() {
        let mut h = Hist::new();
        let mut raw = Vec::new();
        let mut x = 12345u64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) % 4000 + if x.is_multiple_of(97) { 1 << 20 } else { 0 };
            h.record(v);
            raw.push(v);
        }
        for p in [10, 500, 900, 990, 999, 1000] {
            assert_eq!(h.percentile(p), percentile_of(&raw, p), "p={p}");
            let placed = h.percentile_in_unit(p).unwrap();
            assert_eq!(placed.floor() as u64, h.percentile(p).unwrap(), "p={p}");
        }
        let mut a = Hist::new();
        let mut b = Hist::new();
        for (i, &v) in raw.iter().enumerate() {
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        a.merge(&b);
        assert_eq!(a.len(), 5000);
        assert_eq!(a.percentile(990), percentile_of(&raw, 990));
    }

    #[test]
    fn in_unit_placement_keeps_the_nearest_rank_unit() {
        let mut h = Hist::new();
        (1..=10).for_each(|v| h.record(v));
        assert_eq!(h.percentile_in_unit(500), Some(5.5));
        let mut same = Hist::new();
        (0..3).for_each(|_| same.record(7));
        assert_eq!(same.percentile_in_unit(500), Some(7.5));
        assert_eq!(Hist::new().percentile_in_unit(500), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p999 of n samples has n - ceil(0.999 n) samples beyond it.
        assert!(!tail_reportable(9_999, 999));
        assert!(tail_reportable(10_000, 999));
        assert!(!tail_reportable(999, 990));
        assert!(tail_reportable(1_000, 990));
        assert_eq!(highest_reportable_tail(50_000), Some(999));
        assert_eq!(highest_reportable_tail(5_000), Some(990));
        assert_eq!(highest_reportable_tail(100), Some(900));
        assert_eq!(highest_reportable_tail(50), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
