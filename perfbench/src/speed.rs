//! Machine-speed calibration.
//!
//! On a machine shared with other tenants, speed changes by tens of
//! percent within seconds, moving every wall and CPU figure. A fixed kernel
//! that uses no repository code (hashing, allocation, sorting — the
//! operations protocol code spends its time on) is timed around every
//! repetition; its time divided by [`REFERENCE_MS`] is the repetition's
//! slowdown, and wall and CPU figures are divided by it. The figures so
//! scaled read as if measured on a machine that runs the kernel in
//! exactly [`REFERENCE_MS`]. No change to the repository can move the
//! kernel, so a change's effect on the scaled figures is its own.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time of the reference machine, milliseconds.
pub const REFERENCE_MS: f64 = 1.5;

const KEYS: u64 = 20_000;

fn kernel_ms() -> f64 {
    let t0 = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut sorted: Vec<u64> = Vec::new();
    let mut x = 1u64;
    for i in 0..KEYS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 20, i);
        sorted.push(x);
    }
    let hits = (0..KEYS).filter(|i| map.contains_key(&(i * 7_919))).count();
    sorted.sort_unstable();
    black_box((hits, sorted));
    t0.elapsed().as_secs_f64() * 1e3
}

/// The machine's current slowdown against the reference: the median of
/// five kernel runs over [`REFERENCE_MS`].
pub fn slowdown() -> f64 {
    let mut runs: Vec<f64> = (0..5).map(|_| kernel_ms()).collect();
    runs.sort_by(f64::total_cmp);
    runs[2] / REFERENCE_MS
}

/// Runs `f` between two calibrations; returns its result and the mean
/// slowdown around it.
pub fn around<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = slowdown();
    let r = f();
    let after = slowdown();
    (r, (before + after) / 2.0)
}
