//! Log-linear histogram with interpolated percentiles.
//!
//! Values below [`EXACT`] get unit-wide buckets; above that, each power of
//! two is split into `EXACT / 2` buckets (under 1.6% relative width). A
//! recorded integer `v` stands for the interval `[v, v + 1)` — the program's
//! span durations are truncated microseconds — and a percentile is
//! interpolated linearly by rank inside its bucket, so two runs with the
//! same distribution read close but not identical values.

use std::time::Instant;

const EXACT: u64 = 128;
const HALF: u64 = EXACT / 2;
/// Buckets: the exact range, then `HALF` per octave for octaves 7..64.
const BUCKETS: usize = (EXACT + 57 * HALF) as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: f64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0.0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let octave = 63 - u64::from(v.leading_zeros()); // >= 7
    let shift = octave - 6;
    let sub = (v >> shift) - HALF; // in [0, HALF)
    (EXACT + (octave - 7) * HALF + sub) as usize
}

/// `[lo, lo + width)` covered by bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < EXACT {
        return (i as f64, 1.0);
    }
    let octave = (i - EXACT) / HALF + 7;
    let sub = (i - EXACT) % HALF + HALF;
    let shift = octave - 6;
    ((sub << shift) as f64, (1u64 << shift) as f64)
}

/// Nanoseconds since `t`, for recording call-site timings.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.n += 1;
        self.sum += v as f64 + 0.5;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of the recorded intervals' midpoints.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The `q` quantile (0..=1), interpolated inside its bucket; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.n as f64).max(0.5);
        let mut cum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c as f64;
            if rank <= next {
                let (lo, width) = bounds(i);
                return lo + width * (rank - cum) / c as f64;
            }
            cum = next;
        }
        let (lo, width) = bounds(BUCKETS - 1);
        lo + width
    }

    /// Samples strictly above the `q` quantile's rank, printed beside a
    /// percentile so a reader can tell whether enough samples back it.
    pub fn beyond(&self, q: f64) -> u64 {
        self.n - (q * self.n as f64).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        let mut expect_lo = 0.0;
        for i in 0..BUCKETS {
            let (lo, w) = bounds(i);
            assert_eq!(lo, expect_lo, "bucket {i}");
            expect_lo = lo + w;
        }
        for v in [0u64, 1, 127, 128, 129, 1000, (1 << 40) + 7] {
            let (lo, w) = bounds(index(v));
            assert!(lo <= v as f64 && (v as f64) < lo + w, "{v}");
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_interpolate() {
        let mut h = Hist::default();
        for v in 0..1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 500.0).abs() < 10.0, "{p50}");
        assert!(h.quantile(0.99) > h.quantile(0.5));
        assert_eq!(h.beyond(0.9), 100);
        let mut ones = Hist::default();
        for _ in 0..4 {
            ones.record(1);
        }
        assert!((ones.quantile(0.5) - 1.5).abs() < 1e-9);
    }
}
