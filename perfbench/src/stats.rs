//! Order statistics shared by the harness and the compare command.

use bellamy_telemetry::{Histogram, HistogramSnapshot, NUM_BUCKETS};

/// Points a tail percentile must have beyond it before it is reported.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Median of a sample (mean of the two middle values for an even count).
/// `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method), so spreads computed here match the
/// ones computed from the same values in Python.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Why a percentile was not reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PercentileError {
    /// The sample is empty.
    Empty,
    /// Fewer than [`MIN_BEYOND_TAIL`] points lie beyond the percentile, so
    /// it would be set by a handful of outliers.
    TooFewBeyond { n: usize, beyond: usize },
}

impl std::fmt::Display for PercentileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PercentileError::Empty => f.write_str("empty sample"),
            PercentileError::TooFewBeyond { n, beyond } => write!(
                f,
                "{beyond} of {n} points beyond the percentile (need {MIN_BEYOND_TAIL})"
            ),
        }
    }
}

/// Sub-buckets per power of two of [`LatencyHistogram`]: bucket width is
/// at most 2^-8 (0.4%) of the value, and values below 256 ns are exact.
const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;
/// Largest power of two recorded (2^36 ns ≈ 69 s); longer ops clamp.
const MAX_EXP: u32 = 36;

/// Latencies of a set of ops in fixed memory (~60 KB, whatever the op
/// count, so throughput does not move `peak_rss_mb`), log-linear like an
/// HDR histogram. Failed ops count as beyond every percentile.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    failed: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: vec![0; (MAX_EXP - SUB_BITS + 2) as usize * SUB],
            failed: 0,
        }
    }
}

impl LatencyHistogram {
    fn index(ns: u64) -> usize {
        let ns = ns.min((1u64 << (MAX_EXP + 1)) - 1);
        if ns < SUB as u64 {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros();
        let shift = e - SUB_BITS;
        (shift as usize + 1) * SUB + ((ns >> shift) as usize - SUB)
    }

    /// `[lo, hi)` of bucket `i`, in ns.
    fn bounds(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, i as f64 + 1.0);
        }
        let shift = (i / SUB - 1) as u32;
        let lo = ((SUB + i % SUB) as u64) << shift;
        (lo as f64, (lo + (1u64 << shift)) as f64)
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
    }

    pub fn record_failed(&mut self) {
        self.failed += 1;
    }

    /// Turns one recorded op of latency `ns` into a failed one (for a
    /// correctness check made after the timed phase).
    pub fn fail_recorded(&mut self, ns: u64) {
        let bucket = &mut self.counts[Self::index(ns)];
        assert!(*bucket > 0, "no op of latency {ns} ns was recorded");
        *bucket -= 1;
        self.failed += 1;
    }

    /// Ops recorded, failed ones included.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.failed
    }

    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.failed += other.failed;
    }

    /// Ops beyond the nearest-rank index of quantile `q` (index
    /// `round((n - 1) * q)`, the repository's rank convention).
    pub fn beyond(&self, q: f64) -> u64 {
        let n = self.count();
        n.saturating_sub(1) - (n.saturating_sub(1) as f64 * q.clamp(0.0, 1.0)).round() as u64
    }

    /// The nearest-rank quantile `q` in ns, interpolated by rank inside its
    /// bucket; infinite when the rank falls on a failed op. Refuses a rank
    /// with fewer than [`MIN_BEYOND_TAIL`] ops beyond it.
    pub fn quantile(&self, q: f64) -> Result<f64, PercentileError> {
        let n = self.count();
        if n == 0 {
            return Err(PercentileError::Empty);
        }
        let beyond = self.beyond(q);
        if beyond < MIN_BEYOND_TAIL as u64 {
            return Err(PercentileError::TooFewBeyond {
                n: n as usize,
                beyond: beyond as usize,
            });
        }
        let rank = n - 1 - beyond;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if below + c > rank {
                let (lo, hi) = Self::bounds(i);
                return Ok(lo + (hi - lo) * ((rank - below) as f64 + 0.5) / c as f64);
            }
            below += c;
        }
        Ok(f64::INFINITY)
    }
}

/// Bucket-wise difference `after - before` of two snapshots of one
/// histogram: the observations recorded in between.
pub fn histogram_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let mut counts = [0u64; NUM_BUCKETS];
    for (i, c) in counts.iter_mut().enumerate() {
        *c = after.counts()[i].saturating_sub(before.counts()[i]);
    }
    HistogramSnapshot::from_counts(counts)
}

/// Quantile of a log₂ histogram, interpolated linearly inside the bucket
/// holding the target rank (the histogram itself only resolves powers of
/// two). `NaN` for an empty histogram.
pub fn histogram_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    let total = h.count();
    if total == 0 {
        return f64::NAN;
    }
    let target = (total - 1) as f64 * q.clamp(0.0, 1.0);
    let mut below = 0u64;
    for (i, &c) in h.counts().iter().enumerate() {
        if c > 0 && (below + c) as f64 > target {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = Histogram::bucket_upper(i) as f64 + 1.0;
            let frac = (target - below as f64 + 0.5) / c as f64;
            return lo + (hi - lo) * frac.clamp(0.0, 1.0);
        }
        below += c;
    }
    f64::NAN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn latency_histogram_is_exact_below_256_ns_and_within_0_4_percent_above() {
        let mut h = LatencyHistogram::default();
        for v in 0..201u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 201);
        assert_eq!(h.quantile(0.5), Ok(100.5)); // bucket [100, 101), midpoint
        for v in [256u64, 1024, 4_170, 167_172, 1_837_925, 987_654_321] {
            let mut one = LatencyHistogram::default();
            for _ in 0..21 {
                one.record(v);
            }
            let got = one.quantile(0.5).unwrap();
            assert!(
                (got - v as f64).abs() / v as f64 <= 1.0 / 256.0,
                "{v} -> {got}"
            );
            let (lo, hi) = LatencyHistogram::bounds(LatencyHistogram::index(v));
            assert!(
                lo <= v as f64 && (v as f64) < hi,
                "{v} outside [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn latency_histogram_refuses_thin_tails_and_ranks_failures_last() {
        let mut h = LatencyHistogram::default();
        for v in 0..900u64 {
            h.record(v);
        }
        assert_eq!(
            h.quantile(0.99),
            Err(PercentileError::TooFewBeyond { n: 900, beyond: 9 })
        );
        for _ in 0..100 {
            h.record_failed();
        }
        h.record(5);
        h.fail_recorded(5);
        assert_eq!(h.beyond(0.99), 10);
        assert_eq!(h.quantile(0.99), Ok(f64::INFINITY));
        assert!(h.quantile(0.5).unwrap() < 900.0);
        assert_eq!(
            LatencyHistogram::default().quantile(0.5),
            Err(PercentileError::Empty)
        );
    }

    #[test]
    fn histogram_quantile_interpolates_inside_a_bucket() {
        let h = Histogram::new();
        for v in [1000u64, 1010, 1020, 1030] {
            h.record(v); // all in bucket [512, 1024) or [1024, 2048)
        }
        let snap = h.snapshot();
        let p50 = histogram_quantile(&snap, 0.5);
        assert!((512.0..2048.0).contains(&p50), "{p50}");
        let empty = histogram_delta(&snap, &snap);
        assert_eq!(empty.count(), 0);
        assert!(histogram_quantile(&empty, 0.5).is_nan());
    }
}
