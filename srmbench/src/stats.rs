//! Percentiles, sample reservoirs and seed derivation.

use obs::LogHistogram;

/// The 1-based nearest rank of quantile `q` among `n` samples,
/// `ceil(q * n)`, immune to `q * n` landing a rounding error above an
/// integer.
fn rank(q: f64, n: u64) -> u64 {
    ((q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as u64).clamp(1, n.max(1))
}

/// Nearest-rank quantile of ascending `sorted`. `None` for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(q, sorted.len() as u64) as usize - 1])
}

/// Percentiles a report may quote as its tail, highest first.
const TAILS: [f64; 4] = [0.9999, 0.999, 0.99, 0.9];

/// The highest of [`TAILS`] that leaves at least ten of `n` samples above
/// its rank, if any does.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|&q| (n as u64).saturating_sub(rank(q, n as u64)) >= 10)
}

/// Median, p99 and the best-supported tail of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (whether or not ten samples lie beyond it).
    pub p99: f64,
    /// The highest percentile with at least ten samples beyond it, and its
    /// value; `None` below 100 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Sorts `samples` in place; `None` when empty.
    pub fn of(samples: &mut [f64]) -> Option<Summary> {
        samples.sort_by(f64::total_cmp);
        Some(Summary {
            n: samples.len(),
            p50: quantile(samples, 0.5)?,
            p99: quantile(samples, 0.99)?,
            tail: supported_tail(samples.len()).map(|q| (q, quantile(samples, q).unwrap_or(0.0))),
        })
    }

    /// `(p50, p99)` of `samples` (sorted in place); `None` when empty.
    pub fn p50_p99(samples: &mut [f64]) -> Option<(f64, f64)> {
        Summary::of(samples).map(|s| (s.p50, s.p99))
    }

    /// `p50 … p99 … (n=…, tail pQ=…)` for the human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((q, v)) => format!("highest supported p{} = {v:.4} {unit}", q * 100.0),
            None => "no percentile has 10 samples beyond it".to_string(),
        };
        format!(
            "p50 {:.4} {unit}, p99 {:.4} {unit} (n={}; {tail})",
            self.p50, self.p99, self.n
        )
    }
}

/// Median of `v` (sorts in place); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5).unwrap_or(0.0)
}

/// Sub-buckets per octave of `obs` log histograms: bucket `i` spans
/// `[2^(i/4), 2^((i+1)/4))`.
const OBS_SUBDIV: f64 = 4.0;

/// Quantile of an `obs` histogram, interpolated geometrically inside the
/// bucket that holds the rank and clamped to the exact min and max, so it
/// moves with the counts instead of snapping to bucket midpoints. 0 when
/// the histogram is empty.
pub fn hist_quantile(h: &LogHistogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let rank = rank(q, n);
    if rank <= h.zeros() {
        return 0.0;
    }
    let mut seen = h.zeros();
    for (i, c) in h.bucket_counts() {
        if seen + c >= rank {
            // The rank's position inside the bucket, samples taken as
            // evenly spread over it.
            let frac = ((rank - seen) as f64 - 0.5) / c as f64;
            let v = ((i as f64 + frac) / OBS_SUBDIV).exp2();
            let lo = h.min().unwrap_or(v);
            let hi = h.max().unwrap_or(v);
            return v.clamp(lo, hi);
        }
        seen += c;
    }
    h.max().unwrap_or(0.0)
}

/// splitmix64: derives independent seeds from the workload seed.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform sample of at most `cap` values from a stream of any length,
/// so memory does not grow with throughput (Vitter's algorithm R, seeded).
pub struct Reservoir {
    cap: usize,
    seen: u64,
    state: u64,
    items: Vec<f64>,
}

impl Reservoir {
    /// An empty reservoir holding at most `cap` samples.
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            cap,
            seen: 0,
            state: seed | 1,
            items: Vec::with_capacity(cap),
        }
    }

    /// Offer one sample.
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(v);
            return;
        }
        // xorshift64*
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let r = self.state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let j = (r % self.seen) as usize;
        if j < self.cap {
            self.items[j] = v;
        }
    }

    /// Samples offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The retained samples.
    pub fn into_samples(self) -> Vec<f64> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[7.0], 0.5), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_of_unsorted_samples() {
        let mut odd = [5.0, 1.0, 3.0];
        assert_eq!(median(&mut odd), 3.0);
        let mut even = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(
            median(&mut even),
            2.0,
            "nearest rank takes the lower middle"
        );
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(999), Some(0.9), "p99 of 999 has 9 beyond");
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(100_000), Some(0.9999));
        assert_eq!(supported_tail(99), None);
        for n in [100, 1000, 1234, 50_000] {
            let q = supported_tail(n).unwrap();
            let above = v_above(n, q);
            assert!(above >= 10, "n={n} q={q}");
        }
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&mut v).unwrap();
        assert_eq!((s.n, s.p50, s.p99), (1000, 500.0, 990.0));
        assert_eq!(s.tail, Some((0.99, 990.0)));
    }

    /// Samples strictly above the nearest-rank `q` quantile of 1..=n.
    fn v_above(n: usize, q: f64) -> usize {
        let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let at = quantile(&v, q).unwrap();
        v.iter().filter(|&&x| x > at).count()
    }

    #[test]
    fn histogram_quantile_interpolates_within_bounds() {
        let mut h = LogHistogram::new();
        assert_eq!(hist_quantile(&h, 0.5), 0.0);
        for v in 1..=1000 {
            h.record(f64::from(v));
        }
        let p50 = hist_quantile(&h, 0.5);
        assert!((p50 / 500.0 - 1.0).abs() < 0.1, "p50 {p50}");
        assert_eq!(hist_quantile(&h, 1.0), 1000.0);
        let p0 = hist_quantile(&h, 0.0);
        assert!((1.0..1.2).contains(&p0), "p0 {p0}");
        h.record(0.0);
        assert!(hist_quantile(&h, 0.0001) == 0.0);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1000, 7);
        for v in 0..100_000 {
            r.push(f64::from(v));
        }
        assert_eq!(r.seen(), 100_000);
        let mut s = r.into_samples();
        assert_eq!(s.len(), 1000);
        let m = median(&mut s);
        assert!((40_000.0..60_000.0).contains(&m), "median {m}");
    }

    #[test]
    fn derived_seeds_differ_per_salt() {
        assert_ne!(derive(1, 0), derive(1, 1));
        assert_ne!(derive(1, 0), derive(2, 0));
        assert_eq!(derive(9, 3), derive(9, 3));
    }
}
