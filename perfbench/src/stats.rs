//! Summaries of timing samples, and the output digest every
//! correctness check compares against.

/// Median of `xs` (mean of the middle two for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` (0..=100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Number of samples strictly above `value`.
pub fn count_above(xs: &[f64], value: f64) -> usize {
    xs.iter().filter(|&&x| x > value).count()
}

/// The percentiles a tail is reported at, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// A tail latency: the highest percentile that still has at least
/// `MIN_BEYOND` samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub beyond: usize,
}

/// Samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// The highest of the candidate percentiles with at least `MIN_BEYOND`
/// samples above it; `None` when even the median has fewer.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    TAIL_CANDIDATES.iter().find_map(|&pct| {
        let value = percentile(xs, pct);
        let beyond = count_above(xs, value);
        (beyond >= MIN_BEYOND).then_some(Tail { pct, value, beyond })
    })
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Position key of the output digest (odd, so `i * K` never repeats
/// mod 2^64 within any slice length).
const DIGEST_KEY: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fold `xs`, which starts at position `offset` of the whole output,
/// into a running digest. The digest is the wrapping sum of
/// `x[i] ^ (i * K)`: changing any single element changes its term and
/// nothing else, so a one-element corruption always changes the digest.
pub fn digest_fold(acc: u64, offset: usize, xs: &[u64]) -> u64 {
    let mut key = (offset as u64).wrapping_mul(DIGEST_KEY);
    let mut sum = acc;
    for &x in xs {
        sum = sum.wrapping_add(x ^ key);
        key = key.wrapping_add(DIGEST_KEY);
    }
    sum
}

/// Digest of a whole output.
pub fn digest(xs: &[u64]) -> u64 {
    digest_fold(0, 0, xs)
}

/// What a correct output must look like: its length and digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub len: usize,
    pub digest: u64,
}

impl Expect {
    pub fn of(xs: &[u64]) -> Self {
        Expect {
            len: xs.len(),
            digest: digest(xs),
        }
    }

    pub fn matches(&self, xs: &[u64]) -> bool {
        xs.len() == self.len && digest(xs) == self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 25.0), 2.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 has 10 above it, p99.9 only 1.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("1000 samples support a tail");
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.beyond, 10);
        // 100 samples: p99 has 1 above, p90 has 10.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.pct), Some(90.0));
        // 20000 samples reach p99.9 (20 above) but not p99.99 (2 above).
        let xs: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.pct), Some(99.9));
        // Too few samples for any tail.
        let xs: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        // Ties at the top: nothing is strictly above the percentile.
        assert_eq!(tail(&[7.0; 500]), None);
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn digest_detects_any_single_flip_and_folds_in_chunks() {
        let xs: Vec<u64> = (0..4096u64).map(|i| i * i + 3).collect();
        let want = Expect::of(&xs);
        assert!(want.matches(&xs));
        for i in [0, 1, 2047, 4095] {
            for bit in [0, 31, 63] {
                let mut bad = xs.clone();
                bad[i] ^= 1 << bit;
                assert!(!want.matches(&bad), "flip at {i} bit {bit} undetected");
            }
        }
        assert!(!want.matches(&xs[..4095]));
        let chunked = xs
            .chunks(1000)
            .enumerate()
            .fold(0, |acc, (k, c)| digest_fold(acc, k * 1000, c));
        assert_eq!(chunked, want.digest);
    }
}
