//! Seeded input generators. Every workload input is a pure function of
//! the `--seed` argument, so the same seed always yields the same bytes.

/// SplitMix64: tiny, fast, and good enough to draw benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input `stream` of a seed, so each input of a
    /// workload draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-high.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// `n` values below `2^bits`.
pub fn values(seed: u64, stream: u64, n: usize, bits: u32) -> Vec<u64> {
    let mut r = Rng::new(seed, stream);
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    (0..n).map(|_| r.next_u64() & mask).collect()
}

/// `n` flags, each true with probability `1 / one_in`.
pub fn flags(seed: u64, stream: u64, n: usize, one_in: u64) -> Vec<bool> {
    let mut r = Rng::new(seed, stream);
    (0..n).map(|_| r.below(one_in) == 0).collect()
}

/// A connected graph on `n` vertices: a random spanning tree (vertex
/// `v` joins a random earlier vertex) plus `extra_per_vertex * n` random
/// edges, with weights below `2^24`.
pub fn connected_graph(seed: u64, n: usize, extra_per_vertex: usize) -> Vec<(usize, usize, u64)> {
    let mut r = Rng::new(seed, 7);
    let mut edges = Vec::with_capacity(n * (extra_per_vertex + 1));
    for v in 1..n {
        let u = r.below(v as u64) as usize;
        edges.push((u, v, r.below(1 << 24)));
    }
    for _ in 0..n * extra_per_vertex {
        let u = r.below(n as u64) as usize;
        let mut v = r.below(n as u64 - 1) as usize;
        if v >= u {
            v += 1;
        }
        edges.push((u, v, r.below(1 << 24)));
    }
    edges
}

/// Smallest and largest serve request length.
pub const MIN_REQ_LEN: usize = 16;
pub const MAX_REQ_LEN: usize = 32_768;

/// Shuffle `xs` in place (Fisher–Yates).
pub fn shuffle<T>(xs: &mut [T], r: &mut Rng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, r.below(i as u64 + 1) as usize);
    }
}

/// `count` request lengths, log-uniform over `MIN_REQ_LEN..=MAX_REQ_LEN`:
/// the midpoints of `count` equal slices of the log range, in seeded
/// order. Every seed gets the same sizes, so the work per request set
/// does not vary with the seed; the order, kinds and values do.
pub fn request_lens(seed: u64, count: usize) -> Vec<usize> {
    let lo = (MIN_REQ_LEN as f64).ln();
    let hi = ((MAX_REQ_LEN + 1) as f64).ln();
    let mut lens: Vec<usize> = (0..count)
        .map(|k| {
            let u = (k as f64 + 0.5) / count as f64;
            ((lo + u * (hi - lo)).exp() as usize).clamp(MIN_REQ_LEN, MAX_REQ_LEN)
        })
        .collect();
    shuffle(&mut lens, &mut Rng::new(seed, 22));
    lens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(values(1, 0, 1000, 32), values(1, 0, 1000, 32));
        assert_ne!(values(1, 0, 1000, 32), values(2, 0, 1000, 32));
        assert_ne!(values(1, 0, 1000, 32), values(1, 1, 1000, 32));
        assert_eq!(flags(5, 3, 4096, 2), flags(5, 3, 4096, 2));
        assert_ne!(flags(5, 3, 4096, 2), flags(6, 3, 4096, 2));
        assert_eq!(connected_graph(9, 500, 3), connected_graph(9, 500, 3));
        assert_ne!(connected_graph(9, 500, 3), connected_graph(10, 500, 3));
        assert_eq!(request_lens(3, 100), request_lens(3, 100));
        assert_ne!(request_lens(3, 100), request_lens(4, 100));
    }

    #[test]
    fn values_respect_their_width() {
        assert!(values(3, 0, 10_000, 32).iter().all(|&v| v < 1 << 32));
    }

    #[test]
    fn graph_edges_are_valid_and_span() {
        let n = 300;
        let edges = connected_graph(4, n, 3);
        assert_eq!(edges.len(), n - 1 + 3 * n);
        assert!(edges
            .iter()
            .all(|&(u, v, w)| u < n && v < n && u != v && w < 1 << 24));
        let (tree, _) = scan_algorithms::graph::reference::kruskal(n, &edges);
        assert_eq!(tree.len(), n - 1, "graph must be connected");
    }

    #[test]
    fn request_lengths_stay_in_range_and_span_it() {
        for count in [1, 2, 1024, 100_000] {
            let lens = request_lens(11, count);
            assert_eq!(lens.len(), count);
            assert!(lens
                .iter()
                .all(|&l| (MIN_REQ_LEN..=MAX_REQ_LEN).contains(&l)));
        }
        let lens = request_lens(11, 100_000);
        assert_eq!(lens.iter().min(), Some(&MIN_REQ_LEN));
        assert!(lens.iter().max() >= Some(&(MAX_REQ_LEN - 1)));
        // Log-uniform: the geometric midpoint of the range splits it in half.
        let mid = ((MIN_REQ_LEN * MAX_REQ_LEN) as f64).sqrt() as usize;
        let below = lens.iter().filter(|&&l| l < mid).count();
        assert!(
            (49_000..51_000).contains(&below),
            "{below} of 100000 below {mid}"
        );
    }
}
