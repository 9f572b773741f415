//! Order statistics, geometric mean, the harness's own FNV-1a hasher and
//! the seeded generator that orders the requests.

/// Median of `v` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The three quartile cut points of `v`, computed exactly like Python's
/// `statistics.quantiles(v, n=4)` (the exclusive method), which is what
/// the driver uses to judge spread. `None` with fewer than two values.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    if v.len() < 2 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let (n, len) = (4usize, s.len());
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    Some(out)
}

/// Inter-quartile range as a share of the median — the driver's spread.
pub fn relative_iqr(v: &[f64]) -> f64 {
    match (quartiles(v), median(v)) {
        (Some([q1, _, q3]), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// `num / den`, or `0.0` when there is nothing to divide by (a layer the
/// workload never entered).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Geometric mean of the positive values in `v`; `0.0` when there are
/// none (a design that simulates in zero cycles does not exist).
pub fn geomean(v: &[f64]) -> f64 {
    let logs: Vec<f64> = v.iter().filter(|x| **x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// 64-bit FNV-1a. The input lock uses this hasher rather than
/// `pom::fingerprint`, so the lock cannot drift with the compiler's own
/// hashing.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: small, seedable, and identical on every platform, so a
/// `--seed` reproduces its request order exactly.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The generator's `n`-th value from here, counting from 0.
    pub fn nth_u64(mut self, n: usize) -> u64 {
        for _ in 0..n {
            self.next_u64();
        }
        self.next_u64()
    }

    /// A value in `0..n` (`n > 0`); the modulo bias is irrelevant for
    /// shuffling a few dozen requests.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 1, 7], n=4) == [1.0, 7.0, 10.0]
        assert_eq!(quartiles(&[10.0, 1.0, 7.0]), Some([1.0, 7.0, 10.0]));
        // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[2.0, 4.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_ignores_nonpositive_values() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 0.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn shuffle_repeats_for_a_seed_and_differs_across_seeds() {
        let run = |seed| {
            let mut r = Rng::new(seed);
            let mut v: Vec<u32> = (0..20).collect();
            r.shuffle(&mut v);
            v
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        assert_eq!(Rng::new(7).nth_u64(2), {
            let mut r = Rng::new(7);
            r.next_u64();
            r.next_u64();
            r.next_u64()
        });
        let mut sorted = run(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u32>>());
    }
}
