//! Summary statistics and the seeded generator behind every workload order.

/// Samples that must lie strictly above a reported percentile: a tail
/// figure backed by fewer is noise, so it is reported as absent.
pub const MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the middle pair for an even count), or
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`): the smallest sample
/// with at least `p`% of the samples at or below it.
///
/// Returns `None` unless at least [`MIN_BEYOND`] samples lie beyond that
/// rank, so a tail percentile is only ever reported with the data to back
/// it (a p99 needs at least 1000 samples, a p90 at least 100).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// The geometric mean of positive `values`, or `None` when empty or when a
/// value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// SplitMix64: a tiny, well-mixed generator, so a seed fixes every order
/// the benchmark draws.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of `seed` (each pass, phase or
    /// priming order draws from its own stream).
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut mixer = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        Rng(mixer.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentile_picks_the_ranked_sample() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank ceil(0.5 * 100) = 50, ceil(0.9 * 100) = 90.
        assert_eq!(percentile(&values, 50.0), Some(50.0));
        assert_eq!(percentile(&values, 90.0), Some(90.0));
        // Order of the input does not matter.
        let mut reversed = values.clone();
        reversed.reverse();
        assert_eq!(percentile(&reversed, 90.0), Some(90.0));
        // A fractional rank rounds up: ceil(0.5 * 21) = 11.
        let odd: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&odd, 50.0), Some(11.0));
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 leaves exactly 10 beyond; of 99 only 9.
        assert!(percentile(&hundred, 90.0).is_some());
        assert_eq!(percentile(&hundred[..99], 90.0), None);
        // p99 needs 1000 samples.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
        assert_eq!(percentile(&thousand[..999], 99.0), None);
        assert_eq!(percentile(&hundred, 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0; 5], 50.0), None);
    }

    #[test]
    fn geometric_mean() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn seeded_shuffle_is_a_repeatable_permutation() {
        let base: Vec<u32> = (0..50).collect();
        let shuffled = |seed| {
            let mut v = base.clone();
            Rng::stream(seed, 3).shuffle(&mut v);
            v
        };
        assert_eq!(shuffled(7), shuffled(7));
        assert_ne!(shuffled(7), shuffled(8));
        let mut sorted = shuffled(7);
        sorted.sort();
        assert_eq!(sorted, base);
    }
}
