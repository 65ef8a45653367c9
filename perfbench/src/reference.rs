//! A fixed reference computation, timed beside the measured work.
//!
//! On a shared host the speed of the machine drifts by tens of percent
//! within minutes, and every wall-clock figure moves with it. The gated pass
//! and per-program figures are therefore reported relative to this
//! computation, timed right before and right after the work they measure,
//! so the drift cancels. It calls none of the repository's code, so a change
//! to the program never moves it: a faster analyzer shows as a smaller
//! ratio.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Keys inserted per run; one run takes about 10 ms on a 2020s server core.
const STEPS: u64 = 32_000;
/// Runs per timing; the timing is their median.
const RUNS: usize = 3;

/// Ordered-map inserts, small vector allocations and wide-integer gcds: the
/// kind of work the polyhedral engine does.
fn work(steps: u64) -> u64 {
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let mut map: BTreeMap<u64, Vec<i128>> = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..steps {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let (mut a, mut b) = (
            (z >> 7) as i128 % 1_000_003 + 1,
            (i as i128 * 7919) % 999_983 + 1,
        );
        (a, b) = (a * b, a + b);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        acc = acc.wrapping_add(a as u64);
        let entry = map.entry(z % 20_000).or_default();
        entry.push(a);
        if entry.len() > 4 {
            *entry = Vec::new();
        }
    }
    acc.wrapping_add(map.len() as u64)
}

/// Seconds one reference run takes now (median of [`RUNS`]).
pub fn time_s() -> f64 {
    let mut times: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(work(black_box(STEPS)));
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[RUNS / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_work_is_fixed() {
        // The checksum pins the computation: editing it would silently
        // rescale every relative figure.
        assert_eq!(work(STEPS), work(STEPS));
        assert_eq!(work(STEPS), 1_518_431);
        assert!(time_s() > 0.0);
    }
}
