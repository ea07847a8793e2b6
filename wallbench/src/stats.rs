//! Order statistics and the host reference kernel.

use std::hint::black_box;
use std::time::Instant;

/// The `q`-quantile of ascending `sorted`, interpolated linearly between
/// the two samples around rank `q * (n - 1)`. `None` when empty.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = q.clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(sorted[lo] + (rank - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// Median of `values` (the mean of the middle pair for an even count).
/// `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Median of nanosecond samples, in microseconds.
#[must_use]
pub fn median_us(ns: &[u64]) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    median(&v).unwrap_or(0.0)
}

/// Repetitions of the reference kernel per call of [`ref_kernel_us`].
const REF_REPS: usize = 7;

/// The host reference kernel: a fixed adm-rng + FNV-1a loop over 2 MiB,
/// timed `REF_REPS` times; returns each repetition in microseconds. It
/// exercises no layer of the program, so it moves with the machine and
/// not with a change.
#[must_use]
pub fn ref_kernel_us() -> Vec<f64> {
    let mut buf = vec![0u8; 4096];
    (0..REF_REPS)
        .map(|_| {
            let t = Instant::now();
            let mut rng = adm_rng::Pcg32::new(0x0ADB_C0DE);
            let mut h = 0u64;
            for _ in 0..512 {
                rng.fill_bytes(&mut buf);
                h ^= obs::fnv1a(black_box(&buf));
            }
            black_box(h);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.5));
        assert!((quantile(&v, 0.99).unwrap() - 99.01).abs() < 1e-9);
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
