//! The benchmark's arithmetic: throughput in MiB/s, medians, and
//! percentiles taken from raw samples.

/// Bytes per MiB. Every size and throughput the benchmark reports uses
/// binary mebibytes, as the CLI does.
pub const MIB: f64 = (1u64 << 20) as f64;

/// How many samples must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Throughput of moving `bytes` in `seconds`, in MiB/s.
pub fn mib_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / MIB / seconds
}

/// The median of `samples` (the mean of the two middle values for an even
/// count). Panics on an empty slice: every caller takes at least one
/// sample before asking.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile (`0 < p < 1`) of `samples`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie above it, so that a
/// reported tail always rests on at least ten observations.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile rank {p} outside (0, 1)");
    let n = samples.len();
    // Nearest rank: the smallest value with at least p·n samples at or
    // below it.
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}

/// The fewest samples for which [`percentile`] reports rank `p`.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| percentile(&vec![0.0; n], p).is_some())
        .expect("some sample count always satisfies the rule")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mib_per_s_uses_binary_mebibytes() {
        assert_eq!(mib_per_s(1 << 20, 1.0), 1.0);
        assert_eq!(mib_per_s(64 << 20, 0.5), 128.0);
        // 1e6 bytes is less than one MiB.
        assert!((mib_per_s(1_000_000, 1.0) - 0.953_674_316_406_25).abs() < 1e-15);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.5), 20);
        let below: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&below, 0.9), None);
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p90 = percentile(&hundred, 0.9).expect("100 samples suffice");
        assert_eq!(p90, 90.0);
        assert_eq!(hundred.iter().filter(|&&v| v > p90).count(), MIN_BEYOND);
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
    }

    #[test]
    fn percentile_counts_samples_not_buckets() {
        // A log2-bucketed histogram would place 152 in the [128, 256)
        // bucket and report its upper edge; raw samples report 152.
        let mut s = vec![152.0; 50];
        s.extend(std::iter::repeat_n(150.0, 50));
        assert_eq!(percentile(&s, 0.5), Some(150.0));
        assert_eq!(percentile(&s, 0.9), Some(152.0));
    }
}
