//! Percentiles and medians, as the benchmark reports them.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `per_mille`/1000 of all samples at or below it. `None` when
/// fewer than `min_beyond` samples lie beyond that rank — a p99 over 200
/// samples would be set by two of them.
pub fn percentile(sorted: &[u64], per_mille: u32, min_beyond: usize) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (n as u64 * u64::from(per_mille)).div_ceil(1000).clamp(1, n as u64) as usize;
    if n - rank < min_beyond {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of unordered values; the mean of the middle two for an even count.
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Median over segments of each segment's percentile, in milliseconds.
/// Segments whose percentile is unsupported are left out; `None` when none
/// supports it.
pub fn segment_percentile_ms(
    segments: &mut [Vec<u64>],
    per_mille: u32,
    min_beyond: usize,
) -> Option<f64> {
    let per_segment: Vec<f64> = segments
        .iter_mut()
        .filter_map(|seg| {
            seg.sort_unstable();
            percentile(seg, per_mille, min_beyond).map(|ns| ns as f64 / 1e6)
        })
        .collect();
    median(&per_segment)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500, 0), Some(50));
        assert_eq!(percentile(&v, 990, 0), Some(99));
        assert_eq!(percentile(&v, 1000, 0), Some(100));
        assert_eq!(percentile(&v, 1, 0), Some(1));
        assert_eq!(percentile(&[7], 990, 0), Some(7));
        assert_eq!(percentile(&[], 500, 0), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 990, MIN_BEYOND), Some(990));
        assert_eq!(percentile(&v, 999, MIN_BEYOND), None);
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&short, 990, MIN_BEYOND), None);
        let long: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&long, 999, MIN_BEYOND), Some(9990));
    }

    #[test]
    fn median_of_four_is_the_mean_of_the_middle_two() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn segment_percentile_skips_unsupported_segments() {
        let full: Vec<u64> = (1..=1000).map(|x| x * 1_000_000).collect();
        let thin: Vec<u64> = vec![5_000_000; 20];
        let mut segs = vec![full.clone(), thin, full];
        assert_eq!(segment_percentile_ms(&mut segs, 990, MIN_BEYOND), Some(990.0));
    }
}
