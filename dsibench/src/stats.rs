//! Order statistics for timings.

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the value is set by a handful of outliers and does not repeat.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (0 for an empty slice). Sorts a copy.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of the middle half of `values` (the interquartile mean): as deaf to
/// outliers as the median, but it moves smoothly when the values cluster
/// around two modes, where the median jumps from one to the other.
pub fn midmean(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return median(values);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The `p`-th percentile (nearest rank) of `values`, or `None` when fewer
/// than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..100.0).contains(&p), "percentile in [0, 100)");
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize; // 1-based
    if rank == 0 || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn midmean_ignores_the_tails_and_blends_two_modes() {
        assert_eq!(midmean(&[1.0, 2.0, 3.0]), 2.0);
        // Outliers on both sides fall outside the middle half.
        assert_eq!(
            midmean(&[-100.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 1000.0]),
            6.5
        );
        // Modes at 7 and 10: one more sample at 10 moves the median by 1.5,
        // the midmean by a tenth of that.
        let mut v = vec![7.0; 10];
        v.extend([10.0; 10]);
        assert_eq!(median(&v), 8.5);
        assert_eq!(midmean(&v), 8.5);
        v.push(10.0);
        assert_eq!(median(&v), 10.0);
        assert!((midmean(&v) - 95.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Exactly ten samples lie beyond the 99th percentile of 1000.
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        // One sample fewer and the tail is too thin.
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&v[..15], 50.0), None);
        assert_eq!(percentile(&v[..21], 50.0), Some(11.0));
    }
}
