//! Percentiles under the reporting rule of the benchmark: a timing is a
//! median plus the highest percentile that still has at least
//! [`MIN_BEYOND`] samples beyond it, reported together with its sample
//! count.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile value together with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub count: usize,
}

/// 1-based nearest rank of percentile `p` (0 < p < 100, in steps of
/// 0.1) among `n` samples, in exact integer arithmetic.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The nearest-rank `p`-th percentile of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(samples: &[f64], p: f64) -> Option<Tail> {
    if beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        value: sorted[rank(sorted.len(), p) - 1],
        count: sorted.len(),
    })
}

/// Fewest samples in which percentile `p` has [`MIN_BEYOND`] beyond it.
fn window_for(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .expect("some window supports p")
}

/// The `p`-th percentile, robust to a burst in one part of the run: the
/// samples (in time order) are cut into as many consecutive windows as
/// each still support `p` by the rule, and the median of the windows'
/// percentiles is reported. `count` is the total sample count. `None`
/// when not even one window is supported.
pub fn windowed_tail(samples: &[f64], p: f64) -> Option<Tail> {
    let windows = samples.len() / window_for(p);
    if windows == 0 {
        return None;
    }
    let per_window: Vec<f64> = (0..windows)
        .map(|i| {
            let chunk = &samples[i * samples.len() / windows..(i + 1) * samples.len() / windows];
            tail(chunk, p).expect("window sized to support p").value
        })
        .collect();
    Some(Tail {
        value: median(&per_window),
        count: samples.len(),
    })
}

/// The highest of the usual reporting percentiles that `n` samples
/// support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: p99 is rank 990, leaving 9 beyond — not enough.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail(&samples, 99.0), None);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(
            tail(&samples, 99.0),
            Some(Tail {
                value: 990.0,
                count: 1000
            })
        );
        assert_eq!(
            tail(&samples, 50.0),
            Some(Tail {
                value: 500.0,
                count: 1000
            })
        );
    }

    #[test]
    fn highest_supported_percentile_follows_the_rule() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn tail_is_order_independent_and_reports_count() {
        let mut samples: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = tail(&samples, 90.0).unwrap();
        samples.reverse();
        assert_eq!(tail(&samples, 90.0), Some(a));
        assert_eq!(
            a,
            Tail {
                value: 179.0,
                count: 200
            }
        );
    }

    #[test]
    fn windowed_tail_takes_the_median_window() {
        // Three windows of 1000; one holds a burst of slow samples.
        let mut samples: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for s in &mut samples[1000..1100] {
            *s = 1e6;
        }
        assert_eq!(window_for(99.0), 1000);
        assert_eq!(window_for(90.0), 100);
        assert_eq!(tail(&samples, 99.0).unwrap().value, 1e6);
        assert_eq!(
            windowed_tail(&samples, 99.0),
            Some(Tail {
                value: 989.0,
                count: 3000
            })
        );
        assert_eq!(windowed_tail(&samples[..999], 99.0), None);
        // One window: the plain percentile.
        assert_eq!(
            windowed_tail(&samples[..1999], 99.0),
            tail(&samples[..1999], 99.0)
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
