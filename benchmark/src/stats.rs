//! Order statistics over timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (exclusive method), because that is what the harness judging this
//! benchmark computes: a spread printed here is the spread it sees.

/// Sort a sample in place (timings are never NaN).
fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
/// closest ranks of the sorted sample; 0 for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    sort(&mut v);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// First and third quartile as `statistics.quantiles(v, n=4)` gives
/// them (exclusive method: position `k (n+1) / 4`, clamped to the
/// sample). `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    sort(&mut v);
    let n = v.len();
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median — the spread the
/// benchmark's acceptance rule is stated in. 0 below two samples or
/// for a zero median.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let m = median(samples);
    match quartiles(samples) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Samples strictly beyond the `q`-quantile — the evidence a tail
/// percentile rests on.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let p = percentile(samples, q);
    samples.iter().filter(|&&s| s > p).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.9), 10.0);
        assert_eq!(percentile(&v, 1.0), 11.0);
        assert!((percentile(&[10.0, 20.0], 0.25) - 12.5).abs() < 1e-12);
    }

    /// Reference values from `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // two samples: both cut points clamp into the one interval
        let (q1, q3) = quartiles(&[10.0, 20.0]).unwrap();
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
        assert_eq!(iqr_share(&[5.0]), 0.0);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn beyond_counts_the_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(&v, 0.9), 10);
        assert_eq!(beyond(&v, 0.5), 50);
    }
}
