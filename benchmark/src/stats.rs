//! Order statistics over the small sample sets the harness collects.

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted `values`;
/// NaN for an empty set so a missing sample can never read as a fast one.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method: positions `(n + 1) · k / 4`), which
/// is what the driver applies to ten runs. NaN below two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 2 {
        return (f64::NAN, f64::NAN);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        let pos = (n + 1) as f64 * k as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range.
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

/// IQR as a share of the median: the spread the bounds are held against.
pub fn spread(values: &[f64]) -> f64 {
    iqr(values) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates_and_clamps() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&v, 0.25), 20.0);
        assert!((percentile(&v, 0.9) - 46.0).abs() < 1e-9);
        assert_eq!(percentile(&v, 7.0), 50.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!(iqr(&[1.0]).is_nan());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
