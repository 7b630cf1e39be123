//! Order statistics the harness reports: the median and the tail
//! percentile the sample count can support.

/// Median of `values` (mean of the two middle elements for even counts).
/// Panics on an empty slice — every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The highest percentile that still has at least `beyond` samples above
/// it, and the value at that percentile: with 100 samples and
/// `beyond = 10` that is p90. Returns `(percentile, value)`; with fewer
/// than `beyond + 1` samples the maximum is all that can be said, and it
/// is reported as percentile 0 so nobody mistakes it for a tail estimate.
pub fn tail(values: &[f64], beyond: usize) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= beyond {
        return (0.0, v[n - 1]);
    }
    let idx = n - beyond - 1;
    (100.0 * (idx + 1) as f64 / n as f64, v[idx])
}
