//! Order statistics over per-operation samples.

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail latency: the highest percentile with at least ten samples
/// beyond it. Returns `(value, percentile, sample count)`; with ten or
/// fewer samples it degrades to the maximum at percentile 100.
pub fn tail(samples: &[f64]) -> (f64, f64, usize) {
    let n = samples.len();
    if n == 0 {
        return (0.0, 100.0, 0);
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if n <= 10 {
        return (v[n - 1], 100.0, n);
    }
    // Nearest rank `n - 10` leaves exactly ten samples above it.
    let rank = n - 10;
    (v[rank - 1], 100.0 * rank as f64 / n as f64, n)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}
