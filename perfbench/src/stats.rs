//! Summary statistics for the benchmark's samples.

/// The median of `samples` (mean of the two middle values for an even
/// count). Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A tail percentile of a sample, with the count it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported, in percent.
    pub percentile: u32,
    /// Its value (nearest rank).
    pub value: f64,
    /// How many samples it was taken from.
    pub count: usize,
}

/// The highest whole percentile, at most `cap`, that leaves at least 10
/// samples ranked beyond it, by the nearest-rank rule; `None` when the
/// sample has 10 values or fewer.
pub fn tail(samples: &[f64], cap: u32) -> Option<Tail> {
    let n = samples.len();
    if n <= 10 {
        return None;
    }
    // Nearest rank ceil(p·n/100) ≤ n − 10 exactly when p ≤ 100·(n − 10)/n.
    let percentile = cap.min((100 * (n - 10) / n) as u32);
    let rank = (percentile as usize * n).div_ceil(100).max(1);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        percentile,
        value: sorted[rank - 1],
        count: n,
    })
}

/// The least-squares slope of `ln y` against `ln x`: the exponent `k` of a
/// power law `y = c·x^k` fitted to the points. Needs two distinct `x`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let mean_x = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = logs.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let sxx: f64 = logs.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    assert!(sxx > 0.0, "a slope needs two distinct sizes");
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_recovers_linear_and_quadratic_laws() {
        for (k, c) in [(1.0, 3.0), (2.0, 0.01)] {
            let points: Vec<(f64, f64)> = [25.0, 50.0, 100.0, 200.0, 800.0]
                .iter()
                .map(|&x: &f64| (x, c * x.powf(k)))
                .collect();
            assert!((loglog_slope(&points) - k).abs() < 1e-9, "slope {k}");
        }
    }

    #[test]
    fn slope_averages_out_symmetric_noise() {
        // ±5% alternating noise on y = x²: the fit stays near 2.
        let points: Vec<(f64, f64)> = (1..=8)
            .map(|i| {
                let x = f64::from(i) * 10.0;
                let noise = if i % 2 == 0 { 1.05 } else { 0.95 };
                (x, x * x * noise)
            })
            .collect();
        assert!((loglog_slope(&points) - 2.0).abs() < 0.05);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for (n, expected) in [(11, 9), (50, 80), (100, 90), (200, 95), (1000, 95)] {
            let samples: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let t = tail(&samples, 95).expect("more than ten samples");
            assert_eq!((t.percentile, t.count), (expected, n), "n = {n}");
            let beyond = samples.iter().filter(|&&v| v > t.value).count();
            assert!(beyond >= 10, "n = {n}: {beyond} beyond");
        }
        // At n = 200 the 95th percentile is the 190th value: exactly 10 beyond.
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&samples, 95).map(|t| t.value), Some(190.0));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&[1.0; 10], 95), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
