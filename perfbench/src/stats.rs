//! Order statistics over timing samples.

/// Linear-interpolated quantile `q` in `[0, 1]` of `samples` (sorted
/// internally). Returns `0.0` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of the slowest `share` of `samples` (at least one sample): a tail
/// figure that, unlike a percentile, does not jump when the percentile
/// falls between two groups of very different latencies.
pub fn top_mean(samples: &[f64], share: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let k = ((samples.len() as f64 * share).ceil() as usize).clamp(1, samples.len());
    sorted[..k].iter().sum::<f64>() / k as f64
}

/// The highest of the percentiles 99.9, 99, 95, 90 and 75 that still has
/// at least ten samples beyond it, with its value; `None` when there are
/// too few samples for even the 75th.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len() as f64;
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .map(|p| (p, quantile(samples, p / 100.0)))
}

/// `"median X (pNN Y, min A, max B, n=N)"` summary of one timing; the
/// percentile is left out when fewer than ten samples lie beyond p75.
pub fn summary(samples: &[f64]) -> String {
    let n = samples.len();
    let tail = tail(samples).map_or(String::new(), |(p, v)| format!("p{p} {v:.4}, "));
    format!(
        "median {:.4} ({tail}min {:.4}, max {:.4}, n={n})",
        median(samples),
        quantile(samples, 0.0),
        quantile(samples, 1.0)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn top_mean_averages_the_slowest_share() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(top_mean(&s, 0.01), 199.5);
        assert_eq!(top_mean(&s[..10], 0.01), 10.0);
        assert_eq!(top_mean(&[], 0.01), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&s).map(|t| t.0), Some(99.0));
        let s: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&s).map(|t| t.0), Some(95.0));
        assert!(tail(&s[..30]).is_none());
    }
}
