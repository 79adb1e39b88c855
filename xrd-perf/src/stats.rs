//! Order statistics over small samples.

/// The value at fractional `rank` of an ascending sample, interpolated
/// between its neighbours and clamped to the sample.
fn at_rank(sorted: &[f64], rank: f64) -> f64 {
    let rank = rank.clamp(0.0, (sorted.len() - 1) as f64);
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "statistic of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median.  Panics on an empty sample: every caller measures at
/// least one round.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    at_rank(&sorted, (sorted.len() - 1) as f64 / 2.0)
}

/// The median, or 0 for an empty sample (a span the workload never
/// opened).
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// The distance between the first and third quartiles as a share of
/// the median: the run-to-run spread `compare` holds against a
/// metric's bound.  Quartiles as Python's `statistics.quantiles(n=4)`
/// gives them (rank `p·(n+1)`, counted from 1), which is what the
/// benchmark's driver computes.
pub fn spread(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let quartile = |p: f64| at_rank(&sorted, p * (sorted.len() + 1) as f64 - 1.0);
    let mid = median(samples);
    if mid == 0.0 {
        0.0
    } else {
        (quartile(0.75) - quartile(0.25)) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_quartiles_interpolate() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median_or_zero(&[]), 0.0);
        // statistics.quantiles([9, 10, 11, 12, 18], n=4) == [9.5, 11, 15]
        assert_eq!(spread(&[12.0, 9.0, 18.0, 10.0, 11.0]), 5.5 / 11.0);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
