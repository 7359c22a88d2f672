//! Order statistics over timing samples.

/// What a set of samples reduces to in a report.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// `(percentile, value)` of the highest percentile that still has ten
    /// samples beyond it; `None` below twenty samples, where only the
    /// median is reported.
    pub tail: Option<(f64, f64)>,
    /// Interquartile range over the median — the samples' own estimate
    /// of rep-to-rep spread — or 0 with fewer than four samples, whose
    /// quartiles are the samples themselves.
    pub spread: f64,
}

/// The `p`-th percentile (0–100) of ascending `sorted`, nearest rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * p / 100.0).round() as usize]
}

/// Sorts `samples` ascending (timings are never NaN).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Reduces `samples` (at least one) to a [`Summary`].
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    let tail = (n >= 20).then(|| {
        let rank = n - 11;
        (100.0 * rank as f64 / (n - 1) as f64, sorted[rank])
    });
    let median = median_of_sorted(&sorted);
    let spread = if n < 4 || median == 0.0 {
        0.0
    } else {
        (percentile(&sorted, 75.0) - percentile(&sorted, 25.0)) / median.abs()
    };
    Summary { n, median, min: sorted[0], max: sorted[n - 1], tail, spread }
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The lower quartile of `samples` (at least one): what a timing reads
/// when noise only ever adds to it.
pub fn lower_quartile(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    percentile(&sorted, 25.0)
}

/// The median of `samples` (at least one).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(summarize(&few).tail, None);
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        // Rank 9 of 0..=19 has exactly ten samples above it.
        assert_eq!(summarize(&twenty).tail.unwrap().1, 9.0);
        let many: Vec<f64> = (0..1001).map(f64::from).collect();
        let (pct, value) = summarize(&many).tail.unwrap();
        assert_eq!((pct, value), (99.0, 990.0));
    }

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        assert_eq!(summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]).spread, 2.0 / 3.0);
        assert_eq!(summarize(&[7.0]).spread, 0.0);
        assert_eq!(summarize(&[4.0, 4.1, 6.0]).spread, 0.0);
    }

    #[test]
    fn lower_quartile_of_few_and_many() {
        assert_eq!(lower_quartile(&[5.0]), 5.0);
        assert_eq!(lower_quartile(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(lower_quartile(&[5.0, 4.0, 1.0, 3.0, 2.0]), 2.0);
        let many: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&many), 25.0);
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let sorted: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
    }
}
