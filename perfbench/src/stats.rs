//! The benchmark's own arithmetic: order statistics, shares and the
//! adaptive driver's speculative-shot count. Everything here is pure,
//! so the unit tests below pin it exactly.

/// Median of `values` (sorts them in place); the mean of the two middle
/// values for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A latency distribution summarised the way the benchmark reports
/// it: median and p99, each with the number of samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples in the distribution.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Samples strictly above `p99`.
    pub beyond_p99: usize,
}

impl Latency {
    /// Summarises `samples` (sorted in place).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(samples: &mut [f64]) -> Latency {
        samples.sort_by(f64::total_cmp);
        let p99 = percentile(samples, 0.99);
        Latency {
            count: samples.len(),
            p50: percentile(samples, 0.5),
            p99,
            beyond_p99: samples.iter().filter(|&&v| v > p99).count(),
        }
    }
}

/// Share of `samples` strictly above `limit` (0 for no samples).
pub fn share_over(samples: &[f64], limit: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|&&v| v > limit).count() as f64 / samples.len() as f64
}

/// What is left of `total` once every layer's time is taken out.
pub fn residual(total: f64, layers: &[f64]) -> f64 {
    total - layers.iter().sum::<f64>()
}

/// Shots an adaptive run samples to consume `consumed` shots.
///
/// `EvalPipeline::run_adaptive` samples whole chunks of
/// `ceil(chunk_shots / batch_shots)` batches, re-checking its stop rule
/// after each batch only once the chunk is decoded, so the batches of
/// the last chunk after the stopping batch are sampled and thrown away.
/// No run samples past the shot ceiling.
pub fn sampled_shots(consumed: u64, batch_shots: u64, chunk_shots: u64, ceiling: u64) -> u64 {
    let chunk_batches = chunk_shots.div_ceil(batch_shots).max(1);
    let consumed_batches = consumed.div_ceil(batch_shots);
    let chunks = consumed_batches.div_ceil(chunk_batches);
    (chunks * chunk_batches * batch_shots).min(ceiling)
}

/// Share of `sampled` shots that the stop rule never consumed.
pub fn speculative_share(consumed: u64, sampled: u64) -> f64 {
    if sampled == 0 {
        return 0.0;
    }
    (sampled - consumed.min(sampled)) as f64 / sampled as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn latency_counts_the_samples_beyond_p99() {
        let mut samples: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        let l = Latency::of(&mut samples);
        assert_eq!(l.count, 2000);
        assert_eq!(l.p50, 1000.0);
        assert_eq!(l.p99, 1980.0);
        // The report requires at least ten samples beyond the p99.
        assert_eq!(l.beyond_p99, 20);
        // Ties at the percentile are not "beyond" it.
        let mut ties = vec![5.0; 300];
        assert_eq!(Latency::of(&mut ties).beyond_p99, 0);
    }

    #[test]
    fn deadline_share_counts_strictly_late_events() {
        let lat = [1_000.0, 1_900.0, 1_900.5, 15_000.0];
        assert_eq!(share_over(&lat, 1_900.0), 0.5);
        assert_eq!(share_over(&[], 1_900.0), 0.0);
    }

    #[test]
    fn residual_is_what_the_layers_leave() {
        assert_eq!(residual(100.0, &[60.0, 25.0, 10.0]), 5.0);
        assert_eq!(residual(100.0, &[]), 100.0);
        // Layers measured apart from the total can overshoot it.
        assert_eq!(residual(10.0, &[6.0, 6.0]), -2.0);
    }

    #[test]
    fn speculative_shots_fill_the_last_chunk() {
        // 16 batches of 1024 per chunk: a run that stops after 20
        // batches has sampled two whole chunks.
        let sampled = sampled_shots(20 * 1024, 1024, 16 * 1024, 1 << 30);
        assert_eq!(sampled, 32 * 1024);
        assert_eq!(speculative_share(20 * 1024, sampled), 12.0 / 32.0);
        // Stopping exactly on a chunk boundary wastes nothing.
        assert_eq!(
            sampled_shots(16 * 1024, 1024, 16 * 1024, 1 << 30),
            16 * 1024
        );
        // A chunk size that is not a batch multiple rounds up to batches.
        assert_eq!(sampled_shots(1024, 1024, 1500, 1 << 30), 2048);
        // The ceiling truncates the last chunk.
        assert_eq!(sampled_shots(40_000, 1024, 16 * 1024, 40_000), 40_000);
        assert_eq!(speculative_share(40_000, 40_000), 0.0);
    }
}
