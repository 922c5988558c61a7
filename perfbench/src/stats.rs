//! Order statistics over repeated measurements.

/// The percentile of repeated short timings that end-to-end times are
/// read from: each chunk of an `ingest` or `live` pass, the study's
/// passes, and set-up. On the shared 2-vCPU host this benchmark was tuned
/// on, speed switches between two states about 1.7× apart every few
/// seconds, as other tenants come and go, and a run can spend anywhere
/// from a tenth to nine tenths of its time in the faster one. A median of
/// short timings flips between the states with the mix a run happens to
/// get (run-to-run spread above 20 %); the 90th percentile tracks the
/// slower state unless the faster one fills nearly the whole run.
const STEADY_PERCENTILE: f64 = 90.0;

/// The [`STEADY_PERCENTILE`] of repeated timings.
pub(crate) fn steady_ns(samples: &[u64]) -> u64 {
    percentile(samples, STEADY_PERCENTILE)
}

/// Durations of the same stretch of work — chunk `j` of a pass — across
/// repeated passes.
#[derive(Debug, Default)]
pub(crate) struct ChunkTimes {
    by_chunk: Vec<Vec<u64>>,
}

impl ChunkTimes {
    pub(crate) fn record(&mut self, chunk: usize, ns: u64) {
        if self.by_chunk.len() <= chunk {
            self.by_chunk.resize_with(chunk + 1, Vec::new);
        }
        self.by_chunk[chunk].push(ns);
    }

    /// A whole pass assembled from every chunk's [`STEADY_PERCENTILE`]
    /// across passes, in ns. Every chunk counts, so work concentrated in
    /// a few chunks (a table resize, the final drain) still shows.
    pub(crate) fn steady_pass_ns(&self) -> f64 {
        self.by_chunk.iter().map(|v| steady_ns(v) as f64).sum()
    }
}

/// `total / n`, or 0 when nothing was counted.
pub(crate) fn per(total: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub(crate) fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here match the ones a reader recomputes from the raw
/// runs. A single value is its own quartiles; an empty slice reads 0.
pub(crate) fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of integer samples, or
/// `None` unless at least ten samples lie beyond it, so a tail figure is
/// never read off a handful of points.
pub(crate) fn tail_percentile(samples: &[u64], p: f64) -> Option<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n.saturating_sub(rank) < 10 {
        return None;
    }
    v.get(rank - 1).copied()
}

/// Nearest-rank percentile without the tail-depth requirement (for the
/// median and other central figures).
pub(crate) fn percentile(samples: &[u64], p: f64) -> u64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v.get(rank.max(1) - 1).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn steady_pass_sums_each_chunks_percentile() {
        let mut chunks = ChunkTimes::default();
        for (a, b) in [(10, 100), (20, 200), (30, 300), (40, 400)] {
            chunks.record(0, a);
            chunks.record(1, b);
        }
        // Nearest-rank 90th percentile of four samples is the fourth.
        assert_eq!(chunks.steady_pass_ns(), 40.0 + 400.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let few: Vec<u64> = (1..=500).collect();
        assert_eq!(tail_percentile(&few, 99.0), None);
        let many: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&many, 99.0), Some(990));
        assert_eq!(percentile(&many, 50.0), 500);
    }
}
