//! Summary statistics the benchmark reports: medians, trimmed means,
//! nearest-rank percentiles with their tail sample counts, and failure
//! ratios.

/// Median of a sample (mean of the middle two for an even count); `None`
/// for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Mean of a sample after dropping its lowest and highest `trim` share
/// (`0 <= trim < 0.5`, rounded down to whole samples); `None` for an empty
/// sample. Unlike the median, it moves in proportion to the share of
/// samples in each mode of a bimodal sample instead of jumping between
/// the modes.
pub fn trimmed_mean(xs: &[f64], trim: f64) -> Option<f64> {
    let s = sorted(xs);
    let cut = (s.len() as f64 * trim) as usize;
    let kept = &s[cut..s.len() - cut];
    (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`): the smallest sample
/// with at least `p`% of the sample at or below it. `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    (!s.is_empty()).then(|| s[rank(s.len(), p) - 1])
}

/// How many samples of `n` lie beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of `candidates` (ascending percentiles) that has at least
/// `min_beyond` samples beyond it, out of `n`.
pub fn highest_supported(n: usize, candidates: &[f64], min_beyond: usize) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .rfind(|&p| beyond(n, p) >= min_beyond)
}

/// Failed operations over attempted ones; 0 when nothing was attempted.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
