//! Order statistics the metrics are built from.

/// Nearest-rank percentile (`0.0 < p <= 1.0`) of an ascending slice.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles a tail may be reported at, in per mille, highest first.
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest percentile of the ladder that still has at least ten of
/// the `n` samples beyond its nearest rank; `None` when even p75 does not.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|per_mille| n - (n * per_mille).div_ceil(1000) >= 10)
        .map(|per_mille| per_mille as f64 / 1e3)
}

/// Median of unsorted values, interpolating between the middle pair.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sorted copy of `samples` and its median, `None` when empty.
pub fn sorted_p50(samples: &[u64]) -> Option<(Vec<u64>, u64)> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let p50 = percentile(&s, 0.5);
    Some((s, p50))
}

/// Mean over the sites that have samples of each site's median, and
/// the highest of those medians. A pooled percentile of a geo run is
/// multimodal (one mode per site); the per-site medians are not.
pub fn site_medians(per_site: &[Vec<u64>]) -> Option<(f64, u64)> {
    let medians: Vec<u64> = per_site
        .iter()
        .filter_map(|s| sorted_p50(s).map(|(_, p50)| p50))
        .collect();
    let worst = *medians.iter().max()?;
    let mean = medians.iter().sum::<u64>() as f64 / medians.len() as f64;
    Some((mean, worst))
}

/// Fewest acknowledgements a slice may average before its count is too
/// coarse to take a median of (one ack more or less would move it 2%).
const MIN_ACKS_PER_SLICE: usize = 50;

/// Operations per second over `[start_us, end_us)` from acknowledgement
/// events `(time_us, ops_acknowledged)`: the median over whole
/// `slice_us` slices, so that one stalled slice does not move the
/// figure. When slices would average fewer than
/// [`MIN_ACKS_PER_SLICE`] events the whole window is one slice.
pub fn median_slice_rate(acks: &[(u64, u64)], start_us: u64, end_us: u64, slice_us: u64) -> f64 {
    let in_window: Vec<(u64, u64)> = acks
        .iter()
        .copied()
        .filter(|&(t, _)| t >= start_us && t < end_us)
        .collect();
    let slices = ((end_us - start_us) / slice_us) as usize;
    if slices < 2 || in_window.len() / slices < MIN_ACKS_PER_SLICE {
        let ops: u64 = in_window.iter().map(|&(_, n)| n).sum();
        return ops as f64 / ((end_us - start_us) as f64 / 1e6);
    }
    let mut per_slice = vec![0u64; slices];
    for (t, n) in in_window {
        // Events past the last whole slice are left out with it.
        if let Some(cell) = per_slice.get_mut(((t - start_us) / slice_us) as usize) {
            *cell += n;
        }
    }
    let rates: Vec<f64> = per_slice
        .iter()
        .map(|&n| n as f64 / (slice_us as f64 / 1e6))
        .collect();
    median(&rates)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), which is what the acceptance rule is stated in.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// Interquartile range as a share of the median — the run-to-run
/// spread the acceptance rule bounds.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    (q3 - q1) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[7], 0.5), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(0.75));
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn median_slice_ignores_one_stalled_slice() {
        // 200 acks of 5 ops in each of five 1 s slices, except a stall
        // in the third.
        let mut acks = Vec::new();
        for slice in 0..5u64 {
            let n = if slice == 2 { 20 } else { 200 };
            for i in 0..n {
                acks.push((slice * 1_000_000 + i * 1_000, 5));
            }
        }
        assert_eq!(median_slice_rate(&acks, 0, 5_000_000, 1_000_000), 1_000.0);
    }

    #[test]
    fn sparse_acks_use_the_whole_window() {
        let acks: Vec<(u64, u64)> = (0..40).map(|i| (i * 100_000, 1)).collect();
        assert_eq!(median_slice_rate(&acks, 0, 4_000_000, 1_000_000), 10.0);
    }

    #[test]
    fn site_medians_average_per_site_not_pooled() {
        // Pooled, the median would be 10; the sites' medians are 10 and 100.
        let per_site = vec![vec![10, 10, 10, 10, 10], vec![100], vec![]];
        assert_eq!(site_medians(&per_site), Some((55.0, 100)));
        assert_eq!(site_medians(&[vec![], vec![]]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(relative_spread(&v), 1.0);
    }
}
