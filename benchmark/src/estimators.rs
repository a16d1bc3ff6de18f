//! The estimators every reported number goes through.
//!
//! Timings on a shared two-core box have fat, one-sided noise, so nothing here
//! averages raw samples: a query vertex's cost is the fastest of its samples,
//! a population is summarised by a median and by the highest percentile that
//! still has ten samples beyond it, and throughput is read per slice so that a
//! stall shows as a low quartile rather than vanishing into a mean.

/// Median of `values` (mean of the middle two for an even count). Sorts in place.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Quartiles `(q1, q2, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the driver computes spreads with that
/// function, so `compare` must agree with it to the last digit.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut data = values.to_vec();
    data.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = data.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median: the driver's steadiness
/// measure for a set of runs.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

/// A percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the reported rank.
    pub value: f64,
    /// The percentile actually reported, in `[0, 1]` — lower than asked when
    /// the sample is too small to leave ten samples beyond the asked one.
    pub rank: f64,
    /// Samples strictly beyond the reported one.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The `p`-th percentile of `sorted`, lowered if necessary to the highest
/// percentile that still has at least ten samples beyond it (with twenty or
/// fewer samples that is the median).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_ten_beyond(sorted: &[f64], p: f64) -> Percentile {
    let n = sorted.len();
    assert!(n > 0, "percentile of no samples");
    // Nearest-rank: the smallest sample with at least p·n samples at or below it.
    let asked = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    let index = if n >= 21 { asked.min(n - 11) } else { asked.min(n / 2) };
    Percentile {
        value: sorted[index],
        rank: (index + 1) as f64 / n as f64,
        beyond: n - 1 - index,
        samples: n,
    }
}

/// Per-vertex minimum over passes: `passes[p][v]` is vertex `v`'s time in pass
/// `p`. Interference only ever adds time, so the fastest of a vertex's samples
/// is the one nearest its undisturbed cost; one slow pass (a neighbour's burst,
/// a page fault) moves no vertex's floor.
///
/// # Panics
///
/// Panics if the passes differ in length.
pub fn per_vertex_min<'a>(passes: impl Iterator<Item = &'a Vec<u32>>) -> Vec<f64> {
    let mut floors: Vec<u32> = Vec::new();
    for (p, pass) in passes.enumerate() {
        if p == 0 {
            floors.clone_from(pass);
        } else {
            assert_eq!(pass.len(), floors.len(), "passes over different query sets");
            floors.iter_mut().zip(pass).for_each(|(floor, &t)| *floor = (*floor).min(t));
        }
    }
    floors.into_iter().map(f64::from).collect()
}

/// Events per second in each *complete* `slice_ns`-long slice of
/// `[start_ns, end_ns)`, from event timestamps in any order.
pub fn per_slice_rates(stamps_ns: &[u64], start_ns: u64, end_ns: u64, slice_ns: u64) -> Vec<f64> {
    let slices = (end_ns.saturating_sub(start_ns) / slice_ns) as usize;
    let mut counts = vec![0u64; slices];
    for &stamp in stamps_ns {
        if stamp >= start_ns {
            let slice = ((stamp - start_ns) / slice_ns) as usize;
            if slice < slices {
                counts[slice] += 1;
            }
        }
    }
    counts.into_iter().map(|c| c as f64 * 1e9 / slice_ns as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 30, 20], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 30.0, 20.0]), (10.0, 20.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(spread(&ten), 1.0);
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = percentile_ten_beyond(&thousand, 0.99);
        assert_eq!((p99.value, p99.beyond, p99.samples), (989.0, 10, 1000));
        assert_eq!(p99.rank, 0.99);
        // 200 samples cannot support a p99: the rule lowers it to p95.
        let two_hundred: Vec<f64> = (0..200).map(f64::from).collect();
        let lowered = percentile_ten_beyond(&two_hundred, 0.99);
        assert_eq!((lowered.value, lowered.beyond), (189.0, 10));
        assert_eq!(lowered.rank, 0.95);
        // A median is never lowered, and tiny samples fall back to it.
        assert_eq!(percentile_ten_beyond(&thousand, 0.5).value, 499.0);
        assert_eq!(percentile_ten_beyond(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.99).value, 3.0);
    }

    #[test]
    fn per_vertex_min_ignores_slow_passes() {
        let passes = [vec![10, 25, 30], vec![11, 21, 31], vec![900, 900, 29]];
        assert_eq!(per_vertex_min(passes.iter()), vec![10.0, 21.0, 29.0]);
        assert!(per_vertex_min([].iter()).is_empty());
    }

    #[test]
    fn per_slice_rates_count_complete_slices_only() {
        // Slices of 1000 ns over [100, 3600): three complete slices; the stamp at
        // 3300 falls in the incomplete fourth and the one at 50 precedes the start.
        let stamps = [50, 100, 600, 1099, 1100, 2500, 2600, 2700, 3300];
        let rates = per_slice_rates(&stamps, 100, 3600, 1000);
        assert_eq!(rates, vec![3e6, 1e6, 3e6]);
        let (q1, q2, q3) = quartiles(&rates);
        assert_eq!((q1, q2, q3), (1e6, 3e6, 3e6));
    }
}
