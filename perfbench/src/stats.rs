//! Order statistics over timing samples.

/// Median and quartiles of a sample set, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub n: usize,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
}

impl Spread {
    /// Quartiles of `values`; a single value is its own spread.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn of(values: &[f64]) -> Spread {
        assert!(!values.is_empty(), "spread of no samples");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        if sorted.len() == 1 {
            let v = sorted[0];
            return Spread {
                n: 1,
                p25: v,
                median: v,
                p75: v,
            };
        }
        Spread {
            n: sorted.len(),
            p25: exclusive_quantile(&sorted, 0.25),
            median: exclusive_quantile(&sorted, 0.5),
            p75: exclusive_quantile(&sorted, 0.75),
        }
    }
}

/// The `q`-quantile of sorted data by the exclusive method
/// (position `q·(n+1)`, clamped to the sample range).
fn exclusive_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let pos = (q * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo >= n {
        return sorted[n - 1];
    }
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

/// The nearest-rank `q`-quantile (`0..=1`) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[rank]
}

/// The `q`-quantile of whole-unit samples (e.g. integer microseconds),
/// reading each sample `v` as spread evenly over `[v, v+1)`. Unlike a
/// nearest-rank quantile it is not stuck on whole units.
pub fn whole_unit_quantile(values: &[u64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let t = q.clamp(0.0, 1.0) * n as f64;
    let v = sorted[(t as usize).min(n - 1)];
    let lo = sorted.partition_point(|&x| x < v);
    let hi = sorted.partition_point(|&x| x <= v);
    v as f64 + ((t - lo as f64) / (hi - lo) as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&v);
        assert_eq!((s.p25, s.median, s.p75), (2.75, 5.5, 8.25));
    }

    #[test]
    fn nearest_rank_quantile() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(Spread::of(&[3.0, 1.0, 2.0]).median, 2.0);
    }

    #[test]
    fn whole_unit_quantile_interpolates_within_a_unit() {
        // Half the samples are 10, half 11: the median sits at the
        // boundary, a quarter of the way into the 10s bucket is 10.5.
        let v = [10, 10, 11, 11];
        assert_eq!(whole_unit_quantile(&v, 0.5), 11.0);
        assert_eq!(whole_unit_quantile(&v, 0.25), 10.5);
        assert_eq!(whole_unit_quantile(&[7], 0.99), 7.99);
    }
}
