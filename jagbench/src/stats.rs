//! Order statistics for latency samples.

/// Median of `samples` (the mean of the two middle values for an even
/// count). `None` when empty: an absent metric, never a 0.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The tail a sample supports: the highest of p90 / p99 / p99.9 / p99.99
/// that still has at least [`Tail::MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    /// 1-based rank of `value` in the sorted sample (nearest-rank).
    pub rank: usize,
    pub samples: usize,
}

impl Tail {
    pub const MIN_BEYOND: usize = 10;
    /// In hundredths of a percent, so ranks are exact integer arithmetic.
    const CANDIDATES: [usize; 4] = [9_000, 9_900, 9_990, 9_999];

    /// `None` when even p90 has fewer than ten samples beyond it.
    pub fn of(samples: &[f64]) -> Option<Tail> {
        let n = samples.len();
        let rank_of = |p: usize| (n * p).div_ceil(10_000);
        let p = Self::CANDIDATES
            .into_iter()
            .rev()
            .find(|&p| n - rank_of(p) >= Self::MIN_BEYOND)?;
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = rank_of(p);
        Some(Tail {
            percentile: p as f64 / 100.0,
            value: sorted[rank - 1],
            rank,
            samples: n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the functions must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.5));
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(Tail::of(&ramp(99)), None, "p90 of 99 leaves only 9 beyond");
        let t = Tail::of(&ramp(100)).unwrap();
        assert_eq!(
            (t.percentile, t.rank, t.value, t.samples),
            (90.0, 90, 90.0, 100)
        );
        // 999 samples: p99 has rank 990, 9 beyond — still p90.
        assert_eq!(Tail::of(&ramp(999)).unwrap().percentile, 90.0);
        let t = Tail::of(&ramp(1_000)).unwrap();
        assert_eq!((t.percentile, t.rank, t.value), (99.0, 990, 990.0));
        let t = Tail::of(&ramp(10_000)).unwrap();
        assert_eq!((t.percentile, t.rank), (99.9, 9_990));
        let t = Tail::of(&ramp(100_000)).unwrap();
        assert_eq!((t.percentile, t.rank), (99.99, 99_990));
        assert_eq!(t.samples - t.rank, Tail::MIN_BEYOND);
    }
}
