//! Nearest-rank percentiles that refuse to report a tail they cannot see.
//!
//! A p99 over 150 samples is the second-largest value: one noisy sample
//! moves it. The helper therefore reports a percentile only when at least
//! [`MIN_BEYOND`] samples lie strictly beyond its rank, and always hands
//! back the sample count so the report can print it next to the value.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile and the number of samples it was taken over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Percentile {
    /// The sample at the percentile's nearest rank.
    pub value: u64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// The nearest-rank `p`th percentile of `sorted` (ascending): the sample
/// at rank `ceil(p * n / 100)`, i.e. the smallest sample with at least
/// `p`% of all samples at or below it.
///
/// Refuses (returns the reason) when fewer than [`MIN_BEYOND`] samples lie
/// beyond that rank, and when `p` is not in `1..=100`.
pub fn nearest_rank(sorted: &[u64], p: u32) -> Result<Percentile, String> {
    if !(1..=100).contains(&p) {
        return Err(format!("percentile p{p} is outside 1..=100"));
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    let n = sorted.len();
    let rank = (p as usize * n).div_ceil(100);
    let beyond = n.saturating_sub(rank.max(1));
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Median of `values` (mean of the two middle values for an even count).
/// Used across repetitions of one run, never across individual ops.
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        // Rank ceil(0.5 * 1000) = 500 -> value 500; 500 samples beyond.
        assert_eq!(
            nearest_rank(&v, 50),
            Ok(Percentile {
                value: 500,
                samples: 1000
            })
        );
        // Rank ceil(0.99 * 1000) = 990 -> value 990; exactly 10 beyond.
        assert_eq!(nearest_rank(&v, 99).map(|p| p.value), Ok(990));
        // 1001 samples: rank ceil(990.99) = 991.
        let v: Vec<u64> = (1..=1001).collect();
        assert_eq!(nearest_rank(&v, 99).map(|p| p.value), Ok(991));
        assert_eq!(nearest_rank(&v, 50).map(|p| p.value), Ok(501));
    }

    #[test]
    fn nearest_rank_refuses_a_thin_tail() {
        // 999 samples: p99 rank = 990, only 9 beyond.
        let v: Vec<u64> = (1..=999).collect();
        assert!(nearest_rank(&v, 99).is_err());
        // p50 still has plenty beyond it.
        assert!(nearest_rank(&v, 50).is_ok());
        // 20 samples: p50 rank 10, exactly 10 beyond; 19 samples is too few.
        let v: Vec<u64> = (0..20).collect();
        assert_eq!(nearest_rank(&v, 50).map(|p| p.value), Ok(9));
        assert!(nearest_rank(&v[..19], 50).is_err());
        assert!(nearest_rank(&[], 50).is_err());
        assert!(nearest_rank(&v, 0).is_err());
        assert!(nearest_rank(&v, 101).is_err());
    }

    #[test]
    fn nearest_rank_handles_duplicates() {
        let mut v = vec![7u64; 500];
        v.extend(std::iter::repeat_n(9, 500));
        assert_eq!(nearest_rank(&v, 50).map(|p| p.value), Ok(7));
        assert_eq!(nearest_rank(&v, 99).map(|p| p.value), Ok(9));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
