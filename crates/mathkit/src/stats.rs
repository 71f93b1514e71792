//! Small statistics helpers used by the benchmark harness.

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation. Returns 0.0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Geometric mean of positive values; zeros/negatives are skipped.
/// The paper's "235× improvement" style aggregates are geometric means of
/// per-benchmark ratios.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().filter(|&&x| x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// Linear-interpolated percentile, `q ∈ [0, 100]`.
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is out of range.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&q), "percentile out of range");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let pos = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// The value held by more than half of `items`, if any: a Boyer–Moore
/// vote, confirmed by a count.
pub fn strict_majority<T: Copy + PartialEq>(items: impl Iterator<Item = T> + Clone) -> Option<T> {
    let (mut held, mut votes, mut len) = (None, 0usize, 0);
    for item in items.clone() {
        len += 1;
        if votes == 0 {
            held = Some(item);
        }
        votes = if held == Some(item) {
            votes + 1
        } else {
            votes - 1
        };
    }
    let held = held?;
    (2 * items.filter(|&item| item == held).count() > len).then_some(held)
}

/// Inverse-transform sampling: the slot a draw `r ∈ [0, total)` lands on
/// in a cumulative probability table, the first slot whose cumulative
/// probability reaches `r`. A draw of exactly zero lands on the first slot
/// with positive probability, so no draw picks a slot of probability
/// zero.
pub fn draw_slot(cumulative: &[f64], r: f64) -> usize {
    let slot = cumulative.partition_point(|&c| c < r || c <= 0.0);
    slot.min(cumulative.len() - 1)
}

/// A guide table over a cumulative probability table: eight buckets per
/// slot (at most 65,536 buckets, at least one per slot) over
/// `[0, total]` and the first slot of each. Bucketing is
/// monotone, so a draw in bucket `b` lands in `starts[b]..=starts[b + 1]`
/// and [`GuideTable::slot`] finds [`draw_slot`]'s answer there, mostly
/// without a search.
#[derive(Debug, Default)]
pub struct GuideTable {
    starts: Vec<u32>,
    scale: f64,
    tally: Vec<u64>,
}

impl GuideTable {
    fn bucket(&self, x: f64) -> usize {
        ((x * self.scale) as usize).min(self.starts.len() - 2)
    }

    /// Rebuilds the table for `cumulative` (non-empty, non-decreasing).
    pub fn build(&mut self, cumulative: &[f64]) {
        let buckets = cumulative.len().max((8 * cumulative.len()).min(1 << 16));
        self.scale = buckets as f64 / cumulative[cumulative.len() - 1];
        self.starts.clear();
        self.starts.resize(buckets + 1, 0);
        let mut slot = 0;
        for b in 0..=buckets {
            while slot < cumulative.len() && self.bucket(cumulative[slot]) < b {
                slot += 1;
            }
            self.starts[b] = slot as u32;
        }
    }

    /// [`draw_slot`] of `r` on the table this guide was built for.
    pub fn slot(&self, cumulative: &[f64], r: f64) -> usize {
        let b = self.bucket(r);
        let (lo, hi) = (self.starts[b] as usize, self.starts[b + 1] as usize);
        let slot = lo + cumulative[lo..hi].partition_point(|&c| c < r || c <= 0.0);
        slot.min(cumulative.len() - 1)
    }

    /// Counts `shots` draws per slot of `cumulative` (the table this guide
    /// was built for): each lands on [`GuideTable::slot`] of
    /// `uniform() · total`, `total` being the table's last entry.
    pub fn tally(
        &mut self,
        cumulative: &[f64],
        shots: u64,
        mut uniform: impl FnMut() -> f64,
    ) -> &[u64] {
        let total = cumulative[cumulative.len() - 1];
        let mut tally = std::mem::take(&mut self.tally);
        tally.clear();
        tally.resize(cumulative.len(), 0);
        for _ in 0..shots {
            tally[self.slot(cumulative, uniform() * total)] += 1;
        }
        self.tally = tally;
        &self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        // zeros skipped
        assert!((geometric_mean(&[0.0, 4.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn online_stats_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut acc = OnlineStats::new();
        for &x in &xs {
            acc.push(x);
        }
        assert_eq!(acc.count(), 8);
        assert!((acc.mean() - mean(&xs)).abs() < 1e-12);
        assert!((acc.std_dev() - std_dev(&xs)).abs() < 1e-12);
        assert_eq!(acc.min(), 2.0);
        assert_eq!(acc.max(), 9.0);
    }

    /// `partition_point`'s answer, with a draw of zero moved to the
    /// first slot of positive probability.
    fn reference_slot(cumulative: &[f64], r: f64) -> usize {
        let slot = if r == 0.0 {
            cumulative.partition_point(|&c| c <= 0.0)
        } else {
            cumulative.partition_point(|&c| c < r)
        };
        slot.min(cumulative.len() - 1)
    }

    #[test]
    fn guide_table_lands_where_partition_point_does() {
        let tables: [&[f64]; 6] = [
            &[1.0],
            &[0.0, 0.0, 0.25, 0.25, 0.25, 0.5, 1.0],
            &[0.0, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0],
            &[
                0.1,
                0.2,
                0.30000000000000004,
                0.4,
                0.5,
                0.6,
                0.7,
                0.8,
                0.9,
                1.0,
            ],
            &[
                0.0,
                0.0,
                0.0,
                1e-300,
                0.999_999_999_999,
                0.999_999_999_999,
                1.0,
            ],
            &[0.0, 0.0, 3.0, 3.0, 3.0, 7.5],
        ];
        let mut guide = GuideTable::default();
        for cumulative in tables {
            guide.build(cumulative);
            let total = cumulative[cumulative.len() - 1];
            let buckets = guide.starts.len() - 1;
            let edges = (0..=buckets).map(|b| b as f64 * total / buckets as f64);
            // Every table value and its neighbours, every bucket edge and
            // its neighbours, and a sweep of ordinary draws.
            let mut draws = vec![0.0, total, f64::MIN_POSITIVE];
            for x in cumulative.iter().copied().chain(edges) {
                draws.extend([x, x.next_down(), x.next_up()]);
            }
            draws.extend((0..1000).map(|i| i as f64 / 1000.0 * total));
            for r in draws.into_iter().filter(|r| (0.0..=total).contains(r)) {
                let want = reference_slot(cumulative, r);
                assert_eq!(draw_slot(cumulative, r), want, "{cumulative:?} r={r}");
                assert_eq!(guide.slot(cumulative, r), want, "{cumulative:?} r={r}");
            }
        }
    }

    #[test]
    fn strict_majority_needs_more_than_half() {
        assert_eq!(strict_majority([3, 1, 3, 2, 3].into_iter()), Some(3));
        assert_eq!(strict_majority([1, 3, 3, 1].into_iter()), None);
        assert_eq!(strict_majority([1, 2, 3].into_iter()), None);
        assert_eq!(strict_majority([7].into_iter()), Some(7));
        assert_eq!(strict_majority(std::iter::empty::<u8>()), None);
    }

    #[test]
    fn a_zero_draw_skips_zero_probability_slots() {
        assert_eq!(draw_slot(&[0.0, 0.0, 0.5, 1.0], 0.0), 2);
        assert_eq!(draw_slot(&[0.25, 1.0], 0.0), 0);
    }
}
