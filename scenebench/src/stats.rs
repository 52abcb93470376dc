//! Order statistics, the tail-percentile rule, failure accounting and span
//! self time: the arithmetic every reported number goes through.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "median of no samples");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method, which
/// extrapolates linearly past the ends of very small samples), so the
/// spreads this benchmark prints match the ones its acceptance check
/// computes. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    assert!(s.len() >= 2, "quartiles need two samples");
    let len = s.len();
    let at = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Percentiles the tail metric may report, highest first. A coarse fixed
/// ladder (rather than "the highest percentile the sample count allows")
/// keeps the reported percentile the same from run to run while the
/// sample count drifts: every count from 100 to 999 reports p90.
pub const TAIL_LADDER: [f64; 4] = [99.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail of a sample: the highest percentile of [`TAIL_LADDER`] that
/// still has [`TAIL_MIN_BEYOND`] samples beyond it, by the nearest-rank
/// rule (the value at rank `ceil(p/100 * n)`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported; 100 (the maximum) when no ladder step has
    /// enough samples beyond it.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly above that rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Picks the tail percentile of `xs` (see [`Tail`]).
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    assert!(!s.is_empty(), "tail of no samples");
    let n = s.len();
    for p in TAIL_LADDER {
        // The epsilon keeps float error in p * n from bumping an exact rank.
        let rank = (p * n as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize;
        if n - rank >= TAIL_MIN_BEYOND {
            return Tail {
                percentile: p,
                value: s[rank - 1],
                beyond: n - rank,
                samples: n,
            };
        }
    }
    Tail {
        percentile: 100.0,
        value: s[n - 1],
        beyond: 0,
        samples: n,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Scenes attempted and scenes failed. A scene fails when its result
/// differs from the sequential oracle, when the parallel phase returned an
/// error, or when a task dead-lettered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Scenes run.
    pub attempted: u64,
    /// Scenes that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one scene.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed scenes over attempted scenes (0 when nothing ran).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Total length of the union of `intervals` (each `(start, end)`).
/// Overlapping intervals — children that ran at the same time on two
/// worker threads — count once.
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = ce.max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a span: its duration minus the part of its interval its
/// children cover (the union of the children, clipped to the parent).
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .collect();
    (span.1 - span.0) - union_len(&clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_and_reports_the_count() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 leaves 1 beyond: p90 is the highest with 10.
        let t = tail(&xs);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!((t.beyond, t.samples), (10, 100));

        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 90.0);

        // 99 samples: p90 has only 9 beyond, so the rule steps down.
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.percentile, 75.0);
        assert!(t.beyond >= TAIL_MIN_BEYOND);

        // Too few samples for any ladder step: the maximum, labelled so.
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.percentile, t.value, t.beyond), (100.0, 3.0, 0));
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A phase of 10 ms whose tasks ran on two workers: [1,5] and
        // [2,6] overlap, [8,9] stands alone. Union = 5 + 1 = 6, so the
        // phase's self time is 4 — the sum of the children (9) would
        // wrongly drive it negative.
        let children = [(1.0, 5.0), (2.0, 6.0), (8.0, 9.0)];
        assert_eq!(union_len(&children), 6.0);
        assert_eq!(self_time((0.0, 10.0), &children), 4.0);
        // Nested and identical intervals count once.
        assert_eq!(union_len(&[(0.0, 4.0), (1.0, 2.0), (0.0, 4.0)]), 4.0);
        // Children are clipped to the parent's interval.
        assert_eq!(self_time((2.0, 4.0), &[(0.0, 3.0)]), 1.0);
        // A leaf's self time is its duration.
        assert_eq!(self_time((1.5, 2.0), &[]), 0.5);
    }
}
