//! Summaries over repeats: a reported value with the quartiles of the
//! samples behind it, computed the way Python's
//! `statistics.quantiles(values, n=4)` does (exclusive method), so
//! spreads printed here match the ones the repo driver computes from
//! the same numbers.

/// One reported number with the quartiles of its `n` samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The reported value: the median of the samples, their lowest
    /// ([`Stat::lowest`]), or the single measured value.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples summarised.
    pub n: usize,
}

impl Stat {
    /// A single measurement (counts, one-shot timings).
    pub fn one(value: f64) -> Stat {
        Stat {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Median and quartiles of `samples` (at least one).
    pub fn of(samples: &[f64]) -> Stat {
        assert!(!samples.is_empty(), "a statistic needs a sample");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let [q1, value, q3] = quartiles(&s);
        Stat {
            value,
            q1,
            q3,
            n: s.len(),
        }
    }

    /// The lowest of `samples`, with their quartiles: repeats of
    /// identical work on a host whose interference only ever adds time.
    pub fn lowest(samples: &[f64]) -> Stat {
        let all = Stat::of(samples);
        Stat {
            value: samples.iter().copied().fold(f64::INFINITY, f64::min),
            ..all
        }
    }

    /// The same statistic in another unit: `f` applied to the value and
    /// both quartiles (`f` increasing).
    pub fn map(self, f: impl Fn(f64) -> f64) -> Stat {
        Stat {
            value: f(self.value),
            q1: f(self.q1),
            q3: f(self.q3),
            n: self.n,
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0).
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.value).abs()
        }
    }
}

/// `[q1, median, q3]` of sorted data, exclusive method; a single sample
/// is all three.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Median of `samples` (at least one).
pub fn median(samples: &[f64]) -> f64 {
    Stat::of(samples).value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let s = Stat::of(&[7.0, 1.0, 3.0, 2.0, 6.0, 5.0, 4.0]);
        assert_eq!((s.q1, s.value, s.q3, s.n), (2.0, 4.0, 6.0, 7));
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let t = Stat::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((t.q1, t.value, t.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let u = Stat::of(&[10.0, 20.0]);
        assert_eq!((u.q1, u.value, u.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn lowest_keeps_the_quartiles_of_all_samples() {
        let s = Stat::lowest(&[7.0, 1.0, 3.0, 2.0, 6.0, 5.0, 4.0]);
        assert_eq!((s.value, s.q1, s.q3, s.n), (1.0, 2.0, 6.0, 7));
        assert_eq!(Stat::lowest(&[2.5]).value, 2.5);
    }

    #[test]
    fn single_sample_and_spread() {
        let s = Stat::one(3.5);
        assert_eq!((s.q1, s.value, s.q3, s.n), (3.5, 3.5, 3.5, 1));
        assert_eq!(s.spread(), 0.0);
        assert_eq!(Stat::of(&[2.0]).value, 2.0);
        let t = Stat::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(t.spread(), 1.0);
        assert_eq!(Stat::one(0.0).spread(), 0.0);
    }
}
