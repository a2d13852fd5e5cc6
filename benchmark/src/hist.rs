//! Preallocated log-bucket latency histogram: 64 sub-buckets per power
//! of two (≤ 1.6 % relative bucket width), O(1) record, no allocation
//! after construction — so the timed loop can log every call.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values below `SUB` get one bucket each; every octave above gets `SUB`.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Latency histogram over `u64` nanoseconds.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // ≥ SUB_BITS
    let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
    (((exp - SUB_BITS + 1) as u64) << SUB_BITS | sub) as usize
}

/// Inclusive lower edge and width of bucket `b`.
fn bucket_range(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < SUB {
        return (b, 1);
    }
    let shift = (b >> SUB_BITS) - 1;
    let lo = (SUB | (b & (SUB - 1))) << shift;
    (lo, 1 << shift)
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    /// An empty histogram with every bucket allocated.
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    /// Log one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the midpoint of the bucket
    /// holding the sample of rank `ceil(q · n)`; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, width) = bucket_range(b);
                return Some(lo as f64 + (width - 1) as f64 / 2.0);
            }
        }
        unreachable!("rank ≤ total")
    }

    /// Median, when any sample was logged.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// 99th percentile, reported only when at least ten samples lie
    /// beyond it (n ≥ 1000) — below that it is one outlier's value.
    pub fn p99(&self) -> Option<f64> {
        (self.total >= 1000).then(|| self.quantile(0.99)).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_u64_range() {
        // every bucket's range maps back to itself, edges included
        for b in 0..BUCKETS {
            let (lo, width) = bucket_range(b);
            assert_eq!(bucket_of(lo), b, "lower edge of bucket {b}");
            assert_eq!(bucket_of(lo + (width - 1)), b, "upper edge of bucket {b}");
            if b + 1 < BUCKETS {
                assert_eq!(bucket_range(b + 1).0, lo + width, "gap after bucket {b}");
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Hist::new();
        for v in [3u64, 3, 3, 9] {
            h.record(v);
        }
        assert_eq!(h.p50(), Some(3.0));
        assert_eq!(h.quantile(1.0), Some(9.0));
        assert_eq!(h.p99(), None, "four samples cannot carry a p99");
    }

    #[test]
    fn percentile_edges() {
        let mut h = Hist::new();
        assert_eq!(h.p50(), None);
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        let p50 = h.p50().unwrap();
        let p99 = h.p99().unwrap();
        // rank 500 → 50 000, rank 990 → 99 000, within one bucket width
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.02, "p50 {p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.02, "p99 {p99}");
        assert!(h.quantile(1.0).unwrap() >= p99);
    }
}
