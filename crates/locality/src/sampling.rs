//! Bursty sampling for online MRC analysis (paper Section III-C).
//!
//! Execution is partitioned into *bursts* and *hibernation* periods.
//! During a burst the sampler records the persistent write stream; at
//! burst end it computes the MRC and the controller adjusts the cache
//! capacity. The paper uses a burst of 64M writes and finds one analysis
//! sufficient, so hibernation defaults to infinite; finite hibernation is
//! supported as the paper's suggested extension (periodic re-adaptation).

use crate::mrc::Mrc;
use crate::reuse::reuse_all_k;

/// State of a [`BurstSampler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerPhase {
    /// Recording writes into the current burst.
    Burst,
    /// Ignoring writes until `remaining` more have passed.
    Hibernating {
        /// Writes left to skip before the next burst.
        remaining: u64,
    },
    /// Analysis done and hibernation is infinite: sampler is off.
    Done,
}

/// Online burst sampler: feed every persistent write id (FASE-renamed);
/// it yields an [`Mrc`] at the end of each burst.
#[derive(Debug, Clone)]
pub struct BurstSampler {
    burst_len: usize,
    hibernation: Option<u64>,
    max_size: usize,
    buf: Vec<u64>,
    phase: SamplerPhase,
    bursts_done: usize,
}

impl BurstSampler {
    /// New sampler: record `burst_len` writes per burst and build MRCs up
    /// to `max_size`. `hibernation = None` means analyze exactly once
    /// (paper default); `Some(h)` skips `h` writes between bursts.
    pub fn new(burst_len: usize, max_size: usize, hibernation: Option<u64>) -> Self {
        assert!(burst_len > 0);
        BurstSampler {
            burst_len,
            hibernation,
            max_size,
            buf: Vec::with_capacity(burst_len.min(1 << 20)),
            phase: SamplerPhase::Burst,
            bursts_done: 0,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> SamplerPhase {
        self.phase
    }

    /// Number of completed bursts.
    pub fn bursts_done(&self) -> usize {
        self.bursts_done
    }

    /// Writes currently buffered in the active burst.
    pub fn buffered(&self) -> usize {
        if self.phase == SamplerPhase::Burst {
            self.buf.len()
        } else {
            0
        }
    }

    /// The write ids the last completed burst analysed; empty before the
    /// first analysis and once the next burst has started. The window
    /// stays in the burst buffer until then, so keeping it copies nothing.
    pub fn last_window(&self) -> &[u64] {
        if self.phase == SamplerPhase::Burst {
            &[]
        } else {
            &self.buf
        }
    }

    /// Observe one write. Returns `Some(mrc)` exactly when this write
    /// completes a burst.
    pub fn push(&mut self, id: u64) -> Option<Mrc> {
        match self.phase {
            SamplerPhase::Done => None,
            SamplerPhase::Hibernating { remaining } => {
                if remaining <= 1 {
                    // the next burst starts: the analysed window goes
                    self.buf.clear();
                    self.phase = SamplerPhase::Burst;
                } else {
                    self.phase = SamplerPhase::Hibernating {
                        remaining: remaining - 1,
                    };
                }
                None
            }
            SamplerPhase::Burst => {
                self.buf.push(id);
                if self.buf.len() >= self.burst_len {
                    let mrc = self.analyze();
                    self.bursts_done += 1;
                    self.phase = match self.hibernation {
                        None => SamplerPhase::Done,
                        Some(h) => SamplerPhase::Hibernating { remaining: h },
                    };
                    Some(mrc)
                } else {
                    None
                }
            }
        }
    }

    /// Force analysis of whatever is buffered (e.g. the program ended
    /// before the burst filled). Returns `None` when no burst is open or
    /// it is empty.
    pub fn flush(&mut self) -> Option<Mrc> {
        if self.buffered() == 0 {
            return None;
        }
        let mrc = self.analyze();
        self.bursts_done += 1;
        self.phase = SamplerPhase::Done;
        Some(mrc)
    }

    fn analyze(&self) -> Mrc {
        Mrc::from_reuse(&reuse_all_k(&self.buf), self.max_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knee::{select_cache_size, KneeConfig};

    #[test]
    fn burst_completes_exactly_once_with_infinite_hibernation() {
        let mut s = BurstSampler::new(100, 50, None);
        let mut got = 0;
        for i in 0..1000u64 {
            if s.push(i % 7).is_some() {
                got += 1;
            }
        }
        assert_eq!(got, 1);
        assert_eq!(s.phase(), SamplerPhase::Done);
        assert_eq!(s.bursts_done(), 1);
    }

    #[test]
    fn sampled_mrc_finds_the_same_knee_as_full_trace() {
        // Fig 7's claim: the sampled MRC has the same inflection points.
        let w = 23u64;
        let full: Vec<u64> = (0..200_000).map(|i| i % w).collect();
        let mut s = BurstSampler::new(10_000, 50, None);
        let mut sampled = None;
        for &id in &full {
            if let Some(m) = s.push(id) {
                sampled = Some(m);
            }
        }
        let sampled = sampled.unwrap();
        let full_mrc = Mrc::from_reuse(&reuse_all_k(&full), 50);
        let cfg = KneeConfig::default();
        let a = select_cache_size(&sampled, &cfg);
        let b = select_cache_size(&full_mrc, &cfg);
        assert!((a as i64 - b as i64).abs() <= 1, "sampled {a} vs full {b}");
    }

    #[test]
    fn finite_hibernation_rearms() {
        let mut s = BurstSampler::new(10, 8, Some(5));
        let mut bursts = 0;
        for i in 0..100u64 {
            if s.push(i % 3).is_some() {
                bursts += 1;
            }
        }
        // period = 10 (burst) + 5 (hibernate) = 15 → ⌊100/15⌋+ bursts
        assert!(bursts >= 6, "bursts={bursts}");
    }

    #[test]
    fn flush_analyzes_partial_burst() {
        let mut s = BurstSampler::new(1000, 16, None);
        for i in 0..50u64 {
            assert!(s.push(i % 4).is_none());
        }
        let mrc = s.flush().expect("partial burst");
        assert!(mrc.mr(4) < 0.2);
        assert!(s.flush().is_none(), "buffer drained");
    }

    #[test]
    fn the_analysed_window_stays_until_the_next_burst() {
        let mut s = BurstSampler::new(4, 8, Some(2));
        for id in 0..3u64 {
            s.push(id);
            assert!(s.last_window().is_empty(), "no burst analysed yet");
        }
        assert!(s.push(3).is_some());
        assert_eq!(s.last_window(), &[0, 1, 2, 3]);
        assert_eq!(s.buffered(), 0);
        s.push(10); // hibernating: skipped
        assert_eq!(s.last_window(), &[0, 1, 2, 3], "kept while hibernating");
        s.push(11); // the next burst starts (and skips this write)
        assert!(s.last_window().is_empty());
        for id in 20..24u64 {
            s.push(id);
        }
        assert_eq!(s.last_window(), &[20, 21, 22, 23]);
    }

    #[test]
    fn flush_on_empty_is_none() {
        let mut s = BurstSampler::new(10, 8, None);
        assert!(s.flush().is_none());
    }
}
