//! Synthetic trace generators.
//!
//! Used by unit/property tests and by ablation benchmarks where a
//! controlled locality structure is required: cyclic working sets put the
//! MRC knee at an exact, known size; zipf traces produce smooth knee-less
//! MRCs; phased traces exercise adaptation.

use crate::event::Line;
use crate::trace::{ThreadTrace, Trace};
use rand::distributions::Distribution;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Options shared by the generators.
#[derive(Debug, Clone)]
pub struct SynthOpts {
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Writes per FASE; `0` means a single FASE around the whole trace.
    pub writes_per_fase: usize,
    /// Work units inserted between consecutive writes.
    pub work_per_write: u32,
}

impl Default for SynthOpts {
    fn default() -> Self {
        SynthOpts {
            seed: 0x5eed,
            writes_per_fase: 0,
            work_per_write: 1,
        }
    }
}

fn emit(lines: impl IntoIterator<Item = u64>, opts: &SynthOpts) -> Trace {
    let mut t = ThreadTrace::new();
    t.fase_begin();
    let mut in_fase = 0usize;
    for l in lines {
        if opts.writes_per_fase > 0 && in_fase == opts.writes_per_fase {
            t.fase_end();
            t.fase_begin();
            in_fase = 0;
        }
        t.write(Line(l));
        t.work(opts.work_per_write);
        in_fase += 1;
    }
    t.fase_end();
    Trace::from_threads(vec![t])
}

/// Sequential sweep: writes lines `0..lines` in order, repeated `rounds`
/// times. An LRU cache of size ≥ `lines` hits on every revisit; any
/// smaller cache always misses (the classic LRU cliff).
pub fn sequential(lines: u64, rounds: usize, opts: &SynthOpts) -> Trace {
    emit((0..rounds).flat_map(move |_| 0..lines), opts)
}

/// Cyclic working set: like [`sequential`] but the canonical name for the
/// "knee at exactly `wss`" construction used by knee-detection tests.
pub fn cyclic(wss: u64, rounds: usize, opts: &SynthOpts) -> Trace {
    sequential(wss, rounds, opts)
}

/// Uniform random writes over `lines` distinct lines.
pub fn uniform(lines: u64, n: usize, opts: &SynthOpts) -> Trace {
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    emit((0..n).map(move |_| rng.gen_range(0..lines)), opts)
}

/// Zipf-distributed writes (skew `s`) over `lines` distinct lines. Uses
/// inverse-CDF sampling over precomputed weights; fine for the modest
/// alphabet sizes used in tests and benches.
pub fn zipf(lines: u64, n: usize, s: f64, opts: &SynthOpts) -> Trace {
    assert!(lines > 0);
    let mut weights = Vec::with_capacity(lines as usize);
    let mut total = 0.0f64;
    for i in 1..=lines {
        let w = 1.0 / (i as f64).powf(s);
        total += w;
        weights.push(total);
    }
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let dist = rand::distributions::Uniform::new(0.0, total);
    emit(
        (0..n).map(move |_| {
            let x = dist.sample(&mut rng);
            weights.partition_point(|&c| c < x) as u64
        }),
        opts,
    )
}

/// Two-phase trace: `n1` writes over a working set of `w1` lines, then
/// `n2` writes over a *different* working set of `w2` lines. Exercises
/// online adaptation (the best capacity changes mid-run).
pub fn phased(w1: u64, n1: usize, w2: u64, n2: usize, opts: &SynthOpts) -> Trace {
    let a = (0..n1).map(move |i| i as u64 % w1);
    let b = (0..n2).map(move |i| (1 << 30) + i as u64 % w2);
    emit(a.chain(b), opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_counts() {
        let tr = sequential(10, 3, &SynthOpts::default());
        assert_eq!(tr.total_writes(), 30);
        assert_eq!(tr.distinct_lines(), 10);
        assert_eq!(tr.total_fases(), 1);
    }

    #[test]
    fn fase_chunking() {
        let opts = SynthOpts {
            writes_per_fase: 7,
            ..Default::default()
        };
        let tr = sequential(10, 3, &opts);
        assert_eq!(tr.total_writes(), 30);
        // 30 writes / 7 per fase = 5 fases (last partial)
        assert_eq!(tr.total_fases(), 5);
    }

    #[test]
    fn uniform_is_seeded_deterministic() {
        let a = uniform(100, 1000, &SynthOpts::default());
        let b = uniform(100, 1000, &SynthOpts::default());
        assert_eq!(a, b);
        let c = uniform(
            100,
            1000,
            &SynthOpts {
                seed: 99,
                ..Default::default()
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_skews_toward_low_ids() {
        let tr = zipf(1000, 20_000, 1.2, &SynthOpts::default());
        let writes: Vec<_> = tr.threads[0].writes().collect();
        let low = writes.iter().filter(|l| l.0 < 10).count();
        // with s=1.2 the top-10 lines should dominate
        assert!(
            low * 3 > writes.len(),
            "zipf skew too weak: {low}/{}",
            writes.len()
        );
    }

    #[test]
    fn phased_has_two_working_sets() {
        let tr = phased(8, 100, 32, 100, &SynthOpts::default());
        assert_eq!(tr.distinct_lines(), 40);
        assert_eq!(tr.total_writes(), 200);
    }

    #[test]
    fn replicated_shares_one_buffer() {
        let tr = sequential(4, 2, &SynthOpts::default());
        let r = Trace::replicated(tr.threads[0].clone(), 3);
        assert_eq!(r.num_threads(), 3);
        assert_eq!(r.total_writes(), 24);
        assert!(r
            .threads
            .iter()
            .all(|t| std::sync::Arc::ptr_eq(t, &tr.threads[0])));
        let copies = vec![(*tr.threads[0]).clone(); 3];
        assert_eq!(r, Trace::from_threads(copies));
        assert_eq!(
            Trace::replicated(tr.threads[0].clone(), 0),
            Trace::default()
        );
    }
}
