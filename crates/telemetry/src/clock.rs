//! Monotonic nanosecond clocks for span timing.
//!
//! Wall-clock timestamps are deliberately kept *out* of the replay
//! core — its time axis is simulated cycles and the differential tests
//! pin parallel replay bit-identical to sequential. Span timing lives
//! in the serving layers (FASE runtime commit, KV ops, recovery),
//! where a real clock is meaningful. Tests swap in the deterministic
//! [`FakeClock`] so latency histograms are reproducible.

use std::cell::Cell;
use std::time::Instant;

/// A monotonic nanosecond clock.
pub trait Clock {
    /// Nanoseconds since an arbitrary fixed origin; monotone
    /// non-decreasing across calls.
    fn now_ns(&self) -> u64;
}

/// The real clock: `Instant`-anchored monotonic nanoseconds.
#[derive(Debug, Clone)]
pub struct MonoClock {
    origin: Instant,
}

impl MonoClock {
    /// A clock anchored at construction time.
    pub fn new() -> Self {
        MonoClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonoClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonoClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A deterministic fake: every `now_ns` call returns the current value
/// and then advances it by a fixed step, so a span of `k` interior
/// clock reads always measures exactly `k * step` (plus any manual
/// [`FakeClock::advance`] calls in between). `Cell`-based — shared
/// references can read it, matching the `Clock` trait's `&self`.
#[derive(Debug, Clone)]
pub struct FakeClock {
    now: Cell<u64>,
    step: u64,
}

impl FakeClock {
    /// A fake clock starting at `start` that auto-advances by `step`
    /// nanoseconds per `now_ns` call.
    pub fn new(start: u64, step: u64) -> Self {
        FakeClock {
            now: Cell::new(start),
            step,
        }
    }

    /// Manually advance the clock by `delta` nanoseconds.
    pub fn advance(&self, delta: u64) {
        self.now.set(self.now.get().saturating_add(delta));
    }
}

impl Clock for FakeClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        let t = self.now.get();
        self.now.set(t.saturating_add(self.step));
        t
    }
}

/// Enum-dispatched clock holder for long-lived owners (the FASE
/// runtime keeps one). Static match dispatch, no `dyn`, so the real
/// path stays a single branch plus an `Instant::elapsed`.
#[derive(Debug, Clone)]
pub enum ClockSource {
    /// The real monotonic clock.
    Mono(MonoClock),
    /// The deterministic test clock.
    Fake(FakeClock),
}

impl ClockSource {
    /// A real monotonic clock anchored now.
    pub fn mono() -> Self {
        ClockSource::Mono(MonoClock::new())
    }

    /// A deterministic fake clock (see [`FakeClock::new`]).
    pub fn fake(start: u64, step: u64) -> Self {
        ClockSource::Fake(FakeClock::new(start, step))
    }
}

impl Default for ClockSource {
    fn default() -> Self {
        Self::mono()
    }
}

impl Clock for ClockSource {
    #[inline]
    fn now_ns(&self) -> u64 {
        match self {
            ClockSource::Mono(c) => c.now_ns(),
            ClockSource::Fake(c) => c.now_ns(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mono_clock_is_monotone() {
        let c = MonoClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn fake_clock_auto_advances_deterministically() {
        let c = FakeClock::new(100, 7);
        assert_eq!(c.now_ns(), 100);
        assert_eq!(c.now_ns(), 107);
        c.advance(1000);
        assert_eq!(c.now_ns(), 1114);
    }

    #[test]
    fn fake_clock_zero_step_needs_manual_advance() {
        let c = FakeClock::new(5, 0);
        assert_eq!(c.now_ns(), 5);
        assert_eq!(c.now_ns(), 5);
        c.advance(3);
        assert_eq!(c.now_ns(), 8);
    }

    #[test]
    fn clock_source_dispatches() {
        let f = ClockSource::fake(1, 1);
        assert_eq!(f.now_ns(), 1);
        assert_eq!(f.now_ns(), 2);
        let m = ClockSource::mono();
        let a = m.now_ns();
        assert!(m.now_ns() >= a);
    }

    #[test]
    fn fake_clock_saturates_instead_of_wrapping() {
        let c = FakeClock::new(u64::MAX - 1, 10);
        assert_eq!(c.now_ns(), u64::MAX - 1);
        assert_eq!(c.now_ns(), u64::MAX);
        c.advance(u64::MAX);
        assert_eq!(c.now_ns(), u64::MAX);
    }
}
