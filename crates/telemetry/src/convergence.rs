//! Adaptation-convergence analysis over the pinned capacity-change
//! timeline.
//!
//! The adaptive policy records every MRC-window decision as a pinned
//! `CapacityChange` event (and the KV shard controller additionally as
//! a `CapacityChoice`). This module answers the ROADMAP's two
//! questions about that stream: *how many windows did the controller
//! take to find the knee* (`windows_to_knee`), and *did it re-converge
//! after a workload phase shift* ([`analyze_shift`]).

/// One capacity decision: at time `t` the controller observed MRC knee
/// `knee` and chose `capacity` lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityEvent {
    /// Decision time on the owner's time axis (op ordinal or cycles).
    pub t: u64,
    /// The miss-ratio-curve knee the decision was derived from.
    pub knee: u64,
    /// The capacity the controller applied.
    pub capacity: u64,
}

/// Tolerances for calling a decision stream "converged".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceConfig {
    /// Decisions within `tol` lines of the final capacity count as
    /// stable (the controller adds a +1 safety line over the knee, so
    /// the default tolerates exactly that jitter).
    pub tol: u64,
    /// Minimum length of the stable suffix required to report
    /// `converged` (1 = the last decision alone suffices).
    pub min_stable: usize,
}

impl Default for ConvergenceConfig {
    fn default() -> Self {
        ConvergenceConfig {
            tol: 1,
            min_stable: 1,
        }
    }
}

/// Convergence verdict for one decision stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Convergence {
    /// Total decision windows observed.
    pub windows: usize,
    /// Capacity of the last decision (0 when the stream is empty).
    pub final_capacity: u64,
    /// 1-based index of the first decision of the maximal suffix whose
    /// capacities all sit within `tol` of the final capacity — i.e.
    /// how many MRC windows the controller needed to land on (and keep)
    /// the knee. `None` when the stream is empty.
    pub windows_to_knee: Option<usize>,
    /// True iff the stable suffix is at least `min_stable` long.
    pub converged: bool,
}

impl Convergence {
    fn empty() -> Self {
        Convergence {
            windows: 0,
            final_capacity: 0,
            windows_to_knee: None,
            converged: false,
        }
    }
}

/// Analyze one shard's decision stream (events in time order).
pub fn analyze(events: &[CapacityEvent], cfg: &ConvergenceConfig) -> Convergence {
    let Some(last) = events.last() else {
        return Convergence::empty();
    };
    let final_capacity = last.capacity;
    // walk backwards over the maximal stable suffix
    let mut first_stable = events.len();
    for (i, e) in events.iter().enumerate().rev() {
        if e.capacity.abs_diff(final_capacity) <= cfg.tol {
            first_stable = i;
        } else {
            break;
        }
    }
    let stable_len = events.len() - first_stable;
    Convergence {
        windows: events.len(),
        final_capacity,
        windows_to_knee: Some(first_stable + 1),
        converged: stable_len >= cfg.min_stable,
    }
}

/// Convergence across a workload phase shift at time `shift_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShiftReport {
    /// Verdict over decisions strictly before the shift.
    pub pre: Convergence,
    /// Verdict over decisions at or after the shift.
    pub post: Convergence,
    /// Did the controller settle again after the phase change? True
    /// iff the post-shift stream is non-empty and converged.
    pub reconverged: bool,
}

/// Split the stream at `shift_t` and analyze each phase independently.
/// `windows_to_knee` in `post` is the re-convergence window count the
/// ROADMAP asks to bound.
pub fn analyze_shift(
    events: &[CapacityEvent],
    shift_t: u64,
    cfg: &ConvergenceConfig,
) -> ShiftReport {
    let split = events.partition_point(|e| e.t < shift_t);
    let pre = analyze(&events[..split], cfg);
    let post = analyze(&events[split..], cfg);
    ShiftReport {
        pre,
        post,
        reconverged: post.windows > 0 && post.converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, capacity: u64) -> CapacityEvent {
        CapacityEvent {
            t,
            knee: capacity.saturating_sub(1),
            capacity,
        }
    }

    #[test]
    fn empty_stream_is_unconverged() {
        let c = analyze(&[], &ConvergenceConfig::default());
        assert_eq!(c.windows, 0);
        assert_eq!(c.windows_to_knee, None);
        assert!(!c.converged);
    }

    #[test]
    fn immediate_convergence_is_window_one() {
        let evs = [ev(10, 64), ev(20, 64), ev(30, 65)];
        let c = analyze(&evs, &ConvergenceConfig::default());
        // all decisions within tol=1 of the final 65
        assert_eq!(c.windows_to_knee, Some(1));
        assert_eq!(c.final_capacity, 65);
        assert!(c.converged);
    }

    #[test]
    fn late_convergence_counts_search_windows() {
        let evs = [ev(1, 10), ev(2, 200), ev(3, 64), ev(4, 64), ev(5, 64)];
        let c = analyze(&evs, &ConvergenceConfig::default());
        assert_eq!(c.windows, 5);
        assert_eq!(c.windows_to_knee, Some(3));
        assert!(c.converged);
    }

    #[test]
    fn min_stable_gates_the_verdict() {
        let evs = [ev(1, 10), ev(2, 90)];
        let strict = ConvergenceConfig {
            tol: 1,
            min_stable: 2,
        };
        let c = analyze(&evs, &strict);
        assert_eq!(c.windows_to_knee, Some(2));
        assert!(!c.converged, "stable suffix of 1 < min_stable 2");
        let lax = ConvergenceConfig::default();
        assert!(analyze(&evs, &lax).converged);
    }

    #[test]
    fn shift_splits_and_checks_reconvergence() {
        let evs = [
            ev(10, 64),
            ev(20, 64),
            // phase shift at t=100: knee moves, controller hunts, lands
            ev(110, 200),
            ev(120, 128),
            ev(130, 128),
        ];
        let r = analyze_shift(&evs, 100, &ConvergenceConfig::default());
        assert_eq!(r.pre.windows, 2);
        assert_eq!(r.pre.final_capacity, 64);
        assert_eq!(r.post.windows, 3);
        assert_eq!(r.post.final_capacity, 128);
        assert_eq!(r.post.windows_to_knee, Some(2));
        assert!(r.reconverged);
    }

    #[test]
    fn shift_with_no_post_events_does_not_reconverge() {
        let evs = [ev(10, 64), ev(20, 64)];
        let r = analyze_shift(&evs, 100, &ConvergenceConfig::default());
        assert_eq!(r.pre.windows, 2);
        assert_eq!(r.post.windows, 0);
        assert!(!r.reconverged);
    }
}
